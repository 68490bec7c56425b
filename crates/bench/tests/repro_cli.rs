//! `repro` refuses a bad `--exp` instead of silently running nothing (an
//! unknown name) or everything (a missing list).

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("e1,e2,"), "repro {args:?} must list the valid names: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} must not start a run");
}

#[test]
fn unknown_experiment_name_is_rejected() {
    assert_usage_error(&["--quick", "--exp", "e99"]);
    assert_usage_error(&["--quick", "--exp", "e2,e99"]);
}

#[test]
fn dangling_exp_flag_is_rejected() {
    assert_usage_error(&["--quick", "--exp"]);
}
