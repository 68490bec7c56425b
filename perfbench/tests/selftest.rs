//! Self-tests of the benchmark: every workload emits every metric at micro
//! scale with no wrong answer, `BENCHMARK.json` names exactly the metrics
//! the benchmark prints, and the command line refuses unknown names.

use std::process::Command;

use jigsaw_perfbench::report::{Kind, METRICS};
use jigsaw_perfbench::scenarios::Scale;
use jigsaw_perfbench::{run, Options, Workload};

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        read_slo_us: 5000.0,
        max_late_us: 1e9,
        scale: Scale::micro(),
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{}-{trace}", workload.name())),
    }
}

#[test]
fn every_workload_emits_every_metric_at_micro_scale() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(&options(w, trace)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(r.correct(), "{}: wrong answers {:?}", w.name(), r.wrong);
            assert_eq!(r.failed, 0, "{}", w.name());
            let kind = if trace { Kind::PerLayer } else { Kind::EndToEnd };
            let line = r.result_json(kind, &[]).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            for d in METRICS.iter().filter(|d| d.kind == kind) {
                assert!(line.contains(&format!("\"{}\": {{\"value\"", d.name)), "{}", d.name);
            }
            if trace {
                assert_eq!(r.values["error_ratio"], 0.0);
            }
        }
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    let counts = [
        "optimizer.worlds_per_query",
        "optimizer.full_sims_per_query",
        "optimizer.pairings_per_query",
        "optimizer.reuse_rate",
        "optimizer.result_sample_bytes",
        "basis.pairings_per_lookup",
    ];
    let a = run(&options(Workload::CapacityPlan, true)).unwrap();
    let b = run(&options(Workload::CapacityPlan, true)).unwrap();
    for c in counts {
        assert_eq!(a.values[c].to_bits(), b.values[c].to_bits(), "{c}");
    }
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for d in METRICS {
        let better = if d.higher_is_better { "higher" } else { "lower" };
        let entry =
            format!("\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"", d.name, d.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\":").count(), METRICS.len(), "extra metrics in BENCHMARK.json");
    let workloads = json.split("\"workloads\": [").nth(1).and_then(|s| s.split(']').next());
    let listed: Vec<&str> = workloads
        .expect("a workloads list")
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let gated: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    assert_eq!(listed, gated, "BENCHMARK.json workloads");
}

#[test]
fn command_line_refuses_unknown_names() {
    let exe = env!("CARGO_BIN_EXE_jigsaw-perfbench");
    let base = [
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--read-slo-us",
        "1",
        "--max-late-us",
        "1",
    ];
    let code = |extra: &[&str]| {
        Command::new(exe).args(base).args(extra).output().expect("runs").status.code()
    };
    assert_eq!(code(&["--workload", "nope"]), Some(2));
    assert_eq!(code(&["--workload", "capacity_plan", "--metric", "nope"]), Some(2));
    assert_eq!(
        code(&["--workload", "capacity_plan", "--metric", "pdb.completion_ns_per_world"]),
        Some(2)
    );
    assert_eq!(code(&["--workload", "capacity_plan", "--bogus", "1"]), Some(2));
    assert_eq!(code(&[]), Some(2), "a missing workload is an error");
}
