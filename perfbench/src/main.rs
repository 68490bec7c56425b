//! Command line of the repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --read-slo-us 5000 --max-late-us 2000 \
//!     --workload capacity_plan --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Prints an environment line and a notes line (both starting `#`), then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exit codes: 0 measured and correct, 1 a wrong answer,
//! 2 a bad command line, 3 no valid measurement.

use std::path::PathBuf;
use std::process::ExitCode;

use jigsaw_perfbench::report::{self, Kind};
use jigsaw_perfbench::scenarios::Scale;
use jigsaw_perfbench::{run, Options, Workload};

const USAGE: &str = "usage: jigsaw-perfbench --workload <capacity_plan|tenant_rollup|dashboard_mix> \
--seed <u64> --seconds <s> --trace <0|1> --read-slo-us <us> --max-late-us <us> [--metric <name>]...";

struct Cli {
    opts: Options,
    only: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut slo, mut late) = (None, None, None, None, None);
    let mut only = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num =
            |v: &String| v.parse::<f64>().map_err(|_| format!("{flag}: `{v}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("--seed: `{v}` is not a u64"))?);
            }
            "--seconds" => seconds = Some(num(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                })
            }
            "--read-slo-us" => slo = Some(num(value()?)?),
            "--max-late-us" => late = Some(num(value()?)?),
            "--metric" => {
                let v = value()?;
                report::def(v).ok_or(format!("unknown metric `{v}`"))?;
                only.push(v.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    let trace = trace.ok_or(need("--trace"))?;
    let kind = if trace { Kind::PerLayer } else { Kind::EndToEnd };
    if let Some(m) = only.iter().find(|m| report::def(m).is_some_and(|d| d.kind != kind)) {
        return Err(format!("metric `{m}` is not printed with --trace {}", u8::from(trace)));
    }
    let seconds = seconds.ok_or(need("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Cli {
        opts: Options {
            workload: workload.ok_or(need("--workload"))?,
            seed: seed.ok_or(need("--seed"))?,
            seconds,
            trace,
            read_slo_us: slo.ok_or(need("--read-slo-us"))?,
            max_late_us: late.ok_or(need("--max-late-us"))?,
            scale: Scale::full(),
            out_dir: PathBuf::from(".perfbench"),
        },
        only,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let o = &cli.opts;
    let env = report::environment(&std::env::current_dir().unwrap_or_default());
    let env: Vec<String> = env.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    println!("# env {{{}}}", env.join(", "));
    let report = match run(o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    println!("# notes {}", report.notes_json());
    for w in &report.wrong {
        eprintln!("wrong: {w}");
    }
    let kind = if o.trace { Kind::PerLayer } else { Kind::EndToEnd };
    match report.result_json(kind, &cli.only) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
