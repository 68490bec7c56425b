//! The metric catalogue, the run report, and the environment record.
//!
//! Every metric the benchmark can print is named here once, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! self-tests keep the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Which run prints a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    PerLayer,
}

/// One metric: name, unit, and which run prints it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Which run prints it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, kind: Kind::EndToEnd }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, kind: Kind::PerLayer }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, kind: Kind::PerLayer }
}

/// Every metric, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
    e2e("op_p50_ms", "ms"),
    e2e("op_tail_ms", "ms"),
    // Outcomes and load generation.
    lower("error_ratio", "ratio"),
    higher("points_per_s", "1/s"),
    lower("read_slo_miss_ratio", "ratio"),
    higher("read_max_rps", "1/s"),
    lower("write_session_p50_ms", "ms"),
    lower("write_session_tail_ms", "ms"),
    lower("loadgen.late_us.p99", "us"),
    higher("loadgen.offered_rps", "1/s"),
    higher("loadgen.achieved_rps", "1/s"),
    lower("bench.trace_overhead_pct", "%"),
    // Self time per layer from the traced operations.
    lower("trace.query_ms", "ms"),
    lower("self.query.bench_ms", "ms"),
    lower("self.query.sqlfront_ms", "ms"),
    lower("self.query.optimizer_ms", "ms"),
    lower("self.query.basis_ms", "ms"),
    lower("self.query.pdb_ms", "ms"),
    lower("trace.read_us", "us"),
    lower("self.read.loadgen_us", "us"),
    lower("self.read.protocol_us", "us"),
    lower("self.read.wire_us", "us"),
    // sqlfront.
    lower("sqlfront.compile_us", "us"),
    // core::optimizer: executor phases, counts, selector, pools.
    lower("optimizer.fingerprint_ms", "ms"),
    lower("optimizer.resolve_ms", "ms"),
    lower("optimizer.completion_ms", "ms"),
    lower("optimizer.commit_ms", "ms"),
    lower("optimizer.worlds_per_query", "count"),
    lower("optimizer.full_sims_per_query", "count"),
    lower("optimizer.pairings_per_query", "count"),
    lower("optimizer.waves_per_query", "count"),
    higher("optimizer.reuse_rate", "ratio"),
    lower("optimizer.result_sample_bytes", "bytes"),
    lower("optimizer.select_us", "us"),
    lower("pool.scatter_us.scoped", "us"),
    lower("pool.scatter_us.persistent", "us"),
    // pdb, blackbox, prng.
    lower("pdb.fingerprint_ns_per_world", "ns"),
    lower("pdb.completion_ns_per_world", "ns"),
    lower("pdb.affine_image_ns_per_sample", "ns"),
    lower("blackbox.eval_ns_per_call", "ns"),
    lower("prng.ns_per_draw", "ns"),
    // core::basis / core::index.
    lower("basis.find_match_ns", "ns"),
    lower("basis.pairings_per_lookup", "count"),
    lower("basis.store_bytes", "bytes"),
    higher("basis.snapshot_encode_mb_per_s", "MB/s"),
    higher("basis.snapshot_decode_mb_per_s", "MB/s"),
    // core::interactive.
    lower("session.estimate_warm_us", "us"),
    lower("session.estimate_cold_us", "us"),
    // server: protocol and connection loops.
    lower("protocol.request_roundtrip_ns", "ns"),
    lower("protocol.response_roundtrip_ns", "ns"),
    lower("server.estimate_us.p50", "us"),
    lower("server.estimate_us.p99", "us"),
    lower("server.sweep_us.p50", "us"),
    lower("server.compile_us.p50", "us"),
    lower("server.save_us.p50", "us"),
    lower("server.load_us.p50", "us"),
    lower("server.pump_pass_us.p99", "us"),
    lower("server.err_total", "count"),
    lower("server.read_wait_us", "us"),
];

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, reads, writer sessions, checks).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Descriptions of wrong answers; any makes the run incorrect.
    pub wrong: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed with the result (tail percentiles, sample counts,
    /// offered rates, ...).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Record a metric value; the name must be in [`METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric `{name}` is not in the catalogue");
        self.values.insert(name, value);
    }

    /// Record context.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.insert(key.into(), value.to_string());
    }

    /// Count an operation; `ok = false` counts it as failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count a wrong answer: a failed operation that also fails the run.
    pub fn wrong(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong.push(what.into());
    }

    /// True when no answer was wrong.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The result line: the metrics of `kind`, optionally narrowed to
    /// `only`. Errors name a metric of `kind` the run did not measure.
    pub fn result_json(&self, kind: Kind, only: &[String]) -> Result<String, String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for d in METRICS.iter().filter(|d| d.kind == kind) {
            if !only.is_empty() && !only.iter().any(|o| o == d.name) {
                continue;
            }
            let v = self.values.get(d.name).ok_or_else(|| format!("metric {} missing", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            let sep = if first { "" } else { ", " };
            first = false;
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The notes as one JSON object.
    pub fn notes_json(&self) -> String {
        let body: Vec<String> =
            self.notes.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', " ")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Steal and total ticks over all CPUs, from the `cpu` line of
/// `/proc/stat`. Steal is time the host ran something else while a vCPU
/// of this machine was ready to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// What produced a number: source revision, machine, toolchain, build.
pub fn environment(root: &Path) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    // Git may not look above the checkout for a repository.
    let ceiling = root.parent().unwrap_or(root);
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    env.insert("git_rev".into(), cmd("git", &["rev-parse", "HEAD"]).unwrap_or("none".into()));
    env.insert("source_digest".into(), format!("{:016x}", source_digest(root)));
    env.insert(
        "nproc".into(),
        std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
    );
    env.insert("rustc".into(), cmd("rustc", &["--version"]).unwrap_or("unknown".into()));
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    env.insert("profile".into(), profile.into());
    env
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds,
/// so a result can be traced to its code where there is no git checkout.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(root), std::fs::read(&f)) {
            eat(rel.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, d) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|e| e.name != d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn result_json_refuses_a_missing_metric() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        assert!(r.result_json(Kind::EndToEnd, &[]).unwrap_err().contains("peak_rss_mb"));
        let only = ["setup_s".to_string()];
        let line = r.result_json(Kind::EndToEnd, &only).unwrap();
        assert!(line.contains("\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}"), "{line}");
    }
}
