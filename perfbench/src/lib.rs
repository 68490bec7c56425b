//! The Jigsaw repository benchmark.
//!
//! Three workloads drive the system only through the entry points a user
//! drives — `jigsaw_sql::compile` + `Scenario::run_batch` for batch work,
//! `JigsawServer::builder()` and framed requests on the wire for served
//! work — and report end-to-end numbers from an untraced run and per-layer
//! numbers from a traced one. `README.md` in this directory maps every
//! metric to its layer.

pub mod batch;
pub mod gates;
pub mod layers;
pub mod report;
pub mod scenarios;
pub mod served;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use jigsaw_prng::stats::{mean, quantile};
use report::{peak_rss_mb, Report};
use scenarios::{mix, Scale, Spec};
use served::{Dash, Hist, Load, Traffic};
use trace::Recorder;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of the paper's Figure 1 `OPTIMIZE` query (reuse-bound).
    CapacityPlan,
    /// Closed loop of a 52-week tenant roll-up (zero reuse, data-bound).
    TenantRollup,
    /// Open-loop reads and periodic writer sessions against a server.
    DashboardMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::CapacityPlan, Workload::TenantRollup, Workload::DashboardMix];

    /// The workloads `BENCHMARK.json` lists, so the ones a change is
    /// gated on. `tenant_rollup` runs only by hand: on a shared 2-vCPU host
    /// its query time swings too far between runs for any allowed bound
    /// (`README.md`, "Noise on this machine").
    pub const GATED: [Workload; 2] = [Workload::CapacityPlan, Workload::DashboardMix];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CapacityPlan => "capacity_plan",
            Workload::TenantRollup => "tenant_rollup",
            Workload::DashboardMix => "dashboard_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Read latency limit for the SLO metrics, µs.
    pub read_slo_us: f64,
    /// Highest generator lateness (p99, µs) for a valid served run.
    pub max_late_us: f64,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for server snapshots and the span file.
    pub out_dir: PathBuf,
}

/// Run a workload. `Err` means the run produced no valid measurement (a
/// set-up failure, or a load generator that ran late).
pub fn run(o: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run_ix = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let snaps = o.out_dir.join(format!("snapshots-{}-{run_ix}", std::process::id()));
    let epoch = Instant::now();
    let mut rec = Recorder::new(o.trace, epoch);
    let mut report = Report::default();
    report.note("workload", o.workload.name());
    report.note("seed", o.seed);
    report.note("seconds", o.seconds);
    report.note("offered_read_rps", o.scale.read_rps);
    report.note("writer_period_s", o.scale.write_period_s);
    report.note("read_slo_us", o.read_slo_us);
    report.note("max_late_us", o.max_late_us);
    let result = match o.workload {
        Workload::CapacityPlan => {
            batch_workload(o, scenarios::capacity, &snaps, &mut rec, &mut report)
        }
        Workload::TenantRollup => {
            batch_workload(o, scenarios::tenant, &snaps, &mut rec, &mut report)
        }
        Workload::DashboardMix => dashboard(o, &snaps, &mut rec, &mut report),
    };
    let _ = std::fs::remove_dir_all(&snaps);
    result?;
    report.set("error_ratio", report.failed as f64 / report.attempted.max(1) as f64);
    if o.trace {
        let path = o.out_dir.join(format!("spans-{}-{}.json", o.workload.name(), o.seed));
        std::fs::write(&path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        report.note("spans", path.display());
    }
    Ok(report)
}

fn batch_workload(
    o: &Options,
    make: fn(u64, &Scale) -> Spec,
    snaps: &std::path::Path,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up: build the inputs, compile, and run one warm-up query.
    let mut setups = Vec::new();
    let mut spec = None;
    for k in 0..o.scale.setups.max(1) {
        let t = Instant::now();
        let s = make(o.seed, &o.scale);
        let mut off = Recorder::new(false, t);
        batch::query(&s, batch::query_seeds(o.seed, 0xFFFF_0000 + k as u64), &mut off, 0)
            .map_err(|e| format!("warm-up query: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        spec = Some(s);
    }
    let spec = spec.expect("at least one set-up");
    report.set("setup_s", quantile(&setups, 0.5));

    let ticks = report::cpu_ticks();
    let lp = batch::closed_loop(&spec, o.seed, Duration::from_secs_f64(o.seconds), 1, rec, report);
    note_steal(report, ticks);
    set_peak_rss(report)?;
    batch::check_first(&spec, &lp, report);
    let s = stats::summarize_windows(&lp.latency_ms).ok_or("no query completed")?;
    set_op(report, s, "queries");
    if !o.trace {
        return Ok(());
    }
    batch::layer_metrics(&lp, rec, report);
    report.set("bench.trace_overhead_pct", overhead_pct(&lp.traced_ms, &lp.untraced_ms));
    let seeds = lp.first.as_ref().map(|f| f.seeds).ok_or("no first query")?;
    layers::probe(&spec, seeds, o.seed, &o.scale, report)?;

    // The served layers, on this workload's scenario.
    let mut dash = served::setup(&spec, o.seed, &o.scale, snaps)?;
    let before = dash.metrics_text()?;
    let load = Load {
        read_rps: o.scale.read_rps,
        seconds: o.scale.probe_seconds,
        writer: true,
        stream: 0,
    };
    let t = served::traffic(&mut dash, &spec, o.seed, &o.scale, load, rec, report);
    served_metrics(o, &mut dash, &spec, &t, &before, rec, report)?;
    dash.shutdown()
}

fn dashboard(
    o: &Options,
    snaps: &std::path::Path,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let spec = scenarios::capacity(o.seed, &o.scale);
    // Set-up: start a server, warm the shared scenario, record references.
    let mut setups = Vec::new();
    let mut dash: Option<Dash> = None;
    for k in 0..o.scale.setups.max(1) {
        if let Some(d) = dash.take() {
            d.shutdown()?;
        }
        let t = Instant::now();
        dash = Some(served::setup(&spec, o.seed, &o.scale, &snaps.join(k.to_string()))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut dash = dash.expect("at least one set-up");
    report.set("setup_s", quantile(&setups, 0.5));

    let before = dash.metrics_text()?;
    let load = Load { read_rps: o.scale.read_rps, seconds: o.seconds, writer: true, stream: 0 };
    let ticks = report::cpu_ticks();
    let t = served::traffic(&mut dash, &spec, o.seed, &o.scale, load, rec, report);
    note_steal(report, ticks);
    set_peak_rss(report)?;
    if t.read_us.is_empty() {
        let _ = dash.shutdown();
        return Err("no read completed".into());
    }
    let late_p99 = quantile(&t.late_us, 0.99);
    report.note("loadgen_late_p99_us", format!("{late_p99:.1}"));
    report.note("write_sessions", t.write_ms.len());
    if late_p99 > o.max_late_us {
        let _ = dash.shutdown();
        return Err(format!(
            "invalid run: load generator p99 lateness {late_p99:.0} us exceeds {} us",
            o.max_late_us
        ));
    }
    let ms: Vec<f64> = t.read_us.iter().map(|us| us / 1e3).collect();
    set_op(report, stats::summarize_windows(&ms).expect("reads completed"), "reads");
    if o.trace {
        served_metrics(o, &mut dash, &spec, &t, &before, rec, report)?;
        report.set("bench.trace_overhead_pct", overhead_pct(&t.traced_us, &t.untraced_us));
        // The batch layers, on the dashboard's scenario.
        let lp =
            batch::closed_loop(&spec, o.seed, Duration::ZERO, o.scale.probe_queries, rec, report);
        batch::check_first(&spec, &lp, report);
        batch::layer_metrics(&lp, rec, report);
        let seeds = lp.first.as_ref().map(|f| f.seeds).ok_or("no first query")?;
        layers::probe(&spec, seeds, o.seed, &o.scale, report)?;
    }
    dash.shutdown()
}

/// The process's peak RSS so far: read right after the measured stretch,
/// so the untimed gates and probes that follow do not count.
fn set_peak_rss(report: &mut Report) -> Result<(), String> {
    report.set("peak_rss_mb", peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?);
    Ok(())
}

/// Note the share of CPU time the host stole since `before`, so a slow run
/// can be told apart from a slow program.
fn note_steal(report: &mut Report, before: Option<(u64, u64)>) {
    if let (Some((s0, t0)), Some((s1, t1))) = (before, report::cpu_ticks()) {
        let pct = (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0;
        report.note("host_steal_pct", format!("{pct:.2}"));
    }
}

fn set_op(report: &mut Report, s: stats::Summary, what: &str) {
    report.set("op_p50_ms", s.p50);
    report.set("op_tail_ms", s.tail);
    report.note("op", what);
    report.note("op_samples", s.n);
    report.note("op_tail_percentile", s.tail_pct);
    report.note("op_p50_windows", s.p50_windows);
    report.note("op_tail_windows", s.tail_windows);
}

fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    (quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0) * 100.0
}

/// Served-layer metrics of one stretch of traffic: `METRICS` histograms
/// since `before`, the generator's own numbers, read self times, and the
/// highest sustainable read rate.
fn served_metrics(
    o: &Options,
    dash: &mut Dash,
    spec: &Spec,
    t: &Traffic,
    before: &str,
    rec: &Recorder,
    report: &mut Report,
) -> Result<(), String> {
    if t.read_us.is_empty() {
        return Err("no read completed".into());
    }
    let after = dash.metrics_text()?;
    let hist = |name: &str, label: &str| {
        Hist::parse(&after, name, label).since(&Hist::parse(before, name, label))
    };
    let verb = |v: &str| hist("jigsaw_request_us", &format!("verb=\"{v}\""));
    let est = verb("ESTIMATE");
    report.set("server.estimate_us.p50", est.quantile(0.5));
    report.set("server.estimate_us.p99", est.quantile(0.99));
    report.set("server.sweep_us.p50", verb("SWEEP").quantile(0.5));
    report.set("server.compile_us.p50", verb("COMPILE").quantile(0.5));
    report.set("server.save_us.p50", verb("SAVE").quantile(0.5));
    report.set("server.load_us.p50", verb("LOAD").quantile(0.5));
    report.set("server.pump_pass_us.p99", hist("jigsaw_pump_pass_us", "").quantile(0.99));
    let malformed = |text: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix("jigsaw_requests_malformed_total "))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let errs = (t.read_failed + t.write_failed) as f64 + malformed(&after) - malformed(before);
    report.set("server.err_total", errs);
    report.set("server.read_wait_us", mean(&t.read_us) - est.mean());

    let misses = t.read_us.iter().filter(|&&us| us > o.read_slo_us).count() as u64 + t.read_failed;
    report.set("read_slo_miss_ratio", misses as f64 / t.read_us.len().max(1) as f64);
    let w = stats::summarize(&t.write_ms).ok_or("no writer session completed")?;
    report.set("write_session_p50_ms", w.p50);
    report.set("write_session_tail_ms", w.tail);
    report.note("write_sessions", w.n);
    report.note("write_tail_percentile", w.tail_pct);
    report.set("loadgen.late_us.p99", quantile(&t.late_us, 0.99));
    report.set("loadgen.offered_rps", o.scale.read_rps);
    report.set("loadgen.achieved_rps", t.read_us.len() as f64 / t.seconds);

    let (by_layer, mean_ns, n) = rec.layer_self_means("read");
    let layer = |l: &str| by_layer.get(l).copied().unwrap_or(0.0) / 1e3;
    report.set("trace.read_us", mean_ns / 1e3);
    report.set("self.read.loadgen_us", layer("loadgen"));
    report.set("self.read.protocol_us", layer("protocol"));
    report.set("self.read.wire_us", layer("wire"));
    report.note("traced_reads", n);

    let seed = mix(o.seed, 0x4C41_4444);
    let max_rps = served::max_read_rps(dash, spec, seed, &o.scale, o.read_slo_us, report);
    report.set("read_max_rps", max_rps);
    Ok(())
}
