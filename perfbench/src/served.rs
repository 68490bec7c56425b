//! Served work: an in-process `JigsawServer` driven over TCP by a reader
//! connection (open-loop `ESTIMATE`s at a fixed rate over Zipf-skewed keys
//! of a warm scenario) and a writer connection (writer sessions at a fixed
//! low rate). The load generator is the calling thread plus one writer
//! thread, with one connection each.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use jigsaw_prng::dist::{Distribution, Exponential};
use jigsaw_prng::stats::quantile;
use jigsaw_prng::{Rng, Seed, Xoshiro256pp};
use jigsaw_server::protocol::{read_frame, write_frame};
use jigsaw_server::{JigsawServer, Request, Response, ServerHandle, PROTOCOL_VERSION};

use crate::gates;
use crate::report::Report;
use crate::scenarios::{mix, Scale, Spec};
use crate::trace::Recorder;

/// A framed connection that times encode, wire and decode separately.
/// `jigsaw_server::Client` keeps its stream private and offers only a whole
/// request/response call, so this type does its own framing; `connect`
/// repeats `Client::connect`'s `TCP_NODELAY` and `HELLO` handshake.
pub struct Wire {
    stream: TcpStream,
}

impl Wire {
    /// Connect with `TCP_NODELAY` and negotiate the protocol version.
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut w = Wire { stream };
        let mut off = Recorder::new(false, Instant::now());
        match w.call(&Request::Hello { version: PROTOCOL_VERSION }, &mut off, 0, None)? {
            Response::Welcome { .. } => Ok(w),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    /// One request and its reply. With the recorder on, the encode, the
    /// wire round trip (server time included) and the decode become
    /// children of `parent`.
    pub fn call(
        &mut self,
        req: &Request,
        rec: &mut Recorder,
        trace: u64,
        parent: Option<usize>,
    ) -> Result<Response, String> {
        let t0 = Instant::now();
        let payload = req.encode();
        let t1 = Instant::now();
        write_frame(&mut self.stream, &payload).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let t2 = Instant::now();
        let resp = Response::decode(&frame).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        if rec.on() {
            rec.span(trace, parent, "protocol.encode", "protocol", t0, t1);
            rec.span(trace, parent, "wire", "wire", t1, t2);
            rec.span(trace, parent, "protocol.decode", "protocol", t2, t3);
        }
        Ok(resp)
    }
}

/// A served scenario, warm and ready for traffic.
pub struct Dash {
    handle: ServerHandle,
    reader: Wire,
    writer: Wire,
    keys: Vec<(usize, usize)>,
    refs: Vec<Response>,
    zipf_cdf: Vec<f64>,
}

/// Zipf exponent of the read-key popularity: YCSB's default request
/// skew (Cooper et al., SoCC 2010), the usual stand-in for "a few hot
/// panels, a long tail of rarely opened ones".
const ZIPF_S: f64 = 0.99;

/// The CDF of Zipf(`ZIPF_S`) popularity over ranks `0..n`.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

/// The rank a uniform draw `u` in `[0, 1)` picks from a popularity CDF.
/// Take one draw per read: `partition_point` needs a fixed `u` to see a
/// partition.
fn zipf_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Start a server for `spec`, warm its shared scenario with a `SWEEP`, and
/// record the reference reply for every read key.
pub fn setup(spec: &Spec, seed: u64, scale: &Scale, snap_dir: &Path) -> Result<Dash, String> {
    let handle = JigsawServer::builder()
        .config(spec.cfg.clone())
        .master_seed(seed)
        .catalog((*spec.catalog).clone())
        .catalog_name(spec.label)
        .snapshot_dir(snap_dir)
        .conn_threads(2)
        .bind("127.0.0.1:0")
        .and_then(|s| s.serve())
        .map_err(|e| format!("server: {e}"))?;
    let addr = handle.local_addr();
    let mut reader = Wire::connect(addr)?;
    let writer = Wire::connect(addr)?;
    let mut off = Recorder::new(false, Instant::now());
    let (points, cols) =
        match reader.call(&Request::Compile { src: spec.sql.clone() }, &mut off, 0, None)? {
            Response::Compiled { points, columns } => (points, columns.len()),
            other => return Err(format!("COMPILE answered {other:?}")),
        };
    match reader.call(&Request::Sweep, &mut off, 0, None)? {
        Response::Swept { points: p, .. } if p == points => {}
        other => return Err(format!("SWEEP answered {other:?}")),
    }
    let mut rng = Xoshiro256pp::seeded(Seed(mix(seed, 0x4B45_5953)));
    let mut keys = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while keys.len() < scale.read_keys.min(points * cols) {
        let key =
            ((rng.next_u64() % points as u64) as usize, (rng.next_u64() % cols as u64) as usize);
        if seen.insert(key) {
            keys.push(key);
        }
    }
    let mut refs = Vec::with_capacity(keys.len());
    for &(point, col) in &keys {
        match reader.call(&Request::Estimate { point, col }, &mut off, 0, None)? {
            r @ Response::Estimated { .. } => refs.push(r),
            other => return Err(format!("ESTIMATE {point} {col} answered {other:?}")),
        }
    }
    let zipf_cdf = zipf_cdf(keys.len());
    Ok(Dash { handle, reader, writer, keys, refs, zipf_cdf })
}

impl Dash {
    /// Stop the server and wait for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        drop((self.reader, self.writer));
        self.handle.shutdown().map_err(|e| format!("shutdown: {e}"))
    }

    /// The process-wide `METRICS` text, fetched over the reader connection.
    pub fn metrics_text(&mut self) -> Result<String, String> {
        let mut off = Recorder::new(false, Instant::now());
        match self.reader.call(&Request::Metrics, &mut off, 0, None)? {
            Response::Metrics { text } => Ok(text),
            other => Err(format!("METRICS answered {other:?}")),
        }
    }
}

/// What one stretch of traffic measured.
#[derive(Default)]
pub struct Traffic {
    /// Every read's latency from its due time, µs (failures included).
    pub read_us: Vec<f64>,
    /// Untraced and traced reads of a traced run.
    pub untraced_us: Vec<f64>,
    /// See `untraced_us`.
    pub traced_us: Vec<f64>,
    /// Reads that failed or answered wrongly.
    pub read_failed: u64,
    /// Writer sessions that failed or answered wrongly.
    pub write_failed: u64,
    /// How late the generator sent each read beyond what the previous
    /// reply forced, µs.
    pub late_us: Vec<f64>,
    /// Lag of the last read's send behind its due time, µs.
    pub end_lag_us: f64,
    /// Writer-session latencies from their due times, ms.
    pub write_ms: Vec<f64>,
    /// Wall time of the stretch, s.
    pub seconds: f64,
}

/// Load-generator settings of one stretch of traffic.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Offered read rate.
    pub read_rps: f64,
    /// Duration.
    pub seconds: f64,
    /// Run the writer alongside the reader.
    pub writer: bool,
    /// Stream id, so every stretch of a run draws its own schedule.
    pub stream: u64,
}

/// Drive one stretch of traffic: reads on the calling thread, writer
/// sessions on one scoped thread. Wrong answers go to `report`.
pub fn traffic(
    dash: &mut Dash,
    spec: &Spec,
    seed: u64,
    scale: &Scale,
    load: Load,
    rec: &mut Recorder,
    report: &mut Report,
) -> Traffic {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(load.seconds);
    let mut wrec = rec.sibling();
    let mut wreport = Report::default();
    let Dash { reader, writer, keys, refs, zipf_cdf, .. } = dash;
    let mut t = std::thread::scope(|s| {
        let w = load.writer.then(|| {
            let (wrec, wreport) = (&mut wrec, &mut wreport);
            s.spawn(move || {
                write_loop(writer, spec, seed, scale, load.stream, start, end, wrec, wreport)
            })
        });
        let mut t = read_loop(reader, keys, refs, zipf_cdf, seed, load, start, end, rec, report);
        if let Some(w) = w {
            t.write_ms = w.join().expect("writer thread panicked");
        }
        t
    });
    t.seconds = start.elapsed().as_secs_f64();
    rec.absorb(wrec);
    t.write_failed = wreport.failed;
    report.attempted += wreport.attempted;
    report.failed += wreport.failed;
    report.wrong.extend(wreport.wrong);
    t
}

/// Trace ids of reads and writer sessions (queries use small ids).
const READ_TRACE: u64 = 1 << 40;
const WRITE_TRACE: u64 = 2 << 40;

/// How long before a read is due the reader stops sleeping and spins. A
/// sleeping thread wakes up tens to hundreds of microseconds late on this
/// kind of VM (timer slack plus the host waking the vCPU), which would be
/// counted into the read's latency.
const READ_SPIN: Duration = Duration::from_micros(200);

/// Sleep until shortly before `due`, then spin until it.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + READ_SPIN {
        std::thread::sleep(due - now - READ_SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    wire: &mut Wire,
    keys: &[(usize, usize)],
    refs: &[Response],
    zipf_cdf: &[f64],
    seed: u64,
    load: Load,
    start: Instant,
    end: Instant,
    rec: &mut Recorder,
    report: &mut Report,
) -> Traffic {
    let mut t = Traffic::default();
    let mut rng = Xoshiro256pp::seeded(Seed(mix(seed, 0x5245_4144 + load.stream)));
    let gap = Exponential::new(load.read_rps);
    let mut off = Recorder::new(false, start);
    let (mut due, mut prev_done) = (start, start);
    for k in 0u64.. {
        due += Duration::from_secs_f64(gap.sample(&mut rng));
        if due >= end {
            break;
        }
        let rank = zipf_rank(zipf_cdf, rng.next_f64());
        let (point, col) = keys[rank];
        wait_until(due);
        let sent = Instant::now();
        t.late_us.push(sent.saturating_duration_since(due.max(prev_done)).as_secs_f64() * 1e6);
        t.end_lag_us = sent.saturating_duration_since(due).as_secs_f64() * 1e6;
        let traced = rec.on() && k % 2 == 1;
        let r = if traced { &mut *rec } else { &mut off };
        let root = r.on().then(|| r.reserve());
        let reply = wire.call(&Request::Estimate { point, col }, r, READ_TRACE + k, root);
        let done = Instant::now();
        if let Some(root) = root {
            r.span(READ_TRACE + k, Some(root), "loadgen.queue", "loadgen", due, sent);
            r.fill(root, READ_TRACE + k, None, "read", "loadgen", due, done);
        }
        prev_done = done;
        let us = done.duration_since(due).as_secs_f64() * 1e6;
        t.read_us.push(us);
        if traced { &mut t.traced_us } else { &mut t.untraced_us }.push(us);
        let ok = match reply {
            Ok(Response::Error { code, message }) => {
                eprintln!("ESTIMATE {point} {col}: ERR {code:?} {message}");
                report.count(false);
                false
            }
            Ok(reply) => match gates::same_estimate(&reply, &refs[rank]) {
                Ok(()) => {
                    report.count(true);
                    true
                }
                Err(e) => {
                    report.wrong(format!("read ({point}, {col}): {e}"));
                    false
                }
            },
            Err(e) => {
                eprintln!("ESTIMATE {point} {col}: {e}");
                report.count(false);
                false
            }
        };
        if !ok {
            t.read_failed += 1;
        }
    }
    t
}

/// Writer sessions at a fixed period: `COMPILE` of a fresh variant, a cold
/// `SWEEP`, cold `ESTIMATE`s, `SAVE` and `LOAD`, then a re-`SWEEP` of the
/// shared scenario, which holds that store's lock while the reader reads.
/// A re-sweep every session puts the read tail inside the spread of many
/// re-sweeps rather than at the longest of a few. Returns session
/// latencies (ms, from due time).
#[allow(clippy::too_many_arguments)]
fn write_loop(
    wire: &mut Wire,
    spec: &Spec,
    seed: u64,
    scale: &Scale,
    stream: u64,
    start: Instant,
    end: Instant,
    rec: &mut Recorder,
    report: &mut Report,
) -> Vec<f64> {
    let period = Duration::from_secs_f64(scale.write_period_s);
    let mut rng = Xoshiro256pp::seeded(Seed(mix(seed, 0x5752_4954 + stream)));
    let phase = period.mul_f64(rng.next_f64());
    let mut out = Vec::new();
    for j in 0u64.. {
        let due = start + phase + period * j as u32;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let trace = WRITE_TRACE + (stream << 20) + j;
        let root = rec.on().then(|| rec.reserve());
        let variant = stream * 100_000 + j;
        let res = write_session(wire, spec, scale, variant, &mut rng, rec, trace, root);
        let done = Instant::now();
        if let Some(root) = root {
            rec.fill(root, trace, None, "write_session", "loadgen", due, done);
        }
        match res {
            Ok(()) => {
                report.count(true);
                out.push(done.duration_since(due).as_secs_f64() * 1e3);
            }
            Err(Failure::Err(e)) => {
                eprintln!("writer session {j}: {e}");
                report.count(false);
            }
            Err(Failure::Wrong(e)) => report.wrong(format!("writer session {j}: {e}")),
        }
    }
    out
}

enum Failure {
    /// A typed `ERR` or a broken connection.
    Err(String),
    /// A reply of the wrong shape or content.
    Wrong(String),
}

#[allow(clippy::too_many_arguments)]
fn write_session(
    wire: &mut Wire,
    spec: &Spec,
    scale: &Scale,
    variant: u64,
    rng: &mut Xoshiro256pp,
    rec: &mut Recorder,
    trace: u64,
    root: Option<usize>,
) -> Result<(), Failure> {
    let mut call = |req: Request| match wire.call(&req, rec, trace, root) {
        Ok(Response::Error { code, message }) => {
            Err(Failure::Err(format!("{} -> ERR {code:?} {message}", req.verb())))
        }
        Ok(r) => Ok(r),
        Err(e) => Err(Failure::Err(format!("{}: {e}", req.verb()))),
    };
    let wrong = |what: &str, r: Response| Failure::Wrong(format!("{what} answered {r:?}"));
    let points = match call(Request::Compile { src: (spec.variant)(variant) })? {
        Response::Compiled { points, .. } => points,
        r => return Err(wrong("COMPILE", r)),
    };
    match call(Request::Sweep)? {
        Response::Swept { points: p, warm_hits: 0, .. } if p == points => {}
        r => return Err(wrong("cold SWEEP", r)),
    }
    for _ in 0..scale.write_estimates {
        let point = (rng.next_u64() % points as u64) as usize;
        match call(Request::Estimate { point, col: 0 })? {
            Response::Estimated { point: p, n_samples, expectation_bits, .. }
                if p == point && n_samples > 0 && f64::from_bits(expectation_bits).is_finite() => {}
            r => return Err(wrong("ESTIMATE", r)),
        }
    }
    let name = format!("v{variant}");
    match call(Request::Save { name: name.clone() })? {
        Response::Saved { name: n, bytes } if n == name && bytes > 0 => {}
        r => return Err(wrong("SAVE", r)),
    }
    match call(Request::Load { name: name.clone() })? {
        Response::Loaded { name: n, .. } if n == name => {}
        r => return Err(wrong("LOAD", r)),
    }
    let shared = match call(Request::Compile { src: spec.sql.clone() })? {
        Response::Compiled { points, .. } => points,
        r => return Err(wrong("COMPILE shared", r)),
    };
    match call(Request::Sweep)? {
        Response::Swept { points: p, warm_hits, .. } if p == shared && warm_hits == p => Ok(()),
        r => Err(wrong("warm SWEEP", r)),
    }
}

/// Search the highest offered read rate whose p99 latency stays within
/// `slo_us` with no backlog left at the end of its step (reader only).
pub fn max_read_rps(
    dash: &mut Dash,
    spec: &Spec,
    seed: u64,
    scale: &Scale,
    slo_us: f64,
    report: &mut Report,
) -> f64 {
    let mut best = 0.0;
    let mut off = Recorder::new(false, Instant::now());
    for (step, mult) in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0].into_iter().enumerate() {
        let load = Load {
            read_rps: scale.read_rps * mult,
            seconds: scale.ladder_step_s,
            writer: false,
            stream: 100 + step as u64,
        };
        let t = traffic(dash, spec, seed, scale, load, &mut off, report);
        if t.read_us.is_empty() || t.read_failed > 0 || t.end_lag_us > slo_us {
            break;
        }
        if quantile(&t.read_us, 0.99) > slo_us {
            break;
        }
        best = t.read_us.len() as f64 / t.seconds;
    }
    best
}

/// One histogram of a `METRICS` text: per-bucket counts keyed by the
/// bucket's inclusive upper edge, plus the exact sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    buckets: BTreeMap<u64, u64>,
    sum: f64,
}

impl Hist {
    /// Parse histogram `name` restricted to series containing `label`
    /// (e.g. `verb="ESTIMATE"`; empty for an unlabelled histogram).
    pub fn parse(text: &str, name: &str, label: &str) -> Hist {
        let mut cum = Vec::new();
        let mut sum = 0.0;
        for line in text.lines() {
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            if !series.contains(label) {
                continue;
            }
            if let Some(rest) = series.strip_prefix(&format!("{name}_bucket")) {
                let le = rest.split("le=\"").nth(1).and_then(|s| s.split('"').next());
                if let (Some(Ok(le)), Ok(c)) = (le.map(str::parse::<u64>), value.parse::<u64>()) {
                    cum.push((le, c));
                }
            } else if series
                .strip_prefix(&format!("{name}_sum"))
                .is_some_and(|r| r.is_empty() || r.starts_with('{'))
            {
                sum = value.parse().unwrap_or(0.0);
            }
        }
        cum.sort_unstable();
        let mut buckets = BTreeMap::new();
        let mut prev = 0;
        for (le, c) in cum {
            buckets.insert(le, c.saturating_sub(prev));
            prev = c;
        }
        Hist { buckets, sum }
    }

    /// Observations recorded between snapshot `before` and this one.
    pub fn since(&self, before: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|(&le, &n)| (le, n.saturating_sub(before.buckets.get(&le).copied().unwrap_or(0))))
            .collect();
        Hist { buckets, sum: self.sum - before.sum }
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Exact mean.
    pub fn mean(&self) -> f64 {
        self.sum / self.count().max(1) as f64
    }

    /// Quantile, interpolated linearly inside the log2 bucket it falls in.
    /// Where the buckets cannot place it — one bucket holds every
    /// observation, or the quantile falls exactly between two buckets, as
    /// the median of an even split of cold and warm sweeps does — the
    /// interpolation would only restate a bucket edge, so the exact mean
    /// stands in for it.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count() as f64;
        if self.buckets.values().filter(|&&n| n > 0).count() == 1 {
            return self.mean();
        }
        let target = q * count;
        let (mut cum, mut lo) = (0.0, 0.0);
        for (&le, &n) in &self.buckets {
            let hi = le as f64;
            if n > 0 && cum + n as f64 >= target {
                if cum + n as f64 == target && target < count {
                    return self.mean();
                }
                return lo + (target - cum) / n as f64 * (hi - lo);
            }
            cum += n as f64;
            lo = hi;
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_follows_the_cdf() {
        let cdf = zipf_cdf(512);
        let mut rng = Xoshiro256pp::seeded(Seed(7));
        let draws = 200_000;
        let mut hits = [0usize; 3];
        for _ in 0..draws {
            let rank = zipf_rank(&cdf, rng.next_f64());
            if rank < 3 {
                hits[rank] += 1;
            }
        }
        let share = |r: usize| hits[r] as f64 / draws as f64;
        // Binomial sd of a share is below 0.001 here; allow five of them.
        assert!((share(0) - cdf[0]).abs() < 0.005, "rank 0: {} vs {}", share(0), cdf[0]);
        assert!((share(1) - (cdf[1] - cdf[0])).abs() < 0.005, "rank 1: {}", share(1));
        assert!(share(0) > share(1) && share(1) > share(2), "popularity must fall with rank");
        assert_eq!(zipf_rank(&cdf, 0.0), 0);
        assert_eq!(zipf_rank(&cdf, 0.999_999_999), cdf.len() - 1);
    }

    #[test]
    fn histogram_parse_diff_and_quantile() {
        let before = "x_us_bucket{verb=\"A\",le=\"0\"} 0\nx_us_bucket{verb=\"A\",le=\"1\"} 0\n\
                      x_us_bucket{verb=\"A\",le=\"3\"} 2\nx_us_bucket{verb=\"A\",le=\"+Inf\"} 2\n\
                      x_us_sum{verb=\"A\"} 5\nx_us_bucket{verb=\"B\",le=\"3\"} 9\n";
        let after = "x_us_bucket{verb=\"A\",le=\"0\"} 0\nx_us_bucket{verb=\"A\",le=\"1\"} 0\n\
                     x_us_bucket{verb=\"A\",le=\"3\"} 2\nx_us_bucket{verb=\"A\",le=\"7\"} 6\n\
                     x_us_sum{verb=\"A\"} 29\n";
        let h = Hist::parse(after, "x_us", "verb=\"A\"").since(&Hist::parse(
            before,
            "x_us",
            "verb=\"A\"",
        ));
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 6.0);
        // All four new observations sit in the (3, 7] bucket: the mean.
        assert_eq!(h.quantile(0.5), 6.0);
        // Spread over two buckets: interpolated inside the one q falls in.
        let two = Hist::parse(after, "x_us", "verb=\"A\"");
        assert_eq!(two.count(), 6);
        assert_eq!(two.quantile(0.5), 4.0);
        assert_eq!(two.quantile(1.0), 7.0);
        // An even split across two buckets: the median is the mean.
        let split = Hist::parse("y_bucket{le=\"3\"} 3\ny_bucket{le=\"7\"} 6\ny_sum 21\n", "y", "");
        assert_eq!(split.quantile(0.5), 3.5);
    }
}
