//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time accounting over them.
//!
//! A span has a name, the layer it is charged to, a start, an end and a
//! parent; the spans of one query or request share a trace id. Spans stay
//! in memory and are written out once, when the run ends. A span's self
//! time is its duration minus the part of its interval its children cover,
//! so the self times of one trace always add up to its root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The parent span, `None` for a trace root.
    pub parent: Option<usize>,
    /// Shared by every span of one query or request.
    pub trace: u64,
    /// What was called.
    pub name: &'static str,
    /// The layer the span's self time is charged to.
    pub layer: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled recorder drops everything it is given.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// across threads so their spans can be merged).
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder { on, epoch, spans: Vec::new() }
    }

    /// An empty recorder with this one's switch and epoch, for another
    /// thread; merge it back with [`Recorder::absorb`].
    pub fn sibling(&self) -> Recorder {
        Recorder::new(self.on, self.epoch)
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve the id the next span will get, so children can name a
    /// parent that is recorded after them.
    pub fn reserve(&mut self) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: None,
            trace: 0,
            name: "",
            layer: "",
            start_ns: 0,
            end_ns: 0,
        });
        id
    }

    /// Fill a reserved slot.
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        id: usize,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end).max(self.ns(start)));
        self.spans[id] = Span { id, parent, trace, name, layer, start_ns, end_ns };
    }

    /// Record a finished interval; returns its id (or `usize::MAX` when off).
    pub fn span(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.reserve();
        self.fill(id, trace, parent, name, layer, start, end);
        id
    }

    /// Record `durations` as consecutive children of `parent` laid from
    /// `start` and clipped to `end`: the phases a layer reports about its
    /// own work, placed inside the call that did it.
    #[allow(clippy::too_many_arguments)]
    pub fn phases(
        &mut self,
        trace: u64,
        parent: usize,
        start: Instant,
        end: Instant,
        durations: &[(&'static str, &'static str, Duration)],
    ) {
        let mut at = start;
        for &(name, layer, d) in durations {
            let stop = (at + d).min(end);
            self.span(trace, Some(parent), name, layer, at, stop);
            at = stop;
        }
    }

    /// Append another recorder's spans (same epoch), renumbering them.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals clipped to it.
    fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push(s.id);
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut iv: Vec<(u64, u64)> = kids[s.id]
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Per-layer self time of the traces whose root is named `root`,
    /// averaged per trace, with the mean root duration. Both in
    /// nanoseconds; the layer means add up to the root mean.
    pub fn layer_self_means(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64, usize) {
        let self_ns = self.self_ns();
        let root_of = |mut id: usize| {
            while let Some(p) = self.spans[id].parent {
                id = p;
            }
            id
        };
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut total, mut roots) = (0.0, 0usize);
        for s in &self.spans {
            let r = &self.spans[root_of(s.id)];
            if r.name != root {
                continue;
            }
            *by_layer.entry(s.layer).or_default() += self_ns[s.id] as f64;
            if s.parent.is_none() {
                total += s.dur_ns() as f64;
                roots += 1;
            }
        }
        let n = roots.max(1) as f64;
        by_layer.values_mut().for_each(|v| *v /= n);
        (by_layer, total / n, roots)
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{}",
                s.id,
                parent,
                s.trace,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_add_up_to_the_root() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(true, t0);
        let root = r.reserve();
        let call = r.span(1, Some(root), "call", "b", at(10), at(90));
        r.phases(
            1,
            call,
            at(10),
            at(90),
            &[("p1", "c", Duration::from_micros(30)), ("p2", "d", Duration::from_micros(70))],
        );
        r.fill(root, 1, None, "query", "a", at(0), at(100));
        let (by, total, n) = r.layer_self_means("query");
        assert_eq!(n, 1);
        assert_eq!(total, 100_000.0);
        assert_eq!(by["a"], 20_000.0);
        assert_eq!(by["b"], 0.0);
        assert_eq!(by["c"], 30_000.0);
        assert_eq!(by["d"], 50_000.0, "the overrunning phase is clipped to its parent");
        assert_eq!(by.values().sum::<f64>(), total);
    }

    #[test]
    fn off_recorder_keeps_nothing() {
        let t0 = Instant::now();
        let mut r = Recorder::new(false, t0);
        r.span(1, None, "x", "a", t0, t0);
        assert_eq!(r.to_json(), "[\n]");
    }
}
