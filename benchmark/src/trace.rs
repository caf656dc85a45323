//! Bench-side tracing: one span per call into a layer's public
//! function, recorded from the benchmark's own files only.
//!
//! Every timed call in the benchmark goes through [`Tracer::time`], which
//! always measures wall clock *outside* the call and — only while the
//! tracer is enabled — also keeps a span (`<layer>.<fn>`, start, end,
//! parent, request id). Spans stay in memory and are written once, at
//! exit, as Chrome-trace JSON. A layer's self time is its span minus the
//! part of it that child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use temporal_blocking::plan::Json;

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<fn>`; the layer is everything before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Shared by all spans of one rep or one job.
    pub request: u64,
    /// Chrome-trace thread lane: 0 is the benchmark's main thread,
    /// `1 + rank` a dist rank, 100 the rebuilt serve timeline.
    pub lane: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    request: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            lane: 0,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread (a dist rank) sharing this one's
    /// clock, switch and current request; merge it back with
    /// [`Tracer::absorb`].
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            lane,
            request: self.request,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new request (one rep, one job): spans recorded from now
    /// on carry the new id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer's epoch for an `Instant` taken by
    /// someone else (serve spans are rebuilt from `JobReport` durations).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` from outside; returns its result and the wall seconds.
    /// `f` receives the tracer so nested calls become child spans.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            lane: self.lane,
        });
        self.open.push(index);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Record a span whose endpoints were measured elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        lane: u32,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            lane,
        });
        Some(self.spans.len() - 1)
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Calls, total time and self time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// The per-layer table: every span attributed to the layer its name
/// starts with.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times_ns(spans);
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = table.entry(s.layer()).or_default();
        row.calls += 1;
        row.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
        row.self_s += self_ns as f64 * 1e-9;
    }
    table
}

/// Chrome-trace ("Trace Event Format") document: one complete (`X`)
/// event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::usize(1)),
                ("tid", Json::usize(s.lane as usize)),
                (
                    "args",
                    Json::obj(vec![
                        ("span", Json::usize(i)),
                        ("request", Json::Num(s.request as f64)),
                        ("parent", s.parent.map_or(Json::Null, Json::usize)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_only() {
        let spans = vec![
            span("facade.solve", 0, 100, None),
            span("runtime.place_copy", 10, 30, Some(0)),
            span("stencil.par", 30, 90, Some(0)),
            span("sync.barrier", 40, 50, Some(2)),
            // Overlapping siblings (two ranks under one parent) count once.
            span("dist.rank", 0, 60, None),
            span("net.a", 10, 40, Some(4)),
            span("net.b", 20, 50, Some(4)),
            // A child that sticks out of its parent is clipped to it.
            span("serve.job", 100, 110, None),
            span("serve.service", 105, 130, Some(7)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![20, 20, 50, 10, 20, 30, 30, 5, 25]
        );
        let table = layer_table(&spans);
        assert_eq!(table["facade"].calls, 1);
        assert!((table["facade"].self_s - 20e-9).abs() < 1e-15);
        assert!((table["net"].total_s - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn time_nests_spans_and_costs_nothing_when_off() {
        let mut off = Tracer::new(false);
        let (v, secs) = off.time("a.b", |t| t.time("c.d", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.next_request();
        on.time("facade.solve", |t| {
            t.time("stencil.par", |_| ());
        });
        let mut rank = on.fork(2);
        rank.time("dist.run_sweeps", |t| {
            t.time("net.sendrecv", |_| ());
        });
        on.absorb(rank);
        let s = on.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2)); // re-based on merge
        assert_eq!((s[3].lane, s[3].request), (2, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let doc = chrome_trace(s);
        let parsed = Json::parse(&doc.to_json()).expect("chrome trace is valid JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            4
        );
    }
}
