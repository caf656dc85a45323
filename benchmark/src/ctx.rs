//! What one pass over a workload accumulates: metric samples, the
//! correctness tally, skipped cells, and the tracer.

use std::collections::BTreeMap;
use std::time::Instant;

use temporal_blocking::prelude::MachineParams;

use crate::spec;
use crate::trace::Tracer;

pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    /// Compute threads of a team: `min(nproc, 4)`.
    pub team: usize,
    pub nproc: usize,
    /// `true` in the traced pass (per-layer cells run, spans recorded on
    /// every other rep).
    pub trace: bool,
    pub tracer: Tracer,
    /// Self-test hook: every oracle hash is flipped, so every check
    /// must fail.
    pub corrupt_oracle: bool,
    /// Warm-up sets run every check but record no sample.
    pub warmup: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// End-to-end samples of reps that ran with spans on — kept apart so
    /// end-to-end numbers always come from untraced reps.
    traced_samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Cells that would oversubscribe the CPUs: listed, never timed.
    pub skipped: Vec<String>,
    /// This run's own `ms1`/`ms`/`mc` (traced pass; model residuals and
    /// `baseline.ms_frac` divide by them).
    pub params: Option<MachineParams>,
}

impl Ctx {
    pub fn new(seed: u64, smoke: bool, trace: bool, corrupt_oracle: bool) -> Ctx {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ctx {
            seed,
            smoke,
            team: nproc.min(4),
            nproc,
            trace,
            tracer: Tracer::new(trace),
            corrupt_oracle,
            warmup: false,
            samples: BTreeMap::new(),
            traced_samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            skipped: Vec::new(),
            params: None,
        }
    }

    /// One sample of a metric from the table in [`spec`].
    pub fn sample(&mut self, name: &'static str, value: f64) {
        let metric = spec::metric(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        if self.warmup {
            return;
        }
        if !value.is_finite() {
            self.fail(format!("{name}: non-finite sample {value}"));
            return;
        }
        let traced = self.tracer.enabled() && metric.bound.is_some();
        let bucket = if traced {
            &mut self.traced_samples
        } else {
            &mut self.samples
        };
        bucket.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn traced_samples(&self, name: &str) -> &[f64] {
        self.traced_samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of a metric sampled so far (for derived ratios).
    pub fn median(&self, name: &str) -> Option<f64> {
        let s = self.samples(name);
        (!s.is_empty()).then(|| crate::stats::median(s))
    }

    /// A derived metric `num ÷ den` of two metrics' medians.
    pub fn ratio(&mut self, name: &'static str, num: &str, den: &str) {
        if let (Some(n), Some(d)) = (self.median(num), self.median(den)) {
            self.sample(name, n / d);
        }
    }

    /// Count one verified operation; `what` describes it on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// The oracle hash as the checks see it.
    pub fn oracle(&self, hash: u64) -> u64 {
        if self.corrupt_oracle {
            !hash
        } else {
            hash
        }
    }

    pub fn skip(&mut self, cell: &str, why: &str) {
        let line = format!("{cell}: {why}");
        if !self.skipped.contains(&line) {
            self.skipped.push(line); // every set-up of a run reports it
        }
    }
}

/// Where the benchmark writes: traces, result files, its plan caches.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// GB/s for `bytes` moved in `secs`.
pub fn gbs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs.max(1e-12) / 1e9
}

/// A group of end-to-end cells measured together (solve, dist, serve).
pub trait CellGroup {
    /// Sets every run must complete, however short `--seconds` is.
    fn min_sets(&self) -> usize;
    /// One round-robin pass over the group's end-to-end cells.
    fn set(&mut self, ctx: &mut Ctx);
    /// Contracts checked once, after the last set.
    fn finish(&mut self, _ctx: &mut Ctx) {}
}

/// Measure `groups` for `seconds`, each for its share of the time.
///
/// Sets of all groups are interleaved (the group furthest behind its
/// share runs next), so every cell samples the whole run and a slow
/// phase of the host cannot land on one cell alone. One unsampled
/// warm-up set per group precedes the clock. In the traced pass spans
/// are on for every other set of a group, so each cell has untraced and
/// traced samples from the same minute.
pub fn measure(ctx: &mut Ctx, seconds: f64, groups: &mut [(&mut dyn CellGroup, f64)]) {
    ctx.warmup = true;
    ctx.tracer.set_enabled(false);
    for (group, _) in groups.iter_mut() {
        group.set(ctx);
    }
    ctx.warmup = false;

    let t0 = Instant::now();
    let mut spent = vec![0.0f64; groups.len()];
    let mut sets = vec![0usize; groups.len()];
    loop {
        let time_left = t0.elapsed().as_secs_f64() < seconds;
        let next = (0..groups.len())
            .filter(|&i| {
                time_left || sets[i] < groups[i].0.min_sets().max(if ctx.trace { 2 } else { 1 })
            })
            .min_by(|&a, &b| (spent[a] / groups[a].1).total_cmp(&(spent[b] / groups[b].1)));
        let Some(i) = next else { break };
        ctx.tracer.set_enabled(ctx.trace && sets[i] % 2 == 1);
        ctx.tracer.next_request();
        let t = Instant::now();
        groups[i].0.set(ctx);
        spent[i] += t.elapsed().as_secs_f64();
        sets[i] += 1;
    }
    ctx.tracer.set_enabled(ctx.trace);
    for (group, _) in groups.iter_mut() {
        group.finish(ctx);
    }
}
