//! One pass over one workload as a result: per-metric summaries, the
//! correctness tally, skipped cells, the per-layer table — printed for a
//! human, written to a result file for `compare`, and condensed into the
//! driver's last-line JSON.

use std::collections::BTreeMap;

use temporal_blocking::plan::Json;

use crate::ctx::Ctx;
use crate::spec::{self, Metric, Workload};
use crate::stats::Summary;
use crate::trace::{layer_table, LayerTime};

pub struct MetricResult {
    pub metric: &'static Metric,
    pub summary: Summary,
    /// The raw samples of an end-to-end metric, in measurement order, so
    /// a result file can be re-analysed with another estimator.
    pub samples: Vec<f64>,
    /// Measured by a control cell (smoke-sized), not by the cell group
    /// this workload runs at full size.
    pub control: bool,
}

pub struct PassResult {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub metrics: Vec<MetricResult>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub skipped: Vec<String>,
    /// Share of the pass's CPU time the hypervisor stole, if known.
    pub steal_frac: Option<f64>,
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub trace_file: Option<String>,
}

impl PassResult {
    pub fn collect(
        ctx: &Ctx,
        w: &Workload,
        seconds: f64,
        steal_frac: Option<f64>,
        trace_file: Option<String>,
    ) -> PassResult {
        let table: &[Metric] = if ctx.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        // The traced pass also reports its untraced end-to-end medians
        // in the result file; the driver's JSON line leaves them out.
        let extra: &[Metric] = if ctx.trace { spec::END_TO_END } else { &[] };
        let metrics = table
            .iter()
            .chain(extra)
            .filter(|m| !ctx.samples(m.name).is_empty())
            .map(|m| MetricResult {
                metric: m,
                summary: Summary::of(ctx.samples(m.name)),
                samples: if m.bound.is_some() {
                    ctx.samples(m.name).to_vec()
                } else {
                    Vec::new()
                },
                control: !ctx.smoke && m.group.is_some_and(|g| g != w.native),
            })
            .collect();
        PassResult {
            workload: w.name,
            traced: ctx.trace,
            seed: ctx.seed,
            seconds,
            metrics,
            attempted: ctx.attempted,
            failed: ctx.failed,
            failures: ctx.failures.clone(),
            skipped: ctx.skipped.clone(),
            steal_frac,
            layers: layer_table(ctx.tracer.spans()),
            trace_file,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the driver's JSON line must carry for this pass.
    fn contract_metrics(&self) -> &'static [Metric] {
        if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    /// Contract metrics this pass failed to measure.
    pub fn missing(&self) -> Vec<&'static str> {
        self.contract_metrics()
            .iter()
            .map(|m| m.name)
            .filter(|name| !self.metrics.iter().any(|r| r.metric.name == *name))
            .collect()
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
    pub fn driver_line(&self) -> String {
        let wanted = self.contract_metrics();
        let metrics = self
            .metrics
            .iter()
            .filter(|r| wanted.iter().any(|m| m.name == r.metric.name))
            .map(|r| {
                let value = Json::obj(vec![
                    ("value", Json::Num(r.metric.reported(&r.summary))),
                    ("unit", Json::str(r.metric.unit)),
                ]);
                (r.metric.name.to_string(), value)
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.correct() && self.missing().is_empty()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_json()
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|r| {
                let s = &r.summary;
                let mut pairs = vec![
                    ("unit", Json::str(r.metric.unit)),
                    ("better", Json::str(r.metric.better.name())),
                ];
                if let Some(b) = r.metric.bound {
                    pairs.push(("bound", Json::Num(b)));
                    pairs.push(("control", Json::Bool(r.control)));
                }
                pairs.extend([
                    ("value", Json::Num(r.metric.reported(s))),
                    (
                        "estimator",
                        Json::str(if r.metric.reports_best_decile() {
                            "best-decile"
                        } else {
                            "median"
                        }),
                    ),
                    ("n", Json::usize(s.n)),
                    ("min", Json::Num(s.min)),
                    ("p10", Json::Num(s.p10)),
                    ("q1", Json::Num(s.q1)),
                    ("median", Json::Num(s.median)),
                    ("q3", Json::Num(s.q3)),
                    ("p90", Json::Num(s.p90)),
                    ("max", Json::Num(s.max)),
                ]);
                if !r.samples.is_empty() {
                    let samples = r.samples.iter().map(|&v| Json::Num(v)).collect();
                    pairs.push(("samples", Json::Arr(samples)));
                }
                (r.metric.name.to_string(), Json::obj(pairs))
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|(layer, t)| {
                let row = Json::obj(vec![
                    ("calls", Json::Num(t.calls as f64)),
                    ("total_s", Json::Num(t.total_s)),
                    ("self_s", Json::Num(t.self_s)),
                ]);
                (layer.to_string(), row)
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            (
                "pass",
                Json::str(if self.traced { "traced" } else { "untraced" }),
            ),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_ratio", Json::Num(self.failed_ratio())),
            ("failures", strings(&self.failures)),
            ("skipped", strings(&self.skipped)),
            ("steal_frac", self.steal_frac.map_or(Json::Null, Json::Num)),
            ("metrics", Json::Obj(metrics)),
            ("layer_self_time", Json::Obj(layers)),
            (
                "trace_file",
                self.trace_file.as_deref().map_or(Json::Null, Json::str),
            ),
        ])
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        let pass = if self.traced { "traced" } else { "untraced" };
        println!(
            "\n== {} ({pass} pass, seed {}) ==",
            self.workload, self.seed
        );
        println!(
            "{:<30} {:>9} {:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "metric", "unit", "n", "reported", "median", "q1", "q3", "min", "max"
        );
        for r in &self.metrics {
            let s = &r.summary;
            println!(
                "{:<30} {:>9} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}{}",
                r.metric.name,
                r.metric.unit,
                s.n,
                r.metric.reported(s),
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                if r.control { "  (control cell)" } else { "" }
            );
        }
        println!(
            "reported: best-side decile of the reps or rounds (p90 of a rate, p10 of a time) \
             for the end-to-end metrics, median for setup_s and per-layer metrics"
        );
        println!(
            "{:<30} {:>9} {:>4} {:>12.6}   ({} failed of {} checked operations)",
            "failed_ratio",
            "ratio",
            1,
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        for m in self.missing() {
            println!("  NOT MEASURED: {m}");
        }
        for s in &self.skipped {
            println!("  skipped (would oversubscribe): {s}");
        }
        if let Some(steal) = self.steal_frac {
            println!(
                "  hypervisor steal during the pass: {:.2} % of CPU time",
                steal * 100.0
            );
        }
        if self.traced {
            println!(
                "\n{:<12} {:>8} {:>12} {:>12}",
                "layer", "calls", "total s", "self s"
            );
            for (layer, t) in &self.layers {
                println!(
                    "{layer:<12} {:>8} {:>12.4} {:>12.4}",
                    t.calls, t.total_s, t.self_s
                );
            }
            if let Some(f) = &self.trace_file {
                println!("chrome trace: {f}");
            }
        }
    }
}
