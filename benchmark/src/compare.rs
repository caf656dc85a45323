//! `compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) — change of the reported value, the metric's bound, a
//! verdict — and a non-zero exit when anything regressed. The reported
//! value is the one the driver line carries: the best-side decile of the
//! reps for rep-sampled metrics, the median for `setup_s`.
//!
//! * `regressed`: B's value is worse than A's by more than the bound, or
//!   B failed operations.
//! * `unresolved`: the reps of either side do not resolve the value —
//!   best-side decile and the quartile next to it (for a median: the two
//!   quartiles) lie further apart than the bound — unless every rep of B
//!   reads better than every rep of A.
//! * `ok`: everything else.

use temporal_blocking::plan::Json;

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's rep statistics and how its
/// reported value is taken from them.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub summary: Summary,
    pub higher_is_better: bool,
    /// Reported as the best-side decile (else: the median).
    pub best_decile: bool,
}

impl Side {
    /// One metric of a run as a result file stores it.
    fn from_json(v: &Json) -> Option<Side> {
        let f = |k: &str| v.get(k)?.as_f64();
        Some(Side {
            summary: Summary {
                n: v.get("n")?.as_usize()?,
                min: f("min")?,
                p10: f("p10")?,
                q1: f("q1")?,
                median: f("median")?,
                q3: f("q3")?,
                p90: f("p90")?,
                max: f("max")?,
            },
            higher_is_better: v.get("better")?.as_str()? == "higher",
            best_decile: v.get("estimator")?.as_str()? == "best-decile",
        })
    }

    pub fn value(&self) -> f64 {
        if self.best_decile {
            self.summary.best_decile(self.higher_is_better)
        } else {
            self.summary.median
        }
    }

    /// How far apart the reps leave the reported value, as a share of
    /// it; `None` with too few reps to estimate quartiles from.
    fn spread(&self) -> Option<f64> {
        let s = &self.summary;
        (s.n >= 4 && self.value() != 0.0).then(|| {
            if self.best_decile {
                s.best_side_spread(self.higher_is_better)
            } else {
                ((s.q3 - s.q1) / s.median).abs()
            }
        })
    }
}

/// Share of A's value by which B is worse (negative: better).
pub fn worse_by(a: &Side, b: &Side) -> f64 {
    if a.higher_is_better {
        (a.value() - b.value()) / a.value()
    } else {
        (b.value() - a.value()) / a.value()
    }
}

pub fn verdict(a: &Side, b: &Side, bound: f64) -> Verdict {
    let wide = |s: &Side| s.spread().is_some_and(|sp| sp > bound);
    let b_always_better = if a.higher_is_better {
        b.summary.min > a.summary.max
    } else {
        b.summary.max < a.summary.min
    };
    if (wide(a) || wide(b)) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by(a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs(doc: &Json) -> Vec<&Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .map_or(Vec::new(), |r| r.iter().collect())
}

fn key(run: &Json) -> Option<(&str, &str)> {
    Some((run.get("workload")?.as_str()?, run.get("pass")?.as_str()?))
}

/// Compare two result files; returns the process exit code.
pub fn run(path_a: &str, path_b: &str) -> Result<u8, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<20} {:<11} {:>12} {:>12} {:>8} {:>6} {:>7} {:>7}  verdict",
        "metric", "workload", "A value", "B value", "worse%", "bound%", "sprd% A", "sprd% B"
    );
    let (mut rows, mut regressed) = (0, 0);
    for run_a in runs(&a) {
        let Some(run_b) = runs(&b)
            .into_iter()
            .find(|r| key(r).is_some() && key(r) == key(run_a))
        else {
            continue;
        };
        let (workload, _) = key(run_a).expect("matched runs have keys");
        let metrics_a = run_a.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, ma) in metrics_a {
            // Only end-to-end metrics carry a bound.
            let (Some(bound), Some(mb)) = (
                ma.get("bound").and_then(Json::as_f64),
                run_b.get("metrics").and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Side::from_json(ma), Side::from_json(mb)) else {
                return Err(format!("{name} on {workload}: malformed summary"));
            };
            let v = verdict(&sa, &sb, bound);
            let control = ma.get("control").and_then(Json::as_bool) == Some(true);
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}", s * 100.0));
            println!(
                "{name:<20} {workload:<11} {:>12.4} {:>12.4} {:>8.1} {:>6.0} {:>7} {:>7}  {}{}",
                sa.value(),
                sb.value(),
                worse_by(&sa, &sb) * 100.0,
                bound * 100.0,
                pct(sa.spread()),
                pct(sb.spread()),
                v.name(),
                if control { " (control)" } else { "" }
            );
            rows += 1;
            regressed += usize::from(v == Verdict::Regressed);
        }
        // failed_ratio must stay 0.
        let failed = run_b.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let v = if failed > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        println!(
            "{:<20} {workload:<11} {:>12} {:>12} {:>8} {:>6} {:>7} {:>7}  {}",
            "failed_ratio",
            run_a
                .get("failed_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            run_b
                .get("failed_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            "-",
            0,
            "-",
            "-",
            v.name()
        );
        rows += 1;
        regressed += usize::from(v == Verdict::Regressed);
    }
    if rows == 0 {
        return Err("the two files share no (workload, pass) run".into());
    }
    println!("{rows} rows, {regressed} regressed");
    Ok(u8::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_of(samples: &[f64], higher_is_better: bool) -> Side {
        Side {
            summary: Summary::of(samples),
            higher_is_better,
            best_decile: false,
        }
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let rate = |samples: &[f64]| median_of(samples, true);
        let time = |samples: &[f64]| median_of(samples, false);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        let near = [95.0, 96.0, 94.0, 95.5, 94.5];
        assert_eq!(verdict(&rate(&steady), &rate(&near), 0.10), Verdict::Ok);
        let fast = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&rate(&steady), &rate(&fast), 0.10), Verdict::Ok);
        // 15 % lower throughput; 15 % higher latency.
        let slow = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(
            verdict(&rate(&steady), &rate(&slow), 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&time(&slow), &time(&steady), 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&time(&steady), &time(&slow), 0.10), Verdict::Ok);
        // A spread wider than the bound hides the difference...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&rate(&steady), &rate(&noisy), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&rate(&noisy), &rate(&slow), 0.10),
            Verdict::Unresolved
        );
        // ...unless every rep of B beats every rep of A.
        let fast_noisy = [180.0, 200.0, 220.0, 190.0, 210.0];
        assert_eq!(
            verdict(&rate(&steady), &rate(&fast_noisy), 0.10),
            Verdict::Ok
        );
        // Three set-ups are too few for quartiles: judged on medians.
        let (s1, s2) = (time(&[1.0, 1.6, 1.1]), time(&[1.2, 1.7, 1.15]));
        assert_eq!(verdict(&s1, &s2, 0.25), Verdict::Ok);
        assert!((worse_by(&rate(&steady), &rate(&slow)) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn best_decile_sides_ignore_the_disturbed_reps() {
        let side = |samples: &[f64]| Side {
            summary: Summary::of(samples),
            higher_is_better: true,
            best_decile: true,
        };
        // Twenty reps near 100 MLUP/s; B has a third of them disturbed
        // (a noisy neighbour), C is 15 % slower throughout.
        let a: Vec<f64> = (0..20).map(|i| 99.0 + 0.1 * i as f64).collect();
        let mut b = a.clone();
        for v in b.iter_mut().step_by(3) {
            *v *= 0.6;
        }
        let c: Vec<f64> = a.iter().map(|v| v * 0.85).collect();
        assert!((side(&a).value() - 100.71).abs() < 1e-9);
        assert!(worse_by(&side(&a), &side(&b)).abs() < 0.01);
        assert_eq!(verdict(&side(&a), &side(&b), 0.10), Verdict::Ok);
        assert_eq!(verdict(&side(&a), &side(&c), 0.10), Verdict::Regressed);
        // The medians of A and B differ by less than the bound too, but
        // B's interquartile spread alone (40 %) would have hidden it.
        let as_median = |samples: &[f64]| Side {
            best_decile: false,
            ..side(samples)
        };
        assert_eq!(
            verdict(&as_median(&a), &as_median(&b), 0.10),
            Verdict::Unresolved
        );
    }
}
