//! Order statistics for rep samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the PR driver
//! computes run-to-run spreads with; medians and tail percentiles use
//! the R-7 linear interpolation the rest of the repo uses
//! (`tb_bench::percentile`, `serve::percentile_ms`).

/// The `p`-th percentile (0..=100) of `samples`, R-7 interpolation.
/// Input order does not matter. Panics on an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0,100]");
    let sorted = sorted(samples);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// First and third quartile as `statistics.quantiles(v, n=4)` returns
/// them (exclusive method). A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of an empty sample set");
    let data = sorted(samples);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // May be negative or exceed 4 at the ends: Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// n / min / p10 / q1 / median / q3 / p90 / max of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            p10: percentile(samples, 10.0),
            q1,
            median: median(samples),
            q3,
            p90: percentile(samples, 90.0),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The best-side decile of the reps: the 90th percentile of a
    /// throughput, the 10th of a time. On a shared host disturbance is
    /// one-sided — a rep is slowed by a neighbour, never sped up — so the
    /// undisturbed end of the distribution repeats from run to run about
    /// twice as closely as the median does (README "Noise"), while a
    /// change to the code still moves the whole distribution.
    pub fn best_decile(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.p90
        } else {
            self.p10
        }
    }

    /// Distance from the best-side decile to the quartile next to it, as
    /// a share of the decile: how well the reps resolve it.
    pub fn best_side_spread(&self, higher_is_better: bool) -> f64 {
        let (decile, quartile) = if higher_is_better {
            (self.p90, self.q3)
        } else {
            (self.p10, self.q1)
        };
        ((decile - quartile) / decile).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_of_known_sets() {
        let uniform: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&uniform), 50.5);
        assert_eq!(percentile(&uniform, 0.0), 1.0);
        assert_eq!(percentile(&uniform, 100.0), 100.0);
        assert!((percentile(&uniform, 95.0) - 95.05).abs() < 1e-9);
        // Order does not matter; one sample is every percentile.
        let mut rev = uniform.clone();
        rev.reverse();
        assert_eq!(median(&rev), 50.5);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert_eq!(median(&[10.0, 20.0]), 15.0);
        // The median ignores one outlier, the tail percentile does not.
        let tail = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1000.0];
        assert_eq!(median(&tail), 1.0);
        assert!((percentile(&tail, 90.0) - 100.9).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_of_ten() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert!((s.p10 - 1.9).abs() < 1e-12 && (s.p90 - 9.1).abs() < 1e-12);
        // Throughput reports the upper decile, a time the lower one.
        assert_eq!(s.best_decile(true), s.p90);
        assert_eq!(s.best_decile(false), s.p10);
        assert!((s.best_side_spread(true) - (9.1 - 8.25) / 9.1).abs() < 1e-12);
        assert!((s.best_side_spread(false) - (2.75 - 1.9) / 1.9).abs() < 1e-12);
    }
}
