//! Timing and lattice-site-update accounting.
//!
//! The paper reports performance in MLUP/s ("million lattice site updates
//! per second"); every solver here returns a [`RunStats`] so examples and
//! benches share one notion of the metric.

use std::time::{Duration, Instant};

/// Result of one solver run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Total cell updates performed (sweeps x interior cells for full
    /// sweeps; pipelined partial stages count exactly what they updated).
    pub cell_updates: u64,
    /// Wall-clock time of the update loop (excludes allocation).
    pub elapsed: Duration,
}

impl RunStats {
    pub fn new(cell_updates: u64, elapsed: Duration) -> Self {
        Self {
            cell_updates,
            elapsed,
        }
    }

    /// Million lattice-site updates per second.
    pub fn mlups(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.cell_updates as f64 / secs / 1.0e6
    }

    /// GLUP/s, the unit of the paper's Fig. 6.
    pub fn glups(&self) -> f64 {
        self.mlups() / 1000.0
    }
}

/// Measure `f`, returning its output and the elapsed time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlups_arithmetic() {
        let s = RunStats::new(2_000_000, Duration::from_secs(2));
        assert!((s.mlups() - 1.0).abs() < 1e-12);
        assert!((s.glups() - 0.001).abs() < 1e-15);
    }

    #[test]
    fn zero_time_is_infinite_rate() {
        let s = RunStats::new(10, Duration::ZERO);
        assert!(s.mlups().is_infinite());
    }

    #[test]
    fn timed_measures_something() {
        let (v, d) = timed(|| (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(d >= Duration::ZERO);
    }
}
