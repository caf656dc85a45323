//! # tb-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §3):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig3_left` | Fig. 3 (left): socket/node MLUP/s, standard vs pipelined variants + model |
//! | `fig3_right` | Fig. 3 (right): performance vs pipeline looseness `d_u - d_l` |
//! | `fig5` | Fig. 5: multi-layer halo advantage + efficiency inset |
//! | `fig6` | Fig. 6: strong/weak scaling 1..64 nodes, 4 configurations + ideal lines |
//! | `roofline` | Eq. 2: STREAM-calibrated baseline expectation vs measurement |
//! | `model_table` | §1.4 numbers: Eq. 4/5 table, 16T/(7+4T), limits |
//! | `ablation_t` | §1.5: updates-per-thread sweep (optimum T=2) |
//! | `ablation_block` | §1.5: inner block length sweep (optimum b_x≈120) |
//! | `ablation_delay` | §1.5: team delay sweep (~3% at d_t=8) |
//!
//! `fig3_left` and `fig6` take `--mode` (see their headers); an unknown
//! mode or a malformed number is a usage error. `op_sweep` and
//! `diamond_sweep` hold the matrices the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`) has no rung for yet; every other timing question
//! goes to that benchmark's per-layer ladder.

#![forbid(unsafe_code)]

use tb_grid::{init, Dims3, Grid3};
use tb_stencil::stats::RunStats;

/// Minimal CLI: `--key value` pairs and bare flags.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    /// True when the bare flag `key` is present (no value expected).
    pub fn has(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    /// `--key N`, or `default` when the flag is absent. A value that is
    /// not a number is a usage error (exit code 2), not the default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.try_usize(key, default).unwrap_or_else(|e| usage(&e))
    }

    /// The value of `--mode`, or `modes[0]` when the flag is absent. A
    /// mode not in `modes` is a usage error (exit code 2).
    pub fn mode<'a>(&'a self, modes: &[&'a str]) -> &'a str {
        self.try_mode(modes).unwrap_or_else(|e| usage(&e))
    }

    fn try_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} expects a non-negative integer, got `{v}`")),
        }
    }

    fn try_mode<'a>(&'a self, modes: &[&'a str]) -> Result<&'a str, String> {
        match self.get("--mode") {
            None => Ok(modes[0]),
            Some(m) if modes.contains(&m) => Ok(m),
            Some(m) => Err(format!(
                "unknown --mode `{m}` (expected one of: {})",
                modes.join(", ")
            )),
        }
    }
}

fn usage(message: &str) -> ! {
    eprintln!("usage error: {message}");
    std::process::exit(2)
}

/// Repeat a measured run, keeping the best (STREAM convention: the best
/// repetition is the least-disturbed one).
pub fn best_of<F: FnMut() -> RunStats>(reps: usize, mut f: F) -> RunStats {
    assert!(reps >= 1);
    let mut best: Option<RunStats> = None;
    for _ in 0..reps {
        let s = f();
        if best.map(|b| s.mlups() > b.mlups()).unwrap_or(true) {
            best = Some(s);
        }
    }
    best.unwrap()
}

/// [`best_of`] preceded by one discarded warm-up repetition: the warm-up
/// faults in pages, populates caches, and spins up lazy worker state, so
/// the timed repetitions measure steady state instead of first-touch
/// noise (the mean-vs-best gap that made early sweeps jittery).
pub fn warmed_best_of<F: FnMut() -> RunStats>(reps: usize, mut f: F) -> RunStats {
    let _ = f();
    best_of(reps, f)
}

/// The standard random problem used by all measurement binaries.
pub fn problem(edge: usize, seed: u64) -> Grid3<f64> {
    init::random(Dims3::cube(edge), seed)
}

/// A host-appropriate default problem edge: big enough to spill the last-
/// level cache, small enough to finish quickly. Overridable with
/// `--size`.
pub fn default_edge() -> usize {
    let mach = tb_topology::detect::detect();
    let cache = mach.shared_cache().map(|c| c.size_bytes).unwrap_or(8 << 20);
    // Two grids should exceed ~4x the shared cache.
    let bytes = 4 * cache;
    (((bytes / 16) as f64).cbrt() as usize).clamp(64, 256)
}

/// Pretty-print one table row of label + columns.
pub fn row(label: &str, cols: &[String]) {
    print!("{label:<34}");
    for c in cols {
        print!(" {c:>14}");
    }
    println!();
}

pub fn fmt_mlups(s: &RunStats) -> String {
    format!("{:.1}", s.mlups())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn best_of_picks_max_rate() {
        let mut times = [3, 1, 2].iter().copied();
        let s = best_of(3, move || {
            RunStats::new(1000, Duration::from_millis(times.next().unwrap()))
        });
        assert_eq!(s.elapsed, Duration::from_millis(1));
    }

    #[test]
    fn warmed_best_of_discards_the_first_rep() {
        // The warm-up rep is the fastest here; it must not win.
        let mut times = [1u64, 5, 3, 4].iter().copied();
        let s = warmed_best_of(3, move || {
            RunStats::new(1000, Duration::from_millis(times.next().unwrap()))
        });
        assert_eq!(s.elapsed, Duration::from_millis(3));
    }

    #[test]
    fn default_edge_in_range() {
        let e = default_edge();
        assert!((64..=256).contains(&e));
    }

    #[test]
    fn args_lookup() {
        let a = Args {
            raw: vec![
                "--size".into(),
                "128".into(),
                "--mode".into(),
                "nehalem".into(),
            ],
        };
        assert_eq!(a.get_usize("--size", 64), 128);
        assert_eq!(a.get_usize("--sweeps", 10), 10);
        assert_eq!(a.mode(&["host", "nehalem"]), "nehalem");

        // No `--mode`: the first listed mode is the default.
        let bare = Args { raw: vec![] };
        assert_eq!(bare.mode(&["model", "sim", "host"]), "model");

        // A misspelt mode and a malformed number are usage errors, not
        // a silent fall-back to some default.
        let bad = Args {
            raw: vec!["--mode".into(), "sym".into(), "--size".into(), "4o".into()],
        };
        let e = bad.try_mode(&["model", "sim", "host"]).unwrap_err();
        assert!(e.contains("`sym`") && e.contains("model, sim, host"), "{e}");
        let e = bad.try_usize("--size", 64).unwrap_err();
        assert!(e.contains("--size") && e.contains("`4o`"), "{e}");
    }
}
