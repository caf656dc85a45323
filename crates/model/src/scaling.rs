//! Strong/weak scaling predictions for the distributed solvers (Fig. 6).
//!
//! The model composes the per-node rates (calibrated from Fig. 3 class
//! measurements) with the multi-layer halo model of [`crate::halo`]:
//! aggregate performance of `N` nodes × `ppn` ranks is
//!
//! `ranks · bulk_cells / time_per_update(local, h)`
//!
//! with rank subdomains from a balanced 3D factorization and no overlap
//! of communication and computation — the same assumptions the paper
//! states for its Fig. 5/6 analysis. Intra-node messages are charged at
//! network cost too (a simplification the paper shares: its model
//! "disregards some important effects like switching of message
//! protocols").

use crate::halo::{halo_cycle_time, HaloWorkload};
use crate::network::NetworkParams;

/// Strong (fixed total) or weak (fixed per-process) scaling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalingMode {
    Strong,
    Weak,
}

/// One curve of Fig. 6.
#[derive(Clone, Copy, Debug)]
pub struct ScalingConfig {
    /// Processes per node (paper: 1, 2 or 8).
    pub ppn: usize,
    /// Aggregate node performance of the in-node solver in LUP/s
    /// (standard or pipelined; from measurement or the §1.4 model).
    pub node_lups: f64,
    /// Halo width = updates per exchange cycle (1 for the standard
    /// solver, `n·t·T` for pipelined temporal blocking).
    pub halo_h: usize,
    pub net: NetworkParams,
    pub mode: ScalingMode,
    /// Cube edge of the problem: total for strong, per *process* for weak
    /// (paper Fig. 6 caption).
    pub base_edge: usize,
}

/// A predicted point of a Fig. 6 curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    pub nodes: usize,
    pub ranks: usize,
    pub glups: f64,
    pub efficiency: f64,
}

/// Balanced 3D factorization of `n` ranks: the factor triple `(a,b,c)`
/// with `a·b·c = n` minimizing `a+b+c` (which minimizes per-rank surface
/// for a cubic global domain) — our stand-in for `MPI_Dims_create`.
pub fn balanced_dims(n: usize) -> [usize; 3] {
    assert!(n >= 1);
    let mut best = [n, 1, 1];
    let mut best_sum = n + 2;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let m = n / a;
        for b in 1..=m {
            if !m.is_multiple_of(b) {
                continue;
            }
            let c = m / b;
            let sum = a + b + c;
            if sum < best_sum {
                best_sum = sum;
                best = [a, b, c];
            }
        }
    }
    best.sort_unstable_by(|x, y| y.cmp(x)); // largest first, x direction
    best
}

impl ScalingConfig {
    /// Predict aggregate performance on `nodes` nodes.
    pub fn predict(&self, nodes: usize) -> ScalingPoint {
        let ranks = nodes * self.ppn;
        let grid = balanced_dims(ranks);
        let local = match self.mode {
            ScalingMode::Strong => {
                let g = self.base_edge;
                [g / grid[0], g / grid[1], g / grid[2]]
            }
            ScalingMode::Weak => [self.base_edge; 3],
        };
        let local = [local[0].max(1), local[1].max(1), local[2].max(1)];
        let w = HaloWorkload::realistic(
            local,
            [grid[0] > 1, grid[1] > 1, grid[2] > 1],
            self.node_lups / self.ppn as f64,
        );
        let per_update = halo_cycle_time(&w, &self.net, self.halo_h) / self.halo_h as f64;
        let bulk: usize = local.iter().product();
        let agg = ranks as f64 * bulk as f64 / per_update;
        let ideal = self.ideal(nodes);
        ScalingPoint {
            nodes,
            ranks,
            glups: agg / 1e9,
            efficiency: agg / ideal,
        }
    }

    /// Ideal (communication-free, perfectly scaling) aggregate LUP/s.
    pub fn ideal(&self, nodes: usize) -> f64 {
        nodes as f64 * self.node_lups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ppn: usize, node_lups: f64, h: usize, mode: ScalingMode) -> ScalingConfig {
        ScalingConfig {
            ppn,
            node_lups,
            halo_h: h,
            net: NetworkParams::qdr_infiniband(),
            mode,
            base_edge: 600,
        }
    }

    #[test]
    fn balanced_dims_cases() {
        assert_eq!(balanced_dims(1), [1, 1, 1]);
        assert_eq!(balanced_dims(8), [2, 2, 2]);
        assert_eq!(balanced_dims(27), [3, 3, 3]);
        assert_eq!(balanced_dims(64), [4, 4, 4]);
        assert_eq!(balanced_dims(12), [3, 2, 2]);
        let d = balanced_dims(512);
        assert_eq!(d, [8, 8, 8]);
        assert_eq!(balanced_dims(7), [7, 1, 1]);
    }

    #[test]
    fn single_node_has_no_comm_penalty() {
        let c = cfg(1, 2.0e9, 1, ScalingMode::Strong);
        let p = c.predict(1);
        assert!((p.glups - 2.0).abs() < 1e-9, "{}", p.glups);
        assert!((p.efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weak_scaling_stays_efficient() {
        // 600^3 per process is huge: communication is negligible, so weak
        // scaling must stay above ~90% efficiency out to 64 nodes.
        let c = cfg(2, 3.4e9, 16, ScalingMode::Weak);
        let p = c.predict(64);
        assert!(p.efficiency > 0.8, "weak eff {}", p.efficiency);
        assert!(p.glups > 0.8 * 64.0 * 3.4);
    }

    #[test]
    fn strong_scaling_loses_efficiency_at_scale() {
        // 600^3 split over 512 ranks -> 75^3 locals: the paper's Fig. 5
        // says that regime is communication-limited.
        let weak = cfg(8, 4.6e9, 1, ScalingMode::Weak).predict(64);
        let strong = cfg(8, 4.6e9, 1, ScalingMode::Strong).predict(64);
        assert!(strong.efficiency < weak.efficiency);
        assert!(strong.efficiency < 0.9, "strong eff {}", strong.efficiency);
        // And the *pipelined* strong config (h=16) collapses much harder:
        // its rings/aggregated messages grow with h while locals shrink.
        let pipe_strong = cfg(2, 3.4e9, 16, ScalingMode::Strong).predict(64);
        assert!(
            pipe_strong.efficiency < strong.efficiency,
            "pipelined strong eff {} should trail standard {}",
            pipe_strong.efficiency,
            strong.efficiency
        );
    }

    #[test]
    fn pipelined_weak_keeps_most_of_its_speedup() {
        // §2.2: "About 80% of the pipelined blocking speedup can be
        // maintained for the distributed-memory parallel case."
        let std_node = 2.9e9;
        let pipe_node = 3.4e9; // ~17% node-level speedup per Fig. 3 class
        let std64 = cfg(2, std_node, 1, ScalingMode::Weak).predict(64);
        let pipe64 = cfg(2, pipe_node, 16, ScalingMode::Weak).predict(64);
        let speedup_single = pipe_node / std_node;
        let speedup_64 = pipe64.glups / std64.glups;
        let retained = (speedup_64 - 1.0) / (speedup_single - 1.0);
        // Our model keeps less than the paper's measured ~80% because it
        // charges buffer copies and expanded slabs; the qualitative claim
        // (pipelined stays ahead in weak scaling) must hold.
        assert!(speedup_64 > 1.0, "pipelined fell behind: {speedup_64}");
        assert!(retained > 0.3, "retained {retained}");
    }

    #[test]
    fn strong_scaling_monotone_in_nodes_but_sublinear() {
        let c = cfg(8, 4.6e9, 1, ScalingMode::Strong);
        let p1 = c.predict(1);
        let p8 = c.predict(8);
        let p64 = c.predict(64);
        assert!(p8.glups > p1.glups);
        assert!(p64.glups > p8.glups);
        assert!(p64.glups < 64.0 * p1.glups);
    }

    #[test]
    fn ideal_lines_are_linear() {
        let c = cfg(2, 3.0e9, 1, ScalingMode::Weak);
        assert_eq!(c.ideal(64), 64.0 * 3.0e9);
    }
}
