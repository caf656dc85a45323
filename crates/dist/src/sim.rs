//! Cluster simulation bridging the real protocol to the Fig. 6 model.
//!
//! The paper measured 1..64 Nehalem nodes; this workspace has one host.
//! This module doc is where the substitution is stated: predict the
//! *nominal* point with [`ScalingConfig::predict`], and separately
//! **execute** the full decomposition + multi-layer exchange + solver
//! on a scaled-down grid with real in-process ranks on a wire paced by
//! the curve's [`tb_model::NetworkParams`], verifying the result bitwise
//! against the serial oracle. A simulated point is only reported when
//! the executed protocol proves out.

use tb_grid::{init, norm, Dims3, Grid3, Region3};
use tb_model::scaling::balanced_dims;
use tb_model::{ScalingConfig, ScalingPoint};
use tb_stencil::Jacobi6;

use crate::decomp::Decomposition;
use crate::net::{CartComm, Universe};
use crate::solver::{serial_reference, DistSolver, LocalExec};

/// Executed rank counts are capped here so oversubscribed hosts stay
/// responsive; the nominal prediction still uses the full count.
pub const MAX_EXEC_RANKS: usize = 8;

/// One simulated scaling point.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Nominal node count (the Fig. 6 x-axis).
    pub nodes: usize,
    /// The curve being simulated (per-node rate, halo depth, network,
    /// strong/weak mode, nominal problem edge).
    pub cfg: ScalingConfig,
    /// Cube edge of the *executed* verification problem.
    pub exec_edge: usize,
    /// Halo depth of the executed problem (may be shallower than the
    /// nominal `cfg.halo_h` to fit the small grid).
    pub exec_halo: usize,
    /// Sweeps of the executed problem.
    pub exec_sweeps: usize,
}

/// Result of [`simulate`].
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Nominal rank count, `nodes × ppn`.
    pub ranks: usize,
    /// Ranks actually spawned for the protocol execution.
    pub exec_ranks: usize,
    /// Whether the executed run matched the serial reference bitwise.
    pub verified: bool,
    /// Halo payload bytes the executed ranks sent, summed.
    pub halo_bytes: u64,
    /// Final-gather payload bytes the executed ranks sent, summed.
    pub gather_bytes: u64,
    /// The nominal model prediction for `nodes`.
    pub point: ScalingPoint,
}

/// Execute one scaling point: real protocol on the small grid, nominal
/// prediction from the model.
///
/// # Panics
/// Panics when `exec_edge`/`exec_halo` produce an invalid decomposition
/// for the executed rank count — a bug in the experiment spec, not data.
pub fn simulate(spec: &SimSpec) -> SimOutcome {
    let ranks = spec.nodes * spec.cfg.ppn;
    let point = spec.cfg.predict(spec.nodes);

    let exec_ranks = ranks.min(MAX_EXEC_RANKS);
    let pgrid = balanced_dims(exec_ranks);
    let dims = Dims3::cube(spec.exec_edge);
    let dec = Decomposition::new(dims, pgrid, spec.exec_halo);
    let global: Grid3<f64> = init::random(dims, 0x5EED);
    let want = serial_reference(&global, spec.exec_sweeps);

    let (g, w) = (&global, &want);
    let per_rank = Universe::run(exec_ranks, Some(spec.cfg.net), move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s = DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
            .expect("spec produced an invalid local domain");
        s.run_sweeps(&mut cart, spec.exec_sweeps);
        let ok = match s.gather_global(&mut cart, &dec, g) {
            Some(got) => norm::count_mismatches(w, &got, &Region3::interior_of(dims)) == 0,
            None => true,
        };
        (ok, s.halo_bytes_sent, s.gather_bytes_sent)
    });

    SimOutcome {
        ranks,
        exec_ranks,
        verified: per_rank.iter().all(|&(ok, ..)| ok),
        halo_bytes: per_rank.iter().map(|r| r.1).sum(),
        gather_bytes: per_rank.iter().map(|r| r.2).sum(),
        point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_model::{NetworkParams, ScalingMode};

    fn spec(nodes: usize, ppn: usize) -> SimSpec {
        SimSpec {
            nodes,
            cfg: ScalingConfig {
                ppn,
                node_lups: 2.9e9,
                halo_h: 4,
                net: NetworkParams::qdr_infiniband(),
                mode: ScalingMode::Weak,
                base_edge: 600,
            },
            exec_edge: 16,
            exec_halo: 2,
            exec_sweeps: 4,
        }
    }

    #[test]
    fn verifies_and_reports_nominal_ranks() {
        let out = simulate(&spec(4, 2));
        assert!(out.verified);
        assert_eq!(out.ranks, 8);
        assert_eq!(out.exec_ranks, 8);
        assert!(out.point.glups > 0.0);
        assert!(out.halo_bytes > 0, "ranks exchanged halos");
        assert!(out.gather_bytes > 0, "non-root ranks shipped their boxes");
    }

    #[test]
    fn exec_rank_count_is_capped() {
        let out = simulate(&spec(64, 8));
        assert_eq!(out.ranks, 512);
        assert_eq!(out.exec_ranks, MAX_EXEC_RANKS);
        assert!(out.verified);
    }
}
