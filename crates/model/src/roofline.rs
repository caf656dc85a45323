//! Bandwidth roofline for standard stencil sweeps (Eq. 2).
//!
//! With spatial blocking the kernel moves `B_c` bytes per lattice-site
//! update over the memory bus, so a "perfect" baseline runs at
//! `P0 = M_s / B_c` LUP/s per socket. `B_c` comes from the *operator*
//! ([`StencilOp::bytes_per_lup`]): 16 B/LUP for classic Jacobi `f64`
//! with streaming stores (the paper quotes 2.3 GLUP/s for its 18.5 GB/s
//! Nehalem socket), 24 with the read-for-ownership, more for operators
//! with extra read streams.

use tb_grid::Real;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{Jacobi6, StencilOp};

use crate::machine::MachineParams;

/// Expected memory-bound LUP/s for a baseline sweep on one socket, given
/// the per-update traffic `bytes_per_lup`.
pub fn roofline_lups(machine: &MachineParams, bytes_per_lup: f64) -> f64 {
    assert!(bytes_per_lup > 0.0);
    machine.ms / bytes_per_lup
}

/// Eq. 2 for an arbitrary operator: the traffic term is the operator's
/// code balance, not a hardcoded constant.
pub fn op_roofline_lups<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    store: StoreMode,
) -> f64 {
    roofline_lups(machine, op.bytes_per_lup(store))
}

/// Backwards-compatible name for [`roofline_lups`].
pub fn jacobi_roofline_lups(machine: &MachineParams, bytes_per_lup: f64) -> f64 {
    roofline_lups(machine, bytes_per_lup)
}

/// Eq. 2 with the paper's default: classic Jacobi, double precision,
/// streaming stores.
pub fn jacobi_roofline_default(machine: &MachineParams) -> f64 {
    op_roofline_lups::<f64, _>(machine, &Jacobi6, StoreMode::Streaming)
}

/// Optimistic service-time **floor** in seconds for a job of
/// `cell_updates` lattice-site updates with code balance `bytes_per_lup`.
///
/// Even a perfectly temporally blocked schedule cannot stream data
/// faster than the shared-cache bandwidth `M_c` — §1.4's asymptotic
/// speedup `M_c/M_s` caps every method in this workspace — so no
/// executor on this machine finishes the job sooner than
/// `cell_updates · B_c / M_c`. That makes the floor the right
/// admission-control test for deadline scheduling: a job whose deadline
/// is tighter than its floor would miss **even starting immediately on
/// an idle slice with the best possible plan**, so a server sheds it at
/// submission instead of queueing doomed work (`Rejected::Infeasible`
/// in `temporal_blocking::serve`). Callers pass the *streaming-store*
/// code balance (the lowest-traffic variant) to keep the bound
/// optimistic.
pub fn service_floor_seconds(
    machine: &MachineParams,
    bytes_per_lup: f64,
    cell_updates: u64,
) -> f64 {
    assert!(bytes_per_lup > 0.0);
    cell_updates as f64 * bytes_per_lup / machine.mc
}

/// Naive code balance of the unblocked kernel in words/flop (paper §1.1:
/// `B_c = 8/6 W/F` counting the RFO).
pub fn naive_code_balance_words_per_flop() -> f64 {
    8.0 / 6.0
}

/// Words moved per flop for an arbitrary operator and store mode — the
/// generalization of the paper's `8/6 W/F`.
pub fn code_balance_words_per_flop<T: Real, Op: StencilOp<T>>(op: &Op, store: StoreMode) -> f64 {
    (op.bytes_per_lup(store) / T::bytes() as f64) / op.flops_per_lup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::Dims3;
    use tb_stencil::VarCoeff7;

    #[test]
    fn nehalem_expectation_matches_paper() {
        // "leading to an expectation of 2.3 GLUP/s for a standard Jacobi
        // algorithm in main memory" (§1.1) — per node (2 sockets x
        // 18.5 GB/s / 16 B = 2.31 GLUP/s... the paper's 2.3 GLUP/s is the
        // two-socket figure: 2 * 18.5e9/16 = 2.3125e9).
        let m = MachineParams::nehalem_ep();
        let node = 2.0 * jacobi_roofline_default(&m);
        assert!((node / 1e9 - 2.3125).abs() < 1e-9);
    }

    #[test]
    fn rfo_lowers_the_roofline() {
        let m = MachineParams::nehalem_ep();
        let j = Jacobi6;
        let with_nt = op_roofline_lups::<f64, _>(&m, &j, StoreMode::Streaming);
        let with_rfo = op_roofline_lups::<f64, _>(&m, &j, StoreMode::Normal);
        assert!((with_nt / with_rfo - 1.5).abs() < 1e-12);
    }

    #[test]
    fn extra_streams_lower_the_roofline_further() {
        let m = MachineParams::nehalem_ep();
        let v: VarCoeff7<f64> = VarCoeff7::banded(Dims3::cube(4));
        let jac = op_roofline_lups::<f64, _>(&m, &Jacobi6, StoreMode::Streaming);
        let var = op_roofline_lups::<f64, _>(&m, &v, StoreMode::Streaming);
        // One extra 8-byte read stream on top of 16 B/LUP: 2/3 the rate.
        assert!((var / jac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn code_balance_value() {
        assert!((naive_code_balance_words_per_flop() - 1.333).abs() < 1e-3);
        // The naive 8/6 counts the unblocked kernel's halo re-reads; the
        // generalized (blocked) form for classic Jacobi with RFO is
        // 3 words per 6-flop update.
        let b = code_balance_words_per_flop::<f64, _>(&Jacobi6, StoreMode::Normal);
        assert!((b - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_traffic_rejected() {
        let _ = roofline_lups(&MachineParams::nehalem_ep(), 0.0);
    }

    #[test]
    fn service_floor_is_the_cache_bandwidth_bound() {
        let m = MachineParams::nehalem_ep();
        // 1e9 updates at the streaming Jacobi balance (16 B/LUP):
        // 16 GB over Mc = 80 GB/s is exactly 0.2 s.
        let floor = service_floor_seconds(&m, 16.0, 1_000_000_000);
        assert!((floor - 0.2).abs() < 1e-12);
        // The floor is below the memory roofline's time (Mc > Ms): a
        // baseline sweep at Eq. 2 speed takes Mc/Ms times longer.
        let roofline_time = 1e9 / roofline_lups(&m, 16.0);
        assert!(floor < roofline_time);
        assert!((roofline_time / floor - m.max_speedup()).abs() < 1e-9);
        // Linear in work and in traffic.
        assert_eq!(service_floor_seconds(&m, 16.0, 2_000_000_000), 2.0 * floor);
        assert_eq!(service_floor_seconds(&m, 32.0, 1_000_000_000), 2.0 * floor);
    }

    #[test]
    #[should_panic]
    fn service_floor_rejects_zero_traffic() {
        let _ = service_floor_seconds(&MachineParams::nehalem_ep(), 0.0, 1);
    }
}
