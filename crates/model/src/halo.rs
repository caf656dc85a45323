//! The multi-layer halo advantage model (paper §2.1, Fig. 5).
//!
//! A subdomain of `l_x × l_y × l_z` cells exchanges `h` halo layers once
//! per `h` updates. Costs per cycle of `h` updates:
//!
//! * bulk computation: `h · l_x l_y l_z / P`,
//! * extra face work: update `s` (1-based) covers a domain `h - s` layers
//!   larger in each (communicating) direction,
//! * communication: ghost-cell expansion — two messages per direction,
//!   sent consecutively along x, then y (x-extended), then z (x- and
//!   y-extended), with a latency/bandwidth cost each (Fig. 4),
//!
//! with *no* overlap of communication and computation. The advantage
//! plotted in Fig. 5 is `time_per_update(h = 1) / time_per_update(h)`.

use crate::network::NetworkParams;

/// One subdomain's workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct HaloWorkload {
    /// Subdomain extents in cells (owned cells, excluding ghosts).
    pub local: [usize; 3],
    /// Which directions actually communicate (false at physical domain
    /// boundaries or when the rank grid has extent 1 in that dim).
    pub comm: [bool; 3],
    /// Node (process) performance in LUP/s, assumed independent of the
    /// working set (the paper uses 2000 MLUP/s).
    pub lups: f64,
    /// Bytes per grid word (8 for f64).
    pub word: usize,
    /// Account the ghost-cell-expansion growth of y/z slabs. The paper's
    /// Fig. 5 model treats "edge and corner contributions" as negligible
    /// (`false`); the real exchange ships them (`true`), which matters
    /// once `h` approaches `L`.
    pub expanded_slabs: bool,
}

impl HaloWorkload {
    /// The paper's Fig. 5 setup: cubic subdomain `L³`, all directions
    /// communicating, 2000 MLUP/s, double precision, and the paper's
    /// simplifications (no slab expansion; pair with a copy-free
    /// [`NetworkParams`], see [`fig5_network`]).
    #[cfg(test)]
    pub(crate) fn fig5(l: usize) -> Self {
        Self {
            local: [l, l, l],
            comm: [true, true, true],
            lups: 2.0e9,
            word: 8,
            expanded_slabs: false,
        }
    }

    /// Realistic variant: same workload but accounting expanded slabs.
    pub fn realistic(local: [usize; 3], comm: [bool; 3], lups: f64) -> Self {
        Self {
            local,
            comm,
            lups,
            word: 8,
            expanded_slabs: true,
        }
    }

    /// Workload whose compute rate is the *operator's* Eq. 2 roofline on
    /// `machine` (instead of an assumed constant) and whose transfer
    /// word size is the operator's element type — the Fig. 5 model fed
    /// by per-operator code balance.
    pub fn for_op<T: tb_grid::Real, Op: tb_stencil::StencilOp<T>>(
        local: [usize; 3],
        comm: [bool; 3],
        machine: &crate::MachineParams,
        op: &Op,
        store: tb_stencil::kernel::StoreMode,
    ) -> Self {
        Self {
            local,
            comm,
            lups: crate::roofline::op_roofline_lups(machine, op, store),
            word: T::bytes(),
            expanded_slabs: true,
        }
    }
}

/// The network parameters of the paper's Fig. 5 analysis: QDR InfiniBand
/// wire model *without* buffer-copy costs ("this simple model disregards
/// … overhead for copying to and from message buffers", §2.1).
#[cfg(test)]
pub(crate) fn fig5_network() -> NetworkParams {
    NetworkParams {
        copy_bandwidth: f64::INFINITY,
        ..NetworkParams::qdr_infiniband()
    }
}

/// Cells in the slab sent along direction `d` for halo width `h`,
/// following the ghost-cell-expansion ordering: x slabs are `h·l_y·l_z`,
/// y slabs include the x ghosts (`(l_x+2h)`), z slabs include x and y
/// ghosts.
pub fn slab_cells(w: &HaloWorkload, d: usize, h: usize) -> usize {
    let ext = |dim: usize| -> usize {
        if w.expanded_slabs && w.comm[dim] {
            w.local[dim] + 2 * h
        } else {
            w.local[dim]
        }
    };
    match d {
        0 => h * w.local[1] * w.local[2],
        1 => h * ext(0) * w.local[2],
        _ => h * ext(0) * ext(1),
    }
}

/// Communication time of one full h-layer exchange (6 messages, or fewer
/// at physical boundaries), serialized as the paper assumes.
fn exchange_time(w: &HaloWorkload, net: &NetworkParams, h: usize) -> f64 {
    let mut t = 0.0;
    for d in 0..3 {
        if w.comm[d] {
            let bytes = slab_cells(w, d, h) * w.word;
            t += 2.0 * net.halo_message_time(bytes);
        }
    }
    t
}

/// Extra (redundant) cell updates in one cycle: update `s` covers a
/// domain `h - s` layers larger per communicating direction. Following
/// the paper's cost breakdown ("'bulk' and additional 'face' stencil
/// updates"), only the six face slabs are counted — edge and corner
/// volumes are dropped, exactly like the edge/corner message traffic in
/// the unexpanded slab model. (The *real* distributed solver of tb-dist
/// does update those edges/corners; this is the paper's model, not the
/// implementation.)
fn extra_cells_per_cycle(w: &HaloWorkload, h: usize) -> usize {
    let mut extra = 0usize;
    for s in 1..=h {
        let g = h - s;
        for d in 0..3 {
            if w.comm[d] {
                let face: usize = (0..3).filter(|&e| e != d).map(|e| w.local[e]).product();
                extra += 2 * g * face;
            }
        }
    }
    extra
}

/// Wall time of one cycle of `h` updates (compute + extra + exchange).
pub fn halo_cycle_time(w: &HaloWorkload, net: &NetworkParams, h: usize) -> f64 {
    assert!(h >= 1);
    let bulk: usize = w.local.iter().product();
    let compute = (h * bulk) as f64 / w.lups;
    let extra = extra_cells_per_cycle(w, h) as f64 / w.lups;
    compute + extra + exchange_time(w, net, h)
}

/// Fig. 5's y-axis: `advantage(h) = t(h=1)/t(h)` per update.
pub fn halo_advantage(w: &HaloWorkload, net: &NetworkParams, h: usize) -> f64 {
    let t1 = halo_cycle_time(w, net, 1);
    let th = halo_cycle_time(w, net, h) / h as f64;
    t1 / th
}

/// Fig. 5 inset: useful computation time over total time per cycle.
#[cfg(test)]
pub(crate) fn computational_efficiency(w: &HaloWorkload, net: &NetworkParams, h: usize) -> f64 {
    let bulk: usize = w.local.iter().product();
    let compute = (h * bulk) as f64 / w.lups;
    compute / halo_cycle_time(w, net, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkParams {
        super::fig5_network()
    }

    #[test]
    fn for_op_derives_rate_and_word_from_operator() {
        use tb_stencil::kernel::StoreMode;
        use tb_stencil::Jacobi6;
        let m = crate::MachineParams::nehalem_ep();
        let w =
            HaloWorkload::for_op::<f64, _>([30; 3], [true; 3], &m, &Jacobi6, StoreMode::Streaming);
        assert!((w.lups - m.ms / 16.0).abs() < 1e-6);
        assert_eq!(w.word, 8);
        let w32 =
            HaloWorkload::for_op::<f32, _>([30; 3], [true; 3], &m, &Jacobi6, StoreMode::Streaming);
        assert_eq!(w32.word, 4);
        assert!(w32.lups > w.lups, "f32 halves the code balance");
    }

    #[test]
    fn slab_sizes_follow_ghost_expansion() {
        let w = HaloWorkload::realistic([10, 10, 10], [true; 3], 2.0e9);
        assert_eq!(slab_cells(&w, 0, 2), 2 * 10 * 10);
        assert_eq!(slab_cells(&w, 1, 2), 2 * 14 * 10);
        assert_eq!(slab_cells(&w, 2, 2), 2 * 14 * 14);
        // Paper model: no expansion.
        let p = HaloWorkload::fig5(10);
        assert_eq!(slab_cells(&p, 2, 2), 2 * 10 * 10);
    }

    #[test]
    fn no_comm_no_cost() {
        let mut w = HaloWorkload::fig5(10);
        w.comm = [false, false, false];
        assert_eq!(exchange_time(&w, &net(), 4), 0.0);
        assert_eq!(extra_cells_per_cycle(&w, 4), 0);
        // Advantage degenerates to exactly 1 (pure compute both ways).
        assert!((halo_advantage(&w, &net(), 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extra_work_formula_h2() {
        // h=2 on L=10: update 1 adds six 1-layer faces (6*100), update 2
        // adds none.
        let w = HaloWorkload::fig5(10);
        assert_eq!(extra_cells_per_cycle(&w, 2), 6 * 100);
        // One-sided communication counts only that direction's faces.
        let mut one = w;
        one.comm = [true, false, false];
        assert_eq!(extra_cells_per_cycle(&one, 2), 2 * 100);
    }

    #[test]
    fn advantage_tends_to_one_at_large_l() {
        // "multi-layer halos have no influence at large subdomain sizes."
        // The extra-work fraction scales like 3h/L, so small h converges
        // within the plotted range and h=32 recovers monotonically.
        for h in [2usize, 4, 8] {
            let w = HaloWorkload::fig5(400);
            let a = halo_advantage(&w, &net(), h);
            assert!((a - 1.0).abs() < 0.12, "h={h}: {a}");
        }
        let a100 = halo_advantage(&HaloWorkload::fig5(100), &net(), 32);
        let a1000 = halo_advantage(&HaloWorkload::fig5(1000), &net(), 32);
        let a4000 = halo_advantage(&HaloWorkload::fig5(4000), &net(), 32);
        assert!(a100 < a1000 && a1000 < a4000, "{a100} {a1000} {a4000}");
        assert!((a4000 - 1.0).abs() < 0.1, "{a4000}");
    }

    #[test]
    fn aggregation_wins_at_small_l() {
        // "At even smaller L <~ 20, the positive effect of message
        // aggregation over-compensates the halo overhead."
        for h in [4usize, 8, 16, 32] {
            let w = HaloWorkload::fig5(4);
            let a = halo_advantage(&w, &net(), h);
            assert!(a > 1.2, "h={h}: {a}");
        }
        // And the gain grows with h in this regime (Fig. 5 ordering).
        let w = HaloWorkload::fig5(4);
        let a8 = halo_advantage(&w, &net(), 8);
        let a32 = halo_advantage(&w, &net(), 32);
        assert!(a32 > a8, "{a32} vs {a8}");
    }

    #[test]
    fn extra_work_dips_below_one_mid_range() {
        // "As the domain gets smaller (20 <~ L <~ 100), extra halo work
        // starts to degrade performance … a relevant impact can only be
        // expected at h >~ 16."
        let w = HaloWorkload::fig5(40);
        let a32 = halo_advantage(&w, &net(), 32);
        assert!(a32 < 0.95, "h=32 at L=40 should lose: {a32}");
        let a2 = halo_advantage(&w, &net(), 2);
        assert!(a2 > 0.95, "h=2 should be near-neutral at L=40: {a2}");
    }

    #[test]
    fn efficiency_collapses_below_l100() {
        // Inset: "the algorithm is strongly communication-limited below
        // L ≈ 100, such that parallel efficiency is very low."
        let e_small = computational_efficiency(&HaloWorkload::fig5(10), &net(), 2);
        let e_large = computational_efficiency(&HaloWorkload::fig5(300), &net(), 2);
        assert!(e_small < 0.45, "{e_small}");
        assert!(e_large > 0.85, "{e_large}");
        // Efficiency is monotone-ish in L for fixed h.
        let e_mid = computational_efficiency(&HaloWorkload::fig5(100), &net(), 2);
        assert!(e_small < e_mid && e_mid < e_large);
    }

    #[test]
    fn fig5_best_depth_shrinks_as_subdomains_grow() {
        // Fig. 5: which halo depth wins depends on L. Message aggregation
        // makes the deepest halo best on tiny subdomains, the extra face
        // work makes the shallowest best on large ones, and in between
        // the optimum is interior. The best h never grows with L.
        let hs = [2usize, 4, 8, 16, 32];
        let ls = [
            1usize, 2, 3, 4, 6, 8, 10, 14, 20, 28, 40, 56, 80, 110, 160, 220, 300, 400,
        ];
        let best: Vec<usize> = ls
            .iter()
            .map(|&l| {
                let w = HaloWorkload::fig5(l);
                let adv = |h: usize| halo_advantage(&w, &net(), h);
                hs.into_iter()
                    .max_by(|&a, &b| adv(a).total_cmp(&adv(b)))
                    .unwrap()
            })
            .collect();
        assert!(best.windows(2).all(|p| p[1] <= p[0]), "{best:?}");
        for (&l, &h) in ls.iter().zip(&best) {
            match l {
                ..=3 => assert_eq!(h, 32, "L={l}: {best:?}"),
                4..=28 => assert!(h > 2 && h < 32, "L={l}: {best:?}"),
                _ => assert_eq!(h, 2, "L={l}: {best:?}"),
            }
        }
    }

    #[test]
    fn advantage_at_one_is_identity() {
        let w = HaloWorkload::fig5(30);
        assert!((halo_advantage(&w, &net(), 1) - 1.0).abs() < 1e-12);
    }
}
