//! Distributed end-to-end tests spanning tb-dist (ranks, decomposition,
//! halo exchange) and tb-stencil.

use temporal_blocking::dist::{solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Real, Region3};
use temporal_blocking::model::NetworkParams;
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::runtime::Runtime;
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::topology::{affinity, Machine, TeamLayout};
use temporal_blocking::{
    Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig, StencilOp, SyncMode, VarCoeff7,
};

fn run_and_verify(
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    exec: impl Fn() -> LocalExec + Send + Sync,
) {
    let global: Grid3<f64> = init::random(dims, 2024);
    let want = solver::serial_reference(&global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let ranks = dec.ranks();
    let (global_ref, want_ref, exec_ref) = (&global, &want, &exec);
    Universe::run(ranks, None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(&dec, cart.coords(), global_ref, exec_ref(), Jacobi6)
                .unwrap();
        s.run_sweeps(&mut cart, sweeps);
        if let Some(got) = s.gather_global(&mut cart, &dec, global_ref) {
            norm::assert_grids_identical(
                want_ref,
                &got,
                &Region3::interior_of(dims),
                &format!("dist {pgrid:?} h={h}"),
            );
        }
        0
    });
}

#[test]
fn twelve_ranks_anisotropic() {
    run_and_verify(Dims3::new(26, 18, 14), [3, 2, 2], 2, 6, || LocalExec::Seq);
}

#[test]
fn deep_halo_few_ranks() {
    run_and_verify(Dims3::cube(24), [2, 1, 1], 5, 11, || LocalExec::Seq);
}

#[test]
fn hybrid_eight_ranks_pipelined() {
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    run_and_verify(Dims3::cube(22), [2, 2, 2], 2, 6, move || {
        LocalExec::Pipelined(cfg.clone())
    });
}

/// The exchange drives every overlap case runs: the mode, and whether
/// the rank's runtime has a communication worker to drive an overlapped
/// exchange.
const DRIVES: [(ExchangeMode, bool); 3] = [
    (ExchangeMode::Sync, false),
    (ExchangeMode::Overlapped, false),
    (ExchangeMode::Overlapped, true),
];

/// Compute workers a rank's local execution occupies.
fn team(exec: &LocalExec) -> usize {
    match exec {
        LocalExec::Seq => 0,
        LocalExec::Pipelined(cfg) => cfg.threads(),
        LocalExec::Diamond(cfg) => cfg.threads,
    }
}

/// One operator through every exchange drive, in element type `T`:
/// each gathered grid must match the serial oracle bitwise. With
/// `layouts`, rank `r` pins its thread to the first CPU of `layouts(r)`
/// before building its solver (so its box is allocated there) and runs
/// on a runtime pinned to `layouts(r)`'s CPUs, whose communication
/// worker (under the comm-thread drive) takes the layout's comm core.
/// Without, the comm-thread drive adds an unpinned communication worker
/// to `run_sweeps`'s runtime. `net` paces the wire
/// (`Universe::run`'s parameter).
#[allow(clippy::too_many_arguments)]
fn verify_overlap_op<T: Real, Op: StencilOp<T>>(
    op: Op,
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    exec: impl Fn() -> LocalExec + Send + Sync,
    layouts: Option<&(dyn Fn(usize) -> TeamLayout + Sync)>,
    net: Option<NetworkParams>,
) {
    let global: Grid3<T> = init::random(dims, 31415);
    let want = solver::serial_reference_op(&op, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    for (mode, comm_thread) in DRIVES {
        let (g, w, op_ref, exec_ref, dec_ref) = (&global, &want, &op, &exec, &dec);
        Universe::run(dec.ranks(), net, move |comm| {
            let layout = layouts.map(|f| f(comm.rank()));
            if let Some(layout) = &layout {
                let _ = affinity::pin_opt(layout.cpus[0]);
            }
            let mut cart = CartComm::new(comm, pgrid);
            let exec = exec_ref();
            let (cpus, comm_core) = match &layout {
                Some(layout) => (layout.cpus.clone(), layout.comm_core),
                None => (vec![None; team(&exec)], None),
            };
            let mut s = DistSolver::from_global_op(dec_ref, cart.coords(), g, exec, op_ref.clone())
                .unwrap()
                .with_exchange_mode(mode);
            if layout.is_none() && !comm_thread {
                s.run_sweeps(&mut cart, sweeps);
            } else {
                let rt = Runtime::from_cpus(cpus, comm_thread.then_some(comm_core));
                s.run_sweeps_on(&rt, &mut cart, sweeps);
            }
            if let Some(got) = s.gather_global(&mut cart, dec_ref, g) {
                norm::assert_grids_identical(
                    w,
                    &got,
                    &Region3::interior_of(dims),
                    &format!(
                        "e2e {} {} {mode:?} comm_thread={comm_thread} {pgrid:?} h={h}",
                        std::any::type_name::<T>(),
                        op_ref.name()
                    ),
                );
            }
            0
        });
    }
}

#[test]
fn overlap_matrix_all_operators() {
    let dims = Dims3::new(20, 16, 14);
    verify_overlap_op::<f64, _>(
        Jacobi6,
        dims,
        [2, 2, 1],
        2,
        5,
        || LocalExec::Seq,
        None,
        None,
    );
    verify_overlap_op::<f64, _>(
        Jacobi7::heat(0.11),
        dims,
        [2, 1, 2],
        2,
        5,
        || LocalExec::Seq,
        None,
        None,
    );
    verify_overlap_op::<f64, _>(
        VarCoeff7::banded(dims),
        dims,
        [1, 2, 2],
        2,
        5,
        || LocalExec::Seq,
        None,
        None,
    );
    // Corner-reading operator across all eight octants: the overlapped
    // staged forwarding must deliver edge and corner ghosts exactly.
    verify_overlap_op::<f64, _>(
        Avg27,
        Dims3::cube(18),
        [2, 2, 2],
        2,
        7,
        || LocalExec::Seq,
        None,
        None,
    );
}

#[test]
fn f32_ranks_match_the_f32_serial_oracle() {
    // Single precision through the distributed solver: the one-thread
    // blocked `Seq` cycle and a diamond team, every exchange mode, every
    // split axis, one exchange per sweep (h = 1) and deep halos whose
    // 7 sweeps end in a partial cycle (h = 4: 4 + 3).
    let diamond = DiamondConfig {
        threads: 2,
        width: 4,
        threads_per_tile: 1,
        audit: true,
    };
    for exec in [LocalExec::Seq, LocalExec::Diamond(diamond)] {
        let exec = move || exec.clone();
        for (pgrid, dims) in [
            ([2, 1, 1], Dims3::new(22, 14, 12)),
            ([1, 2, 1], Dims3::new(12, 22, 14)),
            ([1, 1, 2], Dims3::new(14, 12, 22)),
        ] {
            for h in [1, 4] {
                verify_overlap_op::<f32, _>(Jacobi6, dims, pgrid, h, 7, &exec, None, None);
            }
        }
        // Corner reads across all eight octants.
        verify_overlap_op::<f32, _>(Avg27, Dims3::cube(18), [2, 2, 2], 2, 5, &exec, None, None);
        // 256-cell rows: a 4-row front walks each rank's tiles in steps.
        verify_overlap_op::<f32, _>(
            Jacobi6,
            Dims3::new(258, 12, 24),
            [1, 1, 2],
            4,
            6,
            &exec,
            None,
            None,
        );
    }
}

#[test]
fn overlap_hybrid_pipelined_twelve_ranks() {
    // The layout carries a carved-out comm core, so the comm-thread
    // drive exercises the real pinning path (best-effort on this host).
    let machine = temporal_blocking::topology::Machine::nehalem_ep();
    let layout = TeamLayout::with_comm_core(&machine, 2, 1);
    assert!(layout.comm_core.is_some());
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    verify_overlap_op::<f64, _>(
        Jacobi6,
        Dims3::new(26, 18, 14),
        [3, 2, 2],
        2,
        6,
        move || LocalExec::Pipelined(cfg.clone()),
        Some(&|_| layout.clone()),
        None,
    );
}

/// Rank `rank`'s cores in the §3 layout: team `rank` of a `ranks`-team
/// node layout on `machine`, as a one-team layout that shares the
/// node's carved-out comm core.
fn rank_layout(machine: &Machine, t: usize, ranks: usize, rank: usize) -> TeamLayout {
    let node = TeamLayout::with_comm_core(machine, t, ranks);
    TeamLayout {
        cpus: node.cpus[rank * t..(rank + 1) * t].to_vec(),
        team_size: t,
        n_teams: 1,
        comm_core: node.comm_core,
    }
}

#[test]
fn one_pipeline_per_cache_group() {
    // The paper's §3 outlook as DistSolver ranks: a z-split with one
    // rank per cache group, each a pinned one-team pipeline t·T = h deep.
    let machine = Machine::nehalem_ep();
    let pipeline = |upt| PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: upt,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    // Three ranks, T = 2: 10 sweeps are two full cycles and a partial one.
    let cfg = pipeline(2);
    verify_overlap_op::<f64, _>(
        Jacobi6,
        Dims3::new(20, 20, 36),
        [1, 1, 3],
        4,
        10,
        move || LocalExec::Pipelined(cfg.clone()),
        Some(&|r| rank_layout(&machine, 2, 3, r)),
        None,
    );
    let cfg = pipeline(1);
    verify_overlap_op::<f64, _>(
        Jacobi6,
        Dims3::cube(24),
        [1, 1, 2],
        2,
        9,
        move || LocalExec::Pipelined(cfg.clone()),
        Some(&|r| rank_layout(&machine, 2, 2, r)),
        None,
    );
}

#[test]
fn every_drive_matches_the_oracle_on_the_paced_qdr_wire() {
    // The paper's fabric: an exchange costs a few microseconds, about a
    // trapezoid sweep, so where the overlapped cycle stops is up to
    // timing. Repeated exchanges on a 2 × 2 rank grid forward edges and
    // corners through the paced messages.
    verify_overlap_op::<f64, _>(
        Jacobi6,
        Dims3::cube(16),
        [2, 2, 1],
        2,
        6,
        || LocalExec::Seq,
        None,
        Some(NetworkParams::qdr_infiniband()),
    );
}

#[test]
fn every_drive_matches_the_oracle_on_a_slow_paced_wire() {
    // 20 ms per message, far above a 20³ rank's whole trapezoid: every
    // overlapped cycle runs all its sweeps as a trapezoid (m = c) before
    // its halos are in, then only finishes the shells.
    let slow = NetworkParams {
        latency: 0.02,
        bandwidth: 1e8,
        copy_bandwidth: f64::INFINITY,
    };
    verify_overlap_op::<f64, _>(
        Jacobi6,
        Dims3::cube(20),
        [2, 2, 1],
        2,
        8,
        || LocalExec::Seq,
        None,
        Some(slow),
    );
}

/// Fig. 6 as a matrix: the paper's four curves (standard 8PPN / 1PPN at
/// h 1, pipelined 1PPN / 2PPN at h 16, per-node rates from its Fig. 3)
/// on 1..64 nodes, strong and weak. Every point runs the real
/// decomposition + exchange + solver on a paced QDR wire and must match
/// the serial solver bitwise; and at every node count one process per
/// socket (2PPN) is predicted to beat one per node (1PPN), the paper's
/// ccNUMA argument.
#[test]
fn cluster_sim_spec_runs() {
    use temporal_blocking::dist::sim::{simulate, SimSpec};
    use temporal_blocking::model::{ScalingConfig, ScalingMode};
    // (label, ppn, node LUP/s, halo depth)
    let curves = [
        ("standard 8PPN", 8, 2.9e9, 1),
        ("standard 1PPN", 1, 2.2e9, 1),
        ("pipelined 1PPN", 1, 3.0e9, 16),
        ("pipelined 2PPN", 2, 3.4e9, 16),
    ];
    for mode in [ScalingMode::Strong, ScalingMode::Weak] {
        for nodes in [1, 8, 27, 64] {
            let glups: Vec<f64> = curves
                .iter()
                .map(|&(label, ppn, node_lups, halo_h)| {
                    let out = simulate(&SimSpec {
                        nodes,
                        cfg: ScalingConfig {
                            ppn,
                            node_lups,
                            halo_h,
                            net: NetworkParams::qdr_infiniband(),
                            mode,
                            base_edge: 600,
                        },
                        exec_edge: 20,
                        exec_halo: 2,
                        exec_sweeps: 4,
                    });
                    assert!(out.verified, "{label} {mode:?} at {nodes} nodes");
                    // `verified` means something only if the ranks' boxes
                    // reached the root for the compare.
                    assert_eq!(out.gather_bytes > 0, out.exec_ranks > 1, "{label}");
                    assert_eq!(out.ranks, nodes * ppn);
                    assert!(out.point.glups > 0.0 && out.point.efficiency <= 1.0);
                    out.point.glups
                })
                .collect();
            assert!(
                glups[3] >= glups[2],
                "{mode:?} at {nodes} nodes: pipelined 2PPN {} < 1PPN {}",
                glups[3],
                glups[2]
            );
        }
    }
}
