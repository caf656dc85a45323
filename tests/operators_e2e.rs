//! End-to-end operator × execution-strategy matrix.
//!
//! Every shipped stencil operator must produce **bitwise identical**
//! grids across every execution strategy — sequential, blocked,
//! parallel ± streaming stores (whole planes and y-blocked wide rows),
//! pipelined (barrier and relaxed),
//! compressed, wavefront, and distributed/hybrid — for the same sweep
//! count. The oracle is the operator's own sequential solver.

use temporal_blocking::dist::{solver, Decomposition, DistSolver, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Real, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::{
    solve_with, solve_with_on, Avg27, DiamondConfig, Jacobi6, Jacobi7, Method, PipelineConfig,
    Runtime, StencilOp, SyncMode, VarCoeff7,
};

fn cfg(team: usize, upt: usize, sync: SyncMode, block: [usize; 3]) -> PipelineConfig {
    PipelineConfig {
        team_size: team,
        n_teams: 1,
        updates_per_thread: upt,
        block,
        sync,
        scheme: GridScheme::TwoGrid,
        audit: true, // integration tests always run the race auditor
    }
}

/// Run the full shared-memory method matrix for one operator.
fn shared_memory_matrix<Op: StencilOp<f64>>(op: &Op, dims: Dims3, seed: u64, sweeps: usize) {
    let initial: Grid3<f64> = init::random(dims, seed);
    let (want, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
    let methods: Vec<(&str, Method)> = vec![
        ("blocked", Method::Blocked { block: [9, 7, 8] }),
        (
            "par",
            Method::Parallel {
                threads: 3,
                streaming_stores: false,
            },
        ),
        (
            "par-nt",
            Method::Parallel {
                threads: 2,
                streaming_stores: true,
            },
        ),
        (
            "pipelined-relaxed",
            Method::Pipelined(cfg(2, 2, SyncMode::relaxed_default(), [10, 10, 10])),
        ),
        (
            "pipelined-barrier",
            Method::Pipelined(cfg(3, 1, SyncMode::Barrier, [10, 10, 10])),
        ),
        (
            "compressed",
            Method::Pipelined(PipelineConfig {
                scheme: GridScheme::Compressed,
                ..cfg(2, 1, SyncMode::relaxed_default(), [10, 10, 10])
            }),
        ),
        ("wavefront", Method::Pipelined(PipelineConfig::wavefront(3))),
        (
            "diamond",
            Method::Diamond(DiamondConfig {
                threads: 3,
                width: 6,
                threads_per_tile: 1,
                audit: true,
            }),
        ),
        (
            "diamond-wide",
            Method::Diamond(DiamondConfig {
                threads: 2,
                width: 16,
                threads_per_tile: 1,
                audit: true,
            }),
        ),
        (
            "diamond-mwd",
            Method::Diamond(DiamondConfig {
                threads: 4,
                width: 8,
                threads_per_tile: 2,
                audit: true,
            }),
        ),
    ];
    for (name, m) in methods {
        let (got, _) = solve_with(op, initial.clone(), sweeps, m)
            .unwrap_or_else(|e| panic!("{} via {name}: {e}", op.name()));
        norm::assert_grids_identical(
            &want,
            &got,
            &Region3::whole(dims),
            &format!("{} via {name}", op.name()),
        );
    }
}

/// Which local advance the distributed matrix drives inside each rank.
#[derive(Clone, Copy, Debug)]
enum Local {
    Seq,
    Hybrid,
    Diamond,
}

impl Local {
    fn exec(self) -> LocalExec {
        match self {
            Local::Seq => LocalExec::Seq,
            Local::Hybrid => {
                LocalExec::Pipelined(cfg(2, 1, SyncMode::relaxed_default(), [8, 8, 8]))
            }
            Local::Diamond => LocalExec::Diamond(DiamondConfig {
                threads: 2,
                width: 4,
                threads_per_tile: 2, // MWD inside every rank
                audit: true,
            }),
        }
    }
}

/// Run the distributed matrix (pure-MPI, hybrid pipelined, or hybrid
/// diamond) for one operator.
fn distributed_matrix<Op: StencilOp<f64>>(
    op: &Op,
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    local: Local,
) {
    let global: Grid3<f64> = init::random(dims, 77);
    let want = solver::serial_reference_op(op, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let (g, w, op_ref) = (&global, &want, op);
    Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(&dec, cart.coords(), g, local.exec(), op_ref.clone())
                .unwrap();
        s.run_sweeps(&mut cart, sweeps);
        if let Some(got) = s.gather_global(&mut cart, &dec, g) {
            norm::assert_grids_identical(
                w,
                &got,
                &Region3::interior_of(dims),
                &format!("dist {} {pgrid:?} h={h} {local:?}", op_ref.name()),
            );
        }
    });
}

#[test]
fn jacobi6_matrix() {
    shared_memory_matrix(&Jacobi6, Dims3::cube(24), 1, 7);
}

#[test]
fn jacobi7_matrix() {
    shared_memory_matrix(&Jacobi7::heat(0.09), Dims3::new(26, 22, 20), 2, 6);
}

#[test]
fn varcoeff7_matrix() {
    let dims = Dims3::new(22, 26, 20);
    shared_memory_matrix(&VarCoeff7::banded(dims), dims, 3, 6);
}

#[test]
fn avg27_matrix() {
    shared_memory_matrix(&Avg27, Dims3::cube(24), 4, 7);
}

/// Rows longer than two of `Avg27`'s x-chunks, through every method
/// and through ranks split along x, whose chunk boundaries fall at other
/// global x than the oracle's.
#[test]
fn avg27_long_rows_cross_chunk_boundaries() {
    let dims = Dims3::new(2 * Avg27::CHUNK + 7, 10, 10);
    shared_memory_matrix(&Avg27, dims, 5, 5);
    distributed_matrix(&Avg27, dims, [2, 1, 1], 2, 5, Local::Seq);
}

#[test]
fn distributed_matrix_per_operator() {
    let dims = Dims3::new(20, 18, 16);
    distributed_matrix(&Jacobi6, dims, [2, 2, 1], 2, 5, Local::Seq);
    distributed_matrix(&Jacobi7::heat(0.13), dims, [2, 1, 2], 2, 5, Local::Seq);
    distributed_matrix(&VarCoeff7::banded(dims), dims, [1, 2, 2], 2, 5, Local::Seq);
    distributed_matrix(&Avg27, dims, [2, 2, 2], 3, 7, Local::Seq);
}

#[test]
fn hybrid_distributed_per_operator() {
    // Pipelined temporal blocking inside each rank: depth 2 needs h >= 2.
    let dims = Dims3::cube(26);
    distributed_matrix(&Jacobi6, dims, [2, 1, 1], 2, 5, Local::Hybrid);
    distributed_matrix(&Jacobi7::heat(0.1), dims, [2, 1, 1], 2, 5, Local::Hybrid);
    distributed_matrix(
        &VarCoeff7::banded(dims),
        dims,
        [1, 2, 1],
        2,
        5,
        Local::Hybrid,
    );
    distributed_matrix(&Avg27, dims, [1, 1, 2], 2, 5, Local::Hybrid);
}

#[test]
fn diamond_distributed_per_operator_eight_ranks() {
    // Diamond blocking inside each of 8 ranks: every operator, corner
    // forwarding included, gathers the exact serial-oracle grid.
    let dims = Dims3::new(20, 18, 16);
    distributed_matrix(&Jacobi6, dims, [2, 2, 2], 2, 5, Local::Diamond);
    distributed_matrix(&Jacobi7::heat(0.1), dims, [2, 2, 2], 2, 5, Local::Diamond);
    distributed_matrix(
        &VarCoeff7::banded(dims),
        dims,
        [2, 2, 2],
        2,
        5,
        Local::Diamond,
    );
    distributed_matrix(&Avg27, dims, [2, 2, 2], 3, 7, Local::Diamond);
}

#[test]
fn f32_operators_match_their_oracle_too() {
    let dims = Dims3::cube(18);
    let initial: Grid3<f32> = init::random(dims, 6);
    for (name, m) in [
        (
            "par",
            Method::Parallel {
                threads: 2,
                streaming_stores: true, // f32 falls back to plain stores
            },
        ),
        (
            "pipelined",
            Method::Pipelined(cfg(2, 1, SyncMode::relaxed_default(), [8, 8, 8])),
        ),
        ("wavefront", Method::Pipelined(PipelineConfig::wavefront(2))),
        (
            "diamond",
            Method::Diamond(DiamondConfig {
                threads: 2,
                width: 4,
                threads_per_tile: 2,
                audit: true,
            }),
        ),
    ] {
        let op = Jacobi7::heat(0.1);
        let (want, _) = solve_with(&op, initial.clone(), 4, Method::Sequential).unwrap();
        let (got, _) = solve_with(&op, initial.clone(), 4, m).unwrap();
        norm::assert_grids_identical(&want, &got, &Region3::whole(dims), name);
    }
}

/// Rows so long that `Method::Parallel` sweeps each slab in y-blocks
/// with a remainder, in both precisions. One runtime serves every solve,
/// so most of them run from a pooled B buffer.
#[test]
fn parallel_y_blocks_on_wide_rows_match_sequential() {
    fn check<T: Real, Op: StencilOp<T>>(rt: &Runtime, op: &Op, dims: Dims3) {
        let initial: Grid3<T> = init::random(dims, 12);
        let (want, _) = solve_with_on(rt, op, initial.clone(), 3, Method::Sequential).unwrap();
        for (threads, streaming_stores) in [(2, false), (3, true)] {
            let m = Method::Parallel {
                threads,
                streaming_stores,
            };
            let (got, _) = solve_with_on(rt, op, initial.clone(), 3, m).unwrap();
            norm::assert_grids_identical(
                &want,
                &got,
                &Region3::whole(dims),
                &format!("{} par {threads} nt={streaming_stores}", op.name()),
            );
        }
    }
    let dims = Dims3::new(1030, 39, 9);
    let rt = Runtime::with_threads(3);
    check::<f64, _>(&rt, &Jacobi6, dims);
    check::<f32, _>(&rt, &Jacobi6, dims);
    check::<f64, _>(&rt, &Jacobi7::heat(0.1), dims);
    check::<f32, _>(&rt, &Jacobi7::heat(0.1), dims);
    check(&rt, &VarCoeff7::<f64>::banded(dims), dims);
    check(&rt, &VarCoeff7::<f32>::banded(dims), dims);
    check::<f64, _>(&rt, &Avg27, dims);
    check::<f32, _>(&rt, &Avg27, dims);
}

#[test]
fn operators_actually_differ() {
    // Guard against accidentally wiring every operator to the same
    // kernel: one sweep of each operator on the same input must produce
    // pairwise different grids.
    let dims = Dims3::cube(12);
    let initial: Grid3<f64> = init::random(dims, 9);
    let a = solve_with(&Jacobi6, initial.clone(), 1, Method::Sequential)
        .unwrap()
        .0;
    let b = solve_with(&Jacobi7::heat(0.1), initial.clone(), 1, Method::Sequential)
        .unwrap()
        .0;
    let c = solve_with(
        &VarCoeff7::banded(dims),
        initial.clone(),
        1,
        Method::Sequential,
    )
    .unwrap()
    .0;
    let d = solve_with(&Avg27, initial, 1, Method::Sequential)
        .unwrap()
        .0;
    let int = Region3::interior_of(dims);
    for (x, y, label) in [
        (&a, &b, "jacobi6 vs jacobi7"),
        (&a, &c, "jacobi6 vs varcoeff7"),
        (&a, &d, "jacobi6 vs avg27"),
        (&b, &c, "jacobi7 vs varcoeff7"),
        (&b, &d, "jacobi7 vs avg27"),
        (&c, &d, "varcoeff7 vs avg27"),
    ] {
        assert!(
            norm::first_mismatch(x, y, &int).is_some(),
            "{label}: operators collapsed to the same kernel"
        );
    }
}
