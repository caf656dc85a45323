//! Property-based verification of wavefront-diamond temporal blocking.
//!
//! The scheme's contract: for any geometry, team size, diamond width,
//! sweep count and operator, the diamond executor — on a shared
//! persistent runtime *and* through the one-shot classic wrappers —
//! produces grids **bitwise identical** to the plain parallel baseline
//! and to the operator's sequential oracle, in f64 and f32. The dims
//! strategy mixes random extents with rows long enough for a front of a
//! few rows and the row counts such a front makes special (fewer rows
//! than a front, than the sweeps' skew, a last partial front). A
//! distributed section holds
//! `LocalExec::Diamond` (including the overlapped trapezoid drives,
//! whose per-sweep domains shrink along the split axis — y included) to
//! the same standard.

use std::sync::OnceLock;

use proptest::prelude::*;

use temporal_blocking::dist::{solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Real, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::runtime::Runtime;
use temporal_blocking::stencil::diamond::front_rows;
use temporal_blocking::{
    solve_with, solve_with_on, Avg27, DiamondConfig, Jacobi6, Jacobi7, Method, StencilOp, VarCoeff7,
};

/// One shared, oversized runtime for every proptest case: subset
/// dispatch and cross-case reuse are part of the property.
fn shared_runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::with_threads(6))
}

fn assert_diamond_matches_everything<T: Real, Op: StencilOp<T>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    cfg: &DiamondConfig,
) -> Result<(), TestCaseError> {
    let initial: Grid3<T> = init::random(dims, seed);
    let (threads, width) = (cfg.threads, cfg.width);
    let method = Method::Diamond(cfg.clone());

    // Sequential oracle and the standard parallel baseline.
    let (oracle, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
    let (baseline, _) = solve_with(
        op,
        initial.clone(),
        sweeps,
        Method::Parallel {
            threads,
            streaming_stores: false,
        },
    )
    .unwrap();
    prop_assert!(
        norm::first_mismatch(&oracle, &baseline, &Region3::whole(dims)).is_none(),
        "baseline diverged from oracle (pre-existing bug)"
    );

    // Diamond through the classic one-shot wrapper...
    let (classic, stats) = solve_with(op, initial.clone(), sweeps, method.clone()).unwrap();
    let mismatch = norm::first_mismatch(&oracle, &classic, &Region3::whole(dims));
    prop_assert!(
        mismatch.is_none(),
        "{} diamond t={threads} w={width} sweeps={sweeps}: classic run diverged at {mismatch:?}",
        op.name()
    );
    // Diamond must update every interior cell exactly once per sweep.
    prop_assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);

    // ...and on the shared persistent runtime.
    let (on_rt, _) = solve_with_on(shared_runtime(), op, initial, sweeps, method).unwrap();
    let mismatch = norm::first_mismatch(&oracle, &on_rt, &Region3::whole(dims));
    prop_assert!(
        mismatch.is_none(),
        "{} diamond t={threads} w={width}: shared-runtime run diverged at {mismatch:?}",
        op.name()
    );
    Ok(())
}

/// [`assert_diamond_matches_everything`] for operator number `which_op`
/// at element type `T`.
fn assert_for_operator<T: Real>(
    which_op: usize,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    cfg: &DiamondConfig,
) -> Result<(), TestCaseError> {
    match which_op {
        0 => assert_diamond_matches_everything::<T, _>(&Jacobi6, dims, seed, sweeps, cfg),
        1 => {
            assert_diamond_matches_everything::<T, _>(&Jacobi7::heat(0.11), dims, seed, sweeps, cfg)
        }
        2 => assert_diamond_matches_everything::<T, _>(
            &VarCoeff7::<T>::banded(dims),
            dims,
            seed,
            sweeps,
            cfg,
        ),
        _ => assert_diamond_matches_everything::<T, _>(&Avg27, dims, seed, sweeps, cfg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random dims × team size × width × sweeps × operator × element
    /// type: diamond ≡ parallel baseline ≡ sequential oracle, bitwise,
    /// on both the shared runtime and the one-shot wrappers. The front's
    /// height `B` follows the row length (short rows: one front per
    /// tile), so half the cases stretch x until `B` is 8 or 4 rows, and
    /// half of those take `ny` from the shapes such a front clips: a
    /// single interior row, two, `B + 1` and `2B − 1` grid rows.
    #[test]
    fn diamond_bitwise_identical_to_baseline_and_oracle(
        nx in 8usize..24,
        nx_pick in 0usize..4,
        ny in 8usize..24,
        ny_pick in 0usize..8,
        nz in 8usize..24,
        seed in 0u64..1000,
        sweeps in 1usize..11,
        threads in 1usize..5,
        width in 2usize..17,
        tpt_pick in 0usize..8,
        which_op in 0usize..4,
        single in proptest::any::<bool>(),
    ) {
        let wide = [130, 258].get(nx_pick).copied();
        let (nx, nz) = wide.map_or((nx, nz), |nx| (nx, nz.min(12)));
        let b = front_rows(nx - 2);
        let ny = [3, 4, b + 1, 2 * b - 1].get(ny_pick).copied().unwrap_or(ny);
        let dims = Dims3::new(nx, ny, nz);
        // Random MWD sub-team size: any divisor of the team size.
        let divisors: Vec<usize> = (1..=threads).filter(|d| threads % d == 0).collect();
        let threads_per_tile = divisors[tpt_pick % divisors.len()];
        let cfg = DiamondConfig { threads, width, threads_per_tile, audit: true };
        if single {
            assert_for_operator::<f32>(which_op, dims, seed, sweeps, &cfg)?;
        } else {
            assert_for_operator::<f64>(which_op, dims, seed, sweeps, &cfg)?;
        }
    }

    /// Distributed ranks advancing with `LocalExec::Diamond` gather the
    /// exact serial-oracle grid, in the synchronous schedule and the
    /// overlapped one under both drives (inline, comm worker), for
    /// random geometry and cycle structure. Half
    /// the cases split along y with x stretched to an 8-row front, so
    /// the overlapped trapezoid cores hand the tiles per-sweep domains
    /// that shrink in the front's own axis.
    #[test]
    fn dist_diamond_matches_serial_oracle(
        edge in 12usize..20,
        seed in 0u64..1000,
        sweeps in 1usize..9,
        h in 1usize..4,
        width in 2usize..9,
        axis_pick in 0usize..6,
        mode_pick in 0usize..3,
        threads_per_tile in 1usize..3,
    ) {
        let axis = [0, 2, 1].get(axis_pick).copied();
        let mut pgrid = [1usize, 1, 1];
        pgrid[axis.unwrap_or(1)] = 2;
        let dims = match axis {
            Some(_) => Dims3::cube(edge),
            None => Dims3::new(130, edge + 8, 10),
        };
        let (mode, comm_thread) = MODES[mode_pick];
        let cfg = DiamondConfig { threads: 2, width, threads_per_tile, audit: true };
        prop_assert!(
            dist_diamond_matches_serial(dims, pgrid, h, seed, sweeps, &cfg, (mode, comm_thread)),
            "dist diamond {dims} {pgrid:?} h={h} w={width} {mode:?} comm_thread={comm_thread} \
             diverged from the serial oracle"
        );
    }
}

/// Every exchange drive: the mode, and whether the rank's runtime has a
/// communication worker to drive an overlapped exchange.
const MODES: [(ExchangeMode, bool); 3] = [
    (ExchangeMode::Sync, false),
    (ExchangeMode::Overlapped, false),
    (ExchangeMode::Overlapped, true),
];

/// The runtime a rank of `threads` diamond workers runs on: the one
/// `run_sweeps` builds, plus an unpinned communication worker under the
/// comm-thread drive.
fn rank_runtime(threads: usize, comm_thread: bool) -> Runtime {
    Runtime::from_cpus(vec![None; threads], comm_thread.then_some(None))
}

/// Jacobi6 on `pgrid` ranks × `LocalExec::Diamond(cfg)` under `drive`:
/// does the gathered grid equal the serial oracle bitwise?
fn dist_diamond_matches_serial(
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    seed: u64,
    sweeps: usize,
    cfg: &DiamondConfig,
    (mode, comm_thread): (ExchangeMode, bool),
) -> bool {
    let global: Grid3<f64> = init::random(dims, seed);
    let want = solver::serial_reference(&global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let (g, w, dec_ref) = (&global, &want, &dec);
    let ok = Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s = DistSolver::from_global_op(
            dec_ref,
            cart.coords(),
            g,
            LocalExec::Diamond(cfg.clone()),
            Jacobi6,
        )
        .unwrap()
        .with_exchange_mode(mode);
        s.run_sweeps_on(&rank_runtime(cfg.threads, comm_thread), &mut cart, sweeps);
        match s.gather_global(&mut cart, dec_ref, g) {
            Some(got) => norm::first_mismatch(w, &got, &Region3::interior_of(dims)).is_none(),
            None => true,
        }
    });
    ok.iter().all(|v| *v)
}

/// The y-split pinned: two and three ranks along y, rows long enough
/// for an 8-row front, a halo deep enough for a trapezoid of several
/// sweeps, rows per rank around the front height, every exchange mode —
/// so per-sweep domains that shrink in y clip the front's windows in
/// each schedule, not only when the random cases happen to draw one.
#[test]
fn y_split_dist_diamond_in_every_exchange_mode() {
    let cfg = DiamondConfig {
        threads: 2,
        width: 6,
        threads_per_tile: 1,
        audit: true,
    };
    let nx = 130;
    let b = front_rows(nx - 2);
    assert_eq!(b, 8);
    for (ny, ranks) in [(2 * b + 4, 2), (3 * b + 5, 3)] {
        let dims = Dims3::new(nx, ny, 12);
        for drive in MODES {
            assert!(
                dist_diamond_matches_serial(dims, [1, ranks, 1], 3, 42, 7, &cfg, drive),
                "y-split x{ranks} {drive:?} diverged from the serial oracle"
            );
        }
    }
}

/// A fixed non-proptest case pinning the 8-rank corner-forwarding path
/// with a corner-reading operator under `LocalExec::Diamond`.
#[test]
fn eight_rank_diamond_avg27_matches_serial() {
    let dims = Dims3::new(18, 16, 14);
    let pgrid = [2, 2, 2];
    let sweeps = 5;
    let global: Grid3<f64> = init::random(dims, 4711);
    let want = solver::serial_reference_op(&Avg27, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, 2);
    let cfg = DiamondConfig {
        threads: 2,
        width: 4,
        threads_per_tile: 2, // corner-reading op + MWD + corner forwarding
        audit: true,
    };
    for (mode, comm_thread) in [MODES[0], MODES[2]] {
        let (g, w, cfg_ref, dec_ref) = (&global, &want, &cfg, &dec);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(
                dec_ref,
                cart.coords(),
                g,
                LocalExec::Diamond(cfg_ref.clone()),
                Avg27,
            )
            .unwrap()
            .with_exchange_mode(mode);
            s.run_sweeps_on(
                &rank_runtime(cfg_ref.threads, comm_thread),
                &mut cart,
                sweeps,
            );
            if let Some(got) = s.gather_global(&mut cart, dec_ref, g) {
                norm::assert_grids_identical(
                    w,
                    &got,
                    &Region3::interior_of(dims),
                    &format!("8-rank diamond avg27 {mode:?} comm_thread={comm_thread}"),
                );
            }
        });
    }
}

/// Solving repeatedly on one runtime must not churn threads or grow the
/// staging pool — the diamond path reuses the pooled B buffer.
#[test]
fn repeated_diamond_solves_reuse_the_pool() {
    let dims = Dims3::cube(18);
    let initial: Grid3<f64> = init::random(dims, 9);
    let rt = Runtime::with_threads(2);
    let method = Method::Diamond(DiamondConfig::with_width(2, 6));
    let (want, _) = solve_with(&Jacobi6, initial.clone(), 5, method.clone()).unwrap();
    for round in 0..8 {
        let (got, _) = solve_with_on(&rt, &Jacobi6, initial.clone(), 5, method.clone()).unwrap();
        norm::assert_grids_identical(
            &want,
            &got,
            &Region3::whole(dims),
            &format!("diamond pool reuse round {round}"),
        );
    }
    assert!(
        rt.grid_pool::<f64>().free_grids() <= 1,
        "repeated diamond solves must recycle one B buffer, not allocate per solve"
    );
}
