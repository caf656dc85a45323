//! Property tests for the overlapped exchange schedule: for random
//! dims, rank grids, operators, halo widths and sweep counts, the
//! overlapped mode — polled inline or driven by the runtime's
//! communication worker — must gather grids bitwise identical to the
//! synchronous schedule and to the serial oracle.

use proptest::prelude::*;

use temporal_blocking::dist::{
    annulus_slabs, solver, Decomposition, DistSolver, ExchangeMode, LocalExec,
};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::runtime::Runtime;
use temporal_blocking::{Avg27, Jacobi6, Jacobi7, StencilOp, VarCoeff7};

/// Gather the distributed result of one run on rank 0; `comm_thread`
/// gives each rank's runtime a communication worker.
fn gather<Op: StencilOp<f64>>(
    op: &Op,
    global: &Grid3<f64>,
    dec: &Decomposition,
    pgrid: [usize; 3],
    (mode, comm_thread): (ExchangeMode, bool),
    sweeps: usize,
) -> Grid3<f64> {
    let results = Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(dec, cart.coords(), global, LocalExec::Seq, op.clone())
                .expect("valid decomposition")
                .with_exchange_mode(mode);
        let rt = Runtime::from_cpus(Vec::new(), comm_thread.then_some(None));
        s.run_sweeps_on(&rt, &mut cart, sweeps);
        s.gather_global(&mut cart, dec, global)
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 gathers")
}

fn check_op<Op: StencilOp<f64>>(
    op: Op,
    seed: u64,
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    comm_thread: bool,
) -> Result<(), TestCaseError> {
    let global: Grid3<f64> = init::random(dims, seed);
    let want = solver::serial_reference_op(&op, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let interior = Region3::interior_of(dims);
    let sync = gather(
        &op,
        &global,
        &dec,
        pgrid,
        (ExchangeMode::Sync, false),
        sweeps,
    );
    let overlapped = (ExchangeMode::Overlapped, comm_thread);
    let over = gather(&op, &global, &dec, pgrid, overlapped, sweeps);
    let vs_oracle = norm::first_mismatch(&want, &over, &interior);
    prop_assert!(
        vs_oracle.is_none(),
        "{} comm_thread={comm_thread} {pgrid:?} h={h} s={sweeps} diverged from the oracle at {vs_oracle:?}",
        op.name()
    );
    let vs_sync = norm::first_mismatch(&sync, &over, &interior);
    prop_assert!(
        vs_sync.is_none(),
        "{} comm_thread={comm_thread} {pgrid:?} h={h} s={sweeps} diverged from Sync at {vs_sync:?}",
        op.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Overlapped == Sync == serial oracle, bitwise, for random
    /// geometry, operator, halo width, sweep count and comm-thread use.
    #[test]
    fn overlapped_bitwise_matches_sync_and_oracle(
        seed in 0u64..1000,
        nx in 12usize..20,
        ny in 12usize..20,
        nz in 12usize..20,
        pgrid in prop::sample::select(vec![
            [1usize, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2],
            [2, 2, 1], [2, 1, 2], [1, 2, 2],
        ]),
        op_idx in 0usize..4,
        h in 1usize..4,
        sweeps in 1usize..9,
        comm_thread in any::<bool>(),
    ) {
        let dims = Dims3::new(nx, ny, nz);
        match op_idx {
            0 => check_op(Jacobi6, seed, dims, pgrid, h, sweeps, comm_thread)?,
            1 => check_op(Jacobi7::heat(0.07), seed, dims, pgrid, h, sweeps, comm_thread)?,
            2 => check_op(VarCoeff7::banded(dims), seed, dims, pgrid, h, sweeps, comm_thread)?,
            _ => check_op(Avg27, seed, dims, pgrid, h, sweeps, comm_thread)?,
        }
    }

    /// The core/shell split partitions the owned box — and, sweep by
    /// sweep, the update domain — for every geometry the decomposition
    /// accepts, and only faces with a neighbour cast a shell.
    #[test]
    fn core_and_shells_always_partition(
        nx in 10usize..26,
        ny in 10usize..26,
        nz in 10usize..26,
        pgrid in prop::sample::select(vec![
            [2usize, 1, 1], [2, 2, 1], [2, 2, 2], [3, 1, 1],
        ]),
        h in 1usize..4,
        depth in 1usize..5,
    ) {
        let dims = Dims3::new(nx, ny, nz);
        prop_assume!((0..3).all(|d| dims.as_array()[d] / pgrid[d] >= h.max(pgrid[d].min(2))));
        let dec = match Decomposition::try_new(dims, pgrid, h) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        for r in 0..dec.ranks() {
            let l = dec.local(dec.coords_of(r));
            let owned = l.owned_local();
            // `slab` lies within `inside` cells behind and `outside`
            // cells beyond some face of the owned box that has a
            // neighbour (the stored box extends past it).
            let hugs_a_neighbour_face = |slab: &Region3, inside: usize, outside: usize| {
                (0..3).any(|d| {
                    let low = l.owned.lo[d] > l.region.lo[d]
                        && slab.hi[d] <= owned.lo[d] + inside
                        && slab.lo[d] + outside >= owned.lo[d];
                    let high = l.owned.hi[d] < l.region.hi[d]
                        && slab.lo[d] + inside >= owned.hi[d]
                        && slab.hi[d] <= owned.hi[d] + outside;
                    low || high
                })
            };
            let disjoint = |core: &Region3, shells: &[Region3]| {
                shells.iter().enumerate().all(|(i, s)| {
                    !s.intersects(core) && shells[..i].iter().all(|s2| !s.intersects(s2))
                })
            };

            let core = l.interior_core(depth);
            let shells = l.boundary_shells(depth);
            let covered: usize =
                core.count() + shells.iter().map(Region3::count).sum::<usize>();
            prop_assert_eq!(covered, owned.count());
            prop_assert!(disjoint(&core, &shells));
            for s in &shells {
                prop_assert!(owned.contains_region(s));
                // (An empty core leaves the whole box as one slab.)
                prop_assert!(
                    core.is_empty() || hugs_a_neighbour_face(s, depth, 0),
                    "rank {} shell {}", r, s
                );
            }
            for d in 0..3 {
                // A face without a neighbour casts no shell: the core
                // reaches it.
                if l.owned.lo[d] == l.region.lo[d] {
                    prop_assert_eq!(core.lo[d], owned.lo[d]);
                }
                if l.owned.hi[d] == l.region.hi[d] && !core.is_empty() {
                    prop_assert_eq!(core.hi[d], owned.hi[d]);
                }
            }

            // Per sweep of a c-sweep cycle (radius 1): the trapezoid
            // core and its shells are exactly the sweep's update domain.
            let c = depth.min(h);
            for j in 1..=c {
                let domain = l.sweep_domain(j, c, 1);
                let core = l.sweep_core(j, 1);
                let shells = annulus_slabs(&domain, &core);
                let covered: usize =
                    core.count() + shells.iter().map(Region3::count).sum::<usize>();
                prop_assert_eq!(covered, domain.count());
                prop_assert!(domain.contains_region(&core));
                prop_assert!(disjoint(&core, &shells));
                for s in &shells {
                    prop_assert!(domain.contains_region(s));
                    prop_assert!(
                        core.is_empty() || hugs_a_neighbour_face(s, j, c - j),
                        "rank {} sweep {} shell {}", r, j, s
                    );
                }
            }
        }
    }
}
