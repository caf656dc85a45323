//! Property-based tests (proptest) over the core data structures and the
//! pipelined executor.
//!
//! Strategy ranges are kept small enough for CI but cover the interesting
//! degrees of freedom: grid anisotropy, block anisotropy, pipeline depth,
//! sync parameters, sweep counts that are not multiples of the depth.

use proptest::prelude::*;

use temporal_blocking::grid::{init, norm, BlockPartition, Dims3, Grid3, Region3};
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::stencil::pipeline::PipelinePlan;
use temporal_blocking::{
    solve_with, Avg27, Jacobi6, Jacobi7, Method, PipelineConfig, StencilOp, SyncMode, VarCoeff7,
};

/// Cross-solver bitwise identity for one operator on randomized
/// dims/threads/block shapes: every method must reproduce the operator's
/// sequential oracle exactly.
fn assert_all_methods_bitwise<Op: StencilOp<f64>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    threads: usize,
    block: [usize; 3],
) -> Result<(), TestCaseError> {
    let initial: Grid3<f64> = init::random(dims, seed);
    let (want, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
    let cfg = PipelineConfig {
        team_size: threads,
        n_teams: 1,
        updates_per_thread: 1,
        block,
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let methods: Vec<(&str, Method)> = vec![
        ("blocked", Method::Blocked { block }),
        (
            "par",
            Method::Parallel {
                threads,
                streaming_stores: false,
            },
        ),
        (
            "par-nt",
            Method::Parallel {
                threads,
                streaming_stores: true,
            },
        ),
        ("pipelined", Method::Pipelined(cfg.clone())),
        (
            "compressed",
            Method::Pipelined(PipelineConfig {
                scheme: GridScheme::Compressed,
                ..cfg
            }),
        ),
        (
            "wavefront",
            Method::Pipelined(PipelineConfig::wavefront(threads)),
        ),
    ];
    for (name, m) in methods {
        let (got, _) = solve_with(op, initial.clone(), sweeps, m).unwrap();
        let mismatch = norm::first_mismatch(&want, &got, &Region3::whole(dims));
        prop_assert!(
            mismatch.is_none(),
            "{} via {name} diverged at {mismatch:?}",
            op.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Region algebra: intersection is commutative, contained in both
    /// operands, and expanding then shrinking returns the original
    /// (away from the origin).
    #[test]
    fn region_algebra(
        lo in prop::array::uniform3(1usize..20),
        ext in prop::array::uniform3(1usize..15),
        lo2 in prop::array::uniform3(1usize..20),
        ext2 in prop::array::uniform3(1usize..15),
        g in 1usize..4,
    ) {
        let a = Region3::new(lo, [lo[0]+ext[0], lo[1]+ext[1], lo[2]+ext[2]]);
        let b = Region3::new(lo2, [lo2[0]+ext2[0], lo2[1]+ext2[1], lo2[2]+ext2[2]]);
        let i1 = a.intersect(&b);
        let i2 = b.intersect(&a);
        prop_assert_eq!(i1, i2);
        prop_assert!(a.contains_region(&i1));
        prop_assert!(b.contains_region(&i1));
        // expand saturates at 0, so the roundtrip only holds when the
        // region sits at least g cells away from the origin.
        if lo.iter().all(|&l| l >= g) {
            prop_assert_eq!(a.expand(g).shrink(g), a);
        }
        prop_assert_eq!(a.intersects(&b), i1.count() > 0);
    }

    /// Block partitions tile their domain exactly: full coverage, no
    /// overlap, linear index roundtrips.
    #[test]
    fn block_partition_tiles(
        dom_lo in prop::array::uniform3(0usize..5),
        dom_ext in prop::array::uniform3(3usize..25),
        blk in prop::array::uniform3(1usize..12),
    ) {
        let dom = Region3::new(dom_lo, [
            dom_lo[0]+dom_ext[0], dom_lo[1]+dom_ext[1], dom_lo[2]+dom_ext[2],
        ]);
        let p = BlockPartition::new(dom, blk);
        let total: usize = p.iter().map(|(_, _, r)| r.count()).sum();
        prop_assert_eq!(total, dom.count());
        for (l, b, r) in p.iter() {
            prop_assert_eq!(p.linear(b), l);
            prop_assert!(dom.contains_region(&r));
        }
    }

    /// Every stage of any valid plan tiles its stage domain exactly.
    #[test]
    fn plan_stages_tile(
        n in 10usize..26,
        bx in 4usize..12,
        stages in 1usize..4,
        dir in prop::sample::select(vec![-1i64, 1]),
    ) {
        prop_assume!(bx >= stages);
        let interior = Region3::new([1, 1, 1], [n - 1, n - 1, n - 1]);
        let plan = PipelinePlan::uniform(interior, [bx, bx, bx], stages);
        for s in 0..stages {
            let total: usize = (0..plan.num_blocks())
                .map(|j| plan.region(j, s, dir).count())
                .sum();
            prop_assert_eq!(total, interior.count());
        }
    }

    /// Randomized pipelined configurations are bitwise equal to the
    /// sequential solver (with the race auditor enabled).
    #[test]
    fn pipelined_equals_sequential(
        seed in 0u64..1000,
        team in 1usize..4,
        upt in 1usize..3,
        sweeps in 1usize..10,
        du in 1u64..6,
        barrier in any::<bool>(),
    ) {
        let dims = Dims3::cube(20);
        let depth = team * upt;
        prop_assume!(depth <= 6);
        let sync = if barrier {
            SyncMode::Barrier
        } else {
            SyncMode::Relaxed { dl: 1, du, dt: 0 }
        };
        let cfg = PipelineConfig {
            team_size: team,
            n_teams: 1,
            updates_per_thread: upt,
            block: [8, 8, 8],
            sync,
            scheme: GridScheme::TwoGrid,
            audit: true,
        };
        prop_assume!(cfg.validate(dims).is_ok());
        let initial: Grid3<f64> = init::random(dims, seed);
        let (want, _) = solve_with(&Jacobi6, initial.clone(), sweeps, Method::Sequential).unwrap();
        let (got, _) = solve_with(&Jacobi6, initial, sweeps, Method::Pipelined(cfg)).unwrap();
        prop_assert!(norm::first_mismatch(&want, &got, &Region3::whole(dims)).is_none());
    }

    /// Compressed-grid runs with random depths/sweeps match the
    /// sequential solver too.
    #[test]
    fn compressed_equals_sequential(
        seed in 0u64..1000,
        team in 1usize..3,
        upt in 1usize..3,
        sweeps in 1usize..9,
    ) {
        let dims = Dims3::cube(20);
        let depth = team * upt;
        prop_assume!(depth <= 4);
        let cfg = PipelineConfig {
            team_size: team,
            n_teams: 1,
            updates_per_thread: upt,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::Compressed,
            audit: true,
        };
        prop_assume!(cfg.validate(dims).is_ok());
        let initial: Grid3<f64> = init::random(dims, seed);
        let (want, _) = solve_with(&Jacobi6, initial.clone(), sweeps, Method::Sequential).unwrap();
        let (got, _) = solve_with(&Jacobi6, initial, sweeps, Method::Pipelined(cfg)).unwrap();
        prop_assert!(norm::first_mismatch(&want, &got, &Region3::whole(dims)).is_none());
    }

    /// The 7-point heat operator matches its sequential oracle across
    /// every method for randomized dims, thread counts and block shapes.
    #[test]
    fn heat_op_all_methods_bitwise(
        seed in 0u64..1000,
        nx in 12usize..22,
        ny in 12usize..22,
        nz in 12usize..22,
        threads in 1usize..4,
        bx in 8usize..12,
        sweeps in 1usize..8,
        k_millis in 10u64..160,
    ) {
        let dims = Dims3::new(nx, ny, nz);
        let op = Jacobi7::heat(k_millis as f64 / 1000.0);
        assert_all_methods_bitwise(&op, dims, seed, sweeps, threads, [bx, bx, bx])?;
    }

    /// The variable-coefficient operator (extra read stream, logical-
    /// coordinate lookup) matches its oracle across every method.
    #[test]
    fn varcoeff_op_all_methods_bitwise(
        seed in 0u64..1000,
        n in 14usize..22,
        threads in 1usize..4,
        bx in 8usize..12,
        by in 8usize..12,
        sweeps in 1usize..8,
    ) {
        let dims = Dims3::cube(n);
        let op = VarCoeff7::banded(dims);
        assert_all_methods_bitwise(&op, dims, seed, sweeps, threads, [bx, by, 8])?;
    }

    /// The corner-reading 27-point operator — the hardest case for the
    /// compressed in-place scheme — matches its oracle everywhere.
    #[test]
    fn avg27_op_all_methods_bitwise(
        seed in 0u64..1000,
        nx in 12usize..20,
        nz in 12usize..20,
        threads in 1usize..4,
        bx in 8usize..12,
        sweeps in 1usize..8,
    ) {
        let dims = Dims3::new(nx, 16, nz);
        assert_all_methods_bitwise(&Avg27, dims, seed, sweeps, threads, [bx, 8, bx])?;
    }
}
