//! Property-based verification of the widened (host-ISA) row loop and
//! the multi-threaded wavefront diamond (MWD) executor.
//!
//! Two contracts are pinned here:
//!
//! 1. **Widened ≡ build-target, bitwise.** The region drivers run each
//!    operator's one row-run loop (`StencilOp::apply_rows`, a plane of
//!    rows per call) through an AVX-compiled copy when the host has AVX; [`ScalarPath`] pins the same loop to the build
//!    target's ISA. Both must produce exactly the same bits, for every
//!    shipped operator, in `f64` *and* `f32`, at arbitrary row lengths
//!    (not multiples of any vector width) and arbitrary `x0` offsets
//!    (vector heads/tails and coefficient-row addressing in play).
//!    Checked both at row granularity and through full solves.
//!
//! 2. **MWD ≡ single-threaded diamond ≡ oracle, bitwise.** Splitting a
//!    diamond tile across a sub-team (`threads_per_tile > 1`) is an
//!    execution-order change only; for random geometry, team size,
//!    width and sub-team size the result must stay bit-identical.

use proptest::prelude::*;

use temporal_blocking::grid::{init, norm, Dims3, Grid3, Real, Region3};
use temporal_blocking::stencil::kernel::update_region_op;
use temporal_blocking::{
    solve_with, Avg27, DiamondConfig, Jacobi6, Jacobi7, Method, PipelineConfig, ScalarPath,
    StencilOp, VarCoeff7,
};

/// Exact bit pattern of a value; `f32 → f64` widening is lossless, so
/// equal `f64` bits means equal `T` bits for both element types.
fn bits<T: Real>(v: T) -> u64 {
    v.to_f64().to_bits()
}

/// Row-granularity check: a one-row region through `update_region_op`,
/// widened against the [`ScalarPath`] route, on the same source grid.
fn assert_row_matches<T: Real, Op: StencilOp<T>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    x0: usize,
    x1: usize,
    y: usize,
    z: usize,
) -> Result<(), TestCaseError> {
    let g: Grid3<T> = init::random(dims, seed);
    let row = Region3::new([x0, y, z], [x1, y + 1, z + 1]);
    let mut simd: Grid3<T> = Grid3::zeroed(dims);
    let mut scalar: Grid3<T> = Grid3::zeroed(dims);
    update_region_op(op, &g, &mut simd, &row);
    update_region_op(&ScalarPath(op.clone()), &g, &mut scalar, &row);
    for (i, (a, b)) in simd.as_slice().iter().zip(scalar.as_slice()).enumerate() {
        prop_assert!(
            bits(*a) == bits(*b),
            "{} row x0={x0} x1={x1} y={y} z={z}: element {i} diverged ({a} != {b})",
            op.name()
        );
    }
    Ok(())
}

/// Full-solve check: the vectorized operator against its
/// [`ScalarPath`]-pinned twin and the sequential oracle.
fn assert_solve_matches<T: Real, Op: StencilOp<T>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    method: Method,
) -> Result<(), TestCaseError> {
    let initial: Grid3<T> = init::random(dims, seed);
    let (oracle, _) = solve_with(
        &ScalarPath(op.clone()),
        initial.clone(),
        sweeps,
        Method::Sequential,
    )
    .unwrap();
    let (vectorized, _) = solve_with(op, initial.clone(), sweeps, method.clone()).unwrap();
    let (scalar, _) = solve_with(&ScalarPath(op.clone()), initial, sweeps, method.clone()).unwrap();
    let whole = Region3::whole(dims);
    prop_assert!(
        norm::first_mismatch(&oracle, &scalar, &whole).is_none(),
        "{} ScalarPath solve via {method:?} diverged from the ScalarPath sequential oracle \
         at {:?}",
        op.name(),
        norm::first_mismatch(&oracle, &scalar, &whole)
    );
    let mismatch = norm::first_mismatch(&oracle, &vectorized, &whole);
    prop_assert!(
        mismatch.is_none(),
        "{} vectorized solve diverged from the scalar oracle at {mismatch:?}",
        op.name()
    );
    Ok(())
}

proptest! {
    // 56 cases: `simd_solves_match_scalar_solves` draws one of five
    // methods, so each still gets about the cases it had among three at 32.
    #![proptest_config(ProptestConfig { cases: 56, ..ProptestConfig::default() })]

    /// Random dims (x-extent deliberately allowed to be ≢ 0 mod 8),
    /// random sub-row offsets, all four operators, f64 and f32: the
    /// widened row is bit-identical to the build-target row.
    #[test]
    fn simd_rows_match_scalar_rows(
        nx in 6usize..40,
        ny in 4usize..10,
        nz in 4usize..10,
        seed in 0u64..1000,
        x0_pick in 0usize..32,
        len_pick in 0usize..32,
        yz_pick in 0usize..64,
        which_op in 0usize..4,
        use_f32 in proptest::any::<bool>(),
    ) {
        let dims = Dims3::new(nx, ny, nz);
        // Arbitrary interior sub-row: offset addressing and row lengths
        // that leave scalar heads and tails around the vector body.
        let x0 = 1 + x0_pick % (nx - 3);
        let x1 = x0 + 1 + len_pick % (nx - 1 - x0);
        let y = 1 + yz_pick % (ny - 2);
        let z = 1 + (yz_pick / 8) % (nz - 2);
        macro_rules! check {
            ($t:ty) => {
                match which_op {
                    0 => assert_row_matches::<$t, _>(&Jacobi6, dims, seed, x0, x1, y, z)?,
                    1 => assert_row_matches::<$t, _>(
                        &Jacobi7::heat(0.13), dims, seed, x0, x1, y, z)?,
                    2 => assert_row_matches::<$t, _>(
                        &VarCoeff7::banded(dims), dims, seed, x0, x1, y, z)?,
                    _ => assert_row_matches::<$t, _>(&Avg27, dims, seed, x0, x1, y, z)?,
                }
            };
        }
        if use_f32 { check!(f32) } else { check!(f64) }
    }

    /// Whole solves through the executors that drive the widened row loop:
    /// vectorized ≡ scalar-pinned ≡ oracle for every operator, f64 and
    /// f32, across sequential, wavefront, pipelined, diamond and MWD
    /// diamond (two threads sharing each tile) execution.
    #[test]
    fn simd_solves_match_scalar_solves(
        edge in 8usize..18,
        seed in 0u64..1000,
        sweeps in 1usize..7,
        which_op in 0usize..4,
        which_method in 0usize..5,
        use_f32 in proptest::any::<bool>(),
    ) {
        let dims = Dims3::cube(edge);
        let method = match which_method {
            0 => Method::Sequential,
            1 => Method::Pipelined(PipelineConfig::wavefront(2)),
            2 => Method::Pipelined(PipelineConfig {
                updates_per_thread: 1,
                block: [16, 8, 8],
                ..PipelineConfig::default_for(2, 1)
            }),
            3 => Method::Diamond(DiamondConfig::with_width(2, 6)),
            _ => Method::Diamond(DiamondConfig::with_width(2, 6).with_threads_per_tile(2)),
        };
        macro_rules! check {
            ($t:ty) => {
                match which_op {
                    0 => assert_solve_matches::<$t, _>(&Jacobi6, dims, seed, sweeps, method)?,
                    1 => assert_solve_matches::<$t, _>(
                        &Jacobi7::heat(0.13), dims, seed, sweeps, method)?,
                    2 => assert_solve_matches::<$t, _>(
                        &VarCoeff7::banded(dims), dims, seed, sweeps, method)?,
                    _ => assert_solve_matches::<$t, _>(&Avg27, dims, seed, sweeps, method)?,
                }
            };
        }
        if use_f32 { check!(f32) } else { check!(f64) }
    }

    /// MWD: random team size, diamond width and sub-team size — the
    /// multi-threaded-tile run is bit-identical to the single-threaded
    /// diamond run and to the sequential oracle (vectorized rows on).
    #[test]
    fn mwd_matches_single_thread_and_oracle(
        nx in 8usize..20,
        ny in 8usize..20,
        nz in 8usize..20,
        seed in 0u64..1000,
        sweeps in 1usize..7,
        threads in 2usize..5,
        width in 2usize..13,
        tpt_pick in 0usize..8,
        avg in proptest::any::<bool>(),
    ) {
        let dims = Dims3::new(nx, ny, nz);
        let divisors: Vec<usize> = (2..=threads).filter(|d| threads % d == 0).collect();
        let tpt = divisors[tpt_pick % divisors.len()];
        let initial: Grid3<f64> = init::random(dims, seed);
        let mwd = Method::Diamond(DiamondConfig {
            threads,
            width,
            threads_per_tile: tpt,
            audit: true,
        });
        let single = Method::Diamond(DiamondConfig {
            threads,
            width,
            threads_per_tile: 1,
            audit: true,
        });
        macro_rules! check_op {
            ($op:expr) => {{
                let op = $op;
                let (oracle, _) =
                    solve_with(&op, initial.clone(), sweeps, Method::Sequential).unwrap();
                let (got_mwd, _) = solve_with(&op, initial.clone(), sweeps, mwd).unwrap();
                let (got_single, _) = solve_with(&op, initial.clone(), sweeps, single).unwrap();
                let whole = Region3::whole(dims);
                let mismatch = norm::first_mismatch(&oracle, &got_mwd, &whole);
                prop_assert!(
                    mismatch.is_none(),
                    "MWD t={threads} tpt={tpt} w={width}: diverged from oracle at {mismatch:?}"
                );
                let mismatch = norm::first_mismatch(&got_single, &got_mwd, &whole);
                prop_assert!(
                    mismatch.is_none(),
                    "MWD t={threads} tpt={tpt} w={width}: diverged from tpt=1 at {mismatch:?}"
                );
            }};
        }
        // Jacobi6 covers the cross path, Avg27 the corner-reading path.
        if avg { check_op!(Avg27) } else { check_op!(Jacobi6) }
    }
}
