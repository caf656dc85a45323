//! Property test of the balanced stage split (`T` is a cap, not a
//! quota): whatever the request, the pipelined executors cut it into
//! near-equal team sweeps and deal each one's stages evenly over the
//! team — and the result is still the sequential oracle, bit for bit,
//! with every cell updated exactly `sweeps` times.
//!
//! Sweep counts run past three full team sweeps, so a case sees shallow
//! single team sweeps (threads with no stage at all), the `q+1 … q`
//! transition between team sweeps, and — on the compressed grid — down
//! and up sweeps of different depths. The race auditor is on throughout.

use proptest::prelude::*;

use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::stencil::config::{GridScheme, WHOLE_EXTENT};
use temporal_blocking::{solve_with, Avg27, Jacobi6, Method, PipelineConfig, StencilOp, SyncMode};

fn assert_matches_oracle<Op: StencilOp<f64>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    cfg: PipelineConfig,
) -> Result<(), TestCaseError> {
    let initial: Grid3<f64> = init::random(dims, seed);
    let (want, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
    let (got, stats) = solve_with(op, initial, sweeps, Method::Pipelined(cfg.clone())).unwrap();
    let mismatch = norm::first_mismatch(&want, &got, &Region3::whole(dims));
    prop_assert!(
        mismatch.is_none(),
        "{} x{sweeps} on {dims} with {cfg:?} diverged at {mismatch:?}",
        op.name()
    );
    prop_assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn any_request_on_any_depth_matches_the_oracle(
        seed in 0u64..1000,
        team in 1usize..5,
        upt in 1usize..5,
        sweep_pick in 0usize..1000,
        extra in prop::array::uniform3(0usize..9),
        block_extra in prop::array::uniform3(0usize..5),
        long_x in any::<bool>(),
        compressed in any::<bool>(),
        barrier in any::<bool>(),
        corners in any::<bool>(),
    ) {
        let depth = team * upt;
        let sweeps = 1 + sweep_pick % (3 * depth + 1);
        // Every block edge (clamped to the interior) must reach the depth.
        let dims = Dims3::new(depth + 2 + extra[0], depth + 2 + extra[1], depth + 2 + extra[2]);
        let bx = if long_x { WHOLE_EXTENT } else { depth + block_extra[0] };
        let cfg = PipelineConfig {
            team_size: team,
            n_teams: 1,
            updates_per_thread: upt,
            block: [bx, depth + block_extra[1], depth + block_extra[2]],
            sync: if barrier { SyncMode::Barrier } else { SyncMode::relaxed_default() },
            scheme: if compressed { GridScheme::Compressed } else { GridScheme::TwoGrid },
            audit: true,
        };
        prop_assert!(cfg.validate(dims).is_ok());
        if corners {
            assert_matches_oracle(&Avg27, dims, seed, sweeps, cfg)?;
        } else {
            assert_matches_oracle(&Jacobi6, dims, seed, sweeps, cfg)?;
        }
    }
}
