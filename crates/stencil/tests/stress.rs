//! Stress tests for the pipelined executors: many configurations, odd
//! geometry, minimum-legal block sizes, repeated runs to shake out
//! scheduling nondeterminism — always with the region auditor armed.

use tb_grid::{init, norm, Dims3, Grid3, GridPair, Region3};
use tb_runtime::Runtime;
use tb_stencil::config::{GridScheme, PipelineConfig};
use tb_stencil::{baseline, pipeline, Jacobi6, SyncMode};

fn reference(dims: Dims3, seed: u64, sweeps: usize) -> Grid3<f64> {
    let mut pair = GridPair::from_initial(init::random(dims, seed));
    baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
    pair.current(sweeps).clone()
}

fn run_pipelined(dims: Dims3, seed: u64, sweeps: usize, cfg: &PipelineConfig) -> Grid3<f64> {
    let mut pair = GridPair::from_initial(init::random(dims, seed));
    let rt = Runtime::with_threads(cfg.threads());
    pipeline::run_op_on(&rt, &Jacobi6, &mut pair, cfg, sweeps).unwrap();
    pair.current(sweeps).clone()
}

#[test]
fn blocks_exactly_equal_to_depth() {
    // The minimum legal block edge equals the pipeline depth; the shift
    // then squeezes the first block to a single layer at the last stage.
    let dims = Dims3::cube(20);
    let cfg = PipelineConfig {
        team_size: 3,
        n_teams: 1,
        updates_per_thread: 1,
        block: [3, 3, 3],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let want = reference(dims, 1, 6);
    let got = run_pipelined(dims, 1, 6, &cfg);
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "min blocks");
}

#[test]
fn repeated_runs_are_deterministic() {
    // Thread interleavings differ between runs; results must not.
    let dims = Dims3::cube(24);
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 2,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::Relaxed {
            dl: 1,
            du: 2,
            dt: 1,
        },
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let first = run_pipelined(dims, 55, 7, &cfg);
    for rep in 0..4 {
        let again = run_pipelined(dims, 55, 7, &cfg);
        norm::assert_grids_identical(&first, &again, &Region3::whole(dims), &format!("rep {rep}"));
    }
}

#[test]
fn tall_thin_grid() {
    let dims = Dims3::new(8, 8, 80);
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [6, 6, 10],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let want = reference(dims, 2, 5);
    let got = run_pipelined(dims, 2, 5, &cfg);
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "tall thin");
}

#[test]
fn pancake_grid() {
    let dims = Dims3::new(80, 8, 8);
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 2,
        block: [20, 6, 6],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let want = reference(dims, 3, 8);
    let got = run_pipelined(dims, 3, 8, &cfg);
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "pancake");
}

#[test]
fn single_sweep_only_front_thread_works() {
    // sweeps=1 with depth 4: only stage 0 runs; threads 1..3 idle.
    let dims = Dims3::cube(18);
    let cfg = PipelineConfig {
        team_size: 4,
        n_teams: 1,
        updates_per_thread: 1,
        block: [6, 6, 6],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let want = reference(dims, 4, 1);
    let got = run_pipelined(dims, 4, 1, &cfg);
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "1 sweep");
}

#[test]
fn compressed_stress_many_team_sweeps() {
    let dims = Dims3::cube(20);
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::Compressed,
        audit: true,
    };
    let sweeps = 17; // 8 full down/up pairs + partial down
    let want = reference(dims, 8, sweeps);
    let initial: Grid3<f64> = init::random(dims, 8);
    let mut cg = tb_grid::CompressedGrid::from_grid(&initial, cfg.stages());
    let rt = Runtime::with_threads(cfg.threads());
    pipeline::run_compressed_op_on(&rt, &Jacobi6, &mut cg, &cfg, sweeps).unwrap();
    norm::assert_grids_identical(&want, &cg.to_grid(), &Region3::whole(dims), "compressed 17");
}

#[test]
fn barrier_and_relaxed_agree_with_each_other() {
    let dims = Dims3::cube(22);
    let mk = |sync| PipelineConfig {
        team_size: 2,
        n_teams: 2,
        updates_per_thread: 1,
        block: [9, 9, 9],
        sync,
        scheme: GridScheme::TwoGrid,
        audit: true,
    };
    let a = run_pipelined(dims, 31, 9, &mk(SyncMode::Barrier));
    let b = run_pipelined(dims, 31, 9, &mk(SyncMode::relaxed_default()));
    norm::assert_grids_identical(&a, &b, &Region3::whole(dims), "barrier vs relaxed");
}

#[test]
fn oversubscribed_pipeline_completes() {
    // Far more pipeline threads than cores: yielding spin-waits must
    // keep the pipeline live.
    let dims = Dims3::cube(26);
    let cfg = PipelineConfig {
        team_size: 4,
        n_teams: 3,
        updates_per_thread: 1,
        block: [12, 12, 12],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: false, // 12 threads through the auditor is too slow
    };
    let want = reference(dims, 6, 12);
    let got = run_pipelined(dims, 6, 12, &cfg);
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "12 threads");
}
