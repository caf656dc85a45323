//! End-to-end cross-solver verification.
//!
//! Every solver in the workspace must produce **bitwise identical** grids
//! for the same sweep count — the kernels share one operand order, so any
//! deviation is a scheduling/geometry bug, not floating-point noise.

use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::{solve_with, Jacobi6, Method, PipelineConfig, SyncMode};

fn reference(dims: Dims3, seed: u64, sweeps: usize) -> Grid3<f64> {
    let initial: Grid3<f64> = init::random(dims, seed);
    solve_with(&Jacobi6, initial, sweeps, Method::Sequential)
        .unwrap()
        .0
}

fn cfg(team: usize, teams: usize, upt: usize, sync: SyncMode, block: [usize; 3]) -> PipelineConfig {
    PipelineConfig {
        team_size: team,
        n_teams: teams,
        updates_per_thread: upt,
        block,
        sync,
        scheme: GridScheme::TwoGrid,
        audit: true, // integration tests always run the race auditor
    }
}

fn check(dims: Dims3, seed: u64, sweeps: usize, method: Method, label: &str) {
    let want = reference(dims, seed, sweeps);
    let initial: Grid3<f64> = init::random(dims, seed);
    let (got, _) =
        solve_with(&Jacobi6, initial, sweeps, method).unwrap_or_else(|e| panic!("{label}: {e}"));
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), label);
}

#[test]
fn pipelined_matrix_of_configurations() {
    let dims = Dims3::cube(26);
    for (team, teams, upt) in [
        (1, 1, 2),
        (2, 1, 1),
        (2, 1, 2),
        (3, 1, 1),
        (2, 2, 1),
        (4, 1, 1),
    ] {
        for sweeps in [1usize, 3, 8] {
            let c = cfg(team, teams, upt, SyncMode::relaxed_default(), [10, 10, 10]);
            check(
                dims,
                11,
                sweeps,
                Method::Pipelined(c),
                &format!("pipelined t={team} n={teams} T={upt} sweeps={sweeps}"),
            );
        }
    }
}

#[test]
fn pipelined_sync_variants() {
    let dims = Dims3::cube(24);
    for sync in [
        SyncMode::Barrier,
        SyncMode::Relaxed {
            dl: 1,
            du: 1,
            dt: 0,
        },
        SyncMode::Relaxed {
            dl: 1,
            du: 4,
            dt: 0,
        },
        SyncMode::Relaxed {
            dl: 1,
            du: 16,
            dt: 0,
        },
        SyncMode::Relaxed {
            dl: 2,
            du: 4,
            dt: 0,
        },
        SyncMode::Relaxed {
            dl: 1,
            du: 4,
            dt: 8,
        },
    ] {
        let c = cfg(2, 2, 1, sync, [9, 9, 9]);
        check(dims, 23, 9, Method::Pipelined(c), &format!("sync {sync:?}"));
    }
}

#[test]
fn compressed_matrix() {
    let dims = Dims3::cube(24);
    for (team, upt) in [(1, 2), (2, 1), (2, 2), (3, 1)] {
        for sweeps in [2usize, 5, 12] {
            let mut c = cfg(team, 1, upt, SyncMode::relaxed_default(), [10, 10, 10]);
            c.scheme = GridScheme::Compressed;
            check(
                dims,
                37,
                sweeps,
                Method::Pipelined(c),
                &format!("compressed t={team} T={upt} sweeps={sweeps}"),
            );
        }
    }
}

#[test]
fn wavefront_thread_counts() {
    let dims = Dims3::cube(22);
    for threads in [1usize, 2, 3, 5] {
        for sweeps in [2usize, 7] {
            check(
                dims,
                5,
                sweeps,
                Method::Pipelined(PipelineConfig::wavefront(threads)),
                &format!("wavefront {threads} threads {sweeps} sweeps"),
            );
        }
    }
}

#[test]
fn anisotropic_grids_and_blocks() {
    for (dims, block) in [
        (Dims3::new(34, 18, 12), [16, 6, 4]),
        (Dims3::new(12, 34, 18), [10, 12, 8]),
        (Dims3::new(18, 12, 34), [8, 5, 16]),
    ] {
        let c = cfg(2, 1, 2, SyncMode::relaxed_default(), block);
        check(dims, 3, 6, Method::Pipelined(c), &format!("aniso {dims}"));
    }
}

#[test]
fn linear_field_stays_fixed_for_every_solver() {
    // The Jacobi operator leaves affine fields invariant up to the 1-ulp
    // slack of multiplying by 1/6 instead of dividing by 6; after many
    // sweeps the drift must stay tiny for every solver.
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = init::linear(dims, 0.5, -1.0, 2.0, 3.0);
    for (label, method) in [
        ("seq", Method::Sequential),
        (
            "pipe",
            Method::Pipelined(cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8])),
        ),
        ("wave", Method::Pipelined(PipelineConfig::wavefront(2))),
    ] {
        let (got, _) = solve_with(&Jacobi6, initial.clone(), 20, method).unwrap();
        let drift = norm::max_abs_diff(&initial, &got, &Region3::interior_of(dims));
        assert!(drift < 1e-10, "{label}: affine field drifted by {drift}");
    }
}

#[test]
fn f32_pipeline_matches_f32_reference() {
    let dims = Dims3::cube(22);
    let initial: Grid3<f32> = init::random(dims, 9);
    let (want, _) = solve_with(&Jacobi6, initial.clone(), 5, Method::Sequential).unwrap();
    let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [9, 9, 9]);
    let (got, _) = solve_with(&Jacobi6, initial, 5, Method::Pipelined(c)).unwrap();
    norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "f32 pipeline");
}

#[test]
fn long_run_many_team_sweeps() {
    // Many full + one partial team sweep, crossing parity repeatedly.
    let dims = Dims3::cube(20);
    let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]); // depth 2
    check(dims, 77, 31, Method::Pipelined(c), "31 sweeps depth 2");
}
