//! Quickstart: solve a 3D boundary-value problem with every solver in
//! the library and verify they agree bitwise, then compare their speed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use temporal_blocking::prelude::*;
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::{grid, solve_with_on, Method};

fn main() {
    // Pick a problem size that fits comfortably in memory.
    let dims = temporal_blocking::cube_for_memory_budget(64);
    let sweeps = 12;
    println!("Jacobi {dims} grid, {sweeps} sweeps\n");

    // Dirichlet problem: hot z=0 plate, cold interior.
    let initial = grid::init::hot_plate::<f64>(dims, 100.0, 0.0);

    // The machine we are on decides the team geometry: one team pinned
    // to the first cache group runs every row.
    let machine = temporal_blocking::topology::detect::detect();
    let threads = machine.cache_groups().first().map_or(1, Vec::len).max(1);
    let rt = Runtime::new(&TeamLayout::new(&machine, threads, 1));
    println!(
        "host: {} ({} CPUs, {} cache group(s)); team of {threads} pinned workers",
        machine.name,
        machine.num_cpus(),
        machine.cache_groups().len()
    );

    // The library's default pipeline shape (what the benchmark measures).
    let pipe_cfg = PipelineConfig::default_for(threads, 1);

    let methods: Vec<(&str, Method)> = vec![
        ("sequential", Method::Sequential),
        (
            "spatially blocked",
            Method::Blocked {
                block: [dims.nx, 20, 20],
            },
        ),
        (
            "parallel baseline (NT stores)",
            Method::Parallel {
                threads,
                streaming_stores: true,
            },
        ),
        (
            "pipelined temporal blocking",
            Method::Pipelined(pipe_cfg.clone()),
        ),
        (
            "pipelined + compressed grid",
            Method::Pipelined(PipelineConfig {
                scheme: GridScheme::Compressed,
                ..pipe_cfg
            }),
        ),
        (
            "wavefront (pipelined, T = 1)",
            Method::Pipelined(PipelineConfig::wavefront(threads)),
        ),
        (
            "wavefront-diamond blocking",
            Method::Diamond(DiamondConfig::default_for(threads)),
        ),
    ];

    let mut reference: Option<Grid3<f64>> = None;
    println!("\n{:<34} {:>12} {:>12}", "method", "MLUP/s", "time [ms]");
    for (name, method) in methods {
        match solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, method) {
            Ok((result, stats)) => {
                println!(
                    "{:<34} {:>12.1} {:>12.2}",
                    name,
                    stats.mlups(),
                    stats.elapsed.as_secs_f64() * 1e3
                );
                match &reference {
                    None => reference = Some(result),
                    Some(want) => grid::norm::assert_grids_identical(
                        want,
                        &result,
                        &Region3::whole(dims),
                        name,
                    ),
                }
            }
            Err(e) => println!("{name:<34} skipped: {e}"),
        }
    }
    println!("\nall solvers produced bitwise identical grids");
}
