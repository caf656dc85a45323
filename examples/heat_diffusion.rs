//! Diffusion to steady state: a domain-specific scenario using the
//! public API — iterate a stencil operator in chunks until the solution
//! stops changing, with pipelined temporal blocking doing the work.
//!
//! Physically: a cube held at 100° on the z=0 face and 0° on the other
//! five faces; the interior relaxes towards its steady state. The
//! operator is selected on the command line, so one binary covers four
//! workloads:
//!
//! ```sh
//! cargo run --release --example heat_diffusion                       # classic Jacobi
//! cargo run --release --example heat_diffusion -- --op heat          # explicit-Euler heat step
//! cargo run --release --example heat_diffusion -- --op varcoeff      # per-cell conductivity
//! cargo run --release --example heat_diffusion -- --op avg27         # 27-point average
//! cargo run --release --example heat_diffusion -- --size 50 --tol 1e-6
//! ```

use temporal_blocking::prelude::*;
use temporal_blocking::{grid, solve_with_on, Method};

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn relax<Op: StencilOp<f64>>(op: &Op, rt: &Runtime, dims: Dims3, cfg: PipelineConfig, tol: f64) {
    let chunk = cfg.stages().max(4) * 2; // sweeps per convergence check
    let mut current = grid::init::hot_plate::<f64>(dims, 100.0, 0.0);
    let mut total_sweeps = 0usize;
    let mut total_updates = 0u64;
    let mut total_time = std::time::Duration::ZERO;

    println!(
        "{} diffusion on {dims}, chunk = {chunk} sweeps, tol = {tol:e}",
        op.name()
    );
    println!("{:>8} {:>14} {:>12}", "sweeps", "max |delta|", "MLUP/s");
    for _ in 0..200 {
        let before = current.clone();
        // Every chunk reuses the persistent team (and its pooled B
        // buffer) instead of spawning threads per convergence step.
        let (after, stats) = solve_with_on(rt, op, current, chunk, Method::Pipelined(cfg.clone()))
            .expect("pipeline config must be valid");
        total_sweeps += chunk;
        total_updates += stats.cell_updates;
        total_time += stats.elapsed;

        let delta = grid::norm::max_abs_diff(&before, &after, &Region3::interior_of(dims));
        println!(
            "{:>8} {:>14.3e} {:>12.1}",
            total_sweeps,
            delta,
            stats.mlups()
        );
        current = after;
        if delta < tol {
            break;
        }
    }

    // Sanity: steady state means the hot face dominates nearby cells.
    let near_hot = current.get(dims.nx / 2, dims.ny / 2, 1);
    let near_cold = current.get(dims.nx / 2, dims.ny / 2, dims.nz - 2);
    println!(
        "\nstopped after {total_sweeps} sweeps: T(center,z=1) = {near_hot:.2}, \
         T(center,z=max-1) = {near_cold:.2}"
    );
    assert!(near_hot > near_cold);

    // And the pipelined path must match the sequential oracle bitwise.
    let mut check = grid::init::hot_plate::<f64>(dims, 100.0, 0.0);
    for _ in 0..total_sweeps / chunk {
        check = solve_with_on(rt, op, check, chunk, Method::Sequential)
            .unwrap()
            .0;
    }
    grid::norm::assert_grids_identical(
        &check,
        &current,
        &Region3::whole(dims),
        "pipelined vs sequential",
    );
    println!("verified: pipelined result is bitwise identical to the sequential oracle");

    let agg = temporal_blocking::stencil::stats::RunStats::new(total_updates, total_time);
    println!("aggregate throughput: {:.1} MLUP/s", agg.mlups());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let op_name = arg(&args, "--op").unwrap_or_else(|| "jacobi".into());
    let edge = arg(&args, "--size")
        .and_then(|v| v.parse().ok())
        .unwrap_or(66usize);
    let tol = arg(&args, "--tol")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1e-7f64);

    let dims = Dims3::cube(edge);
    let machine = temporal_blocking::topology::detect::detect();
    let group = machine.cache_groups().first().map_or(1, Vec::len).max(1);
    let cfg = PipelineConfig::default_for(group, 1);

    // One worker team, pinned to the first cache group, for the whole
    // relaxation.
    let rt = Runtime::new(&TeamLayout::new(&machine, group, 1));

    match op_name.as_str() {
        "jacobi" => relax(&Jacobi6, &rt, dims, cfg, tol),
        "heat" => relax(&Jacobi7::heat(0.12), &rt, dims, cfg, tol),
        "varcoeff" => relax(&VarCoeff7::banded(dims), &rt, dims, cfg, tol),
        "avg27" => relax(&Avg27, &rt, dims, cfg, tol),
        other => {
            eprintln!("unknown --op {other}; expected jacobi | heat | varcoeff | avg27");
            std::process::exit(2);
        }
    }
}
