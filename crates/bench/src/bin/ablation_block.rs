//! Experiment E8 — §1.5 in-text: inner block length sweep.
//!
//! The standard code wants the inner loop as long as possible (hardware
//! prefetchers; "comparable to the page size"); the temporally blocked
//! code peaks around b_x ≈ 120 because the block working set must stay
//! inside the shared cache.

#![forbid(unsafe_code)]

use tb_bench::{best_of, problem, Args};
use tb_grid::GridPair;
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::{pipeline, Jacobi6, PipelineConfig, SyncMode};
use tb_topology::TeamLayout;

fn main() {
    let args = Args::parse();
    let machine = tb_topology::detect::detect();
    let edge = args.get_usize("--size", tb_bench::default_edge());
    let sweeps = args.get_usize("--sweeps", 16);
    let reps = args.get_usize("--reps", 3);
    let t = machine.cores_per_socket().max(1);

    println!("ablation: inner block length b_x ({edge}^3, blocks b_x x 20 x 20)\n");
    println!("{:>6} {:>12} {:>18}", "b_x", "MLUP/s", "block KiB (f64)");
    let mut sizes: Vec<usize> = [16usize, 32, 64, 120, 180, 240, 600]
        .iter()
        .map(|&b| b.min(edge - 2))
        .collect();
    sizes.dedup();
    let rt = Runtime::new(&TeamLayout::new(&machine, t, 1));
    for bx in sizes {
        let cfg = PipelineConfig {
            team_size: t,
            n_teams: 1,
            updates_per_thread: 2,
            block: [bx, 20, 20],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        if cfg.validate(tb_grid::Dims3::cube(edge)).is_err() {
            continue;
        }
        let s = best_of(reps, || {
            let mut pair = GridPair::from_initial(problem(edge, 42));
            pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &cfg, sweeps).unwrap()
        });
        println!(
            "{bx:>6} {:>12.1} {:>18.0}",
            s.mlups(),
            (bx * 20 * 20 * 8) as f64 / 1024.0
        );
    }
    println!(
        "\npaper: best around b_x ~ 120 on the 600^3 problem; y/z block sizes\n\
         matter little as long as the cache-size restriction holds."
    );
}
