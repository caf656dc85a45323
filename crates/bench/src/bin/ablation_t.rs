//! Experiment E7 — §1.5 in-text: sweep of T (updates per thread and
//! block). The paper finds T=2 optimal with "some very minor improvement
//! at T=4"; T=1 underuses the cache, larger T shrinks the usable block
//! set and adds pipeline fill overhead.

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

    println!("ablation: updates per thread T ({edge}^3, team of {t}, {sweeps} sweeps)\n");
    println!("{:>4} {:>8} {:>12}", "T", "depth", "MLUP/s");
    let rt = Runtime::new(&TeamLayout::new(&machine, t, 1));
    for updates in [1usize, 2, 4, 8] {
        let cfg = PipelineConfig {
            team_size: t,
            n_teams: 1,
            updates_per_thread: updates,
            block: [edge.min(120), 20, 20],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        if cfg.validate(tb_grid::Dims3::cube(edge)).is_err() {
            println!("{updates:>4} {:>8} {:>12}", cfg.stages(), "skipped");
            continue;
        }
        let s = best_of(reps, || {
            let mut pair = GridPair::from_initial(problem(edge, 42));
            pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &cfg, sweeps).unwrap()
        });
        println!("{updates:>4} {:>8} {:>12.1}", cfg.stages(), s.mlups());
    }
    println!("\npaper: optimum usually T=2, very minor improvement at T=4.");
}
