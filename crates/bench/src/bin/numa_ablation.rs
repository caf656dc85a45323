//! Ablation of the paper's §3 outlook: one big pipeline across all cores
//! (the paper's method, ccNUMA-hostile) versus the team-decomposed node
//! solver (one pipeline per cache group + multi-layer slab coupling —
//! the fix the paper proposes, implemented in `tb_dist::numa`), plus a
//! placement on/off ablation of the runtime's first-touch layer
//! (`tb_runtime::placement`): the same parallel solve with its staging
//! pages worker-first-touched versus client-touched.
//!
//! Every variant is verified bitwise against the sequential solver
//! before timing. Emits `BENCH_numa.json`.
//!
//! ```sh
//! cargo run --release -p tb-bench --bin numa_ablation
//! cargo run --release -p tb-bench --bin numa_ablation -- --smoke
//! ```

use std::io::Write as _;

use tb_bench::{best_of, problem, Args};
use tb_dist::numa::{run_numa_node, NumaNodeConfig};
use tb_grid::{norm, GridPair, Region3};
use tb_stencil::config::GridScheme;
use tb_stencil::{baseline, pipeline, Jacobi6, PipelineConfig, SyncMode};
use tb_topology::TeamLayout;
use temporal_blocking::{solve_with_on, Method, Placement, Runtime};

fn main() {
    let args = Args::parse();
    let smoke = args.has("--smoke");
    let machine = tb_topology::detect::detect();
    let edge = args.get_usize("--size", if smoke { 24 } else { tb_bench::default_edge() });
    let sweeps = args.get_usize("--sweeps", if smoke { 4 } else { 16 });
    let reps = args.get_usize("--reps", if smoke { 1 } else { 3 });
    let t = machine.cores_per_socket().max(1);
    let teams = machine.cache_groups().len().max(2);
    let dims = tb_grid::Dims3::cube(edge);
    let numa_nodes = machine.num_numa_nodes();

    println!(
        "NUMA ablation on {} ({} NUMA node(s)) — {edge}^3, {sweeps} sweeps, {teams} teams of {t}\n",
        machine.name, numa_nodes
    );

    // Reference for verification.
    let initial = problem(edge, 42);
    let mut ref_pair = GridPair::from_initial(initial.clone());
    baseline::seq_sweeps_op(&Jacobi6, &mut ref_pair, sweeps);
    let want = ref_pair.current(sweeps);

    // (a) single big pipeline across all teams.
    let big = PipelineConfig {
        team_size: t,
        n_teams: teams,
        updates_per_thread: 2,
        block: [edge.min(120), 20, 20],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        audit: false,
    };
    let big_mlups = if big.validate(dims).is_ok() {
        let rt = Runtime::new(&TeamLayout::new(&machine, t, teams));
        let mut pair = GridPair::from_initial(initial.clone());
        pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &big, sweeps).unwrap();
        norm::assert_grids_identical(want, pair.current(sweeps), &Region3::whole(dims), "big");
        let s = best_of(reps, || {
            let mut pair = GridPair::from_initial(initial.clone());
            pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &big, sweeps).unwrap()
        });
        println!("single node-wide pipeline:   {:>10.1} MLUP/s", s.mlups());
        Some(s.mlups())
    } else {
        println!("single node-wide pipeline:   skipped (grid too small for depth)");
        None
    };

    // (b) team-decomposed (one pipeline per cache group).
    let numa = NumaNodeConfig {
        team_size: t,
        n_teams: teams,
        updates_per_thread: 2,
        block: [edge.min(120), 20, 20],
        sync: SyncMode::relaxed_default(),
        pin: true,
    };
    let decomposed_mlups = match run_numa_node(&initial, &machine, &numa, sweeps) {
        Ok((got, _)) => {
            norm::assert_grids_identical(want, &got, &Region3::interior_of(dims), "numa");
            let s = best_of(reps, || {
                run_numa_node(&initial, &machine, &numa, sweeps).unwrap().1
            });
            // cells_updated includes redundant ring work; report useful rate.
            let useful = (sweeps * dims.interior_len()) as f64;
            let useful_mlups = useful / s.elapsed.as_secs_f64() / 1e6;
            println!(
                "team-decomposed pipelines:   {:>10.1} MLUP/s (incl. ring work: {:.1})",
                useful_mlups,
                s.mlups()
            );
            Some(useful_mlups)
        }
        Err(e) => {
            println!("team-decomposed pipelines:   skipped ({e})");
            None
        }
    };

    // (c) placement on/off: the identical parallel solve on a persistent
    // runtime, staging pages either first-touched by the pinned workers
    // or left wherever this (client) thread's allocation committed them.
    let threads = machine.num_cpus().max(1);
    let method = Method::Parallel {
        threads,
        streaming_stores: false,
    };
    let mut placement_mlups = [0.0f64; 2];
    for (slot, placement) in [Placement::WorkerFirstTouch, Placement::ClientPages]
        .into_iter()
        .enumerate()
    {
        let rt = Runtime::new(&TeamLayout::new(&machine, threads, 1)).with_placement(placement);
        let (got, _) =
            solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, method.clone()).unwrap();
        norm::assert_grids_identical(want, &got, &Region3::whole(dims), placement.name());
        let s = best_of(reps, || {
            solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, method.clone())
                .unwrap()
                .1
        });
        println!(
            "parallel, {:<18} {:>10.1} MLUP/s",
            format!("{}:", placement.name()),
            s.mlups()
        );
        placement_mlups[slot] = s.mlups();
    }
    let placement_ratio = placement_mlups[0] / placement_mlups[1];
    println!("worker-first-touch/client-pages: {placement_ratio:.3}x");

    // On >= 2 NUMA nodes worker placement must win outright; on one
    // node the two paths touch identical pages and should tie (no
    // assertion — the ratio is reported for the record).
    if !smoke && numa_nodes >= 2 {
        assert!(
            placement_ratio > 1.0,
            "with {numa_nodes} NUMA nodes worker-first-touch ({:.1} MLUP/s) must beat \
             client-pages ({:.1} MLUP/s)",
            placement_mlups[0],
            placement_mlups[1]
        );
    }

    println!(
        "\npaper §3: the single node-wide pipeline defeats first-touch NUMA\n\
         placement; decomposing per cache group (like 2PPN in Fig. 6) is the\n\
         proposed fix. On UMA hosts expect parity; on ccNUMA a gap."
    );

    let fmt_opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.1}"),
        None => "null".to_string(),
    };
    let node_cpus: Vec<usize> = machine.numa_nodes().iter().map(|n| n.cpus.len()).collect();
    let json = format!(
        "{{\n  \"machine\": \"{sig}\",\n  \"numa_nodes\": {numa_nodes},\n  \
         \"numa_node_cpus\": {node_cpus:?},\n  \"edge\": {edge},\n  \"sweeps\": {sweeps},\n  \
         \"reps\": {reps},\n  \"teams\": {teams},\n  \
         \"node_wide_pipeline_mlups\": {big},\n  \
         \"team_decomposed_mlups\": {decomp},\n  \
         \"placement\": {{\n    \
         \"worker_first_touch_mlups\": {wft:.1},\n    \
         \"client_pages_mlups\": {cp:.1},\n    \
         \"worker_over_client\": {placement_ratio:.3}\n  }},\n  \
         \"all_variants_verified\": true\n}}\n",
        sig = machine.signature(),
        big = fmt_opt(big_mlups),
        decomp = fmt_opt(decomposed_mlups),
        wft = placement_mlups[0],
        cp = placement_mlups[1],
    );
    let out = args.get("--out").unwrap_or("BENCH_numa.json");
    std::fs::File::create(out)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write numa json");
    println!("wrote {out}");
}
