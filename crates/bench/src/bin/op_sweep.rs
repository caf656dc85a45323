//! Operator × method throughput sweep — the perf trajectory seed for the
//! stencil-operator layer.
//!
//! Runs every shipped operator (classic 6-point Jacobi, 7-point heat,
//! variable-coefficient 7-point, dense 27-point average) through every
//! execution strategy (sequential, blocked, parallel ± streaming stores,
//! pipelined, compressed, wavefront, distributed), measures MLUP/s and
//! MFLOP/s, bitwise-verifies each run against the operator's sequential
//! oracle, and emits `BENCH_ops.json`.
//!
//! ```sh
//! cargo run --release -p tb-bench --bin op_sweep -- --size 40 --sweeps 8
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;

use tb_bench::{problem, warmed_best_of, Args};
use tb_dist::net::{CartComm, Universe};
use tb_dist::{Decomposition, DistSolver, LocalExec};
use tb_grid::{norm, CompressedGrid, Grid3, GridPair, Region3};
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{
    baseline, diamond, pipeline, wavefront, Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig,
    RunStats, ScalarPath, StencilOp, SyncMode, VarCoeff7,
};

struct Row {
    op: &'static str,
    method: &'static str,
    simd: &'static str,
    mlups: f64,
    mflops: f64,
    verified: bool,
}

fn pipeline_cfg(scheme: GridScheme) -> PipelineConfig {
    PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [16, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme,
        audit: false,
    }
}

/// Run one (operator, method) cell with a discarded warm-up rep plus
/// `reps` timed ones, keep the best, verify bitwise against the oracle.
/// `simd` records which copy of the row loop the operator value routes
/// through (plain ops: AVX-widened, [`ScalarPath`]: build target) — the
/// arithmetic is bitwise identical either way, only the throughput
/// differs.
fn cell<Op: StencilOp<f64>>(
    op: &Op,
    method: &'static str,
    simd: &'static str,
    oracle: &Grid3<f64>,
    reps: usize,
    mut run: impl FnMut() -> (Grid3<f64>, RunStats),
) -> Row {
    let mut last: Option<Grid3<f64>> = None;
    let stats = warmed_best_of(reps, || {
        let (g, s) = run();
        last = Some(g);
        s
    });
    let grid = last.expect("reps >= 1");
    let verified = norm::first_mismatch(oracle, &grid, &Region3::whole(oracle.dims())).is_none();
    Row {
        op: op.name(),
        method,
        simd,
        mlups: stats.mlups(),
        mflops: stats.mflops(op.flops_per_lup()),
        verified,
    }
}

fn sweep_op<Op: StencilOp<f64>>(
    rt: &Runtime,
    op: &Op,
    edge: usize,
    sweeps: usize,
    reps: usize,
    tpt: usize,
    rows: &mut Vec<Row>,
) {
    let threads = rt.threads();
    let initial = problem(edge, 0xBEEF);
    let mut oracle_pair = GridPair::from_initial(initial.clone());
    baseline::seq_sweeps_op(op, &mut oracle_pair, sweeps);
    let oracle = oracle_pair.current(sweeps).clone();

    rows.push(cell(op, "seq", "on", &oracle, reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s = baseline::seq_sweeps_op(op, &mut pair, sweeps);
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "seq", "off", &oracle, reps, || {
        let scalar = ScalarPath(op.clone());
        let mut pair = GridPair::from_initial(initial.clone());
        let s = baseline::seq_sweeps_op(&scalar, &mut pair, sweeps);
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "blocked", "on", &oracle, reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s = baseline::seq_blocked_sweeps_op(op, &mut pair, sweeps, [32, 8, 8]);
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "parallel", "on", &oracle, reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s = baseline::par_sweeps_op_on(rt, op, &mut pair, sweeps, threads, StoreMode::Normal);
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "parallel-nt", "on", &oracle, reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s =
            baseline::par_sweeps_op_on(rt, op, &mut pair, sweeps, threads, StoreMode::Streaming);
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "pipelined", "on", &oracle, reps, || {
        let cfg = pipeline_cfg(GridScheme::TwoGrid);
        let mut pair = GridPair::from_initial(initial.clone());
        let s = pipeline::run_op_on(rt, op, &mut pair, &cfg, sweeps).expect("valid config");
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "compressed", "on", &oracle, reps, || {
        let cfg = pipeline_cfg(GridScheme::Compressed);
        let mut cg = CompressedGrid::from_grid(&initial, cfg.stages());
        let s =
            pipeline::run_compressed_op_on(rt, op, &mut cg, &cfg, sweeps).expect("valid config");
        (cg.to_grid(), s)
    }));
    rows.push(cell(op, "wavefront", "on", &oracle, reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s =
            wavefront::run_wavefront_op_on(rt, op, &mut pair, 2, sweeps).expect("valid threads");
        (pair.current(sweeps).clone(), s)
    }));
    // MWD sub-teams must divide the (fixed, 2-thread) diamond team.
    let team_tpt = if 2usize.is_multiple_of(tpt) { tpt } else { 1 };
    let dia_cfg = DiamondConfig::with_width(2, 8).with_threads_per_tile(team_tpt);
    rows.push(cell(op, "diamond", "on", &oracle, reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s =
            diamond::run_diamond_op_on(rt, op, &mut pair, &dia_cfg, sweeps).expect("valid config");
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "diamond", "off", &oracle, reps, || {
        let scalar = ScalarPath(op.clone());
        let mut pair = GridPair::from_initial(initial.clone());
        let s = diamond::run_diamond_op_on(rt, &scalar, &mut pair, &dia_cfg, sweeps)
            .expect("valid config");
        (pair.current(sweeps).clone(), s)
    }));
    rows.push(cell(op, "dist", "on", &oracle, reps, || {
        dist_run(op, &initial, sweeps, [2, 1, 1], &LocalExec::Seq)
    }));
    rows.push(cell(op, "dist-diamond", "on", &oracle, reps, || {
        // 8 ranks, each advancing its box with diamond blocking.
        let exec =
            LocalExec::Diamond(DiamondConfig::with_width(2, 6).with_threads_per_tile(team_tpt));
        dist_run(op, &initial, sweeps, [2, 2, 2], &exec)
    }));
}

/// One distributed run: every rank advances with `exec`, rank 0 gathers
/// the global grid, stats are merged across ranks.
fn dist_run<Op: StencilOp<f64>>(
    op: &Op,
    initial: &Grid3<f64>,
    sweeps: usize,
    pgrid: [usize; 3],
    exec: &LocalExec,
) -> (Grid3<f64>, RunStats) {
    let dec = Decomposition::new(initial.dims(), pgrid, 2);
    let results = Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(&dec, cart.coords(), initial, exec.clone(), op.clone())
                .expect("valid decomposition");
        let stats = s.run_sweeps(&mut cart, sweeps);
        (s.gather_global(&mut cart, &dec, initial), stats)
    });
    let mut grid = None;
    let mut agg = RunStats::new(0, std::time::Duration::ZERO);
    for (g, s) in results {
        agg = agg.merge_parallel(&s);
        if let Some(g) = g {
            grid = Some(g);
        }
    }
    (grid.expect("rank 0 gathers"), agg)
}

fn main() {
    let args = Args::parse();
    let edge = args.get_usize("--size", 40);
    let sweeps = args.get_usize("--sweeps", 8);
    let reps = args.get_usize("--reps", 2);
    let tpt = args.get_usize("--threads-per-tile", 1);
    let machine = tb_topology::detect::detect();
    let threads = machine.cores_per_socket().max(2);
    let dims = tb_grid::Dims3::cube(edge);

    println!(
        "operator × method sweep — {edge}^3, {sweeps} sweeps, best of {reps}, \
         threads/tile {tpt}\n"
    );

    // One team for every shared-memory cell (`threads` >= the fixed
    // two-thread pipelined / wavefront / diamond teams).
    let rt = Runtime::with_threads(threads);
    let mut rows = Vec::new();
    sweep_op(&rt, &Jacobi6, edge, sweeps, reps, tpt, &mut rows);
    sweep_op(&rt, &Jacobi7::heat(0.1), edge, sweeps, reps, tpt, &mut rows);
    sweep_op(
        &rt,
        &VarCoeff7::banded(dims),
        edge,
        sweeps,
        reps,
        tpt,
        &mut rows,
    );
    sweep_op(&rt, &Avg27, edge, sweeps, reps, tpt, &mut rows);

    println!(
        "{:<11} {:<12} {:>5} {:>10} {:>10} {:>9}",
        "op", "method", "simd", "MLUP/s", "MFLOP/s", "verified"
    );
    for r in &rows {
        println!(
            "{:<11} {:<12} {:>5} {:>10.1} {:>10.1} {:>9}",
            r.op, r.method, r.simd, r.mlups, r.mflops, r.verified
        );
    }

    let all_verified = rows.iter().all(|r| r.verified);
    let json = format!(
        "{{\n  \"edge\": {edge},\n  \"sweeps\": {sweeps},\n  \"threads\": {threads},\n  \
         \"threads_per_tile\": {tpt},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.iter()
            .map(|r| {
                format!(
                    "    {{\"op\": \"{}\", \"method\": \"{}\", \"simd\": \"{}\", \
                     \"mlups\": {:.2}, \"mflops\": {:.2}, \"verified\": {}}}",
                    r.op, r.method, r.simd, r.mlups, r.mflops, r.verified
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = args.get("--out").unwrap_or("BENCH_ops.json");
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_ops.json");
    println!("\nwrote {path}");

    assert!(
        all_verified,
        "some runs diverged from their sequential oracle"
    );
    println!(
        "all {} operator × method runs matched their sequential oracle bitwise",
        rows.len()
    );
}
