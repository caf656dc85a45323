//! Whole-solver comparison at bench scale: baseline vs pipelined variants
//! vs wavefront on one grid size (the Criterion companion to the fig3
//! binaries).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tb_grid::{init, Dims3, GridPair};
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{baseline, pipeline, wavefront, Jacobi6, PipelineConfig, SyncMode};

const EDGE: usize = 66;
const SWEEPS: usize = 4;

fn cfg(sync: SyncMode) -> PipelineConfig {
    PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 2,
        block: [32, 16, 16],
        sync,
        scheme: GridScheme::TwoGrid,
        layout: None,
        audit: false,
    }
}

fn bench_solvers(c: &mut Criterion) {
    let dims = Dims3::cube(EDGE);
    let initial = init::random::<f64>(dims, 1);
    let updates = (SWEEPS * dims.interior_len()) as u64;
    let mut group = c.benchmark_group("solver_4sweeps_66cube");
    group.throughput(Throughput::Elements(updates));
    group.sample_size(10);
    // One two-worker team for every solver: the numbers are sweeps, not
    // thread spawns.
    let rt = Runtime::with_threads(2);

    group.bench_function("baseline_2threads_nt", |b| {
        b.iter(|| {
            let mut pair = GridPair::from_initial(initial.clone());
            baseline::par_sweeps_op_on(&rt, &Jacobi6, &mut pair, SWEEPS, 2, StoreMode::Streaming)
        });
    });
    group.bench_function("pipelined_barrier", |b| {
        let c = cfg(SyncMode::Barrier);
        b.iter(|| {
            let mut pair = GridPair::from_initial(initial.clone());
            pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &c, SWEEPS).unwrap()
        });
    });
    group.bench_function("pipelined_relaxed_du4", |b| {
        let c = cfg(SyncMode::relaxed_default());
        b.iter(|| {
            let mut pair = GridPair::from_initial(initial.clone());
            pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &c, SWEEPS).unwrap()
        });
    });
    group.bench_function("wavefront_2threads", |b| {
        b.iter(|| {
            let mut pair = GridPair::from_initial(initial.clone());
            wavefront::run_wavefront_op_on(&rt, &Jacobi6, &mut pair, 2, SWEEPS).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
