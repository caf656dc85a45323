//! Regression tests pinning the [`GridPool`] contract.
//!
//! Every executor that acquires staging storage from a runtime's pool
//! leans on three promises that were previously only exercised
//! implicitly through the solver suites:
//!
//! 1. **Stale contents** — a reused grid keeps the contents of its
//!    previous life; consumers must write before reading (the solver
//!    suites hold them to that bitwise), and the pool must *not* spend
//!    a zeroing pass per acquire.
//! 2. **Bounded parking, oldest evicted** — at most 8 grids wait for
//!    reuse; releasing a ninth drops the oldest parked grid, so
//!    long-running services cycling through problem shapes stay
//!    bounded.
//! 3. **Per-element-type keying** — `grid_pool::<f32>()` and
//!    `grid_pool::<f64>()` are distinct pools on the same runtime;
//!    dimensions are matched exactly within a pool.

//! 4. **Page placement** — the allocating thread places a grid's pages, and
//!    that decides *where pages live*, never *what they hold*: a result
//!    in a pool-miss buffer is bitwise the one in a pool-hit buffer. The
//!    warm serving path allocates nothing, and restricted sub-machines
//!    report the NUMA nodes their cores actually span.
//! 5. **The planes and y-rows are enough** — the facade copies only the
//!    Dirichlet shell's z planes and y rows into a recycled B buffer
//!    (the sweeps carry the x-faces along with the rows); a buffer
//!    released full of NaN, shell included, must not change a single
//!    bit of any method's result.

use std::sync::Arc;

use temporal_blocking::grid::{init, norm, CompressedGrid, Dims3, Grid3, Region3};
use temporal_blocking::prelude::*;
use temporal_blocking::runtime::GridPool;
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::topology::NumaDomain;

/// The documented parking bound: releasing beyond it evicts the oldest.
const MAX_FREE_GRIDS: usize = 8;

#[test]
fn reused_grids_keep_stale_contents_and_fresh_ones_are_zeroed() {
    let pool: GridPool<f64> = GridPool::new();
    let mut g = pool.acquire(Dims3::cube(6));
    assert!(
        g.as_slice().iter().all(|v| *v == 0.0),
        "a fresh allocation must be zeroed"
    );
    g.set(2, 3, 4, 7.5);
    pool.release(g);

    let again = pool.acquire(Dims3::cube(6));
    assert_eq!(
        again.get(2, 3, 4),
        7.5,
        "a recycled grid must hand back its stale contents (no zeroing pass)"
    );
}

#[test]
fn row_alignment_survives_pool_reuse() {
    // A grid's row phase — the cell that starts a cache line — is a
    // property of the grid, so a pool that handed back recycled storage
    // in another phase would silently make the streamed cells straddle
    // lines. It must hold for fresh AND recycled grids — for an x-extent
    // that is a whole number of cache lines, on every row: a fresh grid
    // in the default phase, a recycled one in the phase it was released
    // in, whatever that was.
    use temporal_blocking::grid::aligned::ALIGN;
    use temporal_blocking::grid::grid3::DEFAULT_PHASE;
    let pool: GridPool<f64> = GridPool::new();
    let dims = Dims3::new(2 * ALIGN / std::mem::size_of::<f64>(), 5, 4); // two lines per row
    let check = |g: &Grid3<f64>, phase: usize, life: &str| {
        assert_eq!(g.phase(), phase, "{life}: phase");
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                assert_eq!(
                    g.row(y, z)[phase..].as_ptr() as usize % ALIGN,
                    0,
                    "{life}: cell ({phase},{y},{z}) lost {ALIGN}-byte alignment"
                );
            }
        }
    };
    let mut g = pool.acquire(dims);
    check(&g, DEFAULT_PHASE, "fresh");
    for (round, phase) in [0, 5, 1, 0].into_iter().enumerate() {
        g.set_phase(phase);
        let first_ptr = g.row(0, 0).as_ptr();
        pool.release(g);
        g = pool.acquire(dims);
        check(&g, phase, "recycled");
        assert_eq!(
            g.row(0, 0).as_ptr(),
            first_ptr,
            "round {round}: pool reallocated or re-phased instead of recycling"
        );
    }
}

#[test]
fn oldest_parked_grid_is_evicted_at_the_bound() {
    let pool: GridPool<f64> = GridPool::new();
    // Park MAX + 2 distinguishable grids (distinct dims, marked cells).
    for k in 0..MAX_FREE_GRIDS + 2 {
        let mut g = Grid3::zeroed(Dims3::cube(3 + k));
        g.set(1, 1, 1, k as f64 + 1.0);
        pool.release(g);
    }
    assert_eq!(
        pool.free_grids(),
        MAX_FREE_GRIDS,
        "the pool must park at most {MAX_FREE_GRIDS} grids"
    );
    // The two oldest (k = 0, 1) were dropped: acquiring their dims
    // yields fresh zeroed storage and leaves the parked set alone.
    for k in 0..2 {
        let g = pool.acquire(Dims3::cube(3 + k));
        assert_eq!(
            g.get(1, 1, 1),
            0.0,
            "evicted shape {k} must come back fresh"
        );
        assert_eq!(pool.free_grids(), MAX_FREE_GRIDS);
    }
    // The newest MAX are all still there, stale marks intact, and the
    // pool drains one grid per matching acquire.
    for k in 2..MAX_FREE_GRIDS + 2 {
        let g = pool.acquire(Dims3::cube(3 + k));
        assert_eq!(g.get(1, 1, 1), k as f64 + 1.0, "shape {k} must be recycled");
    }
    assert_eq!(pool.free_grids(), 0);
}

#[test]
fn eviction_is_fifo_not_lifo() {
    let pool: GridPool<f64> = GridPool::new();
    // Fill to the bound with one shape, then overflow with another:
    // the dropped grid must be the *first* released, not the last.
    let mut first = Grid3::zeroed(Dims3::cube(4));
    first.set(1, 1, 1, 42.0);
    pool.release(first);
    for _ in 0..MAX_FREE_GRIDS - 1 {
        pool.release(Grid3::zeroed(Dims3::cube(5)));
    }
    pool.release(Grid3::zeroed(Dims3::cube(6))); // overflow
    assert_eq!(pool.free_grids(), MAX_FREE_GRIDS);
    let g = pool.acquire(Dims3::cube(4));
    assert_eq!(
        g.get(1, 1, 1),
        0.0,
        "the oldest grid (the mark) was evicted"
    );
}

#[test]
fn dims_are_matched_exactly_within_a_pool() {
    let pool: GridPool<f32> = GridPool::new();
    pool.release(Grid3::zeroed(Dims3::new(8, 4, 2)));
    // Same cell count, different shape: must not be handed out.
    let g = pool.acquire(Dims3::new(2, 4, 8));
    assert_eq!(g.dims(), Dims3::new(2, 4, 8));
    assert_eq!(pool.free_grids(), 1, "the mismatched grid stays parked");
    let h = pool.acquire(Dims3::new(8, 4, 2));
    assert_eq!(h.dims(), Dims3::new(8, 4, 2));
    assert_eq!(pool.free_grids(), 0);
}

#[test]
fn runtime_pools_are_keyed_per_element_type() {
    let rt = Runtime::with_threads(1);
    let p64 = rt.grid_pool::<f64>();
    let p32 = rt.grid_pool::<f32>();
    p64.release(Grid3::zeroed(Dims3::cube(5)));
    assert_eq!(p64.free_grids(), 1);
    assert_eq!(
        p32.free_grids(),
        0,
        "an f64 release must not surface in the f32 pool"
    );
    // Repeated lookups return the same pool object.
    assert!(Arc::ptr_eq(&p64, &rt.grid_pool::<f64>()));
    // The eviction bound applies per pool, not across types.
    for k in 0..MAX_FREE_GRIDS {
        p32.release(Grid3::zeroed(Dims3::cube(3 + k)));
    }
    assert_eq!(p32.free_grids(), MAX_FREE_GRIDS);
    assert_eq!(
        p64.free_grids(),
        1,
        "the f64 pool is untouched by f32 churn"
    );
}

#[test]
fn pooled_grids_return_on_drop_and_outlive_the_runtime() {
    let rt = Runtime::with_threads(1);
    let pool = rt.grid_pool::<f64>();
    {
        let mut p = pool.acquire_pooled(Dims3::cube(7));
        p.set(1, 2, 3, 9.0);
        assert_eq!(pool.free_grids(), 0, "a live PooledGrid is not parked");
    }
    assert_eq!(pool.free_grids(), 1, "drop returns the grid to the pool");
    // A PooledGrid may outlive the runtime that handed it out: the Arc
    // inside keeps the pool alive.
    let p = pool.acquire_pooled(Dims3::cube(7));
    drop(rt);
    assert_eq!(p.get(1, 2, 3), 9.0, "stale contents survive the runtime");
}

#[test]
fn pool_capacity_knob_rebounds_eviction_per_runtime() {
    // The 8-grid default is a policy, not a law: a long-lived server
    // slice cycling through many tenant problem shapes asks for more
    // parking via `Runtime::with_pool_capacity`, and every pool the
    // runtime creates afterwards honors the new bound — in both
    // directions, and per element type.
    for cap in [1usize, 3, MAX_FREE_GRIDS + 4] {
        let rt = Runtime::with_threads(1).with_pool_capacity(cap);
        assert_eq!(rt.pool_capacity(), cap);
        let pool = rt.grid_pool::<f64>();
        for k in 0..cap + 3 {
            pool.release(Grid3::zeroed(Dims3::cube(3 + k)));
        }
        assert_eq!(
            pool.free_grids(),
            cap,
            "capacity {cap}: overflow must evict down to the bound"
        );
        // Eviction stays FIFO under the custom bound: the 3 oldest
        // shapes are gone, the newest `cap` are recycled verbatim.
        let fresh = pool.acquire(Dims3::cube(3));
        assert!(fresh.as_slice().iter().all(|v| *v == 0.0));
        // The knob also reaches the other element type's pool.
        let p32 = rt.grid_pool::<f32>();
        for k in 0..cap + 1 {
            p32.release(Grid3::zeroed(Dims3::cube(3 + k)));
        }
        assert_eq!(p32.free_grids(), cap);
    }
    // Untouched runtimes keep the documented default.
    let rt = Runtime::with_threads(1);
    assert_eq!(rt.pool_capacity(), MAX_FREE_GRIDS);
    assert_eq!(
        temporal_blocking::runtime::DEFAULT_POOL_CAPACITY,
        MAX_FREE_GRIDS
    );
}

#[test]
fn placement_policies_produce_bitwise_identical_results() {
    // A pool miss is a fresh grid whose pages the calling thread places;
    // a pool hit is a recycled grid whose pages an earlier solve placed.
    // Where a page lives never changes what it holds: every parallel
    // method must produce the identical bit pattern from either buffer,
    // and both must match the sequential oracle. Odd sweep count on
    // purpose: the result then lives in the pool-acquired B buffer.
    let dims = Dims3::cube(18);
    let initial: Grid3<f64> = init::random(dims, 0xFACE);
    let sweeps = 3;
    let (oracle, _) = solve_with(&Jacobi6, initial.clone(), sweeps, Method::Sequential).unwrap();
    let methods = [
        Method::Parallel {
            threads: 2,
            streaming_stores: false,
        },
        Method::Pipelined(PipelineConfig::wavefront(2)),
        Method::Pipelined(PipelineConfig::default_for(2, 1)),
    ];
    for method in methods {
        let rt = Runtime::with_threads(2);
        let pool = rt.grid_pool::<f64>();
        // Miss: the empty pool allocates B, and the input goes back to
        // the pool as the spare.
        let first_input = initial.clone();
        let recycled = first_input.as_ptr();
        let (miss, _) = solve_with_on(&rt, &Jacobi6, first_input, sweeps, method.clone()).unwrap();
        assert!(pool.fresh_allocations() > 0, "{method:?}: B was a miss");
        // Hit: B is the first solve's input allocation, recycled.
        let fresh = pool.fresh_allocations();
        let (hit, _) =
            solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, method.clone()).unwrap();
        assert_eq!(pool.fresh_allocations(), fresh, "{method:?}: B was a hit");
        assert_eq!(hit.as_ptr(), recycled, "{method:?}: result lives in B");
        for (got, life) in [(&miss, "pool miss"), (&hit, "pool hit")] {
            let what = format!("{method:?} from a {life}");
            norm::assert_grids_identical(&oracle, got, &Region3::whole(dims), &what);
        }
        norm::assert_grids_identical(
            &miss,
            &hit,
            &Region3::whole(dims),
            &format!("{method:?}: pool miss vs pool hit"),
        );
    }
}

#[test]
fn thin_grids_from_a_poisoned_pooled_buffer_match_the_oracle() {
    // One interior cell per row: each sweep carries both x-faces of a
    // row at once. No interior at all: every method refuses the grid
    // before touching the pool.
    let rt = Runtime::with_threads(2);
    let pool = rt.grid_pool::<f64>();
    let methods = [
        Method::Sequential,
        Method::Parallel {
            threads: 2,
            streaming_stores: false,
        },
    ];
    let dims = Dims3::new(3, 6, 5);
    let initial: Grid3<f64> = init::random(dims, 0x7A1);
    for sweeps in [1, 2] {
        let (oracle, _) =
            solve_with(&Jacobi6, initial.clone(), sweeps, Method::Sequential).unwrap();
        for method in &methods {
            let mut g = rt.acquire_grid::<f64>(dims);
            g.as_mut_slice().fill(f64::NAN);
            pool.release(g);
            let (got, _) =
                solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, method.clone()).unwrap();
            let what = format!("{dims} x{sweeps} via {method:?}");
            norm::assert_grids_identical(&oracle, &got, &Region3::whole(dims), &what);
        }
    }
    for dims in [Dims3::new(2, 6, 5), Dims3::new(6, 5, 2)] {
        let initial: Grid3<f64> = init::random(dims, 0x7A1);
        for method in &methods {
            let fresh = pool.fresh_allocations();
            let err = solve_with_on(&rt, &Jacobi6, initial.clone(), 1, method.clone())
                .expect_err("a grid without interior is refused");
            assert!(err.contains("no interior"), "{dims} via {method:?}: {err}");
            assert_eq!(pool.fresh_allocations(), fresh, "{dims} via {method:?}");
        }
    }
}

#[test]
fn solves_from_a_poisoned_pooled_buffer_match_the_oracle_and_allocate_nothing() {
    // `solve_with_on` pairs the input with a recycled pool buffer and
    // copies in the boundary shell's z planes and y rows only. That is
    // sound iff every executor writes each interior cell of that buffer,
    // and carries each x-face cell, before any sweep reads it — so
    // poison every parked buffer with NaN before each solve: one stale
    // read (or one x-face left uncarried) and the result is NaN, not
    // the oracle.
    fn check<T: Real, Op: StencilOp<T>>(op: &Op, dims: Dims3) {
        let pipe = PipelineConfig::default_for(2, 1);
        let shapes = [
            dims,
            CompressedGrid::<T>::alloc_dims_for(dims, pipe.stages()),
        ];
        let methods = [
            Method::Sequential,
            Method::Blocked { block: [7, 5, 6] },
            Method::Parallel {
                threads: 2,
                streaming_stores: false,
            },
            Method::Parallel {
                threads: 2,
                streaming_stores: true,
            },
            Method::Pipelined(pipe.clone()),
            Method::Pipelined(PipelineConfig {
                scheme: GridScheme::Compressed,
                ..pipe
            }),
            Method::Pipelined(PipelineConfig::wavefront(2)),
            Method::Diamond(DiamondConfig::with_width(2, 6)),
            Method::Diamond(DiamondConfig::with_width(2, 6).with_threads_per_tile(2)),
        ];
        let rt = Runtime::with_threads(2);
        let pool = rt.grid_pool::<T>();
        let initial: Grid3<T> = init::random(dims, 0xBAD5EED);
        for sweeps in [4, 5] {
            let (oracle, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
            for method in &methods {
                for shape in shapes {
                    let mut g = rt.acquire_grid::<T>(shape);
                    g.as_mut_slice().fill(T::from_f64(f64::NAN));
                    pool.release(g);
                }
                let fresh = pool.fresh_allocations();
                let (got, _) =
                    solve_with_on(&rt, op, initial.clone(), sweeps, method.clone()).unwrap();
                let what = format!("{} x{sweeps} via {method:?}", op.name());
                norm::assert_grids_identical(&oracle, &got, &Region3::whole(dims), &what);
                assert_eq!(pool.fresh_allocations(), fresh, "{what} allocated");
            }
        }
    }
    fn every_operator<T: Real>() {
        let dims = Dims3::new(14, 13, 12);
        check::<T, _>(&Jacobi6, dims);
        check::<T, _>(&Jacobi7::heat(0.11), dims);
        check::<T, _>(&VarCoeff7::banded(dims), dims);
        check::<T, _>(&Avg27, dims);
    }
    every_operator::<f64>();
    every_operator::<f32>();
}

#[test]
fn compressed_solves_hand_back_the_input_allocation() {
    // The compressed method expands its result into the consumed input
    // instead of allocating a grid outside the pool ledger.
    let dims = Dims3::cube(14);
    let initial: Grid3<f64> = init::random(dims, 3);
    let (oracle, _) = solve_with(&Jacobi6, initial.clone(), 5, Method::Sequential).unwrap();
    let rt = Runtime::with_threads(2);
    let input = initial.as_ptr();
    let method = Method::Pipelined(PipelineConfig {
        scheme: GridScheme::Compressed,
        ..PipelineConfig::default_for(2, 1)
    });
    let (got, _) = solve_with_on(&rt, &Jacobi6, initial, 5, method).unwrap();
    assert_eq!(
        got.as_ptr(),
        input,
        "the result must reuse the input's storage"
    );
    norm::assert_grids_identical(&oracle, &got, &Region3::whole(dims), "compressed");
}

#[test]
fn warm_serve_path_allocates_no_grids() {
    // A single-slice server (deterministic job→slice assignment) must
    // allocate only on the first job of a shape; every later job of
    // that shape runs entirely off recycled pool grids, including the
    // op-owned coefficient grid of VarCoeff7 (cached per shape in the
    // slice loop).
    let server = Server::new(&Machine::flat(2), ServerConfig::default());
    assert_eq!(server.slices().len(), 1);
    let submit = |seed: u64| {
        let spec = JobSpec::new(
            JobOp::VarCoeff7Banded,
            JobPayload::F64(init::random(Dims3::cube(12), seed)),
            2,
            JobMethod::Fixed(Method::Parallel {
                threads: 2,
                streaming_stores: false,
            }),
        );
        server.submit(spec).unwrap().wait().expect("job succeeds").1
    };
    let cold = submit(1);
    assert!(
        cold.pool_fresh > 0,
        "the first job of a shape must fault in pool grids"
    );
    for seed in 2..5 {
        let warm = submit(seed);
        assert_eq!(warm.pool_fresh, 0, "warm job {seed} must not allocate");
    }
}

#[test]
fn restricted_sub_machines_report_their_numa_nodes() {
    // Fallback model: no detected NUMA tree → sockets are the locality
    // domains, and restriction tracks the surviving sockets.
    let m = Machine::nehalem_ep();
    assert_eq!(m.num_numa_nodes(), 2);
    let slice = m.restrict(&[0, 1, 2, 3]);
    assert_eq!(slice.num_numa_nodes(), 1);
    assert_eq!(slice.numa_nodes()[0].cpus, vec![0, 1, 2, 3]);

    // Detected domains override the fallback and are filtered the same
    // way: a slice straddling two domains keeps both, trimmed to its
    // own cores.
    let mut detected = Machine::nehalem_ep();
    detected.numa = vec![
        NumaDomain {
            id: 0,
            cpus: vec![0, 1, 2, 3],
        },
        NumaDomain {
            id: 1,
            cpus: vec![4, 5, 6, 7],
        },
    ];
    let straddling = detected.restrict(&[2, 3, 4, 5]);
    assert_eq!(straddling.num_numa_nodes(), 2);
    assert_eq!(straddling.numa_nodes()[0].cpus, vec![2, 3]);
    assert_eq!(straddling.numa_nodes()[1].cpus, vec![4, 5]);
    // The signature (the plan-cache key) carries the node count, so
    // plans tuned on differently-sliced machines never collide.
    assert!(straddling.signature().ends_with("+n2"));
    assert!(slice.signature().ends_with("+n1"));
}
