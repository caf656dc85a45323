//! Staging-grid recycling.
//!
//! Per-cycle staging allocations — overlapped-exchange snapshot grids,
//! the B buffer of a two-grid pipeline, compressed-grid storage — are
//! the allocator-side twin of per-sweep thread spawning: cheap once,
//! expensive times ten thousand. [`GridPool`]
//! keeps returned grids and hands them back to the next acquirer with
//! matching dimensions.
//!
//! **Reuse contract:** a reused grid keeps the *stale contents* of its
//! previous life (a fresh one is zeroed by allocation), and its row
//! phase (`Grid3::phase`; a fresh one has the default): a consumer that
//! sweeps it with an operator of another phase re-points it first. Every consumer
//! in this workspace writes a region before reading it — staging shells
//! are snapshotted, ghost slabs unpacked, pipeline B buffers copied from
//! the initial state — and the bitwise verification suites hold them to
//! that, so no zeroing pass is spent per acquire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tb_grid::{Dims3, Grid3, Real};
use tb_sync::lock;

/// Default number of grids a pool parks before evicting the oldest:
/// long-running services solving many distinct problem shapes must not
/// accumulate dead allocations without bound. Large enough for every
/// concurrent consumer in this workspace. Long-lived per-tenant
/// runtimes serving a wide problem mix raise it with
/// [`GridPool::with_capacity`] /
/// [`crate::Runtime::with_pool_capacity`].
pub const DEFAULT_POOL_CAPACITY: usize = 8;

/// A pool of same-typed grids, keyed by their dimensions.
pub struct GridPool<T: Real> {
    free: Mutex<Vec<Grid3<T>>>,
    capacity: usize,
    /// Fresh `Grid3::zeroed` allocations performed by [`GridPool::acquire`]
    /// misses over the pool's lifetime — the observable half of the
    /// "warm paths allocate nothing" contract.
    fresh: AtomicU64,
}

impl<T: Real> GridPool<T> {
    /// A pool with the default capacity ([`DEFAULT_POOL_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_POOL_CAPACITY)
    }

    /// A pool parking at most `capacity` grids (≥ 1); beyond that,
    /// [`GridPool::release`] evicts the oldest parked grid.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a grid pool needs capacity >= 1");
        Self {
            free: Mutex::new(Vec::new()),
            capacity,
            fresh: AtomicU64::new(0),
        }
    }

    /// The eviction bound this pool was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Take a grid of exactly `dims`: a recycled one when available
    /// (stale contents — see the module docs), else a fresh zeroed
    /// allocation.
    pub fn acquire(&self, dims: Dims3) -> Grid3<T> {
        let recycled = {
            let mut free = lock(&self.free);
            free.iter()
                .position(|g| g.dims() == dims)
                .map(|i| free.swap_remove(i))
        };
        recycled.unwrap_or_else(|| {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            Grid3::zeroed(dims)
        })
    }

    /// Fresh allocations performed by acquire misses since the pool was
    /// built. A warm serving path holds this flat across jobs.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Return a grid for later reuse. The oldest parked grid is dropped
    /// when the pool is already full ([`GridPool::capacity`]), so a pool
    /// shared across many problem shapes stays bounded.
    pub fn release(&self, grid: Grid3<T>) {
        let mut free = lock(&self.free);
        if free.len() >= self.capacity {
            free.remove(0);
        }
        free.push(grid);
    }

    /// [`GridPool::acquire`] wrapped so the grid returns automatically.
    pub fn acquire_pooled(self: &Arc<Self>, dims: Dims3) -> PooledGrid<T> {
        PooledGrid {
            grid: Some(self.acquire(dims)),
            pool: Arc::clone(self),
        }
    }

    /// Number of grids currently waiting for reuse (diagnostics/tests).
    pub fn free_grids(&self) -> usize {
        lock(&self.free).len()
    }
}

impl<T: Real> Default for GridPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII wrapper: dereferences to the grid, returns it to its pool on
/// drop. Keeps the pool alive through an `Arc`, so it may outlive the
/// [`crate::Runtime`] that handed it out.
pub struct PooledGrid<T: Real> {
    grid: Option<Grid3<T>>,
    pool: Arc<GridPool<T>>,
}

impl<T: Real> std::ops::Deref for PooledGrid<T> {
    type Target = Grid3<T>;
    fn deref(&self) -> &Grid3<T> {
        self.grid.as_ref().expect("grid present until drop")
    }
}

impl<T: Real> std::ops::DerefMut for PooledGrid<T> {
    fn deref_mut(&mut self) -> &mut Grid3<T> {
        self.grid.as_mut().expect("grid present until drop")
    }
}

impl<T: Real> Drop for PooledGrid<T> {
    fn drop(&mut self) {
        if let Some(grid) = self.grid.take() {
            self.pool.release(grid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_matching_dims_only() {
        let pool: GridPool<f64> = GridPool::new();
        let mut g = pool.acquire(Dims3::cube(6));
        g.set(1, 1, 1, 42.0);
        pool.release(g);
        assert_eq!(pool.free_grids(), 1);

        // Different dims: fresh allocation, the cached grid stays.
        let other = pool.acquire(Dims3::cube(8));
        assert_eq!(other.dims(), Dims3::cube(8));
        assert_eq!(pool.free_grids(), 1);

        // Matching dims: the recycled grid comes back, stale contents
        // and all (the documented contract).
        let again = pool.acquire(Dims3::cube(6));
        assert_eq!(again.get(1, 1, 1), 42.0);
        assert_eq!(pool.free_grids(), 0);
    }

    #[test]
    fn pooled_grid_returns_on_drop() {
        let pool: Arc<GridPool<f64>> = Arc::new(GridPool::new());
        {
            let mut p = pool.acquire_pooled(Dims3::cube(5));
            p.set(2, 2, 2, 7.0);
            assert_eq!(pool.free_grids(), 0);
        }
        assert_eq!(pool.free_grids(), 1);
        assert_eq!(pool.acquire(Dims3::cube(5)).get(2, 2, 2), 7.0);
    }

    #[test]
    fn release_evicts_the_oldest_beyond_the_cap() {
        let pool: GridPool<f64> = GridPool::new();
        assert_eq!(pool.capacity(), DEFAULT_POOL_CAPACITY);
        for edge in 3..(3 + DEFAULT_POOL_CAPACITY + 2) {
            pool.release(Grid3::zeroed(Dims3::cube(edge)));
        }
        assert_eq!(pool.free_grids(), DEFAULT_POOL_CAPACITY);
        // The two oldest (smallest) grids were evicted: acquiring their
        // dims allocates fresh zeroed storage instead of reusing.
        let g = pool.acquire(Dims3::cube(3));
        assert_eq!(g.dims(), Dims3::cube(3));
        assert_eq!(
            pool.free_grids(),
            DEFAULT_POOL_CAPACITY,
            "cube(3) was not parked"
        );
    }

    #[test]
    fn custom_capacity_bounds_eviction() {
        // Small and large capacities both honor the knob exactly.
        for cap in [1usize, 3, 32] {
            let pool: GridPool<f64> = GridPool::with_capacity(cap);
            assert_eq!(pool.capacity(), cap);
            for edge in 3..(3 + cap + 4) {
                pool.release(Grid3::zeroed(Dims3::cube(edge)));
            }
            assert_eq!(pool.free_grids(), cap, "capacity {cap}");
            // The survivors are the youngest `cap` releases.
            let youngest = Dims3::cube(3 + cap + 3);
            pool.acquire(youngest);
            assert_eq!(pool.free_grids(), cap - 1, "youngest was parked");
        }
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = GridPool::<f64>::with_capacity(0);
    }

    #[test]
    fn fresh_allocations_count_misses_only() {
        let pool: GridPool<f64> = GridPool::new();
        assert_eq!(pool.fresh_allocations(), 0);
        let g = pool.acquire(Dims3::cube(5)); // miss
        assert_eq!(pool.fresh_allocations(), 1);
        pool.release(g);
        let g = pool.acquire(Dims3::cube(5)); // hit
        assert_eq!(pool.fresh_allocations(), 1);
        let h = pool.acquire(Dims3::cube(5)); // miss: the one grid is out
        assert_eq!(pool.fresh_allocations(), 2);
        pool.release(g);
        pool.release(h);
        let _ = pool.acquire(Dims3::cube(5)); // hit
        let _ = pool.acquire(Dims3::cube(5)); // hit
        assert_eq!(pool.fresh_allocations(), 2);
        let _ = pool.acquire(Dims3::cube(9)); // miss again
        assert_eq!(pool.fresh_allocations(), 3);
    }

    #[test]
    fn pooled_grid_outlives_nothing_but_its_pool() {
        let pool: Arc<GridPool<f32>> = Arc::new(GridPool::new());
        let p = pool.acquire_pooled(Dims3::cube(4));
        drop(pool); // the Arc inside `p` keeps the pool alive
        assert_eq!(p.dims(), Dims3::cube(4));
    }
}
