//! ccNUMA page placement for runtime-owned grids.
//!
//! Linux commits a page on the NUMA domain of the thread that **first
//! writes** it (first-touch), so whoever performs the first real write
//! decides where every page of a grid lives for the rest of its life.
//! Note that `Grid3::zeroed` does *not* leave that write to anyone else:
//! its 64-byte alignment is above what std's `alloc_zeroed` can get from
//! `calloc`, so std takes `aligned_alloc` and then memsets the buffer on
//! the allocating thread, which commits every page there. The paper's §3
//! outlook (and the follow-on work, arXiv:1006.3148) makes this the
//! deciding factor for temporal blocking on ccNUMA nodes: a team
//! streaming remote pages runs at the QPI/interconnect rate, not the
//! local memory-controller rate.
//!
//! What places pages today is the allocating thread. The paper's
//! one-pipeline-per-cache-group layout gets its locality that way: each
//! `tb_dist::DistSolver` rank thread pins itself into its cache group
//! (`tb_topology::affinity::pin_current_thread`) before
//! `DistSolver::from_global_op`, which allocates and fills the rank's
//! box — both buffers — on that thread, and then runs on a runtime
//! pinned to the same group.
//!
//! [`Placement::WorkerFirstTouch`] makes [`Runtime::acquire_grid`]
//! dispatch the runtime's *pinned* workers to zero a fresh grid's
//! z-slabs in parallel — worker `k` touches the same contiguous z-band
//! the compute partitioning later hands it. Because the allocation has
//! already committed the pages (above), this is a re-touch: it warms each
//! worker's band but does not move a page. Placing pages on the domain
//! that computes on them needs a lazily committed allocation first
//! (`ROADMAP.md` item 6). [`Placement::ClientPages`] keeps the
//! historical behaviour (pages placed wherever the allocating thread
//! runs) for clients that pre-place pages themselves or run on UMA
//! hosts where the copy buys nothing.

use tb_grid::{Grid3, Real};

use crate::team::Runtime;

/// Page-placement policy for grids a [`Runtime`] hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Pages commit wherever the *calling* thread first touches them
    /// (the historical behaviour). Right when the caller already placed
    /// its pages, or on UMA hosts where placement cannot matter.
    #[default]
    ClientPages,
    /// The runtime's pinned workers zero each fresh grid's z-slabs again
    /// in their own compute partition, and bulk copies run on the
    /// workers too. The allocation has already committed the pages on
    /// the allocating thread's domain, so the zeroing re-touches them
    /// and moves none (see the module docs).
    WorkerFirstTouch,
}

impl Placement {
    /// Stable lowercase label for reports and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::ClientPages => "client-pages",
            Placement::WorkerFirstTouch => "worker-first-touch",
        }
    }
}

/// A raw slice pointer that crosses into the worker dispatch. Safe for
/// the same reason the dispatch itself is: [`Runtime::run`] blocks
/// until every participant finished, and the workers write disjoint
/// index ranges.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor rather than field access so closures capture the whole
    /// wrapper (edition-2021 disjoint capture would otherwise grab the
    /// raw `*mut T` field, which is not `Send`).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// The contiguous flat range worker `index` of `threads` owns in a
/// buffer of `len` elements laid out x-unit-stride: the same contiguous
/// z-band split the executors use, expressed in flat indices (`len` is
/// a whole number of z-planes, so plane boundaries stay aligned when
/// `threads` divides `nz`; otherwise the split is still contiguous and
/// near-equal, which is what page placement needs).
fn partition(len: usize, index: usize, threads: usize) -> std::ops::Range<usize> {
    let base = len / threads;
    let extra = len % threads;
    let start = index * base + index.min(extra);
    let end = start + base + usize::from(index < extra);
    start..end
}

/// Zero `grid` with the runtime's workers, each writing its own
/// contiguous partition. On a lazily committed allocation this would be
/// the first touch and commit pages on the workers' NUMA domains; the
/// `Grid3::zeroed` buffers it gets today were already memset by the
/// allocating thread (see the module docs), so it only re-touches pages
/// that thread placed. A no-op when the runtime has no workers to
/// dispatch.
pub(crate) fn first_touch_zero<T: Real>(rt: &Runtime, grid: &mut Grid3<T>) {
    let threads = rt.threads();
    if threads == 0 {
        return; // alloc_zeroed pages are already zero; nothing to place
    }
    let len = grid.as_slice().len();
    let ptr = SendPtr(grid.as_mut_ptr());
    rt.run(threads, &|index| {
        let range = partition(len, index, threads);
        // SAFETY: ranges are disjoint per worker and in-bounds; the
        // dispatcher (us) blocks until all workers finish, so the
        // borrow of `grid` outlives every write.
        unsafe {
            let dst = ptr.get().add(range.start);
            std::ptr::write_bytes(dst, 0, range.end - range.start);
        }
    });
}

/// Copy `src` into `dst` with the runtime's workers, each copying its
/// own contiguous partition (the same split as [`first_touch_zero`], so
/// a copy that lands on freshly first-touched pages writes them from
/// the thread that owns them). Plain single-thread copy when the
/// runtime has no workers.
pub(crate) fn parallel_copy<T: Real>(rt: &Runtime, dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "placement copy needs equal lengths");
    let threads = rt.threads();
    if threads == 0 || dst.is_empty() {
        dst.copy_from_slice(src);
        return;
    }
    let len = dst.len();
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    let src_ptr = src.as_ptr() as usize;
    rt.run(threads, &|index| {
        let range = partition(len, index, threads);
        // SAFETY: disjoint in-bounds ranges, dispatcher blocks until
        // completion, src and dst never alias (distinct grids).
        unsafe {
            let s = (src_ptr as *const T).add(range.start);
            let d = dst_ptr.get().add(range.start);
            std::ptr::copy_nonoverlapping(s, d, range.end - range.start);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::Dims3;

    #[test]
    fn partitions_are_disjoint_contiguous_and_cover() {
        for len in [0usize, 1, 7, 64, 4096, 4097] {
            for threads in [1usize, 2, 3, 8] {
                let mut next = 0;
                for i in 0..threads {
                    let r = partition(len, i, threads);
                    assert_eq!(r.start, next, "len {len} threads {threads} i {i}");
                    next = r.end;
                }
                assert_eq!(next, len, "len {len} threads {threads} must cover");
            }
        }
    }

    #[test]
    fn first_touch_zero_leaves_a_zero_grid() {
        let rt = Runtime::with_threads(3);
        let mut g: Grid3<f64> = Grid3::zeroed(Dims3::new(8, 5, 7));
        first_touch_zero(&rt, &mut g);
        assert!(g.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn parallel_copy_is_bitwise() {
        let rt = Runtime::with_threads(4);
        let src: Vec<f64> = (0..1013).map(|i| i as f64 * 0.5 - 3.0).collect();
        let mut dst = vec![0.0f64; src.len()];
        parallel_copy(&rt, &mut dst, &src);
        assert_eq!(dst, src);
        // Zero-worker runtimes degrade to a plain copy.
        let none = Runtime::with_threads(0);
        let mut dst2 = vec![0.0f64; src.len()];
        parallel_copy(&none, &mut dst2, &src);
        assert_eq!(dst2, src);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_copy_lengths_are_rejected() {
        let rt = Runtime::with_threads(1);
        parallel_copy(&rt, &mut [0.0f64; 3], &[0.0f64; 4]);
    }
}
