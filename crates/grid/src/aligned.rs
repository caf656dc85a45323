//! Cache-line aligned heap storage.
//!
//! The paper's baseline applies "data alignment" as one of its standard
//! optimizations (§1.1). [`AlignedVec`] allocates storage aligned to
//! [`ALIGN`] bytes (one x86 cache line, also sufficient for AVX-512
//! loads), so that grid rows never straddle a cache line needlessly and
//! streaming kernels vectorize cleanly.
//!
//! # What the alignment is for
//!
//! Element 0 of every allocation starts a cache line (and a full vector
//! of any width up to AVX-512). A [`Grid3`](crate::Grid3) keeps its
//! cells in an `AlignedVec` with one line of slack, behind an origin
//! below one line, and so chooses which cell starts a line: its *row
//! phase*. The rule: a new grid puts cell 1 on a line, and the facade
//! and the distributed solver bring every grid they sweep to the phase
//! of its operator (`StencilOp::ALIGNED_CELL` in `tb-stencil`) — the
//! first interior cell for the cross operators, the cell before it for
//! `Avg27`, whose column loads start one cell earlier. For an x-extent
//! that is a whole number of cache lines, that cell of every row then
//! starts a line. On a 2-vCPU KVM host that made the benchmark's
//! `stream-j6` diamond solve 1.02–1.14× (median 1.12×) as fast as with
//! rows starting on a line, in 10 of 10 paired runs. Executors called
//! directly keep the phase they are given, so the one expected
//! per-layer shift is `Avg27` on a default-phase grid:
//! `kernel.row_mlups` on `cache-a27`'s traced pass reads 10–15 % lower,
//! while its facade solves run in `Avg27`'s phase as before. The compiler-vectorized row loops use unaligned
//! loads and stores, so nothing depends on the alignment for
//! correctness. The guarantee is a property of the *allocation*, and
//! the phase one of the grid, so both survive any amount of buffer
//! reuse (e.g. `tb-runtime`'s `GridPool` recycling — the pool hands
//! back the same grids, never reallocates or re-phases them; see the
//! pool contract tests).
//!
//! # Every element written on the allocating thread
//!
//! Every constructor writes every element on the thread that calls it,
//! so the allocating thread places every page (the ccNUMA rule
//! `tb-runtime` documents) and no page fault is left for a timed sweep.
//! [`AlignedVec::zeroed`] zero-fills; [`AlignedVec::filled`], `from_fn`
//! (behind `Grid3::from_fn` and so `init::random`) and `clone` write
//! their values. A large block (below) is written exactly once: those
//! three write into uninitialized storage, so the write is each page's
//! first touch. A smaller block is zero-filled first, as it always was.
//! It is usually reused heap memory, so that pass costs no fault, and
//! skipping it measured slower: with uninitialized small blocks the
//! dist control cell of the `serve-mix` benchmark lost 7–13 %
//! `dist_mlups`, in every one of 11 paired runs, for a reason not found.
//!
//! # Large grids
//!
//! An allocation of at least 32 MiB takes a second path. 32 MiB is
//! glibc's largest dynamic `mmap` threshold: above it every allocation is
//! a fresh mapping whose pages fault on first touch anyway, while below
//! it a freed block is reused without faults, so the smaller path is left
//! exactly as it was. A large block is
//!
//! - aligned to 2 MiB, the x86-64 / aarch64 huge-page size;
//! - advised `MADV_HUGEPAGE` on Linux before anything touches it, so a
//!   kernel whose transparent huge pages run in `madvise` mode backs it
//!   with 2 MiB pages (errors are ignored: the advice is only advice, and
//!   other targets skip it). One fault then maps 512 times the memory:
//!   on a 2-vCPU KVM host `Grid3::zeroed` of a 288³ f64 grid fell from
//!   100–162 ms to 34–70 ms;
//! - *staggered*: element 0 sits a multiple of 4 KiB into the first huge
//!   page, allocation `k` at slot `(317·k) mod 512`. Two grids at equal
//!   offsets from a 2 MiB boundary put the cells at equal indices in the
//!   same L1 and L2 sets, and a sweep that reads one grid and writes the
//!   other thrashes them: unstaggered, the baseline, diamond and
//!   pipelined solves of a 288³ Jacobi all ran at 470–490 MLUP/s, against
//!   1110–1800 staggered. 317 is odd, so 512 consecutive allocations take
//!   512 distinct slots: the stagger gives back the varied address bits
//!   12–20 that 4 KiB pages used to give;
//! - still written in full on construction. Lazy zero pages would move
//!   every fault into the first timed sweep and onto whichever thread
//!   reaches a page first.
//!
//! [`Drop`] finds the block's base by rounding element 0 down to 2 MiB
//! and frees it with the layout it was allocated with.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Alignment in bytes of every [`AlignedVec`] allocation.
pub const ALIGN: usize = 64;

/// Byte size from which an allocation takes the huge-page path.
const LARGE: usize = 32 << 20;
/// Alignment of a large block: one huge page.
const HUGE_PAGE: usize = 2 << 20;
/// Granularity of the stagger: one base page.
const SLOT: usize = 4 << 10;
/// Odd stride of the stagger through the `HUGE_PAGE / SLOT` slots.
const STAGGER: usize = 317;
/// Large allocations made so far; allocation `k` takes slot `k · STAGGER`.
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// A fixed-length, 64-byte aligned vector.
///
/// Unlike `Vec<T>`, the length is fixed at construction; stencil grids never
/// grow. Dereferences to `[T]`.
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively; it is a plain buffer.
unsafe impl<T: Send> Send for AlignedVec<T> {}
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    /// Allocate `len` zero-initialized elements.
    ///
    /// Only meaningful for plain number types where the all-zero bit
    /// pattern is a valid value (`f32`/`f64`/integers) — which is all this
    /// workspace stores.
    ///
    /// # Panics
    /// Panics if `len == 0` or the size computation overflows.
    pub fn zeroed(len: usize) -> Self {
        Self::allocate(len, true)
    }

    /// Allocate and fill with `value`.
    pub fn filled(len: usize, value: T) -> Self {
        Self::from_fn(len, |_| value)
    }

    /// Allocate `len` elements, element `i` set to `f(i)`, called in
    /// index order.
    pub(crate) fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let v = Self::allocate(len, false);
        let p = v.ptr.as_ptr();
        for i in 0..len {
            // SAFETY: `i < len` and the allocation holds `len` elements;
            // `write` does not read the uninitialized old value. Until the
            // loop ends nothing reads `v`: if `f` panics, `Drop` only
            // frees the block.
            unsafe { p.add(i).write(f(i)) };
        }
        v
    }

    /// `len` elements of storage, zero-filled if `zero` or if the block
    /// is small, else uninitialized: the caller writes every element
    /// before anything reads it.
    fn allocate(len: usize, zero: bool) -> Self {
        assert!(len > 0, "AlignedVec of length 0 is not supported");
        assert!(
            std::mem::size_of::<T>() > 0,
            "zero-sized elements not supported"
        );
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("allocation size overflow");
        let raw = if bytes < LARGE {
            let layout = Layout::from_size_align(bytes, ALIGN).expect("invalid layout");
            // Zeroed even for a caller that overwrites it: skipping this
            // pass measured slower (module docs).
            // SAFETY: layout has non-zero size (both asserts above).
            let raw = unsafe { alloc_zeroed(layout) };
            if raw.is_null() {
                handle_alloc_error(layout)
            }
            raw
        } else {
            alloc_large(bytes, zero)
        };
        Self {
            ptr: NonNull::new(raw as *mut T).expect("allocation is non-null"),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to the first element (64-byte aligned).
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Raw mutable pointer to the first element (64-byte aligned).
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }
}

/// Element 0 of a new large block of `bytes` bytes (at least [`LARGE`]),
/// zero-filled if `zero`: 2 MiB-aligned, advised for huge pages and
/// staggered (module docs). Rare and non-generic, so kept out of line.
#[cold]
fn alloc_large(bytes: usize, zero: bool) -> *mut u8 {
    let k = LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let offset = (k.wrapping_mul(STAGGER) % (HUGE_PAGE / SLOT)) * SLOT;
    let layout = large_layout(offset, bytes);
    // SAFETY: layout has non-zero size (`bytes >= LARGE`).
    let base = unsafe { alloc(layout) };
    if base.is_null() {
        handle_alloc_error(layout)
    }
    advise_huge_pages(base, layout.size());
    // SAFETY: `offset + bytes <= layout.size()`, so the `bytes` bytes
    // from element 0 on lie inside the block.
    let raw = unsafe { base.add(offset) };
    if zero {
        // SAFETY: `raw` is valid for `bytes` writes (above).
        unsafe { raw.write_bytes(0, bytes) };
    }
    raw
}

/// Free the large block whose element 0 is `ptr`.
///
/// # Safety
/// `ptr` must be what [`alloc_large`] returned for these `bytes`, not
/// freed since.
#[cold]
unsafe fn free_large(ptr: *mut u8, bytes: usize) {
    // The block is 2 MiB-aligned and element 0 sits less than 2 MiB into
    // it.
    let offset = ptr as usize % HUGE_PAGE;
    // SAFETY: by the contract above, `ptr` is `offset` bytes into a live
    // block that `alloc_large` allocated with exactly this layout.
    unsafe { dealloc(ptr.sub(offset), large_layout(offset, bytes)) }
}

/// Layout of a large block whose element 0 sits `offset` bytes in: whole
/// huge pages, 2 MiB-aligned.
fn large_layout(offset: usize, bytes: usize) -> Layout {
    offset
        .checked_add(bytes)
        .and_then(|end| end.checked_next_multiple_of(HUGE_PAGE))
        .and_then(|size| Layout::from_size_align(size, HUGE_PAGE).ok())
        .expect("allocation size overflow")
}

/// Ask the kernel to back `len` bytes from the 2 MiB-aligned `base` with
/// transparent huge pages. Advisory: a failure leaves 4 KiB pages.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages(base: *mut u8, len: usize) {
    use std::ffi::{c_int, c_void};
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `base..base + len` is one live allocation this process
    // owns; MADV_HUGEPAGE changes how it is backed, never its contents
    // or its mapping.
    let _ = unsafe { madvise(base.cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages(_base: *mut u8, _len: usize) {}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        let bytes = self.len * std::mem::size_of::<T>();
        let ptr = self.ptr.as_ptr() as *mut u8;
        if bytes >= LARGE {
            // SAFETY: a block this size came from `alloc_large` in
            // `allocate`, and `self` owns it.
            return unsafe { free_large(ptr, bytes) };
        }
        let layout = Layout::from_size_align(bytes, ALIGN).expect("invalid layout");
        // SAFETY: ptr was allocated with exactly this layout in `allocate`.
        unsafe { dealloc(ptr, layout) }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements; &mut self gives exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        let out = Self::allocate(self.len, false);
        // SAFETY: both buffers hold `len` elements and are distinct
        // allocations; the copy writes every element of `out`.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), out.ptr.as_ptr(), self.len) };
        out
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_aligned_and_zeroed() {
        let v: AlignedVec<f64> = AlignedVec::zeroed(1000);
        assert_eq!(v.as_ptr() as usize % ALIGN, 0);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn filled_sets_every_element() {
        let v = AlignedVec::filled(17, 2.5f32);
        assert!(v.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn deref_mut_allows_writes() {
        let mut v: AlignedVec<f64> = AlignedVec::zeroed(8);
        v[3] = 42.0;
        assert_eq!(v[3], 42.0);
        v.fill(1.0);
        assert_eq!(v.iter().sum::<f64>(), 8.0);
    }

    #[test]
    fn clone_is_deep() {
        let mut a: AlignedVec<f64> = AlignedVec::zeroed(4);
        a[0] = 7.0;
        let b = a.clone();
        a[0] = 0.0;
        assert_eq!(b[0], 7.0);
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    #[should_panic]
    fn zero_length_panics() {
        let _ = AlignedVec::<f64>::zeroed(0);
    }

    #[test]
    fn many_sizes_alignment() {
        for len in [1usize, 3, 7, 8, 9, 63, 64, 65, 4096] {
            let v: AlignedVec<f64> = AlignedVec::zeroed(len);
            assert_eq!(v.as_ptr() as usize % ALIGN, 0, "len={len}");
            assert_eq!(v.len(), len);
        }
    }

    /// Elements in the smallest allocation that takes the large path.
    const LARGE_LEN: usize = LARGE / std::mem::size_of::<f64>();

    /// The 4 KiB slot of element 0 inside its huge page.
    fn slot(v: &AlignedVec<f64>) -> usize {
        let addr = v.as_ptr() as usize;
        assert_eq!(addr % SLOT, 0, "element 0 must start a 4 KiB page");
        addr % HUGE_PAGE / SLOT
    }

    #[test]
    fn large_allocation_is_zeroed_and_aligned() {
        let v: AlignedVec<f64> = AlignedVec::zeroed(LARGE_LEN);
        assert_eq!(v.as_ptr() as usize % ALIGN, 0);
        assert_eq!(v.len(), LARGE_LEN);
        assert!(v.iter().all(|&x| x == 0.0));
        // One element short takes the small path, unchanged.
        let w: AlignedVec<f64> = AlignedVec::zeroed(LARGE_LEN - 1);
        assert_eq!(w.as_ptr() as usize % ALIGN, 0);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn live_large_allocations_take_distinct_slots() {
        let live: Vec<AlignedVec<f64>> = (0..4).map(|_| AlignedVec::zeroed(LARGE_LEN)).collect();
        let mut slots: Vec<usize> = live.iter().map(slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(
            slots.len(),
            live.len(),
            "two live large grids alias modulo 2 MiB: {slots:?}"
        );
    }

    #[test]
    fn large_clone_is_deep_and_takes_its_own_slot() {
        let mut a: AlignedVec<f64> = AlignedVec::zeroed(LARGE_LEN);
        a[0] = 7.0;
        a[LARGE_LEN - 1] = 9.0;
        let b = a.clone();
        a[0] = 0.0;
        a[LARGE_LEN - 1] = 0.0;
        assert_eq!((b[0], b[LARGE_LEN - 1]), (7.0, 9.0));
        assert!(b[1..LARGE_LEN - 1].iter().all(|&x| x == 0.0));
        assert_ne!(slot(&a), slot(&b));
    }

    #[test]
    fn large_filled_and_from_fn_write_every_element() {
        let v = AlignedVec::filled(LARGE_LEN, 2.5f64);
        assert!(v.iter().all(|&x| x == 2.5));
        let w = AlignedVec::from_fn(LARGE_LEN, |i| i as f64);
        assert!(w.iter().enumerate().all(|(i, &x)| x == i as f64));
    }

    #[test]
    fn large_alloc_drop_cycles_reuse_nothing_stale() {
        for round in 0..4 {
            let z: AlignedVec<f64> = AlignedVec::zeroed(LARGE_LEN);
            assert!(z.iter().all(|&x| x == 0.0), "round {round}: stale zeroed");
            drop(z);
            let value = round as f64 + 1.5;
            let mut f = AlignedVec::filled(LARGE_LEN, value);
            assert!(f.iter().all(|&x| x == value), "round {round}: stale filled");
            f.fill(f64::NAN);
        }
    }
}
