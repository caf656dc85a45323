//! Cache-line aligned heap storage.
//!
//! The paper's baseline applies "data alignment" as one of its standard
//! optimizations (§1.1). [`AlignedVec`] allocates zero-initialized storage
//! aligned to [`ALIGN`] bytes (one x86 cache line, also sufficient for
//! AVX-512 loads), so that grid rows never straddle a cache line needlessly
//! and streaming kernels vectorize cleanly.
//!
//! # What the alignment is for
//!
//! Element 0 of every allocation starts a cache line (and a full vector
//! of any width up to AVX-512). For an x-extent that is a whole number
//! of cache lines every grid row then starts on a line boundary: a row
//! touches the minimum number of lines and threads that own adjacent
//! rows never write the same one. The compiler-vectorized row loops use
//! unaligned loads and stores, so nothing depends on the alignment for
//! correctness. The guarantee is a property of the *allocation*, so it
//! survives any amount of buffer reuse (e.g. `tb-runtime`'s `GridPool`
//! recycling — the pool hands back the same allocations, never
//! reallocates them unaligned; see the pool contract tests).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment in bytes of every [`AlignedVec`] allocation.
pub const ALIGN: usize = 64;

/// A fixed-length, 64-byte aligned, zero-initialized vector.
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
        assert!(len > 0, "AlignedVec of length 0 is not supported");
        assert!(
            std::mem::size_of::<T>() > 0,
            "zero-sized elements not supported"
        );
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (both asserts above).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw as *mut T) else {
            handle_alloc_error(layout)
        };
        Self { ptr, len }
    }

    /// Allocate and fill with `value`.
    pub fn filled(len: usize, value: T) -> Self {
        let mut v = Self::zeroed(len);
        v.fill(value);
        v
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(
            len.checked_mul(std::mem::size_of::<T>())
                .expect("allocation size overflow"),
            ALIGN,
        )
        .expect("invalid layout")
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

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.len * std::mem::size_of::<T>(), ALIGN)
            .expect("invalid layout");
        // SAFETY: ptr was allocated with exactly this layout in `zeroed`.
        unsafe { dealloc(self.ptr.as_ptr() as *mut u8, layout) }
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
        let mut out = Self::zeroed(self.len);
        out.copy_from_slice(self);
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
}
