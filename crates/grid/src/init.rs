//! Deterministic grid initializers for solvers, tests and benchmarks.

use crate::{Dims3, Grid3, Real, Region3};

/// Classic boundary-value setup: interior cells at `interior`, the whole
/// outermost layer (the Dirichlet boundary) at `boundary`.
pub fn dirichlet<T: Real>(dims: Dims3, boundary: T, interior: T) -> Grid3<T> {
    let mut g = Grid3::filled(dims, boundary);
    g.fill_region(&Region3::interior_of(dims), interior);
    g
}

/// A "hot plate": one face (z = 0) held at `hot`, everything else `cold`.
/// Mirrors the quickstart example's heat-diffusion scenario.
pub fn hot_plate<T: Real>(dims: Dims3, hot: T, cold: T) -> Grid3<T> {
    let mut g = Grid3::filled(dims, cold);
    g.fill_region(&Region3::new([0, 0, 0], [dims.nx, dims.ny, 1]), hot);
    g
}

/// Reproducible pseudo-random interior in `[0, 1)`, boundary zero. The same
/// seed always produces bitwise identical grids — required because our
/// verification compares grids exactly.
pub fn random<T: Real>(dims: Dims3, seed: u64) -> Grid3<T> {
    // SplitMix64 (Steele, Lea, Flood 2014); one draw per cell, boundary
    // included, so the stream position depends on `dims` only.
    let mut state = seed;
    let interior = Region3::interior_of(dims);
    Grid3::from_fn(dims, |x, y, z| {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut bits = state;
        bits = (bits ^ (bits >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        bits = (bits ^ (bits >> 27)).wrapping_mul(0x94D049BB133111EB);
        bits ^= bits >> 31;
        // 53 high bits -> [0, 1) with full double precision.
        let v = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if interior.contains(x, y, z) {
            T::from_f64(v)
        } else {
            T::ZERO
        }
    })
}

/// Linear field `a*x + b*y + c*z + d`, including on the boundary.
///
/// Linear fields are **exact fixed points of the Jacobi stencil**: the
/// 6-neighbor average of a linear function equals its center value. Any
/// number of sweeps by a correct solver must reproduce the input bitwise
/// (up to floating-point associativity, which our fixed-order kernel
/// eliminates) — the sharpest cheap correctness probe we have.
pub fn linear<T: Real>(dims: Dims3, a: f64, b: f64, c: f64, d: f64) -> Grid3<T> {
    Grid3::from_fn(dims, |x, y, z| {
        T::from_f64(a * x as f64 + b * y as f64 + c * z as f64 + d)
    })
}

/// Single unit spike in the center of an otherwise zero grid; useful for
/// watching the stencil's light cone spread in tests.
pub fn center_spike<T: Real>(dims: Dims3) -> Grid3<T> {
    let mut g = Grid3::zeroed(dims);
    g.set(dims.nx / 2, dims.ny / 2, dims.nz / 2, T::ONE);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirichlet_layout() {
        let g: Grid3<f64> = dirichlet(Dims3::cube(4), 1.0, 0.5);
        assert_eq!(g.get(0, 0, 0), 1.0);
        assert_eq!(g.get(3, 2, 1), 1.0);
        assert_eq!(g.get(1, 1, 1), 0.5);
        assert_eq!(g.get(2, 2, 2), 0.5);
    }

    #[test]
    fn hot_plate_layout() {
        let g: Grid3<f64> = hot_plate(Dims3::cube(4), 100.0, 0.0);
        assert_eq!(g.get(2, 2, 0), 100.0);
        assert_eq!(g.get(2, 2, 1), 0.0);
    }

    #[test]
    fn random_is_reproducible_and_bounded() {
        let a: Grid3<f64> = random(Dims3::cube(6), 42);
        let b: Grid3<f64> = random(Dims3::cube(6), 42);
        assert_eq!(a.as_slice(), b.as_slice());
        let c: Grid3<f64> = random(Dims3::cube(6), 43);
        assert_ne!(a.as_slice(), c.as_slice());
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
        assert_eq!(a.get(0, 0, 0), 0.0, "boundary must be zero");
    }

    /// Pins the SplitMix64 stream and its `(bits >> 11) · 2⁻⁵³` mapping:
    /// every oracle fingerprint in the tree is keyed to these values.
    #[test]
    fn random_stream_is_golden() {
        let dims = Dims3::cube(6);
        let whole = Region3::whole(dims);
        let a: Grid3<f64> = random(dims, 42);
        let b: Grid3<f32> = random(dims, 42);
        assert_eq!(crate::norm::fingerprint(&a, &whole), 0xf5d2_86bd_84ff_7567);
        assert_eq!(crate::norm::fingerprint(&b, &whole), 0xf5d2_86bd_a000_0000);
        let row64: Vec<u64> = (1..5).map(|x| a.get(x, 1, 1).to_bits()).collect();
        assert_eq!(
            row64,
            [
                0x3fe8_cb05_f974_5495,
                0x3fe5_62ab_723f_e8a0,
                0x3fd4_91ac_c53b_3562,
                0x3fb5_a099_069c_7d60
            ]
        );
        let row32: Vec<u32> = (1..5).map(|x| b.get(x, 1, 1).to_bits()).collect();
        assert_eq!(row32, [0x3f46_5830, 0x3f2b_155c, 0x3ea4_8d66, 0x3dad_04c8]);
    }

    #[test]
    fn linear_field_values() {
        let g: Grid3<f64> = linear(Dims3::cube(4), 1.0, 2.0, 3.0, 4.0);
        assert_eq!(g.get(0, 0, 0), 4.0);
        assert_eq!(g.get(1, 1, 1), 10.0);
        assert_eq!(g.get(3, 2, 1), 14.0);
    }

    #[test]
    fn linear_field_is_jacobi_fixed_point_pointwise() {
        let g: Grid3<f64> = linear(Dims3::cube(5), 0.5, -1.25, 2.0, 3.0);
        for (x, y, z) in Region3::interior_of(g.dims()).iter() {
            let avg = (g.get(x - 1, y, z)
                + g.get(x + 1, y, z)
                + g.get(x, y - 1, z)
                + g.get(x, y + 1, z)
                + g.get(x, y, z - 1)
                + g.get(x, y, z + 1))
                / 6.0;
            assert_eq!(avg, g.get(x, y, z), "at ({x},{y},{z})");
        }
    }

    #[test]
    fn center_spike_has_unit_mass() {
        let g: Grid3<f64> = center_spike(Dims3::cube(7));
        assert_eq!(g.sum_region(&Region3::whole(g.dims())), 1.0);
        assert_eq!(g.get(3, 3, 3), 1.0);
    }
}
