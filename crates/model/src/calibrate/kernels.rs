//! The four STREAM kernels over `f64` slices.
//!
//! Byte-traffic accounting matches McCalpin's convention: COPY/SCALE move
//! 16 B per element, ADD/TRIAD 24 B (write-allocate traffic not counted).

/// `c[i] = a[i]`
pub(crate) fn copy(a: &[f64], c: &mut [f64]) {
    c.copy_from_slice(a);
}

/// `b[i] = s * c[i]`
pub(crate) fn scale(c: &[f64], b: &mut [f64], s: f64) {
    for (bi, &ci) in b.iter_mut().zip(c) {
        *bi = s * ci;
    }
}

/// `c[i] = a[i] + b[i]`
pub(crate) fn add(a: &[f64], b: &[f64], c: &mut [f64]) {
    for ((ci, &ai), &bi) in c.iter_mut().zip(a).zip(b) {
        *ci = ai + bi;
    }
}

/// `a[i] = b[i] + s * c[i]`
pub(crate) fn triad(b: &[f64], c: &[f64], a: &mut [f64], s: f64) {
    for ((ai, &bi), &ci) in a.iter_mut().zip(b).zip(c) {
        *ai = bi + s * ci;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_copies() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut c = vec![0.0; 100];
        copy(&a, &mut c);
        assert_eq!(a, c);
    }

    #[test]
    fn scale_add_triad_formulas() {
        let c: Vec<f64> = vec![1.0, 2.0, 3.0];
        let mut b = vec![0.0; 3];
        scale(&c, &mut b, 2.0);
        assert_eq!(b, vec![2.0, 4.0, 6.0]);

        let a = vec![10.0, 20.0, 30.0];
        let mut out = vec![0.0; 3];
        add(&a, &b, &mut out);
        assert_eq!(out, vec![12.0, 24.0, 36.0]);

        let mut t = vec![0.0; 3];
        triad(&b, &c, &mut t, 3.0);
        assert_eq!(t, vec![5.0, 10.0, 15.0]);
    }
}
