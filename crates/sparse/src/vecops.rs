//! Vector primitives used by the CG solvers, in single- and multi-RHS
//! (interleaved) layouts. Rayon-parallel above a size threshold; the
//! threshold keeps small test problems on one thread where parallel
//! dispatch would dominate.

use rayon::prelude::*;

/// Below this length, run sequentially.
const PAR_THRESHOLD: usize = 1 << 14;

/// Dot product `x·y`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    if x.len() < PAR_THRESHOLD {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    } else {
        x.par_chunks(4096)
            .zip(y.par_chunks(4096))
            .map(|(xc, yc)| xc.iter().zip(yc).map(|(a, b)| a * b).sum::<f64>())
            .sum()
    }
}

/// Squared Euclidean norm.
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if x.len() < PAR_THRESHOLD {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    } else {
        y.par_chunks_mut(4096)
            .zip(x.par_chunks(4096))
            .for_each(|(yc, xc)| {
                for (yi, xi) in yc.iter_mut().zip(xc) {
                    *yi += alpha * xi;
                }
            });
    }
}

/// `y = x + beta * y` (the CG direction update `p = z + beta p`).
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if x.len() < PAR_THRESHOLD {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = xi + beta * *yi;
        }
    } else {
        y.par_chunks_mut(4096)
            .zip(x.par_chunks(4096))
            .for_each(|(yc, xc)| {
                for (yi, xi) in yc.iter_mut().zip(xc) {
                    *yi = xi + beta * *yi;
                }
            });
    }
}

/// Per-case dot products of interleaved multi-vectors:
/// `out[c] = Σ_i x[i*r+c] * y[i*r+c]`.
///
/// Long vectors are summed in chunks of `4096 * r` values whose partial
/// sums are added in chunk order: a threaded reduction over the same
/// chunks gives the same bits at any thread count. No heap allocation
/// for `r <= 8`.
pub fn dot_multi(x: &[f64], y: &[f64], r: usize, out: &mut [f64]) {
    dot_multi_with(x, y, r, out, true)
}

/// [`dot_multi`]; `simd == false` forces the scalar reference kernels.
fn dot_multi_with(x: &[f64], y: &[f64], r: usize, out: &mut [f64], simd: bool) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len() % r, 0);
    debug_assert_eq!(out.len(), r);
    out.fill(0.0);
    if x.len() < PAR_THRESHOLD {
        add_dot_rows(x, y, r, out, simd);
    } else {
        // per-chunk partials on the stack for every fused width (r <= 8)
        let mut stack = [0.0f64; 8];
        let mut heap = Vec::new();
        let acc = if r <= stack.len() {
            &mut stack[..r]
        } else {
            heap.resize(r, 0.0);
            &mut heap[..]
        };
        for (xc, yc) in x.chunks(4096 * r).zip(y.chunks(4096 * r)) {
            acc.fill(0.0);
            add_dot_rows(xc, yc, r, acc, simd);
            for (o, a) in out.iter_mut().zip(acc.iter()) {
                *o += a;
            }
        }
    }
}

/// Per-case `y[.,c] += alpha[c] * x[.,c]` on interleaved multi-vectors.
/// Cases with `active[c] == false` are left untouched (used to freeze
/// converged cases in the multi-RHS CG).
pub fn axpy_multi(alpha: &[f64], x: &[f64], y: &mut [f64], r: usize, active: &[bool]) {
    axpy_multi_with(alpha, x, y, r, active, true)
}

/// [`axpy_multi`]; `simd == false` forces the scalar reference kernels.
fn axpy_multi_with(alpha: &[f64], x: &[f64], y: &mut [f64], r: usize, active: &[bool], simd: bool) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(alpha.len(), r);
    debug_assert_eq!(active.len(), r);
    if x.len() < PAR_THRESHOLD {
        axpy_rows(alpha, x, y, r, active, simd);
    } else {
        y.par_chunks_mut(4096 * r)
            .zip(x.par_chunks(4096 * r))
            .for_each(|(yc, xc)| axpy_rows(alpha, xc, yc, r, active, simd));
    }
}

/// Per-case `y[.,c] = x[.,c] + beta[c] * y[.,c]` on interleaved
/// multi-vectors, skipping inactive cases.
pub fn xpby_multi(x: &[f64], beta: &[f64], y: &mut [f64], r: usize, active: &[bool]) {
    xpby_multi_with(x, beta, y, r, active, true)
}

/// [`xpby_multi`]; `simd == false` forces the scalar reference kernels.
fn xpby_multi_with(x: &[f64], beta: &[f64], y: &mut [f64], r: usize, active: &[bool], simd: bool) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(beta.len(), r);
    debug_assert_eq!(active.len(), r);
    if x.len() < PAR_THRESHOLD {
        xpby_rows(x, beta, y, r, active, simd);
    } else {
        y.par_chunks_mut(4096 * r)
            .zip(x.par_chunks(4096 * r))
            .for_each(|(yc, xc)| xpby_rows(xc, beta, yc, r, active, simd));
    }
}

/// When `$simd` is set, the host has AVX2 and `$r` is a fused width
/// (1, 2, 4, 8), run `$lanes::<R>($args)` and return from the enclosing
/// function; otherwise fall through to the scalar code that follows.
macro_rules! avx2_lanes {
    ($simd:expr, $r:expr, $lanes:ident($($arg:expr),*)) => {
        #[cfg(target_arch = "x86_64")]
        if $simd && crate::simd::avx2() {
            // SAFETY: `simd::avx2()` just confirmed at run time that the
            // host supports AVX2, the only precondition of `$lanes`.
            unsafe {
                match $r {
                    1 => return $lanes::<1>($($arg),*),
                    2 => return $lanes::<2>($($arg),*),
                    4 => return $lanes::<4>($($arg),*),
                    8 => return $lanes::<8>($($arg),*),
                    _ => {}
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = $simd;
    };
}
pub(crate) use avx2_lanes;

/// `acc[c] += Σ_i x[i*r+c] * y[i*r+c]`, rows in order.
fn add_dot_rows(x: &[f64], y: &[f64], r: usize, acc: &mut [f64], simd: bool) {
    avx2_lanes!(simd, r, add_dot_avx2(x, y, acc));
    for (xc, yc) in x.chunks_exact(r).zip(y.chunks_exact(r)) {
        for c in 0..r {
            acc[c] += xc[c] * yc[c];
        }
    }
}

/// [`add_dot_rows`] with the `R` cases as SIMD lanes.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_dot_avx2<const R: usize>(x: &[f64], y: &[f64], acc: &mut [f64]) {
    let mut lanes: [f64; R] = acc.try_into().expect("one accumulator per case");
    for (xr, yr) in x.as_chunks::<R>().0.iter().zip(y.as_chunks::<R>().0) {
        for c in 0..R {
            lanes[c] += xr[c] * yr[c];
        }
    }
    acc.copy_from_slice(&lanes);
}

/// `y[.,c] += alpha[c] * x[.,c]` for the active cases.
fn axpy_rows(alpha: &[f64], x: &[f64], y: &mut [f64], r: usize, active: &[bool], simd: bool) {
    avx2_lanes!(simd, r, axpy_avx2(alpha, x, y, active));
    for (yr, xr) in y.chunks_exact_mut(r).zip(x.chunks_exact(r)) {
        for c in 0..r {
            if active[c] {
                yr[c] += alpha[c] * xr[c];
            }
        }
    }
}

/// [`axpy_rows`] with the `R` cases as SIMD lanes: every lane
/// computes the update and inactive lanes keep their old value.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2<const R: usize>(alpha: &[f64], x: &[f64], y: &mut [f64], active: &[bool]) {
    let alpha: [f64; R] = alpha.try_into().expect("one alpha per case");
    let active: [bool; R] = active.try_into().expect("one flag per case");
    for (yr, xr) in y
        .as_chunks_mut::<R>()
        .0
        .iter_mut()
        .zip(x.as_chunks::<R>().0)
    {
        for c in 0..R {
            let v = yr[c] + alpha[c] * xr[c];
            yr[c] = if active[c] { v } else { yr[c] };
        }
    }
}

/// `y[.,c] = x[.,c] + beta[c] * y[.,c]` for the active cases.
fn xpby_rows(x: &[f64], beta: &[f64], y: &mut [f64], r: usize, active: &[bool], simd: bool) {
    avx2_lanes!(simd, r, xpby_avx2(x, beta, y, active));
    for (yr, xr) in y.chunks_exact_mut(r).zip(x.chunks_exact(r)) {
        for c in 0..r {
            if active[c] {
                yr[c] = xr[c] + beta[c] * yr[c];
            }
        }
    }
}

/// [`xpby_rows`] with the `R` cases as SIMD lanes.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xpby_avx2<const R: usize>(x: &[f64], beta: &[f64], y: &mut [f64], active: &[bool]) {
    let beta: [f64; R] = beta.try_into().expect("one beta per case");
    let active: [bool; R] = active.try_into().expect("one flag per case");
    for (yr, xr) in y
        .as_chunks_mut::<R>()
        .0
        .iter_mut()
        .zip(x.as_chunks::<R>().0)
    {
        for c in 0..R {
            let v = xr[c] + beta[c] * yr[c];
            yr[c] = if active[c] { v } else { yr[c] };
        }
    }
}

/// Gather case `c` of an interleaved multi-vector into a contiguous vector.
pub fn extract_case(x: &[f64], r: usize, c: usize, out: &mut [f64]) {
    debug_assert_eq!(x.len(), out.len() * r);
    for (i, o) in out.iter_mut().enumerate() {
        *o = x[i * r + c];
    }
}

/// Scatter a contiguous vector into case `c` of an interleaved multi-vector.
pub fn insert_case(x: &mut [f64], r: usize, c: usize, v: &[f64]) {
    debug_assert_eq!(x.len(), v.len() * r);
    for (i, vi) in v.iter().enumerate() {
        x[i * r + c] = *vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small_and_large() {
        let n = PAR_THRESHOLD + 17;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let seq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - seq).abs() < 1e-9 * seq.abs().max(1.0));
        assert!((dot(&x[..10], &y[..10]) - 21.0).abs() < 1e-12); // 0+1+4+0+4+10+0+0+2+0
    }

    #[test]
    fn axpy_and_xpby() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, vec![7.0, 14.0, 21.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn multi_dot_matches_per_case() {
        let r = 3;
        let n = 50;
        let x: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut out = vec![0.0; r];
        dot_multi(&x, &y, r, &mut out);
        for c in 0..r {
            let mut xc = vec![0.0; n];
            let mut yc = vec![0.0; n];
            extract_case(&x, r, c, &mut xc);
            extract_case(&y, r, c, &mut yc);
            assert!((out[c] - dot(&xc, &yc)).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_axpy_respects_active_mask() {
        let r = 2;
        let x = vec![1.0, 100.0, 2.0, 200.0];
        let mut y = vec![0.0, 0.0, 0.0, 0.0];
        axpy_multi(&[2.0, 3.0], &x, &mut y, r, &[true, false]);
        assert_eq!(y, vec![2.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn multi_xpby_respects_active_mask() {
        let r = 2;
        let x = vec![1.0, 10.0, 2.0, 20.0];
        let mut y = vec![5.0, 50.0, 6.0, 60.0];
        xpby_multi(&x, &[2.0, 2.0], &mut y, r, &[false, true]);
        assert_eq!(y, vec![5.0, 110.0, 6.0, 140.0]);
    }

    #[test]
    fn case_roundtrip() {
        let r = 4;
        let n = 6;
        let mut x = vec![0.0; n * r];
        let v: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        insert_case(&mut x, r, 2, &v);
        let mut back = vec![0.0; n];
        extract_case(&x, r, 2, &mut back);
        assert_eq!(v, back);
        // other cases untouched
        let mut other = vec![1.0; n];
        extract_case(&x, r, 0, &mut other);
        assert!(other.iter().all(|&o| o == 0.0));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The runtime-selected multi-vector kernels (the AVX2 lanes on hosts
    /// that have them) are bitwise-equal to the scalar reference: every
    /// fused width plus a non-lane width, lengths below and above the
    /// `4096 * r` chunk (and the sequential threshold), inactive columns.
    #[test]
    fn multi_ops_dispatched_match_scalar_bitwise() {
        for r in [1usize, 2, 3, 4, 8] {
            for rows in [7, 4096, 4096 + 13, PAR_THRESHOLD / r + 5, 3 * 4096 + 1] {
                let len = rows * r;
                let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
                let y0: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos()).collect();
                let coef: Vec<f64> = (0..r).map(|c| 0.5 - 0.3 * c as f64).collect();
                let active: Vec<bool> = (0..r).map(|c| r == 1 || c % 3 != 1).collect();
                let ctx = format!("r={r} len={len}");

                let mut fast = vec![0.0; r];
                let mut reference = vec![0.0; r];
                dot_multi_with(&x, &y0, r, &mut fast, true);
                dot_multi_with(&x, &y0, r, &mut reference, false);
                assert_eq!(bits(&fast), bits(&reference), "dot {ctx}");

                let mut fast = y0.clone();
                let mut reference = y0.clone();
                axpy_multi_with(&coef, &x, &mut fast, r, &active, true);
                axpy_multi_with(&coef, &x, &mut reference, r, &active, false);
                assert_eq!(bits(&fast), bits(&reference), "axpy {ctx}");

                let mut fast = y0.clone();
                let mut reference = y0.clone();
                xpby_multi_with(&x, &coef, &mut fast, r, &active, true);
                xpby_multi_with(&x, &coef, &mut reference, r, &active, false);
                assert_eq!(bits(&fast), bits(&reference), "xpby {ctx}");
                for (i, (&f, &y)) in fast.iter().zip(&y0).enumerate() {
                    if !active[i % r] {
                        assert_eq!(f.to_bits(), y.to_bits(), "inactive column {ctx}");
                    }
                }
            }
        }
    }

    /// Inactive columns keep their exact bits even when the frozen
    /// coefficient is non-finite (a lane kernel computes and discards it).
    #[test]
    fn inactive_lanes_ignore_poisoned_coefficients() {
        let r = 4;
        let x = vec![1.0; 8 * r];
        let y0: Vec<f64> = (0..8 * r).map(|i| -(i as f64)).collect();
        let coef = [2.0, f64::NAN, f64::INFINITY, -0.5];
        let active = [true, false, false, true];
        let mut y = y0.clone();
        axpy_multi(&coef, &x, &mut y, r, &active);
        xpby_multi(&x, &coef, &mut y, r, &active);
        for (i, (&v, &v0)) in y.iter().zip(&y0).enumerate() {
            if !active[i % r] {
                assert_eq!(v.to_bits(), v0.to_bits());
            } else {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn multi_ops_large_path() {
        let r = 2;
        let n = PAR_THRESHOLD; // total length 2*PAR_THRESHOLD > threshold
        let x: Vec<f64> = (0..n * r).map(|i| ((i * 37) % 11) as f64).collect();
        let mut y = vec![1.0; n * r];
        let mut expect = y.clone();
        for (i, e) in expect.iter_mut().enumerate() {
            let c = i % r;
            *e += [0.5, -0.25][c] * x[i];
        }
        axpy_multi(&[0.5, -0.25], &x, &mut y, r, &[true, true]);
        for i in 0..y.len() {
            assert!((y[i] - expect[i]).abs() < 1e-12);
        }
    }
}
