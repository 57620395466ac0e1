//! 3×3 block-Jacobi preconditioner — the paper's Algorithm 1 `B⁻¹`.
//!
//! The preconditioner inverts each node's 3×3 diagonal block once at setup
//! and applies `z = B⁻¹ r` as a streaming pass; for the EBE path the blocks
//! come from [`crate::ebe::EbeOperator::diagonal_blocks`] without assembling
//! the matrix.

use rayon::prelude::*;

use crate::dense::{inv3, mat3_vec};
use crate::op::{KernelCounts, Preconditioner};
use crate::vecops::avx2_lanes;

/// Inverted 3×3 diagonal blocks.
#[derive(Debug, Clone)]
pub struct BlockJacobi {
    pub inv: Vec<[f64; 9]>,
    pub parallel: bool,
}

impl BlockJacobi {
    /// Invert the given diagonal blocks. Singular blocks (possible only for
    /// disconnected nodes) fall back to identity, keeping the
    /// preconditioner SPD.
    pub fn from_blocks(blocks: &[[f64; 9]], parallel: bool) -> Self {
        let identity = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let inv = blocks.iter().map(|b| inv3(b).unwrap_or(identity)).collect();
        BlockJacobi { inv, parallel }
    }

    /// Bytes of stored inverse blocks.
    pub fn bytes(&self) -> usize {
        self.inv.len() * 72
    }
}

impl Preconditioner for BlockJacobi {
    fn n(&self) -> usize {
        3 * self.inv.len()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n());
        debug_assert_eq!(z.len(), self.n());
        if self.parallel && self.inv.len() > 2048 {
            z.par_chunks_exact_mut(3)
                .zip(r.par_chunks_exact(3))
                .zip(&self.inv)
                .for_each(|((zc, rc), inv)| {
                    let out = mat3_vec(inv, &[rc[0], rc[1], rc[2]]);
                    zc.copy_from_slice(&out);
                });
        } else {
            for (i, inv) in self.inv.iter().enumerate() {
                let out = mat3_vec(inv, &[r[3 * i], r[3 * i + 1], r[3 * i + 2]]);
                z[3 * i..3 * i + 3].copy_from_slice(&out);
            }
        }
    }

    fn counts(&self) -> KernelCounts {
        let nb = self.inv.len() as f64;
        KernelCounts {
            flops: 15.0 * nb, // 9 mul + 6 add
            bytes_stream: nb * (72.0 + 24.0 + 24.0),
            bytes_rand: 0.0,
            rand_transactions: 0.0,
            rhs_fused: 1,
        }
    }

    fn apply_multi(&self, r_vec: &[f64], z: &mut [f64], r: usize) {
        debug_assert_eq!(r_vec.len(), self.n() * r);
        debug_assert_eq!(z.len(), self.n() * r);
        avx2_lanes!(true, r, apply_multi_avx2(&self.inv, r_vec, z));
        apply_multi_scalar(&self.inv, r_vec, z, r)
    }
}

/// `z = B⁻¹ r` on interleaved multi-vectors (dof-major, case-minor).
fn apply_multi_scalar(inv: &[[f64; 9]], r_vec: &[f64], z: &mut [f64], r: usize) {
    for (i, inv) in inv.iter().enumerate() {
        for c in 0..r {
            let rr = [
                r_vec[(3 * i) * r + c],
                r_vec[(3 * i + 1) * r + c],
                r_vec[(3 * i + 2) * r + c],
            ];
            let out = mat3_vec(inv, &rr);
            z[(3 * i) * r + c] = out[0];
            z[(3 * i + 1) * r + c] = out[1];
            z[(3 * i + 2) * r + c] = out[2];
        }
    }
}

/// [`apply_multi_scalar`] with the `R` cases as SIMD lanes: each lane
/// evaluates [`mat3_vec`]'s expressions in the same order.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_multi_avx2<const R: usize>(inv: &[[f64; 9]], r_vec: &[f64], z: &mut [f64]) {
    let rows = r_vec.as_chunks::<R>().0.as_chunks::<3>().0;
    let out = z.as_chunks_mut::<R>().0.as_chunks_mut::<3>().0;
    for ((m, x), z) in inv.iter().zip(rows).zip(out) {
        for a in 0..3 {
            for c in 0..R {
                z[a][c] = m[3 * a] * x[0][c] + m[3 * a + 1] * x[1][c] + m[3 * a + 2] * x[2][c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<[f64; 9]> {
        vec![
            [4.0, 1.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.5, 5.0],
            [2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0],
        ]
    }

    #[test]
    fn apply_inverts_blocks() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        // z = B^-1 r, then B z must equal r
        let r = vec![1.0, -2.0, 3.0, 0.5, 0.25, -1.0];
        let mut z = vec![0.0; 6];
        bj.apply(&r, &mut z);
        for (i, b) in blocks().iter().enumerate() {
            let back = mat3_vec(b, &[z[3 * i], z[3 * i + 1], z[3 * i + 2]]);
            for a in 0..3 {
                assert!((back[a] - r[3 * i + a]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_block_falls_back_to_identity() {
        let bj = BlockJacobi::from_blocks(&[[0.0; 9]], false);
        let r = vec![1.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        bj.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn multi_matches_single() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        let n = bj.n();
        let r = 4;
        let mut rv = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                rv[i * r + c] = ((i + 7 * c) as f64 * 0.31).sin();
            }
        }
        let mut zv = vec![0.0; n * r];
        bj.apply_multi(&rv, &mut zv, r);
        for c in 0..r {
            let rc: Vec<f64> = (0..n).map(|i| rv[i * r + c]).collect();
            let mut zc = vec![0.0; n];
            bj.apply(&rc, &mut zc);
            for i in 0..n {
                assert!((zv[i * r + c] - zc[i]).abs() < 1e-14);
            }
        }
    }

    /// The runtime-selected `apply_multi` (AVX2 lanes on hosts that have
    /// them) is bitwise-equal to the scalar reference at every width.
    #[test]
    fn multi_dispatched_matches_scalar_bitwise() {
        let blocks: Vec<[f64; 9]> = (0..50)
            .map(|i| {
                let d = 4.0 + (i % 7) as f64;
                let o = 0.1 * (i as f64).sin();
                [d, o, 0.3, o, d + 1.0, -0.2, 0.3, -0.2, d + 2.0]
            })
            .collect();
        let bj = BlockJacobi::from_blocks(&blocks, false);
        let n = bj.n();
        for r in [1usize, 2, 3, 4, 8] {
            let rv: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.71).sin()).collect();
            let mut fast = vec![0.0; n * r];
            let mut reference = vec![0.0; n * r];
            bj.apply_multi(&rv, &mut fast, r);
            apply_multi_scalar(&bj.inv, &rv, &mut reference, r);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&reference), "r={r}");
        }
    }

    #[test]
    fn counts_and_bytes() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        assert_eq!(bj.bytes(), 144);
        assert_eq!(bj.counts().flops, 30.0);
    }
}
