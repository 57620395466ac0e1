//! Runtime selection of the host SIMD kernels.
//!
//! The fused multi-RHS kernels keep their case index innermost
//! (`x[dof * r + c]`), so the `r` cases of one fused set are the natural
//! SIMD lanes: each lane runs exactly the scalar code's IEEE operations in
//! the scalar code's order. Rust never contracts `a * b + c` into an FMA,
//! and the AVX2 variants do not enable the `fma` target feature, so a
//! lane's result is bitwise-equal to the scalar one.
//!
//! The variants are selected at run time with
//! `is_x86_feature_detected!("avx2")`; there is no build flag. Other
//! architectures always run the scalar code.

/// Does this host run the AVX2 kernel variants? The answer is cached by
/// the standard library after the first call.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
