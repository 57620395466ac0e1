//! End-to-end bitwise pin of the fused EBE-MCG path.
//!
//! The host kernels (compact EBE apply, block-Jacobi, multi-vector ops)
//! have a scalar reference and runtime-selected SIMD variants whose lanes
//! are the fused cases. Both must perform the same IEEE operations in the
//! same order, so a whole run is bitwise-independent of which variant the
//! host picks. This test hashes the bits of every case's final
//! displacement and every step's iteration count of an r = 4 run and
//! compares with the value the scalar-only implementation produced.

use hetsolve::fem::FemProblem;
use hetsolve::prelude::*;

/// Hash of the scalar-only implementation (before SIMD dispatch existed).
const PINNED: u64 = 0x3f67_c2d7_a2a7_027b;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn ebe_mcg_r4_run_is_bitwise_pinned() {
    let spec = GroundModelSpec::paper_like(4, 3, 2, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 10);
    cfg.r = 4;
    cfg.s_max = 8;
    cfg.load = RandomLoadSpec {
        n_sources: 6,
        impulses_per_source: 3.0,
        amplitude: 1e6,
        active_window: 0.3,
    };
    let res = run(&backend, &cfg).expect("run");
    assert_eq!(res.n_cases, 8);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for u in &res.final_u {
        for &x in u {
            h = fnv(h, x.to_bits());
        }
    }
    for rec in &res.records {
        h = fnv(h, rec.iterations.to_bits());
    }
    assert!(res.final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)));
    assert_eq!(h, PINNED, "hash {h:#018x}");
}
