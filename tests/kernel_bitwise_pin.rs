//! End-to-end bitwise pin of the fused EBE-MCG path.
//!
//! The host kernels (compact EBE apply, block-Jacobi, multi-vector ops)
//! have a scalar reference, runtime-selected SIMD variants whose lanes are
//! the fused cases, and a threaded compact apply. All of them must perform
//! the same IEEE operations in the same order, so a whole run is
//! bitwise-independent of which variant the host picks and of how many
//! kernel threads it has. Each test hashes the bits of every case's final
//! displacement and every step's iteration count of an r = 4 run and
//! compares with the value an earlier implementation produced.

use hetsolve::fem::FemProblem;
use hetsolve::prelude::*;

/// Hash of the scalar-only implementation (before SIMD dispatch existed).
const PINNED: u64 = 0x3f67_c2d7_a2a7_027b;

/// Hash of the 7,803-DOF run with the single-threaded colored scatter
/// (before the threaded apply existed).
const PINNED_7803: u64 = 0xd383_833d_5744_ffbd;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of an r = 4 EBE-MCG run on `paper_like(mesh)` with the parallel
/// kernels on, over `steps` steps.
fn run_hash(mesh: (usize, usize, usize), steps: usize) -> u64 {
    let spec = GroundModelSpec::paper_like(mesh.0, mesh.1, mesh.2, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), steps);
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
    h
}

#[test]
fn ebe_mcg_r4_run_is_bitwise_pinned() {
    let h = run_hash((4, 3, 2), 10);
    assert_eq!(h, PINNED, "hash {h:#018x}");
}

/// 7,803 DOF: above the work grain, so the compact apply runs on the
/// kernel pool when the host has more than one hardware thread.
#[test]
fn ebe_mcg_r4_run_above_grain_is_bitwise_pinned() {
    let h = run_hash((8, 8, 4), 6);
    assert_eq!(h, PINNED_7803, "hash {h:#018x}");
}
