//! The metric tables, and the traced run's per-call timings of each
//! layer's public functions on the workload's own backend.
//!
//! A per-layer `_s` metric is the median host time of one call. Call
//! counts come from the run's own outputs (fused iterations from trace
//! spans, step records, served steps), so `Σ per-call time × calls` is the
//! part of the run outside timing can attribute; the rest is
//! `core.unattributed_s`.

use std::time::Instant;

use hetsolve::core::{
    operator_crc, Backend, CaseSlot, OperatorPayload, RhsScratch, RunConfig, StateGuard,
};
use hetsolve::fem::compact_ebe_counts;
use hetsolve::machine::{kernel_time, ExecCtx};
use hetsolve::predictor::DataDrivenPredictor;
use hetsolve::sparse::vecops::{axpy_multi, dot_multi};
use hetsolve::sparse::{LinearOperator, MultiOperator, Preconditioner};

use crate::host::median;
use crate::spans::Recorder;

/// End-to-end metrics: name and unit, in print order. Directions and
/// bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("case_steps_per_s", "1/s"),
    ("crs_case_step_s", "s"),
    ("modeled_case_step_s", "model_s"),
    ("modeled_energy_per_case_step_j", "J"),
    ("latency_p50_s", "model_s"),
    ("latency_p99_s", "model_s"),
    ("ok_ratio", "share"),
    ("state_bytes", "B"),
    ("peak_rss_bytes", "B"),
];

/// Per-layer metrics of the traced run: name and unit, in print order.
/// A metric a workload has no such layer for reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fem.problem_build_s", "s"),
    ("core.backend_build_s", "s"),
    ("load.generate_s", "s"),
    ("fem.ebe_apply_s", "s"),
    ("fem.ebe_apply_calls", "calls/case-step"),
    ("fem.ebe_gflops", "GFLOP/s"),
    ("fem.ebe_model_vs_host", "ratio"),
    ("sparse.precond_apply_s", "s"),
    ("sparse.dot_multi_s", "s"),
    ("sparse.axpy_multi_s", "s"),
    ("sparse.bcrs_apply_s", "s"),
    ("sparse.cg_iterations", "count"),
    ("predictor.predict_s", "s"),
    ("predictor.record_s", "s"),
    ("predictor.window_mean", "count"),
    ("predictor.initial_rel_res", "ratio"),
    ("core.newmark_rhs_s", "s"),
    ("core.integrity_crc_s", "s"),
    ("core.operator_crc_s", "s"),
    ("core.run_s", "s"),
    ("core.attributed_share", "share"),
    ("core.unattributed_s", "s"),
    ("machine.modeled_solver_s", "model_s"),
    ("machine.modeled_predictor_s", "model_s"),
    ("machine.modeled_transfer_s", "model_s"),
    ("serve.tick_p50_s", "s"),
    ("serve.tick_p95_s", "s"),
    ("serve.ticks", "count"),
    ("serve.admit_p50_s", "s"),
    ("serve.occupancy_mean", "share"),
    ("serve.queue_depth_peak", "count"),
    ("serve.autoscale_events", "count"),
    ("load.admit_lag_p99_s", "model_s"),
    ("ckpt.encode_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.replica_writes", "count"),
    ("cluster.link_time_s", "model_s"),
    ("cluster.stolen", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// How often the run called each layer.
#[derive(Debug, Clone, Copy)]
pub struct Calls {
    /// Case-steps computed (one RHS, predictor record and state guard each).
    pub case_steps: f64,
    /// Driver steps (one operator checksum each; 0 for the soaks, whose
    /// lanes do not re-check the operator).
    pub steps: f64,
    /// Fused multi-RHS solves.
    pub solves: f64,
    /// Σ fused CG iterations over those solves.
    pub fused_iterations: f64,
    /// Data-driven predictions made (case-steps with a window above 0).
    pub predict_calls: f64,
    /// Window the prediction timing uses (the mean of those steps).
    pub predict_window: usize,
}

/// Median time of one call of `f`, over at least 5 and at most 40 calls
/// or about a quarter second, each in a span named `name`.
fn per_call(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy allocations
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 5 || (times.len() < 40 && started.elapsed().as_secs_f64() < 0.25) {
        let t = Instant::now();
        rec.time(name, &mut f);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Deterministic, non-trivial vector contents.
fn filled(len: usize, salt: u64) -> Vec<f64> {
    (0..len as u64)
        .map(|i| ((i.wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f64 - 500.0) * 1e-3)
        .collect()
}

/// Time each layer's calls on `backend` with the workload's `cfg`, and
/// attribute `run_s` (the untraced wall time of the section `calls`
/// describes) to them. `other_attributed_s` is time attributed outside
/// these kernels (the cluster's checkpoint mirroring).
pub fn measure(
    backend: &Backend,
    cfg: &RunConfig,
    calls: &Calls,
    run_s: f64,
    other_attributed_s: f64,
    rec: &mut Recorder,
) -> Metrics {
    rec.begin("layers");
    let n = backend.n_dofs();
    let r = cfg.r;
    let x = filled(n * r, 1);
    let mut y = vec![0.0; n * r];

    let op = backend.ebe_a(r);
    let ebe_s = per_call(rec, "fem.ebe_apply", || op.apply_multi(&x, &mut y));
    let precond_s = per_call(rec, "sparse.precond_apply", || {
        backend.precond.apply_multi(&x, &mut y, r)
    });
    let mut out = vec![0.0; r];
    let dot_s = per_call(rec, "sparse.dot_multi", || dot_multi(&x, &y, r, &mut out));
    let alpha = vec![1e-3; r];
    let active = vec![true; r];
    let axpy_s = per_call(rec, "sparse.axpy_multi", || {
        axpy_multi(&alpha, &x, &mut y, r, &active)
    });
    let x1 = filled(n, 2);
    let mut y1 = vec![0.0; n];
    let bcrs_s = if backend.has_crs() {
        let a = backend.crs_a();
        per_call(rec, "sparse.bcrs_apply", || a.apply(&x1, &mut y1))
    } else {
        0.0
    };

    let mut scratch = RhsScratch::new(n);
    let (u, v, acc) = (filled(n, 3), filled(n, 4), filled(n, 5));
    let mut rhs = vec![0.0; n];
    let rhs_s = per_call(rec, "core.newmark_rhs", || {
        backend.newmark_rhs(&x1, &u, &v, &acc, &mut rhs, &mut scratch)
    });

    let s_max = cfg.s_max.max(1);
    let mut dd = DataDrivenPredictor::new(n, cfg.region_dofs.max(3), s_max);
    for k in 0..s_max as u64 {
        dd.record(&filled(n, 10 + k));
    }
    let window = calls.predict_window.clamp(1, s_max);
    let mut corr = vec![0.0; n];
    let predict_s = per_call(rec, "predictor.predict", || {
        dd.predict(window, &mut corr);
    });
    let delta = filled(n, 7);
    let record_s = per_call(rec, "predictor.record", || {
        dd.record(&delta);
    });

    // a case slot stepped through `window` boundaries, so its guarded
    // state carries a predictor history of the size the run saw
    let mut slot = CaseSlot::with_seed(backend, cfg, 1, window + 1, 0);
    for _ in 0..window {
        let (ab, _) = slot.prepare_step(backend, &mut scratch, window);
        let guess = slot.guess().to_vec();
        slot.advance(backend, &guess, &ab, None);
    }
    let crc_s = per_call(rec, "core.integrity_crc", || {
        std::hint::black_box(StateGuard::capture(&slot));
    });
    let op_crc_s = per_call(rec, "core.operator_crc", || {
        std::hint::black_box(operator_crc(OperatorPayload::Ebe(&backend.compact)));
    });
    rec.end();

    // per fused solve: the initial residual, one apply per iteration, and
    // the ABFT audits (every 64 iterations plus one on exit); per
    // iteration one preconditioner, three fused dots and two fused axpys,
    // plus the two dots of the set-up
    let f = calls.fused_iterations;
    let ebe_calls = f + calls.solves * 2.0 + (f / 64.0).floor();
    let attributed = ebe_s * ebe_calls
        + precond_s * f
        + dot_s * (3.0 * f + 2.0 * calls.solves)
        + axpy_s * 2.0 * f
        + (rhs_s + record_s + crc_s) * calls.case_steps
        + predict_s * calls.predict_calls
        + op_crc_s * calls.steps
        + other_attributed_s;

    let p = &backend.problem;
    let counts = compact_ebe_counts(p.model.mesh.n_elems(), p.dashpots.n_faces(), n, r);
    let model_s = kernel_time(&cfg.node.module.gpu, &counts, &ExecCtx::default());

    let mut m = Metrics::default();
    m.set("fem.ebe_apply_s", ebe_s);
    m.set("fem.ebe_apply_calls", ebe_calls / calls.case_steps.max(1.0));
    m.set("fem.ebe_gflops", counts.flops / ebe_s / 1e9);
    m.set("fem.ebe_model_vs_host", model_s / ebe_s);
    m.set("sparse.precond_apply_s", precond_s);
    m.set("sparse.dot_multi_s", dot_s);
    m.set("sparse.axpy_multi_s", axpy_s);
    m.set("sparse.bcrs_apply_s", bcrs_s);
    m.set("predictor.predict_s", predict_s);
    m.set("predictor.record_s", record_s);
    m.set("core.newmark_rhs_s", rhs_s);
    m.set("core.integrity_crc_s", crc_s);
    m.set("core.operator_crc_s", op_crc_s);
    m.set("core.run_s", run_s);
    m.set("core.attributed_share", attributed / run_s);
    m.set("core.unattributed_s", run_s - attributed);
    m
}
