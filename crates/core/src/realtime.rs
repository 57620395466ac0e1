//! Real-thread heterogeneous pipelining.
//!
//! The rest of the crate charges the paper's CPU/GPU overlap to a *modeled*
//! timeline. This module executes the same Algorithm-3 ping-pong with two
//! actual OS threads — a "solver device" thread (the GPU stand-in) and a
//! "predictor device" thread — so the overlap is real wall-clock on a
//! multi-core host:
//!
//! ```text
//! step it:   phase 1: [solver: set B]  ||  [predictor: set A]
//!            barrier + exchange
//!            phase 2: [solver: set A]  ||  [predictor: set B (step it+1)]
//! ```
//!
//! Each process set is a `Vec<CaseSlot>` and a [`FusedLane`]: the predictor
//! thread runs the lane's prepare phase, the solver thread its solve and
//! harvest phases — the same step [`crate::methods::run`] runs for
//! `EBE-MCG@CPU-GPU`. Every case takes its full window (as under
//! [`WindowPolicy::FullWindow`](crate::methods::WindowPolicy)), so with
//! that policy the two drivers agree bitwise (verified by tests); only the
//! execution medium differs. The realtime driver runs without the
//! integrity guards.

use hetsolve_fault::{FaultInjector, NoopFaults};
use hetsolve_machine::{SystemClock, WallClock};
use hetsolve_sparse::CgConfig;
use parking_lot::Mutex;

use crate::backend::Backend;
use crate::integrity::IntegrityConfig;
use crate::lane::{ColumnSpec, FusedLane};
use crate::methods::{check_fused_width, driver_cg_config, first_attempt_cfg, RunConfig};
use crate::recovery::{RecoveryEvent, RunError};
use crate::slot::CaseSlot;
use crate::trace::{StepTracer, TID_CPU, TID_GPU};

/// Wall-clock accounting of the real pipelined run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealtimeReport {
    /// Total wall time (s).
    pub wall: f64,
    /// Wall time spent inside solver phases (sum over phases).
    pub solver_busy: f64,
    /// Wall time spent inside predictor phases.
    pub predictor_busy: f64,
    /// `(solver_busy + predictor_busy) / wall` — >1 means the two device
    /// threads genuinely overlapped.
    pub overlap_factor: f64,
    pub steps: usize,
    /// Recovery-ladder successes over the whole run (0 unless faults were
    /// injected or a solve genuinely struggled).
    pub recoveries: usize,
}

/// One pipelined process set: its `r` cases and the fused lane they run
/// through.
type Set = (Vec<CaseSlot>, FusedLane);

/// Run EBE-MCG with two real device threads. Returns the per-case final
/// displacements and the wall-clock report, or a typed [`RunError`] if a
/// solve fails beyond recovery or a device thread panics.
pub fn run_realtime(
    backend: &Backend,
    cfg: &RunConfig,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    run_realtime_traced(backend, cfg, &mut StepTracer::disabled())
}

/// Span collected by a device thread: (pid, tid, label, start_s, dur_s),
/// both times relative to the run start.
type WallSpan = (usize, usize, &'static str, f64, f64);

/// [`run_realtime`] with wall-clock tracing: each solver/predictor phase of
/// each device thread becomes a `cat:"wall"` span in the tracer's timeline
/// (pid = process set, tid = device lane), so the *real* thread overlap can
/// be inspected in Perfetto next to the modeled one.
pub fn run_realtime_traced(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    run_realtime_faulted(backend, cfg, tracer, &mut NoopFaults)
}

/// [`run_realtime_traced`] with a fault injector. Fault descriptors are
/// resolved on the main thread each phase; only `Copy` descriptor values
/// cross into the device threads.
pub fn run_realtime_faulted<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    run_realtime_clocked(backend, cfg, tracer, faults, &SystemClock::new())
}

/// [`run_realtime_faulted`] with an injected wall clock. Both device
/// threads read the clock concurrently, so it must be `Sync`
/// ([`SystemClock`] in production, [`hetsolve_machine::SharedManualClock`]
/// in deterministic tests). The clock feeds only the [`RealtimeReport`]
/// and the wall-span trace — numerics are clock-independent — which is
/// what lets the determinism lint ban ambient `Instant` reads here.
pub fn run_realtime_clocked<F: FaultInjector, C: WallClock + Sync>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
    wall: &C,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    check_fused_width(cfg.r)?;
    tracer.begin_run("EBE-MCG@CPU-GPU (realtime)", cfg, 2);
    let r = cfg.r;
    // the realtime driver runs without the integrity guards
    let lane_cfg = RunConfig {
        integrity: IntegrityConfig::disabled(),
        ..cfg.clone()
    };
    let mut sets: [Set; 2] = [0, 1].map(|set| {
        let cases = (0..r)
            .map(|k| CaseSlot::new(backend, cfg, set * r + k, 0))
            .collect();
        (cases, FusedLane::new(backend, &lane_cfg))
    });
    let busy = Mutex::new((0.0f64, 0.0f64)); // (solver, predictor)
    let trace_on = tracer.is_enabled();
    let spans: Mutex<Vec<WallSpan>> = Mutex::new(Vec::new());
    let cg_cfg = driver_cg_config(cfg.tol);
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let t_start = wall.now();
    // run-relative timestamp of "now" on the injected clock
    let since_start = || wall.now() - t_start;
    // Account a half-phase that started at `start` to the solver
    // (`TID_GPU`) or predictor busy time, and to the wall-span trace.
    let account = |set: usize, tid: usize, name: &'static str, start: f64| {
        let dur = since_start() - start;
        let mut busy = busy.lock();
        if tid == TID_GPU {
            busy.0 += dur;
        } else {
            busy.1 += dur;
        }
        if trace_on {
            spans.lock().push((set, tid, name, start, dur));
        }
    };

    // Predictor half of a phase, on the calling thread: prepare `set`'s
    // step `step`, each case with its full window (grown with its
    // history). Fault descriptors are resolved here, so the solver thread
    // never touches the (non-`Sync`) injector.
    let predict = |(cases, lane): &mut Set, set: usize, step: usize, faults: &mut F| {
        let specs: Vec<ColumnSpec> = (set * r..(set + 1) * r)
            .map(|c| ColumnSpec::resolve(faults, step, c))
            .collect();
        let start = since_start();
        let cols = cases.iter_mut().map(Some);
        lane.prepare(backend, &mut NoopFaults, step, None, cols, &specs);
        account(set, TID_CPU, "predict (wall)", start);
    };
    // Solver half of a phase, on a spawned thread: `set`'s fused solve of
    // step `step`, then advance its cases.
    let solve = |(cases, lane): &mut Set, set: usize, step: usize, first: &CgConfig| {
        let start = since_start();
        let mut evs = Vec::new();
        let outcome = lane.solve(backend, &cg_cfg, first, step, set, &mut evs);
        let out = match lane.failure(&outcome, step) {
            Some(e) => Err(RunError::from(e)),
            None => {
                lane.harvest(backend, &outcome.stats, cases.iter_mut().map(Some));
                Ok(evs)
            }
        };
        account(set, TID_GPU, "solve (wall)", start);
        out
    };

    // pre-step: prepare set B's step 0 (no history yet)
    if cfg.n_steps > 0 {
        predict(&mut sets[1], 1, 0, faults);
    }
    for it in 0..cfg.n_steps {
        // phase 1: solve B (prepared in the previous phase) || prepare A
        // for this step; phase 2: solve A || prepare B for the next step
        let next = Some(it + 1).filter(|&s| s < cfg.n_steps);
        for (solving, prepare) in [(1, Some(it)), (0, next)] {
            let first = first_attempt_cfg(faults, it, solving, &cg_cfg);
            let [set_a, set_b] = &mut sets;
            let (solve_set, prep_set) = if solving == 1 {
                (set_b, set_a)
            } else {
                (set_a, set_b)
            };
            let solved = crossbeam::thread::scope(|scope| {
                let handle = scope.spawn(|_| solve(solve_set, solving, it, &first));
                if let Some(step) = prepare {
                    predict(prep_set, 1 - solving, step, faults);
                }
                handle.join().unwrap_or(Err(RunError::WorkerPanic {
                    phase: ["realtime solve (set A)", "realtime solve (set B)"][solving],
                }))
            })
            // PANIC-OK: the scope closure joins both children, so crossbeam's
            // scope-level error (an unjoined child panic) is unreachable.
            .expect("thread scope failed");
            recoveries.extend(solved?);
        }
    }

    for (pid, tid, name, start_s, dur_s) in spans.into_inner() {
        tracer
            .trace
            .span(pid, tid, "wall", name, start_s * 1e6, dur_s * 1e6, vec![]);
    }
    let t_now = since_start();
    for ev in &recoveries {
        tracer.recovery_event(t_now, ev);
    }

    let wall = since_start();
    let (solver_busy, predictor_busy) = *busy.lock();
    let report = RealtimeReport {
        wall,
        solver_busy,
        predictor_busy,
        overlap_factor: (solver_busy + predictor_busy) / wall.max(1e-12),
        steps: cfg.n_steps,
        recoveries: recoveries.len(),
    };
    let final_u = sets
        .into_iter()
        .flat_map(|(cases, _)| cases)
        .map(|case| case.time.u)
        .collect();
    Ok((final_u, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{run, MethodKind, WindowPolicy};
    use hetsolve_fem::{FemProblem, RandomLoadSpec};
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn setup() -> (Backend, RunConfig) {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 10);
        cfg.r = 2;
        cfg.s_max = 4;
        cfg.load = RandomLoadSpec {
            n_sources: 4,
            impulses_per_source: 2.0,
            amplitude: 1e6,
            active_window: 0.3,
        };
        (backend, cfg)
    }

    #[test]
    fn realtime_runs_and_reports() {
        let (backend, cfg) = setup();
        let (final_u, rep) = run_realtime(&backend, &cfg).expect("realtime");
        assert_eq!(final_u.len(), 2 * cfg.r);
        assert_eq!(rep.steps, cfg.n_steps);
        assert!(rep.wall > 0.0);
        assert!(rep.solver_busy > 0.0);
        assert!(rep.predictor_busy > 0.0);
        assert!(rep.overlap_factor > 0.0);
        assert!(final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)));
    }

    #[test]
    fn realtime_tracing_collects_wall_spans_from_both_lanes() {
        let (backend, mut cfg) = setup();
        cfg.n_steps = 3;
        let mut tracer = StepTracer::new();
        let (_, rep) = run_realtime_traced(&backend, &cfg, &mut tracer).expect("realtime");
        assert_eq!(rep.steps, 3);
        let events = tracer.trace.events();
        assert!(events.iter().all(|e| e.cat == "wall"));
        // both device lanes of both sets appear
        for pid in [0, 1] {
            assert!(events.iter().any(|e| e.pid == pid && e.tid == TID_GPU));
            assert!(events.iter().any(|e| e.pid == pid && e.tid == TID_CPU));
        }
        // solver runs every phase: 2 phases per step
        let solves = events.iter().filter(|e| e.tid == TID_GPU).count();
        assert_eq!(solves, 2 * cfg.n_steps);
    }

    /// The real-thread pipeline computes the same solutions as the modeled
    /// driver (same seeds, same algorithm).
    #[test]
    fn realtime_matches_modeled_numerics() {
        let (backend, cfg) = setup();
        let (final_rt, _) = run_realtime(&backend, &cfg).expect("realtime");
        let modeled = run(&backend, &cfg).expect("run");
        // The modeled driver grows s by the adaptive controller while the
        // realtime driver grows by available history; both refine to the
        // same CG tolerance, so solutions agree to solver accuracy.
        let scale = modeled.final_u[0]
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        for (c, u_model) in modeled.final_u.iter().enumerate() {
            for (i, (&a, &b)) in final_rt[c].iter().zip(u_model).enumerate() {
                assert!((a - b).abs() < 1e-5 * scale, "case {c} dof {i}: {a} vs {b}");
            }
        }

        // Under the full window both drivers pick every case's window
        // from its own history, so the solutions agree bitwise.
        let mut full = cfg;
        full.window = WindowPolicy::FullWindow;
        let (final_rt, _) = run_realtime(&backend, &full).expect("realtime");
        let modeled = run(&backend, &full).expect("run");
        assert_eq!(final_rt.len(), modeled.final_u.len());
        for (c, (u_rt, u_model)) in final_rt.iter().zip(&modeled.final_u).enumerate() {
            for (i, (a, b)) in u_rt.iter().zip(u_model).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "case {c} dof {i}: {a} vs {b}");
            }
        }
    }

    /// With an injected shared manual clock the wall-clock report is
    /// fully deterministic: the driver reads no ambient time, so a frozen
    /// clock yields a zero report while the numerics are untouched.
    #[test]
    fn manual_clock_makes_the_report_deterministic() {
        let (backend, mut cfg) = setup();
        cfg.n_steps = 3;
        let clock = hetsolve_machine::SharedManualClock::new();
        clock.set(42.0);
        let (final_u, rep) = run_realtime_clocked(
            &backend,
            &cfg,
            &mut StepTracer::disabled(),
            &mut NoopFaults,
            &clock,
        )
        .expect("realtime");
        assert_eq!(rep.wall, 0.0, "frozen clock: no wall time elapsed");
        assert_eq!(rep.solver_busy, 0.0);
        assert_eq!(rep.predictor_busy, 0.0);
        assert!(final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)));
        // the same run on the real clock computes identical numerics
        let (real_u, _) = run_realtime(&backend, &cfg).expect("realtime");
        assert_eq!(final_u, real_u, "clock choice must not affect results");
    }
}
