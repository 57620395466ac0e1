//! The fused EBE-MCG lane step: one process set of `r` cases advanced by
//! one time step, the unit of work of the paper's Algorithm 3.
//!
//! [`FusedLane`] is the only implementation of that step. The ensemble and
//! durable drivers run two all-occupied lanes per step, the serving layer
//! runs one lane per process set under the batcher's occupancy mask, and
//! the realtime driver prepares on its predictor thread and solves and
//! harvests on its solver thread. The step has three phases:
//!
//! 1. [`prepare`](FusedLane::prepare), per occupied column: step-boundary
//!    guard, periodic basis sentinel, RHS and initial guess
//!    ([`CaseSlot::prepare_step_into`]), RHS guard, injected guess fault, and
//!    packing into the lane's interleaved `n·r` vectors;
//! 2. [`solve`](FusedLane::solve): the masked multi-RHS CG through the
//!    resumable recovery ladder ([`solve_set_resumable`]);
//! 3. [`harvest`](FusedLane::harvest), per occupied column: unpack,
//!    [`CaseSlot::advance`] and the non-finite scrub.
//!
//! The callers keep what differs between them: cost charging and trace
//! labels, which fault hooks they honour, and what a failed column means
//! (the drivers abort the run with [`FusedLane::failure`], the server fails
//! one request).

use hetsolve_fault::{FaultInjector, StateField, VectorFault};
use hetsolve_sparse::vecops::{extract_case, insert_case};
use hetsolve_sparse::{CgConfig, McgStats, SolveError};

use crate::backend::{Backend, RhsScratch};
use crate::integrity::{
    basis_sentinel, boundary_guard, rhs_guard, scrub_state, CorruptionReport, IntegrityConfig,
};
use crate::methods::{check_basis_at, RunConfig};
use crate::recovery::{solve_set_resumable, RecoveryEvent, SetSolveOutcome};
use crate::slot::CaseSlot;

/// One column's inputs to [`FusedLane::prepare`] besides its slot: the id
/// its guard reports and recovery events carry (a global case index or a
/// request id), and the guess and snapshot faults resolved for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnSpec {
    pub id: usize,
    pub guess: Option<VectorFault>,
    pub snapshot: Option<VectorFault>,
}

impl ColumnSpec {
    /// Case `case` at `step` with its guess and snapshot hooks resolved.
    pub fn resolve<F: FaultInjector>(faults: &mut F, step: usize, case: usize) -> Self {
        ColumnSpec {
            id: case,
            guess: faults.guess_fault(step, case),
            snapshot: faults.snapshot_fault(step, case),
        }
    }
}

/// What [`FusedLane::harvest`] did to one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnFate {
    Vacant,
    /// The column exhausted the recovery ladder; its slot was not advanced.
    Failed,
    /// Advanced one step; `history_ok` is `false` when the predictor
    /// history was poisoned and rebuilt.
    Advanced {
        history_ok: bool,
    },
    /// Advanced, but non-finite values slipped past every checksum and
    /// sentinel into this state vector.
    Corrupt(StateField),
}

/// One fused lane of width `r`: its interleaved pack buffers and what a
/// step carries from prepare to harvest. Every step rewrites all of it
/// before reading, so none of it belongs in a checkpoint.
pub struct FusedLane {
    r: usize,
    s_max: usize,
    integrity: IntegrityConfig,
    f: Vec<f64>,
    x: Vec<f64>,
    /// One column's unpacked solution.
    u: Vec<f64>,
    scratch: RhsScratch,
    occupied: Vec<bool>,
    ids: Vec<Option<usize>>,
    ab_guesses: Vec<Vec<f64>>,
    snapshot: Vec<Option<VectorFault>>,
    s_used: Vec<usize>,
}

impl FusedLane {
    /// Lane of width `cfg.r` with `cfg`'s window cap and integrity guards.
    pub fn new(backend: &Backend, cfg: &RunConfig) -> Self {
        let n = backend.n_dofs();
        let r = cfg.r;
        FusedLane {
            r,
            s_max: cfg.s_max,
            integrity: cfg.integrity,
            f: vec![0.0; n * r],
            x: vec![0.0; n * r],
            u: vec![0.0; n],
            scratch: RhsScratch::new(n),
            occupied: vec![false; r],
            ids: vec![None; r],
            ab_guesses: vec![vec![0.0; n]; r],
            snapshot: vec![None; r],
            s_used: vec![0; r],
        }
    }

    /// Phase 1: prepare and pack the occupied columns of `cols`, one per
    /// lane column, described by `specs`. The guards consult `faults`' flip
    /// hooks at `(step, id)`. Every column uses snapshot window `window`,
    /// or, when `None`, its full window (`s_max` clamped to its history).
    /// Returns the guards' detections.
    pub fn prepare<'a, F: FaultInjector>(
        &mut self,
        backend: &Backend,
        faults: &mut F,
        step: usize,
        window: Option<usize>,
        cols: impl IntoIterator<Item = Option<&'a mut CaseSlot>>,
        specs: &[ColumnSpec],
    ) -> Vec<CorruptionReport> {
        let r = self.r;
        let detect = self.integrity.detect;
        let mut reports = Vec::new();
        for ((k, col), spec) in cols.into_iter().enumerate().zip(specs) {
            self.occupied[k] = col.is_some();
            let Some(case) = col else {
                // vacant columns stay zero, as the masked solve expects
                self.ids[k] = None;
                for i in 0..self.u.len() {
                    self.f[i * r + k] = 0.0;
                    self.x[i * r + k] = 0.0;
                }
                continue;
            };
            self.ids[k] = Some(spec.id);
            self.snapshot[k] = spec.snapshot;
            boundary_guard(case, faults, step, spec.id, detect, &mut reports);
            if check_basis_at(&self.integrity, step) {
                let tol = self.integrity.basis_defect_tol;
                reports.extend(basis_sentinel(case, step, spec.id, tol));
            }
            let s = window.unwrap_or_else(|| self.s_max.max(1).min(case.available_s()));
            let ab_guess = &mut self.ab_guesses[k];
            let s_used = case.prepare_step_into(backend, &mut self.scratch, s, ab_guess);
            rhs_guard(
                backend,
                case,
                &mut self.scratch,
                faults,
                step,
                spec.id,
                detect,
                &mut reports,
            );
            if let Some(vf) = spec.guess {
                vf.apply(&mut case.guess);
            }
            insert_case(&mut self.f, r, k, &case.rhs);
            insert_case(&mut self.x, r, k, &case.guess);
            self.s_used[k] = s_used;
        }
        reports
    }

    /// Snapshot window column `k`'s last prepare used.
    pub fn s_used(&self, k: usize) -> usize {
        self.s_used[k]
    }

    /// Phase 2: the masked fused solve through the resumable recovery
    /// ladder. `first_cfg` configures the first attempt only (it may carry
    /// an injected iteration cap); retries use `cfg`. Rungs that fire are
    /// appended to `recoveries` under process set `set`.
    pub fn solve(
        &mut self,
        backend: &Backend,
        cfg: &CgConfig,
        first_cfg: &CgConfig,
        step: usize,
        set: usize,
        recoveries: &mut Vec<RecoveryEvent>,
    ) -> SetSolveOutcome {
        solve_set_resumable(
            &backend.ebe_a(self.r),
            &backend.precond,
            &self.f,
            &mut self.x,
            &self.ab_guesses,
            &self.occupied,
            &self.ids,
            cfg,
            first_cfg,
            step,
            set,
            recoveries,
        )
    }

    /// Typed error of the first occupied column that exhausted the ladder,
    /// for callers that abort the run on a failed column.
    pub fn failure(&self, outcome: &SetSolveOutcome, step: usize) -> Option<SolveError> {
        let st = &outcome.stats;
        let k = (0..self.r).find(|&k| self.occupied[k] && st.case_termination[k].is_failure())?;
        Some(SolveError {
            step,
            case: self.ids[k],
            termination: st.case_termination[k],
            rel_res: st.final_rel_res[k],
            iterations: st.case_iterations[k],
            attempts: outcome.attempts,
        })
    }

    /// Phase 3: advance each occupied column of `cols` that converged in
    /// `stats` (the last solve's), recording its predictor snapshot, then
    /// scrub it when detection is on. Returns each column's fate.
    pub fn harvest<'a>(
        &mut self,
        backend: &Backend,
        stats: &McgStats,
        cols: impl IntoIterator<Item = Option<&'a mut CaseSlot>>,
    ) -> Vec<ColumnFate> {
        let mut fates = Vec::with_capacity(self.r);
        for (k, col) in cols.into_iter().enumerate() {
            fates.push(match col.filter(|_| self.occupied[k]) {
                None => ColumnFate::Vacant,
                Some(_) if stats.case_termination[k].is_failure() => ColumnFate::Failed,
                Some(case) => {
                    extract_case(&self.x, self.r, k, &mut self.u);
                    let (ab_guess, snapshot) = (&self.ab_guesses[k], self.snapshot[k]);
                    let detect = self.integrity.detect;
                    advance_column(backend, case, &self.u, ab_guess, snapshot, detect)
                }
            });
        }
        fates
    }
}

/// Advance `case` by its solved step `u` (recording the predictor snapshot
/// against `ab_guess`, corrupted by `snapshot` if injected), then scrub it
/// when `detect` is on: the harvest of one column, shared with the
/// single-RHS CRS drivers.
pub(crate) fn advance_column(
    backend: &Backend,
    case: &mut CaseSlot,
    u: &[f64],
    ab_guess: &[f64],
    snapshot: Option<VectorFault>,
    detect: bool,
) -> ColumnFate {
    let history_ok = case.advance(backend, u, ab_guess, snapshot);
    match detect.then(|| scrub_state(case)).flatten() {
        Some(field) => ColumnFate::Corrupt(field),
        None => ColumnFate::Advanced { history_ok },
    }
}
