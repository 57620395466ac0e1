//! The three workloads: set-up, the timed section and the correctness
//! checks, all driven through the crates' public functions.
//!
//! * `solo-ensemble-8k` — a closed-loop batch job: one caller runs
//!   EBE-MCG@CPU-GPU over 2r cases and waits for it, then the paper's
//!   CRS-CG@CPU baseline on the same mesh and seed. Kernel-bound: the EBE
//!   apply is most of the wall time and no serve, checkpoint or load code
//!   runs, so kernel changes show here and control-plane changes must not.
//! * `serve-soak-945` — one `EnsembleServer` under an open-loop, three-tenant
//!   Zipf load with a 2× burst; small kernels, so per-request set-up,
//!   per-tick allocation, integrity captures and the record table are a
//!   large share of each tick.
//! * `cluster-soak-945` — the same traffic through a 2-shard
//!   `ClusterServer` that mirrors every shard's full checkpoint to its
//!   peer on every tick, so the checkpoint codec and the state size do
//!   real work.

use std::path::Path;
use std::time::Instant;

use hetsolve::ckpt::CheckpointStore;
use hetsolve::core::{
    run, run_durable, run_ensemble, run_traced, Backend, CheckpointPolicy, EnsembleConfig,
    MethodKind, RunConfig, RunResult, StepTracer, WindowPolicy,
};
use hetsolve::fault::NoopFaults;
use hetsolve::fem::FemProblem;
use hetsolve::load::{ArrivalLog, LoadConfig, TrafficShape};
use hetsolve::machine::{alps_node, single_gh200, transfer_time, ModuleClock, NodeSpec};
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::obs::ServeStats;
use hetsolve::serve::{
    AdmitError, AutoscaleConfig, ClusterConfig, ClusterServer, EnsembleServer, QosConfig,
    RequestId, RequestRecord, RequestState, ServeConfig, SolveRequest, TenantQuota,
};

use crate::host::{mean, median, peak_rss_bytes, quantile};
use crate::layers::{self, Calls, Metrics};
use crate::spans::Recorder;

/// Fused right-hand sides per lane (the paper's r).
const R: usize = 4;
/// Snapshot-window cap.
const S_MAX: usize = 16;
/// Passes over the soak's CRS-CG@CPU baseline cases, spread over the soak.
const CRS_PASSES: usize = 8;
/// Shards of the cluster workload.
const SHARDS: usize = 2;
/// Soak requests run `STEPS_MIN..=STEPS_MAX` steps each.
const STEPS_MIN: u32 = 2;
const STEPS_MAX: u32 = 6;
/// Offered load as a share of the serving capacity.
const LOAD_FACTOR: f64 = 0.7;
/// Rate surges per soak horizon.
const SURGES: f64 = 50.0;
/// Modeled duration of one lane step at r = 4 on the 945-DOF mesh, in
/// units of the server's `step_floor_s` (which counts only the exchange
/// transfer). Measured with a saturated soak: 18.4 µs per lane step
/// against a 5.13 µs floor. The offered rate is fixed from it, so a
/// slower server receives the same load rather than less.
const LANE_STEP_FLOORS: f64 = 3.6;
/// Relative agreement EBE-MCG case 0 must reach with CRS-CG@CPU (the
/// bound of the repository's accuracy-equivalence test).
const ACCURACY_BOUND: f64 = 1e-5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Serve,
    Cluster,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Solo, Workload::Serve, Workload::Cluster];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo-ensemble-8k",
            Workload::Serve => "serve-soak-945",
            Workload::Cluster => "cluster-soak-945",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of a run. [`Spec::FULL`] is the benchmark; the tests run the
/// same code on smaller sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// `paper_like` mesh of the solo workload (8×8×4 = 7,803 DOF).
    pub solo_mesh: (usize, usize, usize),
    pub solo_steps: usize,
    /// `paper_like` mesh of both soaks (4×3×2 = 945 DOF).
    pub soak_mesh: (usize, usize, usize),
    /// Arrivals per soak; at 1,000 the p99 latency has 10 samples above it.
    pub soak_requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// First arrivals of a soak rerun as CRS-CG@CPU cases (the baseline).
    pub crs_cases: usize,
    /// Served requests per soak checked bitwise against solo runs.
    pub check_samples: usize,
}

impl Spec {
    pub const FULL: Spec = Spec {
        solo_mesh: (8, 8, 4),
        solo_steps: 12,
        soak_mesh: (4, 3, 2),
        soak_requests: 1000,
        setup_repeats: 9,
        crs_cases: 40,
        check_samples: 6,
    };
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub end_to_end: Metrics,
    /// Filled by traced runs only.
    pub per_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty when the outputs are correct.
    pub failures: Vec<String>,
    /// Lines printed for information, never gated.
    pub notes: Vec<String>,
    pub spans: Recorder,
    /// Arrival log of a soak (the tests compare logs across seeds).
    pub log: Option<ArrivalLog>,
}

/// Run workload `w` with inputs made from `seed`, measuring for about
/// `seconds`; `traced` selects the per-layer run. `scratch` is a
/// directory the run may write into (the solo checkpoint store).
pub fn run_workload(
    w: Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> Outcome {
    match w {
        Workload::Solo => solo(spec, seed, seconds, traced, scratch),
        Workload::Serve | Workload::Cluster => soak(w, spec, seed, seconds, traced),
    }
}

fn recorder(traced: bool) -> Recorder {
    if traced {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// Set-up times of one `build_backend`.
struct BuildTimes {
    fem_s: f64,
    backend_s: f64,
}

/// Mesh + FEM problem + backend with assembled matrices (for the CRS-CG
/// baseline) and the parallel kernels on.
fn build_backend(mesh: (usize, usize, usize), rec: &mut Recorder) -> (Backend, BuildTimes) {
    let t = Instant::now();
    let problem = rec.time("fem.problem_build", || {
        let spec = GroundModelSpec::paper_like(mesh.0, mesh.1, mesh.2, InterfaceShape::Stratified);
        FemProblem::paper_like(&spec)
    });
    let fem_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let backend = rec.time("core.backend_build", || Backend::new(problem, true, true));
    let backend_s = t.elapsed().as_secs_f64();
    (backend, BuildTimes { fem_s, backend_s })
}

fn solo_config(seed: u64, steps: usize) -> RunConfig {
    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), steps);
    cfg.r = R;
    cfg.s_max = S_MAX;
    cfg.window = WindowPolicy::Adaptive;
    cfg.seed = seed;
    cfg
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn max_rel_diff(x: &[f64], reference: &[f64]) -> f64 {
    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if scale == 0.0 || x.len() != reference.len() {
        return f64::INFINITY;
    }
    x.iter()
        .zip(reference)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs() / scale))
}

/// Σ fused iterations and the number of fused solves, from the spans
/// named `span` that a `StepTracer` or a serving trace labels with
/// `fused_iterations`.
fn fused_iterations(events: &[hetsolve::obs::TraceEvent], span: &str) -> (f64, f64) {
    let mut total = 0.0;
    let mut solves = 0.0;
    for e in events.iter().filter(|e| e.name == span) {
        if let Some(f) = e
            .args
            .iter()
            .find(|(k, _)| k == "fused_iterations")
            .and_then(|(_, v)| v.as_f64())
        {
            total += f;
            solves += 1.0;
        }
    }
    (total, solves)
}

fn solo(spec: &Spec, seed: u64, seconds: f64, traced: bool, scratch: &Path) -> Outcome {
    let mut rec = recorder(traced);
    let mut failures = Vec::new();
    rec.begin("hostbench.solo");

    rec.begin("setup");
    let mut setup_s = Vec::new();
    let mut builds = Vec::new();
    let mut backend = None;
    for _ in 0..spec.setup_repeats.max(1) {
        let t = Instant::now();
        let (b, times) = build_backend(spec.solo_mesh, &mut rec);
        setup_s.push(t.elapsed().as_secs_f64());
        builds.push(times);
        backend = Some(b);
    }
    rec.end();
    let backend = backend.expect("at least one set-up ran");

    let cfg = solo_config(seed, spec.solo_steps);
    let mut crs_cfg = cfg.clone();
    crs_cfg.method = MethodKind::CrsCgCpu;
    let n_cases = cfg.method.n_cases(cfg.r);
    let case_steps = (n_cases * cfg.n_steps) as f64;

    // timed section: EBE-MCG then the CRS-CG baseline, repeated until the
    // next repeat would overrun the budget (one repeat when traced)
    let mut ebe_wall = Vec::new();
    let mut crs_wall = Vec::new();
    let mut first: Option<(RunResult, RunResult)> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let ebe = rec.time("core.run", || run(&backend, &cfg));
        let te = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let crs = rec.time("core.run_crs", || run(&backend, &crs_cfg));
        let tc = t.elapsed().as_secs_f64();
        attempted += n_cases as u64 + 1;
        let (ebe, crs) = match (ebe, crs) {
            (Ok(e), Ok(c)) => (e, c),
            (e, c) => {
                for err in [e.err(), c.err()].into_iter().flatten() {
                    failures.push(format!("run returned an error: {err}"));
                    failed += 1;
                }
                break;
            }
        };
        ebe_wall.push(te);
        crs_wall.push(tc);
        match &first {
            None => first = Some((ebe, crs)),
            Some((e0, c0)) => {
                let same = (0..n_cases).all(|c| bits_equal(&ebe.final_u[c], &e0.final_u[c]))
                    && bits_equal(&crs.final_u[0], &c0.final_u[0]);
                if !same {
                    failures.push("repeated runs of one seed differ bitwise".to_string());
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_repeat = elapsed / ebe_wall.len() as f64;
        if traced || elapsed + per_repeat > seconds {
            break;
        }
    }

    let mut end_to_end = Metrics::default();
    let mut per_layer = Metrics::default();
    let mut notes = Vec::new();
    if let Some((ebe, crs)) = &first {
        // correctness, outside the timed section
        rec.begin("checks");
        let dev = max_rel_diff(&ebe.final_u[0], &crs.final_u[0]);
        if dev >= ACCURACY_BOUND {
            failures.push(format!(
                "EBE-MCG case 0 deviates from CRS-CG@CPU by {dev:.3e} (bound {ACCURACY_BOUND:.0e})"
            ));
        }
        let store_dir = scratch.join(format!("solo-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let policy = CheckpointPolicy {
            every: cfg.n_steps.saturating_sub(1).max(1),
            keep: 2,
        };
        let durable = CheckpointStore::new(&store_dir, policy.keep)
            .map_err(|e| e.to_string())
            .and_then(|store| {
                run_durable(
                    &backend,
                    &cfg,
                    &mut StepTracer::disabled(),
                    &mut NoopFaults,
                    &store,
                    policy,
                )
                .map_err(|e| e.to_string())
            });
        let _ = std::fs::remove_dir_all(&store_dir);
        let state_bytes = match durable {
            Ok(d) => {
                if !(0..n_cases).all(|c| bits_equal(&d.result.final_u[c], &ebe.final_u[c])) {
                    failures.push("durable run differs bitwise from the plain run".to_string());
                }
                d.checkpoint_bytes as f64
            }
            Err(e) => {
                failures.push(format!("durable run failed: {e}"));
                0.0
            }
        };
        rec.end();

        let steps_time: Vec<f64> = ebe.records.iter().map(|r| r.step_time_per_case).collect();
        let time_to_solution = steps_time.iter().sum::<f64>() * n_cases as f64;
        let ebe_rate = median_of(&ebe_wall, |w| case_steps / w);
        let crs_step = median_of(&crs_wall, |w| w / cfg.n_steps as f64);
        end_to_end.set("setup_s", median(&setup_s));
        end_to_end.set("case_steps_per_s", ebe_rate);
        end_to_end.set("crs_case_step_s", crs_step);
        end_to_end.set("modeled_case_step_s", mean(&steps_time));
        end_to_end.set(
            "modeled_energy_per_case_step_j",
            ebe.energy_per_step_per_case(),
        );
        // every case of the batch completes with its last step
        end_to_end.set("latency_p50_s", time_to_solution);
        end_to_end.set("latency_p99_s", time_to_solution);
        end_to_end.set("ok_ratio", 1.0 - ebe.recoveries.len() as f64 / case_steps);
        end_to_end.set("state_bytes", state_bytes);
        notes.push(format!(
            "host CRS-CG@CPU / EBE-MCG per case-step = {:.3} (modeled speed-up {:.2}; not gated)",
            crs_step * ebe_rate,
            crs.mean_step_time(0) / ebe.mean_step_time(0).max(f64::MIN_POSITIVE),
        ));

        if traced {
            // the traced run: the same EBE run under a StepTracer (its
            // spans give the exact fused-iteration counts), then each
            // layer's calls timed one by one on this backend
            let t = Instant::now();
            let mut tracer = StepTracer::new();
            let traced_run = rec.time("core.run_traced", || {
                run_traced(&backend, &cfg, &mut tracer)
            });
            let traced_wall = t.elapsed().as_secs_f64();
            if let Err(e) = traced_run {
                failures.push(format!("traced run returned an error: {e}"));
            }
            let (f_total, solves) = fused_iterations(tracer.trace.events(), "rhs + MCG solve");
            let with_s: Vec<f64> = ebe
                .records
                .iter()
                .filter(|r| r.s_used > 0)
                .map(|r| r.s_used as f64)
                .collect();
            let calls = Calls {
                case_steps,
                steps: ebe.records.len() as f64,
                solves,
                fused_iterations: f_total,
                predict_calls: with_s.len() as f64 * n_cases as f64,
                predict_window: mean(&with_s).round().max(1.0) as usize,
            };
            let run_s = ebe_wall[0];
            per_layer = layers::measure(&backend, &cfg, &calls, run_s, 0.0, &mut rec);
            per_layer.set("fem.problem_build_s", median_of(&builds, |b| b.fem_s));
            per_layer.set("core.backend_build_s", median_of(&builds, |b| b.backend_s));
            per_layer.set(
                "sparse.cg_iterations",
                if solves > 0.0 { f_total / solves } else { 0.0 },
            );
            let records = &ebe.records;
            per_layer.set(
                "predictor.window_mean",
                mean_of(records, |r| r.s_used as f64),
            );
            per_layer.set(
                "predictor.initial_rel_res",
                mean_of(records, |r| r.initial_rel_res),
            );
            per_layer.set(
                "machine.modeled_solver_s",
                mean_of(records, |r| r.solver_time_per_case),
            );
            per_layer.set(
                "machine.modeled_predictor_s",
                mean_of(records, |r| r.predictor_time_per_case),
            );
            // the exchange is charged into the step time, not its own field
            per_layer.set(
                "machine.modeled_transfer_s",
                mean_of(records, |r| {
                    r.step_time_per_case - r.solver_time_per_case.max(r.predictor_time_per_case)
                }),
            );
            per_layer.set("obs.trace_overhead_ratio", traced_wall / run_s);
        }
    }
    rec.end();
    end_to_end.set("peak_rss_bytes", peak_rss_bytes());
    Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        notes,
        spans: rec,
        log: None,
    }
}

fn median_of<T>(v: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&v.iter().map(f).collect::<Vec<_>>())
}

fn mean_of<T>(v: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&v.iter().map(f).collect::<Vec<_>>())
}

/// The serving configuration both soaks share: r = 4, three tenants with
/// weights 4/2/1, lanes autoscaled between 1 and 4, results kept (the
/// default), and a queue deep enough that the burst is never shed.
fn serve_config(node: NodeSpec) -> ServeConfig {
    let mut cfg = ServeConfig::new(node);
    cfg.run.r = R;
    cfg.run.s_max = S_MAX;
    cfg.queue_capacity = 256;
    cfg.with_qos(QosConfig::new(vec![
        TenantQuota::new(4),
        TenantQuota::new(2),
        TenantQuota::new(1),
    ]))
    .with_autoscale(AutoscaleConfig::new(1, 4))
}

/// Open-loop arrivals at `LOAD_FACTOR` of the capacity of `servers`
/// node-local servers, derived from their step floor, surging to twice
/// that rate and back `SURGES` times over the horizon. A single surge made
/// the p99 latency hinge on one random backlog (it varied ×2 between
/// seeds); many short surges keep the overload while the tail averages
/// over them.
pub fn load_config(seed: u64, n_requests: usize, step_floor_s: f64, servers: usize) -> LoadConfig {
    let mean_steps = f64::from(STEPS_MIN + STEPS_MAX) / 2.0;
    let capacity_rps = (servers * R) as f64 / (mean_steps * LANE_STEP_FLOORS * step_floor_s);
    let base_rps = LOAD_FACTOR * capacity_rps;
    let horizon_s = n_requests as f64 / base_rps;
    LoadConfig::new(seed, n_requests, base_rps)
        .with_shape(TrafficShape::Diurnal {
            base_rps,
            amplitude: 1.0,
            period_s: horizon_s / SURGES,
        })
        .with_tenants(3, 1.1)
        .with_steps(STEPS_MIN, STEPS_MAX)
}

/// What the soak loop needs from a server or a cluster.
trait Target {
    fn admit(&mut self, request: SolveRequest) -> Result<RequestId, AdmitError>;
    fn tick(&mut self);
    fn advance_idle(&mut self, dt: f64);
    fn elapsed(&self) -> f64;
    fn is_idle(&self) -> bool;
    fn queue_depth(&self) -> usize;
    fn record(&self, id: RequestId) -> RequestRecord;
    fn result(&self, id: RequestId) -> Option<Vec<f64>>;
    fn stats(&self) -> ServeStats;
    fn checkpoint_bytes(&self) -> Vec<u8>;
    /// The node-local servers (one, or one per shard).
    fn servers(&self) -> Vec<&EnsembleServer<'_>>;
    /// Turn on the serving trace whose spans count fused iterations
    /// (single servers only; cluster shards offer no trace).
    fn enable_trace(&mut self);
    fn solve_log(&mut self) -> Option<(f64, f64)>;
    fn replica_writes(&self) -> f64;
    fn replica_bytes(&self) -> f64;
    fn link_time_s(&self) -> f64;
}

impl Target for EnsembleServer<'_> {
    fn admit(&mut self, request: SolveRequest) -> Result<RequestId, AdmitError> {
        EnsembleServer::admit(self, request)
    }
    fn tick(&mut self) {
        EnsembleServer::tick(self)
    }
    fn advance_idle(&mut self, dt: f64) {
        EnsembleServer::advance_idle(self, dt)
    }
    fn elapsed(&self) -> f64 {
        EnsembleServer::elapsed(self)
    }
    fn is_idle(&self) -> bool {
        EnsembleServer::is_idle(self)
    }
    fn queue_depth(&self) -> usize {
        EnsembleServer::queue_depth(self)
    }
    fn record(&self, id: RequestId) -> RequestRecord {
        EnsembleServer::record(self, id).clone()
    }
    fn result(&self, id: RequestId) -> Option<Vec<f64>> {
        EnsembleServer::result(self, id).map(<[f64]>::to_vec)
    }
    fn stats(&self) -> ServeStats {
        EnsembleServer::stats(self).clone()
    }
    fn checkpoint_bytes(&self) -> Vec<u8> {
        EnsembleServer::checkpoint_bytes(self)
    }
    fn servers(&self) -> Vec<&EnsembleServer<'_>> {
        vec![self]
    }
    fn enable_trace(&mut self) {
        EnsembleServer::enable_trace(self)
    }
    fn solve_log(&mut self) -> Option<(f64, f64)> {
        self.take_trace()
            .map(|t| fused_iterations(t.events(), "fused MCG"))
    }
    fn replica_writes(&self) -> f64 {
        0.0
    }
    fn replica_bytes(&self) -> f64 {
        0.0
    }
    fn link_time_s(&self) -> f64 {
        0.0
    }
}

impl Target for ClusterServer<'_> {
    fn admit(&mut self, request: SolveRequest) -> Result<RequestId, AdmitError> {
        ClusterServer::admit(self, request)
    }
    fn tick(&mut self) {
        ClusterServer::tick(self)
    }
    fn advance_idle(&mut self, dt: f64) {
        ClusterServer::advance_idle(self, dt)
    }
    fn elapsed(&self) -> f64 {
        ClusterServer::elapsed(self)
    }
    fn is_idle(&self) -> bool {
        ClusterServer::is_idle(self)
    }
    fn queue_depth(&self) -> usize {
        ClusterServer::queue_depth(self)
    }
    fn record(&self, id: RequestId) -> RequestRecord {
        ClusterServer::record(self, id)
    }
    fn result(&self, id: RequestId) -> Option<Vec<f64>> {
        ClusterServer::result(self, id)
    }
    fn stats(&self) -> ServeStats {
        ClusterServer::stats(self)
    }
    fn checkpoint_bytes(&self) -> Vec<u8> {
        ClusterServer::checkpoint_bytes(self)
    }
    fn servers(&self) -> Vec<&EnsembleServer<'_>> {
        self.shards().iter().collect()
    }
    fn enable_trace(&mut self) {}
    fn solve_log(&mut self) -> Option<(f64, f64)> {
        None
    }
    fn replica_writes(&self) -> f64 {
        self.metrics_registry()
            .counter("serve_replica_writes_total")
    }
    fn replica_bytes(&self) -> f64 {
        self.traffic().replica_bytes
    }
    fn link_time_s(&self) -> f64 {
        self.traffic().link_time_s
    }
}

/// What one pass of the soak loop saw.
struct Drive {
    /// (arrival index, id) of every admitted request.
    admitted: Vec<(usize, RequestId)>,
    rejected: usize,
    shed: usize,
    peak_queue: usize,
    /// Modeled lateness of each admission behind its due time.
    admit_lag_s: Vec<f64>,
    ticks: usize,
    wall_s: f64,
}

/// Replay `log` open-loop on the modeled clock, the way the load crate's
/// soak drivers do: tick while work is pending and the next arrival is
/// still ahead, idle the clock across gaps, admit each request at the
/// first boundary at or after its due time, then drain. Before every
/// `pause_every`-th arrival the host loop pauses for `pause`; the modeled
/// clock does not move meanwhile, and the pause is left out of `wall_s`.
fn drive(
    t: &mut dyn Target,
    log: &ArrivalLog,
    rec: &mut Recorder,
    pause_every: usize,
    pause: &mut dyn FnMut(),
) -> Drive {
    let mut d = Drive {
        admitted: Vec::with_capacity(log.len()),
        rejected: 0,
        shed: 0,
        peak_queue: 0,
        admit_lag_s: Vec::with_capacity(log.len()),
        ticks: 0,
        wall_s: 0.0,
    };
    let started = Instant::now();
    let mut paused_s = 0.0;
    for (i, a) in log.arrivals.iter().enumerate() {
        if i % pause_every == 0 {
            let p = Instant::now();
            pause();
            paused_s += p.elapsed().as_secs_f64();
        }
        while t.elapsed() < a.t_s {
            if t.is_idle() {
                let dt = a.t_s - t.elapsed();
                rec.time("serve.advance_idle", || t.advance_idle(dt));
                break;
            }
            rec.time("serve.tick", || t.tick());
            d.ticks += 1;
            d.peak_queue = d.peak_queue.max(t.queue_depth());
        }
        d.admit_lag_s.push(t.elapsed() - a.t_s);
        match rec.time("serve.admit", || t.admit(a.request)) {
            Ok(id) => d.admitted.push((i, id)),
            Err(AdmitError::Rejected(_)) => d.rejected += 1,
            Err(AdmitError::ShedLoad { .. } | AdmitError::TenantShed { .. }) => d.shed += 1,
        }
        d.peak_queue = d.peak_queue.max(t.queue_depth());
    }
    while !t.is_idle() {
        rec.time("serve.tick", || t.tick());
        d.ticks += 1;
        d.peak_queue = d.peak_queue.max(t.queue_depth());
    }
    d.wall_s = started.elapsed().as_secs_f64() - paused_s;
    d
}

fn make_target<'b>(
    backend: &'b Backend,
    w: Workload,
    node: NodeSpec,
) -> (Box<dyn Target + 'b>, Vec<ServeConfig>) {
    let serve = serve_config(node);
    if w == Workload::Cluster {
        let cfg = ClusterConfig::new(serve, SHARDS);
        let shard_cfgs = (0..SHARDS).map(|i| cfg.shard_cfg(i)).collect();
        (Box::new(ClusterServer::new(backend, cfg)), shard_cfgs)
    } else {
        (
            Box::new(EnsembleServer::new(backend, serve.clone())),
            vec![serve],
        )
    }
}

fn soak(w: Workload, spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut rec = recorder(traced);
    let mut failures = Vec::new();
    let node = if w == Workload::Cluster {
        alps_node()
    } else {
        single_gh200()
    };
    rec.begin(if w == Workload::Cluster {
        "hostbench.cluster"
    } else {
        "hostbench.serve"
    });

    rec.begin("setup");
    let mut setup_s = Vec::new();
    let mut builds = Vec::new();
    let mut generate_s = Vec::new();
    let mut built = None;
    for _ in 0..spec.setup_repeats.max(1) {
        let t = Instant::now();
        let (backend, times) = build_backend(spec.soak_mesh, &mut rec);
        let (floor, servers) = {
            let (target, _) = rec.time("serve.server_build", || make_target(&backend, w, node));
            let servers = target.servers();
            (servers[0].step_floor_s(), servers.len())
        };
        let tg = Instant::now();
        let log = rec.time("load.generate", || {
            ArrivalLog::generate(&load_config(seed, spec.soak_requests, floor, servers))
        });
        generate_s.push(tg.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        builds.push(times);
        built = Some((backend, log));
    }
    rec.end();
    let (backend, log) = built.expect("at least one set-up ran");

    // the paper's baseline on the soak's own inputs: CRS-CG@CPU over the
    // first arrivals' seeds and step counts, one pass before each
    // `1/CRS_PASSES` of the arrivals so it meets the same host states as
    // the soak it is compared with; median per case-step
    let mut crs_cfg = serve_config(node).run;
    crs_cfg.method = MethodKind::CrsCgCpu;
    let mut crs_step = Vec::new();
    let mut crs_error = None;
    let mut crs_pass = || {
        if crs_error.is_some() {
            return;
        }
        let (mut wall, mut steps) = (0.0, 0usize);
        for a in log.arrivals.iter().take(spec.crs_cases) {
            crs_cfg.seed = a.request.seed;
            crs_cfg.n_steps = a.request.n_steps;
            let t = Instant::now();
            if let Err(e) = run(&backend, &crs_cfg) {
                crs_error = Some(e.to_string());
                return;
            }
            wall += t.elapsed().as_secs_f64();
            steps += a.request.n_steps;
        }
        crs_step.push(wall / steps.max(1) as f64);
    };

    // timed section: whole soaks until the next would overrun the budget;
    // a traced run makes one untraced pass and one traced pass. The
    // "soak" span holds the baseline passes too; `wall_s` does not.
    let mut walls = Vec::new();
    let mut untraced = Recorder::disabled();
    let pause_every = log.len().div_ceil(CRS_PASSES).max(1);
    let started = Instant::now();
    let (target, shard_cfgs, d) = loop {
        let (mut target, shard_cfgs) = make_target(&backend, w, node);
        rec.begin("soak");
        let d = drive(
            target.as_mut(),
            &log,
            &mut untraced,
            pause_every,
            &mut crs_pass,
        );
        rec.end();
        walls.push(d.wall_s);
        let elapsed = started.elapsed().as_secs_f64();
        if traced || elapsed + elapsed / walls.len() as f64 > seconds {
            break (target, shard_cfgs, d);
        }
    };
    if let Some(e) = crs_error {
        failures.push(format!("CRS-CG@CPU baseline returned an error: {e}"));
    }
    let attempted = (log.len() * walls.len()) as u64;

    // correctness, outside the timed section
    rec.begin("checks");
    let records: Vec<(usize, RequestRecord)> = d
        .admitted
        .iter()
        .map(|&(i, id)| (i, target.record(id)))
        .collect();
    if d.admitted.len() + d.rejected + d.shed != log.len() {
        failures.push("an arrival was neither admitted, rejected nor shed".to_string());
    }
    let not_terminal = records
        .iter()
        .filter(|(_, r)| !r.state.is_terminal())
        .count();
    if not_terminal > 0 {
        failures.push(format!(
            "{not_terminal} admitted requests never reached a terminal state"
        ));
    }
    let run_failed = records
        .iter()
        .filter(|(_, r)| r.state == RequestState::Failed)
        .count();
    if run_failed > 0 {
        failures.push(format!(
            "{run_failed} requests failed after the recovery ladder"
        ));
    }
    let done: Vec<&(usize, RequestRecord)> = records
        .iter()
        .filter(|(_, r)| r.state == RequestState::Done)
        .collect();
    let run_cfg = shard_cfgs[0].run.clone();
    let mut reference_iterations = Vec::new();
    let mut reference_rel_res = Vec::new();
    let samples = spec.check_samples.min(done.len());
    for k in 0..samples {
        let (_, rec_k) = done[k * done.len() / samples];
        let req = rec_k.request;
        let solo = EnsembleConfig::new(node, 1, req.n_steps).map(|mut ens| {
            ens.seed = req.seed;
            ens.run = run_cfg.clone();
            ens.run.window = WindowPolicy::FullWindow;
            ens
        });
        let reference = match solo {
            Ok(ens) => run_ensemble(&backend, &ens).map_err(|e| e.to_string()),
            Err(e) => Err(format!("{e:?}")),
        };
        match (reference, target.result(rec_k.id)) {
            (Ok((_, runs)), Some(served)) => {
                if !bits_equal(&served, &runs[0].final_u[0]) {
                    failures.push(format!(
                        "served request seed {} differs bitwise from its solo run",
                        req.seed
                    ));
                }
                reference_iterations.push(runs[0].mean_iterations(0));
                reference_rel_res.push(mean_of(&runs[0].records, |r| r.initial_rel_res));
            }
            (Err(e), _) => failures.push(format!("solo reference run failed: {e}")),
            (_, None) => failures.push("a done request kept no result".to_string()),
        }
    }
    rec.end();

    let served_steps: f64 = done.iter().map(|(_, r)| r.request.n_steps as f64).sum();
    let latencies: Vec<f64> = done
        .iter()
        .filter_map(|(i, r)| r.finished_at.map(|f| f - log.arrivals[*i].t_s))
        .collect();
    let stats = target.stats();
    let elapsed = target.elapsed();
    let servers = target.servers();
    let clocks: Vec<_> = servers.iter().map(|s| s.checkpoint().clock).collect();
    let (mut energy, mut cpu_busy, mut gpu_busy) = (0.0, 0.0, 0.0);
    for c in &clocks {
        let mut clock = ModuleClock::new(node.module, run_cfg.cpu_threads, true);
        clock.restore_state(c);
        let report = clock.report();
        energy += report.energy;
        cpu_busy += report.cpu_busy;
        gpu_busy += report.gpu_busy;
    }
    let lane_solves: f64 = servers
        .iter()
        .map(|s| s.stats().occupancy_samples().len() as f64)
        .sum();
    drop(servers);
    let state_bytes = target.checkpoint_bytes().len() as f64;
    // refused at admission, or admitted and then failed, evicted or shed
    let failed = (d.rejected + d.shed + records.len() - done.len()) as u64;

    let mut end_to_end = Metrics::default();
    end_to_end.set("setup_s", median(&setup_s));
    end_to_end.set("case_steps_per_s", median_of(&walls, |w| served_steps / w));
    end_to_end.set("crs_case_step_s", median(&crs_step));
    end_to_end.set("modeled_case_step_s", elapsed / served_steps.max(1.0));
    end_to_end.set(
        "modeled_energy_per_case_step_j",
        energy / served_steps.max(1.0),
    );
    end_to_end.set("latency_p50_s", quantile(&latencies, 0.50));
    end_to_end.set("latency_p99_s", quantile(&latencies, 0.99));
    end_to_end.set("ok_ratio", done.len() as f64 / log.len().max(1) as f64);
    end_to_end.set("state_bytes", state_bytes);
    let notes = vec![format!(
        "{} arrivals, {} done, {} latency samples, {} ticks; host CRS-CG@CPU / served case-step = {:.3} (not gated)",
        log.len(),
        done.len(),
        latencies.len(),
        d.ticks,
        median(&crs_step) * end_to_end.get("case_steps_per_s"),
    )];

    let mut per_layer = Metrics::default();
    if traced {
        // traced pass: per-call spans around every admit / tick / idle, and
        // (single server) the serving trace for exact fused iterations
        let (mut traced_target, _) = make_target(&backend, w, node);
        traced_target.enable_trace();
        rec.begin("soak_traced");
        let td = drive(
            traced_target.as_mut(),
            &log,
            &mut rec,
            usize::MAX,
            &mut || (),
        );
        rec.end();
        let ticks = rec.durations("serve.tick");
        let admits = rec.durations("serve.admit");

        // per-request window: a case at step k predicts from min(k, s_max)
        // snapshots, so step 0 runs the Adams guess alone
        let mut windows = Vec::new();
        for (_, r) in &done {
            for k in 0..r.request.n_steps {
                windows.push(k.min(S_MAX) as f64);
            }
        }
        let with_s: Vec<f64> = windows.iter().copied().filter(|&s| s > 0.0).collect();
        let reference_f = mean(&reference_iterations);
        let (f_total, solves) = traced_target
            .solve_log()
            .unwrap_or((lane_solves * reference_f, lane_solves));

        // checkpoint codec: encode and decode each node-local server's
        // end-of-soak state
        let mut encode_s = Vec::new();
        let mut decode_s = Vec::new();
        let mut encoded_bytes = 0.0;
        for (server, cfg) in traced_target.servers().into_iter().zip(&shard_cfgs) {
            let t = Instant::now();
            let bytes = rec.time("ckpt.encode", || server.checkpoint_bytes());
            encode_s.push(t.elapsed().as_secs_f64());
            encoded_bytes += bytes.len() as f64;
            let t = Instant::now();
            let restored = rec.time("ckpt.decode", || {
                EnsembleServer::restore(&backend, cfg.clone(), &bytes)
            });
            decode_s.push(t.elapsed().as_secs_f64());
            if restored.is_err() {
                failures.push("a server checkpoint failed to decode".to_string());
            }
        }
        let encode_per_byte = encode_s.iter().sum::<f64>() / encoded_bytes.max(1.0);
        let mirror_s = encode_per_byte * traced_target.replica_bytes();

        let calls = Calls {
            case_steps: served_steps,
            steps: 0.0,
            solves,
            fused_iterations: f_total,
            predict_calls: with_s.len() as f64,
            predict_window: mean(&with_s).round().max(1.0) as usize,
        };
        let run_s = walls[0];
        per_layer = layers::measure(&backend, &run_cfg, &calls, run_s, mirror_s, &mut rec);
        per_layer.set("fem.problem_build_s", median_of(&builds, |b| b.fem_s));
        per_layer.set("core.backend_build_s", median_of(&builds, |b| b.backend_s));
        per_layer.set("load.generate_s", median(&generate_s));
        per_layer.set(
            "sparse.cg_iterations",
            if solves > 0.0 { f_total / solves } else { 0.0 },
        );
        per_layer.set("predictor.window_mean", mean(&windows));
        per_layer.set("predictor.initial_rel_res", mean(&reference_rel_res));
        let per_step = served_steps.max(1.0);
        let n = backend.n_dofs();
        let exchange = transfer_time(&node.module.link, 2.0 * (n * R) as f64 * 8.0);
        per_layer.set("machine.modeled_solver_s", gpu_busy / per_step);
        per_layer.set("machine.modeled_predictor_s", cpu_busy / per_step);
        per_layer.set(
            "machine.modeled_transfer_s",
            lane_solves * exchange / per_step,
        );
        per_layer.set("serve.tick_p50_s", median(&ticks));
        per_layer.set("serve.tick_p95_s", quantile(&ticks, 0.95));
        per_layer.set("serve.ticks", td.ticks as f64);
        per_layer.set("serve.admit_p50_s", median(&admits));
        per_layer.set("serve.occupancy_mean", stats.mean_occupancy());
        per_layer.set("serve.queue_depth_peak", td.peak_queue as f64);
        per_layer.set("serve.autoscale_events", stats.autoscale_events() as f64);
        per_layer.set("load.admit_lag_p99_s", quantile(&d.admit_lag_s, 0.99));
        per_layer.set("ckpt.encode_s", median(&encode_s));
        per_layer.set("ckpt.decode_s", median(&decode_s));
        per_layer.set("ckpt.replica_writes", target.replica_writes());
        per_layer.set("cluster.link_time_s", target.link_time_s());
        per_layer.set("cluster.stolen", stats.stolen() as f64);
        per_layer.set("obs.trace_overhead_ratio", td.wall_s / run_s);
    }
    rec.end();
    end_to_end.set("peak_rss_bytes", peak_rss_bytes());
    Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        notes,
        spans: rec,
        log: Some(log),
    }
}
