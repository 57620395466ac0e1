//! The benchmark's own contract: determinism of everything modeled,
//! seed-dependent inputs, and printed metric names that match
//! `BENCHMARK.json`. The workloads run here on small meshes and soaks so
//! the suite stays fast; the code paths are the benchmark's own.

use std::path::PathBuf;

use hetsolve::load::ArrivalLog;
use hetsolve::obs::{parse_json, Json};
use hostbench::workload::load_config;
use hostbench::{printed_metrics, result_json, run_workload, Outcome, Spec, Workload};

const SMALL: Spec = Spec {
    solo_mesh: (3, 3, 2),
    solo_steps: 4,
    soak_mesh: (3, 3, 2),
    soak_requests: 40,
    setup_repeats: 1,
    crs_cases: 2,
    check_samples: 2,
};

/// Metrics that depend only on the seed, never on host timing.
const DETERMINISTIC: &[&str] = &[
    "modeled_case_step_s",
    "modeled_energy_per_case_step_j",
    "latency_p50_s",
    "latency_p99_s",
    "ok_ratio",
    "state_bytes",
    "fem.ebe_apply_calls",
    "sparse.cg_iterations",
    "predictor.window_mean",
    "predictor.initial_rel_res",
    "machine.modeled_solver_s",
    "machine.modeled_predictor_s",
    "machine.modeled_transfer_s",
    "serve.ticks",
    "serve.occupancy_mean",
    "serve.queue_depth_peak",
    "serve.autoscale_events",
    "load.admit_lag_p99_s",
    "ckpt.replica_writes",
    "cluster.link_time_s",
    "cluster.stolen",
];

fn scratch() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostbench-tests");
    std::fs::create_dir_all(&dir).expect("create test scratch directory");
    dir
}

fn small_run(w: Workload, seed: u64, traced: bool) -> Outcome {
    let o = run_workload(w, &SMALL, seed, 1e-3, traced, &scratch());
    assert!(
        o.failures.is_empty(),
        "{} failed its checks: {:?}",
        w.name(),
        o.failures
    );
    o
}

/// (name, unit) of every metric declared in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .expect("section present")
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn same_seed_gives_identical_deterministic_metrics() {
    for w in Workload::ALL {
        let a = small_run(w, 11, true);
        let b = small_run(w, 11, true);
        for name in DETERMINISTIC {
            let (x, y) = (
                a.end_to_end.get(name) + a.per_layer.get(name),
                b.end_to_end.get(name) + b.per_layer.get(name),
            );
            assert_eq!(x.to_bits(), y.to_bits(), "{} {name}: {x} vs {y}", w.name());
        }
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
        assert_eq!(a.failed, b.failed, "{}", w.name());
    }
}

#[test]
fn different_seed_gives_a_different_arrival_log() {
    let log = |seed| ArrivalLog::generate(&load_config(seed, 200, 5e-6, 1));
    assert_eq!(log(1), log(1));
    assert_ne!(log(1).arrivals, log(2).arrivals);
    let o1 = small_run(Workload::Serve, 1, false);
    let o2 = small_run(Workload::Serve, 2, false);
    assert_ne!(o1.log, o2.log);
    assert_ne!(
        o1.end_to_end.get("latency_p99_s"),
        o2.end_to_end.get("latency_p99_s")
    );
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(section);
        for w in Workload::ALL {
            let o = small_run(w, 3, traced);
            let printed: Vec<(String, String)> = printed_metrics(&o, traced)
                .into_iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(printed, want, "{} {section}", w.name());
            let line = result_json(&o, traced);
            let keys: Vec<&String> = match line.get("metrics") {
                Some(Json::Obj(m)) => m.keys().collect(),
                _ => panic!("result line has no metrics object"),
            };
            let mut names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
            names.sort();
            assert_eq!(keys, names, "{} {section} result line", w.name());
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }
}
