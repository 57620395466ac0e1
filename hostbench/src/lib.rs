//! Host wall-clock benchmark of `hetsolve`: three workloads driven through
//! the crates' public functions, their end-to-end metrics taken untraced,
//! and a separate traced run that times each layer's calls.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload solo-ensemble-8k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `hostbench/README.md` for the metric table and the workloads.

pub mod host;
pub mod layers;
pub mod spans;
pub mod workload;

use hetsolve::obs::Json;

pub use layers::{Metrics, END_TO_END, PER_LAYER};
pub use workload::{run_workload, Outcome, Spec, Workload};

/// The metrics a run prints: every end-to-end metric untraced, every
/// per-layer metric traced, in table order as (name, unit, value).
pub fn printed_metrics(o: &Outcome, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let (table, values) = if traced {
        (PER_LAYER, &o.per_layer)
    } else {
        (END_TO_END, &o.end_to_end)
    };
    table
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name)))
        .collect()
}

/// Correctness failures of `o`, plus any printed metric that is not a
/// finite number.
pub fn failures(o: &Outcome, traced: bool) -> Vec<String> {
    let mut f = o.failures.clone();
    for (name, _, v) in printed_metrics(o, traced) {
        if !v.is_finite() {
            f.push(format!("metric {name} is not finite ({v})"));
        }
    }
    f
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(o: &Outcome, traced: bool) -> Json {
    let metrics = Json::Obj(
        printed_metrics(o, traced)
            .into_iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(failures(o, traced).is_empty())),
        ("attempted", Json::from(o.attempted.max(1) as usize)),
        ("failed", Json::from(o.failed as usize)),
        ("metrics", metrics),
    ])
}
