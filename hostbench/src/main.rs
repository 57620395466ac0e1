//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, each metric with its unit, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Writes the same result (and, when traced, a Chrome trace of the spans)
//! under `hostbench/out/`. Exits 1 when an output is wrong, 2 on bad
//! arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use hetsolve::obs::Json;
use hostbench::host::Fingerprint;
use hostbench::{failures, printed_metrics, result_json, run_workload, Spec, Workload};

const USAGE: &str =
    "usage: hostbench --workload <solo-ensemble-8k|serve-soak-945|cluster-soak-945> \
     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("hostbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let name = args.workload.name();
    let outcome = run_workload(
        args.workload,
        &Spec::FULL,
        args.seed,
        args.seconds,
        args.traced,
        &out_dir,
    );

    let host = Fingerprint::capture();
    println!("hostbench host {}", host.to_json().to_string_compact());
    for (metric, unit, value) in printed_metrics(&outcome, args.traced) {
        println!("hostbench {name} {metric} = {value} {unit}");
    }
    for note in &outcome.notes {
        println!("hostbench {name} info: {note}");
    }
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.traced));
    if args.traced {
        let path = out_dir.join(format!("{stem}.trace.json"));
        if let Err(e) = outcome.spans.to_trace(name).write_to(&path) {
            eprintln!("hostbench: cannot write {}: {e}", path.display());
        }
        for (span, self_s, calls) in outcome.spans.self_time_by_name() {
            println!("hostbench {name} self {span} = {self_s} s over {calls} calls");
        }
        println!("hostbench {name} wrote {}", path.display());
    }
    let failed = failures(&outcome, args.traced);
    for f in &failed {
        eprintln!("hostbench {name} CHECK FAILED: {f}");
    }
    let result = result_json(&outcome, args.traced);
    let self_times = Json::Arr(
        outcome
            .spans
            .self_time_by_name()
            .into_iter()
            .map(|(span, self_s, calls)| {
                Json::obj([
                    ("span", Json::from(span)),
                    ("self_s", Json::Num(self_s)),
                    ("calls", Json::from(calls)),
                ])
            })
            .collect(),
    );
    let record = Json::obj([
        ("workload", Json::from(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("host", host.to_json()),
        ("result", result.clone()),
        ("span_self_times", self_times),
        (
            "failures",
            Json::Arr(failed.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ]);
    let path = out_dir.join(format!("{stem}.result.json"));
    if let Err(e) = std::fs::write(&path, record.to_string_pretty()) {
        eprintln!("hostbench: cannot write {}: {e}", path.display());
    }
    println!("{}", result.to_string_compact());
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
