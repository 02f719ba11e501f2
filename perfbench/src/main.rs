//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flagship_serving|cnn_stream|rtl_flagship|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it records spans around its calls into each layer and
//! reports the per-layer metrics instead. Inputs are generated from the
//! seed before any clock starts, and every output is checked against the
//! scalar spec. The last line of standard output is one JSON object;
//! a readable table goes to standard error. `LEDGER.md` says what each
//! metric measures and which end-to-end metric it should move.

mod cnn;
mod common;
mod flagship;
mod ladder;
mod rtl;
mod trace;

use common::{peak_rss_mb, Metrics, Outcome, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["flagship_serving", "cnn_stream", "rtl_flagship"];

/// Every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "tokens_per_s",
    "request_p50_us",
    "peak_rss_mb",
    "sim_pj_per_token",
    "sim_ns_per_token",
    "sim_latency_p50_ns",
];

/// Every per-layer metric, as `BENCHMARK.json` lists them.
fn per_layer() -> Vec<String> {
    let mut names: Vec<String> = [
        "batched.ns_per_token",
        "functional.ns_per_token",
        "functional.busy_us_per_token",
        "functional.calls",
        "session.ns_per_token",
        "pool.ns_per_token",
        "pool.submit_us_p50",
        "pool.handoff_us_p50",
        "pool.queue_wait_us_p50",
        "pool.queue_wait_us_p99",
        "pool.service_us_p50",
        "pool.coalesced_tokens_mean",
        "pool.replica_utilisation",
        "pipeline.ns_per_token",
    ]
    .map(String::from)
    .to_vec();
    for stage in cnn::STAGES {
        for field in [
            "occupancy",
            "residence_us_p50",
            "residence_us_p99",
            "queue_high_water",
        ] {
            names.push(format!("pipeline.{stage}.{field}"));
        }
    }
    names.extend(
        [
            "process.threads",
            "engine.events_per_token",
            "engine.evals_per_token",
            "engine.transitions_per_token",
            "engine.delta_cycles_per_token",
            "engine.max_queue",
            "engine.stale_share",
            "engine.events_per_s",
            "energy.top_fj_per_token",
            "energy.ctrl_fj_per_token",
            "energy.encoder_fj_per_token",
            "energy.decoder_fj_per_token",
            "loadgen.late_p99_us",
            "request_p99_us",
            "trace.tokens_per_s",
            "trace.overhead_share",
        ]
        .map(String::from),
    );
    names
}

/// How long the traced run spends on each workload it is not about.
const PROBE_SECONDS: f64 = 4.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    match name {
        "flagship_serving" => flagship::run(seed, seconds, tracer),
        "cnn_stream" => cnn::run(seed, seconds, tracer),
        "rtl_flagship" => rtl::run(seed, seconds, tracer),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The untraced run: every end-to-end metric.
fn measure(name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = run_workload(name, seed, seconds, None);
    outcome.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    outcome
}

/// The traced run: the workload itself with spans, the ladder, and short
/// traced runs of the other workloads for the layers this one bypasses.
fn traced(name: &str, seed: u64, seconds: f64) -> Outcome {
    let tracer = Tracer::new();
    let mut outcome = run_workload(name, seed, seconds, Some(&tracer));
    let dir =
        std::env::var_os("CARGO_MANIFEST_DIR").map_or(PathBuf::from("perfbench"), PathBuf::from);
    let path = dir
        .join("out")
        .join(format!("spans-{name}-seed{seed}.jsonl"));
    match tracer.write(&path, 100_000) {
        Ok(n) => eprintln!("wrote {n} of {} spans to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    let ladder = ladder::run(seed);
    outcome.tally.add(ladder.tally);
    outcome.metrics.fill_from(ladder.metrics);
    for other in WORKLOADS.iter().filter(|w| **w != name) {
        let probe = run_workload(other, seed, PROBE_SECONDS, Some(&Tracer::new()));
        outcome.tally.add(probe.tally);
        outcome.metrics.fill_from(probe.metrics);
    }
    outcome
}

/// The listed metrics as a JSON object, or the first one missing or not
/// finite.
fn json_metrics(metrics: &Metrics, names: &[String], prefix: &str) -> Result<Vec<String>, String> {
    names
        .iter()
        .map(|name| match metrics.0.get(name) {
            Some((v, unit)) if v.is_finite() => Ok(format!(
                "\"{prefix}{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            Some((v, _)) => Err(format!("{prefix}{name} is {v}")),
            None => Err(format!("{prefix}{name} was not measured")),
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<String> = if args.trace {
        per_layer()
    } else {
        END_TO_END.map(String::from).to_vec()
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut tally = Tally::default();
    let mut fields = Vec::new();
    for w in &workloads {
        let outcome = if args.trace {
            traced(w, args.seed, args.seconds)
        } else {
            measure(w, args.seed, args.seconds)
        };
        eprintln!(
            "== {w} (seed {}, {} s, trace {}): {} attempted, {} failed, failed_share {}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            outcome.tally.attempted,
            outcome.tally.failed,
            outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64
        );
        for name in &names {
            if let Some((v, unit)) = outcome.metrics.0.get(name) {
                eprintln!("  {name:<36} {v:>16.4} {unit}");
            }
        }
        tally.add(outcome.tally);
        let prefix = if workloads.len() > 1 {
            format!("{w}/")
        } else {
            String::new()
        };
        match json_metrics(&outcome.metrics, &names, &prefix) {
            Ok(f) => fields.extend(f),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if tally.attempted == 0 {
        eprintln!("perfbench: no request was attempted");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
