//! `nsbench` — the NeuSpin stack's benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path nsbench/Cargo.toml -- \
//!     --workload mc_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads, each driven only through the stack's public entry
//! points (`Supervisor::serve_predict` / `Supervisor::step` and the
//! HTTP front door with its client):
//!
//! * `mc_batch` — batch Bayesian inference on a paper-scale noisy die;
//! * `serve_open` — a three-die fleet behind HTTP under an open-loop,
//!   fixed-interval arrival schedule and a ladder of rates;
//! * `lifetime_mixed` — a managed die at the 350 K aging corner,
//!   alternating served batches with device-time steps (scrub,
//!   recovery, a checkpoint every interaction).
//!
//! `--trace 0` measures with all tracing off and prints the end-to-end
//! metrics; `--trace 1` records benchmark-side spans around each call
//! into a layer, turns the program's telemetry and flight recorder on
//! for a second phase, and prints the per-layer metrics. Either way the
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Every output is
//! checked; a wrong one is a failed operation and makes the exit code
//! non-zero. Spans and the full ledger (host record included) are
//! written under `.bench_out/` in the working directory.

mod common;
mod host;
mod ledger;
mod lifetime;
mod loadgen;
mod mc_batch;
mod serve_open;
mod spans;
mod stats;

use common::Ctx;
use ledger::Ledger;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Where spans and reports are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 3] = ["mc_batch", "serve_open", "lifetime_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the traced run's spans as JSONL under [`OUT_DIR`].
pub(crate) fn write_spans(workload: &str, ctx: &Ctx, spans: &[spans::Span]) {
    let path = out_path(&format!("{workload}-seed{}-spans.jsonl", ctx.seed));
    if let Err(e) = std::fs::write(&path, spans::to_jsonl(spans)) {
        eprintln!("nsbench: cannot write {}: {e}", path.display());
    }
}

fn out_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("nsbench: cannot create {}: {e}", dir.display());
    }
    dir.join(name)
}

/// Writes every value the run recorded (the host record included) as
/// one JSON object under [`OUT_DIR`].
fn write_report(args: &Args, ledger: &Ledger) {
    let body: Vec<String> = ledger
        .values()
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v:?}"))
        .collect();
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let path = out_path(&name);
    if let Err(e) = std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))) {
        eprintln!("nsbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsbench: {e}");
            eprintln!(
                "usage: nsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let host = host::Host::probe();
    eprintln!(
        "nsbench: {} seed={} seconds={} trace={} | cores={} pool={} parallel_probe={:.2}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cores,
        host.pool_width,
        host.parallel_probe,
        if host.is_scaling_measurement() {
            ""
        } else {
            " (pool width above probe: not a scaling measurement)"
        },
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        host,
        epoch,
    };
    let mut ledger = Ledger::default();
    match args.workload.as_str() {
        "mc_batch" => mc_batch::run(&ctx, &mut ledger),
        "serve_open" => serve_open::run(&ctx, &mut ledger),
        _ => lifetime::run(&ctx, &mut ledger),
    }
    ledger.set("peak_rss_mb", host::peak_rss_mb());
    write_report(&args, &ledger);
    for p in &ledger.problems {
        eprintln!("nsbench: check failed: {p}");
    }
    match ledger.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ledger.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
