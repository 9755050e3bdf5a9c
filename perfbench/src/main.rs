//! Seeded benchmark of the reverse-rank engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-un --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (see `README.md` in this directory) for `--seconds`,
//! checks every answer, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
//! run also writes its spans as a Perfetto trace under `out/`.

mod check;
mod churn;
mod trace;
mod workload;

use rrq_obs::json::Json;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Args, Kind, Outcome, Spec, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: rrq-perfbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn parse(argv: &[String]) -> Result<(Spec, Args), String> {
    let mut spec = None;
    let mut args = Args {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::named(value).ok_or_else(|| {
                    format!("unknown workload {value}; known: {}", WORKLOADS.join(", "))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be within 0..=600, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((spec.ok_or("--workload is required")?, args))
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    match spec.kind {
        Kind::ChurnIndexed => churn::run(spec, args),
        Kind::ScanUn | Kind::PoolAcPacked => workload::run_static(spec, args),
    }
}

/// The result line: every metric of the run's table, by name and unit.
fn result_json(out: &Outcome, trace: bool) -> Json {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table.iter().map(|&(name, unit)| {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Writes the traced run's spans as a Perfetto trace and prints each
/// span name's total self time to stderr.
fn write_trace(tracer: &Tracer, spec: &Spec, args: &Args) {
    let name = spec.name;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{name}-seed{}.trace.json", args.seed));
    let doc = tracer.to_perfetto(name).to_compact();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
    eprintln!("{:<16} {:>7} {:>12}", "span", "calls", "self ms");
    for (span, calls, own_ns) in tracer.self_time_by_name() {
        eprintln!("{span:<16} {calls:>7} {:>12.3}", own_ns as f64 / 1e6);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (spec, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("rrq-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&spec, &args) {
        Ok(out) => {
            if let Some(spans) = &out.spans {
                write_trace(spans, &spec, &args);
            }
            println!("{}", result_json(&out, args.trace).to_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rrq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
