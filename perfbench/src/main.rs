//! The DistrEdge benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vgg11-f32-split3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the workload again and adds the per-layer metrics, read from the
//! outside: timed calls into each layer's public functions, the program's
//! own counters (`RuntimeReport`, `GatewayMetrics`,
//! `Session::resident_weight_bytes`) and its existing trace spans.  Every
//! output is checked; a wrong output makes the command exit non-zero.

mod host;
mod load;
mod report;
mod stats;
mod tiny;
mod vgg;
mod work;

use std::process::ExitCode;

const WORKLOADS: &[&str] = &["vgg11-f32-split3", "vgg11-q8-na4", "tinyvgg-gateway"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::detect();
    let result = match args.workload.as_str() {
        "vgg11-f32-split3" => vgg::run(vgg::Vgg::F32Split3, args.seed, args.seconds, args.trace),
        "vgg11-q8-na4" => vgg::run(vgg::Vgg::Q8Na4, args.seed, args.seconds, args.trace),
        _ => tiny::run(args.seed, args.seconds, args.trace),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        report.fill_unmeasured_layers();
    }
    if let Err(e) = report.print(&args.workload, args.trace, &host) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if report.wrong > 0 {
        eprintln!("perfbench: {} output(s) failed their check", report.wrong);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
