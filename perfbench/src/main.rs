//! Benchmark entry point: `mloc-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`, run from the repository root.
//!
//! Prints one JSON object as the last line of standard output. Exits
//! with 1 when an answer is wrong (after printing `"correct": false`)
//! or the run fails, and with 2 on bad arguments.

use mloc_perfbench::common::Ctx;
use mloc_perfbench::{run, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Scratch space for stores and traces, relative to the working
/// directory.
const DATA_DIR: &str = ".bench_data";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(DATA_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = Ctx::new(args.seed, args.seconds, args.trace, dir, start)
        .and_then(|ctx| run(&args.workload, &ctx));
    match outcome {
        Ok(o) => {
            println!("{}", o.to_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}
