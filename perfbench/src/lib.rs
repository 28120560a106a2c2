//! End-to-end and per-layer benchmark of MLOC over on-disk stores.
//!
//! One run executes one workload for a fixed number of seconds and
//! prints one JSON line: end-to-end metrics from an untraced run
//! (`--trace 0`), or per-layer metrics from a traced run (`--trace 1`).
//! See `README.md` for the workloads and what each metric should move.

pub mod common;
pub mod oracle;
pub mod trace;
pub mod workloads;

use common::{LoopStats, Metrics, END_TO_END, PER_LAYER};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["vc_region", "sc_values", "serve_mix", "ingest"];

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted across the run's loops.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
}

impl Outcome {
    /// Totals over the run's loops, with `metrics`.
    pub fn new(loops: &[&LoopStats], metrics: Metrics) -> Self {
        Outcome {
            attempted: loops.iter().map(|l| l.attempted).sum(),
            failed: loops.iter().map(|l| l.failed).sum(),
            metrics,
        }
    }

    /// The result line: every metric of the run's table, in table
    /// order, with its unit. A metric a workload does not exercise is
    /// reported as 0.
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run workload `name`.
pub fn run(name: &str, ctx: &common::Ctx) -> Result<Outcome, String> {
    match name {
        "vc_region" => workloads::vc_region::run(ctx),
        "sc_values" => workloads::sc_values::run(ctx),
        "serve_mix" => workloads::serve_mix::run(ctx),
        "ingest" => workloads::ingest::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}
