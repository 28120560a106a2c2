//! `ingest`: a stream of GTS-like timesteps, each built with
//! `build_variable` onto `DirBackend` as new variables in the three
//! layouts in turn (MLOC-COL → ISO → ISA), with two build threads and
//! the durable fsync path. One op ingests one timestep in all three
//! layouts, so every op does the same mix of work.
//!
//! This is the write side of the codec, index and storage layers that
//! the query workloads read: a layout change that speeds reads by
//! costing encode or writes shows here.
//!
//! Each timestep is written through its own `DirBackend`, as one writer
//! per timestep would: the backend's handle cache keeps every file it
//! has touched open, and a long stream of 201-file variables through
//! one backend would run out of file descriptors.

use super::{build_metrics, cost_model, err, gts_config, pfs_metrics, RANKS};
use crate::common::{
    closed_loop, mean, median, ratio, trace_overhead, write_spans, Ctx, EndToEnd, LoopStats,
    Setups, Step,
};
use crate::oracle::{check_positions, check_region_lossy, region_positions};
use crate::trace::{Summary, Tap, Tracer};
use crate::Outcome;
use mloc::{
    build_variable, verify_variable, BuildReport, MlocConfig, MlocStore, ParallelExecutor, Query,
};
use mloc_compress::CodecKind;
use mloc_datagen::QueryGen;
use mloc_pfs::{DirBackend, StorageBackend};
use std::path::Path;
use std::time::Instant;

/// Side of each square timestep.
pub const SIDE: usize = 512;
/// Chunk side (4 chunks).
pub const CHUNK: usize = 256;
/// Value bins. Far fewer than the paper's 100: every bin is two files,
/// each created, appended, fsynced twice and recorded in a directory
/// fsync. At 100 bins the per-file work alone kept a timestep above
/// 250 ms; at 8 bins on 128² timesteps it was still half of an op, and
/// the host's fsync jitter moved `op_p50_ms` by 30% between runs.
pub const BINS: usize = 4;
/// Distinct timestep fields, cycled by the stream.
pub const FIELDS: usize = 4;
/// Point-wise relative error bound of the MLOC-ISA variant.
pub const ISA_ERROR_BOUND: f64 = 0.001;
/// Value selectivity of the region query that checks each timestep.
pub const CHECK_SELECTIVITY: f64 = 0.01;
/// Tail percentile (p80: a 15 s run ingests 76 to 152 timesteps).
pub const TAIL_P: f64 = 0.80;
const DS: &str = "ingest";

/// The layout variants, cycled in this order.
pub const VARIANTS: [&str; 3] = ["MLOC-COL", "MLOC-ISO", "MLOC-ISA"];

fn config(variant: usize) -> MlocConfig {
    let codec = match variant % VARIANTS.len() {
        0 => CodecKind::Deflate,
        1 => CodecKind::Isobar,
        _ => CodecKind::Isabela {
            error_bound: ISA_ERROR_BOUND,
        },
    };
    gts_config(SIDE, CHUNK, BINS, codec)
}

/// The timestep fields for a seed.
pub fn fields(seed: u64) -> Vec<Vec<f64>> {
    (0..FIELDS as u64)
        .map(|k| {
            mloc_datagen::gts_like_2d(SIDE, SIDE, seed.wrapping_mul(31).wrapping_add(k))
                .into_values()
        })
        .collect()
}

/// A timestep the loop built: variable name, field and variant.
struct Built {
    var: String,
    field: usize,
    variant: usize,
}

/// Set-ups per run; `setup_s` is their median. Five, because one 1 s
/// set-up spread by a third between runs.
const SETUP_REPS: usize = 5;

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Setups::new(ctx, SETUP_REPS);
    loop {
        let dir = setups.begin()?;
        let fields = fields(ctx.seed);
        for variant in 0..VARIANTS.len() {
            let be = DirBackend::new(&dir).map_err(err("open directory"))?;
            build_variable(
                &be,
                DS,
                &format!("warm{variant}"),
                &fields[0],
                &config(variant),
            )
            .map_err(err("warm-up build"))?;
        }
        if !setups.end() {
            continue;
        }
        let (untraced_s, traced_s) = ctx.segments();
        let untraced = run_loop(&dir, &Tracer::new(false), untraced_s, &fields, "u")?;
        let mut built = untraced.built;
        let traced = if ctx.trace {
            let tracer = Tracer::new(true);
            let mut l = run_loop(&dir, &tracer, traced_s, &fields, "t")?;
            built.append(&mut l.built);
            let spans = tracer.take();
            write_spans(&ctx.dir, "ingest", &spans);
            Some((l, spans))
        } else {
            None
        };
        let check = check_built(&dir, &fields, &built, ctx.seed)?;
        let stored: u64 = untraced.reports.iter().map(BuildReport::total_bytes).sum();
        let raw: u64 = untraced.reports.iter().map(|r| r.raw_bytes).sum();
        let e2e = EndToEnd {
            stats: untraced.stats,
            tail_p: TAIL_P,
            sim_response_s: check.sim_response_s,
            stored_ratio: ratio(stored as f64, raw as f64),
            setup_s: setups.median_s(),
        };
        let Some((l, spans)) = traced else {
            return Ok(Outcome::new(&[&e2e.stats], e2e.metrics("ingest")));
        };
        let ops = l.stats.latencies.len() as f64;
        let raw: u64 = l.reports.iter().map(|r| r.raw_bytes).sum();
        let sum = Summary::of(&spans);
        let mut m = pfs_metrics(&sum, ops, raw as f64);
        m.extend(build_metrics(&l.reports, ops));
        m.extend([
            ("store.open_s", median(&check.open_s)),
            ("sim.io_s", check.sim_io_s),
            ("sim.seeks", check.sim_seeks),
            ("trace.unattributed_s", ratio(sum.self_s("op"), ops)),
        ]);
        m.extend(trace_overhead(&e2e.stats, &l.stats));
        return Ok(Outcome::new(&[&e2e.stats, &l.stats], m));
    }
}

/// One closed loop of timestep builds.
struct IngestLoop {
    stats: LoopStats,
    reports: Vec<BuildReport>,
    built: Vec<Built>,
}

fn run_loop(
    dir: &Path,
    tracer: &Tracer,
    seconds: f64,
    fields: &[Vec<f64>],
    prefix: &str,
) -> Result<IngestLoop, String> {
    let mut reports = Vec::new();
    let mut built = Vec::new();
    let stats = closed_loop(seconds, fields.len() as u64, |i| {
        let field = i as usize % fields.len();
        let t = Instant::now();
        let r = tracer.op(i, || {
            let dir_be = DirBackend::new(dir)?;
            let tap;
            let be: &dyn StorageBackend = if tracer.is_enabled() {
                tap = Tap::writer(&dir_be, tracer);
                &tap
            } else {
                &dir_be
            };
            (0..VARIANTS.len())
                .map(|variant| {
                    let var = format!("{prefix}{i}-{variant}");
                    let r = tracer.span("build", || {
                        build_variable(be, DS, &var, &fields[field], &config(variant))
                    });
                    r.map(|report| {
                        (
                            report,
                            Built {
                                var,
                                field,
                                variant,
                            },
                        )
                    })
                })
                .collect::<mloc::Result<Vec<_>>>()
        });
        let dt = t.elapsed().as_secs_f64();
        match r {
            Ok(done) => {
                for (report, b) in done {
                    reports.push(report);
                    built.push(b);
                }
                Ok(Step::one(0, dt, true))
            }
            Err(e) => {
                eprintln!("ingest timestep {i} failed: {e}");
                Ok(Step::one(0, dt, false))
            }
        }
    })?;
    Ok(IngestLoop {
        stats,
        reports,
        built,
    })
}

/// What checking the built timesteps measured.
struct Check {
    sim_response_s: f64,
    sim_io_s: f64,
    sim_seeks: f64,
    open_s: Vec<f64>,
}

/// Reopen every built timestep, verify all its extents, and answer one
/// region query against the field it was built from.
fn check_built(
    dir: &Path,
    fields: &[Vec<f64>],
    built: &[Built],
    seed: u64,
) -> Result<Check, String> {
    let vcs: Vec<(f64, f64)> = fields
        .iter()
        .enumerate()
        .map(|(k, f)| {
            let sample: Vec<f64> = f.iter().step_by(4).copied().collect();
            QueryGen::new(sample, vec![SIDE, SIDE], seed ^ k as u64)
                .value_constraint(CHECK_SELECTIVITY)
        })
        .collect();
    let exact: Vec<Vec<u64>> = fields
        .iter()
        .zip(&vcs)
        .map(|(f, &(lo, hi))| region_positions(f, lo, hi))
        .collect();
    let exec = ParallelExecutor::new(RANKS, cost_model());
    let (mut response, mut io, mut seeks, mut open_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for b in built {
        let be = DirBackend::new(dir).map_err(err("open directory"))?;
        let report = verify_variable(&be, DS, &b.var).map_err(err("verify"))?;
        if !report.is_clean() {
            return Err(format!("ingest {}: verify found damage: {report}", b.var));
        }
        let t = Instant::now();
        let store = MlocStore::open(&be, DS, &b.var).map_err(err("open store"))?;
        open_s.push(t.elapsed().as_secs_f64());
        let (lo, hi) = vcs[b.field];
        let (res, m) = exec
            .execute(&store, &Query::region(lo, hi))
            .map_err(err("check query"))?;
        let what = format!("ingest {} ({})", b.var, VARIANTS[b.variant]);
        if VARIANTS[b.variant] == "MLOC-ISA" {
            check_region_lossy(
                &what,
                &fields[b.field],
                lo,
                hi,
                res.positions(),
                2.0 * ISA_ERROR_BOUND,
            )?;
        } else {
            check_positions(&what, res.positions(), &exact[b.field])?;
        }
        response.push(m.response_s);
        io.push(m.io_s);
        seeks.push(m.seeks as f64);
    }
    Ok(Check {
        sim_response_s: mean(&response),
        sim_io_s: mean(&io),
        sim_seeks: mean(&seeks),
        open_s,
    })
}
