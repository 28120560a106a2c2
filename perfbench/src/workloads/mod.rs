//! The four workloads, and what the query workloads share: the GTS-like
//! MLOC-ISO dataset, per-op records and the layer metrics derived from
//! them.

pub mod ingest;
pub mod sc_values;
pub mod serve_mix;
pub mod vc_region;

use crate::common::{mean, ratio, LoopStats, Metrics};
use crate::trace::{Span, Summary};
use mloc::{build_variable, BuildReport, MlocConfig, QueryMetrics, Region};
use mloc_compress::CodecKind;
use mloc_pfs::{CostModel, StorageBackend};
use rand::rngs::StdRng;
use rand::Rng;

/// Side of the square GTS-like field that `vc_region` and `serve_mix`
/// query (1 Mi points, 8 MiB raw).
pub const GTS_SIDE: usize = 1024;
/// Chunk side of the GTS-like layout (64 chunks).
pub const GTS_CHUNK: usize = 128;
/// Value bins: the paper's default.
pub const BINS: usize = 100;
/// Ranks replayed on the calling thread by the query executor.
pub const RANKS: usize = 8;
/// Threads the build path may use (the machine has two cores).
pub const BUILD_THREADS: usize = 2;
/// Dataset and variable names of the GTS-like store.
pub const GTS_DS: &str = "gts";
/// Variable name of the GTS-like store.
pub const GTS_VAR: &str = "iso";

/// Map any displayable error to the run's error string.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The layout of a square 2-D field.
pub fn gts_config(side: usize, chunk: usize, bins: usize, codec: CodecKind) -> MlocConfig {
    MlocConfig::builder(vec![side, side])
        .chunk_shape(vec![chunk, chunk])
        .num_bins(bins)
        .codec(codec)
        .build_threads(BUILD_THREADS)
        .build()
}

/// Generate the GTS-like field for `seed` and build it as MLOC-ISO.
pub fn build_gts_iso(
    backend: &dyn StorageBackend,
    seed: u64,
) -> Result<(Vec<f64>, BuildReport), String> {
    let values = mloc_datagen::gts_like_2d(GTS_SIDE, GTS_SIDE, seed).into_values();
    let report = build_variable(
        backend,
        GTS_DS,
        GTS_VAR,
        &values,
        &gts_config(GTS_SIDE, GTS_CHUNK, BINS, CodecKind::Isobar),
    )
    .map_err(err("build GTS MLOC-ISO"))?;
    Ok((values, report))
}

/// Per-dimension steps of an additive low-discrepancy sequence (the R3
/// sequence), used to spread region offsets within a chunk.
const OFFSET_STEPS: [f64; 3] = [0.819_172_513_4, 0.671_043_606_7, 0.549_700_477_9];

/// A box covering about `sel` of `shape`. The seed picks the chunk each
/// side starts in; the op's `index` alone sets the offset inside that
/// chunk. How many chunks a region touches sets most of its cost, so
/// this gives every seed the same mix of chunk-boundary crossings
/// while the data, the chunks and the value windows still vary.
pub fn placed_region(
    shape: &[usize],
    chunk: &[usize],
    sel: f64,
    index: usize,
    rng: &mut StdRng,
) -> Region {
    let frac = sel.powf(1.0 / shape.len() as f64);
    let ranges = shape
        .iter()
        .zip(chunk)
        .enumerate()
        .map(|(d, (&extent, &c))| {
            let side = ((extent as f64 * frac).round() as usize).clamp(1, extent);
            let offset = ((index as f64 + 1.0) * OFFSET_STEPS[d % 3]).fract() * c as f64;
            let max_start = extent - side;
            let k = rng.random_range(0..=max_start / c);
            let start = (k * c + offset as usize).min(max_start);
            (start, start + side)
        })
        .collect();
    Region::new(ranges)
}

/// The cost model every workload prices simulated I/O with.
pub fn cost_model() -> CostModel {
    CostModel::lens_2012()
}

/// What one query op did, as the program reported it.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// `QueryMetrics::response_s`.
    pub response_s: f64,
    /// Simulated I/O seconds.
    pub io_s: f64,
    /// Simulated seeks.
    pub seeks: u64,
    /// Critical-path decompression seconds.
    pub decompress_s: f64,
    /// Critical-path reconstruction seconds.
    pub reconstruct_s: f64,
    /// Σ per-rank CPU seconds.
    pub cpu_s: f64,
    /// Bytes read from the PFS.
    pub bytes_read: u64,
    /// Bins the plan touched.
    pub bins_touched: usize,
    /// Bins answered from the index alone.
    pub aligned_bins: usize,
    /// Work units in the plan.
    pub units: usize,
    /// Result points.
    pub points: usize,
    /// Block-cache hits and misses.
    pub cache: (u64, u64),
    /// For a progressive op: steps taken, and one-shot full-precision
    /// bytes of the same query.
    pub progressive: Option<(usize, u64)>,
}

impl OpRecord {
    /// Record a query's metrics.
    pub fn of(m: &QueryMetrics, units: usize, points: usize) -> Self {
        OpRecord {
            response_s: m.response_s,
            io_s: m.io_s,
            seeks: m.seeks,
            decompress_s: m.decompress_s,
            reconstruct_s: m.reconstruct_s,
            cpu_s: m.per_rank_cpu.iter().sum(),
            bytes_read: m.bytes_read,
            bins_touched: m.bins_touched,
            aligned_bins: m.aligned_bins,
            units,
            points,
            cache: (m.cache_hits, m.cache_misses),
            progressive: None,
        }
    }
}

/// One closed query loop of `vc_region` or `sc_values`.
pub struct QueryLoop {
    /// Latencies and counts.
    pub stats: LoopStats,
    /// One record per completed op.
    pub recs: Vec<OpRecord>,
    /// Seconds `MlocStore::open` took before the loop.
    pub open_s: f64,
}

/// Mean `response_s` over records.
pub fn mean_response(recs: &[OpRecord]) -> f64 {
    mean(&recs.iter().map(|r| r.response_s).collect::<Vec<_>>())
}

/// `BuildReport` phase seconds summed over `reports`, per `per` (ops on
/// `ingest`; one set-up build elsewhere).
pub fn build_metrics(reports: &[BuildReport], per: f64) -> Metrics {
    let sum = |f: fn(&BuildReport) -> f64| ratio(reports.iter().map(f).sum(), per);
    Metrics::from([
        ("build.encode_s", sum(|r| r.encode_seconds)),
        ("build.layout_s", sum(|r| r.layout_seconds)),
        ("build.write_s", sum(|r| r.write_seconds)),
    ])
}

/// Storage-tap metrics per op, from every `pfs.*` span of the run
/// (including reads on threads the benchmark did not start).
pub fn pfs_metrics(sum: &Summary, ops: f64, raw_bytes: f64) -> Metrics {
    let reads = sum.counts("pfs.read");
    let busy = |names: &[&str]| names.iter().map(|n| sum.self_s(n)).sum::<f64>();
    Metrics::from([
        ("pfs.reads", ratio(reads.reads as f64, ops)),
        ("pfs.footer_reads", ratio(reads.footer as f64, ops)),
        ("pfs.idx_reads", ratio(reads.idx as f64, ops)),
        ("pfs.dat_reads", ratio(reads.dat as f64, ops)),
        ("pfs.meta_reads", ratio(reads.meta as f64, ops)),
        ("pfs.len_calls", ratio(sum.calls("pfs.len") as f64, ops)),
        ("pfs.read_bytes", ratio(reads.bytes as f64, ops)),
        (
            "pfs.read_busy_s",
            ratio(
                busy(&["pfs.read", "pfs.read_batch", "pfs.read_replica", "pfs.len"]),
                ops,
            ),
        ),
        (
            "pfs.batch_depth",
            ratio(
                sum.counts("pfs.read_batch").reads as f64,
                sum.calls("pfs.read_batch") as f64,
            ),
        ),
        ("pfs.errors", ratio(sum.counts("pfs.").errors as f64, ops)),
        ("pfs.appends", ratio(sum.calls("pfs.append") as f64, ops)),
        (
            "pfs.append_bytes_per_raw_byte",
            ratio(sum.counts("pfs.append").bytes as f64, raw_bytes),
        ),
        ("pfs.syncs", ratio(sum.calls("pfs.sync") as f64, ops)),
        (
            "pfs.write_busy_s",
            ratio(busy(&["pfs.append", "pfs.create", "pfs.remove"]), ops),
        ),
        ("pfs.sync_busy_s", ratio(busy(&["pfs.sync"]), ops)),
    ])
}

/// Layer metrics of a traced query loop (`vc_region`, `sc_values`):
/// spans named `op` (root), `plan`, `exec`, `progressive` and `pfs.*`.
/// Storage calls outside any op (opening the store) are left out.
pub fn query_layer_metrics(spans: &[Span], recs: &[OpRecord]) -> Metrics {
    let in_ops: Vec<Span> = spans.iter().filter(|s| s.op.is_some()).cloned().collect();
    let sum = Summary::of(&in_ops);
    let ops = recs.len() as f64;
    let exec: Vec<&OpRecord> = recs.iter().filter(|r| r.progressive.is_none()).collect();
    let prog: Vec<&OpRecord> = recs.iter().filter(|r| r.progressive.is_some()).collect();
    let exec_mean =
        |f: fn(&OpRecord) -> f64| ratio(exec.iter().map(|r| f(r)).sum(), exec.len() as f64);
    let exec_self = sum.mean_self_s("exec");
    let exec_cpu = exec_mean(|r| r.cpu_s);
    let (hits, misses) = recs
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.cache.0, m + r.cache.1));
    let mut m = pfs_metrics(&sum, ops, 0.0);
    m.extend([
        (
            "sim.io_s",
            mean(&recs.iter().map(|r| r.io_s).collect::<Vec<_>>()),
        ),
        (
            "sim.seeks",
            mean(&recs.iter().map(|r| r.seeks as f64).collect::<Vec<_>>()),
        ),
        ("plan.self_s", sum.mean_self_s("plan")),
        ("plan.units", exec_mean(|r| r.units as f64)),
        (
            "plan.aligned_ratio",
            ratio(
                exec.iter().map(|r| r.aligned_bins as f64).sum(),
                exec.iter().map(|r| r.bins_touched as f64).sum(),
            ),
        ),
        ("exec.self_s", exec_self),
        ("exec.cpu_s", exec_cpu),
        ("exec.decompress_s", exec_mean(|r| r.decompress_s)),
        ("exec.reconstruct_s", exec_mean(|r| r.reconstruct_s)),
        ("exec.unattributed_s", exec_self - exec_cpu),
        (
            "exec.bytes_per_result_point",
            ratio(
                exec.iter().map(|r| r.bytes_read as f64).sum(),
                exec.iter().map(|r| r.points as f64).sum(),
            ),
        ),
        (
            "cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "progressive.steps",
            ratio(
                prog.iter()
                    .map(|r| r.progressive.map_or(0, |p| p.0) as f64)
                    .sum(),
                prog.len() as f64,
            ),
        ),
        (
            "progressive.bytes_ratio",
            ratio(
                prog.iter().map(|r| r.bytes_read as f64).sum(),
                prog.iter()
                    .map(|r| r.progressive.map_or(0, |p| p.1) as f64)
                    .sum(),
            ),
        ),
        ("trace.unattributed_s", ratio(sum.self_s("op"), ops)),
    ]);
    m
}
