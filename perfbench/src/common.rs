//! Shared benchmark plumbing: run context, repeated set-up, the closed
//! loop, percentiles and the metric tables.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Share of a traced run's seconds spent untraced, to measure the
/// tracing overhead on the same store.
pub const UNTRACED_SHARE: f64 = 1.0 / 3.0;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_response_s", "sim-s"),
    ("stored_bytes_per_raw_byte", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Counts and times are
/// per op unless the notes say otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pfs.reads", "count"),
    ("pfs.footer_reads", "count"),
    ("pfs.idx_reads", "count"),
    ("pfs.dat_reads", "count"),
    ("pfs.meta_reads", "count"),
    ("pfs.len_calls", "count"),
    ("pfs.read_bytes", "B"),
    ("pfs.read_busy_s", "s"),
    ("pfs.batch_depth", "count"),
    ("pfs.errors", "count"),
    ("pfs.appends", "count"),
    ("pfs.append_bytes_per_raw_byte", "ratio"),
    ("pfs.syncs", "count"),
    ("pfs.write_busy_s", "s"),
    ("pfs.sync_busy_s", "s"),
    ("sim.io_s", "sim-s"),
    ("sim.seeks", "count"),
    ("plan.self_s", "s"),
    ("plan.units", "count"),
    ("plan.aligned_ratio", "ratio"),
    ("exec.self_s", "s"),
    ("exec.cpu_s", "s"),
    ("exec.decompress_s", "s"),
    ("exec.reconstruct_s", "s"),
    ("exec.unattributed_s", "s"),
    ("exec.bytes_per_result_point", "B"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "B"),
    ("fusion.fused_ratio", "ratio"),
    ("fusion.bytes_saved", "B"),
    ("fusion.verify_skips", "count"),
    ("serve.window_s", "s"),
    ("serve.makespan_ratio", "ratio"),
    ("progressive.steps", "count"),
    ("progressive.bytes_ratio", "ratio"),
    ("build.encode_s", "s"),
    ("build.layout_s", "s"),
    ("build.write_s", "s"),
    ("store.open_s", "s"),
    ("baselines.seqscan_sim_response_s", "sim-s"),
    ("trace.unattributed_s", "s"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// One benchmark run's arguments and scratch directory.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory of this run, removed when the context drops.
    pub dir: PathBuf,
    /// Process start, the zero of the first set-up.
    pub start: Instant,
}

impl Ctx {
    /// A context whose scratch directory is `dir` (created fresh).
    pub fn new(
        seed: u64,
        seconds: f64,
        trace: bool,
        dir: PathBuf,
        start: Instant,
    ) -> Result<Self, String> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Ctx {
            seed,
            seconds,
            trace,
            dir,
            start,
        })
    }

    /// Seconds of the untraced and the traced loop of this run.
    pub fn segments(&self) -> (f64, f64) {
        if self.trace {
            let untraced = self.seconds * UNTRACED_SHARE;
            (untraced, self.seconds - untraced)
        } else {
            (self.seconds, 0.0)
        }
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Times a run's repeated set-ups, each in a fresh directory; the
/// first is timed from process start. `setup_s` is their median.
pub struct Setups<'c> {
    ctx: &'c Ctx,
    reps: usize,
    times: Vec<f64>,
    began: Option<Instant>,
}

impl<'c> Setups<'c> {
    /// Start timing `reps` set-ups for `ctx`.
    pub fn new(ctx: &'c Ctx, reps: usize) -> Self {
        Setups {
            ctx,
            reps,
            times: Vec::new(),
            began: None,
        }
    }

    /// Begin the next set-up: remove the previous one's directory and
    /// return a fresh one.
    pub fn begin(&mut self) -> Result<PathBuf, String> {
        let rep = self.times.len();
        let began = if rep == 0 {
            self.ctx.start
        } else {
            Instant::now()
        };
        if rep > 0 {
            let prev = self.rep_dir(rep - 1);
            std::fs::remove_dir_all(&prev)
                .map_err(|e| format!("remove {}: {e}", prev.display()))?;
        }
        let dir = self.rep_dir(rep);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        self.began = Some(began);
        Ok(dir)
    }

    /// End the current set-up; returns whether it was the last one.
    pub fn end(&mut self) -> bool {
        let began = self.began.take().expect("end() follows begin()");
        self.times.push(began.elapsed().as_secs_f64());
        self.times.len() == self.reps
    }

    /// Median set-up seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }

    fn rep_dir(&self, rep: usize) -> PathBuf {
        self.ctx.dir.join(format!("setup{rep}"))
    }
}

/// What one loop step did.
#[derive(Debug, Default)]
pub struct Step {
    /// Latency of each op the step completed.
    pub latencies: Vec<f64>,
    /// Class of each op (see [`LoopStats::p50_ms`]), parallel to
    /// `latencies`.
    pub classes: Vec<usize>,
    /// Wall seconds the step spent inside the program.
    pub busy_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
}

impl Step {
    /// One op of class `class` that took `latency` seconds.
    pub fn one(class: usize, latency: f64, ok: bool) -> Self {
        Step {
            latencies: vec![latency],
            classes: vec![class],
            busy_s: latency,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

/// Totals of a closed loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Every op latency, in completion order.
    pub latencies: Vec<f64>,
    /// Class of each op, parallel to `latencies`.
    pub classes: Vec<usize>,
    /// Seconds inside the program, summed over steps.
    pub busy_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Steps taken.
    pub steps: u64,
}

impl LoopStats {
    /// Median op latency of each class, in milliseconds, by class.
    pub fn class_p50s_ms(&self) -> BTreeMap<usize, f64> {
        let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&l, &c) in self.latencies.iter().zip(&self.classes) {
            by.entry(c).or_default().push(l);
        }
        by.into_iter().map(|(c, v)| (c, median(&v) * 1e3)).collect()
    }

    /// Median op latency in milliseconds: the mean of the class
    /// medians, each class weighted equally. A workload whose op list
    /// mixes groups of disjoint cost (Table II's 1% and 10% queries)
    /// gives each group a class, so the figure is each group's typical
    /// op and not the gap between the groups; with one class it is the
    /// plain median.
    pub fn p50_ms(&self) -> f64 {
        mean(&self.class_p50s_ms().into_values().collect::<Vec<_>>())
    }

    /// Completed ops per second inside the program.
    pub fn ops_per_s(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.busy_s)
    }
}

/// Closed loop: call `step(i)` for i = 0, 1, ... until `seconds` of
/// wall time have passed and the step count is a multiple of `cycle`,
/// so every op of a cycled list runs equally often and per-op counts
/// repeat exactly from run to run. A step returns `Err` on a wrong
/// answer, which aborts the run; answer checks happen inside the step
/// but outside the op's timed interval.
pub fn closed_loop(
    seconds: f64,
    cycle: u64,
    mut step: impl FnMut(u64) -> Result<Step, String>,
) -> Result<LoopStats, String> {
    let t0 = Instant::now();
    let mut stats = LoopStats::default();
    while t0.elapsed().as_secs_f64() < seconds || stats.steps % cycle.max(1) != 0 {
        let s = step(stats.steps)?;
        stats.latencies.extend(s.latencies);
        stats.classes.extend(s.classes);
        stats.busy_s += s.busy_s;
        stats.attempted += s.attempted;
        stats.failed += s.failed;
        stats.steps += 1;
    }
    Ok(stats)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of raw samples, and the
/// number of samples strictly beyond it.
pub fn percentile(v: &[f64], p: f64) -> (f64, usize) {
    if v.is_empty() {
        return (0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    let value = s[rank - 1];
    (value, s.iter().filter(|&&x| x > value).count())
}

/// Metric values a workload produced, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The end-to-end metrics shared by every workload.
pub struct EndToEnd {
    /// The untraced loop.
    pub stats: LoopStats,
    /// Tail percentile fixed for this workload.
    pub tail_p: f64,
    /// Mean `QueryMetrics::response_s`.
    pub sim_response_s: f64,
    /// (data + index + meta) bytes ÷ raw f64 bytes.
    pub stored_ratio: f64,
    /// Median set-up seconds.
    pub setup_s: f64,
}

impl EndToEnd {
    /// Fill the end-to-end metric table and report the sample count.
    pub fn metrics(&self, workload: &str) -> Metrics {
        let (tail, beyond) = percentile(&self.stats.latencies, self.tail_p);
        eprintln!(
            "{workload}: {} ops, tail p{} has {beyond} samples beyond it, p50 by op class {:?} ms",
            self.stats.latencies.len(),
            self.tail_p * 100.0,
            self.stats.class_p50s_ms()
        );
        if beyond < 10 {
            eprintln!("{workload}: warning: fewer than 10 samples beyond the tail percentile");
        }
        Metrics::from([
            ("op_p50_ms", self.stats.p50_ms()),
            ("op_tail_ms", tail * 1e3),
            ("ops_per_s", self.stats.ops_per_s()),
            ("sim_response_s", self.sim_response_s),
            ("stored_bytes_per_raw_byte", self.stored_ratio),
            ("setup_s", self.setup_s),
            ("peak_rss_mb", peak_rss_mb()),
        ])
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write the traced run's spans next to the run directory.
pub fn write_spans(dir: &Path, workload: &str, spans: &[crate::trace::Span]) {
    let Some(parent) = dir.parent() else { return };
    let path = parent.join(format!("trace-{workload}.tsv"));
    if let Err(e) = std::fs::write(&path, crate::trace::to_tsv(spans)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// The traced-run metrics every workload reports the same way: the
/// traced op median and its overhead over the untraced one.
pub fn trace_overhead(untraced: &LoopStats, traced: &LoopStats) -> Metrics {
    Metrics::from([
        ("trace.op_p50_ms", traced.p50_ms()),
        ("trace.overhead_ms", traced.p50_ms() - untraced.p50_ms()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), (990.0, 10));
        assert_eq!(percentile(&v, 0.5).0, 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn p50_weighs_op_classes_equally() {
        let mut stats = LoopStats::default();
        for (class, ms) in [(0, 1.0), (0, 2.0), (0, 3.0), (1, 10.0), (1, 30.0)] {
            stats.latencies.push(ms / 1e3);
            stats.classes.push(class);
        }
        assert!((stats.p50_ms() - (2.0 + 20.0) / 2.0).abs() < 1e-9);
        stats.classes.fill(0);
        assert!((stats.p50_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn metric_names_are_well_formed() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }
}
