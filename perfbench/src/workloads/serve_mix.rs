//! `serve_mix`: four tenants issue Zipf-skewed repeats of a fixed set of
//! distinct region, value, VC+SC and progressive sessions against the
//! `vc_region` dataset, through `QueryServer` with two workers, a block
//! cache of about half the distinct sessions' footprint, fusion on, and
//! `PoolDirBackend` at depth 2. Each `run` call submits one admission
//! window.
//!
//! This is the only workload where the cache, fusion, single-flight and
//! windows do work, with both hits and evictions. It is a closed loop
//! because `run` is a batch API.

use super::{
    build_gts_iso, build_metrics, cost_model, err, mean_response, pfs_metrics, placed_region,
    OpRecord, GTS_CHUNK, GTS_DS, GTS_SIDE, GTS_VAR,
};
use crate::common::{
    closed_loop, mean, median, ratio, trace_overhead, write_spans, Ctx, EndToEnd, LoopStats,
    Metrics, Setups, Step,
};
use crate::oracle::{Digest, Oracle};
use crate::trace::{Summary, Tap, Tracer};
use crate::Outcome;
use mloc::{MlocStore, ParallelExecutor, Query};
use mloc_datagen::QueryGen;
use mloc_pfs::{DirBackend, PoolDirBackend, StorageBackend};
use mloc_serve::{QueryServer, ServeConfig, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Distinct sessions, an equal share of each kind (an assumption: the
/// kinds have no measured mix).
pub const DISTINCT: usize = 96;
/// Session kinds: region, value, VC+SC and progressive. Distinct
/// session `k` is of kind `k % KINDS`, and each kind is an op class,
/// so `op_p50_ms` weighs the kinds equally whatever the mix.
pub const KINDS: usize = 4;
/// Tenants; session `i` of the stream belongs to tenant `i % TENANTS`.
pub const TENANTS: usize = 4;
/// Sessions per admission window (one `run` call).
pub const WINDOW: usize = 8;
/// Zipf exponent of the session stream. An assumption, not a measure
/// of data-exploration sessions: 0.8 lies in the 0.64 to 0.83 range
/// Breslau et al. measured on web proxy traces ("Web Caching and
/// Zipf-like Distributions: Evidence and Implications", INFOCOM 1999).
pub const ZIPF_S: f64 = 0.8;
/// Length of the generated session stream (64 windows). The loop runs
/// whole passes over it, so every run of a seed serves the same
/// sessions equally often.
pub const STREAM: usize = 512;
/// Serve workers and pool depth (the machine has two cores).
pub const WORKERS: usize = 2;
/// Target error of the progressive sessions.
pub const TARGET_ERROR: f64 = 1e-6;
/// Selectivity of each session's constraints.
pub const SELECTIVITY: f64 = 0.04;
/// Block-cache budget: about half the distinct sessions' footprint,
/// which is nearly the whole decompressed dataset (11.2 to 11.5 MB
/// over seeds 1 to 10) and so the same for every seed.
pub const CACHE_MB: u64 = 5;
/// Tail percentile (p99: a 15 s run completes over 2500 sessions).
pub const TAIL_P: f64 = 0.99;

/// A distinct session: its query and whether it runs progressively.
pub type Session = (Query, bool);

/// The distinct sessions for a field and its shape, cycling region,
/// value, VC+SC and progressive kinds.
///
/// The seed reaches the sessions only through the field: regions and
/// value-window quantiles come from the same fixed draws for every
/// seed. A few popular sessions carry much of the Zipf
/// stream, and seeded placement moved their cache overlap, and with it
/// `sim_response_s`, by a fifth from seed to seed.
pub fn sessions(values: &[f64], shape: &[usize], chunk: usize) -> Vec<Session> {
    let sample: Vec<f64> = values.iter().step_by(16).copied().collect();
    let mut gen = QueryGen::new(sample, shape.to_vec(), 0x5345_5256);
    let mut rng = StdRng::seed_from_u64(0x5245_4749);
    let chunk = vec![chunk; shape.len()];
    let mut region = |sel, i| placed_region(shape, &chunk, sel, i, &mut rng);
    (0..DISTINCT)
        .map(|i| match kind(i) {
            0 => {
                let (lo, hi) = gen.value_constraint(SELECTIVITY);
                (Query::region(lo, hi), false)
            }
            1 => (Query::values_in(region(SELECTIVITY, i)), false),
            2 => {
                let (lo, hi) = gen.value_constraint(0.1);
                (
                    Query::values_where(lo, hi).with_region(region(0.1, i)),
                    false,
                )
            }
            _ => (Query::values_in(region(SELECTIVITY, i)), true),
        })
        .collect()
}

/// The kind of distinct session `k`: 0 region, 1 value, 2 VC+SC,
/// 3 progressive.
pub fn kind(k: usize) -> usize {
    k % KINDS
}

/// The Zipf-skewed stream of distinct-session indices for a seed.
///
/// Session `k` appears in proportion to `(k + 1)^-ZIPF_S`, rounded by
/// largest remainder, and only the order is drawn from the seed: every
/// seed serves the same Zipf distribution rather than a sample of it.
pub fn stream(seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=DISTINCT).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * STREAM as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..DISTINCT).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = STREAM - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a49_5046);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

fn spec(i: usize, session: &Session) -> SessionSpec {
    let s = SessionSpec::new(
        &format!("tenant{}", i % TENANTS),
        GTS_DS,
        GTS_VAR,
        session.0.clone(),
    );
    if session.1 {
        s.progressive().with_target_error(TARGET_ERROR)
    } else {
        s
    }
}

/// The server configuration with a cache budget in MiB.
pub fn serve_config(cache_mb: u64) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        window: WINDOW,
        cache_mb,
        fusion: true,
        nranks: 1,
        threaded: false,
        cost_model: cost_model(),
        ..ServeConfig::default()
    }
}

/// Run every distinct session once, in windows; fails on any error.
pub fn run_all(server: &QueryServer<'_>, distinct: &[Session]) -> Result<(), String> {
    let specs: Vec<SessionSpec> = distinct
        .iter()
        .enumerate()
        .map(|(i, s)| spec(i, s))
        .collect();
    for r in server.run(&specs) {
        r.outcome.map_err(err("warm-up session"))?;
    }
    Ok(())
}

/// Serial, cache-free answers of the distinct sessions, each checked
/// against the field and kept as a digest, one at a time.
pub fn expected<'v>(
    backend: &dyn StorageBackend,
    values: &'v [f64],
    distinct: &[Session],
) -> Result<Oracle<'v>, String> {
    let store = MlocStore::open(backend, GTS_DS, GTS_VAR).map_err(err("open store"))?;
    let oracle = Oracle::new(values, &store.config().shape);
    let digests = distinct
        .iter()
        .enumerate()
        .map(|(k, (q, progressive))| {
            let exec = ParallelExecutor::serial();
            let res = if *progressive {
                let mut pq = exec.progressive(&store, q).map_err(err("serial session"))?;
                pq.run_to_target_error(TARGET_ERROR)
                    .map_err(err("serial session"))?;
                pq.into_outcome().0
            } else {
                exec.execute(&store, q).map_err(err("serial session"))?.0
            };
            let what = format!("serve_mix serial session {k}");
            oracle.check_field(&what, q, res.positions(), res.values())?;
            Ok(Some(Digest::of(res.positions(), res.values())))
        })
        .collect::<Result<_, String>>()?;
    Ok(oracle.with_digests(digests))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Setups::new(ctx, SETUP_REPS);
    loop {
        let dir = setups.begin()?;
        let (values, report) = {
            let be = DirBackend::new(&dir).map_err(err("open directory"))?;
            build_gts_iso(&be, ctx.seed)?
        };
        let pool = PoolDirBackend::new(&dir, WORKERS).map_err(err("open pool backend"))?;
        let distinct = sessions(&values, &[GTS_SIDE, GTS_SIDE], GTS_CHUNK);
        let server = QueryServer::new(&pool, serve_config(CACHE_MB));
        run_all(&server, &distinct)?;
        if !setups.end() {
            continue;
        }
        let want = expected(&pool.dir_view(), &values, &distinct)?;
        let order = stream(ctx.seed);
        let (untraced_s, traced_s) = ctx.segments();
        let untraced = run_loop(
            &server,
            &Tracer::new(false),
            untraced_s,
            &distinct,
            &order,
            &want,
        )?;
        let e2e = EndToEnd {
            sim_response_s: mean_response(&untraced.recs),
            stats: untraced.stats,
            tail_p: TAIL_P,
            stored_ratio: report.total_ratio(),
            setup_s: setups.median_s(),
        };
        if !ctx.trace {
            return Ok(Outcome::new(&[&e2e.stats], e2e.metrics("serve_mix")));
        }
        let tracer = Tracer::new(true);
        let tap = Tap::new(&pool, &tracer);
        let t = Instant::now();
        MlocStore::open(&tap, GTS_DS, GTS_VAR).map_err(err("open store"))?;
        let open_s = t.elapsed().as_secs_f64();
        let server = QueryServer::new(&tap, serve_config(CACHE_MB));
        run_all(&server, &distinct)?;
        // Serve workers' reads carry no op, so drop the warm-up's spans
        // rather than filter them out later.
        tracer.take();
        let traced = run_loop(&server, &tracer, traced_s, &distinct, &order, &want)?;
        let spans = tracer.take();
        write_spans(&ctx.dir, "serve_mix", &spans);
        let mut m = traced.layer_metrics(&Summary::of(&spans));
        m.extend(trace_overhead(&e2e.stats, &traced.stats));
        m.insert("store.open_s", open_s);
        m.extend(build_metrics(&[report], 1.0));
        return Ok(Outcome::new(&[&e2e.stats, &traced.stats], m));
    }
}

/// One closed loop of admission windows.
pub struct ServeLoop {
    /// Session latencies (`SessionReport::wall_s`) and counts; busy
    /// time is the wall time of the `run` calls.
    pub stats: LoopStats,
    /// What every completed session's `QueryMetrics` reported.
    pub recs: Vec<OpRecord>,
    /// Wall seconds of every window.
    pub windows: Vec<f64>,
    /// Cache counters over the loop: hits, misses, evictions, and the
    /// resident bytes at its end.
    pub cache: (u64, u64, u64, u64),
    /// Fusion counters over the loop: fused reads, physical reads,
    /// fused bytes, verify skips.
    pub fusion: (u64, u64, u64, u64),
}

impl ServeLoop {
    fn layer_metrics(&self, sum: &Summary) -> Metrics {
        let sessions = self.stats.latencies.len() as f64;
        let (hits, misses, evictions, resident) = self.cache;
        let (fused, physical, fused_bytes, skips) = self.fusion;
        let per_session =
            |f: fn(&OpRecord) -> f64| mean(&self.recs.iter().map(f).collect::<Vec<_>>());
        let mut m = pfs_metrics(sum, sessions, 0.0);
        m.extend([
            ("sim.io_s", per_session(|r| r.io_s)),
            ("sim.seeks", per_session(|r| r.seeks as f64)),
            ("exec.cpu_s", per_session(|r| r.cpu_s)),
            ("exec.decompress_s", per_session(|r| r.decompress_s)),
            ("exec.reconstruct_s", per_session(|r| r.reconstruct_s)),
            (
                "exec.bytes_per_result_point",
                ratio(
                    self.recs.iter().map(|r| r.bytes_read as f64).sum(),
                    self.recs.iter().map(|r| r.points as f64).sum(),
                ),
            ),
            (
                "cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            ("cache.evictions", ratio(evictions as f64, sessions)),
            ("cache.resident_bytes", resident as f64),
            (
                "fusion.fused_ratio",
                ratio(fused as f64, (fused + physical) as f64),
            ),
            ("fusion.bytes_saved", ratio(fused_bytes as f64, sessions)),
            ("fusion.verify_skips", ratio(skips as f64, sessions)),
            ("serve.window_s", mean(&self.windows)),
            (
                "serve.makespan_ratio",
                ratio(median(&self.windows), median(&self.stats.latencies)),
            ),
            ("trace.unattributed_s", ratio(sum.self_s("op"), sessions)),
        ]);
        m
    }
}

/// Submit windows of the session stream for `seconds`, checking every
/// answer against the serial one.
pub fn run_loop(
    server: &QueryServer<'_>,
    tracer: &Tracer,
    seconds: f64,
    distinct: &[Session],
    order: &[usize],
    want: &Oracle<'_>,
) -> Result<ServeLoop, String> {
    let cache0 = server.cache_stats().unwrap_or_default();
    let fusion0 = server.fusion_stats().unwrap_or_default();
    let mut recs = Vec::new();
    let mut windows = Vec::new();
    let stats = closed_loop(seconds, (STREAM / WINDOW) as u64, |w| {
        let first = w as usize * WINDOW;
        let picks: Vec<usize> = (first..first + WINDOW)
            .map(|i| order[i % order.len()])
            .collect();
        let specs: Vec<SessionSpec> = picks
            .iter()
            .zip(first..)
            .map(|(&k, i)| spec(i, &distinct[k]))
            .collect();
        let t = Instant::now();
        let reports = tracer.op(w, || tracer.span("serve", || server.run(&specs)));
        let dt = t.elapsed().as_secs_f64();
        windows.push(dt);
        let mut step = Step {
            busy_s: dt,
            attempted: specs.len() as u64,
            ..Step::default()
        };
        for (r, &k) in reports.iter().zip(&picks) {
            step.latencies.push(r.wall_s);
            step.classes.push(kind(k));
            match (&r.outcome, &r.metrics) {
                (Ok(res), Some(m)) => {
                    let what = format!("serve_mix session {k}");
                    want.check(&what, k, &distinct[k].0, res.positions(), res.values())?;
                    recs.push(OpRecord::of(m, 0, res.len()));
                }
                (outcome, _) => {
                    eprintln!("serve_mix session {k} failed: {:?}", outcome.as_ref().err());
                    step.failed += 1;
                }
            }
        }
        Ok(step)
    })?;
    let cache = server.cache_stats().unwrap_or_default();
    let fusion = server.fusion_stats().unwrap_or_default();
    Ok(ServeLoop {
        stats,
        recs,
        windows,
        cache: (
            cache.hits - cache0.hits,
            cache.misses - cache0.misses,
            cache.evictions - cache0.evictions,
            cache.resident_bytes,
        ),
        fusion: (
            fusion.fused_reads - fusion0.fused_reads,
            fusion.physical_reads - fusion0.physical_reads,
            fusion.fused_bytes - fusion0.fused_bytes,
            fusion.verify_skips - fusion0.verify_skips,
        ),
    })
}
