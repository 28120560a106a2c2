//! `sc_values`: spatially-constrained value queries (paper Table III)
//! on an S3D-like 3-D field stored as MLOC-COL (DEFLATE byte columns,
//! PLoD), at PLoD levels cycling 2/4/7 (Fig. 8); every fourth op is a
//! progressive ladder run to a 1e-6 target error. No cache, one client.
//!
//! Codec decode, PLoD assembly and reconstruction dominate and the
//! index is light, so CPU-kernel changes show here and not on
//! `vc_region`.

use super::{
    build_metrics, cost_model, err, mean_response, placed_region, query_layer_metrics, OpRecord,
    QueryLoop, BINS, BUILD_THREADS, RANKS,
};
use crate::common::{closed_loop, mean, trace_overhead, write_spans, Ctx, EndToEnd, Setups, Step};
use crate::oracle::{Digest, Oracle};
use crate::trace::{Tap, Tracer};
use crate::Outcome;
use mloc::plod::relative_error_bound;
use mloc::query::plan::make_plan;
use mloc::{
    build_variable, MlocConfig, MlocStore, ParallelExecutor, PlodLevel, Query, QueryResult,
};
use mloc_baselines::{QueryEngine, SeqScan};
use mloc_compress::CodecKind;
use mloc_pfs::{DirBackend, StorageBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Side of the cubic S3D-like field.
pub const SIDE: usize = 64;
/// Chunk side (8 chunks).
pub const CHUNK: usize = 32;
/// Distinct ops, cycled in order by the loop.
pub const POOL: usize = 144;
/// Region selectivities, alternating every four ops: Table III's two
/// columns, weighted equally. Each is an op class, as on `vc_region`.
pub const SELECTIVITIES: [f64; 2] = [0.001, 0.01];
/// PLoD levels cycled by the one-shot ops.
pub const LEVELS: [u8; 3] = [2, 4, 7];
/// Target error of the progressive ops.
pub const TARGET_ERROR: f64 = 1e-6;
/// Tail percentile (p99: a 15 s run completes 1700 to 2900 ops).
pub const TAIL_P: f64 = 0.99;
const DS: &str = "s3d";
const VAR: &str = "col";
const WARM: usize = 8;

/// One op of the list.
#[derive(Debug, Clone, PartialEq)]
pub enum ScOp {
    /// A value query at the query's PLoD level.
    OneShot(Query),
    /// A full-precision value query pulled progressively until its
    /// error bound is at most [`TARGET_ERROR`].
    Progressive(Query),
}

impl ScOp {
    fn query(&self) -> &Query {
        match self {
            ScOp::OneShot(q) | ScOp::Progressive(q) => q,
        }
    }
}

/// The op list for a field shape and seed: op `i` is progressive when
/// `i % 4 == 3`.
pub fn ops(shape: &[usize], seed: u64) -> Vec<ScOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5343_5641);
    let mut one_shot = 0;
    (0..POOL)
        .map(|i| {
            let sel = SELECTIVITIES[class(i)];
            let chunk = vec![CHUNK.min(shape[0]); shape.len()];
            let q = Query::values_in(placed_region(shape, &chunk, sel, i, &mut rng));
            if i % 4 == 3 {
                ScOp::Progressive(q)
            } else {
                let level = LEVELS[one_shot % LEVELS.len()];
                one_shot += 1;
                ScOp::OneShot(q.with_plod(PlodLevel::new(level).expect("valid PLoD level")))
            }
        })
        .collect()
}

/// The op class of op `i`: the index of its region selectivity.
pub fn class(i: usize) -> usize {
    (i / 4) % SELECTIVITIES.len()
}

/// The coarsest PLoD level whose error bound meets [`TARGET_ERROR`]:
/// where a progressive ladder stops.
pub fn target_level() -> PlodLevel {
    (1..=7)
        .map(|l| PlodLevel::new(l).expect("valid PLoD level"))
        .find(|&l| relative_error_bound(l) <= TARGET_ERROR)
        .expect("full precision meets any target")
}

fn config() -> MlocConfig {
    MlocConfig::builder(vec![SIDE; 3])
        .chunk_shape(vec![CHUNK; 3])
        .num_bins(BINS)
        .codec(CodecKind::Deflate)
        .build_threads(BUILD_THREADS)
        .build()
}

fn executor() -> ParallelExecutor {
    ParallelExecutor::new(RANKS, cost_model())
}

/// What the loop checks answers against: the field, which one-shot
/// ops are checked against, and for each progressive op the digest of
/// the one-shot answer at [`target_level`] and the one-shot
/// full-precision bytes (0 for one-shot ops).
pub struct Expected<'v> {
    oracle: Oracle<'v>,
    full_bytes: Vec<u64>,
}

/// The one-shot references of the progressive ops, run on `store` and
/// checked against the field.
pub fn expected<'v>(
    store: &MlocStore<'_>,
    values: &'v [f64],
    ops: &[ScOp],
) -> Result<Expected<'v>, String> {
    let oracle = Oracle::new(values, &store.config().shape);
    let mut digests = Vec::new();
    let mut full_bytes = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        let (digest, full) = match op {
            ScOp::OneShot(_) => (None, 0),
            ScOp::Progressive(q) => {
                let q_level = q.clone().with_plod(target_level());
                let (res, _) = executor()
                    .execute(store, &q_level)
                    .map_err(err("one-shot reference"))?;
                let what = format!("sc_values one-shot reference {k}");
                oracle.check_field(&what, &q_level, res.positions(), res.values())?;
                let (_, full) = executor()
                    .execute(store, q)
                    .map_err(err("one-shot reference"))?;
                (
                    Some(Digest::of(res.positions(), res.values())),
                    full.bytes_read,
                )
            }
        };
        digests.push(digest);
        full_bytes.push(full);
    }
    Ok(Expected {
        oracle: oracle.with_digests(digests),
        full_bytes,
    })
}

/// Set-ups per run; `setup_s` is their median. Five, because the
/// median of three 1.6 s builds still spread by a quarter over seeds.
const SETUP_REPS: usize = 5;

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Setups::new(ctx, SETUP_REPS);
    loop {
        let dir = setups.begin()?;
        let be = DirBackend::new(&dir).map_err(err("open directory"))?;
        let values = mloc_datagen::s3d_like_3d(SIDE, SIDE, SIDE, ctx.seed).into_values();
        let report =
            build_variable(&be, DS, VAR, &values, &config()).map_err(err("build S3D MLOC-COL"))?;
        let list = ops(&[SIDE; 3], ctx.seed);
        {
            let store = MlocStore::open(&be, DS, VAR).map_err(err("open store"))?;
            for op in &list[..WARM] {
                executor()
                    .execute(&store, op.query())
                    .map_err(err("warm-up query"))?;
            }
        }
        if !setups.end() {
            continue;
        }
        let want = {
            let store = MlocStore::open(&be, DS, VAR).map_err(err("open store"))?;
            expected(&store, &values, &list)?
        };
        let (untraced_s, traced_s) = ctx.segments();
        let untraced = run_loop(&be, &Tracer::new(false), untraced_s, &list, &want)?;
        let e2e = EndToEnd {
            sim_response_s: mean_response(&untraced.recs),
            stats: untraced.stats,
            tail_p: TAIL_P,
            stored_ratio: report.total_ratio(),
            setup_s: setups.median_s(),
        };
        if !ctx.trace {
            return Ok(Outcome::new(&[&e2e.stats], e2e.metrics("sc_values")));
        }
        let tracer = Tracer::new(true);
        let tap = Tap::new(&be, &tracer);
        let traced = run_loop(&tap, &tracer, traced_s, &list, &want)?;
        let spans = tracer.take();
        write_spans(&ctx.dir, "sc_values", &spans);
        let mut m = query_layer_metrics(&spans, &traced.recs);
        m.extend(trace_overhead(&e2e.stats, &traced.stats));
        m.insert("store.open_s", traced.open_s);
        m.extend(build_metrics(&[report], 1.0));
        m.insert(
            "baselines.seqscan_sim_response_s",
            seqscan_reference(&be, &list, &want)?,
        );
        return Ok(Outcome::new(&[&e2e.stats, &traced.stats], m));
    }
}

/// What one op returned: its result, metrics, plan units and, for a
/// progressive op, its step count.
type OpOut = (QueryResult, mloc::QueryMetrics, usize, Option<usize>);

/// Run the op list in a closed loop for `seconds`.
pub fn run_loop(
    backend: &dyn StorageBackend,
    tracer: &Tracer,
    seconds: f64,
    list: &[ScOp],
    want: &Expected<'_>,
) -> Result<QueryLoop, String> {
    let t = Instant::now();
    let store = MlocStore::open(backend, DS, VAR).map_err(err("open store"))?;
    let open_s = t.elapsed().as_secs_f64();
    let exec = executor();
    let mut recs = Vec::new();
    let stats = closed_loop(seconds, list.len() as u64, |i| {
        let k = i as usize % list.len();
        let t = Instant::now();
        let r: mloc::Result<OpOut> = tracer.op(i, || match &list[k] {
            ScOp::OneShot(q) => {
                let plan = tracer.span("plan", || make_plan(&store, q))?;
                let (res, m) = tracer.span("exec", || exec.execute_plan(&store, q, &plan, None))?;
                Ok((res, m, plan.units.len(), None))
            }
            ScOp::Progressive(q) => tracer.span("progressive", || {
                let mut pq = exec.progressive(&store, q)?;
                pq.run_to_target_error(TARGET_ERROR)?;
                let steps = pq.steps().len();
                let (res, m, _, _) = pq.into_outcome();
                Ok((res, m, 0, Some(steps)))
            }),
        });
        let dt = t.elapsed().as_secs_f64();
        let (res, m, units, steps) = match r {
            Ok(out) => out,
            Err(e) => {
                eprintln!("sc_values op {k} failed: {e}");
                return Ok(Step::one(class(k), dt, false));
            }
        };
        let what = format!("sc_values op {k}");
        let mut rec = OpRecord::of(&m, units, res.len());
        // A progressive op must equal the one-shot answer at the level
        // where its ladder stops; its digest holds that answer.
        let q = match &list[k] {
            ScOp::OneShot(q) => q.clone(),
            ScOp::Progressive(q) => {
                rec.progressive = Some((steps.unwrap_or(0), want.full_bytes[k]));
                q.clone().with_plod(target_level())
            }
        };
        want.oracle
            .check(&what, k, &q, res.positions(), res.values())?;
        recs.push(rec);
        Ok(Step::one(class(k), dt, true))
    })?;
    Ok(QueryLoop {
        stats,
        recs,
        open_s,
    })
}

/// Mean Seq. Scan response time on the same regions (Table III's
/// reference row), with its answers checked too.
fn seqscan_reference(be: &DirBackend, list: &[ScOp], want: &Expected<'_>) -> Result<f64, String> {
    let scan = SeqScan::build(be, DS, want.oracle.field(), vec![SIDE; 3])
        .map_err(err("build Seq. Scan file"))?;
    let mut times = Vec::new();
    for (k, op) in list.iter().enumerate() {
        let q = op.query().clone().with_plod(PlodLevel::FULL);
        let region = q.sc.as_ref().expect("value query");
        let a = scan.value_query(region).map_err(err("Seq. Scan query"))?;
        want.oracle.check_field(
            &format!("Seq. Scan query {k}"),
            &q,
            &a.positions,
            a.values.as_deref(),
        )?;
        times.push(a.response_s(&cost_model()));
    }
    Ok(mean(&times))
}
