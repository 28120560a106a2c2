//! `vc_region`: value-constrained region queries (paper Table II) on
//! the GTS-like field stored as MLOC-ISO, no block cache, no fusion,
//! 8 ranks replayed on the calling thread, one client.
//!
//! Plan, index reads, footer/CRC checks and seeks do the work here;
//! decompression barely runs because most candidate bins are aligned.

use super::{
    build_gts_iso, build_metrics, cost_model, err, mean_response, query_layer_metrics, OpRecord,
    QueryLoop, GTS_DS, GTS_SIDE, GTS_VAR, RANKS,
};
use crate::common::{closed_loop, mean, trace_overhead, write_spans, Ctx, EndToEnd, Setups, Step};
use crate::oracle::{Digest, Oracle};
use crate::trace::{Tap, Tracer};
use crate::Outcome;
use mloc::query::plan::make_plan;
use mloc::{MlocStore, ParallelExecutor, Query};
use mloc_baselines::{QueryEngine, SeqScan};
use mloc_datagen::QueryGen;
use mloc_pfs::{DirBackend, StorageBackend};
use std::time::Instant;

/// Distinct queries, cycled in order by the loop.
pub const POOL: usize = 96;
/// Value selectivities, alternating: Table II's 1% and 10% columns,
/// weighted equally. Query `k` is in op class `k % 2`; a 10% query
/// costs about three times a 1% one and the two groups do not overlap,
/// so `op_p50_ms` is the mean of the two groups' medians.
pub const SELECTIVITIES: [f64; 2] = [0.01, 0.10];
/// Queries run once during set-up.
const WARM: usize = 8;
/// Tail percentile (p99: a 15 s run completes over 2000 ops).
pub const TAIL_P: f64 = 0.99;

/// The query list for a field and seed.
pub fn queries(values: &[f64], seed: u64) -> Vec<Query> {
    let sample: Vec<f64> = values.iter().step_by(16).copied().collect();
    let mut gen = QueryGen::new(sample, vec![GTS_SIDE, GTS_SIDE], seed ^ 0x5643_5245);
    (0..POOL)
        .map(|i| {
            let (lo, hi) = gen.value_constraint(SELECTIVITIES[i % SELECTIVITIES.len()]);
            Query::region(lo, hi)
        })
        .collect()
}

/// Digests of the brute-force answers of the query list, worked out
/// one at a time.
pub fn expected<'v>(values: &'v [f64], pool: &[Query]) -> Oracle<'v> {
    let oracle = Oracle::new(values, &[GTS_SIDE, GTS_SIDE]);
    let digests = pool
        .iter()
        .map(|q| Some(Digest::of(&oracle.positions(q), None)))
        .collect();
    oracle.with_digests(digests)
}

fn executor() -> ParallelExecutor {
    ParallelExecutor::new(RANKS, cost_model())
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Setups::new(ctx, SETUP_REPS);
    loop {
        let dir = setups.begin()?;
        let be = DirBackend::new(&dir).map_err(err("open directory"))?;
        let (values, report) = build_gts_iso(&be, ctx.seed)?;
        let pool = queries(&values, ctx.seed);
        {
            let store = MlocStore::open(&be, GTS_DS, GTS_VAR).map_err(err("open store"))?;
            for q in &pool[..WARM] {
                executor()
                    .execute(&store, q)
                    .map_err(err("warm-up query"))?;
            }
        }
        if !setups.end() {
            continue;
        }
        let expected = expected(&values, &pool);
        let (untraced_s, traced_s) = ctx.segments();
        let untraced = run_loop(&be, &Tracer::new(false), untraced_s, &pool, &expected)?;
        let e2e = EndToEnd {
            sim_response_s: mean_response(&untraced.recs),
            stats: untraced.stats,
            tail_p: TAIL_P,
            stored_ratio: report.total_ratio(),
            setup_s: setups.median_s(),
        };
        if !ctx.trace {
            return Ok(Outcome::new(&[&e2e.stats], e2e.metrics("vc_region")));
        }
        let tracer = Tracer::new(true);
        let tap = Tap::new(&be, &tracer);
        let traced = run_loop(&tap, &tracer, traced_s, &pool, &expected)?;
        let spans = tracer.take();
        write_spans(&ctx.dir, "vc_region", &spans);
        let mut m = query_layer_metrics(&spans, &traced.recs);
        m.extend(trace_overhead(&e2e.stats, &traced.stats));
        m.insert("store.open_s", traced.open_s);
        m.extend(build_metrics(&[report], 1.0));
        m.insert(
            "baselines.seqscan_sim_response_s",
            seqscan_reference(&be, &pool, &expected)?,
        );
        return Ok(Outcome::new(&[&e2e.stats, &traced.stats], m));
    }
}

/// Run the query list in a closed loop for `seconds`.
pub fn run_loop(
    backend: &dyn StorageBackend,
    tracer: &Tracer,
    seconds: f64,
    pool: &[Query],
    expected: &Oracle<'_>,
) -> Result<QueryLoop, String> {
    let t = Instant::now();
    let store = MlocStore::open(backend, GTS_DS, GTS_VAR).map_err(err("open store"))?;
    let open_s = t.elapsed().as_secs_f64();
    let exec = executor();
    let mut recs = Vec::new();
    let stats = closed_loop(seconds, pool.len() as u64, |i| {
        let k = i as usize % pool.len();
        let q = &pool[k];
        let class = k % SELECTIVITIES.len();
        let t = Instant::now();
        let r = tracer.op(i, || {
            let plan = tracer.span("plan", || make_plan(&store, q))?;
            let (res, m) = tracer.span("exec", || exec.execute_plan(&store, q, &plan, None))?;
            Ok::<_, mloc::MlocError>((res, m, plan.units.len()))
        });
        let dt = t.elapsed().as_secs_f64();
        match r {
            Ok((res, m, units)) => {
                expected.check(
                    &format!("vc_region query {k}"),
                    k,
                    q,
                    res.positions(),
                    res.values(),
                )?;
                recs.push(OpRecord::of(&m, units, res.len()));
                Ok(Step::one(class, dt, true))
            }
            Err(e) => {
                eprintln!("vc_region query {k} failed: {e}");
                Ok(Step::one(class, dt, false))
            }
        }
    })?;
    Ok(QueryLoop {
        stats,
        recs,
        open_s,
    })
}

/// Mean Seq. Scan response time on the same queries (Table II's
/// reference row), with its answers checked too.
fn seqscan_reference(
    be: &DirBackend,
    pool: &[Query],
    expected: &Oracle<'_>,
) -> Result<f64, String> {
    let scan = SeqScan::build(be, GTS_DS, expected.field(), vec![GTS_SIDE, GTS_SIDE])
        .map_err(err("build Seq. Scan file"))?;
    let mut times = Vec::new();
    for (k, q) in pool.iter().enumerate() {
        let (lo, hi) = q.vc.expect("region queries carry a value constraint");
        let a = scan.region_query(lo, hi).map_err(err("Seq. Scan query"))?;
        expected.check(
            &format!("Seq. Scan query {k}"),
            k,
            q,
            &a.positions,
            a.values.as_deref(),
        )?;
        times.push(a.response_s(&cost_model()));
    }
    Ok(mean(&times))
}
