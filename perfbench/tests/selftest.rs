//! Self-tests of the benchmark: deterministic op lists, a transparent
//! storage tap, well-formed metric names, and traced op times that the
//! layer self times plus the residual add up to.

use mloc::{
    build_variable, MlocConfig, MlocStore, ParallelExecutor, PlodLevel, Query, QueryMetrics,
};
use mloc_compress::CodecKind;
use mloc_perfbench::common::{END_TO_END, PER_LAYER};
use mloc_perfbench::trace::{self_times, Span, Tap, Tracer};
use mloc_perfbench::workloads::{ingest, sc_values, serve_mix, vc_region, GTS_DS, GTS_VAR};
use mloc_pfs::{MemBackend, PfsError, PoolDirBackend, ReadRequest, StorageBackend};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

fn gts(side: usize, seed: u64) -> Vec<f64> {
    mloc_datagen::gts_like_2d(side, side, seed).into_values()
}

fn tiny_gts_store(be: &dyn StorageBackend, values: &[f64], side: usize, codec: CodecKind) {
    let config = MlocConfig::builder(vec![side, side])
        .chunk_shape(vec![side / 4, side / 4])
        .num_bins(10)
        .codec(codec)
        .build();
    build_variable(be, GTS_DS, GTS_VAR, values, &config).unwrap();
}

#[test]
fn same_seed_gives_identical_op_lists() {
    let values = gts(64, 5);
    assert_eq!(
        vc_region::queries(&values, 9),
        vc_region::queries(&values, 9)
    );
    assert_ne!(
        vc_region::queries(&values, 9),
        vc_region::queries(&values, 10)
    );
    let shape = [sc_values::SIDE; 3];
    assert_eq!(sc_values::ops(&shape, 9), sc_values::ops(&shape, 9));
    assert_ne!(sc_values::ops(&shape, 9), sc_values::ops(&shape, 10));
    assert_eq!(
        serve_mix::sessions(&values, &[64, 64], 16),
        serve_mix::sessions(&values, &[64, 64], 16)
    );
    assert_eq!(serve_mix::stream(9), serve_mix::stream(9));
    assert_ne!(serve_mix::stream(9), serve_mix::stream(10));
    let sorted = |mut v: Vec<usize>| {
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(serve_mix::stream(9)),
        sorted(serve_mix::stream(10)),
        "seeds reorder the session stream, not its counts"
    );
    assert_eq!(ingest::fields(9), ingest::fields(9));
    assert_eq!(gts(64, 5), gts(64, 5));
}

/// Counts the calls a store makes, so the tap can be shown to pass
/// batches through as batches.
#[derive(Default)]
struct Counting {
    inner: MemBackend,
    reads: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    lens: AtomicU64,
}

impl StorageBackend for Counting {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.inner.create(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.inner.append(name, data)
    }
    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(name, offset, len)
    }
    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        self.inner.read_batch(requests)
    }
    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.lens.fetch_add(1, Ordering::Relaxed);
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

impl Counting {
    fn snapshot(&self) -> [u64; 4] {
        [&self.reads, &self.batches, &self.batched, &self.lens].map(|c| c.load(Ordering::Relaxed))
    }
}

fn counts(m: &QueryMetrics) -> [u64; 9] {
    [
        m.bytes_read,
        m.index_bytes,
        m.data_bytes,
        m.seeks,
        m.bins_touched as u64,
        m.aligned_bins as u64,
        m.chunks_touched as u64,
        m.cache_hits,
        m.fused_reads,
    ]
}

fn tiny_queries(values: &[f64]) -> Vec<Query> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted[values.len() / 5], sorted[values.len() / 3]);
    let region = mloc::Region::new(vec![(3, 40), (5, 61)]);
    vec![
        Query::region(lo, hi),
        Query::values_in(region.clone()),
        Query::values_where(lo, hi).with_region(region.clone()),
        Query::values_in(region).with_plod(PlodLevel::new(3).unwrap()),
    ]
}

#[test]
fn tap_is_transparent() {
    let values = gts(64, 3);
    let be = Counting::default();
    let config = MlocConfig::builder(vec![64, 64])
        .chunk_shape(vec![16, 16])
        .num_bins(10)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(&be, "ds", "v", &values, &config).unwrap();
    let tracer = Tracer::new(true);
    let tap = Tap::new(&be, &tracer);
    let exec = ParallelExecutor::new(4, mloc_pfs::CostModel::lens_2012());
    for q in tiny_queries(&values) {
        let before = be.snapshot();
        let plain = MlocStore::open(&be, "ds", "v").unwrap();
        let (r1, m1) = exec.execute(&plain, &q).unwrap();
        let mid = be.snapshot();
        let tapped = MlocStore::open(&tap, "ds", "v").unwrap();
        let (r2, m2) = exec.execute(&tapped, &q).unwrap();
        let after = be.snapshot();
        assert_eq!(r1, r2, "{q:?}");
        assert_eq!(counts(&m1), counts(&m2), "{q:?}");
        let calls = |a: [u64; 4], b: [u64; 4]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| y - x).collect()
        };
        assert_eq!(
            calls(before, mid),
            calls(mid, after),
            "backend calls differ for {q:?}"
        );
    }
    let spans = tracer.take();
    assert!(spans.iter().any(|s| s.name == "pfs.read_batch"));
    // The tap counts every request of a batch.
    let tapped_reads: u64 = spans.iter().map(|s| s.counts.reads).sum();
    assert!(tapped_reads > 0);
}

#[test]
fn tap_keeps_pool_batches_batched() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-pool-tap");
    let _ = std::fs::remove_dir_all(&dir);
    // Byte-group sections of a PLoD layout lie further apart than the
    // engine's coalescing gap, so a value query submits real batches.
    let values = gts(256, 4);
    let pool = PoolDirBackend::new(&dir, 2).unwrap();
    let config = MlocConfig::builder(vec![256, 256])
        .chunk_shape(vec![32, 32])
        .num_bins(4)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(&pool, GTS_DS, GTS_VAR, &values, &config).unwrap();
    let tracer = Tracer::new(true);
    let tap = Tap::new(&pool, &tracer);
    let plain = MlocStore::open(&pool, GTS_DS, GTS_VAR).unwrap();
    let tapped = MlocStore::open(&tap, GTS_DS, GTS_VAR).unwrap();
    for q in tiny_queries(&values) {
        assert_eq!(
            plain.query_serial(&q).unwrap(),
            tapped.query_serial(&q).unwrap()
        );
    }
    let spans = tracer.take();
    let batched: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "pfs.read_batch")
        .collect();
    assert!(
        batched.iter().any(|s| s.counts.reads > 1),
        "no multi-request batch reached the pool"
    );
    drop((plain, tapped));
    drop(tap);
    drop(pool);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every traced op's time is its spans' self times, residual included.
fn assert_ops_add_up(spans: &[Span]) {
    let selfs = self_times(spans);
    let mut per_op: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.op.is_some()) {
        *per_op.entry(s.op.unwrap()).or_default() += selfs[&s.id];
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == "op").collect();
    assert!(!roots.is_empty());
    for root in roots {
        let op = root.op.unwrap();
        let residual = selfs[&root.id];
        assert!(residual >= -1e-12, "negative residual {residual}");
        let sum = per_op[&op];
        assert!(
            (sum - root.dur()).abs() <= 1e-9 * root.dur().max(1.0),
            "op {op}: layers {sum} vs op {}",
            root.dur()
        );
        assert!(spans.iter().any(|s| s.op == Some(op) && s.name != "op"));
    }
}

#[test]
fn vc_region_layers_add_up() {
    let values = gts(64, 6);
    let be = MemBackend::new();
    tiny_gts_store(&be, &values, 64, CodecKind::Isobar);
    let pool = vc_region::queries(&values, 1);
    let want = vc_region::expected(&values, &pool);
    let tracer = Tracer::new(true);
    let tap = Tap::new(&be, &tracer);
    let l = vc_region::run_loop(&tap, &tracer, 0.05, &pool, &want).unwrap();
    assert_eq!(l.stats.failed, 0);
    assert_eq!(
        l.stats.attempted % pool.len() as u64,
        0,
        "whole cycles only"
    );
    let spans = tracer.take();
    assert!(spans.iter().any(|s| s.name == "plan"));
    assert!(spans
        .iter()
        .any(|s| s.name.starts_with("pfs.") && s.op.is_some()));
    assert_ops_add_up(&spans);
}

#[test]
fn a_wrong_answer_fails_the_run() {
    let values = gts(64, 6);
    let be = MemBackend::new();
    tiny_gts_store(&be, &values, 64, CodecKind::Isobar);
    let pool = vc_region::queries(&values, 1);
    // Answers of another field: the store's positions cannot match.
    let other = gts(64, 8);
    let want = vc_region::expected(&other, &pool);
    let err = vc_region::run_loop(&be, &Tracer::new(false), 0.01, &pool, &want)
        .err()
        .expect("a wrong answer must abort the loop");
    assert!(err.contains("vc_region query 0"), "{err}");
}

#[test]
fn sc_values_layers_add_up() {
    let side = 16;
    let values = mloc_datagen::s3d_like_3d(side, side, side, 2).into_values();
    let be = MemBackend::new();
    let config = MlocConfig::builder(vec![side; 3])
        .chunk_shape(vec![8; 3])
        .num_bins(8)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(&be, "s3d", "col", &values, &config).unwrap();
    let ops = sc_values::ops(&[side; 3], 1);
    let store = MlocStore::open(&be, "s3d", "col").unwrap();
    let want = sc_values::expected(&store, &values, &ops).unwrap();
    let tracer = Tracer::new(true);
    let tap = Tap::new(&be, &tracer);
    let l = sc_values::run_loop(&tap, &tracer, 0.05, &ops, &want).unwrap();
    assert_eq!(l.stats.failed, 0);
    assert!(l.recs.iter().any(|r| r.progressive.is_some()));
    let spans = tracer.take();
    assert!(spans.iter().any(|s| s.name == "progressive"));
    assert_ops_add_up(&spans);
}

#[test]
fn serve_mix_layers_add_up() {
    let values = gts(64, 7);
    let be = MemBackend::new();
    tiny_gts_store(&be, &values, 64, CodecKind::Isobar);
    let distinct = serve_mix::sessions(&values, &[64, 64], 16);
    let want = serve_mix::expected(&be, &values, &distinct).unwrap();
    let tracer = Tracer::new(true);
    let tap = Tap::new(&be, &tracer);
    let server = mloc_serve::QueryServer::new(&tap, serve_mix::serve_config(1));
    serve_mix::run_all(&server, &distinct).unwrap();
    let order = serve_mix::stream(1);
    let l = serve_mix::run_loop(&server, &tracer, 0.05, &distinct, &order, &want).unwrap();
    assert_eq!(l.stats.failed, 0);
    assert_eq!(
        l.stats.latencies.len() as u64,
        l.stats.steps * serve_mix::WINDOW as u64
    );
    assert_ops_add_up(&tracer.take());
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics"
    );
}
