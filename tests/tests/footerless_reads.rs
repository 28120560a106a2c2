//! Query-time integrity comes from the meta's checksum manifest, not
//! from the bin files' footers: through a counting wrapper backend, no
//! query in any execution shape asks a file for its length, and no read
//! touches the footer region `[payload_len, file_len)` of any bin file.
//! Every extent is still CRC-checked (the fault suites prove that);
//! this suite proves where the checksums come from.

use mloc::{BlockCache, ExtentFuser, MlocConfig, MlocStore, ParallelExecutor, PlodLevel, Query};
use mloc_compress::CodecKind;
use mloc_pfs::{CostModel, DirBackend, MemBackend, PfsError, ReadRequest, StorageBackend};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const DS: &str = "ds";
const VAR: &str = "v";

/// Forwards every call to `inner`, counting `len()` calls and logging
/// every read extent.
struct Counting<B> {
    inner: B,
    lens: AtomicU64,
    reads: Mutex<Vec<(String, u64, u64)>>,
}

impl<B: StorageBackend> Counting<B> {
    fn new(inner: B) -> Self {
        Counting {
            inner,
            lens: AtomicU64::new(0),
            reads: Mutex::new(Vec::new()),
        }
    }

    /// Drain the counters: `(len calls, reads)` since the last call.
    fn take(&self) -> (u64, Vec<(String, u64, u64)>) {
        let lens = self.lens.swap(0, Ordering::SeqCst);
        (lens, std::mem::take(&mut *self.reads.lock().unwrap()))
    }
}

impl<B: StorageBackend> StorageBackend for Counting<B> {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.inner.create(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.inner.append(name, data)
    }
    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        self.reads
            .lock()
            .unwrap()
            .push((name.to_string(), offset, len));
        self.inner.read(name, offset, len)
    }
    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        self.reads
            .lock()
            .unwrap()
            .extend(requests.iter().map(|r| (r.file.clone(), r.offset, r.len)));
        self.inner.read_batch(requests)
    }
    fn sync(&self, name: &str) -> Result<(), PfsError> {
        self.inner.sync(name)
    }
    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.inner.remove(name)
    }
    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.lens.fetch_add(1, Ordering::SeqCst);
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

fn field() -> Vec<f64> {
    (0..64 * 64)
        .map(|i| {
            let (r, c) = ((i / 64) as f64, (i % 64) as f64);
            (r * 0.21).sin() * 40.0 + (c * 0.13).cos() * 25.0 + (i % 7) as f64 * 0.01
        })
        .collect()
}

fn queries() -> Vec<Query> {
    let region = mloc::Region::new(vec![(5, 41), (12, 60)]);
    vec![
        Query::region(-10.0, 12.0),
        Query::values_in(region.clone()).with_plod(PlodLevel::new(2).unwrap()),
        Query::values_in(region.clone()),
        Query::values_where(0.0, 30.0).with_region(region),
        Query::membership((0..4096u64).step_by(37).collect()),
    ]
}

/// Assert the reads since the last drain stayed inside bin payloads
/// and that no `len()` was asked for. Returns the number of bin reads.
fn assert_footerless<B: StorageBackend>(
    be: &Counting<B>,
    payload: &HashMap<String, u64>,
    ctx: &str,
) -> usize {
    let (lens, reads) = be.take();
    assert_eq!(lens, 0, "{ctx}: query asked for a file length");
    let mut bin_reads = 0;
    for (file, off, len) in reads {
        if let Some(&p) = payload.get(&file) {
            bin_reads += 1;
            assert!(
                off + len <= p,
                "{ctx}: read [{off}, {}) of {file} enters its footer at {p}",
                off + len
            );
        }
    }
    bin_reads
}

fn check_backend<B: StorageBackend>(inner: B, label: &str) {
    let be = Counting::new(inner);
    let values = field();
    let config = MlocConfig::builder(vec![64, 64])
        .chunk_shape(vec![16, 16])
        .num_bins(8)
        .codec(CodecKind::Deflate)
        .build();
    mloc::build_variable(&be, DS, VAR, &values, &config).unwrap();

    // Payload length of every bin file, from the manifest; the files on
    // disk are longer by exactly their footers.
    let probe = MlocStore::open(&be, DS, VAR).unwrap();
    let mut payload = HashMap::new();
    for bin in 0..config.num_bins {
        for (file, footer) in [
            (probe.index_file(bin), probe.index_footer(bin)),
            (probe.data_file(bin), probe.data_footer(bin)),
        ] {
            assert!(be.len(&file).unwrap() > footer.payload_len());
            payload.insert(file, footer.payload_len());
        }
    }
    drop(probe);

    let plain = MlocStore::open(&be, DS, VAR).unwrap();
    let cached = MlocStore::open(&be, DS, VAR)
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(16)));
    let fused = MlocStore::open(&be, DS, VAR)
        .unwrap()
        .with_fusion(Arc::new(ExtentFuser::with_window_mb(4)));
    be.take();

    let serial = ParallelExecutor::serial();
    let threaded = ParallelExecutor::new(4, CostModel::default()).threaded(true);
    let replayed = ParallelExecutor::new(3, CostModel::default());
    let mut total = 0;
    for (qi, q) in queries().iter().enumerate() {
        let want = serial.execute(&plain, q).unwrap().0;
        total += assert_footerless(&be, &payload, &format!("{label} q{qi} serial"));
        for (name, exec, store) in [
            ("threaded", &threaded, &plain),
            ("replayed", &replayed, &plain),
            ("cached cold", &serial, &cached),
            ("cached warm", &threaded, &cached),
            ("fused", &threaded, &fused),
        ] {
            let got = exec.execute(store, q).unwrap().0;
            assert_eq!(got, want, "{label} q{qi} {name}: answer differs");
            total += assert_footerless(&be, &payload, &format!("{label} q{qi} {name}"));
        }
    }
    // Progressive refinement pulls read their extents the same way.
    let region = mloc::Region::new(vec![(0, 48), (8, 40)]);
    let mut p = threaded
        .progressive(&plain, &Query::values_in(region))
        .unwrap();
    p.run_to_completion().unwrap();
    total += assert_footerless(&be, &payload, &format!("{label} progressive"));
    assert!(total > 0, "{label}: no bin reads observed");
}

#[test]
fn queries_read_no_footers_on_mem_backend() {
    check_backend(MemBackend::new(), "mem");
}

#[test]
fn queries_read_no_footers_on_dir_backend() {
    let root = std::env::temp_dir().join(format!("mloc-footerless-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    check_backend(DirBackend::new(&root).unwrap(), "dir");
    let _ = std::fs::remove_dir_all(&root);
}
