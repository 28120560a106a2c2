//! Spans recorded from the benchmark's side of each layer boundary,
//! and a storage tap that times every backend call.
//!
//! Nothing here runs inside the program under test: a span wraps a
//! call into a layer's public function, and the [`Tap`] is a
//! [`StorageBackend`] the stores are opened on. A span's parent is the
//! innermost span open on the same thread, so reads issued from
//! threads the benchmark did not start (serve workers) have no parent
//! and are reported in aggregate.

use crate::common::ratio;
use mloc::integrity::TRAILER_LEN;
use mloc_pfs::{PfsError, ReadRequest, StorageBackend};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Work counted by one storage span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Read requests (a batch counts each entry).
    pub reads: u64,
    /// Reads whose extent ends at end of file or [`TRAILER_LEN`]
    /// bytes before it: footer trailers and footer tables.
    pub footer: u64,
    /// Reads of `.idx` files.
    pub idx: u64,
    /// Reads of `.dat` files.
    pub dat: u64,
    /// Reads of any other file (variable meta, raw baseline files).
    pub meta: u64,
    /// Bytes read or appended.
    pub bytes: u64,
    /// Calls or requests that returned an error.
    pub errors: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.footer += o.footer;
        self.idx += o.idx;
        self.dat += o.dat;
        self.meta += o.meta;
        self.bytes += o.bytes;
        self.errors += o.errors;
    }
}

/// One completed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span identifier, unique within a tracer.
    pub id: u64,
    /// Layer boundary name (`op`, `plan`, `exec`, `pfs.read`, ...).
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The benchmark op this span belongs to, if known.
    pub op: Option<u64>,
    /// Work counted by storage spans (zero elsewhere).
    pub counts: Counts,
}

impl Span {
    /// Wall duration.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// Open spans on this thread: (span id, op id).
    static OPEN: RefCell<Vec<(u64, Option<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span recorder. A disabled tracer runs the wrapped
/// calls and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every span a plain call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as the root span of benchmark op `op`.
    pub fn op<R>(&self, op: u64, f: impl FnOnce() -> R) -> R {
        self.record("op", Some(op), || (f(), Counts::default()))
    }

    /// Run `f` as a span named `name` under the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, None, || (f(), Counts::default()))
    }

    /// Run `f` as a span that also reports counted work.
    pub fn counted<R>(&self, name: &'static str, f: impl FnOnce() -> (R, Counts)) -> R {
        self.record(name, None, f)
    }

    fn record<R>(&self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> (R, Counts)) -> R {
        if !self.enabled {
            return f().0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let outer = open.last().copied();
            let op = op.or(outer.and_then(|(_, o)| o));
            open.push((id, op));
            (outer.map(|(p, _)| p), op)
        });
        let start = self.epoch.elapsed().as_secs_f64();
        let (r, counts) = f();
        let end = self.epoch.elapsed().as_secs_f64();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(Span {
                id,
                name,
                start,
                end,
                parent,
                op,
                counts,
            });
        r
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock poisoned by a panicking span"),
        )
    }
}

/// Self time of every span: its duration minus the part of its
/// interval its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Number of spans per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed self time per name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed counts per name.
    pub counts: BTreeMap<&'static str, Counts>,
}

impl Summary {
    /// Summarize spans by name.
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut sum = Summary::default();
        for s in spans {
            *sum.calls.entry(s.name).or_default() += 1;
            *sum.self_s.entry(s.name).or_default() += selfs[&s.id];
            sum.counts.entry(s.name).or_default().add(&s.counts);
        }
        sum
    }

    /// Span count of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Summed self time of `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Summed counts over every name starting with `prefix`.
    pub fn counts(&self, prefix: &str) -> Counts {
        let mut c = Counts::default();
        for (_, v) in self.counts.iter().filter(|(k, _)| k.starts_with(prefix)) {
            c.add(v);
        }
        c
    }

    /// Mean self time of `name` per span (0 when it never ran).
    pub fn mean_self_s(&self, name: &str) -> f64 {
        ratio(self.self_s(name), self.calls(name) as f64)
    }
}

/// Spans as tab-separated lines: name, start, end, parent, op.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tname\tstart_s\tend_s\tparent\top\treads\tbytes\n");
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{:.9}\t{:.9}\t{}\t{}\t{}\t{}",
            s.id,
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.op),
            s.counts.reads,
            s.counts.bytes
        );
    }
    out
}

/// A [`StorageBackend`] that forwards every call to `inner` and times
/// the ones that touch storage as `pfs.*` spans.
///
/// Reads are classified by file kind and by footer position using file
/// lengths captured when the tap is made, so classification issues no
/// extra storage calls.
pub struct Tap<'t> {
    inner: &'t dyn StorageBackend,
    tracer: &'t Tracer,
    lens: HashMap<String, u64>,
}

impl<'t> Tap<'t> {
    /// Wrap `inner`, capturing the length of every file it holds now.
    pub fn new(inner: &'t dyn StorageBackend, tracer: &'t Tracer) -> Self {
        let lens = inner
            .list()
            .into_iter()
            .filter_map(|f| inner.len(&f).ok().map(|n| (f, n)))
            .collect();
        Tap {
            inner,
            tracer,
            lens,
        }
    }

    /// Wrap `inner` without capturing file lengths, for a write path
    /// whose reads need no footer classification.
    pub fn writer(inner: &'t dyn StorageBackend, tracer: &'t Tracer) -> Self {
        Tap {
            inner,
            tracer,
            lens: HashMap::new(),
        }
    }

    fn classify(&self, file: &str, offset: u64, len: u64) -> Counts {
        let end = offset + len;
        let footer = self
            .lens
            .get(file)
            .is_some_and(|&n| end == n || end + TRAILER_LEN == n);
        Counts {
            reads: 1,
            footer: u64::from(footer),
            idx: u64::from(file.ends_with(".idx")),
            dat: u64::from(file.ends_with(".dat")),
            meta: u64::from(!file.ends_with(".idx") && !file.ends_with(".dat")),
            bytes: len,
            errors: 0,
        }
    }

    fn read_counts(&self, file: &str, offset: u64, len: u64, ok: bool) -> Counts {
        let mut c = self.classify(file, offset, len);
        c.errors = u64::from(!ok);
        c
    }
}

fn call_counts<T>(r: &Result<T, PfsError>, bytes: u64) -> Counts {
    Counts {
        bytes,
        errors: u64::from(r.is_err()),
        ..Counts::default()
    }
}

impl StorageBackend for Tap<'_> {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.tracer.counted("pfs.create", || {
            let r = self.inner.create(name);
            let c = call_counts(&r, 0);
            (r, c)
        })
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.tracer.counted("pfs.append", || {
            let r = self.inner.append(name, data);
            let c = call_counts(&r, data.len() as u64);
            (r, c)
        })
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        self.tracer.counted("pfs.read", || {
            let r = self.inner.read(name, offset, len);
            let c = self.read_counts(name, offset, len, r.is_ok());
            (r, c)
        })
    }

    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        self.tracer.counted("pfs.read_batch", || {
            let r = self.inner.read_batch(requests);
            let mut c = Counts::default();
            for (req, res) in requests.iter().zip(&r) {
                c.add(&self.read_counts(&req.file, req.offset, req.len, res.is_ok()));
            }
            (r, c)
        })
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        self.tracer.counted("pfs.sync", || {
            let r = self.inner.sync(name);
            let c = call_counts(&r, 0);
            (r, c)
        })
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_of(&self, name: &str) -> usize {
        self.inner.shard_of(name)
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.tracer.counted("pfs.remove", || {
            let r = self.inner.remove(name);
            let c = call_counts(&r, 0);
            (r, c)
        })
    }

    fn replica_count(&self) -> usize {
        self.inner.replica_count()
    }

    fn replica_shard_of(&self, name: &str, replica: usize) -> usize {
        self.inner.replica_shard_of(name, replica)
    }

    fn read_replica(
        &self,
        name: &str,
        replica: usize,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, PfsError> {
        self.tracer.counted("pfs.read_replica", || {
            let r = self.inner.read_replica(name, replica, offset, len);
            let c = self.read_counts(name, offset, len, r.is_ok());
            (r, c)
        })
    }

    fn len_replica(&self, name: &str, replica: usize) -> Result<u64, PfsError> {
        self.tracer.counted("pfs.len", || {
            let r = self.inner.len_replica(name, replica);
            let c = call_counts(&r, 0);
            (r, c)
        })
    }

    fn read_repair_count(&self) -> u64 {
        self.inner.read_repair_count()
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.tracer.counted("pfs.len", || {
            let r = self.inner.len(name);
            let c = call_counts(&r, 0);
            (r, c)
        })
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn total_bytes_checked(&self) -> (u64, usize) {
        self.inner.total_bytes_checked()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.op(7, || {
            t.span("plan", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("exec", || {
                t.span("pfs.read", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = t.take();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == Some(7)));
        let selfs = self_times(&spans);
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        let total: f64 = selfs.values().sum();
        assert!(
            (total - root.dur()).abs() < 1e-9,
            "{total} vs {}",
            root.dur()
        );
        let exec = spans.iter().find(|s| s.name == "exec").unwrap();
        assert!(selfs[&exec.id] < exec.dur());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.op(1, || t.span("plan", || 5)), 5);
        assert!(t.take().is_empty());
    }
}
