//! Sharded decompressed-block cache for the query path.
//!
//! Exploratory sessions issue overlapping VC/SC/multi-resolution
//! queries that decompress the same (bin, chunk, byte-group) blocks
//! over and over. [`BlockCache`] sits between the query engine and the
//! [`mloc_pfs::StorageBackend`]: it holds *decompressed* blocks —
//! index headers, positional bitmaps, PLoD byte-group parts, and
//! whole-value float blocks — keyed by `(dataset/var, bin, chunk,
//! part)`, so a repeated or overlapping query skips both the PFS read
//! and the codec work.
//!
//! Accounting rules (see `DESIGN.md`):
//!
//! * A hit is recorded in the rank's [`mloc_pfs::RankIo`] trace with
//!   the `cached` flag set — the logical access pattern stays visible —
//!   but the PFS simulator charges it nothing.
//! * Hits/misses and the compressed bytes saved surface per query in
//!   `QueryMetrics` and globally in [`BlockCache::stats`].
//!
//! The cache is byte-budgeted and sharded: the budget is split evenly
//! over [`NUM_SHARDS`] independently locked LRU shards
//! (`parking_lot::Mutex`), so concurrent ranks of the threaded
//! executor contend only when their keys collide on a shard. A block
//! larger than one shard's budget is never cached; a zero budget
//! caches nothing and degrades to exactly the uncached read path.
//!
//! PLoD byte-group parts are cached at *part* granularity: a query at
//! precision level 2 warms parts 0–1, and a later full-precision query
//! still reuses them, fetching only the missing tail parts.
//!
//! Cached blocks are tied to a built (immutable) variable; rebuilding
//! a variable under the same dataset/var names with different content
//! requires a fresh cache.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked LRU shards.
pub const NUM_SHARDS: usize = 16;

/// Which block of a `(bin, chunk)` pair a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockPart {
    /// The bin index header + chunk directory (chunk rank is 0).
    IndexHeader,
    /// The v2 chunk-summary section of one bin (chunk rank is 0).
    Summary,
    /// The positional WAH bitmap of one chunk in one bin.
    Bitmap,
    /// A whole-value decompressed float block (non-PLoD layouts).
    Floats,
    /// One decompressed PLoD byte-group part (0 = most significant).
    PlodPart(u8),
}

/// Cache key: one decompressed block of one built variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// `dataset/var` scope, shared via `Arc` so probes don't allocate.
    pub scope: Arc<str>,
    /// Value bin.
    pub bin: u32,
    /// Chunk curve rank ([`BlockPart::IndexHeader`] uses 0).
    pub chunk_rank: u32,
    /// Which block of the pair.
    pub part: BlockPart,
}

/// A zero-copy view of a byte range inside a shared buffer.
///
/// The query hot path reads coalesced extents once and hands out
/// `ByteView`s into them instead of copying every want into its own
/// `Vec<u8>`; cache inserts clone the view (an `Arc` bump plus two
/// integers), never the bytes. Views of the same extent share one
/// backing allocation, so caching every bitmap of a bin read together
/// costs the extent once, not once per bitmap. Coalescing gaps (at
/// most the merge threshold per join) ride along uncharged — the
/// budget charge is the view length, see [`CachedBlock::cost`].
#[derive(Debug, Clone)]
pub struct ByteView {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl ByteView {
    /// View of a whole shared buffer.
    pub fn new(buf: Arc<Vec<u8>>) -> Self {
        let len = buf.len();
        ByteView { buf, start: 0, len }
    }

    /// View of `buf[start..start + len]`.
    ///
    /// # Panics
    /// Panics when the range exceeds the buffer.
    pub fn slice(buf: Arc<Vec<u8>>, start: usize, len: usize) -> Self {
        assert!(start + len <= buf.len(), "byte view out of range");
        ByteView { buf, start, len }
    }

    /// An empty view with no backing allocation of its own.
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
        ByteView::new(Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))))
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for ByteView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for ByteView {
    fn from(v: Vec<u8>) -> Self {
        ByteView::new(Arc::new(v))
    }
}

/// A cached decompressed block.
#[derive(Debug, Clone)]
pub enum CachedBlock {
    /// Raw bytes: index headers, bitmaps, PLoD parts. Stored as a
    /// view so cache inserts of extent subslices copy nothing.
    Bytes(ByteView),
    /// Decoded doubles: whole-value blocks.
    Floats(Arc<Vec<f64>>),
}

impl CachedBlock {
    /// Budget charge of this block in bytes (the view length for byte
    /// blocks — shared extent backing is charged per view, so a few
    /// coalescing-gap bytes may ride along free).
    pub fn cost(&self) -> u64 {
        match self {
            CachedBlock::Bytes(b) => b.len() as u64,
            CachedBlock::Floats(f) => (f.len() * std::mem::size_of::<f64>()) as u64,
        }
    }

    /// The byte payload, if this is a byte block.
    pub fn as_bytes(&self) -> Option<&ByteView> {
        match self {
            CachedBlock::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The float payload, if this is a float block.
    pub fn as_floats(&self) -> Option<&Arc<Vec<f64>>> {
        match self {
            CachedBlock::Floats(f) => Some(f),
            _ => None,
        }
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found their block.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Blocks currently resident.
    pub resident_blocks: u64,
}

const NIL: usize = usize::MAX;

struct Node {
    key: BlockKey,
    value: CachedBlock,
    cost: u64,
    prev: usize,
    next: usize,
}

/// One LRU shard: an intrusive doubly linked list over a slab, plus a
/// key → slot map. Head is most recent, tail least.
struct Shard {
    map: HashMap<BlockKey, usize>,
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    used_bytes: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.slots[idx].as_ref().expect("unlink of free slot");
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("bad prev link").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("bad next link").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let n = self.slots[idx].as_mut().expect("push of free slot");
            n.prev = NIL;
            n.next = self.head;
        }
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].as_mut().expect("bad head link").prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &BlockKey) -> Option<CachedBlock> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(
            self.slots[idx]
                .as_ref()
                .expect("mapped slot is free")
                .value
                .clone(),
        )
    }

    /// Evict the LRU entry; returns false when empty.
    fn evict_tail(&mut self) -> bool {
        let idx = self.tail;
        if idx == NIL {
            return false;
        }
        self.unlink(idx);
        let node = self.slots[idx].take().expect("tail slot is free");
        self.map.remove(&node.key);
        self.used_bytes -= node.cost;
        self.free.push(idx);
        true
    }

    /// Insert (or refresh) an entry under a byte budget. Returns the
    /// number of evictions performed, or `None` when the block itself
    /// exceeds the budget and was rejected.
    fn insert(&mut self, key: BlockKey, value: CachedBlock, budget: u64) -> Option<u64> {
        let cost = value.cost();
        if cost > budget {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            // Refresh in place.
            let old = {
                let n = self.slots[idx].as_mut().expect("mapped slot is free");
                let old = n.cost;
                n.value = value;
                n.cost = cost;
                old
            };
            self.used_bytes = self.used_bytes - old + cost;
            self.unlink(idx);
            self.push_front(idx);
        } else {
            let idx = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.slots.push(None);
                    self.slots.len() - 1
                }
            };
            self.slots[idx] = Some(Node {
                key: key.clone(),
                value,
                cost,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.used_bytes += cost;
            self.push_front(idx);
        }
        let mut evicted = 0;
        while self.used_bytes > budget && self.evict_tail() {
            evicted += 1;
        }
        Some(evicted)
    }
}

/// A concurrent, sharded, byte-budgeted LRU cache of decompressed
/// blocks. Cheap to share: wrap in an [`Arc`] and hand clones to every
/// store / rank.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl BlockCache {
    /// A cache with a total byte budget, split evenly over
    /// [`NUM_SHARDS`] shards. A zero budget caches nothing.
    pub fn with_budget_bytes(budget: u64) -> Self {
        BlockCache {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: budget / NUM_SHARDS as u64,
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with a budget in MiB (the CLI's `--cache-mb`).
    pub fn with_budget_mb(mb: u64) -> Self {
        Self::with_budget_bytes(mb << 20)
    }

    /// The configured total byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    fn shard_of(&self, key: &BlockKey) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up a block, marking it most recently used.
    pub fn get(&self, key: &BlockKey) -> Option<CachedBlock> {
        let found = self.shard_of(key).lock().get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a block, evicting LRU entries to fit the budget. Returns
    /// whether the block was accepted (blocks larger than one shard's
    /// budget are rejected).
    pub fn insert(&self, key: BlockKey, value: CachedBlock) -> bool {
        match self
            .shard_of(&key)
            .lock()
            .insert(key, value, self.shard_budget)
        {
            Some(evicted) => {
                self.insertions.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Snapshot the counters and resident totals.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock();
            stats.resident_bytes += s.used_bytes;
            stats.resident_blocks += s.map.len() as u64;
        }
        stats
    }

    /// Drop every resident block (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            while s.evict_tail() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(scope: &Arc<str>, bin: u32, chunk: u32, part: BlockPart) -> BlockKey {
        BlockKey {
            scope: Arc::clone(scope),
            bin,
            chunk_rank: chunk,
            part,
        }
    }

    fn block(n: usize) -> CachedBlock {
        CachedBlock::Bytes(ByteView::from(vec![0xAB; n]))
    }

    #[test]
    fn byte_views_share_backing_without_copying() {
        let extent = Arc::new((0..100u8).collect::<Vec<u8>>());
        let a = ByteView::slice(Arc::clone(&extent), 10, 5);
        let b = ByteView::slice(Arc::clone(&extent), 15, 5);
        assert_eq!(a.as_slice(), &[10, 11, 12, 13, 14]);
        assert_eq!(&b[..], &[15, 16, 17, 18, 19]);
        // Two views + the original: one allocation, three handles.
        assert_eq!(Arc::strong_count(&extent), 3);
        assert!(ByteView::empty().is_empty());
        assert_eq!(CachedBlock::Bytes(a).cost(), 5);
    }

    #[test]
    #[should_panic]
    fn byte_view_out_of_range_panics() {
        ByteView::slice(Arc::new(vec![0u8; 4]), 2, 3);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        let k = key(&scope, 1, 2, BlockPart::PlodPart(0));
        assert!(cache.get(&k).is_none());
        assert!(cache.insert(k.clone(), block(100)));
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.resident_bytes, 100);
        assert_eq!(s.resident_blocks, 1);
    }

    #[test]
    fn distinct_parts_are_distinct_keys() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        cache.insert(key(&scope, 0, 0, BlockPart::PlodPart(0)), block(10));
        cache.insert(key(&scope, 0, 0, BlockPart::PlodPart(1)), block(20));
        cache.insert(key(&scope, 0, 0, BlockPart::Bitmap), block(30));
        cache.insert(key(&scope, 0, 0, BlockPart::IndexHeader), block(40));
        assert_eq!(cache.stats().resident_blocks, 4);
        // Same coordinates under a different scope are separate too.
        let other: Arc<str> = Arc::from("ds/w");
        assert!(cache.get(&key(&other, 0, 0, BlockPart::Bitmap)).is_none());
    }

    #[test]
    fn lru_eviction_under_budget() {
        let scope: Arc<str> = Arc::from("ds/v");
        // One shard's budget is total / NUM_SHARDS; drive one shard by
        // reusing the same key coordinates with distinct bins until it
        // overflows. Use a budget small enough that a few 64-byte
        // blocks overflow a shard.
        let cache = BlockCache::with_budget_bytes((NUM_SHARDS * 150) as u64);
        for bin in 0..200u32 {
            cache.insert(key(&scope, bin, 0, BlockPart::Floats), block(64));
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "no evictions despite overflow");
        assert!(s.resident_bytes <= (NUM_SHARDS as u64) * 150);
        // Per-shard budget of 150 holds at most two 64-byte blocks.
        for shard in &cache.shards {
            assert!(shard.lock().used_bytes <= 150);
        }
    }

    #[test]
    fn recently_used_survives_eviction() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes((NUM_SHARDS * 256) as u64);
        // Find three keys landing on the same shard.
        let mut same_shard = Vec::new();
        let probe: Vec<BlockKey> = (0..500u32)
            .map(|b| key(&scope, b, 7, BlockPart::Floats))
            .collect();
        let target = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            probe[0].hash(&mut h);
            (h.finish() as usize) % NUM_SHARDS
        };
        for k in probe {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            if (h.finish() as usize) % NUM_SHARDS == target {
                same_shard.push(k);
            }
            if same_shard.len() == 3 {
                break;
            }
        }
        let [a, b, c] = &same_shard[..] else {
            panic!("need 3 keys")
        };
        // 100-byte blocks, 256-byte shard: two fit, three do not.
        cache.insert(a.clone(), block(100));
        cache.insert(b.clone(), block(100));
        assert!(cache.get(a).is_some(), "a should be resident");
        cache.insert(c.clone(), block(100));
        // b was least recently used; a was touched and must survive.
        assert!(cache.get(a).is_some(), "a evicted despite recent use");
        assert!(cache.get(b).is_none(), "b should have been evicted");
        assert!(cache.get(c).is_some(), "c was just inserted");
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(0);
        let k = key(&scope, 0, 0, BlockPart::Floats);
        assert!(!cache.insert(k.clone(), block(1)));
        assert!(cache.get(&k).is_none());
        let s = cache.stats();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn refresh_updates_cost_in_place() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        let k = key(&scope, 3, 4, BlockPart::PlodPart(2));
        cache.insert(k.clone(), block(100));
        cache.insert(k.clone(), block(40));
        let s = cache.stats();
        assert_eq!(s.resident_blocks, 1);
        assert_eq!(s.resident_bytes, 40);
    }

    #[test]
    fn float_blocks_charge_eight_bytes_each() {
        let b = CachedBlock::Floats(Arc::new(vec![1.0; 10]));
        assert_eq!(b.cost(), 80);
        assert!(b.as_floats().is_some());
        assert!(b.as_bytes().is_none());
    }

    #[test]
    fn clear_empties_all_shards() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        for bin in 0..64u32 {
            cache.insert(key(&scope, bin, 0, BlockPart::Bitmap), block(16));
        }
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.resident_blocks, 0);
    }

    #[test]
    fn concurrent_mixed_load_is_safe() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = Arc::new(BlockCache::with_budget_bytes(64 << 10));
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let scope = Arc::clone(&scope);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let k = BlockKey {
                            scope: Arc::clone(&scope),
                            bin: (t + i) % 16,
                            chunk_rank: i % 8,
                            part: BlockPart::PlodPart((i % 3) as u8),
                        };
                        if i % 2 == 0 {
                            cache.insert(k, CachedBlock::Bytes(ByteView::from(vec![0; 128])));
                        } else {
                            let _ = cache.get(&k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 250);
        assert!(s.resident_bytes <= 64 << 10);
    }
}
