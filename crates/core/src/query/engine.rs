//! Per-rank query execution: index reads, coalesced data reads,
//! decompression, and result reconstruction.
//!
//! The hot path is zero-copy and run-aware (see `DESIGN.md`, "hot-path
//! memory discipline"): coalesced reads hand out [`ByteView`]s into
//! shared extent buffers instead of per-want copies, the reconstruct
//! loop consumes WAH *runs* so a fill of ones becomes one bulk range
//! operation, and per-chunk scratch buffers (PLoD floats, coordinates)
//! are reused across work units.

use crate::cache::{BlockKey, BlockPart, ByteView, CachedBlock};
use crate::config::{PlodLevel, NUM_PARTS};
use crate::degrade::{DegradationEvent, DegradationReport};
use crate::fusion::coalesced_read_results;
use crate::index::{decode_summary, header_size, BinIndex, ChunkSummary, UnitLoc};
use crate::plod;
use crate::query::plan::{parts_used, WorkUnit};
use crate::query::Query;
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_bitmap::{RankSelectDir, WahBitmap, WahRef};
use mloc_obs::{Collector, Label};
use mloc_pfs::RankIo;
use std::sync::Arc;
use std::time::Instant;

/// One rank's partial result plus its CPU component times.
#[derive(Debug, Default)]
pub struct RankOutput {
    /// Matching global positions.
    pub positions: Vec<u64>,
    /// Values aligned with positions (empty for position-only output).
    pub values: Vec<f64>,
    /// Seconds spent in codec decompression.
    pub decompress_s: f64,
    /// Seconds spent assembling/filtering results.
    pub reconstruct_s: f64,
    /// Bytes read from index files.
    pub index_bytes: u64,
    /// Bytes read from data files.
    pub data_bytes: u64,
    /// Block-cache hits this rank observed (0 without a cache).
    pub cache_hits: u64,
    /// Block-cache misses this rank observed (0 without a cache).
    pub cache_misses: u64,
    /// Compressed bytes served from the cache instead of the PFS.
    pub bytes_saved: u64,
    /// Wants served by another session's physical read through the
    /// extent fuser (0 without fusion).
    pub fused_reads: u64,
    /// Bytes of those fused wants — kept off the PFS and excluded from
    /// `index_bytes`/`data_bytes`, like cache-served bytes.
    pub fused_bytes: u64,
    /// Transient-read retries this rank performed (filled in by the
    /// executor from the rank's I/O handle).
    pub retries: u64,
    /// Simulated backoff seconds accumulated by those retries.
    pub retry_wait_s: f64,
    /// Reads this rank abandoned because the retry backoff budget ran
    /// out (filled in by the executor from the rank's I/O handle).
    pub retries_exhausted: u64,
    /// Extent losses this rank worked around by reducing PLoD
    /// precision (empty = full fidelity).
    pub degradation: DegradationReport,
    /// Refinement state captured for a progressive query (empty unless
    /// the executor asked for capture).
    pub refine_units: Vec<RefineUnit>,
}

/// What a progressive query remembers about one refinable work unit
/// after its step-0 pass, so later refinement pulls read only the next
/// byte-group extents — index headers, bitmaps and positions are
/// planned once here and never re-read.
#[derive(Debug, Clone)]
pub struct RefineUnit {
    /// Value bin (names the data file).
    pub bin: usize,
    /// Chunk rank within the bin.
    pub chunk_rank: usize,
    /// Points stored in the unit — the byte length of each one-byte
    /// tail part.
    pub count: u32,
    /// Extent location of every PLoD part, from the bin index header.
    pub part_locs: Vec<UnitLoc>,
    /// Per emitted point: its rank within the unit's value array (the
    /// byte index inside each tail part).
    pub val_idx: Vec<u32>,
    /// Per emitted point: its global position (ascending).
    pub positions: Vec<u64>,
}

/// Decompose a chunk-local offset into global coordinates without
/// allocating (scratch holds the result).
#[inline]
fn local_to_coords_into(ranges: &[(usize, usize)], mut local: u64, scratch: &mut [usize]) {
    for d in (0..ranges.len()).rev() {
        let (s, e) = ranges[d];
        let extent = (e - s) as u64;
        scratch[d] = s + (local % extent) as usize;
        local /= extent;
    }
}

/// Sorted-slice membership with a monotone cursor: a galloping
/// replacement for the old `HashSet<u64>` position filter. Queries
/// must arrive in non-decreasing order (which reconstruction
/// guarantees per work unit: chunk-local row-major order maps
/// monotonically to global row-major positions).
struct Gallop<'a> {
    sorted: &'a [u64],
    idx: usize,
}

impl<'a> Gallop<'a> {
    fn new(sorted: &'a [u64]) -> Self {
        Gallop { sorted, idx: 0 }
    }

    /// Advance the cursor to the first element `>= x`.
    fn seek(&mut self, x: u64) {
        let s = self.sorted;
        if self.idx >= s.len() || s[self.idx] >= x {
            return;
        }
        // Gallop: double the step until the window brackets x, then
        // binary-search inside it. O(log distance) per call, O(n + m
        // log n/m) over an intersection.
        let mut lo = self.idx; // invariant: s[lo] < x
        let mut step = 1usize;
        while lo + step < s.len() && s[lo + step] < x {
            lo += step;
            step <<= 1;
        }
        let hi = (lo + step + 1).min(s.len());
        self.idx = lo + 1 + s[lo + 1..hi].partition_point(|&v| v < x);
    }

    /// Whether `x` is in the set; advances the cursor.
    fn contains(&mut self, x: u64) -> bool {
        self.seek(x);
        self.idx < self.sorted.len() && self.sorted[self.idx] == x
    }

    /// All elements in `[lo, hi)`; advances the cursor past them.
    fn range(&mut self, lo: u64, hi: u64) -> &'a [u64] {
        self.seek(lo);
        let start = self.idx;
        let end = start + self.sorted[start..].partition_point(|&v| v < hi);
        self.idx = end;
        &self.sorted[start..end]
    }
}

/// Incremental chunk-local → global row-major position cursor.
///
/// Replaces per-point `local_to_coords` + `linearize` (a div/mod plus
/// a multiply/add per dimension per point): the cursor starts at
/// chunk-local offset 0 and only ever moves forward by run lengths, so
/// a whole chunk is walked with additions and odometer carries —
/// no division anywhere, not even per run.
struct ChunkEmitter {
    /// Global row-major stride per dimension (from the domain shape).
    strides: Vec<u64>,
    /// Current chunk's extent per dimension.
    extents: Vec<u64>,
    /// Odometer: chunk-local coordinates of the cursor's row.
    c: Vec<u64>,
    /// Global position of the cursor's row start.
    row_base: u64,
    /// Cursor offset within the current row.
    in_row: u64,
    /// Innermost (contiguous) extent: the chunk row width.
    row_w: u64,
    /// Chunk rows after the cursor's row.
    rows_left: u64,
}

impl ChunkEmitter {
    fn new(shape: &[usize]) -> Self {
        let dims = shape.len();
        let mut strides = vec![1u64; dims];
        for d in (0..dims.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1] as u64;
        }
        ChunkEmitter {
            strides,
            extents: vec![0; dims],
            c: vec![0; dims],
            row_base: 0,
            in_row: 0,
            row_w: 0,
            rows_left: 0,
        }
    }

    /// Point the cursor at chunk-local offset 0 of a chunk, given its
    /// clamped region ranges.
    fn set_chunk(&mut self, ranges: &[(usize, usize)]) {
        debug_assert_eq!(ranges.len(), self.strides.len());
        self.row_base = 0;
        let mut rows = 1u64;
        for (d, &(s, e)) in ranges.iter().enumerate() {
            self.extents[d] = (e - s) as u64;
            self.c[d] = 0;
            self.row_base += s as u64 * self.strides[d];
            rows *= self.extents[d];
        }
        self.in_row = 0;
        self.row_w = *self.extents.last().expect("chunk has dimensions");
        self.rows_left = (rows / self.row_w.max(1)).saturating_sub(1);
    }

    /// Carry the odometer into the next chunk row. Must not be called
    /// with `rows_left == 0`.
    #[inline]
    fn next_row(&mut self) {
        self.in_row = 0;
        self.rows_left -= 1;
        let mut d = self.extents.len() - 2;
        loop {
            self.c[d] += 1;
            self.row_base += self.strides[d];
            if self.c[d] < self.extents[d] {
                return;
            }
            self.row_base -= self.extents[d] * self.strides[d];
            self.c[d] = 0;
            d -= 1;
        }
    }

    /// Move the cursor forward by `n` chunk-local offsets (a run of
    /// unset bits). A cursor landing exactly on the chunk end stays
    /// parked past the last row's width.
    fn advance(&mut self, n: u64) {
        self.in_row += n;
        while self.in_row >= self.row_w && self.rows_left > 0 {
            self.in_row -= self.row_w;
            let carry_over = self.in_row;
            self.next_row();
            self.in_row = carry_over;
        }
    }

    /// Walk the next `len` chunk-local offsets (a run of set bits) as
    /// contiguous row segments, calling `f(row_coords, g0, vi, take)`
    /// for each: `row_coords` are the segment's chunk-local
    /// coordinates (innermost entry = segment start), `g0` its first
    /// global position, `vi` its first index into the chunk's
    /// reconstructed values (`vi0` + offset within the run), and
    /// `take` its point count. Consecutive global positions within a
    /// segment map to consecutive value indices, so callers filter and
    /// copy sub-slices instead of points. Leaves the cursor at the end
    /// of the run.
    fn walk_run<F>(&mut self, len: u64, vi0: u64, mut f: F)
    where
        F: FnMut(&[u64], u64, usize, u64),
    {
        let dims = self.extents.len();
        let w = self.row_w;
        let mut remaining = len;
        let mut vi = vi0 as usize;
        loop {
            // The run covers `take` contiguous global positions of the
            // cursor's chunk row.
            let take = remaining.min(w - self.in_row);
            self.c[dims - 1] = self.in_row;
            f(&self.c, self.row_base + self.in_row, vi, take);
            remaining -= take;
            vi += take as usize;
            self.in_row += take;
            if remaining == 0 {
                // Eagerly carry a row boundary (unless the chunk is
                // exhausted, where the cursor parks past the last row).
                if self.in_row == w && self.rows_left > 0 {
                    self.next_row();
                }
                return;
            }
            self.next_row();
        }
    }
}

/// Deferred per-chunk gather target for units with no per-point
/// filter.
///
/// Bin bitmaps over continuous data are scatter-heavy (isolated set
/// bits), so emitting per unit pays the row-major cursor *per set
/// bit*. Units that nothing can reject instead scatter their values
/// into a chunk-shaped block with pure local arithmetic (one add and
/// one store per run) and mark coverage in `mask`; after all groups,
/// one pass per chunk walks the mask word-by-word and emits whole row
/// segments in bulk. The mask — rather than assuming full coverage —
/// keeps this correct when a chunk's bins are split across ranks by
/// the column-order assignment.
struct ChunkScatter {
    /// Chunk-local values, ordered by local offset (empty when the
    /// query is position-only).
    block: Vec<f64>,
    /// One bit per chunk-local offset: set iff some unit on this rank
    /// covered it.
    mask: Vec<u64>,
    /// Whether emission must clamp to the query's spatial region
    /// (identical for every unit of one chunk).
    spatial: bool,
}

/// Set `len` bits of `mask` starting at bit `start`.
#[inline]
fn set_bits(mask: &mut [u64], start: u64, len: u64) {
    let mut w = (start / 64) as usize;
    let mut bit = start % 64;
    let mut rem = len;
    while rem > 0 {
        let take = (64 - bit).min(rem);
        let m = if take == 64 {
            !0u64
        } else {
            ((1u64 << take) - 1) << bit
        };
        mask[w] |= m;
        w += 1;
        bit = 0;
        rem -= take;
    }
}

thread_local! {
    static FORCE_GENERAL_PATH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Recycled `(block, mask)` buffer pairs for [`ChunkScatter`].
    /// Invariant: every pooled buffer is all-zero, so acquiring one
    /// skips the full-block memset — emission re-zeroes exactly the
    /// covered ranges (cache-hot, proportional to result size) before
    /// returning buffers here.
    static SCATTER_POOL: std::cell::RefCell<Vec<(Vec<f64>, Vec<u64>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Most buffers a thread's pool retains (bounds long-session memory;
/// one block is a chunk's worth of `f64`s).
const SCATTER_POOL_CAP: usize = 64;

/// Test hook: force the per-point general reconstruct path even for
/// units the bulk fast path could serve, so differential tests can
/// prove the two paths identical. Thread-local; checked once per work
/// unit, so it costs nothing measurable on the hot path.
#[doc(hidden)]
pub fn force_general_reconstruct(on: bool) {
    FORCE_GENERAL_PATH.with(|f| f.set(on));
}

#[inline]
fn use_general_path() -> bool {
    FORCE_GENERAL_PATH.with(|f| f.get())
}

/// Process this rank's work units, reading through `io`.
///
/// Units must be grouped by bin and ordered by chunk rank within a bin
/// (the plan and the column-order assignment both preserve this).
/// `position_filter`, when set, keeps only the listed global positions
/// (used by multi-variable retrieval, §III-D.4); it must be sorted
/// ascending and duplicate-free — the engine intersects it with each
/// unit's monotone position stream by galloping, never by hashing.
///
/// `obs` records this rank's span/counter profile; the decompress and
/// reconstruct spans mirror the *identical* measured floats that land
/// in [`RankOutput`], so profiles reconcile exactly with
/// [`crate::QueryMetrics`]. Pass [`Collector::disabled`] to skip all
/// recording at the cost of one branch per call site.
///
/// Every extent read is verified against the file's checksum table in
/// the store's manifest ([`MlocStore::index_footer`],
/// [`MlocStore::data_footer`]), so no query reads a footer or a file
/// length. When `allow_degraded` is set, an unreadable or corrupt
/// *non-base* PLoD byte-group extent of a value-filterless unit is
/// worked around: the unit is reconstructed from the parts before the
/// loss (exact positions, values at reduced precision) and the loss is
/// recorded in [`RankOutput::degradation`]. Index headers, bitmaps,
/// base parts and value-filtered units always fail loudly — degrading
/// any of those could silently change *which* points match.
///
/// With `capture_refine` set (progressive queries only), every
/// refinable unit — PLoD data-bearing, values wanted, no value filter,
/// no position filter — additionally records a [`RefineUnit`] in
/// [`RankOutput::refine_units`]: its part extent locations and the
/// per-point (value rank, global position) mapping the
/// emission below established. Emitted positions and values are
/// identical with and without capture.
#[allow(clippy::too_many_arguments)] // rank-internal entry point, called from the executor only
pub fn process_units(
    store: &MlocStore<'_>,
    query: &Query,
    units: &[WorkUnit],
    io: &mut RankIo<'_>,
    position_filter: Option<&[u64]>,
    allow_degraded: bool,
    capture_refine: bool,
    obs: &mut Collector,
) -> Result<RankOutput> {
    let mut out = RankOutput::default();
    let config = store.config();
    let grid = store.grid();
    let order = store.order();
    let num_chunks = grid.num_chunks();
    let num_parts = config.num_parts();
    let n_parts = parts_used(config, query);
    let byte_codec = config.codec.byte_codec();
    let float_codec = config.codec.float_codec();
    let wants_values = query.wants_values();
    debug_assert!(
        position_filter.is_none_or(|f| f.windows(2).all(|w| w[0] < w[1])),
        "position filter must be sorted and duplicate-free"
    );
    // A membership query routes its sorted point set through the same
    // position-filter machinery as multi-variable retrieval, so every
    // execution mode inherits that path's correctness; an explicit
    // caller filter wins (multivar pre-intersects the point set
    // itself and keeps the streaming gallop route).
    let membership = position_filter.is_none() && query.points.is_some();
    let position_filter = position_filter.or(query.points.as_deref());

    let cache = store.cache().map(Arc::as_ref);
    let fuser = store.fuser().map(Arc::as_ref);
    let scope = store.cache_scope();
    let key = |bin: usize, chunk_rank: usize, part: BlockPart| BlockKey {
        scope: Arc::clone(scope),
        bin: bin as u32,
        chunk_rank: chunk_rank as u32,
        part,
    };

    // Per-rank scratch, reused across every chunk of every bin: the
    // coordinate decomposition buffer, the PLoD assembly target, and
    // the incremental position emitter.
    let mut coords = vec![0usize; grid.dims()];
    let mut scratch_values: Vec<f64> = Vec::new();
    let mut word_scratch: Vec<u32> = Vec::new();
    let mut range_scratch: Vec<(usize, usize)> = Vec::new();
    let mut emitter = ChunkEmitter::new(grid.shape());
    // Chunk-rank-keyed scatter targets for filterless units, emitted
    // in bulk after the group loop (BTreeMap ⇒ deterministic order).
    let mut scatter: std::collections::BTreeMap<usize, ChunkScatter> =
        std::collections::BTreeMap::new();
    let mut cache_rejected = 0u64;
    // Two-level-index accounting: chunks whose bitmap read the v2
    // summary made unnecessary (full chunks), chunks that still needed
    // their bitmap, and sampled-directory rank/select probes.
    let mut summary_hits = 0u64;
    let mut summary_skips = 0u64;
    let mut rank_calls = 0u64;
    // Allocation proxy: bytes materialized into fresh or scratch
    // buffers on this rank's hot path (decompress outputs + PLoD
    // assembly). Coalesced reads and cache inserts copy nothing.
    let mut copy_bytes = 0u64;

    let mut i = 0usize;
    while i < units.len() {
        let bin = units[i].bin;
        let mut j = i;
        while j < units.len() && units[j].bin == bin {
            j += 1;
        }
        let group = &units[i..j];
        i = j;

        obs.count_labeled("bin.units", Label::Index(bin as u32), group.len() as u64);
        let index_bytes_before = out.index_bytes;
        obs.begin("index-read");

        // Every extent read from the index file below (header,
        // summary, bitmaps) is verified against the manifest's table,
        // and none of them is degradable — a damaged index fails the
        // query loudly.
        let idx_file = store.index_file(bin);
        let idx_footer = store.index_footer(bin);

        // Index header + directory: one sequential read, cached whole.
        let hdr_len = header_size(num_chunks, num_parts);
        let hdr_key = key(bin, 0, BlockPart::IndexHeader);
        let cached_hdr = cache
            .and_then(|c| c.get(&hdr_key))
            .and_then(|b| b.as_bytes().cloned());
        let hdr: ByteView = match cached_hdr {
            Some(b) => {
                io.record_cached(&idx_file, 0, hdr_len);
                out.cache_hits += 1;
                out.bytes_saved += hdr_len;
                b
            }
            None => {
                if cache.is_some() {
                    out.cache_misses += 1;
                }
                let raw = ByteView::new(Arc::new(io.read(&idx_file, 0, hdr_len)?));
                idx_footer.verify(&idx_file, 0, &raw)?;
                out.index_bytes += hdr_len;
                if let Some(c) = cache {
                    if !c.insert(hdr_key, CachedBlock::Bytes(raw.clone())) {
                        cache_rejected += 1;
                    }
                }
                raw
            }
        };
        let index = BinIndex::decode_header(&hdr)?;

        // v2 chunk summaries: one extent right after the header, read
        // whenever the file carries one. The read is version-driven —
        // never cache- or plan-state-driven — so cold and warm runs of
        // the same query access identical extents, and the header →
        // summary → first-bitmap reads stay physically contiguous.
        let summaries: Option<Vec<ChunkSummary>> = if index.summary_bytes > 0 {
            let sum_key = key(bin, 0, BlockPart::Summary);
            let s_off = index.summary_file_offset();
            let s_len = index.summary_bytes;
            let cached = cache
                .and_then(|c| c.get(&sum_key))
                .and_then(|b| b.as_bytes().cloned());
            let raw: ByteView = match cached {
                Some(b) => {
                    io.record_cached(&idx_file, s_off, s_len);
                    out.cache_hits += 1;
                    out.bytes_saved += s_len;
                    b
                }
                None => {
                    if cache.is_some() {
                        out.cache_misses += 1;
                    }
                    let raw = ByteView::new(Arc::new(io.read(&idx_file, s_off, s_len)?));
                    idx_footer.verify(&idx_file, s_off, &raw)?;
                    out.index_bytes += s_len;
                    if let Some(c) = cache {
                        if !c.insert(sum_key, CachedBlock::Bytes(raw.clone())) {
                            cache_rejected += 1;
                        }
                    }
                    raw
                }
            };
            Some(decode_summary(&raw, index.chunks.len())?)
        } else {
            None
        };

        // Positional bitmaps for this rank's chunks. Cache hits are
        // recorded in the trace (zero cost); misses are coalesced into
        // as few physical reads as before, and every want becomes a
        // view into the merged extent — no per-bitmap copy.
        let mut bitmap_of: Vec<Option<ByteView>> = vec![None; group.len()];
        let mut full_of: Vec<bool> = vec![false; group.len()];
        let mut bitmap_wants: Vec<(u64, u32)> = Vec::new();
        let mut bitmap_slot: Vec<usize> = Vec::new(); // unit idx in group
        for (gi, u) in group.iter().enumerate() {
            let blen = index.chunks[u.chunk_rank].bitmap_len;
            if blen == 0 {
                continue;
            }
            // Summary classification (v2): a full chunk's bitmap is
            // all ones, so it is synthesized at reconstruction instead
            // of read; partial chunks still fetch their bitmap.
            if let Some(sums) = &summaries {
                if sums[u.chunk_rank].all_of_chunk {
                    full_of[gi] = true;
                    summary_skips += 1;
                    continue;
                }
                summary_hits += 1;
            }
            let off = index.bitmap_file_offset(u.chunk_rank);
            if let Some(c) = cache {
                if let Some(CachedBlock::Bytes(b)) =
                    c.get(&key(bin, u.chunk_rank, BlockPart::Bitmap))
                {
                    io.record_cached(&idx_file, off, u64::from(blen));
                    out.cache_hits += 1;
                    out.bytes_saved += u64::from(blen);
                    bitmap_of[gi] = Some(b);
                    continue;
                }
                out.cache_misses += 1;
            }
            bitmap_wants.push((off, blen));
            bitmap_slot.push(gi);
        }
        let mut bitmap_views: Vec<ByteView> = Vec::with_capacity(bitmap_wants.len());
        for (k_i, w) in
            coalesced_read_results(io, &idx_file, &bitmap_wants, Some(idx_footer), fuser)
                .into_iter()
                .enumerate()
        {
            let view = w.res?;
            if w.fused {
                out.fused_reads += 1;
                out.fused_bytes += u64::from(bitmap_wants[k_i].1);
            } else {
                out.index_bytes += u64::from(bitmap_wants[k_i].1);
            }
            bitmap_views.push(view);
        }
        for (k_i, view) in bitmap_views.into_iter().enumerate() {
            let gi = bitmap_slot[k_i];
            if let Some(c) = cache {
                if !c.insert(
                    key(bin, group[gi].chunk_rank, BlockPart::Bitmap),
                    CachedBlock::Bytes(view.clone()),
                ) {
                    cache_rejected += 1;
                }
            }
            bitmap_of[gi] = Some(view);
        }
        obs.end(); // index-read
        obs.count_labeled(
            "bin.index.bytes",
            Label::Index(bin as u32),
            out.index_bytes - index_bytes_before,
        );

        // Data units (only for units that need data). Cached at part
        // granularity: a PLoD level-k query reuses parts 0..k of any
        // earlier query over the same chunk, whatever its level.
        obs.begin("data-read");
        let data_file = store.data_file(bin);
        let data_bytes_before = out.data_bytes;
        let dat_footer = store.data_footer(bin);
        let mut parts_of: Vec<Vec<Option<ByteView>>> = vec![Vec::new(); group.len()];
        let mut floats_of: Vec<Option<Arc<Vec<f64>>>> = vec![None; group.len()];
        let mut data_wants: Vec<(u64, u32)> = Vec::new();
        let mut data_slot: Vec<(usize, usize)> = Vec::new(); // (unit idx, part)
        for (gi, u) in group.iter().enumerate() {
            if !u.needs_data || index.chunks[u.chunk_rank].count == 0 {
                continue;
            }
            if config.plod {
                parts_of[gi] = vec![None; n_parts];
            }
            #[allow(clippy::needless_range_loop)] // `p` indexes two arrays
            for p in 0..n_parts {
                let loc = index.chunks[u.chunk_rank].units[p];
                if let Some(c) = cache {
                    let part = if config.plod {
                        BlockPart::PlodPart(p as u8)
                    } else {
                        BlockPart::Floats
                    };
                    match c.get(&key(bin, u.chunk_rank, part)) {
                        Some(CachedBlock::Bytes(b)) if config.plod => {
                            io.record_cached(&data_file, loc.offset, u64::from(loc.clen));
                            out.cache_hits += 1;
                            out.bytes_saved += u64::from(loc.clen);
                            parts_of[gi][p] = Some(b);
                            continue;
                        }
                        Some(CachedBlock::Floats(f)) if !config.plod => {
                            io.record_cached(&data_file, loc.offset, u64::from(loc.clen));
                            out.cache_hits += 1;
                            out.bytes_saved += u64::from(loc.clen);
                            floats_of[gi] = Some(f);
                            continue;
                        }
                        _ => out.cache_misses += 1,
                    }
                }
                data_wants.push((loc.offset, loc.clen));
                data_slot.push((gi, p));
            }
        }
        let data_results =
            coalesced_read_results(io, &data_file, &data_wants, Some(dat_footer), fuser);

        // Sort the per-want outcomes: successes keep their views; a
        // failed want is fatal unless it is degradable — a non-base
        // PLoD part of a unit with no value filter (degrading a
        // filtered unit could silently change which points match).
        // Track the lowest lost part per unit; everything from it on
        // is dropped at reconstruction.
        let mut eff_parts: Vec<usize> = vec![n_parts; group.len()];
        let mut lost_reason: Vec<Option<String>> = vec![None; group.len()];
        let mut data_views: Vec<Option<ByteView>> = Vec::with_capacity(data_results.len());
        for (k_i, res) in data_results.into_iter().enumerate() {
            let (gi, p) = data_slot[k_i];
            let was_fused = res.fused;
            match res.res {
                Ok(view) => {
                    if was_fused {
                        out.fused_reads += 1;
                        out.fused_bytes += u64::from(data_wants[k_i].1);
                    } else {
                        out.data_bytes += u64::from(data_wants[k_i].1);
                    }
                    data_views.push(Some(view));
                }
                Err(e) => {
                    let degradable =
                        allow_degraded && config.plod && p > 0 && !group[gi].value_filter;
                    if !degradable {
                        return Err(e);
                    }
                    if p < eff_parts[gi] {
                        eff_parts[gi] = p;
                        lost_reason[gi] = Some(e.to_string());
                    }
                    data_views.push(None);
                }
            }
        }
        for (gi, reason) in lost_reason.into_iter().enumerate() {
            if let Some(reason) = reason {
                out.degradation.events.push(DegradationEvent {
                    bin,
                    chunk_rank: group[gi].chunk_rank,
                    lost_part: eff_parts[gi],
                    points: u64::from(index.chunks[group[gi].chunk_rank].count),
                    reason,
                });
            }
        }
        let group_data_bytes = out.data_bytes - data_bytes_before;
        obs.end(); // data-read
        obs.count_labeled("bin.data.bytes", Label::Index(bin as u32), group_data_bytes);
        obs.count_labeled(
            "decompress.units",
            Label::Name(config.codec.name()),
            data_views.iter().flatten().count() as u64,
        );

        // Decompress the fetched units (timed); cache hits above skip
        // this entirely, which is where warm-session time goes to ~0.
        let t = Instant::now();
        for (k_i, buf) in data_views.iter().enumerate() {
            let Some(buf) = buf else { continue };
            let (gi, p) = data_slot[k_i];
            let count = index.chunks[group[gi].chunk_rank].count as usize;
            if config.plod {
                let decomp = byte_codec.decompress(buf)?;
                if decomp.len() != count * plod::PART_BYTES[p] {
                    return Err(MlocError::Corrupt("unit length mismatch"));
                }
                copy_bytes += decomp.len() as u64;
                let view = ByteView::from(decomp);
                if let Some(c) = cache {
                    if !c.insert(
                        key(bin, group[gi].chunk_rank, BlockPart::PlodPart(p as u8)),
                        CachedBlock::Bytes(view.clone()),
                    ) {
                        cache_rejected += 1;
                    }
                }
                parts_of[gi][p] = Some(view);
            } else {
                let decomp = float_codec.decompress_f64(buf)?;
                if decomp.len() != count {
                    return Err(MlocError::Corrupt("unit length mismatch"));
                }
                copy_bytes += (decomp.len() * std::mem::size_of::<f64>()) as u64;
                let a = Arc::new(decomp);
                if let Some(c) = cache {
                    if !c.insert(
                        key(bin, group[gi].chunk_rank, BlockPart::Floats),
                        CachedBlock::Floats(Arc::clone(&a)),
                    ) {
                        cache_rejected += 1;
                    }
                }
                floats_of[gi] = Some(a);
            }
        }
        // The profile span gets the same float as the metric, so the
        // two reports reconcile exactly, not just "within noise".
        let decompress_dt = t.elapsed().as_secs_f64();
        out.decompress_s += decompress_dt;
        obs.record("decompress", decompress_dt);

        // Reconstruct: decode bitmaps, assemble values, filter, map to
        // global positions (timed).
        let t = Instant::now();
        // Upper bound on results this group can add: every set bit of
        // every unit. Reserving once keeps the emit loop free of
        // doubling reallocations (filters only shrink the bound).
        let expected: usize = group
            .iter()
            .map(|u| index.chunks[u.chunk_rank].count as usize)
            .sum();
        out.positions.reserve(expected);
        if wants_values {
            out.values.reserve(expected);
        }
        for (gi, u) in group.iter().enumerate() {
            let entry = &index.chunks[u.chunk_rank];
            if entry.count == 0 {
                continue;
            }
            let chunk_id = order.cell_at(u.chunk_rank);
            grid.chunk_ranges_into(chunk_id, &mut range_scratch);
            let ranges: &[(usize, usize)] = &range_scratch;
            let chunk_points: u64 = ranges.iter().map(|&(s, e)| (e - s) as u64).product();
            // Bytes past the self-delimiting WAH stream are the chunk's
            // rank/select directory (empty in v1 files).
            let mut dir_bytes: &[u8] = &[];
            let ones_holder;
            let bitmap: WahRef<'_> = if full_of[gi] {
                // The summary said "all of chunk", so the bitmap was
                // never read; synthesize the all-ones bitmap. The
                // invariant check below still cross-checks the flag
                // against the directory's count.
                ones_holder = WahBitmap::ones(chunk_points);
                ones_holder.as_ref()
            } else {
                let bm_bytes: &[u8] = bitmap_of[gi].as_ref().map(|b| b.as_slice()).unwrap_or(&[]);
                let (bm, used) = WahRef::decode_into(bm_bytes, &mut word_scratch)?;
                dir_bytes = &bm_bytes[used..];
                bm
            };
            // A corrupted bitmap must not index past the decoded
            // values or outside the chunk.
            if bitmap.len() != chunk_points || bitmap.count_ones() != u64::from(entry.count) {
                return Err(MlocError::Corrupt("index bitmap inconsistent"));
            }

            // Reconstructed values for this chunk: assembled into the
            // reusable scratch (PLoD), or borrowed from the shared
            // float block (borrowed, not taken — the block must not be
            // freed inside the timed reconstruct loop). The invariant
            // "output wants values ⇒ the unit carries them" is checked
            // once per unit, not per point.
            let vals: Option<&[f64]> = if u.needs_data {
                if config.plod {
                    // A degraded unit assembles only the parts before
                    // its first lost extent — same positions, coarser
                    // values, loss already recorded above.
                    let eff = eff_parts[gi];
                    let level = if eff == n_parts {
                        query.plod
                    } else {
                        PlodLevel::new(eff as u8)
                            .map_err(|_| MlocError::Corrupt("degraded below base precision"))?
                    };
                    let mut refs: [&[u8]; NUM_PARTS] = [&[]; NUM_PARTS];
                    for (p, part) in parts_of[gi].iter().enumerate().take(eff) {
                        refs[p] = part
                            .as_ref()
                            .ok_or(MlocError::Corrupt("missing PLoD part"))?
                            .as_slice();
                    }
                    plod::assemble_into(&refs[..eff], level, &mut scratch_values);
                    copy_bytes += (scratch_values.len() * std::mem::size_of::<f64>()) as u64;
                    Some(&scratch_values)
                } else {
                    Some(
                        floats_of[gi]
                            .as_deref()
                            .map(Vec::as_slice)
                            .ok_or(MlocError::Corrupt("missing value block"))?,
                    )
                }
            } else {
                None
            };
            let out_vals: Option<&[f64]> = if wants_values {
                match vals {
                    Some(v) => Some(v),
                    None => return Err(MlocError::Corrupt("value block required but absent")),
                }
            } else {
                None
            };
            let mut gallop = position_filter.map(Gallop::new);

            // Membership probe path: a point-set query answers only a
            // handful of probes per chunk, so instead of streaming the
            // whole bitmap it rank/selects straight into it through
            // the sampled directory (a bounded word walk for v1 files
            // with no directory). The general path stays available as
            // the differential oracle.
            if membership && !use_general_path() && !u.spatial_filter {
                let filter = position_filter.unwrap_or(&[]);
                let (dir, _) = RankSelectDir::from_bytes(dir_bytes)
                    .map_err(|_| MlocError::Corrupt("bad rank/select directory"))?;
                let sum = summaries.as_ref().map(|s| s[u.chunk_rank]);
                // Points that can fall in this chunk lie between the
                // chunk corners' global linear positions.
                for (d, r) in ranges.iter().enumerate() {
                    coords[d] = r.0;
                }
                let g_lo = grid.linearize(&coords);
                for (d, r) in ranges.iter().enumerate() {
                    coords[d] = r.1 - 1;
                }
                let g_hi = grid.linearize(&coords);
                let lo_i = filter.partition_point(|&p| p < g_lo);
                let hi_i = filter.partition_point(|&p| p <= g_hi);
                let (vc_lo, vc_hi) = query.vc.unwrap_or((f64::MIN, f64::MAX));
                let shape = grid.shape();
                'probe: for &p in &filter[lo_i..hi_i] {
                    // Global position → coordinates → chunk-local
                    // offset. The corner window is a superset of the
                    // chunk's box, so out-of-box points still occur.
                    let mut rem = p;
                    for d in (0..shape.len()).rev() {
                        coords[d] = (rem % shape[d] as u64) as usize;
                        rem /= shape[d] as u64;
                    }
                    let mut local = 0u64;
                    for (d, r) in ranges.iter().enumerate() {
                        let c = coords[d];
                        if c < r.0 || c >= r.1 {
                            continue 'probe;
                        }
                        local = local * (r.1 - r.0) as u64 + (c - r.0) as u64;
                    }
                    // Level-1 cull: the summary bounds the set span.
                    if let Some(s) = sum {
                        if local < u64::from(s.min_pos) || local > u64::from(s.max_pos) {
                            continue;
                        }
                    }
                    let (vi, present) = if full_of[gi] {
                        (local, true)
                    } else {
                        rank_calls += 1;
                        bitmap.rank_bit_with(&dir, local)
                    };
                    if !present {
                        continue;
                    }
                    let vi = vi as usize;
                    if u.value_filter {
                        let v = vals.ok_or(MlocError::Corrupt("value filter without values"))?[vi];
                        if !(v >= vc_lo && v < vc_hi) {
                            continue;
                        }
                    }
                    out.positions.push(p);
                    if let Some(v) = out_vals {
                        out.values.push(v[vi]);
                    }
                }
                continue;
            }

            // Progressive capture path: emit this unit directly — the
            // deferred scatter cannot attribute a point to a unit, and
            // refinement needs the per-unit (value rank, position)
            // mapping — recording that mapping as it goes. The final
            // QueryResult sorts by position, so bypassing the scatter
            // never changes observable output.
            if capture_refine
                && config.plod
                && wants_values
                && u.needs_data
                && !u.value_filter
                && gallop.is_none()
                && !membership
            {
                let v = match out_vals {
                    Some(v) => v,
                    None => return Err(MlocError::Corrupt("capture requires values")),
                };
                let mut ru = RefineUnit {
                    bin,
                    chunk_rank: u.chunk_rank,
                    count: entry.count,
                    part_locs: index.chunks[u.chunk_rank].units.clone(),
                    val_idx: Vec::new(),
                    positions: Vec::new(),
                };
                let sc_ranges: Option<&[(usize, usize)]> = if u.spatial_filter {
                    query.sc.as_ref().map(|r| r.ranges())
                } else {
                    None
                };
                let positions = &mut out.positions;
                let values = &mut out.values;
                let val_idx = &mut ru.val_idx;
                let cap_pos = &mut ru.positions;
                emitter.set_chunk(ranges);
                let mut sc_row = u64::MAX;
                let mut sc_row_ok = false;
                bitmap.for_each_one_run(|gap, ones_before, len| {
                    emitter.advance(gap);
                    emitter.walk_run(len, ones_before, |c, mut g0, mut vi, mut take| {
                        if let Some(sc) = sc_ranges {
                            let last = c.len() - 1;
                            let row_base = g0 - c[last];
                            if row_base != sc_row {
                                sc_row = row_base;
                                sc_row_ok = (0..last).all(|d| {
                                    let gc = ranges[d].0 + c[d] as usize;
                                    gc >= sc[d].0 && gc < sc[d].1
                                });
                            }
                            if !sc_row_ok {
                                return;
                            }
                            let col0 = ranges[last].0 as u64 + c[last];
                            let lo = (sc[last].0 as u64).max(col0);
                            let hi = (sc[last].1 as u64).min(col0 + take);
                            if lo >= hi {
                                return;
                            }
                            g0 += lo - col0;
                            vi += (lo - col0) as usize;
                            take = hi - lo;
                        }
                        positions.extend(g0..g0 + take);
                        values.extend_from_slice(&v[vi..vi + take as usize]);
                        val_idx.extend(vi as u32..(vi + take as usize) as u32);
                        cap_pos.extend(g0..g0 + take);
                    });
                });
                out.refine_units.push(ru);
                continue;
            }

            if !use_general_path() && gallop.is_none() {
                // Defer this unit to the per-chunk scatter: survivors
                // are marked in a chunk-local coverage mask (values
                // stored chunk-locally) with pure local arithmetic —
                // no row-major cursor per set bit — and one bulk
                // emission per chunk maps them to global positions
                // after the group loop. Value filters reject points
                // here (one compare per set bit); spatial clamping
                // happens once per row at emission.
                let e = scatter.entry(u.chunk_rank).or_insert_with(|| {
                    let (mut block, mut mask) = SCATTER_POOL
                        .with(|p| p.borrow_mut().pop())
                        .unwrap_or_default();
                    debug_assert!(block.iter().all(|&x| x == 0.0));
                    debug_assert!(mask.iter().all(|&w| w == 0));
                    if wants_values {
                        block.resize(chunk_points as usize, 0.0);
                    }
                    mask.resize((chunk_points as usize).div_ceil(64), 0);
                    ChunkScatter {
                        block,
                        mask,
                        spatial: u.spatial_filter,
                    }
                });
                let mut local = 0u64;
                if u.value_filter {
                    let vf = match vals {
                        Some(v) => v,
                        None => return Err(MlocError::Corrupt("value filter without values")),
                    };
                    let (vc_lo, vc_hi) = query.vc.unwrap_or((f64::MIN, f64::MAX));
                    if wants_values {
                        bitmap.for_each_one_run(|gap, ones_before, len| {
                            local += gap;
                            for k in 0..len {
                                let v = vf[(ones_before + k) as usize];
                                if v >= vc_lo && v < vc_hi {
                                    let li = local + k;
                                    e.block[li as usize] = v;
                                    e.mask[(li / 64) as usize] |= 1u64 << (li % 64);
                                }
                            }
                            local += len;
                        });
                    } else {
                        bitmap.for_each_one_run(|gap, ones_before, len| {
                            local += gap;
                            for k in 0..len {
                                let v = vf[(ones_before + k) as usize];
                                if v >= vc_lo && v < vc_hi {
                                    let li = local + k;
                                    e.mask[(li / 64) as usize] |= 1u64 << (li % 64);
                                }
                            }
                            local += len;
                        });
                    }
                } else if let Some(v) = out_vals {
                    bitmap.for_each_one_run(|gap, ones_before, len| {
                        local += gap;
                        if len == 1 {
                            e.block[local as usize] = v[ones_before as usize];
                        } else {
                            e.block[local as usize..(local + len) as usize].copy_from_slice(
                                &v[ones_before as usize..(ones_before + len) as usize],
                            );
                        }
                        set_bits(&mut e.mask, local, len);
                        local += len;
                    });
                } else {
                    bitmap.for_each_one_run(|gap, _, len| {
                        local += gap;
                        set_bits(&mut e.mask, local, len);
                        local += len;
                    });
                }
                continue;
            }
            if use_general_path() {
                // General path: per-point value/spatial checks. Kept
                // close to the pre-optimization loop so the fast path
                // can be differentially tested against it.
                let (vc_lo, vc_hi) = query.vc.unwrap_or((f64::MIN, f64::MAX));
                for (pos_idx, local) in bitmap.iter_ones().enumerate() {
                    if u.value_filter {
                        let v =
                            vals.ok_or(MlocError::Corrupt("value filter without values"))?[pos_idx];
                        if !(v >= vc_lo && v < vc_hi) {
                            continue;
                        }
                    }
                    local_to_coords_into(ranges, local, &mut coords);
                    if u.spatial_filter {
                        if let Some(region) = &query.sc {
                            if !region.contains(&coords) {
                                continue;
                            }
                        }
                    }
                    let global = grid.linearize(&coords);
                    if let Some(filter) = gallop.as_mut() {
                        if !filter.contains(global) {
                            continue;
                        }
                    }
                    out.positions.push(global);
                    if let Some(v) = out_vals {
                        out.values.push(v[pos_idx]);
                    }
                }
            } else if let Some(filter) = gallop.as_mut() {
                // Position-filtered (multi-variable) path: walk each
                // run of set bits as contiguous row segments with
                // incremental row-major arithmetic, gallop the sorted
                // filter over each segment, and apply the value/spatial
                // constraints to the survivors.
                let vf_vals: Option<&[f64]> = if u.value_filter {
                    match vals {
                        Some(v) => Some(v),
                        None => return Err(MlocError::Corrupt("value filter without values")),
                    }
                } else {
                    None
                };
                let (vc_lo, vc_hi) = query.vc.unwrap_or((f64::MIN, f64::MAX));
                let sc_ranges: Option<&[(usize, usize)]> = if u.spatial_filter {
                    query.sc.as_ref().map(|r| r.ranges())
                } else {
                    None
                };
                let positions = &mut out.positions;
                let values = &mut out.values;
                emitter.set_chunk(ranges);
                // Outer-dimension spatial verdicts only change when
                // the row changes; cache the last row's answer keyed
                // by its global row base (`g0 - c[last]`).
                let mut sc_row = u64::MAX;
                let mut sc_row_ok = false;
                bitmap.for_each_one_run(|gap, ones_before, len| {
                    emitter.advance(gap);
                    emitter.walk_run(len, ones_before, |c, mut g0, mut vi, mut take| {
                        if let Some(sc) = sc_ranges {
                            let last = c.len() - 1;
                            let row_base = g0 - c[last];
                            if row_base != sc_row {
                                sc_row = row_base;
                                sc_row_ok = (0..last).all(|d| {
                                    let gc = ranges[d].0 + c[d] as usize;
                                    gc >= sc[d].0 && gc < sc[d].1
                                });
                            }
                            if !sc_row_ok {
                                return;
                            }
                            // Clamp the innermost extent.
                            let col0 = ranges[last].0 as u64 + c[last];
                            let lo = (sc[last].0 as u64).max(col0);
                            let hi = (sc[last].1 as u64).min(col0 + take);
                            if lo >= hi {
                                return;
                            }
                            g0 += lo - col0;
                            vi += (lo - col0) as usize;
                            take = hi - lo;
                        }
                        for &p in filter.range(g0, g0 + take) {
                            let k = (p - g0) as usize;
                            if let Some(vf) = vf_vals {
                                let v = vf[vi + k];
                                if !(v >= vc_lo && v < vc_hi) {
                                    continue;
                                }
                            }
                            positions.push(p);
                            if let Some(v) = out_vals {
                                values.push(v[vi + k]);
                            }
                        }
                    });
                });
            } else {
                debug_assert!(false, "unfiltered units take the scatter path");
            }
        }
        let reconstruct_dt = t.elapsed().as_secs_f64();
        out.reconstruct_s += reconstruct_dt;
        obs.record("reconstruct", reconstruct_dt);
    }
    // Bulk emission of the deferred chunks: walk each coverage mask
    // word-by-word and emit covered runs as whole row segments.
    // Chunk-rank order is deterministic; the final QueryResult sorts
    // by position anyway, so deferral never changes observable output.
    if !scatter.is_empty() {
        let t = Instant::now();
        let sc_query: Option<&[(usize, usize)]> = query.sc.as_ref().map(|r| r.ranges());
        for (chunk_rank, mut e) in std::mem::take(&mut scatter) {
            let chunk_id = order.cell_at(chunk_rank);
            grid.chunk_ranges_into(chunk_id, &mut range_scratch);
            let ranges: &[(usize, usize)] = &range_scratch;
            emitter.set_chunk(ranges);
            let sc_ranges = if e.spatial { sc_query } else { None };
            let positions = &mut out.positions;
            let values = &mut out.values;
            let mut sc_row = u64::MAX;
            let mut sc_row_ok = false;
            let mut cursor = 0u64;
            for wi in 0..e.mask.len() {
                let word = e.mask[wi];
                if word == 0 {
                    continue;
                }
                e.mask[wi] = 0;
                let base = wi as u64 * 64;
                let mut off = 0u64;
                let mut m = word;
                while m != 0 {
                    let z = u64::from(m.trailing_zeros());
                    let shifted = m >> z;
                    let o = u64::from((!shifted).trailing_zeros());
                    let start = base + off + z;
                    emitter.advance(start - cursor);
                    let block = &e.block;
                    emitter.walk_run(o, start, |c, mut g0, mut vi, mut take| {
                        if let Some(scr) = sc_ranges {
                            let last = c.len() - 1;
                            let row_base = g0 - c[last];
                            if row_base != sc_row {
                                sc_row = row_base;
                                sc_row_ok = (0..last).all(|d| {
                                    let gc = ranges[d].0 + c[d] as usize;
                                    gc >= scr[d].0 && gc < scr[d].1
                                });
                            }
                            if !sc_row_ok {
                                return;
                            }
                            let col0 = ranges[last].0 as u64 + c[last];
                            let lo = (scr[last].0 as u64).max(col0);
                            let hi = (scr[last].1 as u64).min(col0 + take);
                            if lo >= hi {
                                return;
                            }
                            g0 += lo - col0;
                            vi += (lo - col0) as usize;
                            take = hi - lo;
                        }
                        positions.extend(g0..g0 + take);
                        if wants_values {
                            values.extend_from_slice(&block[vi..vi + take as usize]);
                        }
                    });
                    // Restore the pool's all-zero invariant for exactly
                    // the range this run covered (cache-hot: emission
                    // just read it).
                    if wants_values {
                        e.block[start as usize..(start + o) as usize].fill(0.0);
                    }
                    cursor = start + o;
                    off += z + o;
                    m = if off >= 64 { 0 } else { shifted >> o };
                }
            }
            SCATTER_POOL.with(|p| {
                let mut p = p.borrow_mut();
                if p.len() < SCATTER_POOL_CAP {
                    p.push((e.block, e.mask));
                }
            });
        }
        let emit_dt = t.elapsed().as_secs_f64();
        out.reconstruct_s += emit_dt;
        obs.record("reconstruct", emit_dt);
    }
    obs.count("index.summary_hits", summary_hits);
    obs.count("index.summary_skips", summary_skips);
    obs.count("index.rank_calls", rank_calls);
    obs.count("cache.hits", out.cache_hits);
    obs.count("cache.misses", out.cache_misses);
    obs.count("cache.bytes_saved", out.bytes_saved);
    obs.count("cache.rejected_inserts", cache_rejected);
    obs.count("hotpath.copy_bytes", copy_bytes);
    if out.fused_reads > 0 {
        obs.count("fusion.fused_reads", out.fused_reads);
        obs.count("fusion.bytes_saved", out.fused_bytes);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_to_coords_matches_grid() {
        use crate::array::ChunkGrid;
        let grid = ChunkGrid::new(vec![10, 7], vec![4, 3]);
        let mut scratch = vec![0usize; 2];
        for chunk in 0..grid.num_chunks() {
            let ranges = grid.chunk_region(chunk).ranges().to_vec();
            for local in 0..grid.chunk_points(chunk) {
                local_to_coords_into(&ranges, local as u64, &mut scratch);
                assert_eq!(scratch, grid.local_to_coords(chunk, local));
            }
        }
    }

    #[test]
    fn chunk_emitter_matches_per_point_mapping() {
        use crate::array::ChunkGrid;
        for (shape, chunk_shape) in [
            (vec![10usize, 7], vec![4usize, 3]),
            (vec![16], vec![5]),
            (vec![6, 5, 4], vec![4, 2, 3]),
        ] {
            let grid = ChunkGrid::new(shape.clone(), chunk_shape);
            let mut emitter = ChunkEmitter::new(grid.shape());
            let mut coords = vec![0usize; grid.dims()];
            for chunk in 0..grid.num_chunks() {
                let region = grid.chunk_region(chunk);
                emitter.set_chunk(region.ranges());
                let points = grid.chunk_points(chunk) as u64;
                // Every (start, len) run inside the chunk.
                for start in 0..points {
                    for len in 1..=(points - start).min(9) {
                        let mut got = Vec::new();
                        emitter.set_chunk(region.ranges());
                        emitter.advance(start);
                        emitter.walk_run(len, 0, |_, g0, _, take| {
                            got.extend(g0..g0 + take);
                        });
                        let want: Vec<u64> = (start..start + len)
                            .map(|l| {
                                local_to_coords_into(region.ranges(), l, &mut coords);
                                grid.linearize(&coords)
                            })
                            .collect();
                        assert_eq!(
                            got, want,
                            "shape {shape:?} chunk {chunk} run ({start},{len})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_emitter_copies_values_and_filters() {
        use crate::array::ChunkGrid;
        let grid = ChunkGrid::new(vec![8, 8], vec![4, 4]);
        let mut emitter = ChunkEmitter::new(grid.shape());
        let region = grid.chunk_region(3); // rows 4..8, cols 4..8
        emitter.set_chunk(region.ranges());
        let vals: Vec<f64> = (0..16).map(|i| i as f64 * 10.0).collect();
        // Run covering the whole chunk, filtered to three positions.
        let all: Vec<u64> = {
            let mut p = Vec::new();
            emitter.walk_run(16, 0, |_, g0, _, take| p.extend(g0..g0 + take));
            p
        };
        let filter = vec![all[1], all[7], all[14]];
        let mut gallop = Gallop::new(&filter);
        let mut positions = Vec::new();
        let mut values = Vec::new();
        emitter.set_chunk(region.ranges());
        emitter.walk_run(16, 0, |_, g0, vi, take| {
            for &e in gallop.range(g0, g0 + take) {
                positions.push(e);
                values.push(vals[vi + (e - g0) as usize]);
            }
        });
        assert_eq!(positions, filter);
        assert_eq!(values, vec![10.0, 70.0, 140.0]);
    }

    #[test]
    fn gallop_matches_linear_intersection() {
        let sorted: Vec<u64> = (0..1000u64).filter(|x| x % 7 == 0).collect();
        let mut g = Gallop::new(&sorted);
        for x in 0..1000u64 {
            // Monotone probes only.
            if x % 3 != 0 {
                continue;
            }
            assert_eq!(g.contains(x), x % 7 == 0, "x={x}");
        }
        let mut g = Gallop::new(&sorted);
        assert_eq!(g.range(10, 30), &[14, 21, 28]);
        assert_eq!(g.range(30, 36), &[35]);
        assert_eq!(g.range(990, 2000), &[994]);
        assert!(g.range(2000, 3000).is_empty());
    }
}
