//! Per-bin index files: chunk directory, positional bitmaps, and the
//! compressed-unit locator.
//!
//! Each bin has one index file next to its data file (Figure 4). The
//! index holds, per chunk (in curve-rank order):
//!
//! * the number of the bin's points inside that chunk,
//! * the chunk-local *positions* of those points as a WAH bitmap — the
//!   "light-weight index" that lets region queries answer aligned bins
//!   without touching data, and
//! * the data-file location of each compressed unit (one per PLoD byte
//!   group, or a single unit when PLoD is off).
//!
//! The header + directory is fixed-size given the chunk count, so a
//! query reads it with a single sequential read and then fetches only
//! the bitmaps/units of the chunks it needs.
//!
//! # Format v2: the two-level succinct index
//!
//! Version 2 keeps the header + directory byte layout of v1 (only the
//! version byte differs, so the engine's exact-size first read works
//! for both) and adds two levels on top of the flat WAH bitmaps:
//!
//! * a **chunk-summary section** — its own checksummed extent between
//!   the header and the bitmaps — holding per-chunk
//!   `(min_pos, max_pos, all_of_chunk)` so a query classifies chunks
//!   as full / empty / partial in O(1) and skips the bitmap read
//!   entirely for full and empty chunks, and
//! * a **rank/select directory** ([`mloc_bitmap::RankSelectDir`])
//!   appended to each encoded bitmap (`bitmap_len` covers both; WAH is
//!   self-delimiting, the remainder is the directory), giving
//!   membership probes O(log samples + S) rank/select instead of a
//!   linear word walk.
//!
//! v1 files (no summary, no directories) remain fully readable.

use crate::integrity::ExtentFooter;
use crate::store::{decode_meta_payload, encode_meta_file};
use crate::wire::{Reader, Writer};
use crate::{MlocError, Result};
use mloc_bitmap::{RankSelectDir, WahBitmap};
use mloc_pfs::StorageBackend;
use std::sync::Arc;

const MAGIC: u32 = 0x5844_494D; // "MIDX"
/// Current index format version (v2 = summary section + rank/select
/// directories). v1 files are still readable.
pub const VERSION: u8 = 2;
const SUMMARY_MAGIC: u32 = 0x4D55_534D; // "MSUM"

/// Location of one compressed unit in the bin's data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitLoc {
    /// Byte offset within the data file.
    pub offset: u64,
    /// Compressed length in bytes (0 = empty unit).
    pub clen: u32,
}

/// Directory entry of one chunk within one bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Number of the bin's points inside this chunk.
    pub count: u32,
    /// Byte offset of the positional bitmap in the bitmap section.
    pub bitmap_off: u64,
    /// Encoded bitmap length (0 when the chunk has no points here).
    pub bitmap_len: u32,
    /// Per-part unit locations.
    pub units: Vec<UnitLoc>,
}

/// Coarse per-chunk classification record of the v2 summary section.
///
/// Together with [`ChunkEntry::count`] this classifies a chunk without
/// touching its bitmap: `count == 0` → empty, `all_of_chunk` → every
/// position belongs to this bin (the bitmap is all ones), otherwise
/// partial with set positions confined to `[min_pos, max_pos]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Smallest chunk-local set position (`u32::MAX` when empty).
    pub min_pos: u32,
    /// Largest chunk-local set position (0 when empty).
    pub max_pos: u32,
    /// True when every position of the chunk belongs to this bin.
    pub all_of_chunk: bool,
}

impl ChunkSummary {
    /// The sentinel written for chunks with no points in this bin.
    pub const EMPTY: ChunkSummary = ChunkSummary {
        min_pos: u32::MAX,
        max_pos: 0,
        all_of_chunk: false,
    };
}

/// The parsed header + directory of a bin index file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinIndex {
    /// Format version of the file this header came from (1 or 2).
    pub version: u8,
    /// Bin id.
    pub bin: u32,
    /// Directory entries indexed by *curve rank*.
    pub chunks: Vec<ChunkEntry>,
    /// Number of PLoD parts per unit.
    pub num_parts: usize,
    /// Size of the header + directory region in bytes.
    pub header_bytes: u64,
    /// Size of the chunk-summary section that follows the header
    /// (0 for v1 files; bitmaps follow the summary).
    pub summary_bytes: u64,
}

/// Size in bytes of the serialized header + directory for a given
/// geometry — queries use this to issue an exact-size first read.
/// Identical for v1 and v2 (only the version byte differs).
pub fn header_size(num_chunks: usize, num_parts: usize) -> u64 {
    // magic(4) version(1) bin(4) num_chunks(4) num_parts(1)
    14 + num_chunks as u64 * entry_size(num_parts)
}

fn entry_size(num_parts: usize) -> u64 {
    // count(4) bitmap_off(8) bitmap_len(4) + parts * (offset(8) clen(4))
    16 + num_parts as u64 * 12
}

/// Exact size in bytes of the v2 chunk-summary section.
pub fn summary_size(num_chunks: usize) -> u64 {
    // magic(4) num_chunks(4) + per chunk: min_pos(4) max_pos(4) flags(1)
    8 + num_chunks as u64 * 9
}

/// Serialize the summary section.
pub fn encode_summary(summaries: &[ChunkSummary]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(SUMMARY_MAGIC);
    w.u32(summaries.len() as u32);
    for s in summaries {
        w.u32(s.min_pos);
        w.u32(s.max_pos);
        w.u8(u8::from(s.all_of_chunk));
    }
    debug_assert_eq!(w.len() as u64, summary_size(summaries.len()));
    w.finish()
}

/// Parse a summary section; `num_chunks` comes from the header and
/// must match the recorded count.
pub fn decode_summary(data: &[u8], num_chunks: usize) -> Result<Vec<ChunkSummary>> {
    let mut r = Reader::new(data);
    if r.u32()? != SUMMARY_MAGIC {
        return Err(MlocError::Corrupt("bad summary magic"));
    }
    if r.u32()? as usize != num_chunks {
        return Err(MlocError::Corrupt("summary chunk count mismatch"));
    }
    if summary_size(num_chunks) > data.len() as u64 {
        return Err(MlocError::Corrupt("summary truncated"));
    }
    let mut out = Vec::with_capacity(num_chunks);
    for _ in 0..num_chunks {
        let min_pos = r.u32()?;
        let max_pos = r.u32()?;
        let flags = r.u8()?;
        if flags > 1 {
            return Err(MlocError::Corrupt("bad summary flags"));
        }
        out.push(ChunkSummary {
            min_pos,
            max_pos,
            all_of_chunk: flags == 1,
        });
    }
    Ok(out)
}

impl BinIndex {
    /// Serialize header + directory (bitmap bytes are appended by the
    /// builder).
    pub fn encode_header(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(self.version);
        w.u32(self.bin);
        w.u32(self.chunks.len() as u32);
        w.u8(self.num_parts as u8);
        for e in &self.chunks {
            w.u32(e.count);
            w.u64(e.bitmap_off);
            w.u32(e.bitmap_len);
            debug_assert_eq!(e.units.len(), self.num_parts);
            for u in &e.units {
                w.u64(u.offset);
                w.u32(u.clen);
            }
        }
        debug_assert_eq!(
            w.len() as u64,
            header_size(self.chunks.len(), self.num_parts)
        );
        w.finish()
    }

    /// Parse a header + directory previously encoded with
    /// [`Self::encode_header`].
    pub fn decode_header(data: &[u8]) -> Result<BinIndex> {
        let mut r = Reader::new(data);
        if r.u32()? != MAGIC {
            return Err(MlocError::Corrupt("bad index magic"));
        }
        let version = r.u8()?;
        if version != 1 && version != VERSION {
            return Err(MlocError::Corrupt("unsupported index version"));
        }
        let bin = r.u32()?;
        let num_chunks = r.u32()? as usize;
        let num_parts = r.u8()? as usize;
        if num_parts == 0 || num_parts > 16 {
            return Err(MlocError::Corrupt("bad part count"));
        }
        // The directory must fit in the supplied buffer; reject a
        // corrupted chunk count before allocating for it.
        if header_size(num_chunks, num_parts) > data.len() as u64 {
            return Err(MlocError::Corrupt("header truncated"));
        }
        let mut chunks = Vec::with_capacity(num_chunks);
        for _ in 0..num_chunks {
            let count = r.u32()?;
            let bitmap_off = r.u64()?;
            let bitmap_len = r.u32()?;
            let mut units = Vec::with_capacity(num_parts);
            for _ in 0..num_parts {
                units.push(UnitLoc {
                    offset: r.u64()?,
                    clen: r.u32()?,
                });
            }
            chunks.push(ChunkEntry {
                count,
                bitmap_off,
                bitmap_len,
                units,
            });
        }
        Ok(BinIndex {
            version,
            bin,
            chunks,
            num_parts,
            header_bytes: header_size(num_chunks, num_parts),
            summary_bytes: if version >= 2 {
                summary_size(num_chunks)
            } else {
                0
            },
        })
    }

    /// Absolute file offset of the chunk-summary section (v2 only).
    pub fn summary_file_offset(&self) -> u64 {
        self.header_bytes
    }

    /// Absolute file offset of a chunk's bitmap (bitmaps follow the
    /// header + directory and, in v2, the summary section).
    pub fn bitmap_file_offset(&self, rank: usize) -> u64 {
        self.header_bytes + self.summary_bytes + self.chunks[rank].bitmap_off
    }

    /// Total points recorded in this bin.
    pub fn total_points(&self) -> u64 {
        self.chunks.iter().map(|e| u64::from(e.count)).sum()
    }
}

/// Incremental builder for one bin's index file contents (format v2).
#[derive(Debug)]
pub struct BinIndexBuilder {
    bin: u32,
    num_parts: usize,
    chunks: Vec<ChunkEntry>,
    summaries: Vec<ChunkSummary>,
    bitmaps: Vec<u8>,
    /// Encoded bitmap lengths in file (append) order — the logical
    /// extents of the bitmap section, for the checksum footer.
    bitmap_lens: Vec<u32>,
}

impl BinIndexBuilder {
    /// Start building for a bin over `num_chunks` chunks.
    pub fn new(bin: u32, num_chunks: usize, num_parts: usize) -> Self {
        let empty = ChunkEntry {
            count: 0,
            bitmap_off: 0,
            bitmap_len: 0,
            units: vec![UnitLoc::default(); num_parts],
        };
        BinIndexBuilder {
            bin,
            num_parts,
            chunks: vec![empty; num_chunks],
            summaries: vec![ChunkSummary::EMPTY; num_chunks],
            bitmaps: Vec::new(),
            bitmap_lens: Vec::new(),
        }
    }

    /// Record a chunk's positional bitmap and unit locations. The locs
    /// are copied into the entry's preallocated slots, so callers keep
    /// ownership and no per-chunk allocation happens here. The chunk's
    /// summary (min/max set position, all-of-chunk flag) and its
    /// rank/select directory are derived here in the same pass.
    ///
    /// # Panics
    /// Panics when called twice for the same rank or with a unit count
    /// mismatch.
    pub fn set_chunk(&mut self, rank: usize, bitmap: &WahBitmap, units: &[UnitLoc]) {
        assert_eq!(units.len(), self.num_parts, "unit count mismatch");
        let e = &mut self.chunks[rank];
        assert_eq!(e.count, 0, "chunk rank {rank} set twice");
        let encoded = bitmap.to_bytes();
        let dir_bytes = RankSelectDir::build(bitmap.as_ref()).to_bytes();
        let count = bitmap.count_ones();
        e.count = count as u32;
        e.bitmap_off = self.bitmaps.len() as u64;
        e.bitmap_len = (encoded.len() + dir_bytes.len()) as u32;
        e.units.copy_from_slice(units);
        self.bitmap_lens.push(e.bitmap_len);
        self.bitmaps.extend_from_slice(&encoded);
        self.bitmaps.extend_from_slice(&dir_bytes);
        if count > 0 {
            let mut min_pos = u32::MAX;
            let mut max_pos = 0u32;
            for (start, len, bit) in bitmap.iter_runs() {
                if bit {
                    if min_pos == u32::MAX {
                        min_pos = start as u32;
                    }
                    max_pos = (start + len - 1) as u32;
                }
            }
            self.summaries[rank] = ChunkSummary {
                min_pos,
                max_pos,
                all_of_chunk: count == bitmap.len(),
            };
        }
    }

    /// Finish: returns the full index file contents.
    pub fn finish(self) -> Vec<u8> {
        self.finish_with_extents().0
    }

    /// Finish, also returning the file's logical extent lengths in
    /// file order (header + summary + each encoded bitmap) for the
    /// checksum footer.
    pub fn finish_with_extents(self) -> (Vec<u8>, Vec<u32>) {
        let num_chunks = self.chunks.len();
        let index = BinIndex {
            version: VERSION,
            bin: self.bin,
            num_parts: self.num_parts,
            header_bytes: header_size(num_chunks, self.num_parts),
            summary_bytes: summary_size(num_chunks),
            chunks: self.chunks,
        };
        let mut out = index.encode_header();
        let summary = encode_summary(&self.summaries);
        let mut extents = Vec::with_capacity(2 + self.bitmap_lens.len());
        extents.push(out.len() as u32);
        extents.push(summary.len() as u32);
        extents.extend_from_slice(&self.bitmap_lens);
        out.extend_from_slice(&summary);
        out.extend_from_slice(&self.bitmaps);
        (out, extents)
    }
}

/// Rewrite a v2 index file payload (no footer) as v1: drop the summary
/// section and the per-bitmap rank/select directories, keep the WAH
/// bytes verbatim, and recompute offsets. Returns the v1 payload and
/// its extent lengths. Used by differential tests and benches to prove
/// v1-read vs v2-read byte-identity on the same logical data.
pub fn downgrade_payload_to_v1(payload: &[u8]) -> Result<(Vec<u8>, Vec<u32>)> {
    let idx = BinIndex::decode_header(payload)?;
    if idx.version != 2 {
        return Err(MlocError::Corrupt("not a v2 index"));
    }
    // Preserve file order: walk entries by their stored offsets.
    let mut order: Vec<usize> = (0..idx.chunks.len())
        .filter(|&r| idx.chunks[r].bitmap_len > 0)
        .collect();
    order.sort_by_key(|&r| idx.chunks[r].bitmap_off);
    let mut chunks = idx.chunks.clone();
    let mut bitmaps = Vec::new();
    let mut bitmap_lens = Vec::with_capacity(order.len());
    for &r in &order {
        let start = idx.bitmap_file_offset(r) as usize;
        let end = start + idx.chunks[r].bitmap_len as usize;
        if end > payload.len() {
            return Err(MlocError::Corrupt("bitmap extent out of bounds"));
        }
        // The WAH stream is self-delimiting; the remainder of the
        // extent is the rank/select directory we drop.
        let (_, consumed) = WahBitmap::from_bytes(&payload[start..end])
            .map_err(|_| MlocError::Corrupt("bad bitmap in v2 index"))?;
        chunks[r].bitmap_off = bitmaps.len() as u64;
        chunks[r].bitmap_len = consumed as u32;
        bitmaps.extend_from_slice(&payload[start..start + consumed]);
        bitmap_lens.push(consumed as u32);
    }
    let v1 = BinIndex {
        version: 1,
        bin: idx.bin,
        num_parts: idx.num_parts,
        header_bytes: idx.header_bytes,
        summary_bytes: 0,
        chunks,
    };
    let mut out = v1.encode_header();
    let mut extents = Vec::with_capacity(1 + bitmap_lens.len());
    extents.push(out.len() as u32);
    extents.extend_from_slice(&bitmap_lens);
    out.extend_from_slice(&bitmaps);
    Ok((out, extents))
}

/// Downgrade every index file of a variable to format v1 in place
/// (payload rewritten, footer recomputed), then rewrite the meta so
/// its checksum manifest matches the new index files. Data files are
/// untouched. Each index file is synced before the meta, and the meta
/// last, as in a build. Returns the number of index files rewritten.
pub fn downgrade_variable_to_v1(
    backend: &dyn StorageBackend,
    dataset: &str,
    var: &str,
) -> Result<usize> {
    let meta_name = crate::fileorg::meta_file(dataset, var);
    let raw_meta = backend.read(&meta_name, 0, backend.len(&meta_name)?)?;
    let (meta, mut manifest) =
        decode_meta_payload(ExtentFooter::split_verified(&raw_meta, &meta_name)?)?;
    for (bin, footers) in manifest.iter_mut().enumerate() {
        let name = crate::fileorg::index_file(dataset, var, bin);
        let raw = backend.read(&name, 0, backend.len(&name)?)?;
        let payload = ExtentFooter::split_verified(&raw, &name)?;
        let (v1, extents) = downgrade_payload_to_v1(payload)?;
        let footer = ExtentFooter::compute(&v1, &extents);
        backend.create(&name)?;
        backend.append(&name, &v1)?;
        backend.append(&name, &footer.encode())?;
        backend.sync(&name)?;
        footers.index = Arc::new(footer);
    }
    backend.create(&meta_name)?;
    backend.append(&meta_name, &encode_meta_file(&meta, &manifest))?;
    backend.sync(&meta_name)?;
    Ok(manifest.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let mut b = BinIndexBuilder::new(5, 4, 3);
        let bm1 = WahBitmap::from_sorted_positions(100, &[1, 5, 99]);
        let bm2 = WahBitmap::from_sorted_positions(50, &[0]);
        b.set_chunk(
            1,
            &bm1,
            &[
                UnitLoc {
                    offset: 0,
                    clen: 10,
                },
                UnitLoc {
                    offset: 10,
                    clen: 20,
                },
                UnitLoc {
                    offset: 30,
                    clen: 5,
                },
            ],
        );
        b.set_chunk(3, &bm2, &[UnitLoc::default(); 3]);
        let bytes = b.finish();

        let hdr_len = header_size(4, 3) as usize;
        let idx = BinIndex::decode_header(&bytes[..hdr_len]).unwrap();
        assert_eq!(idx.bin, 5);
        assert_eq!(idx.chunks.len(), 4);
        assert_eq!(idx.num_parts, 3);
        assert_eq!(idx.chunks[1].count, 3);
        assert_eq!(idx.chunks[3].count, 1);
        assert_eq!(idx.chunks[0].count, 0);
        assert_eq!(idx.total_points(), 4);
        assert_eq!(
            idx.chunks[1].units[1],
            UnitLoc {
                offset: 10,
                clen: 20
            }
        );

        // Bitmaps decode from their recorded offsets.
        let e = &idx.chunks[1];
        let start = idx.bitmap_file_offset(1) as usize;
        let (bm, _) = WahBitmap::from_bytes(&bytes[start..start + e.bitmap_len as usize]).unwrap();
        assert_eq!(bm.to_positions(), vec![1, 5, 99]);
    }

    #[test]
    fn header_size_is_exact() {
        let b = BinIndexBuilder::new(0, 7, 7);
        let bytes = b.finish();
        // An all-empty bin is exactly header + summary: no bitmaps.
        assert_eq!(bytes.len() as u64, header_size(7, 7) + summary_size(7));
        let idx = BinIndex::decode_header(&bytes[..header_size(7, 7) as usize]).unwrap();
        assert_eq!(idx.version, VERSION);
        assert_eq!(idx.summary_bytes, summary_size(7));
        let summaries = decode_summary(&bytes[idx.header_bytes as usize..], 7).unwrap();
        assert_eq!(summaries, vec![ChunkSummary::EMPTY; 7]);
    }

    #[test]
    fn summary_tracks_chunk_shape() {
        let mut b = BinIndexBuilder::new(0, 3, 1);
        // Partial chunk: bits 2..=7 of 20.
        b.set_chunk(
            0,
            &WahBitmap::from_sorted_positions(20, &[2, 3, 7]),
            &[UnitLoc::default()],
        );
        // Full chunk: all 20 bits.
        b.set_chunk(1, &WahBitmap::ones(20), &[UnitLoc::default()]);
        let bytes = b.finish();
        let hdr = BinIndex::decode_header(&bytes[..header_size(3, 1) as usize]).unwrap();
        let start = hdr.summary_file_offset() as usize;
        let summaries =
            decode_summary(&bytes[start..start + hdr.summary_bytes as usize], 3).unwrap();
        assert_eq!(
            summaries[0],
            ChunkSummary {
                min_pos: 2,
                max_pos: 7,
                all_of_chunk: false
            }
        );
        assert_eq!(
            summaries[1],
            ChunkSummary {
                min_pos: 0,
                max_pos: 19,
                all_of_chunk: true
            }
        );
        assert_eq!(summaries[2], ChunkSummary::EMPTY);
    }

    #[test]
    fn downgrade_strips_summary_and_directories() {
        let mut b = BinIndexBuilder::new(2, 3, 1);
        // Large sparse bitmap so a non-empty rank/select directory is
        // appended in v2 (many literal words).
        let pos: Vec<u64> = (0..40_000).step_by(7).collect();
        let big = WahBitmap::from_sorted_positions(40_000, &pos);
        b.set_chunk(0, &big, &[UnitLoc::default()]);
        b.set_chunk(2, &WahBitmap::ones(50), &[UnitLoc::default()]);
        let (v2, v2_extents) = b.finish_with_extents();
        let (v1, v1_extents) = downgrade_payload_to_v1(&v2).unwrap();
        assert!(v1.len() < v2.len());
        assert_eq!(v1_extents.len() + 1, v2_extents.len()); // summary gone
        let idx = BinIndex::decode_header(&v1[..header_size(3, 1) as usize]).unwrap();
        assert_eq!(idx.version, 1);
        assert_eq!(idx.summary_bytes, 0);
        // Bitmaps decode identically from both files.
        let v2_idx = BinIndex::decode_header(&v2[..header_size(3, 1) as usize]).unwrap();
        for rank in [0usize, 2] {
            let s1 = idx.bitmap_file_offset(rank) as usize;
            let s2 = v2_idx.bitmap_file_offset(rank) as usize;
            let (b1, used1) = WahBitmap::from_bytes(&v1[s1..]).unwrap();
            let (b2, _) = WahBitmap::from_bytes(&v2[s2..]).unwrap();
            assert_eq!(b1, b2);
            // v1 extents hold exactly the WAH bytes, no directory.
            assert_eq!(used1 as u32, idx.chunks[rank].bitmap_len);
        }
        // Downgrading a v1 payload is rejected.
        assert!(downgrade_payload_to_v1(&v1).is_err());
    }

    #[test]
    fn rejects_corrupt_headers() {
        let bytes = BinIndexBuilder::new(0, 2, 1).finish();
        assert!(BinIndex::decode_header(&bytes[..5]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(BinIndex::decode_header(&bad).is_err());
        let mut bad2 = bytes;
        bad2[4] = 99; // version
        assert!(BinIndex::decode_header(&bad2).is_err());
    }

    #[test]
    #[should_panic]
    fn setting_chunk_twice_panics() {
        let mut b = BinIndexBuilder::new(0, 2, 1);
        let bm = WahBitmap::from_sorted_positions(10, &[0]);
        b.set_chunk(0, &bm, &[UnitLoc::default()]);
        b.set_chunk(0, &bm, &[UnitLoc::default()]);
    }
}
