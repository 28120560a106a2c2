//! Offline integrity verification (`mloc verify`).
//!
//! Recomputes every checksum recorded in the extent footers of a
//! variable's files — meta, every bin index, every bin data file —
//! checks each bin file's footer table against the meta's checksum
//! manifest (the copy queries verify against), and reports each
//! damaged extent with a human-readable label (which
//! chunk's bitmap, which byte-group part). Unlike the query path,
//! which stops at the first unreadable extent it needs, verification
//! keeps going and maps *all* the damage, so an operator can decide
//! whether a degraded dataset is worth keeping.

use crate::fileorg;
use crate::index::BinIndex;
use crate::integrity::{ExtentFooter, TRAILER_LEN};
use crate::store::decode_meta_payload;
use crate::{MlocError, Result};
use mloc_pfs::{PfsError, ReadRequest, StorageBackend};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// One damaged (or unreadable) extent found by verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentDamage {
    /// File containing the damage.
    pub file: String,
    /// Byte offset of the damaged extent (0 for whole-file failures).
    pub offset: u64,
    /// Extent length (0 for whole-file failures).
    pub len: u64,
    /// What is damaged, e.g. `bitmap of chunk rank 3` or
    /// `chunk rank 5 byte-group part 2: checksum mismatch`.
    pub what: String,
}

impl fmt::Display for ExtentDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}, {}+{}): {}",
            self.file, self.offset, self.offset, self.len, self.what
        )
    }
}

/// Outcome of verifying a variable or a whole dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Files examined.
    pub files_checked: usize,
    /// Extents whose checksum was recomputed.
    pub extents_checked: u64,
    /// Every damaged extent found (empty = clean).
    pub damage: Vec<ExtentDamage>,
}

impl VerifyReport {
    /// Whether no damage was found.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.files_checked += other.files_checked;
        self.extents_checked += other.extents_checked;
        self.damage.extend(other.damage);
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "ok: {} file(s), {} extent(s) verified",
                self.files_checked, self.extents_checked
            )
        } else {
            writeln!(
                f,
                "DAMAGED: {} bad extent(s) across {} file(s), {} extent(s) checked",
                self.damage.len(),
                self.files_checked,
                self.extents_checked
            )?;
            for d in &self.damage {
                writeln!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

fn damage_from_error(file: &str, e: &MlocError) -> ExtentDamage {
    match e {
        MlocError::CorruptExtent {
            file,
            offset,
            len,
            what,
        } => ExtentDamage {
            file: file.clone(),
            offset: *offset,
            len: *len,
            what: what.clone(),
        },
        other => ExtentDamage {
            file: file.to_string(),
            offset: 0,
            len: 0,
            what: other.to_string(),
        },
    }
}

/// Batched whole-file fetch: size every file, then pull all readable
/// ones down in **one** submitted batch, so a concurrent backend (pool
/// or shard router) verifies a variable's files in parallel instead of
/// draining them one blocking read at a time.
struct FileBytes {
    bytes: HashMap<String, std::result::Result<Vec<u8>, PfsError>>,
}

impl FileBytes {
    fn fetch(backend: &dyn StorageBackend, files: &[String]) -> FileBytes {
        let mut bytes = HashMap::new();
        let mut reqs = Vec::new();
        for f in files {
            match backend.len(f) {
                Ok(n) => reqs.push(ReadRequest::new(f.clone(), 0, n)),
                Err(e) => {
                    bytes.insert(f.clone(), Err(e));
                }
            }
        }
        for (req, res) in reqs.iter().zip(backend.read_batch(&reqs)) {
            bytes.insert(req.file.clone(), res);
        }
        FileBytes { bytes }
    }

    fn take(&mut self, file: &str) -> std::result::Result<Vec<u8>, PfsError> {
        self.bytes
            .remove(file)
            .unwrap_or_else(|| Err(PfsError::NotFound(file.to_string())))
    }
}

/// Check every footer extent of one pre-fetched file, recording damage
/// instead of stopping. Returns the raw bytes and parsed footer when
/// the footer itself is intact (payload extents may still be bad).
fn check_file(
    raw: std::result::Result<Vec<u8>, PfsError>,
    file: &str,
    report: &mut VerifyReport,
) -> Option<(Vec<u8>, ExtentFooter)> {
    report.files_checked += 1;
    let raw = match raw {
        Ok(raw) => raw,
        Err(e) => {
            report.damage.push(ExtentDamage {
                file: file.to_string(),
                offset: 0,
                len: 0,
                what: format!("file unreadable: {e}"),
            });
            return None;
        }
    };
    let file_len = raw.len() as u64;
    if file_len < TRAILER_LEN {
        report.damage.push(ExtentDamage {
            file: file.to_string(),
            offset: 0,
            len: file_len,
            what: "file shorter than footer trailer (torn write?)".to_string(),
        });
        return None;
    }
    let trailer = &raw[raw.len() - TRAILER_LEN as usize..];
    let (payload_len, _) = match ExtentFooter::decode_trailer(trailer, file_len, file) {
        Ok(v) => v,
        Err(e) => {
            report.damage.push(damage_from_error(file, &e));
            return None;
        }
    };
    let footer = match ExtentFooter::decode(&raw[payload_len as usize..], file_len, file) {
        Ok(f) => f,
        Err(e) => {
            report.damage.push(damage_from_error(file, &e));
            return None;
        }
    };
    for i in 0..footer.num_extents() {
        let (off, len, _) = footer.extent(i);
        report.extents_checked += 1;
        let slice = &raw[off as usize..(off + u64::from(len)) as usize];
        if let Err(e) = footer.verify(file, off, slice) {
            report.damage.push(damage_from_error(file, &e));
        }
    }
    Some((raw, footer))
}

/// Record a bin file whose own footer table disagrees with the meta's
/// manifest copy: it verifies against itself but fails every query
/// that touches it.
fn check_manifest(
    report: &mut VerifyReport,
    file: &str,
    footer: &ExtentFooter,
    manifest: Option<&ExtentFooter>,
) {
    if manifest.is_some_and(|m| m != footer) {
        report.damage.push(ExtentDamage {
            file: file.to_string(),
            offset: footer.payload_len(),
            len: footer.encoded_len(),
            what: "footer table disagrees with the meta's checksum manifest".to_string(),
        });
    }
}

/// Rewrite the `what` of damage entries in `file` with a location
/// label derived from the (intact) index structure.
fn relabel(report: &mut VerifyReport, file: &str, label: impl Fn(u64) -> Option<String>) {
    for d in report.damage.iter_mut().filter(|d| d.file == file) {
        if let Some(l) = label(d.offset) {
            d.what = format!("{l}: {}", d.what);
        }
    }
}

/// Verify every stored extent of one variable. Damaged extents are
/// collected, not fatal: the report lists all of them. Errors are
/// returned only for conditions that prevent verification from running
/// at all (none currently — unreadable files become damage entries).
pub fn verify_variable(
    backend: &dyn StorageBackend,
    dataset: &str,
    var: &str,
) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();

    // Enumerate bins from the directory listing rather than the meta
    // file, so a destroyed meta does not hide bin damage.
    let prefix = format!("{dataset}/{var}/bin");
    let mut bins: BTreeSet<usize> = BTreeSet::new();
    for f in backend.list() {
        if let Some(rest) = f.strip_prefix(&prefix) {
            if let Some(n) = rest
                .strip_suffix(".idx")
                .or_else(|| rest.strip_suffix(".dat"))
            {
                if let Ok(bin) = n.parse() {
                    bins.insert(bin);
                }
            }
        }
    }

    // Fetch every file of the variable in one submitted batch …
    let meta_name = fileorg::meta_file(dataset, var);
    let mut files = vec![meta_name.clone()];
    for &bin in &bins {
        files.push(fileorg::index_file(dataset, var, bin));
        files.push(fileorg::data_file(dataset, var, bin));
    }
    let mut fetched = FileBytes::fetch(backend, &files);

    // … then verify extents from the buffers. An intact meta also
    // yields the checksum manifest queries check extents against.
    let damage_before = report.damage.len();
    let manifest = check_file(fetched.take(&meta_name), &meta_name, &mut report)
        .filter(|_| report.damage.len() == damage_before)
        .and_then(|(raw, footer)| {
            match decode_meta_payload(&raw[..footer.payload_len() as usize]) {
                Ok((_, bins)) => Some(bins),
                Err(e) => {
                    report.damage.push(ExtentDamage {
                        file: meta_name.clone(),
                        offset: 0,
                        len: footer.payload_len(),
                        what: format!("payload unreadable: {e}"),
                    });
                    None
                }
            }
        });
    relabel(&mut report, &meta_name, |_| Some("meta".to_string()));

    for bin in bins {
        let idx_file = fileorg::index_file(dataset, var, bin);
        let dat_file = fileorg::data_file(dataset, var, bin);

        let want = manifest.as_ref().and_then(|m| m.get(bin));
        let mut index: Option<BinIndex> = None;
        if let Some((raw, footer)) = check_file(fetched.take(&idx_file), &idx_file, &mut report) {
            check_manifest(&mut report, &idx_file, &footer, want.map(|b| &*b.index));
            // Best-effort header parse for location labels; extent 0 is
            // the header. Verification above already checked its CRC.
            if footer.num_extents() > 0 {
                let (_, hdr_len, _) = footer.extent(0);
                index = BinIndex::decode_header(&raw[..hdr_len as usize]).ok();
            }
        }
        if let Some(idx) = &index {
            relabel(&mut report, &idx_file, |off| {
                if off == 0 {
                    return Some("index header".to_string());
                }
                if idx.summary_bytes > 0 && off == idx.summary_file_offset() {
                    return Some("chunk summary".to_string());
                }
                (0..idx.chunks.len())
                    .find(|&r| idx.chunks[r].bitmap_len > 0 && idx.bitmap_file_offset(r) == off)
                    .map(|r| format!("bitmap of chunk rank {r}"))
            });
        } else {
            relabel(&mut report, &idx_file, |off| {
                (off == 0).then(|| "index header".to_string())
            });
        }

        if let Some((_, footer)) = check_file(fetched.take(&dat_file), &dat_file, &mut report) {
            check_manifest(&mut report, &dat_file, &footer, want.map(|b| &*b.data));
        }
        if let Some(idx) = &index {
            relabel(&mut report, &dat_file, |off| {
                for (r, e) in idx.chunks.iter().enumerate() {
                    for (p, u) in e.units.iter().enumerate() {
                        if u.clen > 0 && u.offset == off {
                            return Some(format!("chunk rank {r} byte-group part {p}"));
                        }
                    }
                }
                None
            });
        }
    }

    Ok(report)
}

/// Verify every variable listed in a dataset's catalog. Fails only
/// when the catalog itself cannot be read; per-variable damage is
/// reported, not fatal.
pub fn verify_dataset(backend: &dyn StorageBackend, name: &str) -> Result<VerifyReport> {
    let ds = crate::dataset::Dataset::open(backend, name)?;
    let mut report = VerifyReport::default();
    for var in ds.variables()? {
        report.merge(verify_variable(backend, name, &var)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn build() -> MemBackend {
        let be = MemBackend::new();
        let values: Vec<f64> = (0..256).map(|i| ((i * 37) % 101) as f64).collect();
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        be
    }

    /// Copy every file, flipping one byte of `victim` at `offset`.
    fn corrupt_copy(be: &MemBackend, victim: &str, offset: u64) -> MemBackend {
        let out = MemBackend::new();
        for f in be.list() {
            let len = be.len(&f).unwrap();
            let mut data = be.read(&f, 0, len).unwrap();
            if f == victim {
                data[offset as usize] ^= 0x20;
            }
            out.create(&f).unwrap();
            out.append(&f, &data).unwrap();
        }
        out
    }

    #[test]
    fn clean_build_verifies() {
        let be = build();
        let report = verify_variable(&be, "ds", "v").unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.files_checked, 9); // meta + 4 × (idx + dat)
        assert!(report.extents_checked > 9);
        assert!(report.to_string().starts_with("ok:"));
    }

    #[test]
    fn flipped_data_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/bin0001.dat";
        let bad = corrupt_copy(&be, victim, 3);
        let report = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert_eq!(d.file, victim);
        assert!(
            d.what.contains("chunk rank") && d.what.contains("byte-group part"),
            "{}",
            d.what
        );
        assert!(d.offset <= 3 && 3 < d.offset + d.len);
    }

    #[test]
    fn flipped_index_header_and_meta_are_labeled() {
        let be = build();
        let idx = corrupt_copy(&be, "ds/v/bin0000.idx", 6);
        let r = verify_variable(&idx, "ds", "v").unwrap();
        assert_eq!(r.damage.len(), 1, "{r}");
        assert!(
            r.damage[0].what.starts_with("index header"),
            "{}",
            r.damage[0].what
        );

        let meta = corrupt_copy(&be, "ds/v/meta", 9);
        let r = verify_variable(&meta, "ds", "v").unwrap();
        assert_eq!(r.damage.len(), 1, "{r}");
        assert!(r.damage[0].what.starts_with("meta"), "{}", r.damage[0].what);
    }

    #[test]
    fn flipped_summary_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/bin0000.idx";
        let len = be.len(victim).unwrap();
        let raw = be.read(victim, 0, len).unwrap();
        let idx = BinIndex::decode_header(&raw).unwrap();
        assert!(idx.summary_bytes > 0, "fixture should build v2 indexes");
        let bad = corrupt_copy(&be, victim, idx.summary_file_offset() + 5);
        let report = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert!(d.what.starts_with("chunk summary"), "{}", d.what);
        assert_eq!(d.offset, idx.summary_file_offset());
        assert_eq!(d.len, idx.summary_bytes);
    }

    #[test]
    fn downgraded_v1_files_verify_clean() {
        let be = build();
        let n = crate::index::downgrade_variable_to_v1(&be, "ds", "v").unwrap();
        assert_eq!(n, 4);
        let report = verify_variable(&be, "ds", "v").unwrap();
        assert!(report.is_clean(), "{report}");
        // v1 bitmap damage still gets a chunk label.
        let raw = be
            .read("ds/v/bin0000.idx", 0, be.len("ds/v/bin0000.idx").unwrap())
            .unwrap();
        let idx = BinIndex::decode_header(&raw).unwrap();
        assert_eq!(idx.version, 1);
        assert_eq!(idx.summary_bytes, 0);
        let rank = (0..idx.chunks.len())
            .find(|&r| idx.chunks[r].bitmap_len > 0)
            .unwrap();
        let bad = corrupt_copy(&be, "ds/v/bin0000.idx", idx.bitmap_file_offset(rank) + 1);
        let r = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(r.damage.len(), 1, "{r}");
        assert!(
            r.damage[0].what.starts_with("bitmap of chunk rank"),
            "{}",
            r.damage[0].what
        );
    }

    #[test]
    fn bin_footer_disagreeing_with_manifest_is_reported() {
        // Rewrite one index file as v1 (a self-consistent file with a
        // valid footer) but leave the meta's manifest untouched.
        let be = build();
        let name = "ds/v/bin0001.idx";
        let raw = be.read(name, 0, be.len(name).unwrap()).unwrap();
        let payload = ExtentFooter::split_verified(&raw, name).unwrap();
        let (v1, extents) = crate::index::downgrade_payload_to_v1(payload).unwrap();
        let footer = ExtentFooter::compute(&v1, &extents);
        be.create(name).unwrap();
        be.append(name, &v1).unwrap();
        be.append(name, &footer.encode()).unwrap();

        let report = verify_variable(&be, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert_eq!(d.file, name);
        assert_eq!(
            (d.offset, d.len),
            (footer.payload_len(), footer.encoded_len())
        );
        assert!(d.what.contains("checksum manifest"), "{}", d.what);
        // Queries check against the manifest, so they refuse the file.
        let store = crate::MlocStore::open(&be, "ds", "v").unwrap();
        let q = crate::Query::region(f64::MIN, f64::MAX);
        assert!(store.query_serial(&q).unwrap_err().is_corruption());
    }

    #[test]
    fn torn_file_reported_as_damage() {
        let be = build();
        let victim = "ds/v/bin0002.dat";
        let out = MemBackend::new();
        for f in be.list() {
            let len = be.len(&f).unwrap();
            let keep = if f == victim { len - 10 } else { len };
            let data = be.read(&f, 0, keep).unwrap();
            out.create(&f).unwrap();
            out.append(&f, &data).unwrap();
        }
        let report = verify_variable(&out, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        assert_eq!(report.damage[0].file, victim);
    }

    #[test]
    fn dataset_verify_walks_catalog() {
        let be = MemBackend::new();
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(2)
            .build();
        let ds = crate::dataset::Dataset::create(&be, "sim", config).unwrap();
        let values: Vec<f64> = (0..256).map(|i| i as f64).collect();
        ds.add_variable("a", &values).unwrap();
        ds.add_variable("b", &values).unwrap();
        let report = verify_dataset(&be, "sim").unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.files_checked, 2 * (1 + 2 * 2));
    }
}
