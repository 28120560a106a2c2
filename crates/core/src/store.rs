//! Opening a built variable: metadata and the query-time view.

use crate::array::ChunkGrid;
use crate::binning::BinSpec;
use crate::cache::BlockCache;
use crate::config::{LevelOrder, MlocConfig};
use crate::exec::ParallelExecutor;
use crate::fusion::ExtentFuser;
use crate::integrity::ExtentFooter;
use crate::metrics::QueryMetrics;
use crate::query::{Query, QueryResult};
use crate::wire::{Reader, Writer};
use crate::{MlocError, Result};
use mloc_compress::CodecKind;
use mloc_hilbert::{CurveKind, GridOrder};
use mloc_pfs::StorageBackend;
use std::sync::Arc;

const MAGIC: u32 = 0x5445_4D4D; // "MMET"
const VERSION: u8 = 2;
const MANIFEST_MAGIC: u32 = 0x4E41_4D4D; // "MMAN"
const MANIFEST_VERSION: u8 = 1;

fn curve_tag(c: CurveKind) -> u8 {
    match c {
        CurveKind::Hilbert => 0,
        CurveKind::ZOrder => 1,
        CurveKind::RowMajor => 2,
    }
}

fn curve_from_tag(tag: u8) -> Result<CurveKind> {
    match tag {
        0 => Ok(CurveKind::Hilbert),
        1 => Ok(CurveKind::ZOrder),
        2 => Ok(CurveKind::RowMajor),
        _ => Err(MlocError::Corrupt("unknown curve kind")),
    }
}

/// Serialized per-variable metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableMeta {
    /// Variable name.
    pub var: String,
    /// Build configuration.
    pub config: MlocConfig,
    /// Equal-frequency bin boundaries.
    pub bin_bounds: Vec<f64>,
    /// Total number of points.
    pub total_points: u64,
}

impl VariableMeta {
    /// Serialize to the meta-file byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(VERSION);
        w.string(&self.var);
        w.usize_vec(&self.config.shape);
        w.usize_vec(&self.config.chunk_shape);
        w.u32(self.config.num_bins as u32);
        w.u8(self.config.level_order.to_tag());
        let (codec_tag, codec_param) = self.config.codec.to_tag();
        w.u8(codec_tag);
        w.f64(codec_param);
        w.u8(u8::from(self.config.plod));
        w.u8(curve_tag(self.config.curve));
        w.u32(self.config.subset_levels);
        w.u64(self.config.stripe_size);
        w.f64_vec(&self.bin_bounds);
        w.u64(self.total_points);
        w.finish()
    }

    /// Parse bytes produced by [`Self::encode`].
    pub fn decode(data: &[u8]) -> Result<VariableMeta> {
        let mut r = Reader::new(data);
        if r.u32()? != MAGIC {
            return Err(MlocError::Corrupt("bad meta magic"));
        }
        if r.u8()? != VERSION {
            return Err(MlocError::Corrupt("unsupported meta version"));
        }
        let var = r.string()?;
        let shape = r.usize_vec()?;
        let chunk_shape = r.usize_vec()?;
        let num_bins = r.u32()? as usize;
        let level_order = LevelOrder::from_tag(r.u8()?)?;
        let codec_tag = r.u8()?;
        let codec_param = r.f64()?;
        let codec = CodecKind::from_tag(codec_tag, codec_param)?;
        let plod = r.u8()? != 0;
        let curve = curve_from_tag(r.u8()?)?;
        let subset_levels = r.u32()?;
        let stripe_size = r.u64()?;
        let bin_bounds = r.f64_vec()?;
        let total_points = r.u64()?;
        let config = MlocConfig {
            shape,
            chunk_shape,
            num_bins,
            level_order,
            codec,
            plod,
            curve,
            subset_levels,
            stripe_size,
            build_threads: 0,
        };
        config.validate()?;
        if bin_bounds.len() != num_bins + 1 {
            return Err(MlocError::Corrupt("bin bound count mismatch"));
        }
        Ok(VariableMeta {
            var,
            config,
            bin_bounds,
            total_points,
        })
    }
}

/// The per-extent checksum tables of one bin's two files, as the meta
/// file's checksum manifest records them. They are the same tables the
/// files' own footers hold; queries check extents against these copies,
/// so they never read a footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinFooters {
    /// The bin index file's extents (header, summary, bitmaps).
    pub index: Arc<ExtentFooter>,
    /// The bin data file's extents (compressed units).
    pub data: Arc<ExtentFooter>,
}

/// Encode a meta file: the [`VariableMeta`] section, then the checksum
/// manifest section, then a single-extent checksum footer over both.
/// The manifest holds, per bin, the index table and then the data
/// table, each as `n: u32` followed by the footer-table encoding
/// ([`ExtentFooter::write_table`]).
pub(crate) fn encode_meta_file(meta: &VariableMeta, bins: &[BinFooters]) -> Vec<u8> {
    let mut out = meta.encode();
    out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    out.push(MANIFEST_VERSION);
    out.extend_from_slice(&(bins.len() as u32).to_le_bytes());
    for b in bins {
        for f in [&b.index, &b.data] {
            out.extend_from_slice(&(f.num_extents() as u32).to_le_bytes());
            f.write_table(&mut out);
        }
    }
    let footer = ExtentFooter::compute(&out, &[out.len() as u32]);
    out.extend_from_slice(&footer.encode());
    out
}

/// Parse a verified meta payload (footer already stripped) into the
/// variable meta and its checksum manifest, one entry per bin.
pub(crate) fn decode_meta_payload(payload: &[u8]) -> Result<(VariableMeta, Vec<BinFooters>)> {
    let meta = VariableMeta::decode(payload)?;
    // The meta encoding is canonical, so its length locates the
    // manifest section.
    let mut r = Reader::new(payload.get(meta.encode().len()..).unwrap_or(&[]));
    if r.u32().ok() != Some(MANIFEST_MAGIC) {
        return Err(MlocError::Corrupt("meta has no checksum manifest"));
    }
    if r.u8()? != MANIFEST_VERSION {
        return Err(MlocError::Corrupt("unsupported checksum manifest version"));
    }
    let n_bins = r.u32()? as usize;
    if n_bins != meta.config.num_bins {
        return Err(MlocError::Corrupt("checksum manifest bin count mismatch"));
    }
    let table = |r: &mut Reader<'_>| -> Result<Arc<ExtentFooter>> {
        let n = r.u32()? as usize;
        let bytes = r.bytes(
            n.checked_mul(8)
                .ok_or(MlocError::Corrupt("header truncated"))?,
        )?;
        ExtentFooter::from_table(bytes, "meta")
            .map(Arc::new)
            .map_err(|_| MlocError::Corrupt("bad checksum manifest table"))
    };
    let mut bins = Vec::with_capacity(n_bins);
    for _ in 0..n_bins {
        let index = table(&mut r)?;
        let data = table(&mut r)?;
        bins.push(BinFooters { index, data });
    }
    if !r.remaining().is_empty() {
        return Err(MlocError::Corrupt("trailing bytes after checksum manifest"));
    }
    Ok((meta, bins))
}

/// A built MLOC variable, opened for querying.
pub struct MlocStore<'a> {
    backend: &'a dyn StorageBackend,
    dataset: String,
    meta: VariableMeta,
    grid: ChunkGrid,
    order: GridOrder,
    spec: BinSpec,
    cache: Option<Arc<BlockCache>>,
    cache_scope: Arc<str>,
    fuser: Option<Arc<ExtentFuser>>,
    footers: Vec<BinFooters>,
}

impl<'a> MlocStore<'a> {
    /// Open `dataset/var` from a backend by reading its metadata.
    pub fn open(
        backend: &'a dyn StorageBackend,
        dataset: &str,
        var: &str,
    ) -> Result<MlocStore<'a>> {
        let meta_name = crate::fileorg::meta_file(dataset, var);
        let len = backend.len(&meta_name)?;
        let raw = backend.read(&meta_name, 0, len)?;
        // The meta file ends with a checksum footer whose valid
        // trailer doubles as the build's commit marker (it is written
        // last): a torn or bit-flipped meta fails here instead of
        // parsing garbage. Its checksum manifest carries every bin
        // file's extent CRCs, so queries never read a file footer.
        let payload = ExtentFooter::split_verified(&raw, &meta_name)?;
        let (meta, footers) = decode_meta_payload(payload)?;
        let grid = ChunkGrid::new(meta.config.shape.clone(), meta.config.chunk_shape.clone());
        let order = meta.config.chunk_order(&grid);
        let spec = BinSpec::from_bounds(meta.bin_bounds.clone())?;
        let cache_scope = Arc::from(format!("{dataset}/{}", meta.var).as_str());
        Ok(MlocStore {
            backend,
            dataset: dataset.to_string(),
            meta,
            grid,
            order,
            spec,
            cache: None,
            cache_scope,
            fuser: None,
            footers,
        })
    }

    /// The checksum table of a bin's index file, from the meta's
    /// manifest.
    ///
    /// # Panics
    /// Panics when `bin` is not a bin of this variable.
    pub fn index_footer(&self, bin: usize) -> &Arc<ExtentFooter> {
        &self.footers[bin].index
    }

    /// The checksum table of a bin's data file, from the meta's
    /// manifest.
    ///
    /// # Panics
    /// Panics when `bin` is not a bin of this variable.
    pub fn data_footer(&self, bin: usize) -> &Arc<ExtentFooter> {
        &self.footers[bin].data
    }

    /// Attach a decompressed-block cache ([`crate::cache`]). Queries
    /// through this store probe it before the backend; blocks under the
    /// same cache can be shared across stores, variables and threads.
    /// A built variable is immutable, so cached blocks never go stale —
    /// rebuilding under the same `dataset/var` names needs a new cache.
    pub fn with_cache(mut self, cache: Arc<BlockCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach or detach the block cache in place.
    pub fn set_cache(&mut self, cache: Option<Arc<BlockCache>>) {
        self.cache = cache;
    }

    /// The attached block cache, if any.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// The `dataset/var` scope string cache keys carry.
    pub fn cache_scope(&self) -> &Arc<str> {
        &self.cache_scope
    }

    /// Attach a cross-session extent fuser ([`crate::fusion`]): merged
    /// reads through this store are shared with every other store of
    /// the same admission window that holds the same fuser. The caller
    /// rotates windows via [`ExtentFuser::begin_window`].
    pub fn with_fusion(mut self, fuser: Arc<ExtentFuser>) -> Self {
        self.fuser = Some(fuser);
        self
    }

    /// Attach or detach the extent fuser in place.
    pub fn set_fusion(&mut self, fuser: Option<Arc<ExtentFuser>>) {
        self.fuser = fuser;
    }

    /// The attached extent fuser, if any.
    pub fn fuser(&self) -> Option<&Arc<ExtentFuser>> {
        self.fuser.as_ref()
    }

    /// The storage backend.
    pub fn backend(&self) -> &'a dyn StorageBackend {
        self.backend
    }

    /// Dataset name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Variable name.
    pub fn var(&self) -> &str {
        &self.meta.var
    }

    /// Build configuration.
    pub fn config(&self) -> &MlocConfig {
        &self.meta.config
    }

    /// Total number of points.
    pub fn total_points(&self) -> u64 {
        self.meta.total_points
    }

    /// Chunk geometry.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// Chunk curve ordering.
    pub fn order(&self) -> &GridOrder {
        &self.order
    }

    /// Value-bin specification.
    pub fn bins(&self) -> &BinSpec {
        &self.spec
    }

    /// Data file name of a bin.
    pub fn data_file(&self, bin: usize) -> String {
        crate::fileorg::data_file(&self.dataset, self.var(), bin)
    }

    /// Index file name of a bin.
    pub fn index_file(&self, bin: usize) -> String {
        crate::fileorg::index_file(&self.dataset, self.var(), bin)
    }

    /// Run a query on a single rank with the default cost model and
    /// return just the result.
    pub fn query_serial(&self, query: &Query) -> Result<QueryResult> {
        Ok(self.query_with_metrics(query)?.0)
    }

    /// Run a query on a single rank and return result plus metrics.
    pub fn query_with_metrics(&self, query: &Query) -> Result<(QueryResult, QueryMetrics)> {
        ParallelExecutor::serial().execute(self, query)
    }

    /// Run a query on a single rank with profiling on, returning the
    /// span/counter [`mloc_obs::Profile`] alongside result and metrics.
    pub fn query_profiled(
        &self,
        query: &Query,
    ) -> Result<(QueryResult, QueryMetrics, mloc_obs::Profile)> {
        ParallelExecutor::serial().execute_profiled(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let config = MlocConfig::builder(vec![64, 32])
            .chunk_shape(vec![16, 16])
            .num_bins(10)
            .build();
        let meta = VariableMeta {
            var: "temperature".into(),
            config,
            bin_bounds: (0..=10).map(|i| i as f64 * 3.5).collect(),
            total_points: 2048,
        };
        let decoded = VariableMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    }

    fn built() -> mloc_pfs::MemBackend {
        let be = mloc_pfs::MemBackend::new();
        let values: Vec<f64> = (0..256).map(|i| ((i * 37) % 101) as f64).collect();
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(4)
            .build();
        crate::build_variable(&be, "ds", "v", &values, &config).unwrap();
        be
    }

    fn meta_payload(be: &mloc_pfs::MemBackend) -> Vec<u8> {
        let raw = be
            .read("ds/v/meta", 0, be.len("ds/v/meta").unwrap())
            .unwrap();
        ExtentFooter::split_verified(&raw, "ds/v/meta")
            .unwrap()
            .to_vec()
    }

    /// Replace the meta file with `payload` plus a fresh footer.
    fn write_meta(be: &mloc_pfs::MemBackend, payload: &[u8]) {
        let footer = ExtentFooter::compute(payload, &[payload.len() as u32]);
        be.create("ds/v/meta").unwrap();
        be.append("ds/v/meta", payload).unwrap();
        be.append("ds/v/meta", &footer.encode()).unwrap();
    }

    #[test]
    fn manifest_matches_bin_file_footers() {
        let be = built();
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        for bin in 0..4 {
            for (file, want) in [
                (store.index_file(bin), store.index_footer(bin)),
                (store.data_file(bin), store.data_footer(bin)),
            ] {
                let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
                let len = raw.len() as u64;
                let footer =
                    ExtentFooter::decode(&raw[want.payload_len() as usize..], len, &file).unwrap();
                assert_eq!(&footer, want.as_ref(), "{file}");
            }
        }
        // Encoding is canonical: re-encoding the decoded meta and
        // manifest reproduces the file byte for byte.
        let (meta, bins) = decode_meta_payload(&meta_payload(&be)).unwrap();
        let raw = be
            .read("ds/v/meta", 0, be.len("ds/v/meta").unwrap())
            .unwrap();
        assert_eq!(encode_meta_file(&meta, &bins), raw);
    }

    #[test]
    fn meta_without_manifest_fails_to_open_as_corrupt() {
        let be = built();
        let payload = meta_payload(&be);
        let (meta, _) = decode_meta_payload(&payload).unwrap();
        write_meta(&be, &meta.encode());
        assert!(matches!(
            MlocStore::open(&be, "ds", "v"),
            Err(MlocError::Corrupt(_))
        ));
        // A manifest with the wrong bin count, a truncated one, or one
        // with trailing bytes is refused the same way.
        let manifest_at = meta.encode().len();
        let mut wrong_bins = payload.clone();
        wrong_bins[manifest_at + 5] ^= 1;
        let mut trailing = payload.clone();
        trailing.push(0);
        for bad in [wrong_bins, payload[..payload.len() - 3].to_vec(), trailing] {
            write_meta(&be, &bad);
            assert!(matches!(
                MlocStore::open(&be, "ds", "v"),
                Err(MlocError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn meta_rejects_corruption() {
        let config = MlocConfig::builder(vec![8, 8])
            .chunk_shape(vec![4, 4])
            .num_bins(2)
            .build();
        let meta = VariableMeta {
            var: "v".into(),
            config,
            bin_bounds: vec![0.0, 1.0, 2.0],
            total_points: 64,
        };
        let bytes = meta.encode();
        assert!(VariableMeta::decode(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(VariableMeta::decode(&bad).is_err());
    }
}
