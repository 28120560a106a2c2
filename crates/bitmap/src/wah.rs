//! The WAH bitmap representation, builder, iteration and serialization.

/// Number of data bits per WAH group (31 for 32-bit words).
pub const GROUP_BITS: u64 = 31;
const LITERAL_MASK: u32 = 0x7FFF_FFFF;
const FILL_FLAG: u32 = 0x8000_0000;
const FILL_BIT: u32 = 0x4000_0000;
const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;
/// Maximum group count representable by one fill word.
const MAX_FILL_GROUPS: u32 = FILL_COUNT_MASK;

const MAGIC: u32 = 0x4841_574D; // "MWAH"

/// A WAH-compressed bitmap of fixed logical length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WahBitmap {
    words: Vec<u32>,
    num_bits: u64,
}

impl WahBitmap {
    /// An all-zero bitmap of `num_bits` bits.
    pub fn zeros(num_bits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.append_run(false, num_bits);
        b.finish()
    }

    /// An all-one bitmap of `num_bits` bits.
    pub fn ones(num_bits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.append_run(true, num_bits);
        b.finish()
    }

    /// Build from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = WahBuilder::new();
        for &bit in bits {
            b.push(bit);
        }
        b.finish()
    }

    /// Build a bitmap of `num_bits` bits with exactly the given
    /// positions set. `positions` must be strictly increasing.
    ///
    /// # Panics
    /// Panics if positions are out of range or not strictly increasing.
    pub fn from_sorted_positions(num_bits: u64, positions: &[u64]) -> Self {
        let mut b = WahBuilder::new();
        let mut cursor = 0u64;
        for &p in positions {
            assert!(p >= cursor, "positions must be strictly increasing");
            assert!(p < num_bits, "position {p} out of range {num_bits}");
            b.append_run(false, p - cursor);
            b.push(true);
            cursor = p + 1;
        }
        b.append_run(false, num_bits - cursor);
        b.finish()
    }

    /// Logical number of bits.
    pub fn len(&self) -> u64 {
        self.num_bits
    }

    /// True when the bitmap has zero logical bits.
    pub fn is_empty(&self) -> bool {
        self.num_bits == 0
    }

    /// Compressed size in bytes (words only, excluding the length field).
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 4 + 8
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        let mut total = 0u64;
        let mut bit_cursor = 0u64;
        for run in self.runs() {
            match run {
                Run::Fill { bit, groups } => {
                    let nbits = (groups as u64 * GROUP_BITS).min(self.num_bits - bit_cursor);
                    if bit {
                        total += nbits;
                    }
                    bit_cursor += nbits;
                }
                Run::Literal(w) => {
                    let nbits = GROUP_BITS.min(self.num_bits - bit_cursor);
                    let mask = if nbits == GROUP_BITS {
                        LITERAL_MASK
                    } else {
                        (1u32 << nbits) - 1
                    };
                    total += u64::from((w & mask).count_ones());
                    bit_cursor += nbits;
                }
            }
        }
        total
    }

    /// Test a single bit. O(words) — intended for tests, not hot paths.
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.num_bits, "bit {pos} out of range");
        let mut bit_cursor = 0u64;
        for run in self.runs() {
            match run {
                Run::Fill { bit, groups } => {
                    let nbits = groups as u64 * GROUP_BITS;
                    if pos < bit_cursor + nbits {
                        return bit;
                    }
                    bit_cursor += nbits;
                }
                Run::Literal(w) => {
                    if pos < bit_cursor + GROUP_BITS {
                        return (w >> (pos - bit_cursor)) & 1 == 1;
                    }
                    bit_cursor += GROUP_BITS;
                }
            }
        }
        false
    }

    /// Iterate maximal `(start, len, bit)` runs of identical bits in
    /// position order. Runs partition `[0, len())` exactly: adjacent
    /// runs carry opposite bits, lengths sum to [`Self::len`], and the
    /// padding bits of a trailing partial group are never reported.
    ///
    /// This is the bulk-processing counterpart of [`Self::iter_ones`]:
    /// a fill of ones surfaces as one run, not as per-bit steps, so a
    /// consumer can turn it into a single range operation.
    pub fn iter_runs(&self) -> BitRunsIter<'_> {
        BitRunsIter {
            words: &self.words,
            word_idx: 0,
            bit_cursor: 0,
            num_bits: self.num_bits,
            literal: 0,
            literal_rem: 0,
            pending: None,
        }
    }

    /// Number of set bits in `[0, pos)`.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the bitmap length.
    pub fn rank(&self, pos: u64) -> u64 {
        assert!(pos <= self.num_bits, "rank position {pos} out of range");
        let mut total = 0u64;
        for (start, len, bit) in self.iter_runs() {
            if start >= pos {
                break;
            }
            if bit {
                total += len.min(pos - start);
            }
        }
        total
    }

    /// Position of the `k`-th set bit (0-indexed), or `None` when the
    /// bitmap has `k` or fewer set bits.
    pub fn select(&self, k: u64) -> Option<u64> {
        let mut seen = 0u64;
        for (start, len, bit) in self.iter_runs() {
            if !bit {
                continue;
            }
            if k < seen + len {
                return Some(start + (k - seen));
            }
            seen += len;
        }
        None
    }

    /// Iterate positions of set bits in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        self.as_ref().iter_ones()
    }

    /// Borrowed view of this bitmap (same queries, no ownership).
    pub fn as_ref(&self) -> WahRef<'_> {
        WahRef {
            words: &self.words,
            num_bits: self.num_bits,
        }
    }

    /// Collect set-bit positions into a vector.
    pub fn to_positions(&self) -> Vec<u64> {
        self.iter_ones().collect()
    }

    /// Raw word stream (for size accounting and tests).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    pub(crate) fn runs(&self) -> RunIter<'_> {
        RunIter {
            words: &self.words,
            idx: 0,
        }
    }

    /// Override the logical length (used by group-aligned operations to
    /// restore the unpadded length). Must not exceed the padded length.
    pub(crate) fn set_len(&mut self, num_bits: u64) {
        debug_assert!(num_bits <= self.num_bits);
        self.num_bits = num_bits;
    }

    /// Serialize to a little-endian byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.words.len() * 4);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize from [`Self::to_bytes`] output.
    ///
    /// Returns the bitmap and the number of bytes consumed.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), BitmapError> {
        if data.len() < 16 {
            return Err(BitmapError::Truncated);
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(BitmapError::BadMagic(magic));
        }
        let num_bits = u64::from_le_bytes(data[4..12].try_into().unwrap());
        let nwords = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
        let need = 16 + nwords.saturating_mul(4);
        if data.len() < need {
            return Err(BitmapError::Truncated);
        }
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let off = 16 + i * 4;
            words.push(u32::from_le_bytes(data[off..off + 4].try_into().unwrap()));
        }
        check_length(num_bits, &words)?;
        Ok((WahBitmap { words, num_bits }, need))
    }
}

/// Structural check of a decoded stream: its words must cover exactly
/// the groups `num_bits` needs (the last group may be partial). A valid
/// CRC does not vouch for this — the bytes may be stale or mis-framed —
/// and an unchecked `num_bits` would let iteration run past the words
/// or report a length the words never describe.
fn check_length(num_bits: u64, words: &[u32]) -> Result<(), BitmapError> {
    let groups: u64 = words
        .iter()
        .map(|&w| {
            if w & FILL_FLAG != 0 {
                u64::from(w & FILL_COUNT_MASK)
            } else {
                1
            }
        })
        .sum();
    if groups != num_bits.div_ceil(GROUP_BITS) {
        return Err(BitmapError::LengthMismatch {
            num_bits,
            covered_bits: groups.saturating_mul(GROUP_BITS),
        });
    }
    Ok(())
}

/// Errors from bitmap deserialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitmapError {
    /// Input ended before the encoded length.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// The header's bit count disagrees with the bits the word stream
    /// covers.
    LengthMismatch {
        /// Bit count from the header.
        num_bits: u64,
        /// Bits the word stream covers (whole 31-bit groups).
        covered_bits: u64,
    },
}

impl std::fmt::Display for BitmapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitmapError::Truncated => write!(f, "bitmap byte stream truncated"),
            BitmapError::BadMagic(m) => write!(f, "bad bitmap magic {m:#x}"),
            BitmapError::LengthMismatch {
                num_bits,
                covered_bits,
            } => write!(
                f,
                "bitmap header claims {num_bits} bits but its words cover {covered_bits}"
            ),
        }
    }
}

impl std::error::Error for BitmapError {}

/// A decoded WAH run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Run {
    /// `groups` repetitions of an all-`bit` 31-bit group.
    Fill { bit: bool, groups: u32 },
    /// One 31-bit literal group (bit 0 = first position).
    Literal(u32),
}

pub(crate) struct RunIter<'a> {
    words: &'a [u32],
    idx: usize,
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let w = *self.words.get(self.idx)?;
        self.idx += 1;
        if w & FILL_FLAG != 0 {
            Some(Run::Fill {
                bit: w & FILL_BIT != 0,
                groups: w & FILL_COUNT_MASK,
            })
        } else {
            Some(Run::Literal(w))
        }
    }
}

/// Iterator over maximal same-bit runs, yielding `(start, len, bit)`.
///
/// Produced by [`WahBitmap::iter_runs`]. Adjacent encoded runs of the
/// same bit (e.g. a fill followed by an all-equal literal) are merged,
/// so consumers always see maximal runs.
pub struct BitRunsIter<'a> {
    words: &'a [u32],
    word_idx: usize,
    bit_cursor: u64,
    num_bits: u64,
    /// Remaining bits of a partially consumed literal word (shifted so
    /// the next bit is bit 0).
    literal: u32,
    literal_rem: u32,
    /// A decoded run awaiting merge with its successor.
    pending: Option<(u64, u64, bool)>,
}

impl BitRunsIter<'_> {
    /// Next raw (unmerged) run, clamped to the logical length.
    fn next_raw(&mut self) -> Option<(u64, u64, bool)> {
        loop {
            if self.literal_rem > 0 {
                let start = self.bit_cursor;
                let bit = self.literal & 1 == 1;
                let same = if bit {
                    self.literal.trailing_ones()
                } else {
                    self.literal.trailing_zeros()
                };
                let take = same.min(self.literal_rem);
                // take < 32 always (literal_rem <= 31), so the shift is
                // in range.
                self.literal >>= take;
                self.literal_rem -= take;
                self.bit_cursor += u64::from(take);
                if start >= self.num_bits {
                    continue; // padding bits of the trailing group
                }
                let len = u64::from(take).min(self.num_bits - start);
                return Some((start, len, bit));
            }
            let w = *self.words.get(self.word_idx)?;
            self.word_idx += 1;
            if w & FILL_FLAG != 0 {
                let bit = w & FILL_BIT != 0;
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                let start = self.bit_cursor;
                self.bit_cursor += nbits;
                if nbits == 0 || start >= self.num_bits {
                    continue;
                }
                let len = nbits.min(self.num_bits - start);
                return Some((start, len, bit));
            }
            self.literal = w & LITERAL_MASK;
            self.literal_rem = GROUP_BITS as u32;
        }
    }
}

impl Iterator for BitRunsIter<'_> {
    type Item = (u64, u64, bool);

    fn next(&mut self) -> Option<(u64, u64, bool)> {
        loop {
            match self.next_raw() {
                Some((start, len, bit)) => match self.pending {
                    Some((ps, pl, pb)) if pb == bit && ps + pl == start => {
                        self.pending = Some((ps, pl + len, bit));
                    }
                    Some(prev) => {
                        self.pending = Some((start, len, bit));
                        return Some(prev);
                    }
                    None => self.pending = Some((start, len, bit)),
                },
                None => return self.pending.take(),
            }
        }
    }
}

/// A borrowed WAH bitmap view: the zero-allocation counterpart of
/// [`WahBitmap`] for hot paths that decode serialized bitmaps into a
/// reused scratch buffer instead of allocating per bitmap.
#[derive(Debug, Clone, Copy)]
pub struct WahRef<'a> {
    words: &'a [u32],
    num_bits: u64,
}

impl<'a> WahRef<'a> {
    /// Decode [`WahBitmap::to_bytes`] output into `scratch` (cleared
    /// and refilled, capacity reused), returning the borrowed view and
    /// the number of bytes consumed.
    pub fn decode_into(
        data: &[u8],
        scratch: &'a mut Vec<u32>,
    ) -> Result<(WahRef<'a>, usize), BitmapError> {
        if data.len() < 16 {
            return Err(BitmapError::Truncated);
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(BitmapError::BadMagic(magic));
        }
        let num_bits = u64::from_le_bytes(data[4..12].try_into().unwrap());
        let nwords = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
        let need = 16 + nwords.saturating_mul(4);
        if data.len() < need {
            return Err(BitmapError::Truncated);
        }
        scratch.clear();
        scratch.reserve(nwords);
        scratch.extend(
            data[16..need]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        check_length(num_bits, scratch)?;
        Ok((
            WahRef {
                words: scratch,
                num_bits,
            },
            need,
        ))
    }

    /// Logical number of bits.
    pub fn len(&self) -> u64 {
        self.num_bits
    }

    /// True when the view has zero logical bits.
    pub fn is_empty(&self) -> bool {
        self.num_bits == 0
    }

    /// Number of set bits. One pass over the encoded words: a popcount
    /// per literal, a multiply per fill — no per-word cursor tracking.
    ///
    /// Canonical encodings (everything [`WahBitmap::to_bytes`] emits)
    /// keep unused tail-literal bits clear, so counting whole words is
    /// exact. A non-canonical (corrupt) input with junk tail bits
    /// over-counts, which only makes consistency checks against an
    /// expected count *more* likely to reject it.
    pub fn count_ones(&self) -> u64 {
        let mut total = 0u64;
        for &w in self.words {
            if w & FILL_FLAG != 0 {
                if w & FILL_BIT != 0 {
                    total += u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                }
            } else {
                total += u64::from(w.count_ones());
            }
        }
        total
    }

    /// Visit every run of set bits as `f(gap, ones_before, len)` in
    /// position order, where `gap` is the number of clear bits since
    /// the previous visited run (or the start), `ones_before` the
    /// number of set bits strictly before the run (the rank of its
    /// first position — exactly the index of its first value in a
    /// densely packed value block), and `len` the run length.
    ///
    /// Unlike [`iter_runs`](Self::iter_runs), runs are *not*
    /// guaranteed maximal: adjacent set runs may be reported
    /// separately (e.g. a one fill followed by a literal starting with
    /// ones). Dropping the merge lookahead and folding clear gaps into
    /// the next visit makes this the cheapest way to walk a bitmap —
    /// one closure call and one shift/`trailing_zeros` pair per set
    /// run inside literal words, no iterator state machine. Trailing
    /// clear bits are never reported.
    #[inline]
    pub fn for_each_one_run(&self, mut f: impl FnMut(u64, u64, u64)) {
        let mut ones_before = 0u64;
        let mut gap = 0u64;
        let mut remaining = self.num_bits;
        for &w in self.words {
            if remaining == 0 {
                break;
            }
            if w & FILL_FLAG != 0 {
                let len = (u64::from(w & FILL_COUNT_MASK) * GROUP_BITS).min(remaining);
                remaining -= len;
                if w & FILL_BIT != 0 {
                    f(gap, ones_before, len);
                    gap = 0;
                    ones_before += len;
                } else {
                    gap += len;
                }
            } else {
                let nbits = GROUP_BITS.min(remaining);
                remaining -= nbits;
                // Bit 0 of the literal is the lowest position; peel
                // alternating zero/one stretches off the low end.
                let mut m = w & LITERAL_MASK;
                if nbits < GROUP_BITS {
                    m &= (1u32 << nbits) - 1;
                }
                let mut consumed = 0u64;
                while m != 0 {
                    let z = u64::from(m.trailing_zeros());
                    m >>= z;
                    let o = u64::from((!m).trailing_zeros());
                    f(gap + z, ones_before, o);
                    gap = 0;
                    ones_before += o;
                    m >>= o;
                    consumed += z + o;
                }
                gap += nbits - consumed;
            }
        }
    }

    /// Iterate maximal `(start, len, bit)` runs — see
    /// [`WahBitmap::iter_runs`].
    pub fn iter_runs(&self) -> BitRunsIter<'a> {
        BitRunsIter {
            words: self.words,
            word_idx: 0,
            bit_cursor: 0,
            num_bits: self.num_bits,
            literal: 0,
            literal_rem: 0,
            pending: None,
        }
    }

    /// Iterate positions of set bits in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'a> {
        OnesIter {
            words: self.words,
            num_bits: self.num_bits,
            word_idx: 0,
            bit_cursor: 0,
            pending_fill_groups: 0,
            pending_fill_bit: false,
            literal: 0,
            literal_base: 0,
            literal_active: false,
        }
    }
}

/// Words per sampled checkpoint in a [`RankSelectDir`].
///
/// 64 words = 256 bitmap bytes per 8-byte sample, so a directory costs
/// ~3.1% of the compressed bitmap it describes.
pub const RANK_SAMPLE_WORDS: usize = 64;

/// Sampled rank/select directory over an encoded WAH word stream.
///
/// `samples[j]` holds the cumulative `(bits, ones)` totals of the first
/// `(j + 1) * RANK_SAMPLE_WORDS` encoded words (padded group bits for
/// `bits`; exact for `ones` because canonical encodings keep padding
/// bits clear). [`WahRef::rank_with`] / [`WahRef::select_with`] binary
/// search the samples and then peel at most one sample stride of words,
/// turning the linear walks of [`WahBitmap::rank`] / `select` into
/// O(log samples + S) probes.
///
/// Bitmaps of at most `RANK_SAMPLE_WORDS` words get an *empty*
/// directory (zero serialized bytes, `rank_with` degrades to a bounded
/// linear walk), so short bitmaps pay no overhead at all. Directories
/// are also left empty when cumulative totals would overflow the `u32`
/// samples (bitmaps beyond 4 Gbit).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankSelectDir {
    sample_every: u32,
    samples: Vec<(u32, u32)>,
}

impl RankSelectDir {
    /// A directory with no samples: every query walks from word 0.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a directory for `b` in one pass over its encoded words.
    pub fn build(b: WahRef<'_>) -> Self {
        let every = RANK_SAMPLE_WORDS;
        let nwords = b.words.len();
        if nwords <= every {
            return Self::empty();
        }
        let mut samples = Vec::with_capacity(nwords / every);
        let mut bits = 0u64;
        let mut ones = 0u64;
        for (i, &w) in b.words.iter().enumerate() {
            if w & FILL_FLAG != 0 {
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                bits += nbits;
                if w & FILL_BIT != 0 {
                    ones += nbits;
                }
            } else {
                bits += GROUP_BITS;
                ones += u64::from(w.count_ones());
            }
            if (i + 1) % every == 0 && i + 1 < nwords {
                if bits > u64::from(u32::MAX) || ones > u64::from(u32::MAX) {
                    return Self::empty();
                }
                samples.push((bits as u32, ones as u32));
            }
        }
        RankSelectDir {
            sample_every: every as u32,
            samples,
        }
    }

    /// True when no samples were taken (short bitmap or overflow guard).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialized size in bytes (zero when empty).
    pub fn size_in_bytes(&self) -> usize {
        if self.samples.is_empty() {
            0
        } else {
            8 + self.samples.len() * 8
        }
    }

    /// Serialize; an empty directory serializes to zero bytes so short
    /// bitmaps carry no trailer at all.
    pub fn to_bytes(&self) -> Vec<u8> {
        if self.samples.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.size_in_bytes());
        out.extend_from_slice(&(self.samples.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.sample_every.to_le_bytes());
        for &(bits, ones) in &self.samples {
            out.extend_from_slice(&bits.to_le_bytes());
            out.extend_from_slice(&ones.to_le_bytes());
        }
        out
    }

    /// Deserialize [`Self::to_bytes`] output; the empty slice decodes
    /// to the empty directory. Returns the directory and bytes consumed.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), BitmapError> {
        if data.is_empty() {
            return Ok((Self::empty(), 0));
        }
        if data.len() < 8 {
            return Err(BitmapError::Truncated);
        }
        let n = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        let sample_every = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if sample_every == 0 || n == 0 {
            return Err(BitmapError::Truncated);
        }
        let need = 8 + n.saturating_mul(8);
        if data.len() < need {
            return Err(BitmapError::Truncated);
        }
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let off = 8 + i * 8;
            let bits = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
            let ones = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
            samples.push((bits, ones));
        }
        Ok((
            RankSelectDir {
                sample_every,
                samples,
            },
            need,
        ))
    }

    /// Start state `(word_idx, bits, ones)` for a walk that must reach
    /// bit position `pos`: the last checkpoint with `bits <= pos`.
    fn seek_bits(&self, pos: u64) -> (usize, u64, u64) {
        let idx = self.samples.partition_point(|s| u64::from(s.0) <= pos);
        if idx == 0 {
            (0, 0, 0)
        } else {
            let (bits, ones) = self.samples[idx - 1];
            (
                idx * self.sample_every as usize,
                u64::from(bits),
                u64::from(ones),
            )
        }
    }

    /// Start state for a walk that must reach the `k`-th set bit: the
    /// last checkpoint with `ones <= k`.
    fn seek_ones(&self, k: u64) -> (usize, u64, u64) {
        let idx = self.samples.partition_point(|s| u64::from(s.1) <= k);
        if idx == 0 {
            (0, 0, 0)
        } else {
            let (bits, ones) = self.samples[idx - 1];
            (
                idx * self.sample_every as usize,
                u64::from(bits),
                u64::from(ones),
            )
        }
    }
}

impl WahRef<'_> {
    /// Number of set bits in `[0, pos)` via the sampled directory:
    /// binary search to the nearest checkpoint, then walk at most one
    /// sample stride of words (fills resolved arithmetically, literals
    /// by masked popcount).
    ///
    /// # Panics
    /// Panics if `pos` exceeds the bitmap length.
    pub fn rank_with(&self, dir: &RankSelectDir, pos: u64) -> u64 {
        assert!(pos <= self.num_bits, "rank position {pos} out of range");
        let (start, mut bits, mut ones) = dir.seek_bits(pos);
        for &w in &self.words[start.min(self.words.len())..] {
            if w & FILL_FLAG != 0 {
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                if pos < bits + nbits {
                    if w & FILL_BIT != 0 {
                        ones += pos - bits;
                    }
                    return ones;
                }
                bits += nbits;
                if w & FILL_BIT != 0 {
                    ones += nbits;
                }
            } else {
                if pos < bits + GROUP_BITS {
                    let mask = (1u32 << (pos - bits)) - 1;
                    return ones + u64::from((w & LITERAL_MASK & mask).count_ones());
                }
                bits += GROUP_BITS;
                // Canonical padding bits are clear, so the whole-word
                // popcount is exact even for the trailing group.
                ones += u64::from((w & LITERAL_MASK).count_ones());
            }
        }
        ones
    }

    /// Rank of `pos` together with the bit stored at `pos`, in one
    /// directory-guided walk — the membership-probe primitive: the rank
    /// indexes the chunk's packed value block, the bit says whether the
    /// position is present at all.
    ///
    /// # Panics
    /// Panics if `pos` is not strictly inside the bitmap.
    pub fn rank_bit_with(&self, dir: &RankSelectDir, pos: u64) -> (u64, bool) {
        assert!(pos < self.num_bits, "bit {pos} out of range");
        let (start, mut bits, mut ones) = dir.seek_bits(pos);
        for &w in &self.words[start.min(self.words.len())..] {
            if w & FILL_FLAG != 0 {
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                let set = w & FILL_BIT != 0;
                if pos < bits + nbits {
                    if set {
                        ones += pos - bits;
                    }
                    return (ones, set);
                }
                bits += nbits;
                if set {
                    ones += nbits;
                }
            } else {
                if pos < bits + GROUP_BITS {
                    let lit = w & LITERAL_MASK;
                    let mask = (1u32 << (pos - bits)) - 1;
                    return (
                        ones + u64::from((lit & mask).count_ones()),
                        (lit >> (pos - bits)) & 1 == 1,
                    );
                }
                bits += GROUP_BITS;
                ones += u64::from((w & LITERAL_MASK).count_ones());
            }
        }
        unreachable!("pos checked against num_bits");
    }

    /// Position of the `k`-th set bit (0-indexed) via the sampled
    /// directory, or `None` when fewer than `k + 1` bits are set.
    pub fn select_with(&self, dir: &RankSelectDir, k: u64) -> Option<u64> {
        let (start, mut bits, mut ones) = dir.seek_ones(k);
        for &w in &self.words[start.min(self.words.len())..] {
            if w & FILL_FLAG != 0 {
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                if w & FILL_BIT != 0 {
                    if k < ones + nbits {
                        return Some(bits + (k - ones));
                    }
                    ones += nbits;
                }
                bits += nbits;
            } else {
                let lit = w & LITERAL_MASK;
                let c = u64::from(lit.count_ones());
                if k < ones + c {
                    // Peel down to the (k - ones)-th set bit.
                    let mut m = lit;
                    for _ in 0..(k - ones) {
                        m &= m - 1;
                    }
                    return Some(bits + u64::from(m.trailing_zeros()));
                }
                ones += c;
                bits += GROUP_BITS;
            }
        }
        None
    }
}

/// Iterator over set-bit positions.
pub struct OnesIter<'a> {
    words: &'a [u32],
    num_bits: u64,
    word_idx: usize,
    bit_cursor: u64,
    pending_fill_groups: u32,
    pending_fill_bit: bool,
    literal: u32,
    literal_base: u64,
    literal_active: bool,
}

impl Iterator for OnesIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.literal_active {
                if self.literal != 0 {
                    let tz = self.literal.trailing_zeros() as u64;
                    self.literal &= self.literal - 1;
                    let pos = self.literal_base + tz;
                    if pos < self.num_bits {
                        return Some(pos);
                    }
                    continue;
                }
                self.literal_active = false;
            }
            if self.pending_fill_groups > 0 {
                // Fills of ones are expanded group by group through the
                // literal path; fills of zeros are skipped wholesale.
                if self.pending_fill_bit {
                    self.literal = LITERAL_MASK;
                    self.literal_base = self.bit_cursor;
                    self.literal_active = true;
                    self.pending_fill_groups -= 1;
                    self.bit_cursor += GROUP_BITS;
                    continue;
                } else {
                    self.bit_cursor += self.pending_fill_groups as u64 * GROUP_BITS;
                    self.pending_fill_groups = 0;
                }
            }
            let w = *self.words.get(self.word_idx)?;
            self.word_idx += 1;
            if w & FILL_FLAG != 0 {
                self.pending_fill_bit = w & FILL_BIT != 0;
                self.pending_fill_groups = w & FILL_COUNT_MASK;
            } else {
                self.literal = w;
                self.literal_base = self.bit_cursor;
                self.literal_active = true;
                self.bit_cursor += GROUP_BITS;
            }
        }
    }
}

/// Incremental WAH bitmap builder.
#[derive(Debug, Default)]
pub struct WahBuilder {
    words: Vec<u32>,
    /// Bits accumulated into the current (incomplete) group.
    active: u32,
    active_bits: u32,
    num_bits: u64,
}

impl WahBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if bit {
            self.active |= 1 << self.active_bits;
        }
        self.active_bits += 1;
        self.num_bits += 1;
        if u64::from(self.active_bits) == GROUP_BITS {
            self.flush_group();
        }
    }

    /// Append `count` copies of `bit`.
    pub fn append_run(&mut self, bit: bool, mut count: u64) {
        // Fill the current partial group first.
        while self.active_bits != 0 && count > 0 {
            self.push(bit);
            count -= 1;
        }
        // Emit whole groups as fills.
        let groups = count / GROUP_BITS;
        if groups > 0 {
            self.emit_fill(bit, groups);
            self.num_bits += groups * GROUP_BITS;
            count -= groups * GROUP_BITS;
        }
        // Remainder goes into the new partial group.
        for _ in 0..count {
            self.push(bit);
        }
    }

    fn flush_group(&mut self) {
        let g = self.active & LITERAL_MASK;
        self.active = 0;
        self.active_bits = 0;
        if g == 0 {
            self.emit_fill(false, 1);
        } else if g == LITERAL_MASK {
            self.emit_fill(true, 1);
        } else {
            self.words.push(g);
        }
    }

    fn emit_fill(&mut self, bit: bool, mut groups: u64) {
        // Merge with a preceding fill of the same kind when possible.
        if let Some(&last) = self.words.last() {
            if last & FILL_FLAG != 0 && (last & FILL_BIT != 0) == bit {
                let existing = u64::from(last & FILL_COUNT_MASK);
                let merged = existing + groups;
                if merged <= u64::from(MAX_FILL_GROUPS) {
                    let w = FILL_FLAG
                        | if bit { FILL_BIT } else { 0 }
                        | (merged as u32 & FILL_COUNT_MASK);
                    *self.words.last_mut().unwrap() = w;
                    return;
                }
                // Top up the existing fill, emit the rest below.
                let room = u64::from(MAX_FILL_GROUPS) - existing;
                let w = FILL_FLAG | if bit { FILL_BIT } else { 0 } | MAX_FILL_GROUPS;
                *self.words.last_mut().unwrap() = w;
                groups -= room;
            }
        }
        while groups > 0 {
            let take = groups.min(u64::from(MAX_FILL_GROUPS));
            self.words
                .push(FILL_FLAG | if bit { FILL_BIT } else { 0 } | (take as u32));
            groups -= take;
        }
    }

    /// Append a whole 31-bit group at once. Only valid when the builder
    /// is group-aligned (no partial bits pending).
    ///
    /// # Panics
    /// Panics if bits have been pushed since the last group boundary.
    pub fn push_group(&mut self, group: u32) {
        assert_eq!(self.active_bits, 0, "push_group requires group alignment");
        let g = group & LITERAL_MASK;
        self.num_bits += GROUP_BITS;
        if g == 0 {
            self.emit_fill(false, 1);
        } else if g == LITERAL_MASK {
            self.emit_fill(true, 1);
        } else {
            self.words.push(g);
        }
    }

    /// Finish building; a trailing partial group is stored as a literal.
    pub fn finish(mut self) -> WahBitmap {
        if self.active_bits > 0 {
            // Store the partial group as a literal (padding bits zero).
            self.words.push(self.active & LITERAL_MASK);
            self.active = 0;
            self.active_bits = 0;
        }
        WahBitmap {
            words: self.words,
            num_bits: self.num_bits,
        }
    }

    /// Bits appended so far.
    pub fn len(&self) -> u64 {
        self.num_bits
    }

    /// True when no bits have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.num_bits == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitmap() {
        let b = WahBuilder::new().finish();
        assert_eq!(b.len(), 0);
        assert_eq!(b.count_ones(), 0);
        assert!(b.to_positions().is_empty());
    }

    #[test]
    fn from_bools_roundtrip() {
        let bits: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
        let b = WahBitmap::from_bools(&bits);
        assert_eq!(b.len(), 200);
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(b.get(i as u64), bit, "bit {i}");
        }
        let ones: Vec<u64> = b.to_positions();
        let expect: Vec<u64> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn long_zero_run_compresses() {
        let b = WahBitmap::from_sorted_positions(1_000_000, &[0, 999_999]);
        assert!(b.size_in_bytes() < 64, "size {}", b.size_in_bytes());
        assert_eq!(b.count_ones(), 2);
        assert_eq!(b.to_positions(), vec![0, 999_999]);
    }

    #[test]
    fn long_one_run_compresses() {
        let b = WahBitmap::ones(1_000_000);
        assert!(b.size_in_bytes() < 64);
        assert_eq!(b.count_ones(), 1_000_000);
        assert!(b.get(0) && b.get(999_999));
    }

    #[test]
    fn padding_bits_are_not_ones() {
        // 33 bits = one full group + 2 bits: padding must not count.
        let b = WahBitmap::ones(33);
        assert_eq!(b.count_ones(), 33);
        assert_eq!(b.to_positions().len(), 33);
    }

    #[test]
    fn from_sorted_positions_matches_bools() {
        let pos = [3u64, 31, 32, 62, 63, 64, 100];
        let a = WahBitmap::from_sorted_positions(128, &pos);
        let bits: Vec<bool> = (0..128u64).map(|i| pos.contains(&i)).collect();
        let b = WahBitmap::from_bools(&bits);
        assert_eq!(a.to_positions(), b.to_positions());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn serialization_roundtrip() {
        let b = WahBitmap::from_sorted_positions(10_000, &[5, 93, 94, 95, 9_999]);
        let bytes = b.to_bytes();
        let (b2, consumed) = WahBitmap::from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(b, b2);
    }

    #[test]
    fn serialization_rejects_garbage() {
        assert_eq!(
            WahBitmap::from_bytes(&[1, 2, 3]),
            Err(BitmapError::Truncated)
        );
        let mut bytes = WahBitmap::ones(10).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            WahBitmap::from_bytes(&bytes),
            Err(BitmapError::BadMagic(_))
        ));
    }

    #[test]
    fn serialization_rejects_length_disagreeing_with_words() {
        // Hand-built header: 40 bits need two groups, but the stream
        // holds one literal word (31 bits).
        let mut bytes = MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&40u64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0x5u32.to_le_bytes());
        let want = Err(BitmapError::LengthMismatch {
            num_bits: 40,
            covered_bits: 31,
        });
        assert_eq!(WahBitmap::from_bytes(&bytes), want);
        let mut scratch = Vec::new();
        assert!(matches!(
            WahRef::decode_into(&bytes, &mut scratch),
            Err(BitmapError::LengthMismatch {
                num_bits: 40,
                covered_bits: 31
            })
        ));
        // A header claiming more than 2^24 bits over the same word.
        bytes[4..12].copy_from_slice(&(1u64 << 25).to_le_bytes());
        assert!(matches!(
            WahBitmap::from_bytes(&bytes),
            Err(BitmapError::LengthMismatch { .. })
        ));
        // 31 bits are exactly one group: consistent.
        bytes[4..12].copy_from_slice(&31u64.to_le_bytes());
        let (b, _) = WahBitmap::from_bytes(&bytes).unwrap();
        assert_eq!(b.to_positions(), vec![0, 2]);
    }

    #[test]
    fn append_run_mixed() {
        let mut b = WahBuilder::new();
        b.append_run(false, 10);
        b.append_run(true, 50);
        b.append_run(false, 3);
        b.push(true);
        let bm = b.finish();
        assert_eq!(bm.len(), 64);
        assert_eq!(bm.count_ones(), 51);
        assert!(!bm.get(9));
        assert!(bm.get(10));
        assert!(bm.get(59));
        assert!(!bm.get(62));
        assert!(bm.get(63));
    }

    /// Reference run decomposition straight from per-bit iteration.
    fn naive_runs(b: &WahBitmap) -> Vec<(u64, u64, bool)> {
        let mut out: Vec<(u64, u64, bool)> = Vec::new();
        for pos in 0..b.len() {
            let bit = b.get(pos);
            match out.last_mut() {
                Some((_, len, rb)) if *rb == bit => *len += 1,
                _ => out.push((pos, 1, bit)),
            }
        }
        out
    }

    #[test]
    fn iter_runs_partitions_and_alternates() {
        let cases = [
            WahBitmap::from_sorted_positions(200, &[0, 1, 2, 50, 51, 199]),
            WahBitmap::ones(100),
            WahBitmap::zeros(100),
            WahBitmap::from_sorted_positions(1_000_000, &[0, 31, 62, 999_999]),
            WahBuilder::new().finish(),
            WahBitmap::from_bools(&(0..97).map(|i| i % 2 == 0).collect::<Vec<_>>()),
        ];
        for b in &cases {
            let runs: Vec<_> = b.iter_runs().collect();
            assert_eq!(runs, naive_runs(b));
            // Runs tile [0, len) and alternate bits.
            let mut cursor = 0u64;
            for w in runs.windows(2) {
                assert_ne!(w[0].2, w[1].2, "adjacent runs share a bit");
            }
            for &(start, len, _) in &runs {
                assert_eq!(start, cursor);
                assert!(len > 0);
                cursor += len;
            }
            assert_eq!(cursor, b.len());
        }
    }

    #[test]
    fn iter_runs_long_fills_are_single_runs() {
        // ones fill + literal tail of ones must merge into one run.
        let mut bld = WahBuilder::new();
        bld.append_run(true, 31 * 100);
        bld.append_run(true, 5);
        bld.append_run(false, 7);
        let b = bld.finish();
        let runs: Vec<_> = b.iter_runs().collect();
        assert_eq!(runs, vec![(0, 3105, true), (3105, 7, false)]);
    }

    #[test]
    fn rank_select_roundtrip() {
        let pos = [3u64, 31, 32, 62, 63, 64, 100, 9_999];
        let b = WahBitmap::from_sorted_positions(10_000, &pos);
        for (k, &p) in pos.iter().enumerate() {
            assert_eq!(b.select(k as u64), Some(p));
            assert_eq!(b.rank(p), k as u64);
            assert_eq!(b.rank(p + 1), k as u64 + 1);
        }
        assert_eq!(b.select(pos.len() as u64), None);
        assert_eq!(b.rank(0), 0);
        assert_eq!(b.rank(b.len()), b.count_ones());
    }

    #[test]
    fn dir_small_bitmap_is_empty_and_costless() {
        let b = WahBitmap::from_sorted_positions(1_000, &[1, 500, 999]);
        assert!(b.words().len() <= RANK_SAMPLE_WORDS);
        let dir = RankSelectDir::build(b.as_ref());
        assert!(dir.is_empty());
        assert_eq!(dir.size_in_bytes(), 0);
        assert!(dir.to_bytes().is_empty());
        // Queries still work through the empty directory.
        assert_eq!(b.as_ref().rank_with(&dir, 501), 2);
        assert_eq!(b.as_ref().select_with(&dir, 2), Some(999));
        assert_eq!(b.as_ref().rank_bit_with(&dir, 500), (1, true));
        assert_eq!(b.as_ref().rank_bit_with(&dir, 501), (2, false));
    }

    /// A bitmap long enough to carry samples: alternating literal noise
    /// and multi-group fills of both polarities.
    fn sampled_case() -> WahBitmap {
        let mut bld = WahBuilder::new();
        for i in 0..200u64 {
            match i % 4 {
                0 => {
                    for j in 0..31 {
                        bld.push((i + j) % 3 == 0);
                    }
                }
                1 => bld.append_run(false, 31 * (1 + i % 5)),
                2 => bld.append_run(true, 31 * (1 + i % 7)),
                _ => {
                    for j in 0..17 {
                        bld.push((i + j) % 2 == 0);
                    }
                }
            }
        }
        bld.finish()
    }

    #[test]
    fn dir_rank_select_match_linear() {
        let b = sampled_case();
        assert!(b.words().len() > RANK_SAMPLE_WORDS, "case too small");
        let dir = RankSelectDir::build(b.as_ref());
        assert!(!dir.is_empty());
        let r = b.as_ref();
        for pos in (0..b.len()).step_by(13) {
            assert_eq!(r.rank_with(&dir, pos), b.rank(pos), "rank at {pos}");
            let (rank, bit) = r.rank_bit_with(&dir, pos);
            assert_eq!(rank, b.rank(pos));
            assert_eq!(bit, b.get(pos), "bit at {pos}");
        }
        assert_eq!(r.rank_with(&dir, b.len()), b.count_ones());
        let total = b.count_ones();
        for k in (0..total).step_by(11) {
            assert_eq!(r.select_with(&dir, k), b.select(k), "select {k}");
            let p = r.select_with(&dir, k).unwrap();
            assert_eq!(r.rank_with(&dir, p), k, "rank(select({k}))");
        }
        assert_eq!(r.select_with(&dir, total), None);
    }

    #[test]
    fn dir_serde_roundtrip() {
        let b = sampled_case();
        let dir = RankSelectDir::build(b.as_ref());
        let bytes = dir.to_bytes();
        assert_eq!(bytes.len(), dir.size_in_bytes());
        let (dir2, consumed) = RankSelectDir::from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(dir, dir2);
        // Empty roundtrip.
        let (e, c) = RankSelectDir::from_bytes(&[]).unwrap();
        assert!(e.is_empty());
        assert_eq!(c, 0);
        // Truncation is rejected.
        assert_eq!(
            RankSelectDir::from_bytes(&bytes[..bytes.len() - 1]),
            Err(BitmapError::Truncated)
        );
        assert_eq!(
            RankSelectDir::from_bytes(&bytes[..4]),
            Err(BitmapError::Truncated)
        );
    }

    #[test]
    fn dir_overhead_is_bounded() {
        let b = sampled_case();
        let dir = RankSelectDir::build(b.as_ref());
        let frac = dir.size_in_bytes() as f64 / b.size_in_bytes() as f64;
        assert!(frac <= 0.05, "directory overhead {frac:.3} > 5%");
    }

    #[test]
    fn giant_fill_merging() {
        // Force multiple merge paths in emit_fill.
        let mut b = WahBuilder::new();
        for _ in 0..10 {
            b.append_run(false, 31 * 1000);
        }
        let bm = b.finish();
        assert_eq!(bm.len(), 31 * 10_000);
        assert_eq!(bm.count_ones(), 0);
        // All merged into a single fill word.
        assert_eq!(bm.words().len(), 1);
    }
}
