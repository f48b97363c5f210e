//! SIMD bit-packed compressed column storage with fused
//! decompress-and-operate kernels.
//!
//! The paper's vertical kernels (selection scan §4, histogram §7) read
//! uncompressed 32-bit columns, so at production scale they are
//! memory-bandwidth-bound long before the SIMD lanes saturate. Following
//! Lemire & Boytsov ("Decoding billions of integers per second through
//! vectorization"), horizontal SIMD bit-packing decodes far faster than
//! memory can deliver raw values — so a compressed column layer is a net
//! throughput win for bandwidth-bound operators, not a tax.
//!
//! # Block format
//!
//! A column is split into blocks of [`BLOCK_LEN`] = 512 values. Each block
//! is **frame-of-reference** encoded: the block minimum is subtracted and
//! the deltas are bit-packed with the smallest width `b` (0–32 bits) that
//! fits the block's largest delta. Block `minimum`, `width` and word
//! `offset` live in a per-block directory ([`BlockMeta`]), giving O(1)
//! random access.
//!
//! Within a block, value `i` belongs to **format lane** `i % 16` at
//! **position** `i / 16`: sixteen interleaved bitstreams of 32 positions
//! each, so a full block packs to exactly `16 × b` words with zero
//! padding waste at every width. Word `w` of lane `l` is stored at
//! `words[w·16 + l]`. Because the position — and therefore the bit offset
//! `pos·b` — is uniform across any aligned run of ≤ 16 lanes, both the
//! 8-lane (AVX2) and 16-lane (AVX-512/portable) backends decode with
//! contiguous vector loads and *uniform* shifts: no gathers, no per-lane
//! shift counts. See DESIGN.md §5c.
//!
//! # Fused kernels
//!
//! [`select_fused`] and [`histogram_fused`] decompress one vector of
//! values into registers and feed it straight into the paper's vertical
//! operators without materializing the column. All six [`ScanVariant`]s
//! are reachable; the indirect variants decode payloads *per qualifier*
//! through the random-access directory, never touching payload blocks
//! whose tuples all fail the predicate. Parallel runs go through
//! `rsv-exec`'s morsel scheduler with morsel boundaries snapped to block
//! boundaries ([`select_fused_parallel`], [`histogram_fused_parallel`]).

#![deny(missing_docs)]
#![warn(clippy::all)]
// Engine code surfaces failures as typed errors, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod diff;
mod fused;
mod pack;
mod parallel;

pub use fused::{
    histogram_fused, histogram_fused_into, histogram_fused_range_into, reduce_partial, select_fused,
};
pub use parallel::{histogram_fused_parallel, select_fused_parallel};

use rsv_data::Relation;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::{dispatch, Backend, Simd};

/// Tuples per compressed block (16 format lanes × 32 positions).
pub const BLOCK_LEN: usize = FORMAT_LANES * POSITIONS;

/// Interleave factor of the packed layout: value `i` of a block lives in
/// format lane `i % FORMAT_LANES`. Fixed at 16 so the layout is identical
/// no matter which backend packed it; backends with fewer lanes (AVX2's 8)
/// cover a format position with multiple vectors.
pub const FORMAT_LANES: usize = 16;

/// Bit-packed positions per format lane per block. 32 positions × `b` bits
/// fill exactly `b` 32-bit words, so no width wastes padding bits.
pub const POSITIONS: usize = 32;

/// Per-block directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Frame-of-reference offset: the smallest value in the block.
    pub min: u32,
    /// Packed bits per value (0–32). Width 0 means every value equals
    /// `min` and the block stores no words.
    pub width: u8,
    /// Start of this block's words in [`CompressedColumn::packed_words`].
    pub offset: usize,
}

/// A bit-packed, frame-of-reference compressed `u32` column.
///
/// Built by [`CompressedColumn::pack`] (any backend produces byte-identical
/// packed words), decoded wholesale by [`CompressedColumn::unpack`], by
/// random access ([`CompressedColumn::get`]), or — the point of the
/// exercise — operated on directly by the fused kernels
/// ([`CompressedRelation::select`], [`CompressedColumn::histogram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedColumn {
    pub(crate) len: usize,
    /// All blocks' packed words, concatenated (block `i` owns
    /// `words[blocks[i].offset ..][..16 * width]`).
    pub(crate) words: Vec<u32>,
    pub(crate) blocks: Vec<BlockMeta>,
}

impl CompressedColumn {
    /// Compress with per-block natural widths on the given backend.
    ///
    /// The packed bytes are canonical: every backend produces the same
    /// words for the same input.
    pub fn pack(backend: Backend, values: &[u32]) -> CompressedColumn {
        dispatch!(backend, s => { pack::pack_vector(s, values, None) })
    }

    /// Compress forcing every block to `width` bits.
    ///
    /// # Panics
    /// If any block's `max − min` needs more than `width` bits.
    pub fn pack_with_width(backend: Backend, values: &[u32], width: u8) -> CompressedColumn {
        dispatch!(backend, s => { pack::pack_vector(s, values, Some(width)) })
    }

    /// Scalar reference compressor (same canonical bytes as [`pack`]).
    ///
    /// [`pack`]: CompressedColumn::pack
    pub fn pack_scalar(values: &[u32]) -> CompressedColumn {
        pack::pack_scalar(values, None)
    }

    /// Scalar reference compressor with a forced width.
    pub fn pack_scalar_with_width(values: &[u32], width: u8) -> CompressedColumn {
        pack::pack_scalar(values, Some(width))
    }

    /// Decompress the whole column on the given backend.
    pub fn unpack(&self, backend: Backend) -> Vec<u32> {
        dispatch!(backend, s => { pack::unpack_vector(s, self) })
    }

    /// Scalar reference decompressor.
    pub fn unpack_scalar(&self) -> Vec<u32> {
        pack::unpack_scalar(self)
    }

    /// Random access: the value at index `i`, decoded through the block
    /// directory in O(1).
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let blk = &self.blocks[i / BLOCK_LEN];
        pack::decode_one(
            &self.words[blk.offset..],
            u32::from(blk.width),
            blk.min,
            i % BLOCK_LEN,
        )
    }

    /// Fused compressed histogram (paper §7.1 over compressed input): one
    /// count per partition of `f`, without materializing the column.
    pub fn histogram<F: rsv_partition::PartitionFn>(&self, backend: Backend, f: F) -> Vec<u32> {
        dispatch!(backend, s => { histogram_fused(s, self, f) })
    }

    /// Number of (logical, uncompressed) values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks (including a possibly partial tail block).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The per-block directory.
    pub fn block_directory(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// The packed words of all blocks.
    pub fn packed_words(&self) -> &[u32] {
        &self.words
    }

    /// Bytes of packed words plus directory.
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 4 + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Uncompressed bytes over compressed bytes (∞-free: empty columns
    /// report 1.0).
    pub fn compression_ratio(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        (self.len * 4) as f64 / self.packed_bytes() as f64
    }

    /// The largest block width in the column (0 for an empty column).
    pub fn max_width(&self) -> u8 {
        self.blocks.iter().map(|b| b.width).max().unwrap_or(0)
    }
}

/// A [`Relation`] with both columns compressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedRelation {
    /// Compressed key column.
    pub keys: CompressedColumn,
    /// Compressed payload column.
    pub payloads: CompressedColumn,
}

impl CompressedRelation {
    /// Compress a relation on the given backend.
    pub fn compress_with(backend: Backend, rel: &Relation) -> CompressedRelation {
        CompressedRelation {
            keys: CompressedColumn::pack(backend, &rel.keys),
            payloads: CompressedColumn::pack(backend, &rel.payloads),
        }
    }

    /// Compress a relation on the best available backend.
    pub fn compress(rel: &Relation) -> CompressedRelation {
        Self::compress_with(Backend::best(), rel)
    }

    /// Decompress back into a materialized relation.
    pub fn decompress_with(&self, backend: Backend) -> Relation {
        Relation::new(self.keys.unpack(backend), self.payloads.unpack(backend))
    }

    /// [`decompress_with`](Self::decompress_with) on the best backend.
    pub fn decompress(&self) -> Relation {
        self.decompress_with(Backend::best())
    }

    /// Fused compressed selection scan (paper §4 over compressed input):
    /// qualifiers of `lower ≤ key ≤ upper` land at the front of
    /// `out_keys` / `out_pays` (input order), and the qualifier count is
    /// returned. Output is byte-identical to running `variant` on the
    /// decompressed columns.
    ///
    /// # Panics
    /// If the output slices are shorter than `self.len()`.
    pub fn select(
        &self,
        backend: Backend,
        variant: ScanVariant,
        pred: ScanPredicate,
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        select_fused(
            backend,
            variant,
            &self.keys,
            &self.payloads,
            pred,
            out_keys,
            out_pays,
        )
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Compressed bytes of both columns.
    pub fn packed_bytes(&self) -> usize {
        self.keys.packed_bytes() + self.payloads.packed_bytes()
    }

    /// Uncompressed bytes over compressed bytes across both columns.
    pub fn compression_ratio(&self) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        (self.len() * 8) as f64 / self.packed_bytes() as f64
    }
}

/// `Relation`-level compression entry points (`rel.compress()`), so callers
/// do not need to name [`CompressedRelation`].
pub trait RelationCompressExt {
    /// Compress both columns on the best available backend.
    fn compress(&self) -> CompressedRelation;
    /// Compress both columns on a specific backend.
    fn compress_with(&self, backend: Backend) -> CompressedRelation;
}

impl RelationCompressExt for Relation {
    fn compress(&self) -> CompressedRelation {
        CompressedRelation::compress(self)
    }
    fn compress_with(&self, backend: Backend) -> CompressedRelation {
        CompressedRelation::compress_with(backend, self)
    }
}

/// The packed-delta mask for a width (`width ≤ 32`).
#[inline(always)]
pub(crate) fn width_mask(width: u32) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

/// Bits needed to store `delta` (0 for 0).
#[inline(always)]
pub(crate) fn bits_for(delta: u32) -> u8 {
    (32 - delta.leading_zeros()) as u8
}

/// Instantiation guard for the generic kernels: the fixed 16-lane format
/// is decodable with uniform shifts only when the backend width divides
/// [`FORMAT_LANES`]. Every real backend (8- and 16-lane, and the portable
/// power-of-two widths) satisfies this.
#[inline(always)]
pub(crate) fn assert_lanes<S: Simd>() {
    assert!(
        S::LANES <= FORMAT_LANES && FORMAT_LANES.is_multiple_of(S::LANES),
        "backend width {} does not divide the {FORMAT_LANES}-lane block format",
        S::LANES
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_constants_are_consistent() {
        assert_eq!(BLOCK_LEN, 512);
        assert_eq!(FORMAT_LANES * POSITIONS, BLOCK_LEN);
        // 32 positions × b bits is always a whole number of words.
        for b in 0..=32usize {
            assert_eq!(POSITIONS * b % 32, 0);
        }
    }

    #[test]
    fn width_mask_and_bits() {
        assert_eq!(width_mask(0), 0);
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(31), u32::MAX >> 1);
        assert_eq!(width_mask(32), u32::MAX);
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u32::MAX), 32);
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn relation_round_trips_through_compression() {
        let mut rng = rsv_data::rng(42);
        let rel = Relation::with_rid_payloads(rsv_data::uniform_u32(3000, &mut rng));
        for backend in Backend::all_available() {
            let c = rel.compress_with(backend);
            assert_eq!(c.decompress_with(backend), rel, "{}", backend.name());
            assert_eq!(c.len(), rel.len());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn rid_payloads_compress_well() {
        // 512 consecutive rids per block span 511 => 9-bit deltas.
        let rel = Relation::with_rid_payloads(vec![7u32; 1 << 16]);
        let c = CompressedRelation::compress(&rel);
        assert_eq!(c.keys.max_width(), 0, "constant keys pack to width 0");
        assert_eq!(c.payloads.max_width(), 9, "rid payloads pack to 9 bits");
        assert!(c.compression_ratio() > 3.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn get_matches_unpack() {
        let mut rng = rsv_data::rng(7);
        let vals = rsv_data::uniform_u32(BLOCK_LEN * 2 + 37, &mut rng);
        let c = CompressedColumn::pack_scalar(&vals);
        let round = c.unpack_scalar();
        assert_eq!(round, vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(c.get(i), v, "index {i}");
        }
    }
}
