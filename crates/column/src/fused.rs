//! Fused decompress-and-operate kernels.
//!
//! Each kernel walks the block directory, decodes one vector of values
//! into registers with [`decode_vec`](crate::pack) and feeds it straight
//! into the paper's vertical operator — the decompressed column is never
//! materialized. Output is byte-identical to running the raw operator on
//! the decompressed column, for every variant and backend.

use std::ops::Range;

use rsv_scan::{scan_scalar_branching, scan_scalar_branchless, ScanPredicate, ScanVariant};
use rsv_simd::{bitmap, dispatch, Backend, MaskLike, Simd};

use crate::pack::{decode_one, decode_vec};
use crate::{assert_lanes, width_mask, BlockMeta, CompressedColumn, BLOCK_LEN, FORMAT_LANES};

/// Qualifier-index buffer size for the indirect variants (matches the
/// raw scan's cache-resident buffer).
const BUF_LEN: usize = 1024;

/// One block's decode parameters, hoisted out of the inner loop.
struct BlockCtx<'a, S: Simd> {
    words: &'a [u32],
    width: u32,
    min: u32,
    minv: S::V,
    maskv: S::V,
}

impl<'a, S: Simd> BlockCtx<'a, S> {
    #[inline(always)]
    fn new(s: S, col: &'a CompressedColumn, blk: &BlockMeta) -> Self {
        let width = u32::from(blk.width);
        rsv_metrics::count_blocks_decoded(width as usize, 1);
        BlockCtx {
            words: &col.words[blk.offset..blk.offset + FORMAT_LANES * width as usize],
            width,
            min: blk.min,
            minv: s.splat(blk.min),
            maskv: s.splat(width_mask(width)),
        }
    }

    #[inline(always)]
    fn decode(&self, s: S, off: usize) -> S::V {
        decode_vec(s, self.words, self.width, self.minv, self.maskv, off)
    }

    #[inline(always)]
    fn decode_one(&self, off: usize) -> u32 {
        decode_one(self.words, self.width, self.min, off)
    }
}

fn check_range(col: &CompressedColumn, range: &Range<usize>) {
    assert!(
        range.start <= range.end && range.end <= col.len,
        "range {range:?} out of bounds (len {})",
        col.len
    );
    assert_eq!(
        range.start % BLOCK_LEN,
        0,
        "range start must be block-aligned"
    );
}

/// Fused compressed selection scan over the whole column pair.
///
/// Qualifiers of `pred` land at the front of `out_keys` / `out_pays` in
/// input order; the qualifier count is returned. Byte-identical to
/// running `variant` on the decompressed columns.
///
/// # Panics
/// If the columns differ in length, the outputs are shorter than the
/// column, or the column exceeds `u32::MAX` tuples (row ids are 32-bit).
pub fn select_fused(
    backend: Backend,
    variant: ScanVariant,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    select_fused_range(
        backend,
        variant,
        keys,
        pays,
        pred,
        0..keys.len,
        out_keys,
        out_pays,
    )
}

/// [`select_fused`] over `range` (`range.start` must be block-aligned).
/// Qualifiers land at the *front* of the output slices.
#[allow(clippy::too_many_arguments)]
fn select_fused_range(
    backend: Backend,
    variant: ScanVariant,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    range: Range<usize>,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len, pays.len, "column length mismatch");
    assert!(
        keys.len <= u32::MAX as usize,
        "fused scan row ids are 32-bit"
    );
    check_range(keys, &range);
    let n = range.end - range.start;
    assert!(
        n == 0 || (out_keys.len() >= n && out_pays.len() >= n),
        "output slices shorter than the scanned range"
    );
    match variant {
        ScanVariant::ScalarBranching => {
            select_scalar(keys, pays, pred, false, range, out_keys, out_pays)
        }
        ScanVariant::ScalarBranchless => {
            select_scalar(keys, pays, pred, true, range, out_keys, out_pays)
        }
        ScanVariant::VectorBitExtractDirect => dispatch!(backend, s => {
            select_vector_direct(s, keys, pays, pred, false, range, out_keys, out_pays)
        }),
        ScanVariant::VectorSelStoreDirect => dispatch!(backend, s => {
            select_vector_direct(s, keys, pays, pred, true, range, out_keys, out_pays)
        }),
        ScanVariant::VectorBitExtractIndirect => dispatch!(backend, s => {
            select_vector_indirect(s, keys, pays, pred, false, range, out_keys, out_pays)
        }),
        ScanVariant::VectorSelStoreIndirect => dispatch!(backend, s => {
            select_vector_indirect(s, keys, pays, pred, true, range, out_keys, out_pays)
        }),
    }
}

/// The predicate half of the parallel fused scan over `range`
/// (`range.start` block-aligned): decode only the key blocks, mark the
/// qualifiers in `bits` (one bit per tuple of `range`, see
/// [`rsv_simd::bitmap`]) and return their count. It counts every key
/// block it decodes and, for each block holding a qualifier, the payload
/// block [`take_fused_range`] will decode, so the decoded-block counters
/// equal the sequential direct scan's.
pub(crate) fn mark_fused_range<S: Simd>(
    s: S,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    range: Range<usize>,
    bits: &mut [u16],
) -> usize {
    assert_eq!(keys.len, pays.len, "column length mismatch");
    assert_lanes::<S>();
    check_range(keys, &range);
    s.vectorize(
        #[inline(always)]
        || {
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let mut count = 0;
            for start in range.clone().step_by(BLOCK_LEN) {
                let bi = start / BLOCK_LEN;
                let blk_len = (range.end - start).min(BLOCK_LEN);
                let kc: BlockCtx<'_, S> = BlockCtx::new(s, keys, &keys.blocks[bi]);
                let word = (start - range.start) / bitmap::WORD_TUPLES;
                let c = bitmap::mark::<S>(
                    blk_len,
                    &mut bits[word..],
                    #[inline(always)]
                    |off| {
                        let k = kc.decode(s, off);
                        s.cmpge(k, lower).and(s.cmple(k, upper))
                    },
                    #[inline(always)]
                    |t| pred.matches(kc.decode_one(t)),
                );
                if c > 0 {
                    rsv_metrics::count_blocks_decoded(usize::from(pays.blocks[bi].width), 1);
                }
                count += c;
            }
            count
        },
    )
}

/// The materialization half of the parallel fused scan: take the tuples
/// of `range` (`range.start` block-aligned) marked in `bits` by
/// [`mark_fused_range`] to the fronts of the output slices, in input
/// order, and return how many were taken. A block with no mark is
/// skipped; in the others, the key and payload vectors holding a mark
/// are decoded and leave through one selective store each. Its decodes
/// count as decoded blocks, so it runs unmetered after the mark pass,
/// which counted them.
pub(crate) fn take_fused_range<S: Simd>(
    s: S,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    range: Range<usize>,
    bits: &[u16],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len, pays.len, "column length mismatch");
    assert_lanes::<S>();
    check_range(keys, &range);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let mut j = 0;
            for start in range.clone().step_by(BLOCK_LEN) {
                let bi = start / BLOCK_LEN;
                let blk_len = (range.end - start).min(BLOCK_LEN);
                let word = (start - range.start) / bitmap::WORD_TUPLES;
                let bits = &bits[word..word + blk_len.div_ceil(bitmap::WORD_TUPLES)];
                if bits.iter().all(|&b| b == 0) {
                    continue;
                }
                let kc: BlockCtx<'_, S> = BlockCtx::new(s, keys, &keys.blocks[bi]);
                let pc: BlockCtx<'_, S> = BlockCtx::new(s, pays, &pays.blocks[bi]);
                let mut off = 0;
                while off + w <= blk_len {
                    let m = bitmap::lanes::<S>(bits, off);
                    if m.any() {
                        s.selective_store(&mut out_keys[j..], m, kc.decode(s, off));
                        j += s.selective_store(&mut out_pays[j..], m, pc.decode(s, off));
                    }
                    off += w;
                }
                for t in off..blk_len {
                    if bitmap::is_marked(bits, t) {
                        out_keys[j] = kc.decode_one(t);
                        out_pays[j] = pc.decode_one(t);
                        j += 1;
                    }
                }
            }
            j
        },
    )
}

/// Scalar fused scan: decode one block into stack buffers, then run the
/// paper's scalar kernel (Algorithm 1 or 2) over the buffer.
fn select_scalar(
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    branchless: bool,
    range: Range<usize>,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    let mut kbuf = [0u32; BLOCK_LEN];
    let mut pbuf = [0u32; BLOCK_LEN];
    let mut j = 0;
    let mut start = range.start;
    while start < range.end {
        let bi = start / BLOCK_LEN;
        let blk_len = (range.end - start).min(BLOCK_LEN);
        let kb = &keys.blocks[bi];
        let pb = &pays.blocks[bi];
        rsv_metrics::count_blocks_decoded(usize::from(kb.width), 1);
        rsv_metrics::count_blocks_decoded(usize::from(pb.width), 1);
        let kwords = &keys.words[kb.offset..];
        let pwords = &pays.words[pb.offset..];
        for t in 0..blk_len {
            kbuf[t] = decode_one(kwords, u32::from(kb.width), kb.min, t);
            pbuf[t] = decode_one(pwords, u32::from(pb.width), pb.min, t);
        }
        let c = if branchless {
            scan_scalar_branchless(
                &kbuf[..blk_len],
                &pbuf[..blk_len],
                pred,
                &mut out_keys[j..],
                &mut out_pays[j..],
            )
        } else {
            scan_scalar_branching(
                &kbuf[..blk_len],
                &pbuf[..blk_len],
                pred,
                &mut out_keys[j..],
                &mut out_pays[j..],
            )
        };
        j += c;
        start += blk_len;
    }
    j
}

/// Vectorized fused scan, direct materialization: decode the key vector,
/// evaluate the predicate, and decode the payload vector only when some
/// lane qualifies. A payload block's decode context is set up (and
/// counted as a decoded block) on its first qualifier, so blocks with no
/// qualifier never touch the payload column.
#[allow(clippy::too_many_arguments)]
fn select_vector_direct<S: Simd>(
    s: S,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    selstore: bool,
    range: Range<usize>,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_lanes::<S>();
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let mut j = 0;
            let mut start = range.start;
            while start < range.end {
                let bi = start / BLOCK_LEN;
                let blk_len = (range.end - start).min(BLOCK_LEN);
                let kc: BlockCtx<'_, S> = BlockCtx::new(s, keys, &keys.blocks[bi]);
                let mut pc: Option<BlockCtx<'_, S>> = None;
                let mut off = 0;
                while off + w <= blk_len {
                    let k = kc.decode(s, off);
                    let m = s.cmpge(k, lower).and(s.cmple(k, upper));
                    if m.any() {
                        let pc = pc.get_or_insert_with(|| BlockCtx::new(s, pays, &pays.blocks[bi]));
                        let v = pc.decode(s, off);
                        if selstore {
                            s.selective_store(&mut out_keys[j..], m, k);
                            j += s.selective_store(&mut out_pays[j..], m, v);
                        } else {
                            for lane in m.iter_set() {
                                out_keys[j] = s.extract(k, lane);
                                out_pays[j] = s.extract(v, lane);
                                j += 1;
                            }
                        }
                    }
                    off += w;
                }
                for t in off..blk_len {
                    let kv = kc.decode_one(t);
                    if pred.matches(kv) {
                        let pc = pc.get_or_insert_with(|| BlockCtx::new(s, pays, &pays.blocks[bi]));
                        out_keys[j] = kv;
                        out_pays[j] = pc.decode_one(t);
                        j += 1;
                    }
                }
                start += blk_len;
            }
            j
        },
    )
}

/// Vectorized fused scan, indirect materialization (Algorithm 3 over
/// compressed input): buffer qualifying row ids in a cache-resident
/// buffer; on flush, decode key and payload per qualifier through the
/// O(1) random-access directory. Payload blocks whose tuples all fail
/// the predicate are never touched.
#[allow(clippy::too_many_arguments)]
fn select_vector_indirect<S: Simd>(
    s: S,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    selstore: bool,
    range: Range<usize>,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_lanes::<S>();
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let step = s.splat(w as u32);
            let mut buf = [0u32; BUF_LEN];
            let mut l = 0usize;
            let mut j = 0usize;
            let mut start = range.start;
            while start < range.end {
                let bi = start / BLOCK_LEN;
                let blk_len = (range.end - start).min(BLOCK_LEN);
                let kc: BlockCtx<'_, S> = BlockCtx::new(s, keys, &keys.blocks[bi]);
                let mut rid = s.add(s.splat(start as u32), s.iota());
                let mut off = 0;
                while off + w <= blk_len {
                    let k = kc.decode(s, off);
                    let m = s.cmpge(k, lower).and(s.cmple(k, upper));
                    if selstore {
                        if m.any() {
                            l += s.selective_store(&mut buf[l..], m, rid);
                        }
                    } else {
                        for lane in m.iter_set() {
                            buf[l] = (start + off + lane) as u32;
                            l += 1;
                        }
                    }
                    if l > BUF_LEN - w {
                        j = flush_rids(&buf[..BUF_LEN - w], keys, pays, out_keys, out_pays, j);
                        buf.copy_within(BUF_LEN - w..l, 0);
                        l -= BUF_LEN - w;
                    }
                    rid = s.add(rid, step);
                    off += w;
                }
                for t in off..blk_len {
                    if pred.matches(kc.decode_one(t)) {
                        buf[l] = (start + t) as u32;
                        l += 1;
                        if l > BUF_LEN - w {
                            j = flush_rids(&buf[..BUF_LEN - w], keys, pays, out_keys, out_pays, j);
                            buf.copy_within(BUF_LEN - w..l, 0);
                            l -= BUF_LEN - w;
                        }
                    }
                }
                start += blk_len;
            }
            flush_rids(&buf[..l], keys, pays, out_keys, out_pays, j)
        },
    )
}

/// Drain buffered row ids: decode key and payload per qualifier through
/// the block directory.
fn flush_rids(
    rids: &[u32],
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
    mut j: usize,
) -> usize {
    for &rid in rids {
        let rid = rid as usize;
        out_keys[j] = keys.get(rid);
        out_pays[j] = pays.get(rid);
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_scan::scan;

    fn workload(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = rsv_data::rng(seed);
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let pays: Vec<u32> = (0..n as u32).collect();
        (keys, pays)
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn fused_select_matches_raw_scan_everywhere() {
        for n in [0usize, 1, 17, BLOCK_LEN, 2 * BLOCK_LEN + 37] {
            let (keys, pays) = workload(n, 0xF00D + n as u64);
            for sel in [0.0, 0.05, 0.5, 1.0] {
                let (lower, upper) = rsv_data::selection_bounds(sel);
                let pred = ScanPredicate { lower, upper };
                for backend in Backend::all_available() {
                    let ck = CompressedColumn::pack(backend, &keys);
                    let cp = CompressedColumn::pack(backend, &pays);
                    for variant in ScanVariant::ALL {
                        let mut ek = vec![0u32; n];
                        let mut ep = vec![0u32; n];
                        let en = scan(backend, variant, &keys, &pays, pred, &mut ek, &mut ep);
                        let mut gk = vec![0u32; n];
                        let mut gp = vec![0u32; n];
                        let gn = select_fused(backend, variant, &ck, &cp, pred, &mut gk, &mut gp);
                        assert_eq!(
                            gn,
                            en,
                            "{} {} n={n} sel={sel}",
                            backend.name(),
                            variant.label()
                        );
                        assert_eq!(&gk[..gn], &ek[..en]);
                        assert_eq!(&gp[..gn], &ep[..en]);
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn fused_range_scans_one_morsel() {
        let (keys, pays) = workload(4 * BLOCK_LEN + 99, 7);
        let pred = ScanPredicate {
            lower: 0,
            upper: u32::MAX / 3,
        };
        let backend = Backend::best();
        let ck = CompressedColumn::pack(backend, &keys);
        let cp = CompressedColumn::pack(backend, &pays);
        let range = BLOCK_LEN..3 * BLOCK_LEN;
        let mut ek = vec![0u32; keys.len()];
        let mut ep = vec![0u32; keys.len()];
        let en = rsv_scan::scan_scalar_branching(
            &keys[range.clone()],
            &pays[range.clone()],
            pred,
            &mut ek,
            &mut ep,
        );
        for variant in ScanVariant::ALL {
            let mut gk = vec![0u32; range.len()];
            let mut gp = vec![0u32; range.len()];
            let gn = select_fused_range(
                backend,
                variant,
                &ck,
                &cp,
                pred,
                range.clone(),
                &mut gk,
                &mut gp,
            );
            assert_eq!(gn, en, "{}", variant.label());
            assert_eq!(&gk[..gn], &ek[..en]);
            assert_eq!(&gp[..gn], &ep[..en]);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn indirect_buffer_overflow_drains_in_order() {
        // All-qualifying input much larger than BUF_LEN forces repeated
        // mid-scan flushes.
        let n = 5 * BUF_LEN + 3;
        let (keys, pays) = workload(n, 11);
        let pred = ScanPredicate {
            lower: 0,
            upper: u32::MAX,
        };
        for backend in Backend::all_available() {
            let ck = CompressedColumn::pack(backend, &keys);
            let cp = CompressedColumn::pack(backend, &pays);
            for variant in [
                ScanVariant::VectorBitExtractIndirect,
                ScanVariant::VectorSelStoreIndirect,
            ] {
                let mut gk = vec![0u32; n];
                let mut gp = vec![0u32; n];
                let gn = select_fused(backend, variant, &ck, &cp, pred, &mut gk, &mut gp);
                assert_eq!(gn, n);
                assert_eq!(gk, keys, "{}", backend.name());
                assert_eq!(gp, pays);
            }
        }
    }

    #[test]
    fn direct_scan_decodes_only_qualifying_payload_blocks() {
        // Sorted keys: a narrow predicate qualifies tuples in few blocks.
        // The last block is partial, so its qualifier may sit in the
        // scalar tail.
        let n = 8 * BLOCK_LEN + 77;
        let keys: Vec<u32> = (0..n as u32).map(|k| 3 * k).collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        let last = keys[n - 1];
        let b = BLOCK_LEN as u32;
        for (lower, upper) in [(3 * (2 * b - 5), 3 * (3 * b + 10)), (last, last), (1, 2)] {
            let pred = ScanPredicate { lower, upper };
            let key_blocks = keys.chunks(BLOCK_LEN).count() as u64;
            let payload_blocks = keys
                .chunks(BLOCK_LEN)
                .filter(|blk| blk.iter().any(|&k| pred.matches(k)))
                .count() as u64;
            for backend in Backend::all_available() {
                let ck = CompressedColumn::pack(backend, &keys);
                let cp = CompressedColumn::pack(backend, &pays);
                for variant in [
                    ScanVariant::VectorBitExtractDirect,
                    ScanVariant::VectorSelStoreDirect,
                ] {
                    let mut gk = vec![0u32; n];
                    let mut gp = vec![0u32; n];
                    let (gn, sink) = rsv_metrics::collect(|| {
                        select_fused(backend, variant, &ck, &cp, pred, &mut gk, &mut gp)
                    });
                    let expected: Vec<u32> =
                        keys.iter().copied().filter(|&k| pred.matches(k)).collect();
                    assert_eq!(&gk[..gn], &expected[..]);
                    assert_eq!(
                        sink.total().get(rsv_metrics::Metric::ColBlocksDecoded),
                        key_blocks + payload_blocks,
                        "{} {} [{lower}, {upper}]",
                        backend.name(),
                        variant.label()
                    );
                }
            }
        }
    }
}
