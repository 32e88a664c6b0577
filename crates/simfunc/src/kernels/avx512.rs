//! AVX-512 MAC kernel (x86-64 with `avx512f`, runtime-dispatched).
//!
//! The only SIMD tier: the multi-word merge runs 512 bits per step and the
//! single-word lockstep walk packs **8 images per register** — one image
//! per 64-bit lane, with `vpcmpeqq`'s mask register giving the
//! all-saturated early exit in a single compare. Group popcounts reuse the
//! AVX2 Mula/Harley-Seal kernel of `acoustic_core::bitstream` (dispatch
//! requires `avx512f` *and* AVX2, see
//! [`avx512_available`](acoustic_core::bitstream::x86::avx512_available)).
//! Multi-word segments walk the tile in the scalar kernel's image blocks of
//! 8, 4, 2 and 1. Segments under eight words, grouped single-word segments
//! and the sub-8-image tail of a lockstep tile run on the scalar kernel. Semantics
//! are identical to [`scalar`]; equivalence is test-enforced.

use acoustic_core::bitstream::x86::count_ones_words_avx2;

use super::scalar::{self, is_saturated};
use crate::banks::ActBank;

use super::{KernelStats, TileOut, TilePhaseArgs};

/// Minimum words per segment before the 512-bit merge pays for itself;
/// narrower segments use the scalar kernel.
const MIN_SIMD_WORDS: usize = 8;

/// Images per 512-bit register in the lockstep tile walk.
const TILE_LANES: usize = 8;

/// One tiled MAC phase (see [`scalar::mac_phase_tile`]).
#[inline]
pub(crate) fn mac_phase_tile(
    args: &TilePhaseArgs<'_>,
    accs: &mut [u64],
    out: &mut TileOut<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    let tile = args.banks.len();
    if geom.seg_words >= MIN_SIMD_WORDS {
        let mut base = 0;
        while base < tile {
            // SAFETY: dispatch selects the AVX-512 kernel only on hosts where
            // cpuid reported avx512f + AVX2 support (`active_kernel`).
            base += unsafe { block!(tile - base, words_block(args, base, accs, out, stats)) };
        }
    } else if geom.seg_words == 1 && geom.single_group() && tile >= TILE_LANES {
        // SAFETY: as above.
        let base = unsafe { lockstep_blocks(args, out, stats) };
        scalar::mac_phase_tile(args, base, accs, out, stats);
    } else {
        scalar::mac_phase_tile(args, 0, accs, out, stats);
    }
}

/// Tile-vectorized lockstep walk: 8 images per 512-bit accumulator, one
/// masked compare per lane for the all-saturated early exit. Returns the
/// first image after the last full 8-block; the caller runs the tail on the
/// scalar blocks. Bit-identical to the scalar lockstep walk —
/// AND/OR/popcount are exact in any order and gated/zero lanes hold
/// all-zero words.
#[target_feature(enable = "avx512f")]
unsafe fn lockstep_blocks(
    args: &TilePhaseArgs<'_>,
    out: &mut TileOut<'_>,
    stats: &mut KernelStats,
) -> usize {
    use std::arch::x86_64::*;
    let geom = args.geom;
    let tile = args.banks.len();
    let lanes = args.lanes;
    // sat_mask is a bit pattern; sign-reinterpreting is lossless.
    let maskv = _mm512_set1_epi64(geom.sat_mask as i64);
    let mut base = 0usize;
    while base + TILE_LANES <= tile {
        let b: [&[u64]; TILE_LANES] =
            std::array::from_fn(|t| args.banks[base + t].words.as_slice());
        let mut acc = _mm512_setzero_si512();
        for (n, &(a_idx, w_base)) in lanes.iter().enumerate() {
            let w_idx = args.w_off + w_base;
            if !args.present[w_idx] {
                continue;
            }
            let w = args.bank_words[args.w_slot(w_idx) * geom.segments + args.segment];
            let seg_idx = a_idx * geom.segments + args.segment;
            let wv = _mm512_set1_epi64(w as i64);
            let av = _mm512_set_epi64(
                b[7][seg_idx] as i64,
                b[6][seg_idx] as i64,
                b[5][seg_idx] as i64,
                b[4][seg_idx] as i64,
                b[3][seg_idx] as i64,
                b[2][seg_idx] as i64,
                b[1][seg_idx] as i64,
                b[0][seg_idx] as i64,
            );
            acc = _mm512_or_si512(acc, _mm512_and_si512(av, wv));
            stats.mac_lanes += TILE_LANES as u64;
            // Accumulator lanes never exceed `sat_mask` (bank tail-bit
            // invariant), so lane-equality with the mask is exactly the
            // per-image saturation test; an all-ones mask register means
            // every image of the block saturated.
            if _mm512_cmpeq_epi64_mask(acc, maskv) == 0xFF {
                stats.sat_lanes_skipped += ((lanes.len() - n - 1) * TILE_LANES) as u64;
                break;
            }
        }
        let mut words = [0u64; TILE_LANES];
        // SAFETY: `words` is 64 bytes; unaligned store is allowed.
        _mm512_storeu_si512(words.as_mut_ptr().cast(), acc);
        for (t, &acc_w) in words.iter().enumerate() {
            out.add(base + t, u64::from(acc_w.count_ones()));
            if acc_w == geom.sat_mask {
                stats.sat_group_exits += 1;
            }
        }
        base += TILE_LANES;
    }
    base
}

/// Fused `acc |= act & wgt` over equal-length word slices, 8 words per step.
#[target_feature(enable = "avx512f")]
unsafe fn merge(acc: &mut [u64], act: &[u64], wgt: &[u64]) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds all three 64-byte unaligned accesses.
        unsafe {
            let va = _mm512_loadu_si512(act.as_ptr().add(i).cast());
            let vw = _mm512_loadu_si512(wgt.as_ptr().add(i).cast());
            let vc = _mm512_loadu_si512(acc.as_ptr().add(i).cast());
            let v = _mm512_or_si512(vc, _mm512_and_si512(va, vw));
            _mm512_storeu_si512(acc.as_mut_ptr().add(i).cast(), v);
        }
        i += 8;
    }
    while i < n {
        acc[i] |= act[i] & wgt[i];
        i += 1;
    }
}

/// Multi-word block; structure mirrors `scalar::words_block` (including
/// the all-saturated exit) with the merge and popcount vectorized.
#[target_feature(enable = "avx512f")]
unsafe fn words_block<const B: usize>(
    args: &TilePhaseArgs<'_>,
    base: usize,
    accs: &mut [u64],
    out: &mut TileOut<'_>,
    stats: &mut KernelStats,
) -> usize {
    let geom = args.geom;
    let sw = geom.seg_words;
    let banks: [&ActBank; B] = std::array::from_fn(|j| &args.banks[base + j]);
    let accs = &mut accs[..B * sw];
    let single = geom.single_group();
    let mut in_group = [0usize; B];
    let mut sat = [false; B];
    let mut saturated = 0usize;
    for (n, &(a_idx, w_base)) in args.lanes.iter().enumerate() {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        let seg_idx = a_idx * geom.segments + args.segment;
        let a_base = seg_idx * sw;
        let wb = (args.w_slot(w_idx) * geom.segments + args.segment) * sw;
        let wgt = &args.bank_words[wb..wb + sw];
        for (j, (bank, acc)) in banks.iter().zip(accs.chunks_exact_mut(sw)).enumerate() {
            let zero = bank.seg_zero[seg_idx];
            if zero && bank.gated[a_idx] {
                continue;
            }
            if sat[j] {
                stats.sat_lanes_skipped += 1;
            } else if zero {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                // SAFETY: caller guarantees avx512f (target_feature contract).
                unsafe { merge(acc, &bank.words[a_base..a_base + sw], wgt) };
                if is_saturated(acc, geom.sat_mask) {
                    sat[j] = true;
                    stats.sat_group_exits += 1;
                    saturated += 1;
                }
            }
            in_group[j] += 1;
            if in_group[j] == geom.group {
                out.add(
                    base + j,
                    if sat[j] {
                        geom.seg_len as u64
                    } else {
                        // SAFETY: dispatch verified AVX2 alongside avx512f.
                        unsafe { count_ones_words_avx2(acc) }
                    },
                );
                acc.fill(0);
                in_group[j] = 0;
                sat[j] = false;
            }
        }
        if single && saturated == B {
            stats.sat_lanes_skipped += ((args.lanes.len() - n - 1) * B) as u64;
            break;
        }
    }
    for (j, acc) in accs.chunks_exact_mut(sw).enumerate() {
        if in_group[j] > 0 {
            out.add(
                base + j,
                if sat[j] {
                    geom.seg_len as u64
                } else {
                    // SAFETY: as above.
                    unsafe { count_ones_words_avx2(acc) }
                },
            );
            acc.fill(0);
        }
    }
    B
}
