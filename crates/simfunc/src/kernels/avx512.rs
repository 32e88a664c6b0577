//! AVX-512 MAC kernel (x86-64 with `avx512f`, runtime-dispatched).
//!
//! The only SIMD tier: the merge loop runs 512 bits per step and the
//! lockstep tile walk packs **8 images per register** — one image per
//! 64-bit lane, with `vpcmpeqq`'s mask register giving the all-saturated
//! early exit in a single compare. Group popcounts reuse the AVX2
//! Mula/Harley-Seal kernel of `acoustic_core::bitstream` (dispatch requires
//! `avx512f` *and* AVX2, see
//! [`avx512_available`](acoustic_core::bitstream::x86::avx512_available)).
//! Segments under eight words and tiles under eight images delegate to the
//! scalar kernel. Semantics are identical to [`scalar`]; equivalence is
//! test-enforced.

use acoustic_core::bitstream::x86::count_ones_words_avx2;

use super::scalar::{self, is_saturated};
use super::{KernelStats, PhaseArgs, TilePhaseArgs, TileState};

/// Minimum words per segment before the 512-bit path pays for itself;
/// narrower segments use the scalar kernel.
const MIN_SIMD_WORDS: usize = 8;

/// Images per 512-bit register in the lockstep tile walk.
const TILE_LANES: usize = 8;

/// One MAC phase over one segment (see [`scalar::mac_phase`]).
pub(crate) fn mac_phase(args: &PhaseArgs<'_>, acc: &mut [u64], stats: &mut KernelStats) -> u64 {
    if args.geom.seg_words < MIN_SIMD_WORDS {
        return scalar::mac_phase(args, acc, stats);
    }
    // SAFETY: dispatch selects the AVX-512 kernel only on hosts where cpuid
    // reported avx512f + AVX2 support (`active_kernel`).
    unsafe { mac_phase_words(args, acc, stats) }
}

/// One tiled MAC phase (see [`scalar::mac_phase_tile`]).
pub(crate) fn mac_phase_tile(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    if geom.single_group() && geom.seg_words == 1 && args.banks.len() >= TILE_LANES {
        let tile = args.banks.len();
        state.phase[..tile].fill(0);
        state.in_group[..tile].fill(0);
        state.sat[..tile].fill(false);
        state.accs[..tile * geom.seg_words].fill(0);
        // SAFETY: as in `mac_phase` — avx512f presence verified at dispatch.
        unsafe { mac_phase_tile_word_single(args, state, stats) };
        return;
    }
    if geom.seg_words < MIN_SIMD_WORDS {
        return scalar::mac_phase_tile(args, state, stats);
    }
    // SAFETY: as in `mac_phase` — avx512f presence verified at dispatch.
    unsafe { mac_phase_tile_words(args, state, stats) }
}

/// Tile-vectorized lockstep walk: 8 images per 512-bit accumulator, one
/// masked compare per lane for the all-saturated early exit, scalar tail
/// for the final `tile % 8` images. Bit-identical to the scalar
/// lockstep walk — AND/OR/popcount are exact in any order and gated/zero
/// lanes hold all-zero words.
#[target_feature(enable = "avx512f")]
unsafe fn mac_phase_tile_word_single(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
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
        let mut out = [0u64; TILE_LANES];
        // SAFETY: `out` is 64 bytes; unaligned store is allowed.
        _mm512_storeu_si512(out.as_mut_ptr().cast(), acc);
        for (t, &acc_w) in out.iter().enumerate() {
            state.phase[base + t] = u64::from(acc_w.count_ones());
            if acc_w == geom.sat_mask {
                stats.sat_group_exits += 1;
            }
        }
        base += TILE_LANES;
    }
    scalar::mac_phase_tile_word_single_from(args, state, stats, base);
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

/// Multi-word solo phase; structure mirrors `scalar::mac_phase_words` with
/// the merge and popcount vectorized.
#[target_feature(enable = "avx512f")]
unsafe fn mac_phase_words(args: &PhaseArgs<'_>, acc: &mut [u64], stats: &mut KernelStats) -> u64 {
    let geom = args.geom;
    let sw = geom.seg_words;
    debug_assert_eq!(acc.len(), sw);
    let single = geom.single_group();
    let mut phase = 0u64;
    let mut in_group = 0usize;
    let mut saturated = false;
    for (n, &(seg_idx, w_base)) in args.lanes.iter().enumerate() {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        if saturated {
            stats.sat_lanes_skipped += 1;
        } else if args.seg_zero[seg_idx] {
            stats.zero_seg_skips += 1;
        } else {
            stats.mac_lanes += 1;
            let a_base = seg_idx * sw;
            let wb = (args.w_slot(w_idx) * geom.segments + args.segment) * sw;
            // SAFETY: caller guarantees avx512f (target_feature contract).
            unsafe {
                merge(
                    acc,
                    &args.act_words[a_base..a_base + sw],
                    &args.bank_words[wb..wb + sw],
                );
            }
            if is_saturated(acc, geom.sat_mask) {
                saturated = true;
                stats.sat_group_exits += 1;
                if single {
                    stats.sat_lanes_skipped += (args.lanes.len() - n - 1) as u64;
                    acc.fill(0);
                    return phase + geom.seg_len as u64;
                }
            }
        }
        in_group += 1;
        if in_group == geom.group {
            phase += if saturated {
                geom.seg_len as u64
            } else {
                // SAFETY: dispatch verified AVX2 alongside avx512f.
                unsafe { count_ones_words_avx2(acc) }
            };
            acc.fill(0);
            in_group = 0;
            saturated = false;
        }
    }
    if in_group > 0 {
        phase += if saturated {
            geom.seg_len as u64
        } else {
            // SAFETY: as above.
            unsafe { count_ones_words_avx2(acc) }
        };
        acc.fill(0);
    }
    phase
}

/// Multi-word tiled phase; structure mirrors `scalar::mac_phase_tile_general`
/// with the merge and popcount vectorized.
#[target_feature(enable = "avx512f")]
unsafe fn mac_phase_tile_words(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    let sw = geom.seg_words;
    let tile = args.banks.len();
    state.phase[..tile].fill(0);
    state.in_group[..tile].fill(0);
    state.sat[..tile].fill(false);
    state.accs[..tile * sw].fill(0);
    for &(a_idx, w_base) in args.lanes {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        let seg_idx = a_idx * geom.segments + args.segment;
        let a_base = seg_idx * sw;
        let wb = (args.w_slot(w_idx) * geom.segments + args.segment) * sw;
        for (t, bank) in args.banks.iter().enumerate() {
            if bank.gated[a_idx] {
                continue;
            }
            let acc = &mut state.accs[t * sw..(t + 1) * sw];
            if state.sat[t] {
                stats.sat_lanes_skipped += 1;
            } else if bank.seg_zero[seg_idx] {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                // SAFETY: caller guarantees avx512f (target_feature contract).
                unsafe {
                    merge(
                        acc,
                        &bank.words[a_base..a_base + sw],
                        &args.bank_words[wb..wb + sw],
                    );
                }
                if is_saturated(acc, geom.sat_mask) {
                    state.sat[t] = true;
                    stats.sat_group_exits += 1;
                }
            }
            state.in_group[t] += 1;
            if state.in_group[t] as usize == geom.group {
                state.phase[t] += if state.sat[t] {
                    geom.seg_len as u64
                } else {
                    // SAFETY: dispatch verified AVX2 alongside avx512f.
                    unsafe { count_ones_words_avx2(acc) }
                };
                acc.fill(0);
                state.in_group[t] = 0;
                state.sat[t] = false;
            }
        }
    }
    for t in 0..tile {
        if state.in_group[t] > 0 {
            let acc = &state.accs[t * sw..(t + 1) * sw];
            state.phase[t] += if state.sat[t] {
                geom.seg_len as u64
            } else {
                // SAFETY: as above.
                unsafe { count_ones_words_avx2(acc) }
            };
        }
    }
}
