//! Portable scalar MAC kernel — the golden reference every other kernel
//! must match bit-for-bit.
//!
//! Every path walks the tile in image blocks of 8, 4, 2 and 1: one weight
//! load per lane serves the whole block, and the block's per-image state
//! (single-word accumulators, OR-group slot counts, saturation flags) lives
//! in fixed-size local arrays that stay in registers. Multi-word segments
//! merge word-by-word into the caller's scratch accumulators. Every path
//! implements OR-saturation short-circuiting and zero-segment skipping (see
//! the [module docs](crate::kernels) for why both are exact) and leaves
//! the scratch accumulators all-zero on exit.

use acoustic_core::bitstream::count_ones_words;

use crate::banks::ActBank;

use super::{KernelStats, TileOut, TilePhaseArgs};

/// One tiled MAC phase over images `start..tile`; per-image ones counts go
/// to `out`. `accs` holds at least `MAX_BLOCK * seg_words` zeroed words.
#[inline]
pub(crate) fn mac_phase_tile(
    args: &TilePhaseArgs<'_>,
    start: usize,
    accs: &mut [u64],
    out: &mut TileOut<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    let tile = args.banks.len();
    let mut base = start;
    while base < tile {
        let rest = tile - base;
        base += if geom.seg_words > 1 {
            block!(rest, words_block(args, base, accs, out, stats))
        } else if geom.single_group() {
            block!(rest, lockstep_block(args, base, out, stats))
        } else {
            block!(rest, grouped_word_block(args, base, out, stats))
        };
    }
}

/// Lockstep block: single-word segments, whole fan-in in one OR group,
/// images `base..base + B`. Gated and all-zero lanes hold all-zero words,
/// so merging them is a no-op and slot accounting is irrelevant (one group,
/// one final popcount) — every image shares the unfiltered lane walk with
/// *no per-image branches* in the inner loop: an unconditional OR is
/// cheaper than predicting a skip, and a running AND of the accumulators
/// detects the all-saturated exit. Returns `B`.
fn lockstep_block<const B: usize>(
    args: &TilePhaseArgs<'_>,
    base: usize,
    out: &mut TileOut<'_>,
    stats: &mut KernelStats,
) -> usize {
    let geom = args.geom;
    let banks: [&[u64]; B] = std::array::from_fn(|j| args.banks[base + j].words.as_slice());
    let mut acc = [0u64; B];
    let mut merged = 0u64;
    for (n, &(a_idx, w_base)) in args.lanes.iter().enumerate() {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        let w = args.bank_words[args.w_slot(w_idx) * geom.segments + args.segment];
        let seg_idx = a_idx * geom.segments + args.segment;
        // Accumulator words never exceed `sat_mask` (bank tail-bit
        // invariant), so the AND chain equals the mask exactly when every
        // image's group has saturated.
        let mut all = geom.sat_mask;
        for (a, bank) in acc.iter_mut().zip(&banks) {
            *a |= bank[seg_idx] & w;
            all &= *a;
        }
        merged += 1;
        if all == geom.sat_mask {
            // Every image of the block saturated: the rest of the weight
            // walk is a no-op for all of them.
            stats.sat_lanes_skipped += ((args.lanes.len() - n - 1) * B) as u64;
            break;
        }
    }
    stats.mac_lanes += merged * B as u64;
    for (j, &a) in acc.iter().enumerate() {
        // A saturated accumulator popcounts to `seg_len` by definition, so
        // no per-image saturation flags are needed.
        out.add(base + j, u64::from(a.count_ones()));
        if a == geom.sat_mask {
            stats.sat_group_exits += 1;
        }
    }
    B
}

/// Grouped block: single-word segments with OR groups narrower than the
/// fan-in, images `base..base + B`. Group boundaries diverge between
/// images (gated lanes never consume a slot), so each image keeps its own
/// accumulator, slot count and saturation flag. Returns `B`.
fn grouped_word_block<const B: usize>(
    args: &TilePhaseArgs<'_>,
    base: usize,
    out: &mut TileOut<'_>,
    stats: &mut KernelStats,
) -> usize {
    let geom = args.geom;
    let gated: [&[bool]; B] = std::array::from_fn(|j| args.banks[base + j].gated.as_slice());
    let words: [&[u64]; B] = std::array::from_fn(|j| args.banks[base + j].words.as_slice());
    let mut acc = [0u64; B];
    let mut in_group = [0usize; B];
    let mut sat = [false; B];
    let mut ones = [0u64; B];
    for &(a_idx, w_base) in args.lanes {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        let w = args.bank_words[args.w_slot(w_idx) * geom.segments + args.segment];
        let seg_idx = a_idx * geom.segments + args.segment;
        for j in 0..B {
            // A single-word segment is zero exactly when its word is, and
            // gated lanes are zero, so only zero lanes pay the gating load.
            let act = words[j][seg_idx];
            if act == 0 && gated[j][a_idx] {
                continue; // gated lanes never consume an OR-group slot
            }
            if sat[j] {
                stats.sat_lanes_skipped += 1;
            } else if act == 0 {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                acc[j] |= act & w;
                if acc[j] == geom.sat_mask {
                    sat[j] = true;
                    stats.sat_group_exits += 1;
                }
            }
            in_group[j] += 1;
            if in_group[j] == geom.group {
                // A saturated group counts `seg_len` without a popcount.
                ones[j] += if sat[j] {
                    geom.seg_len as u64
                } else {
                    u64::from(acc[j].count_ones())
                };
                acc[j] = 0;
                in_group[j] = 0;
                sat[j] = false;
            }
        }
    }
    for j in 0..B {
        // An image with no group in flight has a zero accumulator.
        out.add(base + j, ones[j] + u64::from(acc[j].count_ones()));
    }
    B
}

/// Whether a multi-word accumulator has every in-segment bit set.
#[inline]
pub(super) fn is_saturated(acc: &[u64], sat_mask: u64) -> bool {
    let (last, body) = acc.split_last().expect("accumulator is non-empty");
    // The last word is the cheap filter: until a group nears saturation it
    // almost never equals the mask, so the body scan rarely runs.
    *last == sat_mask && body.iter().all(|&w| w == !0)
}

/// Multi-word block, images `base..base + B`: per-image gating, OR-group
/// slot accounting and saturation tracking, with the accumulators in the
/// first `B * seg_words` words of `accs`. With the whole fan-in in one
/// group, the walk exits once every image of the block has saturated.
/// Returns `B`.
fn words_block<const B: usize>(
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
    debug_assert!(
        accs.iter().all(|&w| w == 0),
        "accumulators must arrive zeroed"
    );
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
            // Gated lanes are zero, so only zero lanes pay the gating load.
            let zero = bank.seg_zero[seg_idx];
            if zero && bank.gated[a_idx] {
                continue; // gated lanes never consume an OR-group slot
            }
            if sat[j] {
                stats.sat_lanes_skipped += 1;
            } else if zero {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                let act = &bank.words[a_base..a_base + sw];
                for ((acc_w, &aw), &ww) in acc.iter_mut().zip(act).zip(wgt) {
                    *acc_w |= aw & ww;
                }
                if is_saturated(acc, geom.sat_mask) {
                    sat[j] = true;
                    stats.sat_group_exits += 1;
                    saturated += 1;
                }
            }
            in_group[j] += 1;
            if in_group[j] == geom.group {
                out.add(base + j, group_ones(acc, sat[j], geom.seg_len));
                acc.fill(0);
                in_group[j] = 0;
                sat[j] = false;
            }
        }
        // Group boundaries never occur with a single group, so `saturated`
        // counts images whose only group is full: the rest of the walk is
        // a no-op for the whole block.
        if single && saturated == B {
            stats.sat_lanes_skipped += ((args.lanes.len() - n - 1) * B) as u64;
            break;
        }
    }
    for (j, acc) in accs.chunks_exact_mut(sw).enumerate() {
        if in_group[j] > 0 {
            out.add(base + j, group_ones(acc, sat[j], geom.seg_len));
            acc.fill(0);
        }
    }
    B
}

/// Ones count of a finished multi-word group: `seg_len` when saturated,
/// otherwise its popcount.
#[inline]
fn group_ones(acc: &[u64], saturated: bool, seg_len: usize) -> u64 {
    if saturated {
        seg_len as u64
    } else {
        count_ones_words(acc)
    }
}
