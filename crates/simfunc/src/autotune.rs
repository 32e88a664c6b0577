//! Prepare-time tile calibration.
//!
//! The best image-tile size for the tiled MAC walk depends on the model's
//! bank geometry (fan-in, segment words, output count) and the host's
//! cache/register budget — a fixed default leaves throughput on the table.
//! Instead of guessing, [`calibrate`] runs a deterministic micro-benchmark
//! at prepare time: the model's *heaviest MAC step* (its real weight banks
//! and geometry, pool indirection included) is driven through
//! `mac_segment_tile` with synthetic activation banks for every candidate
//! tile size on the resolved kernel tier, and the fastest per-image tile
//! wins. The kernel itself is not swept: `KernelChoice::Auto` resolves to
//! the only tier that beats the scalar reference (AVX-512) wherever the
//! host has it.
//!
//! Guard rails:
//!
//! * The previous fixed default ([`DEFAULT_TILE`]) is always a candidate,
//!   and a challenger must beat it by a clear margin ([`HYSTERESIS_PCT`])
//!   — autotune can never lose to the status quo, and jittery ties
//!   resolve to it.
//! * The workload is capped ([`WORD_BUDGET`]) so calibration stays a small
//!   fraction of prepare time even for VGG-scale banks: lanes are truncated
//!   to [`LANE_CAP`] and the output-channel walk shrinks to fit the budget.
//! * Timing only picks the plan; logits are bit-identical across every
//!   (kernel, tile) combination (test-enforced), so a noisy pick can never
//!   change results — only marginal throughput.
//!
//! Plan identity is `(kernel, tile)`; `calibration_ns` is observability
//! metadata and excluded from equality, so cached and recomputed plans on
//! the same host compare equal.

use std::time::Instant;

use crate::banks::{ActBank, LevelView};
use crate::engine::PreparedNetwork;
use crate::kernels::{self, active_kernel, KernelKind, KernelStats, SegGeom, MAX_BLOCK};
use crate::SimConfig;

/// Candidate image-tile sizes swept at prepare time.
pub const TILE_CANDIDATES: [usize; 5] = [4, 8, 16, 32, 64];

/// The pre-autotune fixed tile size — always swept as the status-quo
/// candidate, and the fallback when a model has no MAC step to calibrate.
pub const DEFAULT_TILE: usize = 16;

/// A challenger plan must be at least this many percent faster than the
/// status quo to displace it.
const HYSTERESIS_PCT: u128 = 2;

/// Max activation lanes in the calibration workload (VGG-scale dense
/// layers would otherwise allocate hundred-MiB synthetic banks).
const LANE_CAP: usize = 512;

/// Images processed per candidate (divisible by every tile candidate so
/// all candidates do identical per-image work).
const IMAGE_BUDGET: usize = if cfg!(debug_assertions) { 64 } else { 128 };

/// Approximate per-candidate word-merge budget; the output-channel walk is
/// clamped so `images × lanes × seg_words × oc_cap` stays under it.
const WORD_BUDGET: usize = if cfg!(debug_assertions) {
    60_000
} else {
    1_000_000
};

/// The autotuned execution plan of a prepared model: which kernel tier the
/// engine should run and how many images to tile per weight walk.
#[derive(Debug, Clone, Copy, Eq)]
pub struct TilePlan {
    /// Kernel tier every engine run of this model is pinned to.
    pub kernel: KernelKind,
    /// Image-tile size for batched execution.
    pub tile: usize,
    /// Wall-clock cost of the calibration sweep (0 when the plan came from
    /// a cache or fallback). Metadata only — excluded from equality.
    pub calibration_ns: u64,
}

impl PartialEq for TilePlan {
    fn eq(&self, other: &Self) -> bool {
        self.kernel == other.kernel && self.tile == other.tile
    }
}

impl std::hash::Hash for TilePlan {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kernel.hash(state);
        self.tile.hash(state);
    }
}

impl TilePlan {
    /// The status-quo plan for a kernel choice: the resolved tier at the
    /// historical fixed tile size.
    pub fn fallback(choice: crate::KernelChoice) -> TilePlan {
        TilePlan {
            kernel: active_kernel(choice),
            tile: DEFAULT_TILE,
            calibration_ns: 0,
        }
    }
}

/// The heaviest MAC step's bank shape, extracted by
/// `PreparedNetwork::heaviest_mac`.
pub(crate) struct MacShape<'a> {
    /// Full-length weight bank view (pool slot indirection and all).
    pub(crate) view: LevelView<'a>,
    /// Receptive-field lanes per output.
    pub(crate) fan_in: usize,
    /// Output channels / neurons sharing the lane walk.
    pub(crate) outs: usize,
    /// Pooling segments per stream.
    pub(crate) segments: usize,
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) for synthetic
/// activation words.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A synthetic activation bank with ~12% bit density — sparse enough that
/// OR accumulation exercises the merge loop rather than short-circuiting
/// on the first lanes, dense enough that saturation paths still trigger on
/// deep fan-ins (the regime real SC activations occupy).
fn synth_bank(
    bank_idx: usize,
    streams: usize,
    segments: usize,
    seg_words: usize,
    sat_mask: u64,
) -> ActBank {
    let mut bank = ActBank::default();
    bank.reset(streams, segments, seg_words);
    for s in 0..streams {
        for e in 0..segments {
            let seg = bank.segment_mut(s, e);
            for (wi, w) in seg.iter_mut().enumerate() {
                let r = mix(((bank_idx * streams + s) * segments + e) as u64 ^ (wi as u64) << 48);
                *w = r & r.rotate_left(19) & r.rotate_left(37);
            }
            if let Some(last) = seg.last_mut() {
                *last &= sat_mask; // bank tail-bit invariant
            }
            bank.note_segment(s, e);
        }
    }
    bank
}

/// Times one tile candidate on `kind` over `images` synthetic images and
/// returns its best per-image nanosecond cost (min of two passes).
#[allow(clippy::too_many_arguments)]
fn time_candidate(
    kind: KernelKind,
    tile: usize,
    geom: &SegGeom,
    banks: &[ActBank],
    view: LevelView<'_>,
    lanes: &[(usize, usize)],
    oc_cap: usize,
    fan_in: usize,
    images: usize,
) -> u128 {
    let mut accs = vec![0u64; MAX_BLOCK * geom.seg_words];
    let mut counts = vec![0i64; tile * oc_cap];
    let mut stats = KernelStats::default();
    let batches = images.div_ceil(tile).max(1);
    let mut best = u128::MAX;
    for _rep in 0..2 {
        let t0 = Instant::now();
        for _ in 0..batches {
            counts.fill(0);
            for oc in 0..oc_cap {
                kernels::mac_segment_tile(
                    kind,
                    geom,
                    &banks[..tile],
                    view.pos,
                    view.neg,
                    lanes,
                    oc * fan_in,
                    0,
                    &mut accs,
                    &mut counts,
                    oc_cap,
                    oc,
                    &mut stats,
                );
            }
        }
        best = best.min(t0.elapsed().as_nanos());
    }
    best / (batches * tile) as u128
}

/// Runs the calibration sweep for a prepared network and returns the
/// winning plan. Deterministic up to host timing; callers cache the result
/// per (model, host) so one process always serves one plan.
pub(crate) fn calibrate(cfg: &SimConfig, or_group: usize, prepared: &PreparedNetwork) -> TilePlan {
    let started = Instant::now();
    let Some(shape) = prepared.heaviest_mac() else {
        return TilePlan::fallback(cfg.kernel);
    };
    let m = cfg.per_phase_len();
    let sw = shape.view.seg_words;
    let geom = SegGeom::new(shape.segments, sw, m / shape.segments, or_group);
    let lanes_n = shape.fan_in.min(LANE_CAP);
    let lanes: Vec<(usize, usize)> = (0..lanes_n).map(|i| (i, i)).collect();
    let max_tile = *TILE_CANDIDATES.iter().max().expect("non-empty candidates");
    let banks: Vec<ActBank> = (0..max_tile)
        .map(|b| synth_bank(b, lanes_n, shape.segments, sw, geom.sat_mask))
        .collect();
    let oc_cap = (WORD_BUDGET / (IMAGE_BUDGET * lanes_n * sw).max(1)).clamp(1, shape.outs);

    let kernel = active_kernel(cfg.kernel);
    let mut status_quo = u128::MAX;
    let mut best: Option<(u128, usize)> = None;
    for tile in TILE_CANDIDATES {
        let t = time_candidate(
            kernel,
            tile,
            &geom,
            &banks,
            shape.view,
            &lanes,
            oc_cap,
            shape.fan_in,
            IMAGE_BUDGET,
        );
        if tile == DEFAULT_TILE {
            status_quo = t;
        }
        if best.is_none_or(|(bt, _)| t < bt) {
            best = Some((t, tile));
        }
    }
    let (best_ns, tile) = best.expect("at least one candidate was timed");
    let challenger_wins =
        best_ns.saturating_mul(100) < status_quo.saturating_mul(100 - HYSTERESIS_PCT);
    let tile = if challenger_wins { tile } else { DEFAULT_TILE };
    TilePlan {
        kernel,
        tile,
        calibration_ns: started.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelChoice;

    #[test]
    fn plan_equality_ignores_calibration_time() {
        let a = TilePlan {
            kernel: KernelKind::Scalar,
            tile: 16,
            calibration_ns: 1,
        };
        let b = TilePlan {
            kernel: KernelKind::Scalar,
            tile: 16,
            calibration_ns: 999,
        };
        assert_eq!(a, b);
        let c = TilePlan { tile: 32, ..a };
        assert_ne!(a, c);
    }

    #[test]
    fn fallback_is_status_quo() {
        let p = TilePlan::fallback(KernelChoice::Scalar);
        assert_eq!(p.tile, DEFAULT_TILE);
        if kernels::forced_kernel().is_none() {
            assert_eq!(p.kernel, KernelKind::Scalar);
        }
    }

    #[test]
    fn tile_candidates_include_default_and_divide_budget() {
        assert!(TILE_CANDIDATES.contains(&DEFAULT_TILE));
        for t in TILE_CANDIDATES {
            assert_eq!(IMAGE_BUDGET % t, 0, "tile {t} must divide IMAGE_BUDGET");
        }
    }

    #[test]
    fn synth_banks_are_deterministic_and_tail_masked() {
        let a = synth_bank(3, 5, 2, 2, 0xFFFF);
        let b = synth_bank(3, 5, 2, 2, 0xFFFF);
        assert_eq!(a.words, b.words);
        for s in 0..5 {
            for e in 0..2 {
                assert_eq!(a.segment(s, e).last().unwrap() & !0xFFFF, 0);
            }
        }
        let c = synth_bank(4, 5, 2, 2, 0xFFFF);
        assert_ne!(a.words, c.words);
    }
}
