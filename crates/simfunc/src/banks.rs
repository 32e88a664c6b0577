//! Flat, word-aligned operand banks of the stochastic datapath.
//!
//! Weights live in a per-layer deduplicated [`StreamPool`] (prepared once
//! per network), activations in a per-image [`ActBank`] (regenerated per
//! layer), and every
//! per-inference buffer is owned by a reusable [`SimScratch`]. The MAC
//! kernels in [`crate::kernels`] operate on borrowed word ranges out of
//! these banks — no per-lane allocation or pointer chasing on the hot path.

use crate::kernels::KernelStats;

/// One FNV-1a step over a 64-bit word — the mixing primitive behind every
/// content digest in the prepare path (bank digests, layer content keys).
pub(crate) fn fnv1a(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Lane marker for weights with no stream at all (quantized to zero).
/// Kernels never dereference it: a zero weight is absent from **both**
/// phase `present` lists, and every weight read is behind a `present`
/// check.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One prefix level's canonical stream words, slot-major: slot `s`,
/// segment `e` occupies `words[(s * segments + e) * seg_words ..
/// +seg_words]`. Slots are phase-agnostic — a stream is a pure function
/// of its (seed, threshold), so a positive-phase lane and a
/// negative-phase lane with the same key share one slot.
#[derive(Debug, Clone)]
pub(crate) struct PoolLevel {
    pub(crate) words: Vec<u64>,
    pub(crate) seg_words: usize,
}

/// Weight storage of one MAC layer: one canonical stream per distinct
/// (SNG seed, quantized threshold) pair, with every lane holding a compact
/// `u32` slot index into the shared pool instead of owning its stream
/// words.
///
/// ACOUSTIC's 8-bit quantized weights take at most a few hundred distinct
/// values and each SNG stream is a pure function of its (mixed seed,
/// quantized threshold), so two lanes with the same key would own
/// bit-identical words — sharing one copy cannot change a logit.
///
/// Prefix reusability is preserved by construction: slot ids are assigned
/// once (first sight of a key, in a phase-major lane scan so each phase
/// pass reads a dense ascending slot range) and every [`PoolLevel`] lays
/// its words out in the same slot order, sliced from one max-length SNG
/// walk — so one `index` vector serves all levels and level `k` stays
/// bit-identical to a direct prepare at that length.
///
/// Prepared layers hold their pool behind an `Arc` so a process-wide
/// `SharedStreamPool` can hand the same immutable layer artifact to every
/// re-prepare of identical weights (warm re-prepare is a reference-count
/// bump per layer).
#[derive(Debug, Clone)]
pub(crate) struct StreamPool {
    /// Per-lane pool slot; [`NO_SLOT`] for zero weights.
    pub(crate) index: Vec<u32>,
    /// Whether lane `j` has a positive-phase component.
    pub(crate) pos_present: Vec<bool>,
    /// Whether lane `j` has a negative-phase component.
    pub(crate) neg_present: Vec<bool>,
    /// Per-level canonical words, longest level first (the order of
    /// `PreparedNetwork::supported_lengths`).
    pub(crate) levels: Vec<PoolLevel>,
    /// Number of distinct canonical streams.
    pub(crate) distinct: usize,
    /// Pooling segments per stream (layout constant shared by all levels).
    pub(crate) segments: usize,
}

impl StreamPool {
    /// Resident size of the pool plus the per-lane indices, in bytes —
    /// actual allocations, not a formula over lane count.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.pool_bytes() + self.index_bytes()
    }

    /// Bytes spent on canonical stream words (all levels).
    pub(crate) fn pool_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.words.len() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Bytes spent on per-lane indices and phase presence.
    pub(crate) fn index_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u32>()
            + self.pos_present.len()
            + self.neg_present.len()
    }

    /// Borrowed view of prefix level `k`, as the kernels read it.
    pub(crate) fn level(&self, k: usize) -> LevelView<'_> {
        let l = &self.levels[k];
        LevelView {
            pos: PhaseView {
                words: &l.words,
                present: &self.pos_present,
                slots: &self.index,
            },
            neg: PhaseView {
                words: &l.words,
                present: &self.neg_present,
                slots: &self.index,
            },
            seg_words: l.seg_words,
        }
    }

    /// Folds this layer's complete bank content into an FNV-1a digest:
    /// slot indices, presence flags and every level's words. Feeds
    /// [`PreparedNetwork::content_digest`].
    ///
    /// [`PreparedNetwork::content_digest`]: crate::PreparedNetwork::content_digest
    pub(crate) fn digest(&self, h: &mut u64) {
        fn digest_flags(h: &mut u64, flags: &[bool]) {
            fnv1a(h, flags.len() as u64);
            for &f in flags {
                fnv1a(h, u64::from(f));
            }
        }
        // Layout tag: part of the digest format the zoo exactness test
        // pins, so changing it changes every recorded digest.
        fnv1a(h, 12);
        fnv1a(h, self.distinct as u64);
        fnv1a(h, self.segments as u64);
        fnv1a(h, self.index.len() as u64);
        for &slot in &self.index {
            fnv1a(h, u64::from(slot));
        }
        digest_flags(h, &self.pos_present);
        digest_flags(h, &self.neg_present);
        for l in &self.levels {
            fnv1a(h, l.seg_words as u64);
            fnv1a(h, l.words.len() as u64);
            for &w in &l.words {
                fnv1a(h, w);
            }
        }
    }

    /// Storage accounting of this layer (see [`DedupStats`]).
    pub(crate) fn dedup_stats(&self) -> DedupStats {
        let lanes = self.index.len();
        // What an undeduplicated per-lane layout allocates for the same
        // layer: both phases hold full words + presence per level.
        let materialized: usize = self
            .levels
            .iter()
            .map(|l| 2 * (lanes * self.segments * l.seg_words * std::mem::size_of::<u64>() + lanes))
            .sum();
        DedupStats {
            lanes: lanes as u64,
            distinct_streams: self.distinct as u64,
            pool_bytes: self.pool_bytes() as u64,
            index_bytes: self.index_bytes() as u64,
            resident_bytes: self.approx_bytes() as u64,
            materialized_bytes: materialized as u64,
        }
    }
}

/// Borrowed, `Copy` view of one phase of one level, as the kernels read
/// it: lane `j`'s words live at pool slot `slots[j]` of `words`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseView<'a> {
    pub(crate) words: &'a [u64],
    pub(crate) present: &'a [bool],
    pub(crate) slots: &'a [u32],
}

/// Borrowed view of one prefix level of one layer's weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelView<'a> {
    pub(crate) pos: PhaseView<'a>,
    pub(crate) neg: PhaseView<'a>,
    pub(crate) seg_words: usize,
}

/// Weight-storage accounting of one layer or one whole prepared network.
///
/// `resident_bytes` is what the stream pools actually allocate (and what
/// `ModelCache` byte budgets are charged); `materialized_bytes` is what an
/// undeduplicated per-lane layout (one full stream per lane, segment and
/// phase) would allocate for the same shapes, computed analytically — the
/// denominator of [`DedupStats::dedup_ratio`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Weight lanes across MAC layers (conv fan-in × out-channels + dense).
    pub lanes: u64,
    /// Distinct canonical streams backing those lanes.
    pub distinct_streams: u64,
    /// Bytes of shared canonical stream words.
    pub pool_bytes: u64,
    /// Bytes of per-lane slot indices + phase presence.
    pub index_bytes: u64,
    /// Bytes actually resident for weight banks.
    pub resident_bytes: u64,
    /// Bytes an undeduplicated per-lane layout needs for the same layers.
    pub materialized_bytes: u64,
}

impl DedupStats {
    /// Accumulates another layer's (or model's) accounting into this one.
    pub fn merge(&mut self, other: &DedupStats) {
        self.lanes += other.lanes;
        self.distinct_streams += other.distinct_streams;
        self.pool_bytes += other.pool_bytes;
        self.index_bytes += other.index_bytes;
        self.resident_bytes += other.resident_bytes;
        self.materialized_bytes += other.materialized_bytes;
    }

    /// Memory saved by deduplication: materialized over resident bytes.
    pub fn dedup_ratio(&self) -> f64 {
        self.materialized_bytes as f64 / self.resident_bytes.max(1) as f64
    }
}

/// Minimal open-addressing map from packed nonzero `(seed, threshold)`
/// keys to pool slots, used only at prepare time. `mix_seed` never yields
/// seed 0, so a zero key marks an empty bucket and no tombstones are
/// needed (keys are only ever inserted). The std `HashMap`'s SipHash is a
/// measurable drag at the ~10⁸ probes an ImageNet-scale prepare performs;
/// a splitmix-style finalizer over the packed key is plenty for keys that
/// are already LFSR-mixed.
pub(crate) struct PoolMap {
    keys: Vec<u64>,
    slots: Vec<u32>,
    len: usize,
}

impl PoolMap {
    pub(crate) fn new() -> Self {
        PoolMap {
            keys: vec![0; 1024],
            slots: vec![0; 1024],
            len: 0,
        }
    }

    fn hash(key: u64) -> u64 {
        let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h
    }

    /// Bucket holding `key`, or the empty bucket where it would go.
    fn bucket(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (Self::hash(key) as usize) & mask;
        while self.keys[i] != 0 && self.keys[i] != key {
            i = (i + 1) & mask;
        }
        i
    }

    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        debug_assert_ne!(key, 0, "zero marks empty buckets");
        let i = self.bucket(key);
        (self.keys[i] == key).then(|| self.slots[i])
    }

    pub(crate) fn insert(&mut self, key: u64, slot: u32) {
        debug_assert_ne!(key, 0, "zero marks empty buckets");
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let i = self.bucket(key);
        if self.keys[i] != key {
            self.len += 1;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    fn grow(&mut self) {
        let keys = std::mem::replace(&mut self.keys, vec![0; 0]);
        let slots = std::mem::take(&mut self.slots);
        self.keys = vec![0; keys.len() * 2];
        self.slots = vec![0; slots.len() * 2];
        for (k, s) in keys.into_iter().zip(slots) {
            if k != 0 {
                let i = self.bucket(k);
                self.keys[i] = k;
                self.slots[i] = s;
            }
        }
    }
}

/// Activation streams of one layer, stored segment-major and word-aligned:
/// segment `e` of activation `j` occupies the word range
/// `[(j * segments + e) * seg_words, +seg_words)`, tail bits zero. Segment
/// access is therefore a borrowed word-range view — indexing, not slicing
/// into freshly allocated streams.
#[derive(Debug, Default)]
pub(crate) struct ActBank {
    pub(crate) words: Vec<u64>,
    pub(crate) seg_words: usize,
    pub(crate) segments: usize,
    /// Operand-gated activations (lane contributes nothing and is skipped
    /// without entering an OR group).
    pub(crate) gated: Vec<bool>,
    /// Zero-segment skip list, indexed `j * segments + e`: `true` when the
    /// segment's words are all zero (gated streams, sub-threshold values
    /// whose SNG emitted nothing in the segment window). A zero segment
    /// AND-multiplies to zero against any weight, so OR-merging it is a
    /// no-op the kernels skip — it still consumes its OR-group slot.
    pub(crate) seg_zero: Vec<bool>,
}

impl ActBank {
    /// Clears and resizes for a layer of `streams` activations. Every word
    /// starts zero and every segment starts flagged zero; the fill path
    /// clears `seg_zero` only for segments it writes ones into.
    pub(crate) fn reset(&mut self, streams: usize, segments: usize, seg_words: usize) {
        self.segments = segments;
        self.seg_words = seg_words;
        self.words.clear();
        self.words.resize(streams * segments * seg_words, 0);
        self.gated.clear();
        self.gated.resize(streams, false);
        self.seg_zero.clear();
        self.seg_zero.resize(streams * segments, true);
    }

    #[cfg(test)]
    pub(crate) fn segment(&self, idx: usize, e: usize) -> &[u64] {
        let base = (idx * self.segments + e) * self.seg_words;
        &self.words[base..base + self.seg_words]
    }

    pub(crate) fn segment_mut(&mut self, idx: usize, e: usize) -> &mut [u64] {
        let base = (idx * self.segments + e) * self.seg_words;
        &mut self.words[base..base + self.seg_words]
    }

    /// Records whether segment `e` of activation `idx` came out all-zero
    /// after a fill (must be called for every written segment).
    pub(crate) fn note_segment(&mut self, idx: usize, e: usize) {
        let base = (idx * self.segments + e) * self.seg_words;
        let zero = self.words[base..base + self.seg_words]
            .iter()
            .all(|&w| w == 0);
        self.seg_zero[idx * self.segments + e] = zero;
    }

    pub(crate) fn gate(&mut self, idx: usize) {
        self.gated[idx] = true;
    }
}

/// Reusable per-tile working memory: the per-image segmented activation
/// banks, multi-word MAC accumulators, lane lists and lane-filter counts,
/// SNG staging buffers, and kernel skip counters.
///
/// Construct once (it is `Default`) and thread through
/// [`ScSimulator::run_prepared_tile_with`] (or any `*_with` entry point)
/// to amortise every buffer across a batch — a fresh scratch gives
/// bit-identical results, only slower. The batch runtime keeps one per
/// worker thread.
///
/// [`ScSimulator::run_prepared_tile_with`]: crate::ScSimulator::run_prepared_tile_with
#[derive(Debug, Default)]
pub struct SimScratch {
    /// One full-length activation stream being generated/segmented.
    pub(crate) full: Vec<u64>,
    /// Pre-quantized comparator thresholds (shared-RNG path).
    pub(crate) thresholds: Vec<u32>,
    /// Receptive-field lanes `(activation_index, weight_base)` of the
    /// current spatial position — shared by every output channel and every
    /// image of the tile (per-image gating is applied inside the kernel).
    pub(crate) lanes: Vec<(usize, usize)>,
    /// Per-image activation banks of the tile in flight.
    pub(crate) acts: Vec<ActBank>,
    /// Per activation of the current layer: images of the tile in which it
    /// is not gated.
    pub(crate) live: Vec<u32>,
    /// Per activation segment of the current layer: images of the tile in
    /// which it is non-zero.
    pub(crate) nonzero: Vec<u32>,
    /// Multi-word MAC accumulators of one image block
    /// (`MAX_BLOCK * seg_words` words); all-zero at rest.
    pub(crate) accs: Vec<u64>,
    /// Per-image per-output-channel signed counters (`t * out_c + oc`).
    pub(crate) counts: Vec<i64>,
    /// Kernel skip counters accumulated by every run using this scratch.
    pub(crate) stats: KernelStats,
}

impl SimScratch {
    /// Kernel skip counters accumulated so far (saturated-group early-outs,
    /// zero-segment skips, merged lanes). Counters are observability only:
    /// they never influence results.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// Returns and resets the accumulated kernel skip counters.
    pub fn take_kernel_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_map_inserts_probes_and_grows() {
        let mut map = PoolMap::new();
        // Enough keys to force several doublings past the 1024 seed size.
        for k in 1..=10_000u64 {
            assert_eq!(map.get(k), None);
            map.insert(k, (k * 3) as u32);
        }
        for k in 1..=10_000u64 {
            assert_eq!(map.get(k), Some((k * 3) as u32), "key {k}");
        }
        assert_eq!(map.get(10_001), None);
    }

    #[test]
    fn pool_map_overwrite_keeps_len_consistent() {
        let mut map = PoolMap::new();
        map.insert(7, 1);
        map.insert(7, 2);
        assert_eq!(map.get(7), Some(2));
    }

    #[test]
    fn materialized_bytes_matches_per_lane_allocation() {
        use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Network};

        // One 3×3 conv (1 → 2 channels, 18 lanes) fused with a 2×2 pool:
        // 4 segments of one word at each of the 5 prefix levels of a
        // 128-bit stream. 5940 bytes is what the per-lane (materialized)
        // layout really allocated for this layer — its two phase banks'
        // word vectors plus presence flags at every level, as reported by
        // that layout's measured `resident_bytes` before it was removed.
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        let prepared = crate::ScSimulator::new(crate::SimConfig::with_stream_len(128).unwrap())
            .prepare(&net)
            .unwrap();
        assert_eq!(prepared.supported_lengths(), &[128, 64, 32, 16, 8]);
        let stats = prepared.dedup_stats();
        assert_eq!(stats.lanes, 18);
        assert_eq!(stats.materialized_bytes, 5940);
        assert_eq!(stats.resident_bytes, stats.pool_bytes + stats.index_bytes);
    }

    #[test]
    fn dedup_stats_merge_and_ratio() {
        let mut a = DedupStats {
            lanes: 10,
            distinct_streams: 2,
            pool_bytes: 100,
            index_bytes: 50,
            resident_bytes: 150,
            materialized_bytes: 600,
        };
        let b = DedupStats {
            lanes: 5,
            distinct_streams: 1,
            pool_bytes: 20,
            index_bytes: 30,
            resident_bytes: 50,
            materialized_bytes: 200,
        };
        a.merge(&b);
        assert_eq!(a.lanes, 15);
        assert_eq!(a.distinct_streams, 3);
        assert_eq!(a.resident_bytes, 200);
        assert_eq!(a.materialized_bytes, 800);
        assert!((a.dedup_ratio() - 4.0).abs() < 1e-12);
        assert_eq!(DedupStats::default().dedup_ratio(), 0.0);
    }
}
