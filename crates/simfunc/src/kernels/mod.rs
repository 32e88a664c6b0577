//! Arch-aware MAC kernels behind a runtime dispatch layer.
//!
//! Every kernel computes the same function — one split-unipolar MAC phase
//! over a pooling segment for a *tile* of images: each weight word is
//! loaded once and ANDed against every image's activation lane, products
//! OR into per-image group accumulators, and groups popcount at their
//! boundaries. This is the accelerator's dataflow (one weight stream
//! broadcast across MAC units that each hold their own activations), and
//! it is the only one: a lone image runs as a tile of one. Every kernel is
//! bit-identical to the portable scalar reference (test-enforced by
//! `tests/kernel_equivalence.rs`).
//!
//! Two paper-faithful skip optimizations apply to *all* kernels:
//!
//! * **OR-saturation short-circuit** — OR is idempotent and monotone, so
//!   once a group's accumulator reaches all-ones (every in-segment bit set),
//!   no further merge can change it and the group's final popcount is
//!   already known to be `seg_len`. Remaining lanes of that image's group
//!   skip their word work; with the whole fan-in in one group
//!   (`or_group: None`, the ACOUSTIC fabric default) the lane walk of an
//!   image block exits outright once every image of the block has
//!   saturated.
//! * **Zero-segment skipping** — a segment whose activation words are all
//!   zero AND-multiplies to zero against any weight, so its merge is a
//!   no-op. [`ActBank`](crate::banks::ActBank) precomputes these flags once
//!   per image; zero lanes still consume their OR-group slot (slot
//!   occupancy is part of the grouped-accumulator semantics).
//!
//! Kernels leave their accumulator state all-zero on exit, so a call costs
//! only its lane walk — no per-call clearing.
//!
//! Two dispatchable tiers implement that contract:
//!
//! * [`scalar`] — the portable golden reference, running on every target.
//!   Single-word segments walk the tile in register blocks of 8, 4, 2 and
//!   1 images, so accumulators never leave registers.
//! * [`avx512`] — 512-bit merge, and 8 images per register in the
//!   single-word lockstep walk (x86-64 with `avx512f` only).
//!
//! A tier earns its place only by beating scalar on a recorded zoo
//! measurement (EXPERIMENTS.md): the SC datapath's wins come from the
//! OR-accumulate/skip-pooling dataflow, not from the ALU width.
//!
//! Tier selection happens at run time via `is_x86_feature_detected!`; an
//! explicit AVX-512 request on a host without it resolves to scalar (never
//! to an instruction set the host lacks).

/// Widest image block a kernel walks with one weight load per lane.
pub(crate) const MAX_BLOCK: usize = 8;

/// Evaluates `$f::<B>(args..)` for the widest block width `B` in
/// {8, 4, 2, 1} that fits `$rest` remaining images. Fixed widths keep each
/// block's per-image state in registers; a tile of any size decomposes into
/// such blocks.
macro_rules! block {
    ($rest:expr, $f:ident($($arg:expr),*)) => {
        match $rest {
            8.. => $f::<8>($($arg),*),
            4..=7 => $f::<4>($($arg),*),
            2 | 3 => $f::<2>($($arg),*),
            _ => $f::<1>($($arg),*),
        }
    };
}

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

use std::sync::OnceLock;

use crate::banks::{ActBank, PhaseView};

/// Configured kernel preference of a simulation (see
/// [`SimConfig::kernel`](crate::SimConfig::kernel)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelChoice {
    /// AVX-512 when the host has it, scalar otherwise (detected at run
    /// time).
    #[default]
    Auto,
    /// Always use the portable scalar kernel (the golden reference).
    Scalar,
    /// Request the 512-bit AVX-512 kernel (resolves to scalar on hosts
    /// without `avx512f`).
    Avx512,
}

impl KernelChoice {
    /// The choice that pins a resolved kernel tier — used to replay an
    /// autotuned plan through `SimConfig.kernel`.
    pub fn pinned(kind: KernelKind) -> KernelChoice {
        match kind {
            KernelKind::Scalar => KernelChoice::Scalar,
            KernelKind::Avx512 => KernelChoice::Avx512,
        }
    }
}

/// Resolved kernel implementation actually executing the MAC loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar kernel — runs everywhere, defines the semantics.
    Scalar,
    /// 512-bit AVX-512 kernel (x86-64 with `avx512f` only).
    Avx512,
}

impl KernelKind {
    /// Stable lowercase name (matches [`FORCE_KERNEL_ENV`] values and the
    /// serialized bench/stats schema).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Stable wire code (serve stats words). Codes 1 and 2 belonged to
    /// deleted tiers and stay unused so recorded codes remain comparable.
    pub fn code(self) -> u64 {
        match self {
            KernelKind::Scalar => 0,
            KernelKind::Avx512 => 3,
        }
    }

    /// Inverse of [`KernelKind::code`].
    pub fn from_code(code: u64) -> Option<KernelKind> {
        match code {
            0 => Some(KernelKind::Scalar),
            3 => Some(KernelKind::Avx512),
            _ => None,
        }
    }
}

/// Environment variable pinning a kernel tier regardless of the configured
/// [`KernelChoice`]: `scalar` or `avx512` (case-insensitive). `avx512` on a
/// host without it resolves to scalar like an explicit [`KernelChoice`];
/// unrecognized values are ignored. Read once per process.
pub const FORCE_KERNEL_ENV: &str = "ACOUSTIC_FORCE_KERNEL";

/// The kernel tier forced via environment, if any; parsed once per process.
pub fn forced_kernel() -> Option<KernelKind> {
    static FORCE: OnceLock<Option<KernelKind>> = OnceLock::new();
    *FORCE.get_or_init(|| {
        let v = std::env::var_os(FORCE_KERNEL_ENV)?;
        match v.to_string_lossy().trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "avx512" => Some(KernelKind::Avx512),
            _ => None,
        }
    })
}

fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        acoustic_core::bitstream::x86::avx512_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves the configured kernel choice against host capabilities and the
/// [`FORCE_KERNEL_ENV`] override. `Auto` and `Avx512` select AVX-512 when
/// the host supports it and scalar otherwise, so the result never names an
/// instruction set the host lacks.
pub fn active_kernel(choice: KernelChoice) -> KernelKind {
    let wants_simd = match forced_kernel() {
        Some(forced) => forced == KernelKind::Avx512,
        None => choice != KernelChoice::Scalar,
    };
    if wants_simd && avx512_detected() {
        KernelKind::Avx512
    } else {
        KernelKind::Scalar
    }
}

/// What the host looks like to the kernel layer: core count, the detected
/// CPU features relevant to dispatch, and the tier `Auto` resolves to.
/// Serialized into `results/BENCH_*.json` so numbers stay attributable to
/// the machine that produced them, and hashed into the autotune plan cache
/// key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HostFingerprint {
    /// Available parallelism (1 when detection fails).
    pub cores: usize,
    /// Detected CPU features the dispatch layer keys on.
    pub features: Vec<&'static str>,
    /// The kernel tier `KernelChoice::Auto` resolves to on this host
    /// (includes any `ACOUSTIC_FORCE_KERNEL` override).
    pub kernel: KernelKind,
}

impl HostFingerprint {
    /// Detects the current host (feature probes are cached per process).
    pub fn detect() -> HostFingerprint {
        let mut features = Vec::new();
        if avx512_detected() {
            features.push("avx512f");
        }
        HostFingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            features,
            kernel: active_kernel(KernelChoice::Auto),
        }
    }

    /// Stable hash of the fingerprint (autotune plan cache key component).
    pub fn id(&self) -> u64 {
        // FNV-1a over the serialized form: stable across processes, unlike
        // RandomState hashing.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.json().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// JSON object for the shared `results/BENCH_*.json` schema.
    pub fn json(&self) -> String {
        let feats: Vec<String> = self.features.iter().map(|f| format!("\"{f}\"")).collect();
        format!(
            "{{\"cores\": {}, \"features\": [{}], \"kernel\": \"{}\"}}",
            self.cores,
            feats.join(", "),
            self.kernel.name()
        )
    }
}

/// Kernel skip-work counters. Purely observational: values never feed back
/// into results. Lanes skipped by an all-images-saturated early exit count
/// once per image of the kernel block that exited.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Lanes whose AND/OR word work actually ran.
    pub mac_lanes: u64,
    /// OR groups that reached all-ones before their last lane.
    pub sat_group_exits: u64,
    /// Lanes skipped because their group was already saturated.
    pub sat_lanes_skipped: u64,
    /// Lanes skipped because the activation segment was all zero.
    pub zero_seg_skips: u64,
}

impl KernelStats {
    /// Accumulates another counter set into `self`.
    pub fn merge(&mut self, other: &KernelStats) {
        self.mac_lanes += other.mac_lanes;
        self.sat_group_exits += other.sat_group_exits;
        self.sat_lanes_skipped += other.sat_lanes_skipped;
        self.zero_seg_skips += other.zero_seg_skips;
    }
}

/// Segment geometry shared by every lane of a MAC call, hoisted out of the
/// per-lane loop: sizes, the saturation pattern, and the OR-group width.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegGeom {
    /// Pooling segments per stream.
    pub segments: usize,
    /// Words per segment.
    pub seg_words: usize,
    /// Bits per segment at the active stream length (= popcount of a
    /// saturated group).
    pub seg_len: usize,
    /// All-ones pattern of the segment's last word (in-segment bits only;
    /// tail bits beyond `seg_len` are zero by bank invariant).
    pub sat_mask: u64,
    /// OR-group width; `usize::MAX` = whole fan-in in one group.
    pub group: usize,
}

impl SegGeom {
    pub(crate) fn new(segments: usize, seg_words: usize, seg_len: usize, group: usize) -> Self {
        let rem = seg_len % 64;
        let sat_mask = if rem == 0 { !0u64 } else { (1u64 << rem) - 1 };
        SegGeom {
            segments,
            seg_words,
            seg_len,
            sat_mask,
            group,
        }
    }

    /// Whether the whole fan-in accumulates in a single OR group.
    pub(crate) fn single_group(&self) -> bool {
        self.group == usize::MAX
    }
}

/// Borrowed operands of one tiled MAC phase over one segment: the same
/// weight walk shared by every image of the tile (a lone image is a tile
/// of one).
pub(crate) struct TilePhaseArgs<'a> {
    pub geom: &'a SegGeom,
    /// Per-image activation banks (identical layout).
    pub banks: &'a [ActBank],
    /// The layer's canonical stream words (slot-major pool level).
    pub bank_words: &'a [u64],
    /// Whether each weight has a component in this phase.
    pub present: &'a [bool],
    /// Per-lane slot indices into `bank_words`. Only valid for `present`
    /// lanes — kernels must check `present` before resolving a slot.
    pub slots: &'a [u32],
    /// Receptive-field lanes `(activation_index, weight_base)`, *not*
    /// filtered of per-image gating (gating is applied per image inside
    /// the kernel; lanes gated in every image are dropped by the caller).
    pub lanes: &'a [(usize, usize)],
    /// Per-output-channel weight offset added to each lane's weight base.
    pub w_off: usize,
    /// Pooling segment executed by this call.
    pub segment: usize,
}

impl TilePhaseArgs<'_> {
    /// Resolves lane `w_idx` to its pool slot. Callers must have checked
    /// `present[w_idx]` first.
    #[inline(always)]
    pub(crate) fn w_slot(&self, w_idx: usize) -> usize {
        self.slots[w_idx] as usize
    }
}

/// Destination of one phase's per-image ones counts: image `t` adds
/// `sign * ones` into `counts[t * stride + offset]`.
pub(crate) struct TileOut<'a> {
    counts: &'a mut [i64],
    stride: usize,
    offset: usize,
    sign: i64,
}

impl TileOut<'_> {
    #[inline(always)]
    pub(crate) fn add(&mut self, t: usize, ones: u64) {
        self.counts[t * self.stride + self.offset] += self.sign * ones as i64;
    }
}

/// One tiled split-unipolar MAC over a segment: walks each weight word once
/// per image block and merges it into every image of the block,
/// accumulating the signed count of image `t` into
/// `counts[t * stride + offset]`. `accs` holds at least
/// `MAX_BLOCK * seg_words` zeroed words (multi-word scratch accumulators),
/// returned zeroed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_segment_tile(
    kind: KernelKind,
    geom: &SegGeom,
    banks: &[ActBank],
    pos: PhaseView<'_>,
    neg: PhaseView<'_>,
    lanes: &[(usize, usize)],
    w_off: usize,
    segment: usize,
    accs: &mut [u64],
    counts: &mut [i64],
    stride: usize,
    offset: usize,
    stats: &mut KernelStats,
) {
    for (sign, view) in [(1i64, pos), (-1i64, neg)] {
        let args = TilePhaseArgs {
            geom,
            banks,
            bank_words: view.words,
            present: view.present,
            slots: view.slots,
            lanes,
            w_off,
            segment,
        };
        let mut out = TileOut {
            counts,
            stride,
            offset,
            sign,
        };
        match kind {
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => avx512::mac_phase_tile(&args, accs, &mut out, stats),
            _ => scalar::mac_phase_tile(&args, 0, accs, &mut out, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_choice_always_resolves_scalar() {
        if forced_kernel().is_none() {
            assert_eq!(active_kernel(KernelChoice::Scalar), KernelKind::Scalar);
        }
    }

    #[test]
    fn auto_choice_matches_host_detection() {
        let simd = avx512_detected() && forced_kernel() != Some(KernelKind::Scalar);
        let expected = if simd {
            KernelKind::Avx512
        } else {
            KernelKind::Scalar
        };
        assert_eq!(active_kernel(KernelChoice::Auto), expected);
        assert_eq!(active_kernel(KernelChoice::Avx512), expected);
    }

    #[test]
    fn kernel_codes_roundtrip() {
        for kind in [KernelKind::Scalar, KernelKind::Avx512] {
            assert_eq!(KernelKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(KernelKind::Scalar.code(), 0);
        assert_eq!(KernelKind::Avx512.code(), 3);
        for unused in [1, 2, 99] {
            assert_eq!(KernelKind::from_code(unused), None);
        }
        assert_eq!(
            KernelChoice::pinned(KernelKind::Avx512),
            KernelChoice::Avx512
        );
    }

    #[test]
    fn host_fingerprint_is_stable_and_serializable() {
        let a = HostFingerprint::detect();
        let b = HostFingerprint::detect();
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert!(a.cores >= 1);
        let json = a.json();
        assert!(json.contains("\"cores\""));
        assert!(json.contains(a.kernel.name()));
    }

    #[test]
    fn seg_geom_sat_mask_covers_tail() {
        assert_eq!(SegGeom::new(1, 1, 64, usize::MAX).sat_mask, !0);
        assert_eq!(SegGeom::new(4, 1, 16, usize::MAX).sat_mask, 0xFFFF);
        assert_eq!(SegGeom::new(1, 2, 96, 8).sat_mask, (1u64 << 32) - 1);
        assert!(SegGeom::new(1, 1, 64, usize::MAX).single_group());
        assert!(!SegGeom::new(1, 2, 96, 8).single_group());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = KernelStats {
            mac_lanes: 1,
            sat_group_exits: 2,
            sat_lanes_skipped: 3,
            zero_seg_skips: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.mac_lanes, 2);
        assert_eq!(a.sat_group_exits, 4);
        assert_eq!(a.sat_lanes_skipped, 6);
        assert_eq!(a.zero_seg_skips, 8);
    }
}
