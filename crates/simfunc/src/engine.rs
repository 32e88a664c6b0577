//! The stochastic execution engine.
//!
//! A [`Network`] is first *prepared*: every MAC layer's weights are
//! quantized and converted to per-phase split-unipolar bitstreams once
//! (weights never change between images, exactly like the weight buffers of
//! the accelerator). Each image then only pays for activation stream
//! generation and the AND/OR datapath.

use std::sync::Arc;

use acoustic_core::bitstream::{copy_bit_range, count_ones_words};
use acoustic_core::sng::quantize_probability;
use acoustic_core::{Lfsr, Sng, SngBank};
use acoustic_nn::fixedpoint::Quantizer;
use acoustic_nn::layers::{NetLayer, Network};
use acoustic_nn::train::Sample;
use acoustic_nn::Tensor;

use crate::banks::{
    fnv1a, ActBank, DedupStats, PoolLevel, PoolMap, SimScratch, StreamPool, NO_SLOT,
};
use crate::kernels::{self, active_kernel, KernelKind, SegGeom, MAX_BLOCK};
use crate::pool::{layer_content_key, SharedStreamPool};
use crate::{SimConfig, SimError};

/// Comparator width of every SNG in the datapath (16-bit LFSRs).
const SNG_WIDTH: u32 = 16;

/// Environment variable overriding the prepare-time worker-thread count
/// (parallel to `ACOUSTIC_FORCE_KERNEL` for kernel dispatch). Any positive
/// integer; ignored when unset, unparsable or zero, and always overridden
/// by an explicit [`PrepareOptions::threads`]. Thread count never affects
/// results — prepared banks are bit-identical for any value
/// (test-enforced), so this is purely a wall-clock knob.
pub const PREPARE_THREADS_ENV: &str = "ACOUSTIC_PREPARE_THREADS";

/// Per-call knobs for [`ScSimulator::prepare_with`]. Nothing here changes
/// the prepared result — banks are bit-identical for every thread count
/// and with or without a shared pool — so these deliberately live outside
/// [`SimConfig`] (which keys prepared-model caches by *result* identity).
#[derive(Debug, Clone, Default)]
pub struct PrepareOptions {
    /// Worker threads for bank preparation. `0` (the default) resolves to
    /// the [`PREPARE_THREADS_ENV`] override when set, otherwise the
    /// host's available parallelism.
    pub threads: usize,
    /// Opt-in process-wide pool sharing canonical streams and whole layer
    /// artifacts across prepares (see [`SharedStreamPool`]).
    pub shared_pool: Option<Arc<SharedStreamPool>>,
}

impl PrepareOptions {
    /// A copy with `threads` resolved to a concrete positive count.
    fn resolved(&self) -> PrepareOptions {
        PrepareOptions {
            threads: resolve_prepare_threads(self.threads),
            shared_pool: self.shared_pool.clone(),
        }
    }
}

/// Resolves a requested prepare-thread count: explicit > env override >
/// available parallelism.
fn resolve_prepare_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(PREPARE_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Minimum weight lanes per phase-A (key collect) worker; below this the
/// per-thread spawn cost exceeds the work.
const MIN_LANES_PER_THREAD: usize = 8192;

/// Minimum pool slots per phase-C worker.
const MIN_SLOTS_PER_THREAD: usize = 1024;

/// Wall-clock cost of one executed step (observability hook for the batch
/// runtime). Steps inside a residual block are reported individually *and*
/// included in the enclosing `"residual"` entry's time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTiming {
    /// Step label, e.g. `"conv0"`, `"relu"`, `"dense1"`. Shared with the
    /// prepared network's cached label — cloning is a reference-count bump,
    /// so the timed path never formats or allocates a label per step.
    pub name: Arc<str>,
    /// Time spent executing the step, in nanoseconds.
    pub nanos: u128,
}

/// Stream-length and kernel selection of one engine run: a level into the
/// prepared banks, its per-phase bit budget, and the MAC kernel resolved
/// against host capabilities at run start.
#[derive(Debug, Clone, Copy)]
struct RunLen {
    level: usize,
    per_phase: usize,
    kernel: KernelKind,
}

#[derive(Debug, Clone)]
struct PreparedConv {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Pooling window fused into this conv (computation skipping), if any.
    pool: Option<usize>,
    weights: Arc<StreamPool>,
    ordinal: usize,
}

#[derive(Debug, Clone)]
struct PreparedDense {
    in_n: usize,
    out_n: usize,
    weights: Arc<StreamPool>,
    ordinal: usize,
}

/// One execution step with its display label cached at prepare time, so the
/// per-image timed path never rebuilds step names.
#[derive(Debug, Clone)]
struct Step {
    label: Arc<str>,
    op: StepOp,
}

#[derive(Debug, Clone)]
enum StepOp {
    Conv(PreparedConv),
    Dense(PreparedDense),
    /// Binary-domain average pooling (skip-pooling disabled or standalone).
    BinaryAvgPool(usize),
    /// Binary-domain max pooling (FSM-based in real SC; ACOUSTIC converts
    /// per layer so the binary result is identical).
    MaxPool(usize),
    Relu(Option<f32>),
    Flatten,
    /// A residual block: execute the inner steps, then add the block input
    /// in the binary (counter) domain — exactly how the hardware realises
    /// skip connections after per-layer conversion.
    Residual(Vec<Step>),
}

impl Step {
    fn new(label: impl Into<Arc<str>>, op: StepOp) -> Self {
        Step {
            label: label.into(),
            op,
        }
    }
}

/// A network compiled for stochastic execution.
///
/// Holds every MAC layer's quantized weights as pre-generated split-unipolar
/// bitstreams — the expensive, image-independent half of a stochastic
/// inference. Prepare once (via [`ScSimulator::prepare`]) and reuse across
/// images; the structure is immutable and cheap to share behind an `Arc`.
///
/// The weight banks are *prefix-reusable*: they are generated once at the
/// configured maximum stream length, and any length in
/// [`PreparedNetwork::supported_lengths`] (the power-of-two-halving
/// prefixes of the maximum) can be executed from the same banks via
/// [`ScSimulator::run_prepared_at`] with no stream regeneration.
#[derive(Debug, Clone)]
pub struct PreparedNetwork {
    steps: Vec<Step>,
    /// Executable total stream lengths, longest (the prepare-time maximum)
    /// first; index = bank level.
    lengths: Vec<usize>,
}

impl PreparedNetwork {
    /// Number of top-level execution steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Labels of the top-level execution steps, in order (matches the names
    /// reported by [`StepTiming`], without residual inner steps).
    pub fn step_names(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.label.to_string()).collect()
    }

    /// The stream length the network was prepared at (the longest
    /// executable length).
    pub fn max_stream_len(&self) -> usize {
        self.lengths[0]
    }

    /// Every executable total stream length, in descending order.
    ///
    /// The first entry is the prepare-time maximum; each following entry
    /// halves the one before it, down to the shortest prefix every MAC
    /// layer's pooling segmentation still divides.
    pub fn supported_lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Bank level executing `stream_len`, if supported.
    fn level_of(&self, stream_len: usize) -> Option<usize> {
        self.lengths.iter().position(|&l| l == stream_len)
    }

    /// Approximate resident size of the prepared weight banks, in bytes.
    ///
    /// Counts the dominant cost of a prepared network — every MAC layer's
    /// split-unipolar weight streams at every supported prefix length —
    /// and ignores small fixed overheads (labels, shape metadata). Serving
    /// layers use this to enforce memory budgets on prepared-model caches.
    pub fn approx_bytes(&self) -> usize {
        steps_bytes(&self.steps)
    }

    /// Weight-storage accounting aggregated over every MAC layer: lanes,
    /// distinct canonical streams, pool/index/resident bytes, and what the
    /// undeduplicated per-lane layout would cost for the same shapes.
    pub fn dedup_stats(&self) -> DedupStats {
        steps_dedup(&self.steps)
    }

    /// A 64-bit FNV-1a digest over the complete prepared content: prefix
    /// lengths, step structure, and every weight bank's words, presence
    /// flags and slot indices.
    ///
    /// Two prepares digest equal exactly when their banks are
    /// byte-identical — what the parallel-prepare determinism tests and
    /// the prepare bench's bit-identity gate assert across thread counts
    /// and shared-pool attachment, and what `pooled_exactness` pins per
    /// zoo model.
    pub fn content_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &l in &self.lengths {
            fnv1a(&mut h, l as u64);
        }
        digest_steps(&self.steps, &mut h);
        h
    }

    /// The most expensive MAC step's full-length bank shape — the
    /// calibration workload of the prepare-time tile autotuner. Cost proxy:
    /// `outputs × fan_in × seg_words` (the tiled weight walk's word work).
    pub(crate) fn heaviest_mac(&self) -> Option<crate::autotune::MacShape<'_>> {
        fn walk<'a>(steps: &'a [Step], best: &mut Option<(usize, crate::autotune::MacShape<'a>)>) {
            for s in steps {
                let shape = match &s.op {
                    StepOp::Conv(c) => {
                        let fan_in = c.in_c * c.k * c.k;
                        crate::autotune::MacShape {
                            view: c.weights.level(0),
                            fan_in,
                            outs: c.out_c,
                            segments: c.pool.map_or(1, |k| k * k),
                        }
                    }
                    StepOp::Dense(d) => crate::autotune::MacShape {
                        view: d.weights.level(0),
                        fan_in: d.in_n,
                        outs: d.out_n,
                        segments: 1,
                    },
                    StepOp::Residual(inner) => {
                        walk(inner, best);
                        continue;
                    }
                    _ => continue,
                };
                let cost = shape.outs * shape.fan_in * shape.view.seg_words;
                if best.as_ref().is_none_or(|&(b, _)| cost > b) {
                    *best = Some((cost, shape));
                }
            }
        }
        let mut best = None;
        walk(&self.steps, &mut best);
        best.map(|(_, s)| s)
    }
}

fn steps_bytes(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| match &s.op {
            StepOp::Conv(c) => c.weights.approx_bytes(),
            StepOp::Dense(d) => d.weights.approx_bytes(),
            StepOp::Residual(inner) => steps_bytes(inner),
            _ => 0,
        })
        .sum()
}

fn digest_steps(steps: &[Step], h: &mut u64) {
    for s in steps {
        for &b in s.label.as_bytes() {
            fnv1a(h, u64::from(b));
        }
        match &s.op {
            StepOp::Conv(c) => {
                fnv1a(h, 1);
                for v in [
                    c.in_c,
                    c.out_c,
                    c.k,
                    c.stride,
                    c.pad,
                    c.pool.map_or(0, |p| p + 1),
                    c.ordinal,
                ] {
                    fnv1a(h, v as u64);
                }
                c.weights.digest(h);
            }
            StepOp::Dense(d) => {
                fnv1a(h, 2);
                for v in [d.in_n, d.out_n, d.ordinal] {
                    fnv1a(h, v as u64);
                }
                d.weights.digest(h);
            }
            StepOp::BinaryAvgPool(k) => {
                fnv1a(h, 3);
                fnv1a(h, *k as u64);
            }
            StepOp::MaxPool(k) => {
                fnv1a(h, 4);
                fnv1a(h, *k as u64);
            }
            StepOp::Relu(max) => {
                fnv1a(h, 5);
                fnv1a(h, max.map_or(0, |v| u64::from(v.to_bits()) | (1 << 32)));
            }
            StepOp::Flatten => fnv1a(h, 6),
            StepOp::Residual(inner) => {
                fnv1a(h, 7);
                digest_steps(inner, h);
                fnv1a(h, 8);
            }
        }
    }
}

fn steps_dedup(steps: &[Step]) -> DedupStats {
    let mut total = DedupStats::default();
    for s in steps {
        match &s.op {
            StepOp::Conv(c) => total.merge(&c.weights.dedup_stats()),
            StepOp::Dense(d) => total.merge(&d.weights.dedup_stats()),
            StepOp::Residual(inner) => total.merge(&steps_dedup(inner)),
            _ => {}
        }
    }
    total
}

/// Executable prefix lengths of a prepared network: the configured maximum,
/// then repeated halvings while the per-phase length stays a positive
/// multiple of every MAC layer's pooling segmentation.
fn supported_prefix_lengths(max_stream_len: usize, segments: &[usize]) -> Vec<usize> {
    let mut lengths = vec![max_stream_len];
    let mut per_phase = max_stream_len / 2;
    while per_phase.is_multiple_of(2) {
        let next = per_phase / 2;
        if next == 0 || segments.iter().any(|&s| !next.is_multiple_of(s)) {
            break;
        }
        lengths.push(next * 2);
        per_phase = next;
    }
    lengths
}

/// The stochastic functional simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ScSimulator {
    cfg: SimConfig,
}

impl ScSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        ScSimulator { cfg }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Quantizes all weights and pre-generates their split-unipolar streams.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedLayer`] for layer arrangements the SC
    /// datapath cannot execute.
    pub fn prepare(&self, net: &Network) -> Result<PreparedNetwork, SimError> {
        self.prepare_with(net, &PrepareOptions::default())
    }

    /// [`ScSimulator::prepare`] with explicit parallelism/sharing knobs.
    ///
    /// The result is bit-identical to `prepare` for every thread count and
    /// with or without a shared pool (test-enforced via
    /// [`PreparedNetwork::content_digest`]): slot assignment happens in a
    /// serial canonical pass over per-lane keys, so parallelism only
    /// changes who computes each immutable artifact, never its position
    /// or contents.
    ///
    /// # Errors
    ///
    /// As [`ScSimulator::prepare`].
    pub fn prepare_with(
        &self,
        net: &Network,
        opts: &PrepareOptions,
    ) -> Result<PreparedNetwork, SimError> {
        let opts = opts.resolved();
        let mut segments = Vec::new();
        self.scan_segments(net.layers(), &mut segments);
        let lengths = supported_prefix_lengths(self.cfg.stream_len, &segments);
        let mut ordinal = 0usize;
        let steps = self.prepare_layers(net.layers(), &mut ordinal, &lengths, &opts)?;
        Ok(PreparedNetwork { steps, lengths })
    }

    /// Collects the pooling segmentation of every MAC layer, mirroring the
    /// fusion decisions of [`ScSimulator::prepare_layers`] (a conv directly
    /// followed by an average pool fuses when skipping is on).
    fn scan_segments(&self, layers: &[NetLayer], out: &mut Vec<usize>) {
        let mut i = 0usize;
        while i < layers.len() {
            match &layers[i] {
                NetLayer::Conv(_) => {
                    let pool = match layers.get(i + 1) {
                        Some(NetLayer::AvgPool(p)) if self.cfg.skip_pooling => Some(p.window()),
                        _ => None,
                    };
                    out.push(pool.map_or(1, |k| k * k));
                    i += if pool.is_some() { 2 } else { 1 };
                }
                NetLayer::Dense(_) => {
                    out.push(1);
                    i += 1;
                }
                NetLayer::Residual(r) => {
                    self.scan_segments(r.inner().layers(), out);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    fn prepare_layers(
        &self,
        layers: &[NetLayer],
        ordinal: &mut usize,
        lengths: &[usize],
        opts: &PrepareOptions,
    ) -> Result<Vec<Step>, SimError> {
        let wq = Quantizer::signed_unit(self.cfg.quant_bits)?;
        let mut steps = Vec::new();
        let mut i = 0usize;
        while i < layers.len() {
            match &layers[i] {
                NetLayer::Conv(conv) => {
                    // Fuse a directly-following AvgPool when skipping is on.
                    let pool = match layers.get(i + 1) {
                        Some(NetLayer::AvgPool(p)) if self.cfg.skip_pooling => Some(p.window()),
                        _ => None,
                    };
                    let segments = pool.map_or(1, |k| k * k);
                    if !self.cfg.per_phase_len().is_multiple_of(segments) {
                        return Err(SimError::UnsupportedLayer(format!(
                            "pooling window {segments}-way does not divide per-phase length {}",
                            self.cfg.per_phase_len()
                        )));
                    }
                    let weights = self.weight_streams(
                        conv.weights(),
                        &wq,
                        *ordinal,
                        segments,
                        lengths,
                        opts,
                    )?;
                    steps.push(Step::new(
                        format!("conv{ordinal}"),
                        StepOp::Conv(PreparedConv {
                            in_c: conv.in_channels(),
                            out_c: conv.out_channels(),
                            k: conv.kernel(),
                            stride: conv.stride(),
                            pad: conv.padding(),
                            pool,
                            weights,
                            ordinal: *ordinal,
                        }),
                    ));
                    *ordinal += 1;
                    i += if pool.is_some() { 2 } else { 1 };
                }
                NetLayer::Dense(d) => {
                    let weights =
                        self.weight_streams(d.weights(), &wq, *ordinal, 1, lengths, opts)?;
                    steps.push(Step::new(
                        format!("dense{ordinal}"),
                        StepOp::Dense(PreparedDense {
                            in_n: d.in_features(),
                            out_n: d.out_features(),
                            weights,
                            ordinal: *ordinal,
                        }),
                    ));
                    *ordinal += 1;
                    i += 1;
                }
                NetLayer::AvgPool(p) => {
                    steps.push(Step::new("avgpool", StepOp::BinaryAvgPool(p.window())));
                    i += 1;
                }
                NetLayer::MaxPool(p) => {
                    steps.push(Step::new("maxpool", StepOp::MaxPool(p.window())));
                    i += 1;
                }
                NetLayer::Relu(r) => {
                    steps.push(Step::new("relu", StepOp::Relu(r.max_value())));
                    i += 1;
                }
                NetLayer::Flatten(_) => {
                    steps.push(Step::new("flatten", StepOp::Flatten));
                    i += 1;
                }
                NetLayer::Residual(r) => {
                    let inner = self.prepare_layers(r.inner().layers(), ordinal, lengths, opts)?;
                    steps.push(Step::new("residual", StepOp::Residual(inner)));
                    i += 1;
                }
            }
        }
        Ok(steps)
    }

    /// Runs one stochastic inference, returning the logits.
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::prepare`]; additionally propagates shape errors.
    pub fn run(&self, net: &Network, input: &Tensor) -> Result<Tensor, SimError> {
        let prepared = self.prepare(net)?;
        self.run_prepared(&prepared, input)
    }

    /// Runs one inference on an already-prepared network.
    ///
    /// # Errors
    ///
    /// Propagates datapath and shape errors.
    pub fn run_prepared(
        &self,
        prepared: &PreparedNetwork,
        input: &Tensor,
    ) -> Result<Tensor, SimError> {
        self.run_prepared_with(prepared, input, &mut SimScratch::default())
    }

    /// Runs one inference reusing caller-owned working memory: a tile of
    /// one at the configured activation seed.
    ///
    /// Bit-identical to [`ScSimulator::run_prepared`]; the scratch only
    /// recycles buffers (activation banks, accumulators, lane lists)
    /// between calls so the steady-state datapath is allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates datapath and shape errors.
    pub fn run_prepared_with(
        &self,
        prepared: &PreparedNetwork,
        input: &Tensor,
        scratch: &mut SimScratch,
    ) -> Result<Tensor, SimError> {
        self.run_one(prepared, input, scratch, self.full_run())
    }

    /// The full-length run selection with the kernel resolved against host
    /// capabilities (and the force-scalar override).
    fn full_run(&self) -> RunLen {
        RunLen {
            level: 0,
            per_phase: self.cfg.per_phase_len(),
            kernel: active_kernel(self.cfg.kernel),
        }
    }

    /// The effective OR-group width (`usize::MAX` = whole fan-in, the
    /// ACOUSTIC fabric default).
    fn or_group(&self) -> usize {
        self.cfg.or_group.unwrap_or(usize::MAX).max(1)
    }

    /// Runs the prepare-time calibration sweep for `prepared` and returns
    /// the winning (kernel, tile) plan (see [`crate::autotune`]). Callers
    /// cache the result per (model, host); the plan never changes logits —
    /// every kernel × tile combination is bit-identical (test-enforced).
    pub fn calibrate_plan(&self, prepared: &PreparedNetwork) -> crate::autotune::TilePlan {
        crate::autotune::calibrate(&self.cfg, self.or_group(), prepared)
    }

    /// Runs one inference at a shorter stream-length prefix of the prepared
    /// banks.
    ///
    /// `stream_len` must be one of [`PreparedNetwork::supported_lengths`] —
    /// the prepare-time maximum or any of its power-of-two halvings. The
    /// result is bit-identical to preparing the network directly at
    /// `stream_len` and calling [`ScSimulator::run_prepared`]: weight
    /// streams are length-`L` prefixes of the max-length banks (sliced at
    /// prepare time, no regeneration) and activation streams are generated
    /// at the short length from the same seeds.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `stream_len` is not a supported
    /// prefix; otherwise propagates datapath and shape errors.
    pub fn run_prepared_at(
        &self,
        prepared: &PreparedNetwork,
        input: &Tensor,
        stream_len: usize,
    ) -> Result<Tensor, SimError> {
        self.run_prepared_at_with(prepared, input, stream_len, &mut SimScratch::default())
    }

    /// Scratch-reusing variant of [`ScSimulator::run_prepared_at`].
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::run_prepared_at`].
    pub fn run_prepared_at_with(
        &self,
        prepared: &PreparedNetwork,
        input: &Tensor,
        stream_len: usize,
        scratch: &mut SimScratch,
    ) -> Result<Tensor, SimError> {
        let run = self.resolve_len(prepared, stream_len)?;
        self.run_one(prepared, input, scratch, run)
    }

    /// Runs `input` as a tile of one at the configured activation seed.
    fn run_one(
        &self,
        prepared: &PreparedNetwork,
        input: &Tensor,
        scratch: &mut SimScratch,
        run: RunLen,
    ) -> Result<Tensor, SimError> {
        let mut outs =
            self.execute_tile(prepared, &[input], &[self.cfg.act_seed], None, scratch, run)?;
        Ok(outs.swap_remove(0))
    }

    /// Runs one inference per image of a tile, walking each weight-bank
    /// word once per tile instead of once per image (the weight banks are
    /// the large, cold operand — activations are regenerated per layer and
    /// stay hot). This is the simulator's only forward pass: every
    /// single-image entry point runs a tile of one.
    ///
    /// `act_seeds[t]` replaces the configured activation seed for image
    /// `t`, so callers batching distinct images keep per-image stream
    /// independence. The results are bit-identical to running each image
    /// alone through [`ScSimulator::run_prepared`] with
    /// `cfg.act_seed = act_seeds[t]`, for every tile size.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty tile or mismatched
    /// `inputs`/`act_seeds` lengths; otherwise propagates datapath and
    /// shape errors.
    pub fn run_prepared_tile(
        &self,
        prepared: &PreparedNetwork,
        inputs: &[&Tensor],
        act_seeds: &[u32],
    ) -> Result<Vec<Tensor>, SimError> {
        self.run_prepared_tile_with(prepared, inputs, act_seeds, &mut SimScratch::default())
    }

    /// Scratch-reusing variant of [`ScSimulator::run_prepared_tile`].
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::run_prepared_tile`].
    pub fn run_prepared_tile_with(
        &self,
        prepared: &PreparedNetwork,
        inputs: &[&Tensor],
        act_seeds: &[u32],
        scratch: &mut SimScratch,
    ) -> Result<Vec<Tensor>, SimError> {
        let run = self.full_run();
        self.execute_tile(prepared, inputs, act_seeds, None, scratch, run)
    }

    /// Tiled variant of [`ScSimulator::run_prepared_at_with`]: executes the
    /// whole tile at a shorter stream-length prefix of the prepared banks.
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::run_prepared_at`] and
    /// [`ScSimulator::run_prepared_tile`].
    pub fn run_prepared_tile_at_with(
        &self,
        prepared: &PreparedNetwork,
        inputs: &[&Tensor],
        act_seeds: &[u32],
        stream_len: usize,
        scratch: &mut SimScratch,
    ) -> Result<Vec<Tensor>, SimError> {
        let run = self.resolve_len(prepared, stream_len)?;
        self.execute_tile(prepared, inputs, act_seeds, None, scratch, run)
    }

    /// Timed variant of [`ScSimulator::run_prepared_tile_at_with`]: also
    /// returns one [`StepTiming`] per step, where each entry covers the
    /// whole tile (a tiled layer executes once for all images).
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::run_prepared_tile_at_with`].
    pub fn run_prepared_tile_at_timed_with(
        &self,
        prepared: &PreparedNetwork,
        inputs: &[&Tensor],
        act_seeds: &[u32],
        stream_len: usize,
        scratch: &mut SimScratch,
    ) -> Result<(Vec<Tensor>, Vec<StepTiming>), SimError> {
        let run = self.resolve_len(prepared, stream_len)?;
        let mut timings = Vec::with_capacity(prepared.step_count());
        let outs = self.execute_tile(
            prepared,
            inputs,
            act_seeds,
            Some(&mut timings),
            scratch,
            run,
        )?;
        Ok((outs, timings))
    }

    fn resolve_len(
        &self,
        prepared: &PreparedNetwork,
        stream_len: usize,
    ) -> Result<RunLen, SimError> {
        let level = prepared.level_of(stream_len).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "stream length {stream_len} is not an executable prefix of this \
                 prepared network (supported: {:?})",
                prepared.supported_lengths()
            ))
        })?;
        Ok(RunLen {
            level,
            per_phase: stream_len / 2,
            kernel: active_kernel(self.cfg.kernel),
        })
    }

    /// Stochastic prediction: argmax of the SC logits.
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::run`].
    pub fn predict(&self, prepared: &PreparedNetwork, input: &Tensor) -> Result<usize, SimError> {
        Ok(self.run_prepared(prepared, input)?.argmax())
    }

    /// Classification accuracy of the stochastic datapath over `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty sample set and
    /// propagates datapath errors.
    pub fn evaluate(&self, net: &Network, samples: &[Sample]) -> Result<f64, SimError> {
        let prepared = self.prepare(net)?;
        self.evaluate_prepared(&prepared, samples)
    }

    /// Classification accuracy over `samples` on an already-prepared
    /// network (the prepare-once path: weight quantization and stream
    /// generation are *not* repeated per call).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty sample set and
    /// propagates datapath errors.
    pub fn evaluate_prepared(
        &self,
        prepared: &PreparedNetwork,
        samples: &[Sample],
    ) -> Result<f64, SimError> {
        if samples.is_empty() {
            return Err(SimError::InvalidConfig("empty evaluation set".into()));
        }
        let mut scratch = SimScratch::default();
        let mut correct = 0usize;
        for (input, label) in samples {
            if self
                .run_prepared_with(prepared, input, &mut scratch)?
                .argmax()
                == *label
            {
                correct += 1;
            }
        }
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Generates the per-segment weight streams of a MAC layer into its
    /// deduplicated stream pool — one word level per executable prefix
    /// length.
    ///
    /// Every weight's SNG walks **once**, at the maximum length; each
    /// shorter level is re-segmented out of that same full-length stream
    /// (its length-`L` prefix), which is bit-identical to generating the
    /// level directly because the LFSR emits bits sequentially.
    ///
    /// Quantization happens through a per-code lookup table
    /// ([`threshold_lut`]): the 8-bit code fully determines the quantized
    /// component (`quantize_value` = `decode ∘ encode`), so the hot loop
    /// over up to 10⁸ lanes is integer-only and bit-exact versus the
    /// historical per-lane float path.
    fn weight_streams(
        &self,
        weights: &[f32],
        wq: &Quantizer,
        ordinal: usize,
        segments: usize,
        lengths: &[usize],
        opts: &PrepareOptions,
    ) -> Result<Arc<StreamPool>, SimError> {
        let m = self.cfg.per_phase_len();
        if !m.is_multiple_of(segments) {
            return Err(SimError::UnsupportedLayer(format!(
                "pooling window {segments}-way does not divide per-phase length {m}"
            )));
        }
        let lut = threshold_lut(wq)?;
        // Layer tier: a warm re-prepare of an unchanged layer is a
        // reference-count bump. The key covers every input that shapes the
        // banks (weights, seed, quantization, segmentation, prefix
        // lengths), so a hit is bit-identical by construction. Key
        // computation is gated on pool presence — hashing an
        // ImageNet-scale layer is not free.
        let key = opts.shared_pool.as_ref().map(|_| {
            layer_content_key(
                weights,
                self.cfg.wgt_seed,
                ordinal,
                self.cfg.quant_bits,
                segments,
                lengths,
            )
        });
        if let (Some(shared), Some(key)) = (opts.shared_pool.as_deref(), key) {
            if let Some(hit) = shared.layer(key) {
                return Ok(hit);
            }
        }
        let pool =
            Arc::new(self.build_stream_pool(weights, wq, &lut, ordinal, segments, lengths, opts)?);
        if let (Some(shared), Some(key)) = (opts.shared_pool.as_deref(), key) {
            shared.insert_layer(key, &pool);
        }
        Ok(pool)
    }

    /// Builds a layer's stream pool: one canonical stream per distinct
    /// (mixed 16-bit SNG seed, quantized threshold) key, with every lane
    /// holding a compact slot index into the pool.
    ///
    /// A stream is a pure function of that key — two lanes with the same
    /// mixed seed and quantized magnitude would own bit-identical words,
    /// so sharing one copy cannot change logits.
    /// The seed space is 16 bits wide and the 8-bit quantizer emits a few
    /// hundred magnitudes, so distinct keys are bounded per layer while
    /// lane counts grow with the model — the bigger the layer, the bigger
    /// the win (ImageNet-scale dense layers dedup ~10×).
    ///
    /// The build runs in three phases so it can parallelise without
    /// changing a single bit of the artifact:
    ///
    /// * **Phase A (parallel)** — collect every lane's packed key; pure
    ///   per-lane integer work with no ordering component.
    /// * **Phase B (serial)** — assign slot ids at first sight in a
    ///   phase-major scan (positive lanes, then negative), exactly the
    ///   order the historical single-threaded build used. This is the only
    ///   order-sensitive step and it never runs in parallel, which is why
    ///   banks are bit-identical for every thread count. The phase-major
    ///   order keeps each kernel phase pass on a dense ascending slot
    ///   range.
    /// * **Phase C (parallel)** — materialize each slot's words into
    ///   pre-sized level buffers; slot positions were fixed in phase B, so
    ///   slot ranges fill independently. With a shared pool attached, the
    ///   canonical full-length words come from the process-wide stream
    ///   tier (one SNG walk per key per process).
    ///
    /// Every prefix level lays its words out in slot order from the same
    /// single SNG walk, so one index vector serves all levels and prefix
    /// execution stays bit-identical to a direct prepare at the shorter
    /// length.
    #[allow(clippy::too_many_arguments)]
    fn build_stream_pool(
        &self,
        weights: &[f32],
        wq: &Quantizer,
        lut: &[(u8, u32)],
        ordinal: usize,
        segments: usize,
        lengths: &[usize],
        opts: &PrepareOptions,
    ) -> Result<StreamPool, SimError> {
        let m = self.cfg.per_phase_len();
        let lanes = weights.len();
        let wgt_seed = self.cfg.wgt_seed;

        // Phase A — parallel key collect.
        let mut keys = vec![0u64; lanes];
        let mut pos = vec![false; lanes];
        let a_threads = effective_threads(opts.threads, lanes, MIN_LANES_PER_THREAD);
        if a_threads == 1 {
            collect_key_chunk(weights, wq, lut, wgt_seed, ordinal, 0, &mut keys, &mut pos);
        } else {
            let chunk = lanes.div_ceil(a_threads);
            std::thread::scope(|s| {
                for ((w, wchunk), (kchunk, pchunk)) in weights
                    .chunks(chunk)
                    .enumerate()
                    .zip(keys.chunks_mut(chunk).zip(pos.chunks_mut(chunk)))
                {
                    s.spawn(move || {
                        collect_key_chunk(
                            wchunk,
                            wq,
                            lut,
                            wgt_seed,
                            ordinal,
                            w * chunk,
                            kchunk,
                            pchunk,
                        );
                    });
                }
            });
        }

        // Phase B — serial canonical slot assignment over the collected
        // keys (phase-major, first sight).
        let mut pool = StreamPool {
            index: vec![NO_SLOT; lanes],
            pos_present: vec![false; lanes],
            neg_present: vec![false; lanes],
            levels: lengths
                .iter()
                .map(|&l| PoolLevel {
                    words: Vec::new(),
                    seg_words: (l / 2 / segments).div_ceil(64),
                })
                .collect(),
            distinct: 0,
            segments,
        };
        let mut map = PoolMap::new();
        let mut slot_keys: Vec<u64> = Vec::new();
        for pass_positive in [true, false] {
            for j in 0..lanes {
                // `mix_seed` never yields 0, so key 0 unambiguously marks a
                // zero-quantized (skipped) lane.
                let key = keys[j];
                if key == 0 || pos[j] != pass_positive {
                    continue;
                }
                let slot = match map.get(key) {
                    Some(s) => s,
                    None => {
                        if slot_keys.len() >= NO_SLOT as usize {
                            return Err(SimError::UnsupportedLayer(
                                "weight-stream pool exceeds u32 slot space".into(),
                            ));
                        }
                        let s = slot_keys.len() as u32;
                        slot_keys.push(key);
                        map.insert(key, s);
                        s
                    }
                };
                pool.index[j] = slot;
                if pass_positive {
                    pool.pos_present[j] = true;
                } else {
                    pool.neg_present[j] = true;
                }
            }
        }
        pool.distinct = slot_keys.len();

        // Phase C — parallel slot materialize into pre-sized buffers.
        for level in pool.levels.iter_mut() {
            level.words = vec![0u64; slot_keys.len() * segments * level.seg_words];
        }
        let shared = opts.shared_pool.as_deref();
        let c_threads = effective_threads(opts.threads, slot_keys.len(), MIN_SLOTS_PER_THREAD);
        if c_threads == 1 {
            let views: Vec<(&mut [u64], usize)> = pool
                .levels
                .iter_mut()
                .map(|lv| (lv.words.as_mut_slice(), lv.seg_words))
                .collect();
            materialize_slot_chunk(&slot_keys, segments, lengths, m, shared, views)?;
        } else {
            let chunk = slot_keys.len().div_ceil(c_threads);
            let mut iters: Vec<_> = pool
                .levels
                .iter_mut()
                .map(|lv| {
                    let per = segments * lv.seg_words;
                    (lv.seg_words, lv.words.chunks_mut(chunk * per))
                })
                .collect();
            std::thread::scope(|s| -> Result<(), SimError> {
                let mut handles = Vec::new();
                for key_chunk in slot_keys.chunks(chunk) {
                    let views: Vec<(&mut [u64], usize)> = iters
                        .iter_mut()
                        .map(|(sw, it)| (it.next().unwrap_or_default(), *sw))
                        .collect();
                    handles.push(s.spawn(move || {
                        materialize_slot_chunk(key_chunk, segments, lengths, m, shared, views)
                    }));
                }
                for h in handles {
                    h.join().expect("prepare worker panicked")?;
                }
                Ok(())
            })?;
        }
        Ok(pool)
    }

    /// Generates activation streams for a whole layer input into the
    /// scratch's segmented, word-aligned bank.
    ///
    /// Stream contents and gating are bit-identical to the historical
    /// per-segment `slice` layout: segment `e` of activation `j` holds bits
    /// `[e * seg_len, (e + 1) * seg_len)` of stream `j`, and a lane is gated
    /// (skipped by the MAC without consuming an OR-group slot) exactly when
    /// the old path stored `None` — `v <= 0` on the per-index-seed path, an
    /// all-zero generated stream on the shared-RNG path.
    #[allow(clippy::too_many_arguments)]
    fn fill_activation_bank(
        &self,
        values: &[f32],
        act_seed: u32,
        ordinal: usize,
        segments: usize,
        m: usize,
        full: &mut Vec<u64>,
        thresholds: &mut Vec<u32>,
        acts: &mut ActBank,
    ) -> Result<(), SimError> {
        // With per-layer regeneration disabled, every layer draws the same
        // random sequences (ordinal dropped from the seed mix) — the §II-C
        // correlation ablation.
        let ordinal = if self.cfg.regenerate_streams {
            ordinal
        } else {
            0
        };
        let seg_len = m / segments;
        let seg_words = seg_len.div_ceil(64);
        let full_words = m.div_ceil(64);
        acts.reset(values.len(), segments, seg_words);
        if self.cfg.shared_act_rng {
            // One LFSR shared by every activation SNG (hardware sharing):
            // a single walk of `m` cycles serves every comparator.
            let seed = mix_seed(act_seed, ordinal as u32, 0, 7);
            let mut bank = SngBank::new(SNG_WIDTH, seed)?;
            thresholds.clear();
            for &v in values {
                thresholds.push(quantize_probability(
                    f64::from(v.clamp(0.0, 1.0)),
                    SNG_WIDTH,
                )?);
            }
            full.clear();
            full.resize(values.len() * full_words, 0);
            bank.fill_quantized(thresholds, m, full);
            for idx in 0..values.len() {
                let words = &full[idx * full_words..(idx + 1) * full_words];
                if count_ones_words(words) == 0 {
                    acts.gate(idx);
                    continue;
                }
                for e in 0..segments {
                    copy_bit_range(words, e * seg_len, seg_len, acts.segment_mut(idx, e));
                    acts.note_segment(idx, e);
                }
            }
        } else {
            full.clear();
            full.resize(full_words, 0);
            for (idx, &v) in values.iter().enumerate() {
                if v <= 0.0 {
                    acts.gate(idx);
                    continue;
                }
                let seed = mix_seed(act_seed, ordinal as u32, idx as u32, 3);
                let mut sng = Sng::new(Lfsr::maximal(SNG_WIDTH, seed)?, SNG_WIDTH);
                let threshold = quantize_probability(f64::from(v.min(1.0)), SNG_WIDTH)?;
                sng.fill_quantized(threshold, m, full);
                for e in 0..segments {
                    copy_bit_range(full, e * seg_len, seg_len, acts.segment_mut(idx, e));
                    acts.note_segment(idx, e);
                }
            }
        }
        Ok(())
    }

    fn execute_tile(
        &self,
        prepared: &PreparedNetwork,
        inputs: &[&Tensor],
        act_seeds: &[u32],
        timings: Option<&mut Vec<StepTiming>>,
        scratch: &mut SimScratch,
        run: RunLen,
    ) -> Result<Vec<Tensor>, SimError> {
        if inputs.is_empty() {
            return Err(SimError::InvalidConfig("empty tile".into()));
        }
        if inputs.len() != act_seeds.len() {
            return Err(SimError::InvalidConfig(format!(
                "tile has {} inputs but {} activation seeds",
                inputs.len(),
                act_seeds.len()
            )));
        }
        let aq = Quantizer::unsigned_unit(self.cfg.quant_bits)?;
        let xs: Vec<Tensor> = inputs
            .iter()
            .map(|t| t.map(|v| aq.quantize_value(v.clamp(0.0, 1.0))))
            .collect();
        self.execute_steps_tile(&prepared.steps, xs, act_seeds, timings, scratch, run)
    }

    fn execute_steps_tile(
        &self,
        steps: &[Step],
        mut xs: Vec<Tensor>,
        act_seeds: &[u32],
        mut timings: Option<&mut Vec<StepTiming>>,
        scratch: &mut SimScratch,
        run: RunLen,
    ) -> Result<Vec<Tensor>, SimError> {
        for step in steps {
            let started = timings.as_ref().map(|_| std::time::Instant::now());
            xs = match &step.op {
                StepOp::Conv(c) => self.exec_conv_tile(c, &xs, act_seeds, scratch, run)?,
                StepOp::Dense(d) => self.exec_dense_tile(d, &xs, act_seeds, scratch, run)?,
                StepOp::BinaryAvgPool(k) => xs
                    .iter()
                    .map(|x| binary_avg_pool(x, *k))
                    .collect::<Result<_, _>>()?,
                StepOp::MaxPool(k) => xs
                    .iter()
                    .map(|x| binary_max_pool(x, *k))
                    .collect::<Result<_, _>>()?,
                StepOp::Relu(hi) => {
                    // The counter/ReLU unit gates the sign and the unipolar
                    // representation caps at 1.0 regardless of the layer's
                    // own clamp setting.
                    let cap = hi.unwrap_or(1.0).min(1.0);
                    xs.into_iter()
                        .map(|x| x.map(|v| v.clamp(0.0, cap)))
                        .collect()
                }
                StepOp::Flatten => xs.iter().map(|x| x.to_flat()).collect(),
                StepOp::Residual(inner) => {
                    let skips = xs.clone();
                    let mut ys = self.execute_steps_tile(
                        inner,
                        xs,
                        act_seeds,
                        timings.as_deref_mut(),
                        scratch,
                        run,
                    )?;
                    for (y, skip) in ys.iter_mut().zip(&skips) {
                        if y.shape() != skip.shape() {
                            return Err(SimError::UnsupportedLayer(format!(
                                "residual inner path changed shape {:?} -> {:?}",
                                skip.shape(),
                                y.shape()
                            )));
                        }
                        // Counter-domain addition of the skip path.
                        for (o, &s) in y.as_mut_slice().iter_mut().zip(skip.as_slice()) {
                            *o += s;
                        }
                    }
                    ys
                }
            };
            if let (Some(t), Some(start)) = (timings.as_deref_mut(), started) {
                t.push(StepTiming {
                    name: Arc::clone(&step.label),
                    nanos: start.elapsed().as_nanos(),
                });
            }
        }
        Ok(xs)
    }

    /// Fills one activation bank per tile image (identical layouts, the
    /// image's own seed), counts the lane filter's per-activation live
    /// images and per-segment non-zero images, and sizes the multi-word
    /// accumulators.
    #[allow(clippy::too_many_arguments)]
    fn fill_tile_banks(
        &self,
        xs: &[Tensor],
        act_seeds: &[u32],
        ordinal: usize,
        segments: usize,
        m: usize,
        seg_words: usize,
        scratch: &mut SimScratch,
    ) -> Result<(), SimError> {
        let tile = xs.len();
        let SimScratch {
            full,
            thresholds,
            acts,
            live,
            nonzero,
            accs,
            ..
        } = scratch;
        if acts.len() < tile {
            acts.resize_with(tile, ActBank::default);
        }
        for ((x, &seed), bank) in xs.iter().zip(act_seeds).zip(acts.iter_mut()) {
            self.fill_activation_bank(
                x.as_slice(),
                seed,
                ordinal,
                segments,
                m,
                full,
                thresholds,
                bank,
            )?;
        }
        let streams = xs[0].len();
        live.clear();
        live.resize(streams, 0);
        nonzero.clear();
        nonzero.resize(streams * segments, 0);
        for bank in &acts[..tile] {
            for (l, &g) in live.iter_mut().zip(&bank.gated) {
                *l += u32::from(!g);
            }
            // Gated activations leave every segment flagged zero.
            for (z, &zero) in nonzero.iter_mut().zip(&bank.seg_zero) {
                *z += u32::from(!zero);
            }
        }
        // The kernels return the accumulators all-zero, so they only grow.
        if accs.len() < MAX_BLOCK * seg_words {
            accs.resize(MAX_BLOCK * seg_words, 0);
        }
        Ok(())
    }

    fn exec_conv_tile(
        &self,
        c: &PreparedConv,
        xs: &[Tensor],
        act_seeds: &[u32],
        scratch: &mut SimScratch,
        run: RunLen,
    ) -> Result<Vec<Tensor>, SimError> {
        let weights = c.weights.level(run.level);
        let shape = xs[0].shape();
        for x in xs {
            let s = x.shape();
            if s.len() != 3 || s[0] != c.in_c || s != shape {
                return Err(SimError::Nn(acoustic_nn::NnError::ShapeMismatch {
                    expected: vec![c.in_c, 0, 0],
                    actual: s.to_vec(),
                }));
            }
        }
        let (h, w) = (shape[1], shape[2]);
        let oh = (h + 2 * c.pad - c.k) / c.stride + 1;
        let ow = (w + 2 * c.pad - c.k) / c.stride + 1;
        let segments = c.pool.map_or(1, |k| k * k);
        if let Some(pk) = c.pool {
            if !oh.is_multiple_of(pk) || !ow.is_multiple_of(pk) {
                return Err(SimError::UnsupportedLayer(format!(
                    "conv output {oh}x{ow} not divisible by fused pool window {pk}"
                )));
            }
        }
        let m = run.per_phase;
        let seg_words = weights.seg_words;
        let tile = xs.len();
        self.fill_tile_banks(xs, act_seeds, c.ordinal, segments, m, seg_words, scratch)?;

        let geom = SegGeom::new(segments, seg_words, m / segments, self.or_group());
        let single = geom.single_group();
        let fan_in = c.in_c * c.k * c.k;
        let (out_h, out_w) = match c.pool {
            Some(pk) => (oh / pk, ow / pk),
            None => (oh, ow),
        };
        let mut outs: Vec<Tensor> = (0..tile)
            .map(|_| Tensor::zeros(&[c.out_c, out_h, out_w]))
            .collect();

        let window = c.pool.unwrap_or(1);
        let SimScratch {
            lanes,
            acts,
            live,
            nonzero,
            accs,
            counts,
            stats,
            ..
        } = scratch;
        let banks = &acts[..tile];
        // The receptive field (`lanes`) depends only on the spatial position,
        // so it is built once per (py, px, e) and reused across all output
        // channels and images; the per-channel weight base (`oc * fan_in`)
        // is added inside the MAC.
        for py in 0..out_h {
            for px in 0..out_w {
                counts.clear();
                counts.resize(tile * c.out_c, 0);
                // `e` is the pooling-segment ordinal, mapped to a conv
                // output position; enumerating would not simplify this.
                #[allow(clippy::needless_range_loop)]
                for e in 0..segments {
                    // Conv output position covered by this segment.
                    let (oy, ox) = if c.pool.is_some() {
                        (py * window + e / window, px * window + e % window)
                    } else {
                        (py, px)
                    };
                    lanes.clear();
                    for ic in 0..c.in_c {
                        for ky in 0..c.k {
                            let iy = (oy * c.stride + ky) as isize - c.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..c.k {
                                let ix = (ox * c.stride + kx) as isize - c.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let a_idx = (ic * h + iy as usize) * w + ix as usize;
                                // A lane gated in every image consumes no
                                // OR-group slot anywhere — drop it. With a
                                // single group, a lane that is gated or
                                // all-zero in every image is a no-op too.
                                let live_images = live[a_idx];
                                if live_images == 0 {
                                    continue;
                                }
                                if single && nonzero[a_idx * segments + e] == 0 {
                                    stats.zero_seg_skips += u64::from(live_images);
                                    continue;
                                }
                                let w_base = (ic * c.k + ky) * c.k + kx;
                                lanes.push((a_idx, w_base));
                            }
                        }
                    }
                    for oc in 0..c.out_c {
                        kernels::mac_segment_tile(
                            run.kernel,
                            &geom,
                            banks,
                            weights.pos,
                            weights.neg,
                            lanes,
                            oc * fan_in,
                            e,
                            accs,
                            counts,
                            c.out_c,
                            oc,
                            stats,
                        );
                    }
                }
                for (out, row) in outs.iter_mut().zip(counts.chunks_exact(c.out_c)) {
                    for (oc, &count) in row.iter().enumerate() {
                        out.set3(oc, py, px, count as f32 / m as f32);
                    }
                }
            }
        }
        Ok(outs)
    }

    fn exec_dense_tile(
        &self,
        d: &PreparedDense,
        xs: &[Tensor],
        act_seeds: &[u32],
        scratch: &mut SimScratch,
        run: RunLen,
    ) -> Result<Vec<Tensor>, SimError> {
        for x in xs {
            if x.len() != d.in_n {
                return Err(SimError::Nn(acoustic_nn::NnError::ShapeMismatch {
                    expected: vec![d.in_n],
                    actual: x.shape().to_vec(),
                }));
            }
        }
        let weights = d.weights.level(run.level);
        let m = run.per_phase;
        let seg_words = weights.seg_words;
        let tile = xs.len();
        self.fill_tile_banks(xs, act_seeds, d.ordinal, 1, m, seg_words, scratch)?;
        let geom = SegGeom::new(1, seg_words, m, self.or_group());
        let single = geom.single_group();
        let SimScratch {
            lanes,
            acts,
            live,
            nonzero,
            accs,
            counts,
            stats,
            ..
        } = scratch;
        let banks = &acts[..tile];
        lanes.clear();
        // One segment per stream: the segment index equals the activation
        // index. Same filter as the conv lanes.
        for i in 0..d.in_n {
            if live[i] == 0 {
                continue;
            }
            if single && nonzero[i] == 0 {
                stats.zero_seg_skips += u64::from(live[i]);
                continue;
            }
            lanes.push((i, i));
        }
        counts.clear();
        counts.resize(tile * d.out_n, 0);
        for o in 0..d.out_n {
            kernels::mac_segment_tile(
                run.kernel,
                &geom,
                banks,
                weights.pos,
                weights.neg,
                lanes,
                o * d.in_n,
                0,
                accs,
                counts,
                d.out_n,
                o,
                stats,
            );
        }
        counts
            .chunks_exact(d.out_n)
            .map(|row| {
                let row: Vec<f32> = row.iter().map(|&c| c as f32 / m as f32).collect();
                Ok(Tensor::from_vec(&[d.out_n], row)?)
            })
            .collect()
    }
}

/// Binary-domain average pooling (used when computation skipping is off).
fn binary_avg_pool(x: &Tensor, k: usize) -> Result<Tensor, SimError> {
    let mut pool = acoustic_nn::layers::AvgPool2d::new(k)?;
    Ok(pool.forward(x)?)
}

/// Binary-domain max pooling.
fn binary_max_pool(x: &Tensor, k: usize) -> Result<Tensor, SimError> {
    let mut pool = acoustic_nn::layers::MaxPool2d::new(k)?;
    Ok(pool.forward(x)?)
}

/// Weight-code tags of a [`threshold_lut`] entry.
const TAG_SKIP: u8 = 0;
const TAG_POS: u8 = 1;
const TAG_NEG: u8 = 2;

/// Per-code SNG lookup: (phase tag, quantized comparator threshold),
/// precomputed once per layer so the per-lane hot loop is integer-only.
///
/// Bit-exact versus the historical per-lane float path because
/// `quantize_value(w)` = `decode(encode(w))` — the code fully determines
/// the quantized component, its sign and therefore its threshold.
fn threshold_lut(wq: &Quantizer) -> Result<Vec<(u8, u32)>, SimError> {
    (0..wq.levels())
        .map(|code| {
            let v = wq.decode(code);
            if v > 0.0 {
                Ok((TAG_POS, quantize_probability(f64::from(v), SNG_WIDTH)?))
            } else if v < 0.0 {
                Ok((TAG_NEG, quantize_probability(f64::from(-v), SNG_WIDTH)?))
            } else {
                Ok((TAG_SKIP, 0))
            }
        })
        .collect()
}

/// Clamps a resolved thread count to the useful degree of parallelism for
/// `work` items at `min_per_thread` granularity (spawning a thread for a
/// few hundred lanes costs more than the lanes).
fn effective_threads(threads: usize, work: usize, min_per_thread: usize) -> usize {
    threads.clamp(1, work.div_ceil(min_per_thread).max(1))
}

/// Collects one lane chunk's packed stream keys (phase A). A lane's
/// key is `(mixed seed << 32) | threshold` — nonzero, since `mix_seed`
/// never yields 0 — or 0 for a zero-quantized (skipped) lane.
#[allow(clippy::too_many_arguments)]
fn collect_key_chunk(
    weights: &[f32],
    wq: &Quantizer,
    lut: &[(u8, u32)],
    wgt_seed: u32,
    ordinal: usize,
    start: usize,
    keys: &mut [u64],
    pos: &mut [bool],
) {
    for (local, &w) in weights.iter().enumerate() {
        let (tag, threshold) = lut[wq.encode(w) as usize];
        if tag == TAG_SKIP {
            continue;
        }
        let positive = tag == TAG_POS;
        let j = start + local;
        let seed = mix_seed(wgt_seed, ordinal as u32, j as u32, u32::from(!positive));
        keys[local] = (u64::from(seed) << 32) | u64::from(threshold);
        pos[local] = positive;
    }
}

/// Materializes one contiguous slot-range chunk of a stream pool (phase
/// C): walks (or fetches from the shared stream tier) each slot's
/// canonical full-length words and lays its per-segment prefix slices into
/// every level at the slot's pre-assigned position.
fn materialize_slot_chunk(
    slot_keys: &[u64],
    segments: usize,
    lengths: &[usize],
    m: usize,
    shared: Option<&SharedStreamPool>,
    mut views: Vec<(&mut [u64], usize)>,
) -> Result<(), SimError> {
    let full_words = m.div_ceil(64);
    let mut local = vec![0u64; full_words];
    for (slot_local, &key) in slot_keys.iter().enumerate() {
        let seed = (key >> 32) as u32;
        let threshold = (key & 0xFFFF_FFFF) as u32;
        let generate = |buf: &mut [u64]| -> Result<(), SimError> {
            let mut sng = Sng::new(Lfsr::maximal(SNG_WIDTH, seed)?, SNG_WIDTH);
            sng.fill_quantized(threshold, m, buf);
            Ok(())
        };
        let arc_words;
        let full: &[u64] = match shared {
            Some(pool) => {
                arc_words = pool.stream(seed, threshold, m, || {
                    let mut buf = vec![0u64; full_words];
                    generate(&mut buf)?;
                    Ok(buf)
                })?;
                &arc_words
            }
            None => {
                generate(&mut local)?;
                &local
            }
        };
        for ((words, sw), &len) in views.iter_mut().zip(lengths) {
            let seg_len = len / 2 / segments;
            for e in 0..segments {
                let off = (slot_local * segments + e) * *sw;
                copy_bit_range(full, e * seg_len, seg_len, &mut words[off..off + *sw]);
            }
        }
    }
    Ok(())
}

/// Mixes seed components into a non-zero 16-bit LFSR seed.
fn mix_seed(base: u32, a: u32, b: u32, c: u32) -> u32 {
    let mut s = base
        .wrapping_add(a.wrapping_mul(0x9E3779B9))
        .wrapping_add(b.wrapping_mul(0x85EBCA6B))
        .wrapping_add(c.wrapping_mul(0xC2B2AE35));
    s ^= s >> 16;
    s = s.wrapping_mul(0x45D9F3B);
    s ^= s >> 13;
    s &= 0xFFFF;
    if s == 0 {
        0x5EED
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};

    fn cfg(n: usize) -> SimConfig {
        SimConfig::with_stream_len(n).unwrap()
    }

    #[test]
    fn mix_seed_is_nonzero_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..20 {
            for b in 0..20 {
                let s = mix_seed(0xACE1, a, b, 3);
                assert!(s != 0 && s <= 0xFFFF);
                seen.insert(s);
            }
        }
        assert!(seen.len() > 300, "seeds collide too much: {}", seen.len());
    }

    #[test]
    fn shared_bank_matches_old_slice_path() {
        let mut c = cfg(128);
        c.shared_act_rng = true;
        let sim = ScSimulator::new(c);
        let values: Vec<f32> = (0..25).map(|i| i as f32 / 24.0 - 0.2).collect();
        let segments = 4;
        let mut scratch = SimScratch::default();
        let mut acts = ActBank::default();
        let m = sim.cfg.per_phase_len();
        sim.fill_activation_bank(
            &values,
            sim.cfg.act_seed,
            2,
            segments,
            m,
            &mut scratch.full,
            &mut scratch.thresholds,
            &mut acts,
        )
        .unwrap();
        let seg_len = m / segments;
        let seed = mix_seed(sim.cfg.act_seed, 2, 0, 7);
        let mut bank = SngBank::new(16, seed).unwrap();
        let vals: Vec<f64> = values
            .iter()
            .map(|&v| f64::from(v.clamp(0.0, 1.0)))
            .collect();
        let streams = bank.generate_many(&vals, m).unwrap();
        for (idx, s) in streams.iter().enumerate() {
            if s.count_ones() == 0 {
                assert!(acts.gated[idx], "idx {idx} should be gated");
                continue;
            }
            assert!(!acts.gated[idx], "idx {idx} wrongly gated");
            for e in 0..segments {
                let old = s.slice(e * seg_len, seg_len);
                assert_eq!(acts.segment(idx, e), old.as_words(), "idx {idx} seg {e}");
            }
        }
    }

    #[test]
    fn dense_identity_passes_value() {
        // One weight of +1.0: output ≈ input value.
        let mut net = Network::new();
        let mut fc = Dense::new(1, 1, AccumMode::Linear).unwrap();
        fc.weights_mut()[0] = 1.0;
        net.push_dense(fc);
        let sim = ScSimulator::new(cfg(2048));
        let out = sim
            .run(&net, &Tensor::from_vec(&[1], vec![0.5]).unwrap())
            .unwrap();
        assert!(
            (out.as_slice()[0] - 0.5).abs() < 0.05,
            "{}",
            out.as_slice()[0]
        );
    }

    #[test]
    fn dense_negative_weight_subtracts() {
        let mut net = Network::new();
        let mut fc = Dense::new(2, 1, AccumMode::Linear).unwrap();
        fc.weights_mut().copy_from_slice(&[0.8, -0.5]);
        net.push_dense(fc);
        let sim = ScSimulator::new(cfg(4096));
        let out = sim
            .run(&net, &Tensor::from_vec(&[2], vec![0.5, 0.6]).unwrap())
            .unwrap();
        // ideal: 0.4 - 0.3 = 0.1 (OR is exact for single products per sign)
        assert!(
            (out.as_slice()[0] - 0.1).abs() < 0.05,
            "{}",
            out.as_slice()[0]
        );
    }

    #[test]
    fn conv_matches_or_expectation() {
        let mut net = Network::new();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, AccumMode::OrExact).unwrap();
        conv.weights_mut().copy_from_slice(&[0.5, 0.5, 0.5, 0.5]);
        net.push_conv(conv.clone());
        let input = Tensor::from_vec(&[1, 2, 2], vec![0.5; 4]).unwrap();
        let sim = ScSimulator::new(cfg(4096));
        let sc_out = sim.run(&net, &input).unwrap();
        // Exact OR expectation: 1 - (1 - 0.25)^4 = 0.6836
        let expect = 1.0 - 0.75f32.powi(4);
        assert!(
            (sc_out.as_slice()[0] - expect).abs() < 0.05,
            "sc {} vs expected {expect}",
            sc_out.as_slice()[0]
        );
    }

    #[test]
    fn skip_pooling_matches_binary_pooling_in_expectation() {
        let mut net = Network::new();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, AccumMode::Linear).unwrap();
        conv.weights_mut()[0] = 1.0;
        net.push_conv(conv);
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        let input = Tensor::from_vec(&[1, 2, 2], vec![0.8, 0.4, 0.2, 0.6]).unwrap();

        let mut skip_cfg = cfg(4096);
        skip_cfg.skip_pooling = true;
        let skip_out = ScSimulator::new(skip_cfg).run(&net, &input).unwrap();
        assert_eq!(skip_out.shape(), &[1, 1, 1]);

        let mut plain_cfg = cfg(4096);
        plain_cfg.skip_pooling = false;
        let plain_out = ScSimulator::new(plain_cfg).run(&net, &input).unwrap();

        // Both approximate mean = 0.5.
        assert!((skip_out.as_slice()[0] - 0.5).abs() < 0.05);
        assert!((plain_out.as_slice()[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let mut net = Network::new();
        let mut fc = Dense::new(1, 1, AccumMode::Linear).unwrap();
        fc.weights_mut()[0] = -1.0;
        net.push_dense(fc);
        net.push_relu(Relu::clamped());
        let sim = ScSimulator::new(cfg(1024));
        let out = sim
            .run(&net, &Tensor::from_vec(&[1], vec![0.9]).unwrap())
            .unwrap();
        assert_eq!(out.as_slice()[0], 0.0);
    }

    /// Step labels of one timed tile-of-one run of `net` on `input`.
    pub(super) fn timed_step_names(
        sim: &ScSimulator,
        net: &Network,
        input: &Tensor,
    ) -> Vec<String> {
        let prepared = sim.prepare(net).unwrap();
        let (_, timings) = sim
            .run_prepared_tile_at_timed_with(
                &prepared,
                &[input],
                &[sim.cfg.act_seed],
                prepared.max_stream_len(),
                &mut SimScratch::default(),
            )
            .unwrap();
        timings.iter().map(|t| t.name.to_string()).collect()
    }

    #[test]
    fn timed_run_records_steps() {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(2 * 4 * 4, 3, AccumMode::OrApprox).unwrap());
        let sim = ScSimulator::new(cfg(128));
        let input = Tensor::zeros(&[1, 4, 4]);
        let names = timed_step_names(&sim, &net, &input);
        assert_eq!(names, vec!["conv0", "relu", "flatten", "dense1"]);
        assert_eq!(sim.run(&net, &input).unwrap().shape(), &[3]);
    }

    #[test]
    fn indivisible_pool_window_is_rejected() {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(3).unwrap()); // 9 segments
        let sim = ScSimulator::new(cfg(128)); // 64 per phase; 64 % 9 != 0
        assert!(matches!(
            sim.prepare(&net),
            Err(SimError::UnsupportedLayer(_))
        ));
    }

    #[test]
    fn longer_streams_reduce_error() {
        let mut net = Network::new();
        let mut fc = Dense::new(4, 1, AccumMode::Linear).unwrap();
        fc.weights_mut().copy_from_slice(&[0.3, 0.3, -0.2, 0.1]);
        net.push_dense(fc);
        let input = Tensor::from_vec(&[4], vec![0.5, 0.25, 0.75, 0.6]).unwrap();
        // OR with one group: expected = or(pos products) - or(neg products)
        let pos = 1.0 - (1.0 - 0.15) * (1.0 - 0.075) * (1.0 - 0.06);
        let neg = 0.15;
        let expect = (pos - neg) as f32;

        let mut errs = Vec::new();
        for n in [64usize, 256, 2048] {
            let sim = ScSimulator::new(cfg(n));
            let out = sim.run(&net, &input).unwrap();
            errs.push((out.as_slice()[0] - expect).abs());
        }
        assert!(errs[2] <= errs[0] + 0.02, "error did not shrink: {errs:?}");
        assert!(errs[2] < 0.05, "long-stream error too large: {errs:?}");
    }

    #[test]
    fn or_grouping_changes_result_for_wide_fanin() {
        // With 96-wide groups vs one global OR, wide accumulations differ.
        let mut net = Network::new();
        let mut fc = Dense::new(200, 1, AccumMode::Linear).unwrap();
        for w in fc.weights_mut() {
            *w = 0.4;
        }
        net.push_dense(fc);
        let input = Tensor::from_vec(&[200], vec![0.4; 200]).unwrap();
        let mut grouped_cfg = cfg(4096);
        grouped_cfg.or_group = Some(96);
        let grouped = ScSimulator::new(grouped_cfg).run(&net, &input).unwrap();
        let global = ScSimulator::new(cfg(4096)).run(&net, &input).unwrap();
        // Global OR saturates at <=1; grouped sums three saturating groups.
        assert!(global.as_slice()[0] <= 1.01);
        assert!(grouped.as_slice()[0] > 1.5);
    }

    #[test]
    fn shared_rng_correlates_activations() {
        let mut c = cfg(1024);
        c.shared_act_rng = true;
        let sim = ScSimulator::new(c);
        // Two activations of 0.5 with +0.5/-0.5 weights: with shared RNG the
        // streams are identical, so products cancel almost exactly.
        let mut net = Network::new();
        let mut fc = Dense::new(2, 1, AccumMode::Linear).unwrap();
        fc.weights_mut().copy_from_slice(&[0.5, -0.5]);
        net.push_dense(fc);
        let out = sim
            .run(&net, &Tensor::from_vec(&[2], vec![0.5, 0.5]).unwrap())
            .unwrap();
        assert!(out.as_slice()[0].abs() < 0.1);
    }

    #[test]
    fn evaluate_rejects_empty_set() {
        let net = Network::new();
        let sim = ScSimulator::new(cfg(128));
        assert!(sim.evaluate(&net, &[]).is_err());
        let prepared = sim.prepare(&net).unwrap();
        assert!(sim.evaluate_prepared(&prepared, &[]).is_err());
    }

    fn digit_like_net() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(2 * 4 * 4, 3, AccumMode::OrApprox).unwrap());
        net
    }

    fn ramp_input() -> Tensor {
        let vals: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        Tensor::from_vec(&[1, 8, 8], vals).unwrap()
    }

    #[test]
    fn run_prepared_is_bit_identical_to_run() {
        // The prepare-once path must not change a single output bit
        // relative to the prepare-per-call wrapper.
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        let via_run = sim.run(&net, &input).unwrap();
        let via_prepared = sim.run_prepared(&prepared, &input).unwrap();
        assert_eq!(via_run, via_prepared);
        // Reusing the same prepared network is also stable.
        assert_eq!(via_prepared, sim.run_prepared(&prepared, &input).unwrap());
    }

    #[test]
    fn supported_lengths_halve_until_segmentation_breaks() {
        // Fused 2x2 pool -> 4 segments: halving stops when the per-phase
        // length would no longer divide by 4.
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        assert_eq!(prepared.max_stream_len(), 256);
        assert_eq!(prepared.supported_lengths(), &[256, 128, 64, 32, 16, 8]);

        // Dense-only network: halving continues down to 2-bit streams.
        let mut dense_net = Network::new();
        dense_net.push_dense(Dense::new(4, 2, AccumMode::OrApprox).unwrap());
        let prepared = sim.prepare(&dense_net).unwrap();
        assert_eq!(
            prepared.supported_lengths(),
            &[256, 128, 64, 32, 16, 8, 4, 2]
        );
    }

    #[test]
    fn run_prepared_at_max_length_is_bit_identical_to_run_prepared() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        let full = sim.run_prepared(&prepared, &input).unwrap();
        let at_max = sim.run_prepared_at(&prepared, &input, 256).unwrap();
        assert_eq!(full, at_max);
    }

    #[test]
    fn run_prepared_at_rejects_unsupported_lengths() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        for bad in [512usize, 96, 4, 0] {
            assert!(
                matches!(
                    sim.run_prepared_at(&prepared, &input, bad),
                    Err(SimError::InvalidConfig(_))
                ),
                "length {bad} should be rejected"
            );
        }
    }

    #[test]
    fn shorter_prefix_matches_directly_prepared_network() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        for &len in prepared.supported_lengths() {
            let via_prefix = sim.run_prepared_at(&prepared, &input, len).unwrap();
            let direct_sim = ScSimulator::new(cfg(len));
            let direct = direct_sim
                .run_prepared(&direct_sim.prepare(&net).unwrap(), &input)
                .unwrap();
            assert_eq!(via_prefix, direct, "prefix diverged at length {len}");
        }
    }

    #[test]
    fn tiled_run_matches_per_image_runs() {
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(128));
        let prepared = sim.prepare(&net).unwrap();
        let inputs: Vec<Tensor> = (0..3)
            .map(|t| {
                let vals: Vec<f32> = (0..64).map(|i| ((i + 7 * t) % 64) as f32 / 64.0).collect();
                Tensor::from_vec(&[1, 8, 8], vals).unwrap()
            })
            .collect();
        let seeds: Vec<u32> = (0..3).map(|t| 0xACE1 + 17 * t).collect();
        let single: Vec<Tensor> = inputs
            .iter()
            .zip(&seeds)
            .map(|(x, &s)| {
                let mut c = cfg(128);
                c.act_seed = s;
                ScSimulator::new(c).run_prepared(&prepared, x).unwrap()
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let tiled = sim.run_prepared_tile(&prepared, &refs, &seeds).unwrap();
        assert_eq!(single, tiled);
    }

    #[test]
    fn tiled_run_rejects_bad_tiles() {
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(128));
        let prepared = sim.prepare(&net).unwrap();
        let input = ramp_input();
        assert!(matches!(
            sim.run_prepared_tile(&prepared, &[], &[]),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            sim.run_prepared_tile(&prepared, &[&input], &[1, 2]),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn timed_run_matches_untimed_and_labels_steps() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(128));
        let prepared = sim.prepare(&net).unwrap();
        let plain = sim.run_prepared(&prepared, &input).unwrap();
        let (timed, timings) = sim
            .run_prepared_tile_at_timed_with(
                &prepared,
                &[&input],
                &[sim.cfg.act_seed],
                128,
                &mut SimScratch::default(),
            )
            .unwrap();
        assert_eq!(vec![plain], timed);
        let names: Vec<String> = timings.iter().map(|t| t.name.to_string()).collect();
        assert_eq!(names, prepared.step_names());
        assert_eq!(prepared.step_count(), 4);
    }
}

#[cfg(test)]
mod residual_tests {
    use super::tests::timed_step_names;
    use super::*;
    use crate::SimConfig;
    use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};

    fn cfg(n: usize) -> SimConfig {
        SimConfig::with_stream_len(n).unwrap()
    }

    #[test]
    fn residual_with_dead_inner_is_identity() {
        let mut inner = Network::new();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap();
        conv.weights_mut().iter_mut().for_each(|w| *w = 0.0);
        inner.push_conv(conv);
        let mut net = Network::new();
        net.push_residual(inner);

        let input = Tensor::from_vec(&[1, 2, 2], vec![0.25, 0.5, 0.75, 1.0]).unwrap();
        let sim = ScSimulator::new(cfg(256));
        let out = sim.run(&net, &input).unwrap();
        // Zero inner weights: the skip path alone survives, exactly, up to
        // the 8-bit input quantization the datapath always applies.
        let q = Quantizer::unsigned_unit(8).unwrap();
        for (o, &i) in out.as_slice().iter().zip(input.as_slice()) {
            let expect = q.quantize_value(i);
            assert!((o - expect).abs() < 1e-6, "{o} vs {expect}");
        }
    }

    #[test]
    fn residual_adds_inner_contribution() {
        let mut inner = Network::new();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, AccumMode::OrApprox).unwrap();
        conv.weights_mut()[0] = 0.5;
        inner.push_conv(conv);
        let mut net = Network::new();
        net.push_residual(inner);
        net.push_relu(Relu::clamped());

        let input = Tensor::from_vec(&[1, 1, 1], vec![0.4]).unwrap();
        let sim = ScSimulator::new(cfg(4096));
        let out = sim.run(&net, &input).unwrap();
        // inner ≈ 1 - e^{-0.2} ≈ 0.181 in OR-value terms; SC decodes the
        // single product exactly as 0.2. Skip adds 0.4 → ~0.6, clamped ≤1.
        assert!(
            (out.as_slice()[0] - 0.6).abs() < 0.06,
            "{}",
            out.as_slice()[0]
        );
    }

    #[test]
    fn residual_timings_include_inner_steps() {
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_residual(inner);
        let sim = ScSimulator::new(cfg(128));
        let names = timed_step_names(&sim, &net, &Tensor::zeros(&[1, 4, 4]));
        assert_eq!(names, vec!["conv0", "residual"]);
    }

    #[test]
    fn shape_changing_residual_rejected() {
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_residual(inner);
        let sim = ScSimulator::new(cfg(128));
        assert!(sim.run(&net, &Tensor::zeros(&[1, 4, 4])).is_err());
    }

    #[test]
    fn ordinals_are_unique_across_residual_boundaries() {
        // Two convs (one inside a residual) must draw distinct weight
        // streams — verified by distinct step names.
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_residual(inner);
        let sim = ScSimulator::new(cfg(128));
        let names = timed_step_names(&sim, &net, &Tensor::zeros(&[1, 4, 4]));
        assert_eq!(names, vec!["conv0", "conv1", "residual"]);
    }

    /// A network large enough that prepare-time chunking actually engages:
    /// the dense layer alone has 256 × 96 = 24 576 lanes
    /// (> [`MIN_LANES_PER_THREAD`]) and several thousand distinct streams
    /// (> [`MIN_SLOTS_PER_THREAD`]).
    fn chunky_network() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 4, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(4 * 8 * 8, 96, AccumMode::OrApprox).unwrap());
        net
    }

    #[test]
    fn parallel_prepare_is_bit_identical_across_threads() {
        let net = chunky_network();
        let sim = ScSimulator::new(cfg(128));
        let baseline = sim
            .prepare_with(
                &net,
                &PrepareOptions {
                    threads: 1,
                    shared_pool: None,
                },
            )
            .unwrap();
        let digest = baseline.content_digest();
        let stats = baseline.dedup_stats();
        for threads in [2, 4] {
            let p = sim
                .prepare_with(
                    &net,
                    &PrepareOptions {
                        threads,
                        shared_pool: None,
                    },
                )
                .unwrap();
            assert_eq!(
                p.content_digest(),
                digest,
                "banks differ at threads={threads}"
            );
            assert_eq!(p.dedup_stats(), stats, "dedup stats differ at {threads}");
        }
    }

    #[test]
    fn parallel_prepare_prefix_levels_match_direct_prepare() {
        // Every prefix level of a multi-threaded prepare must equal a
        // direct single-threaded prepare at that shorter length.
        let net = chunky_network();
        let sim = ScSimulator::new(cfg(256));
        let wide = sim
            .prepare_with(
                &net,
                &PrepareOptions {
                    threads: 4,
                    shared_pool: None,
                },
            )
            .unwrap();
        let input = Tensor::from_vec(
            &[1, 16, 16],
            (0..256).map(|i| (i % 11) as f32 / 11.0).collect(),
        )
        .unwrap();
        for &len in wide.supported_lengths() {
            let direct = ScSimulator::new(cfg(len)).run(&net, &input).unwrap();
            let at = sim.run_prepared_at(&wide, &input, len).unwrap();
            assert_eq!(direct.as_slice(), at.as_slice(), "prefix {len} differs");
        }
    }

    #[test]
    fn shared_pool_prepare_is_bit_identical_and_hits_layer_tier() {
        let net = chunky_network();
        let sim = ScSimulator::new(cfg(128));
        let cold = sim.prepare(&net).unwrap();
        let shared = Arc::new(SharedStreamPool::new());
        for threads in [1, 4] {
            let opts = PrepareOptions {
                threads,
                shared_pool: Some(Arc::clone(&shared)),
            };
            let p = sim.prepare_with(&net, &opts).unwrap();
            assert_eq!(
                p.content_digest(),
                cold.content_digest(),
                "shared-pool prepare differs at threads={threads}"
            );
            assert_eq!(p.dedup_stats(), cold.dedup_stats());
        }
        let stats = shared.stats();
        // First shared prepare misses both layers, second hits both.
        assert_eq!(stats.layer_misses, 2);
        assert_eq!(stats.layer_hits, 2);
        assert!(stats.stream_misses > 0);
        assert_eq!(stats.layer_entries, 2);
    }

    #[test]
    fn content_digest_distinguishes_different_banks() {
        let net = chunky_network();
        let a = ScSimulator::new(cfg(128)).prepare(&net).unwrap();
        let b = ScSimulator::new(cfg(256)).prepare(&net).unwrap();
        assert_ne!(a.content_digest(), b.content_digest());
        let mut c = cfg(128);
        c.wgt_seed ^= 1;
        let d = ScSimulator::new(c).prepare(&net).unwrap();
        assert_ne!(a.content_digest(), d.content_digest());
    }

    #[test]
    fn prepare_threads_env_override_is_bit_identical() {
        // The env knob must be a pure wall-clock lever. Serializes on the
        // env var via a process-wide lock-free convention: this is the only
        // test touching PREPARE_THREADS_ENV.
        let net = chunky_network();
        let sim = ScSimulator::new(cfg(128));
        let baseline = sim.prepare(&net).unwrap().content_digest();
        std::env::set_var(PREPARE_THREADS_ENV, "3");
        let overridden = sim.prepare(&net).unwrap().content_digest();
        std::env::remove_var(PREPARE_THREADS_ENV);
        assert_eq!(baseline, overridden);
    }
}
