//! Kernel-equivalence suite: every dispatchable MAC kernel and every
//! execution shape must produce bit-identical logits.
//!
//! Three axes are exercised against the portable scalar reference:
//!
//! * **Kernel** — `KernelChoice::Auto` (AVX-512 where the host has it) and
//!   the explicit `Avx512` tier (scalar on hosts without it) vs
//!   `KernelChoice::Scalar`, across seeds, OR-group widths, datapath
//!   variants, and stream lengths spanning single-word up to 8-word
//!   segments (the AVX-512 multi-word threshold).
//! * **Tiling** — `run_prepared_tile*` for tile sizes up to 16 (past the
//!   8-image AVX-512 lockstep block width) vs tiles of one, for every
//!   kernel choice, single- and multi-word segments and both OR-group
//!   modes, including an all-zero image (every lane gated) and a
//!   shortened stream-length prefix.
//! * **Override** — the `ACOUSTIC_FORCE_KERNEL` environment variable,
//!   which must pin dispatch to the named tier, fall back to scalar on
//!   hosts lacking it, and still produce scalar-identical logits (checked
//!   in subprocesses: the variable is read once per process).

use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_simfunc::{
    active_kernel, forced_kernel, HostFingerprint, KernelChoice, KernelKind, ScSimulator,
    SimConfig, SimScratch, FORCE_KERNEL_ENV,
};

/// Small conv+pool+dense net with mixed-sign, partly-zero weights.
fn build_net() -> Network {
    let mut net = Network::new();
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap();
    for (i, w) in conv.weights_mut().iter_mut().enumerate() {
        *w = match i % 5 {
            0 => 0.0,
            1 => 0.9,
            2 => -0.6,
            3 => 0.35,
            _ => -0.15,
        };
    }
    net.push_conv(conv);
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    let mut fc = Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).unwrap();
    for (i, w) in fc.weights_mut().iter_mut().enumerate() {
        *w = ((i as f32 * 0.19).sin()) * if i % 6 == 0 { 0.0 } else { 0.8 };
    }
    net.push_dense(fc);
    net
}

/// Inputs covering gated lanes (zeros), saturating ones, and a ramp; image
/// `i` is a distinct rotation so every tile member differs.
fn test_inputs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let v: Vec<f32> = (0..64)
                .map(|j| match (i + j) % 6 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => ((i + j) % 64) as f32 / 63.0,
                })
                .collect();
            Tensor::from_vec(&[1, 8, 8], v).unwrap()
        })
        .collect()
}

fn cfg(stream_len: usize, kernel: KernelChoice) -> SimConfig {
    SimConfig {
        kernel,
        ..SimConfig::with_stream_len(stream_len).unwrap()
    }
}

/// `Auto` dispatch (AVX-512 on capable hosts) is bit-identical to the
/// scalar reference across seeds, OR-group widths, datapath variants, and
/// stream lengths from single-word up to multi-word segments.
#[test]
fn auto_kernel_matches_scalar_across_config_matrix() {
    let net = build_net();
    let input = &test_inputs(1)[0];
    let mut scratch = SimScratch::default();
    let mut checked = 0usize;
    for (act_seed, wgt_seed) in [(0xACE1, 0x1234), (0xBEEF, 0x0F0D)] {
        for or_group in [None, Some(3)] {
            for skip_pooling in [true, false] {
                for shared_act_rng in [true, false] {
                    for stream_len in [64, 128, 192, 320, 512] {
                        let base = SimConfig {
                            act_seed,
                            wgt_seed,
                            or_group,
                            skip_pooling,
                            shared_act_rng,
                            ..cfg(stream_len, KernelChoice::Scalar)
                        };
                        let scalar_sim = ScSimulator::new(base);
                        let auto_sim = ScSimulator::new(SimConfig {
                            kernel: KernelChoice::Auto,
                            ..base
                        });
                        let prepared = scalar_sim.prepare(&net).unwrap();
                        let want = scalar_sim
                            .run_prepared_with(&prepared, input, &mut scratch)
                            .unwrap();
                        let got = auto_sim
                            .run_prepared_with(&prepared, input, &mut scratch)
                            .unwrap();
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "auto kernel diverged: act_seed={act_seed:#x} \
                             or_group={or_group:?} skip_pooling={skip_pooling} \
                             shared_act_rng={shared_act_rng} stream_len={stream_len}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 80);
}

/// The explicit AVX-512 tier (scalar on hosts without it) is bit-identical
/// to the scalar reference on single images, across stream lengths from
/// single-word segments up to 8-word segments — the AVX-512 multi-word
/// threshold, reached by the dense layer at a total stream length of 1024.
#[test]
fn avx512_tier_matches_scalar_across_lengths() {
    let net = build_net();
    let input = &test_inputs(1)[0];
    let mut scratch = SimScratch::default();
    for or_group in [None, Some(3)] {
        for stream_len in [64, 256, 1024] {
            let base = SimConfig {
                or_group,
                ..cfg(stream_len, KernelChoice::Scalar)
            };
            let scalar_sim = ScSimulator::new(base);
            let prepared = scalar_sim.prepare(&net).unwrap();
            let want = scalar_sim
                .run_prepared_with(&prepared, input, &mut scratch)
                .unwrap();
            let got = ScSimulator::new(SimConfig {
                kernel: KernelChoice::Avx512,
                ..base
            })
            .run_prepared_with(&prepared, input, &mut scratch)
            .unwrap();
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "avx512 tier (resolved {:?}) diverged: or_group={or_group:?} \
                 stream_len={stream_len}",
                active_kernel(KernelChoice::Avx512)
            );
        }
    }
}

/// A dense-only net whose wide, strongly weighted fan-in saturates its OR
/// groups: at stream 1024 its 8-word segments run the AVX-512 multi-word
/// path, so the all-saturated early exit there is exercised.
fn saturating_net() -> Network {
    let mut net = Network::new();
    net.push_flatten();
    let mut fc = Dense::new(64, 4, AccumMode::OrApprox).unwrap();
    for (i, w) in fc.weights_mut().iter_mut().enumerate() {
        *w = if i % 7 == 0 { -0.9 } else { 0.9 };
    }
    net.push_dense(fc);
    net
}

/// Every tile size is bit-identical to tiles of one, for every kernel
/// choice, at single-word (128) and multi-word (1024) stream lengths, with
/// the whole fan-in in one OR group and with narrow groups — so the
/// lockstep, grouped single-word, scalar multi-word and AVX-512 multi-word
/// paths (with their all-saturated early exits) all run. An all-zero image
/// whose lanes are all gated sits mid-tile, and tile sizes past the 8-image
/// AVX-512 lockstep block width make block + tail paths both run.
#[test]
fn tiled_matches_tiles_of_one_across_tile_sizes_and_kernels() {
    let mut inputs = test_inputs(18);
    inputs[3] = Tensor::zeros(&[1, 8, 8]); // fully gated image mid-tile
    let seeds: Vec<u32> = (0..18).map(|i| 0x5EED + 31 * i).collect();
    let mut scratch = SimScratch::default();
    let mut multi_word_exits = 0u64;
    for (name, net) in [("conv", build_net()), ("saturating", saturating_net())] {
        for stream_len in [128, 1024] {
            for or_group in [None, Some(3)] {
                for kernel in [
                    KernelChoice::Scalar,
                    KernelChoice::Avx512,
                    KernelChoice::Auto,
                ] {
                    let base = SimConfig {
                        or_group,
                        ..cfg(stream_len, kernel)
                    };
                    let sim = ScSimulator::new(base);
                    let prepared = sim.prepare(&net).unwrap();
                    scratch.take_kernel_stats();
                    let single: Vec<Tensor> = inputs
                        .iter()
                        .zip(&seeds)
                        .map(|(x, &s)| {
                            sim.run_prepared_tile_with(&prepared, &[x], &[s], &mut scratch)
                                .unwrap()
                                .remove(0)
                        })
                        .collect();
                    if name == "saturating" && stream_len == 1024 && or_group.is_none() {
                        multi_word_exits += scratch.take_kernel_stats().sat_lanes_skipped;
                    }
                    for tile in [1usize, 2, 3, 8, 9, 16] {
                        for (lo, (xs, ss)) in inputs
                            .chunks(tile)
                            .zip(seeds.chunks(tile))
                            .enumerate()
                            .map(|(t, c)| (t * tile, c))
                        {
                            let refs: Vec<&Tensor> = xs.iter().collect();
                            let got = sim
                                .run_prepared_tile_with(&prepared, &refs, ss, &mut scratch)
                                .unwrap();
                            for (off, g) in got.iter().enumerate() {
                                assert_eq!(
                                    g.as_slice(),
                                    single[lo + off].as_slice(),
                                    "tiled logits diverged: net={name} stream={stream_len} \
                                     or_group={or_group:?} kernel={kernel:?} tile={tile} \
                                     image={}",
                                    lo + off
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        multi_word_exits > 0,
        "the saturating net never took the multi-word all-saturated exit"
    );
}

/// Tiled prefix execution (`run_prepared_tile_at_with`) matches the
/// single-image prefix path at a shortened stream length.
#[test]
fn tiled_prefix_matches_single_image_prefix() {
    let net = build_net();
    let inputs = test_inputs(4);
    let seeds = [7u32, 8, 9, 10];
    let mut scratch = SimScratch::default();
    let base = cfg(128, KernelChoice::Auto);
    let sim = ScSimulator::new(base);
    let prepared = sim.prepare(&net).unwrap();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let got = sim
        .run_prepared_tile_at_with(&prepared, &refs, &seeds, 64, &mut scratch)
        .unwrap();
    for (i, (x, &s)) in inputs.iter().zip(&seeds).enumerate() {
        let want = ScSimulator::new(SimConfig {
            act_seed: s,
            ..base
        })
        .run_prepared_at_with(&prepared, x, 64, &mut scratch)
        .unwrap();
        assert_eq!(
            got[i].as_slice(),
            want.as_slice(),
            "tiled prefix logits diverged at image {i}"
        );
    }
}

/// What a forced tier resolves to on this host: AVX-512 when the host has
/// `avx512f`, scalar otherwise (mirrors the dispatch layer, recomputed
/// independently from the detected feature set).
fn expected_resolution(forced: KernelKind, features: &[&str]) -> KernelKind {
    if forced == KernelKind::Avx512 && features.contains(&"avx512f") {
        KernelKind::Avx512
    } else {
        KernelKind::Scalar
    }
}

/// Child body for [`force_kernel_env_pins_each_tier`]: asserts the
/// `ACOUSTIC_FORCE_KERNEL` override pins dispatch to the named tier
/// (scalar when the host lacks it), then prints the logits of
/// two images so the parent can compare tiers bit-for-bit across
/// processes. Ignored in normal runs — only meaningful with the override
/// set.
#[test]
#[ignore = "spawned as a subprocess by force_kernel_env_pins_each_tier"]
fn forced_kernel_child() {
    let forced = forced_kernel().expect("child must run with ACOUSTIC_FORCE_KERNEL set");
    let host = HostFingerprint::detect();
    let expected = expected_resolution(forced, &host.features);
    // Every choice — even an explicit different tier — resolves to the
    // forced tier, and never to an unsupported instruction set.
    for choice in [
        KernelChoice::Auto,
        KernelChoice::Scalar,
        KernelChoice::Avx512,
    ] {
        assert_eq!(
            active_kernel(choice),
            expected,
            "forced {forced:?} must pin {choice:?} dispatch to the resolved tier"
        );
    }
    assert_eq!(
        host.kernel, expected,
        "fingerprint must report the forced tier"
    );

    let net = build_net();
    let inputs = test_inputs(2);
    let mut scratch = SimScratch::default();
    let sim = ScSimulator::new(cfg(128, KernelChoice::Auto));
    let prepared = sim.prepare(&net).unwrap();
    for (i, x) in inputs.iter().enumerate() {
        let logits = sim.run_prepared_with(&prepared, x, &mut scratch).unwrap();
        let bits: Vec<String> = logits
            .as_slice()
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        println!("LOGITS {i} {}", bits.join(","));
    }
}

/// Forcing each tier by name through `ACOUSTIC_FORCE_KERNEL` (read once
/// per process, hence subprocesses) pins dispatch, falls back to scalar on
/// hosts lacking the tier — forcing `avx512` everywhere is safe — and
/// every forced tier produces logits bit-identical to the in-process
/// scalar reference.
#[test]
fn force_kernel_env_pins_each_tier() {
    let exe = std::env::current_exe().unwrap();

    // In-process scalar golden logits for the same fixed case the child
    // prints.
    let net = build_net();
    let inputs = test_inputs(2);
    let mut scratch = SimScratch::default();
    let scalar_sim = ScSimulator::new(cfg(128, KernelChoice::Scalar));
    let prepared = scalar_sim.prepare(&net).unwrap();
    let golden: Vec<String> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let logits = scalar_sim
                .run_prepared_with(&prepared, x, &mut scratch)
                .unwrap();
            let bits: Vec<String> = logits
                .as_slice()
                .iter()
                .map(|v| format!("{:08x}", v.to_bits()))
                .collect();
            format!("LOGITS {i} {}", bits.join(","))
        })
        .collect();

    for tier in ["scalar", "avx512"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "forced_kernel_child", "--ignored", "--nocapture"])
            .env(FORCE_KERNEL_ENV, tier)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "forced-{tier} child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        for want in &golden {
            // `contains`, not line equality: the libtest harness may emit
            // its "test ... " prefix on the same line as the first print.
            assert!(
                stdout.contains(want.as_str()),
                "forced-{tier} logits diverged from scalar: wanted `{want}` in\n{stdout}"
            );
        }
    }
}
