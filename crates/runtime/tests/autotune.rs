//! Autotune-plan guarantees at the runtime layer: plans are deterministic
//! per (model, host), engines follow them without changing results, and an
//! autotuned run is bit-identical to the forced-scalar golden path.

use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_runtime::{derive_image_seed, BatchEngine, HostFingerprint, PreparedModel};
use acoustic_simfunc::{KernelChoice, ScSimulator, SimConfig, TILE_CANDIDATES};

fn small_net() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 3, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(3 * 4 * 4, 4, AccumMode::OrApprox).unwrap());
    net
}

fn inputs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let v: Vec<f32> = (0..64).map(|j| ((i * 13 + j) % 64) as f32 / 63.0).collect();
            Tensor::from_vec(&[1, 8, 8], v).unwrap()
        })
        .collect()
}

/// Compiling the same model twice on the same host yields the same plan —
/// the calibration sweep runs once and the (model, host) memo replays it,
/// so a served model can never flip plans mid-process.
#[test]
fn same_model_and_host_yield_same_plan() {
    let cfg = SimConfig::with_stream_len(64).unwrap();
    let net = small_net();
    let a = PreparedModel::compile(cfg, &net).unwrap();
    let b = PreparedModel::compile(cfg, &net).unwrap();
    assert_eq!(a.plan(), b.plan());
    // The second compile replays the memo verbatim, calibration metadata
    // included.
    assert_eq!(a.plan().calibration_ns, b.plan().calibration_ns);
    assert!(
        TILE_CANDIDATES.contains(&a.plan().tile),
        "plan tile {} must be a swept candidate",
        a.plan().tile
    );
    // The planned kernel is one the host actually supports (the sweep only
    // times host-supported tiers).
    let host = HostFingerprint::detect();
    let required_feature = match a.plan().kernel.name() {
        "avx512" => Some("avx512f"),
        _ => None, // scalar runs everywhere
    };
    if let Some(feat) = required_feature {
        assert!(
            host.features.contains(&feat),
            "planned kernel {} needs {feat}, host has {:?}",
            a.plan().kernel.name(),
            host.features
        );
    }
}

/// Logits are bit-identical regardless of the plan: the autotuned engine
/// run (plan kernel, plan tile) matches solo forced-scalar simulation
/// image by image. Timing picks the plan; it can never change results.
#[test]
fn autotuned_run_matches_forced_scalar_solo() {
    let cfg = SimConfig::with_stream_len(64).unwrap();
    let net = small_net();
    let model = PreparedModel::compile(cfg, &net).unwrap();
    let xs = inputs(9);

    let autotuned = BatchEngine::new(2).unwrap().run(&model, &xs).unwrap();

    let scalar_cfg = SimConfig {
        kernel: KernelChoice::Scalar,
        ..cfg
    };
    let scalar_model = PreparedModel::compile(scalar_cfg, &net).unwrap();
    for (i, x) in xs.iter().enumerate() {
        let solo = ScSimulator::new(SimConfig {
            act_seed: derive_image_seed(scalar_cfg.act_seed, i as u64),
            ..scalar_cfg
        })
        .run_prepared(scalar_model.prepared(), x)
        .unwrap();
        assert_eq!(
            autotuned[i].as_slice(),
            solo.as_slice(),
            "autotuned batch diverged from forced-scalar solo at image {i}"
        );
    }
}

/// The engine follows the model's plan by default and an explicit
/// `with_tile_size` override wins — without changing results either way.
#[test]
fn explicit_tile_override_supersedes_plan() {
    let cfg = SimConfig::with_stream_len(64).unwrap();
    let model = PreparedModel::compile(cfg, &small_net()).unwrap();
    let xs = inputs(7);

    let follows = BatchEngine::new(1).unwrap();
    assert_eq!(follows.tile_size(), None);
    assert_eq!(follows.effective_tile(&model), model.plan().tile);

    let pinned = BatchEngine::new(1).unwrap().with_tile_size(5).unwrap();
    assert_eq!(pinned.tile_size(), Some(5));
    assert_eq!(pinned.effective_tile(&model), 5);

    let a = follows.run(&model, &xs).unwrap();
    let b = pinned.run(&model, &xs).unwrap();
    assert_eq!(a, b, "tile override changed results");
}

/// The evaluation report carries the model's plan.
#[test]
fn report_surfaces_the_plan() {
    let cfg = SimConfig::with_stream_len(64).unwrap();
    let model = PreparedModel::compile(cfg, &small_net()).unwrap();
    let samples: Vec<_> = inputs(4)
        .into_iter()
        .enumerate()
        .map(|(i, x)| (x, i % 4))
        .collect();
    let report = BatchEngine::new(1)
        .unwrap()
        .evaluate(&model, &samples)
        .unwrap();
    assert_eq!(report.plan, model.plan());
    let text = report.to_string();
    assert!(text.contains(&format!(
        "plan:  {} kernel, tile {}",
        model.plan().kernel.name(),
        model.plan().tile
    )));
}
