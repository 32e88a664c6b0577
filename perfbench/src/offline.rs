//! `offline-zoo`: the committed zoo classifies seeded synthetic test images
//! through `BatchEngine::evaluate` with one engine worker per CPU. No
//! network is involved, so kernels and engine dispatch do the work.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_nn::layers::Network;
use acoustic_nn::train::Sample;
use acoustic_runtime::{BatchEngine, BatchReport, ModelCache, PreparedModel};
use acoustic_simfunc::SimConfig;
use acoustic_train::ZooModel;

use crate::trace::Tracer;
use crate::trial::{fnv, note_host, note_plan, nproc, sub_seed, vm_hwm_mb, Trial};
use crate::Ctx;

/// The committed zoo, read only.
const ZOO_DIR: &str = "results/zoo";
/// Test images each zoo model classifies per `evaluate` call: one tile of
/// the autotuned width (64), so the plan's tile is what runs.
const IMAGES_PER_MODEL: usize = 64;

/// What the per-layer metrics need from every `evaluate` report.
#[derive(Default)]
struct Tally {
    conv_ns: u128,
    dense_ns: u128,
    other_ns: u128,
    mac_lanes: u64,
    skipped: u64,
    tiles: u64,
    tiled: u64,
    wall: Duration,
    cpu_busy: Duration,
}

impl Tally {
    fn add(&mut self, report: &BatchReport) {
        for lt in &report.layer_timings {
            if lt.name.starts_with("conv") {
                self.conv_ns += lt.nanos;
            } else if lt.name.starts_with("dense") {
                self.dense_ns += lt.nanos;
            } else {
                self.other_ns += lt.nanos;
            }
        }
        let k = &report.kernel;
        self.mac_lanes += k.mac_lanes;
        self.skipped += k.sat_lanes_skipped + k.zero_seg_skips;
        self.tiles += k.tiles;
        self.tiled += k.tiled_images;
        self.wall += report.wall;
        self.cpu_busy += report.cpu_busy;
    }
}

pub fn run(ctx: &Ctx) -> Result<Trial, String> {
    let mut trial = Trial::default();
    let mut tr = Tracer::new(ctx.traced);

    // --- set-up: load checkpoints, prepare every model ---------------------
    let setup = tr.begin("setup", "offline-zoo", None);
    let load = tr.begin("train.load", "zoo", Some(setup));
    let loaded =
        acoustic_train::load_zoo(Path::new(ZOO_DIR)).map_err(|e| format!("zoo load: {e}"))?;
    tr.end(load);
    let cache = ModelCache::new();
    let mut zoo: Vec<(ZooModel, Network, SimConfig)> = Vec::new();
    let mut models: Vec<(u32, Arc<PreparedModel>)> = Vec::new();
    for (entry, network) in loaded {
        let cfg = SimConfig::with_stream_len(entry.stream_len).map_err(|e| e.to_string())?;
        let slug = entry.model.slug();
        let span = tr.begin("runtime.compile", slug, Some(setup));
        let model = cache
            .get_or_compile(cfg, &network)
            .map_err(|e| format!("prepare {slug}: {e}"))?;
        tr.end(span);
        models.push((entry.model.id(), model));
        zoo.push((entry.model, network, cfg));
    }
    trial.setup_s = tr.end(setup).as_secs_f64();
    if ctx.setup_only {
        trial.correct = true;
        return Ok(trial);
    }

    // --- inputs, derived from the seed -------------------------------------
    let samples: Vec<Vec<Sample>> = zoo
        .iter()
        .map(|(m, _, _)| {
            let kind = m.data_kind().ok_or("zoo model without a dataset")?;
            let seed = sub_seed(ctx.seed, u64::from(m.id()));
            Ok(kind.generate(0, IMAGES_PER_MODEL, seed).test)
        })
        .collect::<Result<_, String>>()?;

    // --- measurement: rounds over the zoo for the trial's time share -------
    // A round is one `evaluate` call per model; its latency is the time the
    // zoo takes to classify its images once. Rounds repeat while another
    // one of average length still fits the trial's share of the run (at
    // least one round), so each run times many rounds.
    let workers = nproc();
    let engine = BatchEngine::new(workers).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut predictions: Vec<Option<Vec<usize>>> = vec![None; zoo.len()];
    let measure = tr.begin("measure", "offline-zoo", None);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut round_wall = Duration::ZERO;
    while trial.lat_us.is_empty()
        || round_wall + round_wall / trial.lat_us.len() as u32 <= budget
    {
        let round = Instant::now();
        for (i, ((model, _, _), (_, prepared))) in zoo.iter().zip(&models).enumerate() {
            let span = tr.begin("runtime.evaluate", model.slug(), Some(measure));
            let result = engine.evaluate(prepared, &samples[i]);
            let wall = tr.end(span);
            trial.attempted += samples[i].len() as u64;
            match result {
                Ok(report) => {
                    trial.images += report.total as u64;
                    trial.images_wall_s += wall.as_secs_f64();
                    tally.add(&report);
                    if predictions[i].as_ref().is_some_and(|p| *p != report.predictions) {
                        trial.problem(format!("{}: rounds disagree", model.slug()));
                    }
                    predictions[i] = Some(report.predictions);
                }
                Err(e) => {
                    trial.failed += samples[i].len() as u64;
                    trial.problem(format!("{} evaluate failed: {e}", model.slug()));
                }
            }
        }
        let took = round.elapsed();
        round_wall += took;
        trial.lat_us.push(took.as_micros() as u64);
    }
    tr.end(measure);
    trial.rss_peak_mb = vm_hwm_mb();

    // --- correctness: every prediction against a single-worker reference ---
    let reference = BatchEngine::new(1).map_err(|e| e.to_string())?;
    for (i, ((model, _, _), (_, prepared))) in zoo.iter().zip(&models).enumerate() {
        let Some(preds) = &predictions[i] else {
            continue;
        };
        trial.digest = fnv(trial.digest, model.slug().as_bytes());
        for p in preds {
            trial.digest = fnv(trial.digest, &(*p as u64).to_le_bytes());
        }
        if !ctx.reference {
            continue;
        }
        let inputs: Vec<_> = samples[i].iter().map(|(t, _)| t.clone()).collect();
        let logits = reference
            .run(prepared, &inputs)
            .map_err(|e| format!("{} reference run: {e}", model.slug()))?;
        let mismatches = logits
            .iter()
            .zip(preds)
            .filter(|(l, &p)| l.argmax() != p)
            .count();
        if mismatches > 0 {
            trial.problem(format!(
                "{}: {mismatches} predictions differ from the single-worker reference",
                model.slug()
            ));
        }
    }
    trial.correct = true;

    // --- provenance and per-layer metrics ----------------------------------
    note_host(&mut trial, ctx.seed);
    trial.note("engine_workers", workers.to_string());
    for ((model, _, _), (_, prepared)) in zoo.iter().zip(&models) {
        note_plan(&mut trial, model.slug(), prepared);
    }
    if !tr.on() {
        trial.layers.clear();
        return Ok(trial);
    }
    let images = trial.images.max(1) as f64;
    trial.layer("train.load_ms", tr.total_ms("train.load"));
    trial.layer("runtime.compile_ms", tr.total_ms("runtime.compile"));
    let calib: u64 = models.iter().map(|(_, m)| m.plan().calibration_ns).sum();
    let bank: u64 = models.iter().map(|(_, m)| m.prepare_ns()).sum();
    trial.layer("simfunc.calibrate_ms", calib as f64 / 1e6);
    trial.layer("simfunc.bank_build_ms", bank as f64 / 1e6);
    trial.layer("simfunc.conv_ms", tally.conv_ns as f64 / 1e6 / images);
    trial.layer("simfunc.dense_ms", tally.dense_ns as f64 / 1e6 / images);
    trial.layer("simfunc.other_ms", tally.other_ns as f64 / 1e6 / images);
    trial.layer("simfunc.mac_lanes", tally.mac_lanes as f64 / images);
    let presented = (tally.mac_lanes + tally.skipped).max(1) as f64;
    trial.layer("simfunc.skip_frac", tally.skipped as f64 / presented);
    let resident: usize = models.iter().map(|(_, m)| m.approx_bytes()).sum();
    trial.layer("simfunc.resident_mb", resident as f64 / (1024.0 * 1024.0));
    for (model, _, _) in &zoo {
        let calls: Vec<f64> = tr
            .named("runtime.evaluate")
            .filter(|s| s.key == model.slug())
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        let mean = calls.iter().sum::<f64>() / calls.len().max(1) as f64;
        trial.layer(&format!("runtime.evaluate_ms.{}", model.slug()), mean);
    }
    let capacity = tally.wall.as_secs_f64() * workers as f64;
    trial.layer(
        "runtime.parallel_eff",
        tally.cpu_busy.as_secs_f64() / capacity.max(1e-12),
    );
    trial.layer(
        "runtime.images_per_tile",
        tally.tiled as f64 / tally.tiles.max(1) as f64,
    );

    // The cache, prepare and warming layers, on the zoo served under a
    // memory budget.
    crate::serve::zoo_phase(ctx, &zoo, &models, &mut tr, &mut trial)?;
    if let Some(path) = &ctx.trace_out {
        tr.write(path).map_err(|e| format!("trace write: {e}"))?;
    }
    Ok(trial)
}
