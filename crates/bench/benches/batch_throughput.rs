//! Batch-inference throughput of `acoustic-runtime` on the LeNet-5 digit
//! CNN, swept over worker counts {1, 2, 4, 8}.
//!
//! Verifies on the way that every worker count reproduces the
//! single-threaded logits bit-for-bit, then writes the sweep to
//! `results/BENCH_runtime.json`. Pass `--quick` (or set
//! `ACOUSTIC_BENCH_QUICK`) for a smaller batch.
//!
//! Two gates keep the sweep honest about parallelism. Every mode asserts
//! that 2 workers split the batch into at least 2 tiles (scheduling
//! units), so the second worker has something to run. The full mode also
//! fails when the host has at least 2 CPUs and the 2-worker throughput is
//! below [`MIN_SPEEDUP_2W`] × the 1-worker figure; `--quick` skips that
//! timing gate, since its batch is too small to time reliably.

use std::fmt::Write as _;
use std::time::Instant;

use acoustic_bench::harness::json_string;
use acoustic_nn::layers::AccumMode;
use acoustic_nn::train::Sample;
use acoustic_runtime::{BatchEngine, BatchReport, ModelCache, PreparedModel};
use acoustic_simfunc::SimConfig;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Least 2-worker / 1-worker throughput ratio the full mode accepts on a
/// host with at least 2 CPUs.
const MIN_SPEEDUP_2W: f64 = 1.5;

struct SweepPoint {
    workers: usize,
    images_per_sec: f64,
    wall_secs: f64,
    cpu_busy_secs: f64,
    accuracy: f64,
    tiles: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("ACOUSTIC_BENCH_QUICK").is_some();
    let (batch, stream_len, repeats) = if quick { (8, 64, 1) } else { (32, 128, 10) };

    let net = acoustic_bench::models::lenet5(AccumMode::OrApprox).unwrap();
    let samples: Vec<Sample> = acoustic_datasets::mnist_like(batch, 7, 10).train;
    let cache = ModelCache::new();

    let prep_start = Instant::now();
    let model = cache
        .get_or_compile(SimConfig::with_stream_len(stream_len).unwrap(), &net)
        .unwrap();
    let prepare_secs = prep_start.elapsed().as_secs_f64();
    println!(
        "prepared LeNet-5 (stream {stream_len}) once in {prepare_secs:.3}s; batch of {} images",
        samples.len()
    );

    let inputs: Vec<_> = samples.iter().map(|(x, _)| x.clone()).collect();
    let reference = BatchEngine::new(1).unwrap().run(&model, &inputs).unwrap();

    let engines = WORKER_SWEEP.map(|workers| BatchEngine::new(workers).unwrap());
    for engine in &engines {
        let logits = engine.run(&model, &inputs).unwrap();
        assert_eq!(
            logits,
            reference,
            "{}-worker logits diverged from single-threaded",
            engine.workers()
        );
    }

    // Repeats go round-robin over the sweep, so a burst of interference
    // from other work on the host slows every worker count alike instead
    // of one.
    let mut best: [Option<BatchReport>; WORKER_SWEEP.len()] = Default::default();
    for _ in 0..repeats {
        for (slot, engine) in best.iter_mut().zip(&engines) {
            let report = engine.evaluate(&model, &samples).unwrap();
            if slot
                .as_ref()
                .is_none_or(|b| report.images_per_sec > b.images_per_sec)
            {
                *slot = Some(report);
            }
        }
    }

    let mut points = Vec::new();
    for (workers, report) in WORKER_SWEEP.into_iter().zip(best) {
        let report = report.unwrap();
        println!(
            "workers={workers}: {:.2} images/s (wall {:.3}s, cpu-busy {:.3}s), accuracy {:.2}%",
            report.images_per_sec,
            report.wall.as_secs_f64(),
            report.cpu_busy.as_secs_f64(),
            100.0 * report.accuracy
        );
        points.push(SweepPoint {
            workers,
            images_per_sec: report.images_per_sec,
            wall_secs: report.wall.as_secs_f64(),
            cpu_busy_secs: report.cpu_busy.as_secs_f64(),
            accuracy: report.accuracy,
            tiles: report.kernel.tiles,
        });
    }

    let at = |w: usize| points.iter().find(|p| p.workers == w).unwrap();
    let tiles_2w = at(2).tiles;
    assert!(
        tiles_2w >= 2,
        "2 workers ran the {batch}-image batch as {tiles_2w} tile(s): the second worker idled"
    );
    let speedup_2w = at(2).images_per_sec / at(1).images_per_sec;
    let cpus = acoustic_runtime::default_workers();
    println!("2-worker speedup: {speedup_2w:.2}x ({tiles_2w} tiles, {cpus} CPUs available)");
    if !quick && cpus >= 2 {
        assert!(
            speedup_2w >= MIN_SPEEDUP_2W,
            "2-worker speedup {speedup_2w:.2}x is below {MIN_SPEEDUP_2W}x on a {cpus}-CPU host"
        );
    }

    let json = to_json(&model, batch, stream_len, prepare_secs, speedup_2w, &points);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_runtime.json"
    );
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(path, json).unwrap();
    println!("wrote {path}");
}

fn to_json(
    model: &PreparedModel,
    batch: usize,
    stream_len: usize,
    prepare_secs: f64,
    speedup_2w: f64,
    points: &[SweepPoint],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_string("batch_throughput"));
    let _ = writeln!(
        out,
        "  \"host\": {},",
        acoustic_simfunc::HostFingerprint::detect().json()
    );
    out.push_str("  \"config\": {\n");
    let _ = writeln!(out, "    \"network\": {},", json_string("lenet5/or_approx"));
    let _ = writeln!(out, "    \"batch\": {batch},");
    let _ = writeln!(out, "    \"stream_len\": {stream_len},");
    let _ = writeln!(out, "    \"model_fingerprint\": {},", model.fingerprint());
    let _ = writeln!(
        out,
        "    \"plan\": {{\"kernel\": {}, \"tile\": {}}}",
        json_string(model.plan().kernel.name()),
        model.plan().tile
    );
    out.push_str("  },\n");
    out.push_str("  \"metrics\": {\n");
    let _ = writeln!(out, "    \"prepare_secs\": {prepare_secs:.6},");
    let _ = writeln!(
        out,
        "    \"available_parallelism\": {},",
        acoustic_runtime::default_workers()
    );
    let _ = writeln!(out, "    \"speedup_2w\": {speedup_2w:.3},");
    out.push_str("    \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"workers\": {}, \"images_per_sec\": {:.3}, \"wall_secs\": {:.6}, \
             \"cpu_busy_secs\": {:.6}, \"accuracy\": {:.4}, \"tiles\": {}}}",
            p.workers, p.images_per_sec, p.wall_secs, p.cpu_busy_secs, p.accuracy, p.tiles
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  }\n}\n");
    out
}
