//! `serve-tiny`, and the zoo-serve phase of traced `offline-zoo` trials:
//! open-loop Poisson traffic over one connection against an in-process
//! reactor server.
//!
//! The generator is the benchmark's own: one sender thread (this one) and
//! one receiver thread per phase. Each request is timed from its
//! *scheduled* send, and the gap between schedule and actual send is kept
//! so a run whose generator fell behind can be told apart from a slow
//! server.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_core::DetRng;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_runtime::{BatchEngine, ModelCache, PreparedModel};
use acoustic_serve::loadgen::{arrival_schedule, model_for, LoadOutcome, ReplyRecord};
use acoustic_serve::protocol::ErrorCode;
use acoustic_serve::{
    validate_responses, validate_responses_mix, Client, Frame, InferReply, InferRequest, IoModel,
    LoadGenConfig, ModelRegistry, ModelSpec, ModelTraffic, ServeConfig, Server, StatsSnapshot,
};
use acoustic_simfunc::SimConfig;
use acoustic_train::ZooModel;

use crate::trace::{Open, Tracer};
use crate::trial::{note_host, note_plan, nproc, percentile, sub_seed, vm_hwm_mb, Trial};
use crate::Ctx;

/// How long after the last send the generator waits for stragglers.
const GRACE: Duration = Duration::from_secs(5);

const TINY_ID: u32 = 1;
const TINY_STREAM: usize = 32;
const TINY_IMAGES: usize = 16;
/// serve-tiny offered rates: about 0.4x and 1.3x the capacity of roughly
/// 45k requests/s on a 2-CPU host. Fixed, so a faster server shows lower
/// latency and higher goodput at the same load. At 2x the generator's own
/// sending takes so much CPU from the server that goodput varies half as
/// much again from process to process.
const TINY_NOMINAL_QPS: f64 = 18_000.0;
const TINY_OVERLOAD_QPS: f64 = 60_000.0;
/// Share of the trial's measuring time spent at the nominal rate.
const TINY_NOMINAL_SHARE: f64 = 0.6;

const ZOO_QPS: f64 = 20.0;
/// Traffic weights of the zoo-serve phase (LeNet-5 : CIFAR-10 : SVHN).
const ZOO_MIX: [(ZooModel, u32); 3] = [
    (ZooModel::Lenet5, 3),
    (ZooModel::Cifar10Cnn, 2),
    (ZooModel::SvhnCnn, 1),
];
const ZOO_IMAGES: usize = 16;
/// Model-cache byte budget: about 2/3 of the committed zoo's resident
/// bytes at stream length 64 (20 564 436 B), so LRU evictions and
/// background re-prepares run during the traffic. Fixed, so a change that
/// shrinks the banks also changes how often the zoo thrashes.
const ZOO_BUDGET_BYTES: usize = 13_709_624;

/// One request's timeline.
struct Timed {
    id: u64,
    scheduled: Instant,
    sent: Option<Instant>,
}

/// Everything one open-loop phase produced.
struct Phase {
    requests: Vec<Timed>,
    outcome: LoadOutcome,
    /// Receive instant of each reply, parallel to `outcome.replies`.
    received_at: Vec<Instant>,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.requests.iter().filter(|r| r.sent.is_some()).count() as u64
    }

    /// Send lag (actual − scheduled send) p99, in milliseconds.
    fn send_lag_p99_ms(&self) -> f64 {
        let mut lag: Vec<u64> = self
            .requests
            .iter()
            .filter_map(|r| r.sent.map(|s| (s - r.scheduled).as_nanos() as u64))
            .collect();
        lag.sort_unstable();
        percentile(&lag, 99.0) as f64 / 1e6
    }

    /// Latencies of completed requests, in microseconds, sorted.
    fn completed_lat_us(&self) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .outcome
            .replies
            .iter()
            .filter(|r| matches!(r.reply, InferReply::Ok(_)))
            .map(|r| r.latency.as_micros() as u64)
            .collect();
        lat.sort_unstable();
        lat
    }

    fn completed(&self) -> u64 {
        self.outcome
            .replies
            .iter()
            .filter(|r| matches!(r.reply, InferReply::Ok(_)))
            .count() as u64
    }

    /// Records one span per round trip, keyed by request id.
    fn trace(&self, tr: &mut Tracer, parent: Open) {
        if !tr.on() {
            return;
        }
        let base = self.requests.first().map_or(0, |r| r.id);
        for (rec, &at) in self.outcome.replies.iter().zip(&self.received_at) {
            let req = &self.requests[(rec.id - base) as usize];
            if let Some(sent) = req.sent {
                tr.record(
                    "client.send",
                    rec.id.to_string(),
                    Some(parent),
                    req.scheduled,
                    sent,
                );
            }
            tr.record(
                "client.request",
                rec.id.to_string(),
                Some(parent),
                req.scheduled,
                at,
            );
        }
    }
}

/// Replays `schedule` open loop over one connection; request `k` gets id
/// `id_base + k` and the frame `build` makes for that id.
fn open_loop(
    addr: SocketAddr,
    schedule: &[Duration],
    id_base: u64,
    build: impl Fn(u64) -> InferRequest,
) -> Result<Phase, String> {
    let n = schedule.len();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = client.try_clone().map_err(|e| format!("clone: {e}"))?;
    let received = AtomicU64::new(0);
    let start = Instant::now();
    let mut requests: Vec<Timed> = schedule
        .iter()
        .enumerate()
        .map(|(k, &at)| Timed {
            id: id_base + k as u64,
            scheduled: start + at,
            sent: None,
        })
        .collect();

    let (records, received_at) = std::thread::scope(|scope| {
        let received = &received;
        let receiver = scope.spawn(move || {
            let mut records = Vec::with_capacity(n);
            let mut at = Vec::with_capacity(n);
            while records.len() < n {
                let Ok(frame) = reader.recv() else { break };
                let now = Instant::now();
                let (id, reply) = match frame {
                    Frame::InferResponse(r) => (r.request_id, InferReply::Ok(r)),
                    Frame::Error(e) => (e.request_id, InferReply::Err(e)),
                    _ => continue,
                };
                records.push((id, reply));
                at.push(now);
                received.fetch_add(1, Ordering::SeqCst);
            }
            (records, at)
        });

        let mut sent = 0u64;
        for req in requests.iter_mut() {
            let now = Instant::now();
            if req.scheduled > now {
                std::thread::sleep(req.scheduled - now);
            }
            let frame = Frame::InferRequest(build(req.id));
            req.sent = Some(Instant::now());
            if client.send(&frame).is_err() {
                req.sent = None;
                break;
            }
            sent += 1;
        }
        let grace = Instant::now() + GRACE;
        while received.load(Ordering::SeqCst) < sent && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(1));
        }
        client.shutdown_read();
        receiver.join().expect("receiver thread panicked")
    });

    let mut last = start;
    let mut replies = Vec::with_capacity(records.len());
    for ((id, reply), &at) in records.into_iter().zip(&received_at) {
        let Some(req) = id
            .checked_sub(id_base)
            .and_then(|k| requests.get(k as usize))
        else {
            return Err(format!("reply for unknown request id {id}"));
        };
        last = last.max(at);
        replies.push(ReplyRecord {
            id,
            reply,
            latency: at.saturating_duration_since(req.scheduled),
        });
    }
    let sent = requests.iter().filter(|r| r.sent.is_some()).count() as u64;
    let dropped = sent.saturating_sub(replies.len() as u64);
    Ok(Phase {
        requests,
        outcome: LoadOutcome {
            replies,
            dropped,
            elapsed: last - start,
        },
        received_at,
    })
}

/// Client-side reply counts, by kind.
#[derive(Default, Clone, Copy)]
struct Counts {
    sent: u64,
    completed: u64,
    overloaded: u64,
    expired: u64,
    warming: u64,
    other: u64,
    dropped: u64,
}

impl Counts {
    fn add(&mut self, phase: &Phase) {
        self.sent += phase.sent();
        self.dropped += phase.outcome.dropped;
        for r in &phase.outcome.replies {
            match &r.reply {
                InferReply::Ok(_) => self.completed += 1,
                InferReply::Err(e) if e.code == ErrorCode::Overloaded => self.overloaded += 1,
                InferReply::Err(e) if e.code == ErrorCode::DeadlineExceeded => self.expired += 1,
                InferReply::Err(e) if e.code == ErrorCode::Warming => self.warming += 1,
                InferReply::Err(_) => self.other += 1,
            }
        }
    }

    /// Folds the counts into the trial and checks them against the
    /// server's final statistics and its drain invariant.
    fn settle(&self, trial: &mut Trial, stats: &StatsSnapshot) {
        trial.attempted += self.sent;
        trial.failed += self.other + self.dropped;
        trial.refused += self.overloaded + self.expired + self.warming;
        if self.dropped > 0 {
            trial.problem(format!("{} replies dropped", self.dropped));
        }
        if self.other > 0 {
            trial.problem(format!("{} unexpected error replies", self.other));
        }
        let pairs = [
            ("received", self.sent, stats.received),
            ("completed", self.completed, stats.completed),
            (
                "overloaded",
                self.overloaded,
                stats.rejected_overload + stats.rejected_model_budget,
            ),
            ("expired", self.expired, stats.expired),
            ("warming", self.warming, stats.rejected_warming),
        ];
        for (what, client, server) in pairs {
            if client != server {
                trial.problem(format!("{what}: client counted {client}, server {server}"));
            }
        }
        let drained = stats.completed
            + stats.rejected_overload
            + stats.rejected_model_budget
            + stats.rejected_unknown_model
            + stats.rejected_shutdown
            + stats.rejected_warming
            + stats.expired
            + stats.failed;
        if drained != stats.received {
            trial.problem(format!(
                "drain invariant: {drained} accounted of {} received",
                stats.received
            ));
        }
    }
}

/// Provenance of one phase. The generator counts as behind when its p99
/// send lag exceeds the phase's median latency: the latency figures then
/// say more about the generator than about the server.
fn note_phase(trial: &mut Trial, name: &str, qps: f64, phase: &Phase) {
    let lag = phase.send_lag_p99_ms();
    let p50_ms = percentile(&phase.completed_lat_us(), 50.0) as f64 / 1e3;
    let secs = phase.outcome.elapsed.as_secs_f64().max(1e-9);
    trial.note(
        &format!("phase.{name}"),
        format!(
            "{{\"offered_qps\": {qps}, \"requests\": {}, \"sent\": {}, \"completed\": {}, \
             \"goodput_qps\": {:e}, \"send_lag_p99_ms\": {lag:e}, \"generator_behind\": {}}}",
            phase.requests.len(),
            phase.sent(),
            phase.completed(),
            phase.completed() as f64 / secs,
            lag > p50_ms
        ),
    );
}

/// Server-side per-layer metrics of one serving phase: `latency` holds
/// the statistics of the phase whose latency is broken down, `all` those
/// at shutdown.
fn serve_layers(
    trial: &mut Trial,
    latency: &StatsSnapshot,
    all: &StatsSnapshot,
    phase: &Phase,
    counts: &Counts,
) {
    let done = latency.completed.max(1) as f64;
    let queue_ms = latency.queue_wait_ns as f64 / done / 1e6;
    let service_ms = latency.service_ns as f64 / done / 1e6;
    let lat = phase.completed_lat_us();
    let mean_ms = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1e3;
    trial.layer("serve.queue_wait_ms", queue_ms);
    trial.layer("serve.service_ms", service_ms);
    trial.layer("serve.io_ms", mean_ms - queue_ms - service_ms);
    trial.layer("client.send_lag_p99_ms", phase.send_lag_p99_ms());
    trial.layer("client.lat_p99_ms", percentile(&lat, 99.0) as f64 / 1e3);
    trial.layer(
        "client.fail_frac",
        (counts.sent - counts.completed) as f64 / counts.sent.max(1) as f64,
    );
    trial.layer(
        "serve.rejected_overload",
        (all.rejected_overload + all.rejected_model_budget) as f64,
    );
    trial.layer("serve.expired", all.expired as f64);
    trial.layer("serve.rejected_warming", all.rejected_warming as f64);
    trial.layer("serve.prepares", all.prepares_completed as f64);
    trial.layer("serve.prepare_ms_total", all.prepare_ms_total as f64);
    trial.layer("net.reactor_mode", all.reactor_mode as f64);
    trial.layer("net.queue_steals", all.queue_steals as f64);
    trial.layer("net.shard_depth_hwm", all.shard_depth_hwm as f64);
}

fn serve_config(
    workers: usize,
    queue_capacity: usize,
    batch_max: usize,
    deadline: Duration,
) -> ServeConfig {
    ServeConfig {
        workers,
        engine_workers: 1,
        queue_capacity,
        batch_max,
        default_deadline: deadline,
        io: IoModel::Reactor,
        ..ServeConfig::default()
    }
}

/// The 2-channel tiny CNN of the `connscale` bench: so little simulation
/// per request that I/O, admission and batching dominate.
fn tiny_network() -> Result<Network, String> {
    let e = |e: acoustic_nn::NnError| e.to_string();
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).map_err(e)?);
    net.push_avg_pool(AvgPool2d::new(2).map_err(e)?);
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).map_err(e)?);
    Ok(net)
}

fn tiny_images(seed: u64) -> Result<Vec<Tensor>, String> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..TINY_IMAGES)
        .map(|_| {
            let vals: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
            Tensor::from_vec(&[1, 8, 8], vals).map_err(|e| e.to_string())
        })
        .collect()
}

fn request(id: u64, model_id: u32, img: &Tensor) -> InferRequest {
    InferRequest {
        request_id: id,
        model_id,
        deadline_micros: 0,
        stream_len: None,
        margin: None,
        shape: img.shape().iter().map(|&d| d as u32).collect(),
        values: img.as_slice().to_vec(),
    }
}

fn schedule(qps: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let cfg = LoadGenConfig {
        qps,
        requests: ((qps * seconds).round() as u64).max(1),
        seed,
        ..LoadGenConfig::default()
    };
    arrival_schedule(&cfg)
}

pub fn run_tiny(ctx: &Ctx) -> Result<Trial, String> {
    let mut trial = Trial::default();
    let mut tr = Tracer::new(ctx.traced);
    let network = tiny_network()?;
    let cfg = SimConfig::with_stream_len(TINY_STREAM).map_err(|e| e.to_string())?;

    // --- set-up: prepare the model, start the server -----------------------
    let setup = tr.begin("setup", "serve-tiny", None);
    let cache = Arc::new(ModelCache::new());
    let span = tr.begin("runtime.compile", "registry", Some(setup));
    let registry = ModelRegistry::build(
        vec![ModelSpec {
            id: TINY_ID,
            network: network.clone(),
            cfg,
        }],
        &cache,
    )
    .map_err(|e| format!("registry: {e}"))?;
    tr.end(span);
    let bank_ns = cache.prepare_stats().prepare_ns_total;
    let span = tr.begin("serve.start", "reactor", Some(setup));
    let handle = Server::start(
        "127.0.0.1:0",
        registry,
        serve_config(2, 64, 8, Duration::from_millis(250)),
    )
    .map_err(|e| format!("server start: {e}"))?;
    tr.end(span);
    trial.setup_s = tr.end(setup).as_secs_f64();
    if ctx.setup_only {
        handle.shutdown();
        trial.correct = true;
        return Ok(trial);
    }

    // --- measurement: nominal rate, then overload --------------------------
    let images = tiny_images(sub_seed(ctx.seed, 1))?;
    let build = |id: u64| request(id, TINY_ID, &images[(id % images.len() as u64) as usize]);
    let nominal_s = ctx.seconds * TINY_NOMINAL_SHARE;
    let measure = tr.begin("measure", "serve-tiny", None);
    let nominal = open_loop(
        handle.addr(),
        &schedule(
            TINY_NOMINAL_QPS,
            nominal_s,
            sub_seed(ctx.seed, 2 + 16 * ctx.trial),
        ),
        0,
        build,
    )?;
    let after_nominal = handle.stats();
    let overload = open_loop(
        handle.addr(),
        &schedule(
            TINY_OVERLOAD_QPS,
            ctx.seconds - nominal_s,
            sub_seed(ctx.seed, 3 + 16 * ctx.trial),
        ),
        nominal.requests.len() as u64,
        build,
    )?;
    tr.end(measure);
    let stats = handle.shutdown();
    trial.rss_peak_mb = vm_hwm_mb();
    trial.lat_us = nominal.completed_lat_us();
    trial.images = overload.completed();
    trial.images_wall_s = overload.outcome.elapsed.as_secs_f64();

    // --- correctness: bit-validate every reply, reconcile counts -----------
    let golden = ModelCache::new()
        .get_or_compile(cfg, &network)
        .map_err(|e| format!("golden: {e}"))?;
    let engine = BatchEngine::new(nproc()).map_err(|e| e.to_string())?;
    let load = LoadGenConfig::default();
    for (name, phase) in [("nominal", &nominal), ("overload", &overload)] {
        let bad = validate_responses(&phase.outcome, &golden, &engine, &images, &load)
            .map_err(|e| format!("validation: {e}"))?;
        if bad > 0 {
            trial.problem(format!("{name}: {bad} replies differ from the engine"));
        }
    }
    let mut counts = Counts::default();
    counts.add(&nominal);
    counts.add(&overload);
    counts.settle(&mut trial, &stats);
    trial.correct = true;

    // --- provenance and per-layer metrics ----------------------------------
    note_host(&mut trial, ctx.seed);
    note_phase(&mut trial, "nominal", TINY_NOMINAL_QPS, &nominal);
    note_phase(&mut trial, "overload", TINY_OVERLOAD_QPS, &overload);
    note_plan(&mut trial, "tiny-cnn", &golden);
    if !tr.on() {
        trial.layers.clear();
        return Ok(trial);
    }
    nominal.trace(&mut tr, measure);
    overload.trace(&mut tr, measure);
    trial.layer("runtime.compile_ms", tr.total_ms("runtime.compile"));
    trial.layer("serve.start_ms", tr.total_ms("serve.start"));
    trial.layer(
        "simfunc.calibrate_ms",
        golden.plan().calibration_ns as f64 / 1e6,
    );
    trial.layer("simfunc.bank_build_ms", bank_ns as f64 / 1e6);
    let done = stats.completed.max(1) as f64;
    trial.layer("simfunc.mac_lanes", stats.mac_lanes as f64 / done);
    trial.layer("simfunc.skip_frac", stats.skip_fraction());
    trial.layer(
        "simfunc.resident_mb",
        stats.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    serve_layers(&mut trial, &after_nominal, &stats, &nominal, &counts);
    let batches = stats.batches - after_nominal.batches;
    let batched = stats.batch_requests - after_nominal.batch_requests;
    trial.layer("serve.batch_mean", batched as f64 / batches.max(1) as f64);
    if let Some(path) = &ctx.trace_out {
        tr.write(path).map_err(|e| format!("trace write: {e}"))?;
    }
    Ok(trial)
}

/// The zoo served from one reactor server whose model cache holds only
/// about 2/3 of it, under the 3-model mix at a fixed rate: LRU evictions,
/// background re-prepares and `Warming` bounces run beside the reads.
/// Feeds only per-layer metrics (see `perfbench/README.md` for why this
/// traffic is not a gated workload of its own). `goldens` are the same
/// models prepared without a budget, for bit validation.
pub fn zoo_phase(
    ctx: &Ctx,
    zoo: &[(ZooModel, Network, SimConfig)],
    goldens: &[(u32, Arc<PreparedModel>)],
    tr: &mut Tracer,
    trial: &mut Trial,
) -> Result<(), String> {
    let phase_span = tr.begin("zoo-serve", "zoo", None);
    let specs = zoo
        .iter()
        .map(|(model, network, cfg)| ModelSpec {
            id: model.id(),
            network: network.clone(),
            cfg: *cfg,
        })
        .collect();
    let cache =
        Arc::new(ModelCache::with_limits(8, Some(ZOO_BUDGET_BYTES)).map_err(|e| e.to_string())?);
    let registry = ModelRegistry::build(specs, &cache).map_err(|e| format!("registry: {e}"))?;
    let span = tr.begin("serve.start", "reactor", Some(phase_span));
    let handle = Server::start(
        "127.0.0.1:0",
        registry,
        serve_config(1, 8, 4, Duration::from_secs(2)),
    )
    .map_err(|e| format!("server start: {e}"))?;
    tr.end(span);

    let traffic: Vec<ModelTraffic> = ZOO_MIX
        .iter()
        .map(|&(model, weight)| {
            let kind = model.data_kind().ok_or("zoo model without a dataset")?;
            let images = kind
                .generate(
                    0,
                    ZOO_IMAGES,
                    sub_seed(ctx.seed, 32 + u64::from(model.id())),
                )
                .test
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            Ok(ModelTraffic {
                model_id: model.id(),
                weight,
                images,
            })
        })
        .collect::<Result<_, String>>()?;
    let mix = LoadGenConfig {
        seed: sub_seed(ctx.seed, 4 + 16 * ctx.trial),
        ..LoadGenConfig::default()
    };
    let build = |id: u64| {
        let model_id = model_for(mix.seed, id, &traffic);
        let t = traffic
            .iter()
            .find(|t| t.model_id == model_id)
            .expect("model_for picks from the traffic set");
        request(
            id,
            model_id,
            &t.images[(id % t.images.len() as u64) as usize],
        )
    };
    let phase = open_loop(
        handle.addr(),
        &schedule(ZOO_QPS, ctx.seconds, sub_seed(ctx.seed, 5 + 16 * ctx.trial)),
        0,
        build,
    )?;
    let stats = handle.shutdown();
    tr.end(phase_span);

    let engine = BatchEngine::new(1).map_err(|e| e.to_string())?;
    let bad = validate_responses_mix(&phase.outcome, goldens, &engine, &traffic, &mix)
        .map_err(|e| format!("validation: {e}"))?;
    if bad > 0 {
        trial.problem(format!("zoo-serve: {bad} replies differ from the engine"));
    }
    let mut counts = Counts::default();
    counts.add(&phase);
    counts.settle(trial, &stats);
    note_phase(trial, "zoo-serve", ZOO_QPS, &phase);
    trial.note("zoo_cache_budget_bytes", ZOO_BUDGET_BYTES.to_string());
    phase.trace(tr, phase_span);
    serve_layers(trial, &stats, &stats, &phase, &counts);
    trial.layer("serve.batch_mean", stats.mean_batch_size());
    trial.layer("serve.evictions", cache.evictions() as f64);
    trial.layer("serve.start_ms", tr.total_ms("serve.start"));
    Ok(())
}
