//! What one trial process reports, and the small helpers every workload
//! shares.

use std::fmt::Write as _;

use acoustic_net::Topology;
use acoustic_runtime::{HostFingerprint, PreparedModel};

/// Raw results of one trial; `run.py` aggregates several into a run.
#[derive(Default)]
pub struct Trial {
    /// Every correctness and accounting check passed.
    pub correct: bool,
    /// Human-readable reason for each failed check.
    pub problems: Vec<String>,
    /// Operations attempted: requests sent, or images evaluated.
    pub attempted: u64,
    /// Operations that went wrong: error replies other than load
    /// shedding, dropped replies, images whose evaluation failed.
    pub failed: u64,
    /// Typed load-shedding replies: `Overloaded`, `DeadlineExceeded`,
    /// `Warming`.
    pub refused: u64,
    pub setup_s: f64,
    pub rss_peak_mb: f64,
    /// Images classified during the throughput window…
    pub images: u64,
    /// …and the wall time of that window.
    pub images_wall_s: f64,
    /// Latency samples in microseconds.
    pub lat_us: Vec<u64>,
    /// Digest of every output the trial checked (equal across trials of
    /// one run, since the inputs depend only on the seed).
    pub digest: u64,
    /// Per-layer metrics (traced trials only).
    pub layers: Vec<(String, f64)>,
    /// Provenance, as `(key, raw JSON value)` pairs.
    pub provenance: Vec<(String, String)>,
}

impl Trial {
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    pub fn note(&mut self, key: &str, json: String) {
        self.provenance.push((key.to_string(), json));
    }

    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let _ = write!(
            o,
            "\"correct\": {}",
            self.correct && self.problems.is_empty()
        );
        let probs: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        let _ = write!(o, ", \"problems\": [{}]", probs.join(", "));
        let _ = write!(
            o,
            ", \"attempted\": {}, \"failed\": {}, \"refused\": {}",
            self.attempted, self.failed, self.refused
        );
        let _ = write!(
            o,
            ", \"setup_s\": {:e}, \"rss_peak_mb\": {:e}, \"images\": {}, \"images_wall_s\": {:e}",
            self.setup_s, self.rss_peak_mb, self.images, self.images_wall_s
        );
        let lat: Vec<String> = self.lat_us.iter().map(u64::to_string).collect();
        let _ = write!(o, ", \"lat_us\": [{}]", lat.join(","));
        let _ = write!(o, ", \"digest\": \"{:016x}\"", self.digest);
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let _ = write!(o, ", \"layers\": {{{}}}", layers.join(", "));
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let _ = write!(o, ", \"provenance\": {{{}}}", prov.join(", "));
        o.push('}');
        o
    }
}

pub fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A finite JSON number with every digit (`NaN`/`inf` become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "0".to_string()
    }
}

/// Host provenance shared by every workload.
pub fn note_host(trial: &mut Trial, seed: u64) {
    let topology = Topology::detect();
    trial.note("seed", seed.to_string());
    trial.note("nproc", nproc().to_string());
    trial.note("host_fingerprint", HostFingerprint::detect().json());
    trial.note("topology", topology.json());
}

/// A model's autotuned plan as JSON, plus the per-layer plan metrics.
pub fn note_plan(trial: &mut Trial, slug: &str, model: &PreparedModel) {
    let plan = model.plan();
    trial.note(
        &format!("plan.{slug}"),
        format!(
            "{{\"kernel\": \"{}\", \"tile\": {}, \"calibration_ms\": {:e}}}",
            plan.kernel.name(),
            plan.tile,
            plan.calibration_ns as f64 / 1e6
        ),
    );
    trial.layer(
        &format!("simfunc.plan_kernel.{slug}"),
        plan.kernel.code() as f64,
    );
    trial.layer(&format!("simfunc.plan_tile.{slug}"), plan.tile as f64);
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a step, for output digests.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of a sorted sample.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Derives an independent sub-seed for one input stream of a workload.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    acoustic_core::prng::splitmix64(&mut state)
}
