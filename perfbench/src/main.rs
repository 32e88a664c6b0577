//! One trial of the repository benchmark: a fresh process that sets up a
//! workload cold, measures it, checks every output and prints one JSON
//! line of raw results. `perfbench/run.py` builds this binary, starts
//! several trials per run and aggregates them; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload offline-zoo|serve-tiny --seed N [--trial I]
//!           --seconds S [--traced 0|1] [--reference 0|1] [--setup-only 0|1]
//!           [--trace-out FILE]
//! ```

mod offline;
mod serve;
mod trace;
mod trial;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line of one trial.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Index of this trial within its run; arrival schedules derive from
    /// `(seed, trial)`.
    pub trial: u64,
    /// Measuring time of this trial, in seconds.
    pub seconds: f64,
    /// Record spans and derive per-layer metrics.
    pub traced: bool,
    /// offline-zoo: also check every prediction against a single-worker
    /// reference run.
    pub reference: bool,
    /// Stop right after set-up (more cold set-up samples per run).
    pub setup_only: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        trial: 0,
        seconds: 0.0,
        traced: false,
        reference: true,
        setup_only: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("seed"))?,
            "--trial" => ctx.trial = value.parse().map_err(|_| bad("trial"))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--traced" => ctx.traced = value == "1",
            "--reference" => ctx.reference = value == "1",
            "--setup-only" => ctx.setup_only = value == "1",
            "--trace-out" => ctx.trace_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let result = parse().and_then(|ctx| match ctx.workload.as_str() {
        "offline-zoo" => offline::run(&ctx),
        "serve-tiny" => serve::run_tiny(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    });
    match result {
        Ok(trial) => {
            println!("{}", trial.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
