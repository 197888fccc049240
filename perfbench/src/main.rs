//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload serve-small|serve-large|train --seed N --seconds S --trace 0|1
//!           [--threads N] [--train-epochs N] [--git-rev REV] [--source-digest HEX]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see README.md). The last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the run metadata. A wrong answer exits with status 1.

mod checks;
mod layers;
mod measure;
mod serve;
mod traffic;
mod train;
mod workload;

use std::process::ExitCode;

use wr_tensor::Json;

use workload::Workload;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Extra run facts for the metadata line.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a check's result under a name.
    pub fn check<T>(&mut self, name: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.errors.push(format!("{name}: {e}"));
                None
            }
        }
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Train serve replicas in-process for this many epochs first (0 =
    /// build them as a deployment does). Diagnostic; no workload uses it.
    pub train_epochs: usize,
    pub git_rev: String,
    pub source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let workload = Workload::by_name(need("--workload")?)?;
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = match get("--threads") {
        Some(s) => s.parse::<usize>().map_err(|e| format!("--threads: {e}"))?,
        None => DEFAULT_POOL_WIDTH,
    }
    .clamp(1, nproc);
    let train_epochs = match get("--train-epochs") {
        Some(s) => s
            .parse::<usize>()
            .map_err(|e| format!("--train-epochs: {e}"))?,
        None => 0,
    };
    Ok(Args {
        workload,
        train_epochs,
        seed,
        seconds,
        trace,
        threads,
        git_rev: get("--git-rev").unwrap_or("unknown").to_string(),
        source_digest: get("--source-digest").unwrap_or("unknown").to_string(),
    })
}

/// Pool width when `--threads` is not given, capped at `nproc`. One
/// thread keeps the program's allocation sequence, and so its page-fault
/// count, the same from run to run; with two, which thread's malloc arena
/// serves a buffer varies and the fault count with it (README.md).
const DEFAULT_POOL_WIDTH: usize = 1;

fn text(v: impl ToString) -> Json {
    Json::Str(v.to_string())
}

fn main() -> ExitCode {
    measure::start_clock();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--threads N]"
            );
            return ExitCode::from(2);
        }
    };
    wr_runtime::set_threads(args.threads);

    let mut out = match args.workload {
        Workload::Serve(w) => serve::run(&w, &args),
        Workload::Train(w) => train::run(&w, &args),
    };

    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut meta: Vec<(String, Json)> = vec![
        ("workload".into(), text(args.workload.name())),
        ("seed".into(), text(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("git_rev".into(), text(&args.git_rev)),
        ("source_digest".into(), text(&args.source_digest)),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "available_parallelism".into(),
            Json::Num(wr_runtime::pool_stats().available_parallelism as f64),
        ),
        ("pool_width".into(), Json::Num(wr_runtime::threads() as f64)),
        (
            "config_digest".into(),
            text(format!("{:016x}", args.workload.digest())),
        ),
    ];
    meta.extend(out.facts.drain(..).map(|(k, v)| (k, Json::Str(v))));
    println!(
        "{}",
        Json::Obj(vec![("run_metadata".into(), Json::Obj(meta))])
    );

    if out.attempted == 0 {
        out.errors.push("no operation was attempted".into());
    }
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let value = vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), text(m.unit)),
            ];
            (m.name.to_string(), Json::Obj(value))
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
