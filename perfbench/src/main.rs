//! The repository benchmark: BERT-base inference and GPT-2-small decoding
//! end to end, and every layer they use plus the BERT training path layer
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bert_infer|gpt_decode|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. Untraced (`--trace 0`), a run
//! prints the end-to-end metrics; traced (`--trace 1`), it prints the
//! per-layer metrics, the tracing overhead and the closure of layer times
//! against the traced end-to-end time, and writes its spans as Chrome
//! trace-event JSON under `perfbench/traces/`. The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod layers;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use xform_core::profile::CountingAlloc;

use layers::Metric;
use stats::{median, percentile};
use trace::Trace;
use workloads::{Outcome, Workload};

/// Counts heap events for `core.arena.allocs_per_call`.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str = "usage: perfbench --workload <bert_infer|gpt_decode|all> \
                     --seed N --seconds S --trace <0|1>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The untraced run's metrics. A request is a forward (`bert_infer`) or
/// one advance+sample (`gpt_decode`); `tokens_per_s` divides tokens by the
/// time spent in requests (and, for decoding, in session starts).
/// `ttft_ms` is a session's new+prefill+first sample when decoding, and
/// the forward itself for inference, whose every position arrives at once.
fn end_to_end(w: Workload, out: &Outcome) -> Result<Vec<Metric>, String> {
    let rss = peak_rss_mib().ok_or("peak RSS unavailable: /proc/self/status has no VmHWM")?;
    if out.latencies_ms.is_empty() || out.busy_s <= 0.0 {
        return Err("no request completed".into());
    }
    Ok(vec![
        ("setup_s", median(&out.setup_s), "s"),
        ("tokens_per_s", out.tokens as f64 / out.busy_s, "tokens/s"),
        ("latency_p50_ms", median(&out.latencies_ms), "ms"),
        (
            "latency_tail_ms",
            percentile(&out.latencies_ms, w.tail_percentile()),
            "ms",
        ),
        ("ttft_ms", median(&out.ttft_ms), "ms"),
        ("peak_rss_mib", rss, "MiB"),
    ])
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run_one(w: Workload, args: &Args) -> Result<String, String> {
    let mut trace = args.trace.then(Trace::new);
    let out = workloads::run(w, args.seed, args.seconds, trace.as_mut())
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let metrics = match &trace {
        None => end_to_end(w, &out)?,
        Some(t) => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.json", w.name(), args.seed));
            std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
                .and_then(|()| std::fs::write(&path, t.chrome_json(w.name())))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("trace written to {}", path.display());
            layers::layer_metrics(w, t, &out).map_err(|e| e.to_string())?
        }
    };
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is not finite", w.name()));
    }
    println!(
        "{}: attempted {} failed {}",
        w.name(),
        out.attempted,
        out.failed
    );
    for (name, value, unit) in &metrics {
        println!("{}: {name} = {value:.4} {unit}", w.name());
    }
    if args.trace {
        let explained = metrics.iter().find(|m| m.0 == "trace.explained_ms");
        let share = metrics.iter().find(|m| m.0 == "trace.unexplained_frac");
        if let (Some(e), Some(s)) = (explained, share) {
            println!(
                "{}: closure: layers explain {:.2} ms of the traced request, unexplained {:.2}%",
                w.name(),
                e.1,
                100.0 * s.1
            );
        }
    }
    Ok(result_json(
        out.failed == 0,
        out.attempted,
        out.failed,
        &metrics,
    ))
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawning {}: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name()));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) => run_one(w, &args).map(|json| println!("{json}")),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
