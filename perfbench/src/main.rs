//! `perfbench` — end-to-end and per-layer benchmark of the cgdnn stack.
//!
//! ```text
//! perfbench --workload train_lenet|train_cifar|serve_wire --seed N
//!           --seconds S --trace 0|1 [--snapshot-out FILE]
//! ```
//!
//! Each invocation runs one workload in this process. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs the workload a
//! second time with `obs::trace` spans on, writes the spans as a Chrome
//! trace under `perfbench/out/`, and prints the per-layer metrics. The last
//! line of stdout is always one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads, metrics and checks.

mod alloc;
mod kernels;
mod layer_times;
mod reference;
mod report;
mod serve_wire;
mod train;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// `serve_wire` only: write the trained snapshot here and stop.
    pub snapshot_out: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload train_lenet|train_cifar|serve_wire \
                     --seed N --seconds S --trace 0|1 [--snapshot-out FILE]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut snapshot_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--snapshot-out" => snapshot_out = Some(value.clone()),
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        snapshot_out,
    })
}

/// Team size for every workload: the cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run a timing probe with tracing off, so the runtime's own spans are not
/// timed with it, and record one span `name` over the whole probe.
pub fn untraced<R>(name: &'static str, cat: &'static str, f: impl FnOnce() -> R) -> R {
    use cgdnn::obs::trace;
    let traced = trace::enabled();
    trace::set_enabled(false);
    let start = std::time::Instant::now();
    let r = f();
    trace::set_enabled(traced);
    trace::record(name, cat, start, start.elapsed());
    r
}

/// Write the recorded spans as a Chrome trace under `perfbench/out/`, and
/// check that it validates as `tracecheck` validates it, with no dropped
/// events and every category in `required`.
pub fn write_trace(opts: &Opts, required: &[&str], report: &mut Report) -> Result<(), String> {
    use cgdnn::obs::{json, trace};
    let events = trace::take_events();
    let mut buf = Vec::new();
    trace::write_chrome_trace_with_dropped(&mut buf, &events, trace::dropped_events())
        .map_err(|e| e.to_string())?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &buf))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
    match json::validate_chrome_trace(&text) {
        Ok(summary) => {
            eprintln!("trace {}: {} events", path.display(), summary.events);
            for cat in required {
                report.check(summary.cats.contains(*cat), || {
                    format!("trace has no '{cat}' spans")
                });
            }
            report.check(summary.dropped == Some(0), || {
                format!("trace dropped {:?} events", summary.dropped)
            });
        }
        Err(e) => report.check(false, || format!("trace does not validate: {e}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match opts.workload.as_str() {
        "train_lenet" => train::run(&train::LENET, &opts, &mut report),
        "train_cifar" => train::run(&train::CIFAR, &opts, &mut report),
        "serve_wire" => serve_wire::run(&opts, &mut report),
        w => Err(format!("unknown workload {w}")),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if opts.snapshot_out.is_some() {
        return ExitCode::SUCCESS;
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
