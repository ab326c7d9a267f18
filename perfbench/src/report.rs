//! Result bookkeeping: named metrics with units, correctness checks, the
//! one-line JSON result, and the order statistics every workload uses.

use std::fmt::Write as _;
use std::time::Duration;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures for the stderr table only, not the result line.
    details: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    /// Operations the timed part of the run attempted.
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
}

impl Report {
    /// Record metric `name` in `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a figure that goes to the stderr table but not to the result
    /// line: one that only some workloads have, such as a named layer.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// Record a correctness check; a false `ok` fails the run with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check so far held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable table on stderr, then the JSON result as the last
    /// line of stdout.
    pub fn print(&mut self) {
        // JSON has no NaN or infinity; a non-finite figure fails the run.
        self.metrics.retain(|(name, value, _)| {
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is {value}"));
            }
            value.is_finite()
        });
        for f in &self.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            eprintln!("{name:<40} {value:>14.4} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        for (name, value, unit) in &self.details {
            eprintln!("{name:<40} {value:>14.4} {unit}  (table only)");
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Fewest samples [`tail`] reports a percentile for.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value. `None` under [`TAIL_MIN_SAMPLES`], where that
/// percentile would not be a tail.
pub fn tail(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    (v.len() >= TAIL_MIN_SAMPLES).then(|| v[v.len() - 11])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Durations in milliseconds.
pub fn ms(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `struct timeval` of the Linux C ABI.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux C ABI: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of this process so far, all threads
/// included, exited ones too (`getrusage(RUSAGE_SELF)`). Unlike wall time
/// it leaves out time the host gave this machine's CPUs to other guests.
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `r` is a live, writable value laid out as the C `struct
    // rusage` on Linux x86-64 and aarch64, which `getrusage` fills and
    // does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&r.utime) + secs(&r.stime)
}

/// CPU nanoseconds each thread of this process has run so far, by thread
/// id (the first field of `/proc/self/task/<tid>/schedstat`). Like
/// [`cpu_seconds`] it leaves out steal.
pub fn thread_cpu_ns() -> Vec<(u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
        Some((tid, stat.split_whitespace().next()?.parse().ok()?))
    })
    .collect()
}

/// Seconds of CPU time the busiest thread ran between two
/// [`thread_cpu_ns`] readings. In a team that splits its work, this is the
/// critical path the split leaves, without the time the host stole.
pub fn busiest_thread_s(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    after
        .iter()
        .map(|&(tid, ns)| {
            let was = before.iter().find(|b| b.0 == tid).map_or(0, |b| b.1);
            ns.saturating_sub(was)
        })
        .max()
        .unwrap_or(0) as f64
        * 1e-9
}
