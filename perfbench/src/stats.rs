//! Quantiles, process CPU time, peak memory and machine facts.

use std::time::Duration;

/// A fixed-size uniform sample of a stream of values (reservoir
/// sampling), so memory does not grow with the length of the run.
#[derive(Clone, Debug)]
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    rng: crate::rng::Rng,
}

impl Samples {
    /// Capacity of every reservoir.
    const CAP: usize = 1 << 16;

    /// An empty reservoir with a fixed sampling seed.
    pub fn new() -> Samples {
        Samples {
            kept: Vec::with_capacity(Self::CAP),
            seen: 0,
            rng: crate::rng::Rng::new(0x5eed, 0),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < Self::CAP {
            self.kept.push(x);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < Self::CAP {
                self.kept[j] = x;
            }
        }
    }

    /// Values offered so far.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile of the sample.
    pub fn quantile(&mut self, q: f64) -> f64 {
        quantile(&mut self.kept, q)
    }
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::new()
    }
}

/// Nearest-rank `q`-quantile of `xs` (sorted in place); NaN when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `d` in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Clock ticks per second of `/proc/self/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// CPU seconds used so far by this process, all threads (user + system),
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU seconds used so far by the calling thread, from the scheduler's
/// nanosecond run-time counter.
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Machine facts recorded with every run.
pub fn machine() -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_string());
    vec![
        ("available_parallelism".into(), cores.to_string()),
        ("rustc".into(), rustc),
        ("git_rev".into(), git_rev()),
        ("kernel".into(), kernel),
    ]
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run in a plain export, where it is `unknown`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
