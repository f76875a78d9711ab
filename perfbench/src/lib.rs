//! Seeded benchmark of the PDE oracle stack.
//!
//! Three workloads (`bulk`, `serve`, `churn`) drive the program only
//! through its public calls, check its answers against the benchmark's
//! own reference, and print one JSON result line; `BENCHMARK.json` lists
//! the first two. See `README.md`.

#![forbid(unsafe_code)]

pub mod graph;
pub mod repeat;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::{Report, END_TO_END};
use std::time::Instant;
pub use workloads::Ctx;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["bulk", "serve"];

/// A workload that runs by name but that `BENCHMARK.json` does not list.
pub const UNLISTED: [&str; 1] = ["churn"];

/// Runs `workload` and returns its report (`None` for an unknown name).
pub fn run(workload: &str, cx: &Ctx) -> Option<Report> {
    let mut rep = Report::default();
    match workload {
        "bulk" => workloads::bulk::run(cx, &mut rep),
        "serve" => workloads::serve::run(cx, &mut rep),
        "churn" => workloads::churn::run(cx, &mut rep),
        _ => return None,
    }
    if !cx.trace {
        for m in END_TO_END {
            match rep.get(m.name) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                v => rep.fail(format!("{} was not measured ({v:?})", m.name)),
            }
        }
    }
    Some(rep)
}

/// A context for one run, with its scratch directory under the working
/// directory.
pub fn context(seed: u64, seconds: f64, trace: bool, toy: bool) -> Ctx {
    Ctx {
        seed,
        seconds,
        trace,
        toy,
        epoch: Instant::now(),
        scratch: std::path::PathBuf::from(".perfbench_out"),
    }
}
