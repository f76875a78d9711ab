//! Metric definitions and the run report printed at the end of a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric: what a user of the stack sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric from the traced run.
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Every end-to-end metric; each workload reports all of them.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("snapshot_mb", "MB", "lower", 0.15),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("pairs_per_cpu_s", "pairs/cpu-s", "higher", 0.25),
    e2e("estimate_p99_us", "us", "lower", 0.25),
    e2e("route_p99_us", "us", "lower", 0.25),
    e2e("stretch_p99", "ratio", "lower", 0.15),
];

/// Every per-layer metric. A workload that never calls a layer reports
/// its metrics as 0 (see the README).
pub const PER_LAYER: &[PerLayer] = &[
    layer("graphs.gen_ms", "ms", "lower", "setup_s: all"),
    layer("congest.rounds", "rounds", "lower", "setup_s: bulk"),
    layer("congest.messages", "count", "lower", "setup_s: bulk"),
    layer("congest.messages_per_s", "1/s", "higher", "setup_s: bulk"),
    layer(
        "congest.rounds_per_rung",
        "rounds",
        "lower",
        "setup_s: bulk (vs h+sigma+1)",
    ),
    layer("oracle.build_s", "s", "lower", "setup_s: all"),
    layer("oracle.save_ms", "ms", "lower", "setup_s: all"),
    layer(
        "oracle.load_ms",
        "ms",
        "lower",
        "cold start (note line): all",
    ),
    layer(
        "oracle.estimate_ns",
        "ns",
        "lower",
        "estimate_p99_us: bulk, serve",
    ),
    layer(
        "oracle.route_ns",
        "ns",
        "lower",
        "route_p99_us: bulk, serve",
    ),
    layer(
        "oracle.route_hops",
        "hops",
        "lower",
        "route_p99_us: bulk, serve",
    ),
    layer(
        "oracle.failover_route_us",
        "us",
        "lower",
        "route_p99_us: bulk, serve",
    ),
    layer(
        "core.schedule_ns_per_pair",
        "ns",
        "lower",
        "pairs_per_cpu_s: all",
    ),
    layer(
        "core.grouped_ns_per_pair",
        "ns",
        "lower",
        "pairs_per_cpu_s: all",
    ),
    layer(
        "core.scatter_ns_per_pair",
        "ns",
        "lower",
        "pairs_per_cpu_s: all",
    ),
    layer(
        "core.scalar_ns_per_pair",
        "ns",
        "lower",
        "pairs_per_cpu_s: serve",
    ),
    layer(
        "core.pairs_per_group",
        "pairs",
        "higher",
        "pairs_per_cpu_s: bulk vs serve",
    ),
    layer(
        "serve.install_shared_ms",
        "ms",
        "lower",
        "cold start (note line): all",
    ),
    layer(
        "serve.query_ns_per_pair",
        "ns",
        "lower",
        "pairs_per_cpu_s: all",
    ),
    layer(
        "serve.batcher_pairs_per_group",
        "pairs",
        "higher",
        "pairs_per_cpu_s: serve",
    ),
    layer(
        "serve.admission_wait_us",
        "us",
        "lower",
        "batch p50 (note line): serve",
    ),
    layer(
        "net.wire_us",
        "us",
        "lower",
        "estimate_p99_us, route_p99_us: serve",
    ),
    layer(
        "net.bytes_per_pair",
        "bytes",
        "lower",
        "pairs_per_cpu_s: serve",
    ),
    layer(
        "trace.span_coverage",
        "ratio",
        "higher",
        "share of the timed phase inside spans",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "traced vs untraced primary rate",
    ),
];

/// What one run found: operation counts, metrics, check failures.
#[derive(Default)]
pub struct Report {
    ops: BTreeMap<&'static str, (u64, u64)>,
    metrics: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Counts `attempted` operations of kind `op`, `failed` of them failed.
    pub fn ops(&mut self, op: &'static str, attempted: u64, failed: u64) {
        let e = self.ops.entry(op).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// A recorded metric value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a failed correctness check (kept to the first 20).
    pub fn fail(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        } else if self.problems.len() == 20 {
            self.problems
                .push("... further check failures omitted".into());
        }
    }

    /// `Err` becomes a failed check.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// A free-form line for the run output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Operations attempted and failed, over every kind.
    pub fn totals(&self) -> (u64, u64) {
        self.ops
            .values()
            .fold((0, 0), |(a, f), &(x, y)| (a + x, f + y))
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The human-readable lines and the final JSON line.
    pub fn render(&self, workload: &str, trace: bool, machine: &[(String, String)]) -> String {
        let mut s = String::new();
        for (k, v) in machine {
            let _ = writeln!(s, "machine {k}: {v}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "{workload}: {n}");
        }
        for (op, (a, f)) in &self.ops {
            let _ = writeln!(s, "ops {op}: attempted {a}, failed {f}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "CHECK FAILED: {p}");
        }
        let (attempted, failed) = self.totals();
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            attempted,
            failed
        );
        let defs: Vec<(&str, &str, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.moves))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit, "")).collect()
        };
        for (i, (name, unit, moves)) in defs.iter().enumerate() {
            let v = self.metrics.get(name).copied();
            if trace {
                let shown = v.map_or("0 (layer not called)".into(), |v| v.to_string());
                let _ = writeln!(s, "layer {name} = {shown} {unit}  -> {moves}");
            } else {
                let _ = writeln!(s, "metric {name} = {} {unit}", v.unwrap_or(f64::NAN));
            }
            let v = v.unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        json.push_str("}}");
        s.push_str(&json);
        s
    }
}
