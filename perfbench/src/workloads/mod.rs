//! The three workloads and the measurement helpers they share.

pub mod bulk;
pub mod churn;
pub mod serve;

use crate::report::Report;
use crate::stats::{median, ms, us};
use crate::trace::SpanLog;
use ::serve::OracleServer;
use congest::arena::SharedBytes;
use graphs::NodeId;
use oracle::{DistanceOracle, LivenessMask, Oracle, TracedRoute};
use pde_core::BatchSchedule;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How one run is configured.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Toy sizes for the self-test.
    pub toy: bool,
    /// Time zero of every span.
    pub epoch: Instant,
    /// Scratch directory inside the working directory.
    pub scratch: std::path::PathBuf,
}

impl Ctx {
    /// A deadline `share` of the timed phase from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// Median of several set-ups: `(setup_s, gen_ms, build_s, save_ms)`.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub gen: Vec<f64>,
    pub build: Vec<f64>,
    pub save: Vec<f64>,
}

impl SetupTimes {
    /// Reports `setup_s` and the per-layer set-up figures.
    pub fn report(mut self, rep: &mut Report) {
        rep.set("setup_s", median(&mut self.total));
        rep.set("graphs.gen_ms", median(&mut self.gen));
        rep.set("oracle.build_s", median(&mut self.build));
        rep.set("oracle.save_ms", median(&mut self.save));
    }
}

/// Builds the graph from edges and times it as the graphs layer.
pub fn make_graph(
    n: usize,
    edges: &[(u32, u32, u64)],
    log: &mut SpanLog,
    times: &mut SetupTimes,
) -> Result<graphs::WGraph, String> {
    let t = Instant::now();
    let s = log.begin("graphs.WGraph::connected_from_edges", 0, 0);
    let g = graphs::WGraph::connected_from_edges(n, edges).map_err(|e| format!("graph: {e}"));
    log.end(s);
    times.gen.push(ms(t.elapsed()));
    g
}

/// Serializes `oracle` as a v3 snapshot, timed as the oracle layer.
pub fn save(oracle: &Oracle, log: &mut SpanLog, times: &mut SetupTimes) -> Vec<u8> {
    let t = Instant::now();
    let s = log.begin("oracle.Oracle::save_v3", 0, 0);
    let mut bytes = Vec::new();
    oracle
        .save_v3(&mut bytes)
        .expect("writing a snapshot into memory cannot fail");
    log.end(s);
    times.save.push(ms(t.elapsed()));
    bytes
}

/// One cold start from snapshot bytes: `OracleServer::install_shared`
/// (parse + install + first answer) of a fresh copy, then removal.
/// Returns the latency in ms.
pub fn cold_start(
    server: &OracleServer,
    bytes: &[u8],
    n: usize,
    log: &mut SpanLog,
) -> Result<f64, String> {
    let shared = SharedBytes::from_vec(bytes.to_vec());
    let t = Instant::now();
    let s = log.begin("serve.OracleServer::install_shared", 0, 0);
    let r = server.install_shared("cold", shared);
    log.end(s);
    let lat = ms(t.elapsed());
    server.remove("cold");
    match r {
        Ok(report) if report.n == n => Ok(lat),
        Ok(report) => Err(format!("cold start loaded {} nodes, want {n}", report.n)),
        Err(e) => Err(format!("cold start failed: {e}")),
    }
}

/// Repeated cold starts until `deadline`; returns the latencies in ms.
pub fn cold_starts(
    bytes: &[u8],
    n: usize,
    deadline: Instant,
    log: &mut SpanLog,
    rep: &mut Report,
) -> Vec<f64> {
    let server = OracleServer::new();
    let mut lat = Vec::new();
    let mut failed = 0;
    while lat.is_empty() || Instant::now() < deadline {
        match cold_start(&server, bytes, n, log) {
            Ok(ms) => lat.push(ms),
            Err(e) => {
                failed += 1;
                rep.fail(e);
                break;
            }
        }
    }
    rep.ops("cold_start", lat.len() as u64 + failed, failed);
    lat
}

/// `count` frames of random pairs whose sizes follow the log-uniform law
/// over `lo..=hi` exactly: one size at each of `count` evenly spaced
/// quantiles, in seeded order, so every seed sees the same size mix.
pub fn frames(
    count: usize,
    lo: u64,
    hi: u64,
    rng: &mut crate::rng::Rng,
    mut pair: impl FnMut(&mut crate::rng::Rng) -> (NodeId, NodeId),
) -> Vec<Vec<(NodeId, NodeId)>> {
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| {
            let q = (i as f64 + 0.5) / count as f64;
            ((a + q * (b - a)).exp() as u64).clamp(lo, hi) as usize
        })
        .collect();
    rng.shuffle(&mut sizes);
    sizes
        .into_iter()
        .map(|len| (0..len).map(|_| pair(rng)).collect())
        .collect()
}

/// FNV-1a over answers, to compare batches without keeping them.
pub fn digest(xs: &[u64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Converts benchmark pairs to the program's node ids.
pub fn node_pairs(pairs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    pairs.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect()
}

/// Median wall time of `reps` runs of `f`, in ns.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut xs)
}

/// Per-layer attribution of one batch frame set: schedule, grouped
/// kernel, scatter, the unscheduled scalar kernel, and the serving call
/// (`OracleServer::query`), each per pair.
pub fn attribute_batches(oracle: &Oracle, frames: &[Vec<(NodeId, NodeId)>], rep: &mut Report) {
    let (mut sched_ns, mut grouped_ns, mut scatter_ns, mut scalar_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut pairs, mut groups) = (0usize, 0usize);
    for f in frames {
        let n = oracle.len();
        let mut sched = None;
        sched_ns += time_median(3, || sched = Some(black_box(BatchSchedule::build(f, n))));
        let sched = sched.expect("timed at least once");
        let mut grouped = vec![0u64; f.len()];
        grouped_ns += time_median(3, || {
            oracle.estimate_grouped(f, sched.order(), &mut grouped)
        });
        let mut out = vec![0u64; f.len()];
        scatter_ns += time_median(3, || sched.scatter(&grouped, &mut out));
        let mut scalar = vec![0u64; f.len()];
        scalar_ns += time_median(3, || oracle.estimate_into(f, &mut scalar));
        if out != scalar {
            rep.fail("grouped and scalar kernels disagree on a frame".into());
        }
        pairs += f.len();
        groups += sched.groups();
    }
    let per = |ns: f64| ns / pairs.max(1) as f64;
    rep.set("core.schedule_ns_per_pair", per(sched_ns));
    rep.set("core.grouped_ns_per_pair", per(grouped_ns));
    rep.set("core.scatter_ns_per_pair", per(scatter_ns));
    rep.set("core.scalar_ns_per_pair", per(scalar_ns));
    rep.set("core.pairs_per_group", pairs as f64 / groups.max(1) as f64);
}

/// `OracleServer::query` per pair over `frames` on a served copy.
pub fn attribute_query(
    server: &OracleServer,
    name: &str,
    frames: &[Vec<(NodeId, NodeId)>],
    rep: &mut Report,
) {
    let mut out = Vec::new();
    let mut ns = 0.0;
    let mut pairs = 0;
    for f in frames {
        ns += time_median(3, || {
            if server.query(name, f, &mut out, 1).is_err() {
                out.clear();
            }
        });
        pairs += f.len();
    }
    rep.set("serve.query_ns_per_pair", ns / pairs.max(1) as f64);
}

/// In-process point costs: `estimate`, `route_into` (with hop counts)
/// and `route_with_failover` under a clear mask, per call.
pub fn attribute_points(
    oracle: &Oracle,
    est_pairs: &[(NodeId, NodeId)],
    route_pairs: &[(NodeId, NodeId)],
    rep: &mut Report,
) {
    let est = time_median(3, || {
        for &(u, v) in est_pairs {
            black_box(oracle.estimate(u, v));
        }
    });
    rep.set("oracle.estimate_ns", est / est_pairs.len().max(1) as f64);
    let mut tr = TracedRoute::default();
    let mut hops = 0usize;
    let route = time_median(3, || {
        hops = 0;
        for &(u, v) in route_pairs {
            oracle.route_into(u, v, &mut tr);
            hops += tr.hops();
        }
    });
    let k = route_pairs.len().max(1) as f64;
    rep.set("oracle.route_ns", route / k);
    rep.set("oracle.route_hops", hops as f64 / k);
    let mask = LivenessMask::new(oracle.len());
    let failover = time_median(3, || {
        for &(u, v) in route_pairs {
            black_box(oracle::route_with_failover(oracle, &mask, u, v, &mut tr));
        }
    });
    rep.set("oracle.failover_route_us", failover / k / 1e3);
}

/// `Oracle::load_shared` alone (no install, no first answer), median ms.
pub fn attribute_load(bytes: &[u8], rep: &mut Report) {
    let mut xs: Vec<f64> = (0..5)
        .map(|_| {
            let shared = SharedBytes::from_vec(bytes.to_vec());
            let t = Instant::now();
            let o = Oracle::load_shared(shared);
            let d = ms(t.elapsed());
            if o.is_err() {
                rep.fail("snapshot failed to load".into());
            }
            d
        })
        .collect();
    rep.set("oracle.load_ms", median(&mut xs));
}

/// Admission cost: `Batcher::submit` minus `OracleServer::query` for
/// the same frame, from one submitter.
pub fn attribute_admission(
    registry: &OracleServer,
    name: &str,
    frames: &[Vec<(NodeId, NodeId)>],
    rep: &mut Report,
) {
    let batcher = registry.batcher(name, Duration::from_micros(250), 1, None);
    let mut waits = Vec::new();
    let mut out = Vec::new();
    for f in frames {
        let t = Instant::now();
        let ok = batcher.submit(registry, f.clone()).is_ok();
        let submit = t.elapsed();
        let t = Instant::now();
        let ok = ok && registry.query(name, f, &mut out, 1).is_ok();
        let query = t.elapsed();
        if !ok {
            rep.fail("admission attribution: a frame was refused".into());
        }
        waits.push(us(submit) - us(query));
    }
    rep.set("serve.admission_wait_us", median(&mut waits));
    let stats = batcher.stats();
    rep.set(
        "serve.batcher_pairs_per_group",
        stats.grouped_pairs as f64 / stats.groups.max(1) as f64,
    );
}

/// Share of `[from, to]` that root spans cover, averaged over `logs`.
pub fn span_coverage(logs: &[&SpanLog], from: u64, to: u64) -> f64 {
    let span = (to - from).max(1) as f64;
    let sum: f64 = logs
        .iter()
        .map(|l| l.root_cover(from, to) as f64 / span)
        .sum();
    sum / logs.len().max(1) as f64
}
