//! `bulk`: offline batch estimation in the paper's regime.
//!
//! A PDE oracle built by the CONGEST simulator on a weighted sparse
//! random graph, with few sources (σ ≪ |S| ≪ n) and a short hop horizon
//! (h ≪ n). The timed phase is in-process: shuffled batches through
//! `estimate_many_with`, point estimates and routes towards sources, and
//! repeated cold starts from the snapshot bytes. No socket, lock or
//! repair is involved.

use super::{
    attribute_batches, attribute_load, attribute_points, attribute_query, cold_start, digest,
    make_graph, node_pairs, save, span_coverage, Ctx, SetupTimes,
};
use crate::graph::{random_graph, Adj, UNREACHED};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mb, quantile, thread_cpu_seconds, us, Samples};
use crate::trace::SpanLog;
use graphs::{NodeId, INF};
use oracle::{Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder, TracedRoute};
use std::hint::black_box;
use std::time::Instant;

/// Input sizes; see the README for the reasoning.
struct Params {
    n: usize,
    avg_degree: f64,
    w_max: u64,
    /// One node in `source_every` is a source.
    source_every: usize,
    sigma: usize,
    h: u64,
    eps: f64,
    batch_pairs: usize,
    distinct_batches: usize,
    point_pairs: usize,
    setup_reps: usize,
    sample_nodes: usize,
}

impl Params {
    fn new(toy: bool) -> Params {
        Params {
            n: if toy { 1024 } else { 2048 },
            avg_degree: 6.0,
            w_max: 32,
            source_every: 64,
            sigma: 4,
            h: if toy { 8 } else { 16 },
            eps: 0.25,
            batch_pairs: if toy { 8192 } else { 1 << 15 },
            distinct_batches: if toy { 2 } else { 16 },
            point_pairs: 1 << 16,
            setup_reps: if toy { 1 } else { 15 },
            sample_nodes: if toy { 32 } else { 512 },
        }
    }
}

/// The seeded inputs: edge list and source set.
fn inputs(p: &Params, seed: u64) -> (Vec<(u32, u32, u64)>, Vec<u32>) {
    let edges = random_graph(p.n, p.avg_degree, p.w_max, &mut Rng::new(seed, 1));
    let mut nodes: Vec<u32> = (0..p.n as u32).collect();
    Rng::new(seed, 2).shuffle(&mut nodes);
    nodes.truncate(p.n / p.source_every);
    nodes.sort_unstable();
    (edges, nodes)
}

/// Ladder rungs `b_0 = 1, b_{i+1} = max(b_i + 1, ⌊b_i(1+ε)⌋) ≤ w_max`
/// (Section 3 of the paper), computed here independently.
fn rungs(eps: f64, w_max: u64) -> u64 {
    let (mut b, mut count) = (1u64, 1u64);
    loop {
        let next = ((b as f64 * (1.0 + eps)).floor() as u64).max(b + 1);
        if b >= w_max || next > w_max {
            return count;
        }
        b = next;
        count += 1;
    }
}

/// What the timed phase measured.
struct Phase {
    pairs: u64,
    cpu_s: f64,
    batch_us: Vec<f64>,
    estimate_us: Samples,
    route_us: Samples,
    cold_ms: Vec<f64>,
    routes_failed: u64,
    first_digests: Vec<Option<u64>>,
    from: u64,
    to: u64,
}

#[allow(clippy::too_many_arguments)]
fn timed(
    cx: &Ctx,
    oracle: &Oracle,
    bytes: &[u8],
    batches: &[Vec<(NodeId, NodeId)>],
    est_pairs: &[(NodeId, NodeId)],
    route_pairs: &[(NodeId, NodeId)],
    log: &mut SpanLog,
    rep: &mut Report,
) -> Phase {
    let from = log.now();
    let mut ph = Phase {
        pairs: 0,
        cpu_s: 0.0,
        batch_us: Vec::new(),
        estimate_us: Samples::new(),
        route_us: Samples::new(),
        cold_ms: Vec::new(),
        routes_failed: 0,
        first_digests: vec![None; batches.len()],
        from,
        to: from,
    };
    // One loop interleaves every operation across the whole phase, so
    // each metric samples the same stretch of time: a batch, then a few
    // groups of point estimates and routes, and every 16th round a cold
    // start. Point calls are timed in groups of `GROUP` so that clock
    // reads do not dominate them.
    const GROUP: usize = 32;
    const POINT_GROUPS: usize = 8;
    const COLD_EVERY: usize = 16;
    let server = ::serve::OracleServer::new();
    let deadline = cx.deadline(1.0);
    let mut out = Vec::new();
    let mut tr = TracedRoute::default();
    let (mut cold_failed, mut k) = (0u64, 0usize);
    let mut round = 0;
    while round < batches.len() || Instant::now() < deadline {
        let b = round % batches.len();
        let t = Instant::now();
        let cpu0 = thread_cpu_seconds();
        let s = log.begin("oracle.DistanceOracle::estimate_many_with", 0, round as u64);
        oracle.estimate_many_with(&batches[b], &mut out, 1);
        log.end(s);
        ph.cpu_s += thread_cpu_seconds() - cpu0;
        ph.batch_us.push(us(t.elapsed()));
        ph.pairs += batches[b].len() as u64;
        if ph.first_digests[b].is_none() {
            ph.first_digests[b] = Some(digest(&out));
        }
        for _ in 0..POINT_GROUPS {
            let base = k * GROUP;
            let t = Instant::now();
            let s = log.begin("oracle.DistanceOracle::estimate", 0, k as u64);
            for j in base..base + GROUP {
                let (u, v) = est_pairs[j % est_pairs.len()];
                black_box(oracle.estimate(u, v));
            }
            log.end(s);
            ph.estimate_us.push(us(t.elapsed()) / GROUP as f64);
            let t = Instant::now();
            let s = log.begin("oracle.DistanceOracle::route_into", 0, k as u64);
            for j in base..base + GROUP {
                let (u, v) = route_pairs[j % route_pairs.len()];
                if !oracle.route_into(u, v, &mut tr) {
                    ph.routes_failed += 1;
                }
            }
            log.end(s);
            ph.route_us.push(us(t.elapsed()) / GROUP as f64);
            k += 1;
        }
        if round % COLD_EVERY == 0 {
            match cold_start(&server, bytes, oracle.len(), log) {
                Ok(ms) => ph.cold_ms.push(ms),
                Err(e) => {
                    cold_failed += 1;
                    rep.fail(e);
                }
            }
        }
        round += 1;
    }
    rep.ops("estimate_many", round as u64, 0);
    rep.ops("estimate", (k * GROUP) as u64, 0);
    rep.ops("route", (k * GROUP) as u64, ph.routes_failed);
    rep.ops(
        "cold_start",
        ph.cold_ms.len() as u64 + cold_failed,
        cold_failed,
    );
    ph.to = log.now();
    ph
}

/// Runs the workload and fills `rep`.
pub fn run(cx: &Ctx, rep: &mut Report) {
    let p = Params::new(cx.toy);
    let mut log = SpanLog::new(cx.trace, cx.epoch, "main");
    let mut times = SetupTimes::default();
    let mut built = None;
    for _ in 0..p.setup_reps {
        // Drop the previous set-up's oracle before building the next.
        drop(built.take());
        let t = Instant::now();
        let (edges, sources) = inputs(&p, cx.seed);
        let g = match make_graph(p.n, &edges, &mut log, &mut times) {
            Ok(g) => g,
            Err(e) => return rep.fail(e),
        };
        let mut flags = vec![false; p.n];
        for &s in &sources {
            flags[s as usize] = true;
        }
        let builder = OracleBuilder::new(Backend::Pde)
            .build_mode(BuildMode::Simulated)
            .threads(1)
            .seed(cx.seed)
            .eps(p.eps)
            .sigma(p.sigma)
            .horizon(p.h)
            .sources(flags);
        let tb = Instant::now();
        let s = log.begin("oracle.OracleBuilder::try_build", 0, 0);
        let oracle = builder.try_build(&g);
        log.end(s);
        times.build.push(tb.elapsed().as_secs_f64());
        let oracle = match oracle {
            Ok(o) => o,
            Err(e) => {
                rep.ops("build", 1, 1);
                return rep.fail(format!("PDE build failed: {e}"));
            }
        };
        rep.ops("build", 1, 0);
        let bytes = save(&oracle, &mut log, &mut times);
        times.total.push(t.elapsed().as_secs_f64());
        built = Some((edges, sources, oracle, bytes));
    }
    let (edges, sources, oracle, bytes) = built.expect("at least one set-up");
    let adj = Adj::new(p.n, &edges);
    let metrics = *oracle.build_metrics();
    rep.set("snapshot_mb", bytes.len() as f64 / 1e6);

    // Inputs fixed before timing: shuffled (node, source) batches, point
    // pairs, and point pairs the oracle covers (for routes).
    let mut rng = Rng::new(cx.seed, 3);
    let pair = |rng: &mut Rng| {
        (
            rng.below(p.n as u64) as u32,
            sources[rng.below(sources.len() as u64) as usize],
        )
    };
    let batches: Vec<Vec<(NodeId, NodeId)>> = (0..p.distinct_batches)
        .map(|_| {
            node_pairs(
                &(0..p.batch_pairs)
                    .map(|_| pair(&mut rng))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let est_pairs = node_pairs(
        &(0..p.point_pairs)
            .map(|_| pair(&mut rng))
            .collect::<Vec<_>>(),
    );
    let route_pairs: Vec<(NodeId, NodeId)> = est_pairs
        .iter()
        .copied()
        .filter(|&(u, v)| u != v && oracle.estimate(u, v) != INF)
        .collect();
    if route_pairs.is_empty() {
        return rep.fail("no covered (node, source) pair to route".into());
    }
    rep.note(format!(
        "n={} m={} sources={} sigma={} h={} eps={} rungs={} rounds={} messages={} point coverage={:.4}",
        p.n,
        edges.len(),
        sources.len(),
        p.sigma,
        p.h,
        p.eps,
        rungs(p.eps, p.w_max),
        metrics.rounds,
        metrics.messages,
        route_pairs.len() as f64 / est_pairs.len() as f64
    ));

    let mut ph = if cx.trace {
        // The untraced half sets the baseline for the tracing overhead.
        let mut off = SpanLog::new(false, cx.epoch, "main");
        let half = Ctx {
            seconds: cx.seconds / 2.0,
            ..cx.clone()
        };
        let base = timed(
            &half,
            &oracle,
            &bytes,
            &batches,
            &est_pairs,
            &route_pairs,
            &mut off,
            rep,
        );
        let ph = timed(
            &half,
            &oracle,
            &bytes,
            &batches,
            &est_pairs,
            &route_pairs,
            &mut log,
            rep,
        );
        let (r0, r1) = (base.pairs as f64 / base.cpu_s, ph.pairs as f64 / ph.cpu_s);
        rep.set("trace.overhead_pct", (r0 - r1) / r0 * 100.0);
        rep.set(
            "trace.span_coverage",
            span_coverage(&[&log], ph.from, ph.to),
        );
        ph
    } else {
        timed(
            cx,
            &oracle,
            &bytes,
            &batches,
            &est_pairs,
            &route_pairs,
            &mut log,
            rep,
        )
    };
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("pairs_per_cpu_s", ph.pairs as f64 / ph.cpu_s);
    let batch_p50 = median(&mut ph.batch_us);
    rep.set("estimate_p99_us", ph.estimate_us.quantile(0.99));
    rep.set("route_p99_us", ph.route_us.quantile(0.99));
    rep.note(format!(
        "p50 (not a bounded metric): estimate {:.4} us, route {:.4} us",
        ph.estimate_us.quantile(0.5),
        ph.route_us.quantile(0.5)
    ));
    let cold_p50 = median(&mut ph.cold_ms);
    rep.note(format!(
        "not bounded metrics: batch p50 {batch_p50:.3} us, cold start p50 {cold_p50:.4} ms"
    ));
    rep.note(format!(
        "samples: batches={} estimate groups={} route groups={} cold_starts={}",
        ph.batch_us.len(),
        ph.estimate_us.count(),
        ph.route_us.count(),
        ph.cold_ms.len()
    ));

    check(&p, cx, &adj, &sources, &oracle, &batches, &ph, rep);

    if cx.trace {
        times.report(rep);
        rep.set("congest.rounds", metrics.rounds as f64);
        rep.set("congest.messages", metrics.messages as f64);
        rep.set(
            "congest.messages_per_s",
            metrics.messages as f64 / (metrics.build_nanos as f64 / 1e9),
        );
        rep.set(
            "congest.rounds_per_rung",
            metrics.rounds as f64 / rungs(p.eps, p.w_max) as f64,
        );
        attribute_batches(&oracle, &batches[..1], rep);
        let server = serve::OracleServer::new();
        server.install("bulk", oracle);
        let lease = server.lease("bulk").expect("just installed");
        attribute_query(&server, "bulk", &batches[..1], rep);
        attribute_points(lease.oracle(), &est_pairs, &route_pairs, rep);
        attribute_load(&bytes, rep);
        let mut cold = log.durations("serve.OracleServer::install_shared");
        rep.set("serve.install_shared_ms", median(&mut cold) / 1e6);
        let path = cx.scratch.join(format!("trace-bulk-{}.tsv", cx.seed));
        if let Err(e) = crate::trace::write_spans(&path, &[&log]) {
            rep.fail(format!("writing spans: {e}"));
        }
    } else {
        times.report(rep);
    }
}

/// Checks against the benchmark's own Dijkstra and the PDE guarantees.
#[allow(clippy::too_many_arguments)]
fn check(
    p: &Params,
    cx: &Ctx,
    adj: &Adj,
    sources: &[u32],
    oracle: &Oracle,
    batches: &[Vec<(NodeId, NodeId)>],
    ph: &Phase,
    rep: &mut Report,
) {
    // Batches answered in the timed phase equal the scalar path.
    for (b, d) in batches.iter().zip(&ph.first_digests) {
        let mut scalar = vec![0u64; b.len()];
        oracle.estimate_into(b, &mut scalar);
        if *d != Some(digest(&scalar)) {
            rep.fail("a timed batch differs from scalar estimates".into());
        }
    }
    // Def 2.2 on a seeded sample of nodes, against every source. Every
    // answer is sound (`est ≥ wd`). A source within h hops of `v` with
    // fewer than σ other sources inside `(1+ε)·wd(v, s)` cannot be pushed
    // out of `v`'s list on the rung that estimates it within `1+ε`, so it
    // must be answered within `(1+ε)·wd(v, s)`.
    let mut rng = Rng::new(cx.seed, 4);
    let mut stretch = Vec::new();
    let (mut checked, mut bad, mut over_sigma) = (0u64, 0u64, 0usize);
    for _ in 0..p.sample_nodes {
        let v = rng.below(p.n as u64) as u32;
        let (dist, hops) = adj.dijkstra(v);
        let mut near: Vec<u64> = sources.iter().map(|&s| dist[s as usize]).collect();
        near.sort_unstable();
        let mut answered = 0;
        for &s in sources.iter().filter(|&&s| s != v) {
            let est = oracle.estimate(NodeId(v), NodeId(s));
            let d = dist[s as usize];
            checked += 1;
            if est != INF {
                answered += 1;
                stretch.push(est as f64 / d as f64);
                if d == UNREACHED || est < d {
                    bad += 1;
                    rep.fail(format!("estimate({v},{s}) = {est} below distance {d}"));
                    continue;
                }
            }
            let limit = (1.0 + p.eps) * d as f64;
            let rivals = near.partition_point(|&t| t as f64 <= limit) - 1;
            if u64::from(hops[s as usize]) <= p.h && rivals < p.sigma && est as f64 > limit {
                bad += 1;
                rep.fail(format!(
                    "estimate({v},{s}) = {est} above (1+eps)*{d}: {} hops, {rivals} rivals",
                    hops[s as usize]
                ));
            }
        }
        if answered > p.sigma {
            over_sigma += 1;
        }
    }
    rep.ops("reference_pair", checked, bad);
    if stretch.is_empty() {
        rep.fail("no covered pair in the reference sample".into());
    }
    rep.note(format!(
        "reference: {} answered pairs; {over_sigma} of {} sampled nodes answer for more than sigma={} sources",
        stretch.len(),
        p.sample_nodes,
        p.sigma
    ));
    rep.set("stretch_p99", quantile(&mut stretch, 0.99));
    // Rounds: each rung runs detection with hop horizon
    // h' = ⌈3(1+ε)h/ε⌉ + 1 on the subdivided graph, at most h' + σ + 1
    // rounds, after an O(D) ≤ 2n coordination phase.
    let rounds = oracle.build_metrics().rounds;
    let h_prime = (3.0 * (1.0 + p.eps) * p.h as f64 / p.eps).ceil() as u64 + 1;
    let cap = rungs(p.eps, p.w_max) * (h_prime + p.sigma as u64 + 1) + 2 * p.n as u64;
    if rounds == 0 || rounds > cap {
        rep.fail(format!("{rounds} rounds, outside 1..={cap}"));
    }
    // Routes walk real edges to their source, never shorter than the
    // distance.
    let mut tr = TracedRoute::default();
    for &(u, v) in batches[0].iter().take(2000) {
        if !oracle.route_into(u, v, &mut tr) {
            continue;
        }
        let nodes: Vec<u32> = tr.nodes.iter().map(|x| x.0).collect();
        match adj.walk_weight(&nodes, u.0, v.0, &[]) {
            Ok(w) if w == tr.weight => {}
            Ok(w) => rep.fail(format!(
                "route {u:?}->{v:?} weighs {w}, reported {}",
                tr.weight
            )),
            Err(e) => rep.fail(e),
        }
    }
}
