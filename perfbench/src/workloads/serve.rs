//! `serve`: a routing service over loopback.
//!
//! An RTC oracle (Theorem 4.5, k = 2) served by `NetServer` from its
//! snapshot bytes to two closed-loop connections: a point stream of
//! `Estimate`, `Route` and `NextHop` requests, and a batch stream of
//! `EstimateMany` frames through the admission `Batcher`, with sizes
//! log-uniform over 64..16384 pairs (straddling the 4096-pair grouping
//! gate). Point latency is sampled only while the batch stream runs.

use super::{
    attribute_admission, attribute_batches, attribute_load, attribute_points, attribute_query,
    cold_starts, digest, frames, make_graph, save, span_coverage, Ctx, SetupTimes,
};
use crate::graph::{random_graph, Adj};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{cpu_seconds, median, peak_rss_mb, quantile, us, Samples};
use crate::trace::SpanLog;
use ::serve::OracleServer;
use congest::arena::SharedBytes;
use graphs::NodeId;
use net::{Client, NetServer, ServerConfig};
use oracle::{Backend, DistanceOracle, Oracle, OracleBuilder, TracedRoute};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "rtc";

struct Params {
    n: usize,
    avg_degree: f64,
    w_max: u64,
    k: u32,
    frames: usize,
    frame_min: u64,
    frame_max: u64,
    point_pairs: usize,
    setup_reps: usize,
    sample_sources: usize,
    sample_routes: usize,
}

impl Params {
    fn new(toy: bool) -> Params {
        Params {
            n: if toy { 256 } else { 1024 },
            avg_degree: 6.0,
            w_max: 32,
            k: 2,
            frames: 64,
            frame_min: 64,
            frame_max: 16384,
            point_pairs: 4096,
            setup_reps: if toy { 1 } else { 3 },
            sample_sources: if toy { 8 } else { 32 },
            sample_routes: if toy { 500 } else { 4000 },
        }
    }
}

/// One recorded point answer, kept for the first visit of each pair.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    Estimate(u64),
    Route(Option<Vec<u32>>, u64),
    NextHop(Option<u32>),
}

/// What the point stream measured.
#[derive(Default)]
struct Points {
    estimate_us: Samples,
    route_us: Samples,
    next_hop_us: Samples,
    failed: [u64; 3],
    answers: HashMap<usize, Answer>,
    mismatched: u64,
}

/// What the batch stream measured.
#[derive(Default)]
struct Batches {
    batch_us: Vec<f64>,
    pairs: u64,
    failed: u64,
    digests: HashMap<usize, u64>,
    mismatched: u64,
}

struct Phase {
    points: Points,
    batches: Batches,
    cpu_s: f64,
    cold_ms: Vec<f64>,
    logs: Vec<SpanLog>,
    from: u64,
    to: u64,
}

fn point_stream(
    addr: std::net::SocketAddr,
    pairs: &[(NodeId, NodeId)],
    running: &AtomicBool,
    deadline: Instant,
    log: &mut SpanLog,
) -> Points {
    let mut pts = Points::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            pts.failed[0] += 1;
            return pts;
        }
    };
    while !running.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let mut k = 0usize;
    // Whole rounds of the three request kinds.
    while !k.is_multiple_of(3) || Instant::now() < deadline {
        let idx = (k / 3) % pairs.len();
        let (u, v) = pairs[idx];
        let req = k as u64;
        let t = Instant::now();
        let answer = match k % 3 {
            0 => {
                let s = log.begin("net.Client::estimate", 0, req);
                let r = client.estimate(NAME, u, v);
                log.end(s);
                pts.estimate_us.push(us(t.elapsed()));
                r.map(Answer::Estimate)
            }
            1 => {
                let s = log.begin("net.Client::route", 0, req);
                let r = client.route(NAME, u, v);
                log.end(s);
                pts.route_us.push(us(t.elapsed()));
                r.map(|(_, route)| match route {
                    Some(r) => Answer::Route(Some(r.nodes.iter().map(|x| x.0).collect()), r.weight),
                    None => Answer::Route(None, 0),
                })
            }
            _ => {
                let s = log.begin("net.Client::next_hop", 0, req);
                let r = client.next_hop(NAME, u, v);
                log.end(s);
                pts.next_hop_us.push(us(t.elapsed()));
                r.map(|h| Answer::NextHop(h.map(|x| x.0)))
            }
        };
        match answer {
            Ok(a) => {
                let key = idx * 3 + k % 3;
                match pts.answers.get(&key) {
                    Some(first) if *first != a => pts.mismatched += 1,
                    Some(_) => {}
                    None => {
                        pts.answers.insert(key, a);
                    }
                }
            }
            Err(_) => pts.failed[k % 3] += 1,
        }
        k += 1;
    }
    pts
}

fn batch_stream(
    addr: std::net::SocketAddr,
    frames: &[Vec<(NodeId, NodeId)>],
    running: &AtomicBool,
    stop: &AtomicBool,
    log: &mut SpanLog,
) -> Batches {
    let mut b = Batches::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            b.failed += 1;
            running.store(true, Ordering::Release);
            return b;
        }
    };
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let f = i % frames.len();
        let t = Instant::now();
        let s = log.begin("net.Client::estimate_many", 0, i as u64);
        let r = client.estimate_many(NAME, &frames[f], true);
        log.end(s);
        b.batch_us.push(us(t.elapsed()));
        match r {
            Ok((ests, _)) if ests.len() == frames[f].len() => {
                b.pairs += ests.len() as u64;
                let d = digest(&ests);
                if *b.digests.entry(f).or_insert(d) != d {
                    b.mismatched += 1;
                }
            }
            _ => b.failed += 1,
        }
        running.store(true, Ordering::Release);
        i += 1;
    }
    b
}

fn timed(
    cx: &Ctx,
    addr: std::net::SocketAddr,
    bytes: &[u8],
    n: usize,
    frames: &[Vec<(NodeId, NodeId)>],
    points: &[(NodeId, NodeId)],
    rep: &mut Report,
) -> Phase {
    let mut main_log = SpanLog::new(cx.trace, cx.epoch, "main");
    let cold_ms = cold_starts(bytes, n, cx.deadline(0.15), &mut main_log, rep);
    let from = main_log.now();
    let running = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let deadline = cx.deadline(0.85);
    let cpu0 = cpu_seconds();
    let mut plog = SpanLog::new(cx.trace, cx.epoch, "point");
    let mut blog = SpanLog::new(cx.trace, cx.epoch, "batch");
    let (pts, bts) = std::thread::scope(|scope| {
        let b = scope.spawn(|| batch_stream(addr, frames, &running, &stop, &mut blog));
        let pts = point_stream(addr, points, &running, deadline, &mut plog);
        stop.store(true, Ordering::Release);
        (pts, b.join().expect("batch stream thread panicked"))
    });
    let cpu_s = cpu_seconds() - cpu0;
    let to = main_log.now();
    Phase {
        points: pts,
        batches: bts,
        cpu_s,
        cold_ms,
        logs: vec![main_log, plog, blog],
        from,
        to,
    }
}

/// Runs the workload and fills `rep`.
pub fn run(cx: &Ctx, rep: &mut Report) {
    let p = Params::new(cx.toy);
    let mut log = SpanLog::new(cx.trace, cx.epoch, "setup");
    let mut times = SetupTimes::default();
    let mut built = None;
    for _ in 0..p.setup_reps {
        drop(built.take());
        let t = Instant::now();
        let edges = random_graph(p.n, p.avg_degree, p.w_max, &mut Rng::new(cx.seed, 1));
        let g = match make_graph(p.n, &edges, &mut log, &mut times) {
            Ok(g) => g,
            Err(e) => return rep.fail(e),
        };
        let builder = OracleBuilder::new(Backend::Rtc)
            .threads(1)
            .seed(cx.seed)
            .k(p.k);
        let tb = Instant::now();
        let s = log.begin("oracle.OracleBuilder::try_build", 0, 0);
        let oracle = builder.try_build(&g);
        log.end(s);
        times.build.push(tb.elapsed().as_secs_f64());
        let oracle = match oracle {
            Ok(o) => o,
            Err(e) => {
                rep.ops("build", 1, 1);
                return rep.fail(format!("RTC build failed: {e}"));
            }
        };
        rep.ops("build", 1, 0);
        let bytes = save(&oracle, &mut log, &mut times);
        times.total.push(t.elapsed().as_secs_f64());
        built = Some((edges, bytes));
    }
    // From here on the oracle is the one served from the snapshot bytes.
    let (edges, bytes) = built.expect("at least one set-up");
    rep.set("snapshot_mb", bytes.len() as f64 / 1e6);
    let adj = Adj::new(p.n, &edges);

    let registry = Arc::new(OracleServer::new());
    if let Err(e) = registry.install_shared(NAME, SharedBytes::from_vec(bytes.clone())) {
        return rep.fail(format!("serving the snapshot failed: {e}"));
    }
    let lease = registry.lease(NAME).expect("installed above");
    let oracle = lease.oracle();

    // Inputs fixed before timing.
    let mut rng = Rng::new(cx.seed, 3);
    let pair = |rng: &mut Rng| {
        let u = rng.below(p.n as u64) as u32;
        let v = (u + 1 + rng.below(p.n as u64 - 1) as u32) % p.n as u32;
        (NodeId(u), NodeId(v))
    };
    let frames = frames(p.frames, p.frame_min, p.frame_max, &mut rng, pair);
    let points: Vec<(NodeId, NodeId)> = (0..p.point_pairs).map(|_| pair(&mut rng)).collect();
    rep.note(format!(
        "n={} m={} k={} stretch_bound={} frames={} ({}..={} pairs, {} at or above the 4096-pair gate)",
        p.n,
        edges.len(),
        p.k,
        oracle.stretch_bound(),
        frames.len(),
        p.frame_min,
        p.frame_max,
        frames.iter().filter(|f| f.len() >= 4096).count()
    ));

    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let server = match NetServer::bind("127.0.0.1:0", Arc::clone(&registry), cfg) {
        Ok(s) => s,
        Err(e) => return rep.fail(format!("binding the server failed: {e}")),
    };
    let addr = server.local_addr();

    let mut ph = if cx.trace {
        let half = Ctx {
            seconds: cx.seconds / 2.0,
            trace: false,
            ..cx.clone()
        };
        let base = timed(&half, addr, &bytes, p.n, &frames, &points, rep);
        let traced = Ctx {
            trace: true,
            ..half
        };
        let ph = timed(&traced, addr, &bytes, p.n, &frames, &points, rep);
        let r0 = base.batches.pairs as f64 / base.cpu_s;
        let r1 = ph.batches.pairs as f64 / ph.cpu_s;
        rep.set("trace.overhead_pct", (r0 - r1) / r0 * 100.0);
        let logs: Vec<&SpanLog> = ph.logs[1..].iter().collect();
        rep.set("trace.span_coverage", span_coverage(&logs, ph.from, ph.to));
        ph
    } else {
        timed(cx, addr, &bytes, p.n, &frames, &points, rep)
    };
    rep.set("peak_rss_mb", peak_rss_mb());
    let net_metrics = server.metrics();
    let pts = &mut ph.points;
    let bts = &mut ph.batches;
    rep.ops(
        "net_estimate",
        pts.estimate_us.count() as u64,
        pts.failed[0],
    );
    rep.ops("net_route", pts.route_us.count() as u64, pts.failed[1]);
    rep.ops(
        "net_next_hop",
        pts.next_hop_us.count() as u64,
        pts.failed[2],
    );
    rep.ops("net_estimate_many", bts.batch_us.len() as u64, bts.failed);
    rep.set("pairs_per_cpu_s", bts.pairs as f64 / ph.cpu_s);
    let batch_p50 = median(&mut bts.batch_us);
    rep.set("estimate_p99_us", pts.estimate_us.quantile(0.99));
    rep.set("route_p99_us", pts.route_us.quantile(0.99));
    let cold_p50 = median(&mut ph.cold_ms);
    rep.note(format!(
        "not bounded metrics: batch p50 {batch_p50:.3} us, cold start p50 {cold_p50:.4} ms"
    ));
    rep.note(format!(
        "samples: batches={} estimates={} routes={} next_hops={} cold_starts={}; p50 (not a bounded metric): estimate {:.3} us, route {:.3} us, next_hop {:.3} us",
        bts.batch_us.len(),
        pts.estimate_us.count(),
        pts.route_us.count(),
        pts.next_hop_us.count(),
        ph.cold_ms.len(),
        pts.estimate_us.quantile(0.5),
        pts.route_us.quantile(0.5),
        pts.next_hop_us.quantile(0.5),
    ));

    check(&p, cx, &adj, oracle, addr, &frames, &points, &ph, rep);

    times.report(rep);
    if cx.trace {
        attribute_batches(lease.oracle(), &frames, rep);
        attribute_query(&registry, NAME, &frames, rep);
        attribute_points(lease.oracle(), &points, &points, rep);
        attribute_load(&bytes, rep);
        attribute_admission(&registry, NAME, &frames, rep);
        let mut cold = ph.logs[0].durations("serve.OracleServer::install_shared");
        rep.set("serve.install_shared_ms", median(&mut cold) / 1e6);
        let mut est = ph.logs[1].durations("net.Client::estimate");
        let in_process = rep.get("oracle.estimate_ns").unwrap_or(0.0);
        rep.set("net.wire_us", (median(&mut est) - in_process) / 1e3);
        let requests = net_metrics.requests.max(1) as f64;
        let pairs = ph.batches.pairs as f64 + requests - ph.batches.batch_us.len() as f64;
        rep.set(
            "net.bytes_per_pair",
            (net_metrics.bytes_in + net_metrics.bytes_out) as f64 / pairs.max(1.0),
        );
        let mut logs: Vec<&SpanLog> = ph.logs.iter().collect();
        logs.push(&log);
        let path = cx.scratch.join(format!("trace-serve-{}.tsv", cx.seed));
        if let Err(e) = crate::trace::write_spans(&path, &logs) {
            rep.fail(format!("writing spans: {e}"));
        }
    }
    server.shutdown();
}

/// Checks the served answers against the benchmark's own Dijkstra, the
/// oracle's `stretch_bound()` and the in-process oracle.
#[allow(clippy::too_many_arguments)]
fn check(
    p: &Params,
    cx: &Ctx,
    adj: &Adj,
    oracle: &Oracle,
    addr: std::net::SocketAddr,
    frames: &[Vec<(NodeId, NodeId)>],
    points: &[(NodeId, NodeId)],
    ph: &Phase,
    rep: &mut Report,
) {
    let bound = oracle.stretch_bound();
    if ph.points.mismatched + ph.batches.mismatched > 0 {
        rep.fail("a repeated request got a different answer".into());
    }
    // Answers given over the socket in the timed phase equal in-process.
    let mut tr = TracedRoute::default();
    for (&key, answer) in &ph.points.answers {
        let (u, v) = points[key / 3];
        let local = match key % 3 {
            0 => Answer::Estimate(oracle.estimate(u, v)),
            1 => {
                if oracle.route_into(u, v, &mut tr) {
                    Answer::Route(Some(tr.nodes.iter().map(|x| x.0).collect()), tr.weight)
                } else {
                    Answer::Route(None, 0)
                }
            }
            _ => Answer::NextHop(oracle.next_hop(u, v).map(|x| x.0)),
        };
        if local != *answer {
            rep.fail(format!(
                "socket answer {answer:?} != in-process {local:?} for {u:?}->{v:?}"
            ));
        }
    }
    for (&f, &d) in &ph.batches.digests {
        let mut out = Vec::new();
        oracle.estimate_many_with(&frames[f], &mut out, 1);
        if digest(&out) != d {
            rep.fail(format!("frame {f}: socket answers differ from in-process"));
        }
    }
    // Reference: every estimate from a sample of sources within
    // [wd, stretch_bound()·wd]; routes walk real edges to the target
    // within the same bound. Sample estimates go over the socket too.
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return rep.fail(format!("check connection: {e}")),
    };
    let mut rng = Rng::new(cx.seed, 4);
    let mut stretch = Vec::new();
    let (mut checked, mut bad, mut routes) = (0u64, 0u64, 0usize);
    let per_source_routes = p.sample_routes / p.sample_sources;
    for _ in 0..p.sample_sources {
        let s = rng.below(p.n as u64) as u32;
        let (dist, _) = adj.dijkstra(s);
        let pairs: Vec<(NodeId, NodeId)> = (0..p.n as u32)
            .filter(|&v| v != s)
            .map(|v| (NodeId(s), NodeId(v)))
            .collect();
        let remote = match client.estimate_many(NAME, &pairs, false) {
            Ok((r, _)) => r,
            Err(e) => return rep.fail(format!("sample over the socket: {e}")),
        };
        for (i, &(_, v)) in pairs.iter().enumerate() {
            let (est, d) = (oracle.estimate(NodeId(s), v), dist[v.index()]);
            checked += 1;
            if remote[i] != est {
                bad += 1;
                rep.fail(format!("socket estimate {} != in-process {est}", remote[i]));
            }
            if est < d || est as f64 > bound * d as f64 {
                bad += 1;
                rep.fail(format!(
                    "estimate({s},{}) = {est} outside [{d}, {bound}*{d}]",
                    v.0
                ));
            }
            stretch.push(est as f64 / d as f64);
        }
        for _ in 0..per_source_routes {
            let v = pairs[rng.below(pairs.len() as u64) as usize].1;
            routes += 1;
            match client.route(NAME, NodeId(s), v) {
                Ok((_, Some(r))) => {
                    let nodes: Vec<u32> = r.nodes.iter().map(|x| x.0).collect();
                    let d = dist[v.index()];
                    match adj.walk_weight(&nodes, s, v.0, &[]) {
                        Ok(w) if w == r.weight && w >= d && w as f64 <= bound * d as f64 => {}
                        Ok(w) => {
                            bad += 1;
                            rep.fail(format!(
                                "route {s}->{} weighs {w} (reported {}), distance {d}",
                                v.0, r.weight
                            ));
                        }
                        Err(e) => {
                            bad += 1;
                            rep.fail(e);
                        }
                    }
                }
                Ok((_, None)) => {
                    bad += 1;
                    rep.fail(format!("no route {s}->{}", v.0));
                }
                Err(e) => {
                    bad += 1;
                    rep.fail(format!("route over the socket: {e}"));
                }
            }
        }
    }
    rep.ops("reference_pair", checked + routes as u64, bad);
    rep.set("stretch_p99", quantile(&mut stretch, 0.99));
}
