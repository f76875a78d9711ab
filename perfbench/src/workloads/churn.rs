//! `churn`: a live network with link changes, writes beside reads.
//!
//! A flooding oracle (the dense exact matrix, repaired incrementally) is
//! installed with `DynamicOracle::install_persistent`. On a fixed
//! schedule a writer masks a seeded `FailEdge` or `SetWeight` delta,
//! waits a detection delay, calls `repair_and_swap`, and checkpoints
//! every few repairs. Beside it an open-loop reader routes through
//! `DynamicOracle::route` and estimates through `OracleServer::query` at
//! a fixed rate (latency timed from each request's due time), and a
//! closed-loop batch reader submits frames through the admission
//! `Batcher`. At the end the persisted state is recovered into a fresh
//! server and compared with the live one.
//!
//! `BENCHMARK.json` does not list this workload: its point latencies
//! follow the length of the repairs the routes wait out, which varied
//! too much from run to run to hold a bound (see the README).

use super::{
    attribute_admission, attribute_batches, attribute_load, attribute_points, attribute_query,
    cold_start, frames, make_graph, save, span_coverage, Ctx, SetupTimes,
};
use crate::graph::{random_graph, Adj};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, ms, peak_rss_mb, quantile, thread_cpu_seconds, us};
use crate::trace::SpanLog;
use ::serve::{DeltaWal, DynamicOracle, OracleServer};
use graphs::{GraphDelta, NodeId};
use oracle::{Backend, DistanceOracle, OracleBuilder, RepairKind, TracedRoute};
use std::path::{Path, PathBuf};
use std::sync::RwLock;
use std::time::{Duration, Instant};

const NAME: &str = "flood";

struct Params {
    n: usize,
    avg_degree: f64,
    w_max: u64,
    /// Writer period and detection delay.
    period: Duration,
    detect: Duration,
    /// Checkpoint after every `checkpoint_every` repairs.
    checkpoint_every: usize,
    /// Open-loop reader rate, requests per second (routes and estimates
    /// alternate).
    rate: f64,
    frames: usize,
    frame_min: u64,
    frame_max: u64,
    point_pairs: usize,
    setup_reps: usize,
    /// Sources checked against Dijkstra after every repair.
    repair_check_sources: usize,
    /// Deltas logged after the last checkpoint, replayed by recovery.
    recover_deltas: usize,
    /// Edges masked for the failover quality sample.
    masked_edges: usize,
    sample_sources: usize,
    sample_targets: usize,
}

impl Params {
    fn new(toy: bool) -> Params {
        Params {
            n: if toy { 256 } else { 512 },
            avg_degree: 6.0,
            w_max: 32,
            period: Duration::from_millis(60),
            detect: Duration::from_millis(5),
            checkpoint_every: 8,
            rate: 2000.0,
            frames: 64,
            frame_min: 64,
            frame_max: 16384,
            point_pairs: 4096,
            setup_reps: if toy { 1 } else { 15 },
            repair_check_sources: 2,
            recover_deltas: 4,
            masked_edges: if toy { 16 } else { 256 },
            sample_sources: if toy { 8 } else { 128 },
            sample_targets: if toy { 64 } else { 256 },
        }
    }
}

/// The run's persistence directory, removed when the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A seeded delta sequence that keeps the graph connected: half edge
/// failures, half weight changes, each valid on the graph the previous
/// ones leave behind.
fn deltas(adj: &Adj, count: usize, w_max: u64, rng: &mut Rng) -> Vec<GraphDelta> {
    let mut g = adj.clone();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = rng.below(g.len() as u64) as u32;
        let nb = g.neighbors(u);
        if nb.is_empty() {
            continue;
        }
        let (v, w) = nb[rng.below(nb.len() as u64) as usize];
        if rng.below(2) == 0 {
            if g.connected_without(u, v) {
                g.remove(u, v);
                out.push(GraphDelta::FailEdge {
                    u: NodeId(u),
                    v: NodeId(v),
                });
            }
        } else {
            let nw = 1 + rng.below(w_max);
            if nw != w {
                g.set_weight(u, v, nw);
                out.push(GraphDelta::SetWeight {
                    u: NodeId(u),
                    v: NodeId(v),
                    w: nw,
                });
            }
        }
    }
    out
}

/// Applies `d` to the benchmark's own graph copy.
fn apply(g: &mut Adj, d: &GraphDelta) {
    match *d {
        GraphDelta::FailEdge { u, v } => g.remove(u.0, v.0),
        GraphDelta::SetWeight { u, v, w } => g.set_weight(u.0, v.0, w),
        GraphDelta::FailNode { .. } => unreachable!("never generated"),
    }
}

/// Exact answers of the live oracle for `sources` against Dijkstra.
fn exact_rows(server: &OracleServer, g: &Adj, sources: &[u32]) -> Result<(), String> {
    let lease = server.lease(NAME).ok_or("oracle not served")?;
    for &s in sources {
        let (dist, _) = g.dijkstra(s);
        for v in 0..g.len() as u32 {
            let est = lease.oracle().estimate(NodeId(s), NodeId(v));
            if est != dist[v as usize] {
                return Err(format!(
                    "generation {}: estimate({s},{v}) = {est}, distance {}",
                    lease.generation(),
                    dist[v as usize]
                ));
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct Writer {
    cold_ms: Vec<f64>,
    cold_failed: u64,
    repair_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    rows: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
}

/// What one open-loop stream measured.
#[derive(Default)]
struct Stream {
    /// Latency from each request's due time.
    lat_us: Vec<f64>,
    /// How late each request was sent.
    late_us: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
    /// Pairs answered (batch stream).
    pairs: u64,
    /// CPU seconds of the stream's own thread.
    cpu_s: f64,
}

struct Phase {
    writer: Writer,
    routes: Stream,
    estimates: Stream,
    batches: Stream,
    cold_ms: Vec<f64>,
    logs: Vec<SpanLog>,
    from: u64,
    to: u64,
}

struct Live<'a> {
    server: &'a OracleServer,
    dynamic: &'a DynamicOracle,
    graph: &'a mut Adj,
    deltas: &'a [GraphDelta],
    next_delta: &'a mut usize,
    dead: &'a RwLock<Vec<(u32, u32)>>,
}

#[allow(clippy::too_many_arguments)]
fn writer(
    p: &Params,
    live: &mut Live<'_>,
    bytes: &[u8],
    deadline: Instant,
    check_rng: &mut Rng,
    log: &mut SpanLog,
) -> Writer {
    let mut w = Writer::default();
    let cold_server = OracleServer::new();
    let start = Instant::now();
    let mut tick = 0u32;
    // The last `recover_deltas` deltas are kept for the recovery check.
    while Instant::now() < deadline && *live.next_delta + p.recover_deltas < live.deltas.len() {
        let due = start + p.period * tick;
        tick += 1;
        // A cold start from the snapshot bytes in the writer's idle time.
        match cold_start(&cold_server, bytes, live.graph.len(), log) {
            Ok(ms) => w.cold_ms.push(ms),
            Err(e) => {
                w.cold_failed += 1;
                w.problems.push(e);
            }
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let d = live.deltas[*live.next_delta];
        *live.next_delta += 1;
        if let GraphDelta::FailEdge { u, v } = d {
            let s = log.begin("serve.DynamicOracle::fail_edge", 0, tick.into());
            live.dynamic.fail_edge(u, v);
            log.end(s);
            // Published after the mask: a route that starts later must
            // avoid the edge.
            live.dead
                .write()
                .expect("dead-edge list lock")
                .push((u.0.min(v.0), u.0.max(v.0)));
        }
        std::thread::sleep(p.detect);
        let t = Instant::now();
        let s = log.begin("serve.DynamicOracle::repair_and_swap", 0, tick.into());
        let r = live.dynamic.repair_and_swap(live.server, &d);
        log.end(s);
        w.repair_ms.push(ms(t.elapsed()));
        match r {
            Ok(report) => {
                if let RepairKind::Incremental {
                    rows_recomputed, ..
                } = report.repair.kind
                {
                    w.rows.push(rows_recomputed as f64);
                }
            }
            Err(e) => {
                w.failed += 1;
                w.problems.push(format!("repair_and_swap({d:?}): {e}"));
            }
        }
        apply(live.graph, &d);
        let sources: Vec<u32> = (0..p.repair_check_sources)
            .map(|_| check_rng.below(live.graph.len() as u64) as u32)
            .collect();
        if let Err(e) = exact_rows(live.server, live.graph, &sources) {
            w.problems
                .push(format!("after repair {}: {e}", w.repair_ms.len()));
        }
        if w.repair_ms.len() % p.checkpoint_every == 0 {
            let t = Instant::now();
            let s = log.begin("serve.DynamicOracle::checkpoint", 0, tick.into());
            let r = live.dynamic.checkpoint(live.server);
            log.end(s);
            w.checkpoint_ms.push(ms(t.elapsed()));
            if let Err(e) = r {
                w.failed += 1;
                w.problems.push(format!("checkpoint: {e}"));
            }
        }
    }
    w
}

/// One open-loop client alternating `DynamicOracle::route` and
/// `OracleServer::query` for one pair. Every route must walk live edges
/// of the benchmark's graph, avoiding every edge failed before it
/// started.
#[allow(clippy::too_many_arguments)]
fn reader(
    p: &Params,
    server: &OracleServer,
    dynamic: &DynamicOracle,
    base: &Adj,
    dead: &RwLock<Vec<(u32, u32)>>,
    pairs: &[(NodeId, NodeId)],
    deadline: Instant,
    log: &mut SpanLog,
) -> (Stream, Stream) {
    let (mut routes, mut estimates) = (Stream::default(), Stream::default());
    let mut tr = TracedRoute::default();
    let mut out = Vec::with_capacity(1);
    let start = Instant::now();
    let gap = Duration::from_secs_f64(1.0 / p.rate);
    let mut i = 0usize;
    // Whole rounds of one route and one estimate.
    while i % 2 == 1 || Instant::now() < deadline {
        let due = start + gap * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = us(Instant::now().saturating_duration_since(due));
        let (u, v) = pairs[(i / 2) % pairs.len()];
        let st = if i.is_multiple_of(2) {
            let dead_now = dead.read().expect("dead-edge list lock").clone();
            let s = log.begin("serve.DynamicOracle::route", 0, i as u64);
            let res = dynamic.route(server, u, v, &mut tr);
            log.end(s);
            let problem = match res {
                Ok(o) if o.routed() => {
                    let nodes: Vec<u32> = tr.nodes.iter().map(|x| x.0).collect();
                    base.walk_weight(&nodes, u.0, v.0, &dead_now).err()
                }
                Ok(_) => Some(format!("{u:?}->{v:?} unroutable on a connected graph")),
                Err(e) => Some(format!("route: {e}")),
            };
            if let Some(e) = problem {
                routes.failed += 1;
                routes.problems.push(e);
            }
            &mut routes
        } else {
            let s = log.begin("serve.OracleServer::query", 0, i as u64);
            let res = server.query(NAME, &[(u, v)], &mut out, 1);
            log.end(s);
            if res.is_err() || out.len() != 1 {
                estimates.failed += 1;
                estimates.problems.push("point estimate refused".into());
            }
            &mut estimates
        };
        st.lat_us.push(us(due.elapsed()));
        st.late_us.push(late);
        i += 1;
    }
    (routes, estimates)
}

/// Frames through the admission `Batcher`, closed loop: the next frame
/// is submitted when the previous one is answered, which keeps one core
/// busy beside the writer and the open-loop readers.
fn batch_stream(
    server: &OracleServer,
    batcher: &::serve::Batcher,
    frames: &[Vec<(NodeId, NodeId)>],
    deadline: Instant,
    log: &mut SpanLog,
) -> Stream {
    let mut st = Stream::default();
    let cpu0 = thread_cpu_seconds();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let f = &frames[i % frames.len()];
        let t = Instant::now();
        let s = log.begin("serve.Batcher::submit", 0, i as u64);
        let r = batcher.submit(server, f.clone());
        log.end(s);
        st.lat_us.push(us(t.elapsed()));
        match r {
            Ok((ests, _)) if ests.len() == f.len() => st.pairs += f.len() as u64,
            _ => {
                st.failed += 1;
                st.problems.push("batch submission refused".into());
            }
        }
        i += 1;
    }
    st.cpu_s = thread_cpu_seconds() - cpu0;
    st
}

#[allow(clippy::too_many_arguments)]
fn timed(
    cx: &Ctx,
    p: &Params,
    live: &mut Live<'_>,
    base: &Adj,
    bytes: &[u8],
    frames: &[Vec<(NodeId, NodeId)>],
    points: &[(NodeId, NodeId)],
    rep: &mut Report,
) -> Phase {
    let main_log = SpanLog::new(cx.trace, cx.epoch, "main");
    let from = main_log.now();
    let deadline = cx.deadline(1.0);
    let batcher = live.server.batcher(
        NAME,
        Duration::from_micros(250),
        1,
        Some(Duration::from_secs(30)),
    );
    let mut check_rng = Rng::new(cx.seed, 5 + *live.next_delta as u64);
    let mut wlog = SpanLog::new(cx.trace, cx.epoch, "writer");
    let mut rlog = SpanLog::new(cx.trace, cx.epoch, "reader");
    let mut blog = SpanLog::new(cx.trace, cx.epoch, "batches");
    let (server, dynamic, dead) = (live.server, live.dynamic, live.dead);
    let (mut writer, routes, estimates, batches) = std::thread::scope(|scope| {
        let b = scope.spawn(|| batch_stream(server, &batcher, frames, deadline, &mut blog));
        let r = scope.spawn(|| reader(p, server, dynamic, base, dead, points, deadline, &mut rlog));
        let w = writer(p, live, bytes, deadline, &mut check_rng, &mut wlog);
        let (routes, estimates) = r.join().expect("reader thread panicked");
        (
            w,
            routes,
            estimates,
            b.join().expect("batch thread panicked"),
        )
    });
    let to = main_log.now();
    let cold_ms = std::mem::take(&mut writer.cold_ms);
    rep.ops(
        "cold_start",
        cold_ms.len() as u64 + writer.cold_failed,
        writer.cold_failed,
    );
    Phase {
        writer,
        routes,
        estimates,
        batches,
        cold_ms,
        logs: vec![main_log, wlog, rlog, blog],
        from,
        to,
    }
}

/// Runs the workload and fills `rep`.
pub fn run(cx: &Ctx, rep: &mut Report) {
    let p = Params::new(cx.toy);
    let scratch = TempDir(
        cx.scratch
            .join(format!("churn-{}-{}", std::process::id(), cx.seed)),
    );
    let tmp = &scratch.0;
    let mut log = SpanLog::new(cx.trace, cx.epoch, "setup");
    let mut times = SetupTimes::default();
    let mut built = None;
    for i in 0..p.setup_reps {
        drop(built.take());
        let dir = tmp.join(format!("setup{i}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return rep.fail(format!("scratch directory: {e}"));
        }
        let t = Instant::now();
        let edges = random_graph(p.n, p.avg_degree, p.w_max, &mut Rng::new(cx.seed, 1));
        let g = match make_graph(p.n, &edges, &mut log, &mut times) {
            Ok(g) => g,
            Err(e) => return rep.fail(e),
        };
        let server = OracleServer::new();
        let builder = OracleBuilder::new(Backend::Flooding)
            .threads(1)
            .seed(cx.seed);
        let tb = Instant::now();
        let s = log.begin("serve.DynamicOracle::install_persistent", 0, 0);
        let dynamic = DynamicOracle::install_persistent(&server, NAME, builder, &g, &dir);
        log.end(s);
        times.build.push(tb.elapsed().as_secs_f64());
        let dynamic = match dynamic {
            Ok(d) => d,
            Err(e) => {
                rep.ops("build", 1, 1);
                return rep.fail(format!("install_persistent failed: {e}"));
            }
        };
        rep.ops("build", 1, 0);
        let lease = server.lease(NAME).expect("installed above");
        let bytes = save(lease.oracle(), &mut log, &mut times);
        drop(lease);
        times.total.push(t.elapsed().as_secs_f64());
        built = Some((edges, g, server, dynamic, bytes, dir));
    }
    let (edges, g0, server, dynamic, bytes, dir) = built.expect("at least one set-up");
    rep.set("snapshot_mb", bytes.len() as f64 / 1e6);
    let base = Adj::new(p.n, &edges);
    let initial = server.lease(NAME).expect("installed above");

    // Inputs fixed before timing: the delta sequence (enough for the
    // whole phase, which a traced run runs as two halves, plus the ones
    // recovery replays), reader pairs and batch frames.
    let mut rng = Rng::new(cx.seed, 3);
    let ticks = (cx.seconds / p.period.as_secs_f64()).ceil() as usize + 4;
    let seq = deltas(&base, ticks + p.recover_deltas, p.w_max, &mut rng);
    let pair = |rng: &mut Rng| {
        let u = rng.below(p.n as u64) as u32;
        let v = (u + 1 + rng.below(p.n as u64 - 1) as u32) % p.n as u32;
        (NodeId(u), NodeId(v))
    };
    let points: Vec<(NodeId, NodeId)> = (0..p.point_pairs).map(|_| pair(&mut rng)).collect();
    let frames = frames(p.frames, p.frame_min, p.frame_max, &mut rng, pair);
    rep.note(format!(
        "n={} m={} period={:?} detect={:?} checkpoint_every={} reader={}/s (routes and estimates alternate), frames closed-loop; deltas={} ({} fail_edge)",
        p.n,
        edges.len(),
        p.period,
        p.detect,
        p.checkpoint_every,
        p.rate,
        seq.len(),
        seq.iter().filter(|d| matches!(d, GraphDelta::FailEdge { .. })).count()
    ));

    let mut graph = base.clone();
    let mut next_delta = 0usize;
    let dead = RwLock::new(Vec::new());
    let mut live = Live {
        server: &server,
        dynamic: &dynamic,
        graph: &mut graph,
        deltas: &seq,
        next_delta: &mut next_delta,
        dead: &dead,
    };
    let mut ph = if cx.trace {
        let half = Ctx {
            seconds: cx.seconds / 2.0,
            trace: false,
            ..cx.clone()
        };
        let b = timed(&half, &p, &mut live, &base, &bytes, &frames, &points, rep);
        report_problems(&b, rep);
        let traced = Ctx {
            trace: true,
            ..half
        };
        let ph = timed(&traced, &p, &mut live, &base, &bytes, &frames, &points, rep);
        let r0 = b.batches.pairs as f64 / b.batches.cpu_s;
        let r1 = ph.batches.pairs as f64 / ph.batches.cpu_s;
        rep.set("trace.overhead_pct", (r0 - r1) / r0 * 100.0);
        let logs: Vec<&SpanLog> = ph.logs[1..].iter().collect();
        rep.set("trace.span_coverage", span_coverage(&logs, ph.from, ph.to));
        ph
    } else {
        timed(cx, &p, &mut live, &base, &bytes, &frames, &points, rep)
    };
    rep.set("peak_rss_mb", peak_rss_mb());
    let w = &mut ph.writer;
    rep.ops("repair_and_swap", w.repair_ms.len() as u64, w.failed);
    rep.ops("checkpoint", w.checkpoint_ms.len() as u64, 0);
    rep.ops("route", ph.routes.lat_us.len() as u64, ph.routes.failed);
    rep.ops(
        "estimate",
        ph.estimates.lat_us.len() as u64,
        ph.estimates.failed,
    );
    rep.ops(
        "batch_submit",
        ph.batches.lat_us.len() as u64,
        ph.batches.failed,
    );
    report_problems(&ph, rep);
    // The admission leader runs each frame on the submitting thread, so
    // the batch stream's own CPU time is the cost of its pairs.
    rep.set(
        "pairs_per_cpu_s",
        ph.batches.pairs as f64 / ph.batches.cpu_s,
    );
    let batch_p50 = median(&mut ph.batches.lat_us);
    rep.set("estimate_p99_us", quantile(&mut ph.estimates.lat_us, 0.99));
    rep.set("route_p99_us", quantile(&mut ph.routes.lat_us, 0.99));
    rep.note(format!(
        "p50 from due time (not a bounded metric): estimate {:.3} us, route {:.3} us",
        quantile(&mut ph.estimates.lat_us, 0.5),
        quantile(&mut ph.routes.lat_us, 0.5)
    ));
    let cold_p50 = median(&mut ph.cold_ms);
    rep.note(format!(
        "not bounded metrics: batch p50 {batch_p50:.3} us, cold start p50 {cold_p50:.4} ms"
    ));
    let w = &mut ph.writer;
    let repair_p50 = median(&mut w.repair_ms);
    let late = |st: &mut Stream| {
        format!(
            "p50={:.1} p99={:.1} max={:.1} us",
            quantile(&mut st.late_us, 0.5),
            quantile(&mut st.late_us, 0.99),
            quantile(&mut st.late_us, 1.0)
        )
    };
    rep.note(format!(
        "samples: repairs={} checkpoints={} routes={} estimates={} batches={} cold_starts={}; repair p50={repair_p50:.3} max={:.3} ms, checkpoint p50={:.3} max={:.3} ms",
        w.repair_ms.len(),
        w.checkpoint_ms.len(),
        ph.routes.lat_us.len(),
        ph.estimates.lat_us.len(),
        ph.batches.lat_us.len(),
        ph.cold_ms.len(),
        quantile(&mut w.repair_ms.clone(), 1.0),
        median(&mut w.checkpoint_ms.clone()),
        quantile(&mut w.checkpoint_ms.clone(), 1.0),
    ));
    rep.note(format!("reader lateness: {}", late(&mut ph.routes)));

    // Recovery: fold the WAL, log a fixed number of further repairs,
    // then recover into a fresh server and compare with the live one.
    let t = Instant::now();
    let folded = dynamic.checkpoint(&server);
    let last_checkpoint_ms = ms(t.elapsed());
    if let Err(e) = folded {
        return rep.fail(format!("final checkpoint: {e}"));
    }
    for _ in 0..p.recover_deltas {
        let d = seq[next_delta];
        next_delta += 1;
        if let Err(e) = dynamic.repair_and_swap(&server, &d) {
            return rep.fail(format!("repair before recovery: {e}"));
        }
        apply(&mut graph, &d);
    }
    let fresh = OracleServer::new();
    let builder = OracleBuilder::new(Backend::Flooding)
        .threads(1)
        .seed(cx.seed);
    let t = Instant::now();
    let recovered = DynamicOracle::recover(&fresh, NAME, builder, &dir);
    let recover_ms = ms(t.elapsed());
    rep.note(format!(
        "recover: {recover_ms:.3} ms for {} logged deltas",
        p.recover_deltas
    ));
    match &recovered {
        Ok((_, report)) if report.deltas_replayed == p.recover_deltas as u64 => {}
        Ok((_, report)) => rep.fail(format!(
            "recovery replayed {} deltas, want {}",
            report.deltas_replayed, p.recover_deltas
        )),
        Err(e) => return rep.fail(format!("recover: {e}")),
    }
    rep.ops("recover", 1, 0);
    let live_bytes = server
        .lease(NAME)
        .expect("served")
        .oracle()
        .artifact_bytes();
    let rec_bytes = fresh
        .lease(NAME)
        .expect("recovered")
        .oracle()
        .artifact_bytes();
    if live_bytes != rec_bytes {
        rep.fail("recovered artifact differs from the live one".into());
    }
    let mut check_rng = Rng::new(cx.seed, 4);
    let sources: Vec<u32> = (0..p.sample_sources)
        .map(|_| check_rng.below(p.n as u64) as u32)
        .collect();
    // The flooding oracle is exact: stretch 1 on every pair, checked.
    let lease = server.lease(NAME).expect("served");
    let mut stretch = Vec::new();
    for &s in &sources {
        let (dist, _) = graph.dijkstra(s);
        for v in (0..p.n as u32).filter(|&v| v != s) {
            let est = lease.oracle().estimate(NodeId(s), NodeId(v));
            if est != dist[v as usize] {
                rep.fail(format!(
                    "estimate({s},{v}) = {est}, distance {}",
                    dist[v as usize]
                ));
            }
            stretch.push(est as f64 / dist[v as usize] as f64);
        }
    }
    drop(lease);
    rep.set("stretch_p99", quantile(&mut stretch, 0.99));
    rep.check(exact_rows(&fresh, &graph, &sources[..2]));

    // Failover quality: mask seeded edges, route a fixed sample, and
    // compare with Dijkstra on the graph without them.
    let mut detours = failover_sample(&p, &server, &dynamic, &graph, &mut check_rng, rep);
    rep.note(format!(
        "failover sample: {} masked edges, route stretch p50={:.3} p99={:.3}",
        p.masked_edges,
        quantile(&mut detours, 0.5),
        quantile(&mut detours, 0.99)
    ));

    times.report(rep);
    if cx.trace {
        let r99 = "route_p99_us";
        layer_note(rep, "serve.repair_swap_ms", repair_p50, "ms", r99);
        let mut ckpts = ph.writer.checkpoint_ms.clone();
        ckpts.push(last_checkpoint_ms);
        layer_note(rep, "serve.checkpoint_ms", median(&mut ckpts), "ms", r99);
        layer_note(rep, "serve.recover_ms", recover_ms, "ms", "restart time");
        let replayed = p.recover_deltas as f64;
        layer_note(
            rep,
            "serve.deltas_replayed",
            replayed,
            "count",
            "serve.recover_ms",
        );
        let t = Instant::now();
        let ckpt = ::serve::persist::read_checkpoint(&dir.join(format!("{NAME}.ckpt")));
        layer_note(
            rep,
            "serve.read_checkpoint_ms",
            ms(t.elapsed()),
            "ms",
            "serve.recover_ms",
        );
        if ckpt.is_err() {
            rep.fail("checkpoint unreadable".into());
        }
        let lease = server.lease(NAME).expect("served");
        attribute_batches(lease.oracle(), &frames, rep);
        attribute_query(&server, NAME, &frames, rep);
        attribute_points(lease.oracle(), &points, &points, rep);
        attribute_load(&bytes, rep);
        attribute_admission(&server, NAME, &frames, rep);
        attribute_repairs(
            &g0,
            initial.oracle(),
            &seq[..ph.writer.repair_ms.len().min(12)],
            tmp,
            rep,
        );
        // Failover routing on a lease plus a copy of the live mask, on
        // the reader's pairs; the rest of a reader's route is lock wait.
        let mask = dynamic.mask();
        let mut tr = TracedRoute::default();
        let t = Instant::now();
        let route_pairs = &points[..ph.routes.lat_us.len().min(points.len())];
        for &(u, v) in route_pairs {
            std::hint::black_box(oracle::route_with_failover(
                lease.oracle(),
                &mask,
                u,
                v,
                &mut tr,
            ));
        }
        let failover_us = us(t.elapsed()) / route_pairs.len().max(1) as f64;
        rep.set("oracle.failover_route_us", failover_us);
        let spans = ph.logs[2].durations("serve.DynamicOracle::route");
        let mean_route_us = spans.iter().sum::<f64>() / spans.len().max(1) as f64 / 1e3;
        layer_note(
            rep,
            "serve.route_wait_us",
            mean_route_us - failover_us,
            "us",
            r99,
        );
        let mut cold = ph.logs[1].durations("serve.OracleServer::install_shared");
        rep.set("serve.install_shared_ms", median(&mut cold) / 1e6);
        let mut logs: Vec<&SpanLog> = ph.logs.iter().collect();
        logs.push(&log);
        let path = cx.scratch.join(format!("trace-churn-{}.tsv", cx.seed));
        if let Err(e) = crate::trace::write_spans(&path, &logs) {
            rep.fail(format!("writing spans: {e}"));
        }
    }
}

/// Turns every problem a phase's threads saw into a failed check.
fn report_problems(ph: &Phase, rep: &mut Report) {
    let streams = [&ph.routes, &ph.estimates, &ph.batches];
    let problems = ph.writer.problems.iter();
    for e in problems.chain(streams.iter().flat_map(|st| &st.problems)) {
        rep.fail(e.clone());
    }
}

/// `OracleBuilder::repair` over the run's first deltas from the initial
/// oracle, `OracleServer::install` of each result, and `DeltaWal::append` of each
/// delta on a scratch log.
fn attribute_repairs(
    g0: &graphs::WGraph,
    o0: &oracle::Oracle,
    seq: &[GraphDelta],
    tmp: &Path,
    rep: &mut Report,
) {
    let builder = OracleBuilder::new(Backend::Flooding).threads(1);
    let scratch = OracleServer::new();
    let wal_path: PathBuf = tmp.join("attribution.wal");
    let mut wal = match DeltaWal::create(&wal_path, 1) {
        Ok(w) => w,
        Err(e) => return rep.fail(format!("scratch WAL: {e}")),
    };
    let (mut repair, mut rows, mut appends) = (Vec::new(), Vec::new(), Vec::new());
    let mut installs = Vec::new();
    let mut g = g0.clone();
    let mut current: Option<::serve::Lease> = None;
    for d in seq {
        let t = Instant::now();
        let r = builder.repair(&g, current.as_ref().map_or(o0, |l| l.oracle()), d);
        repair.push(ms(t.elapsed()));
        let r = match r {
            Ok(r) => r,
            Err(e) => return rep.fail(format!("repair replay: {e}")),
        };
        if let RepairKind::Incremental {
            rows_recomputed, ..
        } = r.report.kind
        {
            rows.push(rows_recomputed as f64);
        }
        let t = Instant::now();
        if wal.append(d).is_err() {
            rep.fail("scratch WAL append failed".into());
        }
        appends.push(us(t.elapsed()));
        g = r.graph;
        let t = Instant::now();
        scratch.install("replay", r.oracle);
        installs.push(ms(t.elapsed()));
        current = scratch.lease("replay");
    }
    let moves = "route_p99_us";
    layer_note(rep, "oracle.repair_ms", median(&mut repair), "ms", moves);
    layer_note(rep, "oracle.repair_rows", median(&mut rows), "count", moves);
    layer_note(
        rep,
        "serve.wal_append_us",
        median(&mut appends),
        "us",
        moves,
    );
    layer_note(rep, "serve.install_ms", median(&mut installs), "ms", moves);
}

/// A figure of a layer call only `churn` makes. `BENCHMARK.json` does not
/// list `churn` (see the README), so these figures are note lines rather
/// than declared per-layer metrics.
fn layer_note(rep: &mut Report, name: &str, value: f64, unit: &str, moves: &str) {
    rep.note(format!("layer {name} = {value} {unit}  -> {moves}"));
}

/// Masks seeded edges (keeping the graph connected), routes a fixed
/// sample through `DynamicOracle::route`, checks every route, and
/// returns the stretch of each against Dijkstra without those edges.
fn failover_sample(
    p: &Params,
    server: &OracleServer,
    dynamic: &DynamicOracle,
    graph: &Adj,
    rng: &mut Rng,
    rep: &mut Report,
) -> Vec<f64> {
    let mut masked = graph.clone();
    let mut dead = Vec::new();
    // Bounded: a long run's edge failures can leave too few edges whose
    // loss keeps the graph connected.
    let mut tries = 0;
    while dead.len() < p.masked_edges && tries < 64 * p.masked_edges {
        tries += 1;
        let u = rng.below(p.n as u64) as u32;
        let nb = masked.neighbors(u);
        if nb.is_empty() {
            continue;
        }
        let v = nb[rng.below(nb.len() as u64) as usize].0;
        if masked.connected_without(u, v) {
            masked.remove(u, v);
            dynamic.fail_edge(NodeId(u), NodeId(v));
            dead.push((u.min(v), u.max(v)));
        }
    }
    if dead.len() < p.masked_edges {
        rep.note(format!(
            "failover sample: only {} edges could be masked",
            dead.len()
        ));
    }
    let mut stretch = Vec::new();
    let mut tr = TracedRoute::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..p.sample_sources {
        let s = rng.below(p.n as u64) as u32;
        let (dist, _) = masked.dijkstra(s);
        for _ in 0..p.sample_targets {
            let v = rng.below(p.n as u64) as u32;
            if v == s {
                continue;
            }
            attempted += 1;
            match dynamic.route(server, NodeId(s), NodeId(v), &mut tr) {
                Ok(o) if o.routed() => {
                    let nodes: Vec<u32> = tr.nodes.iter().map(|x| x.0).collect();
                    match masked.walk_weight(&nodes, s, v, &dead) {
                        Ok(w) => stretch.push(w as f64 / dist[v as usize] as f64),
                        Err(e) => {
                            failed += 1;
                            rep.fail(format!("failover route: {e}"));
                        }
                    }
                }
                _ => {
                    failed += 1;
                    rep.fail(format!("failover: no route {s}->{v} on a connected graph"));
                }
            }
        }
    }
    rep.ops("failover_route", attempted, failed);
    stretch
}
