//! E15 — serving over a socket: loopback latency and throughput of the
//! `net` front end next to the in-process paths it wraps.
//!
//! The `net` crate's contract is that a socket answer is byte-identical
//! to the in-process one, so the only honest question left is *what the
//! wire costs*. The protocol: build once on the E11 workload, serve it
//! over loopback, then measure (a) single-estimate round-trip p50/p99 —
//! individually timed request/response cycles on one reused connection,
//! every syscall included; (b) pipelined throughput — the E11 batch cut
//! into shards streamed with a bounded in-flight window, deep enough
//! that the server never idles, shallow enough that neither direction
//! overruns the socket buffers; (c) admission-batched throughput — concurrent
//! client threads submitting through the server's shared
//! [`serve::Batcher`]; and (d) the same workload through the in-process
//! batcher and a direct [`serve::OracleServer::query`], the two numbers
//! the socket paths are allowed to lose to. Digest equality between the
//! socket answers and the in-process answers is asserted on every run.
//! Reproduce with `cargo run --release -p bench --bin experiments -- net`
//! (`-- net headline` for the `BENCH_net.json` rows at n = 4096,
//! `-- net --smoke` for the CI variant, which additionally drives every
//! admin op — install-from-file, inline swap, fail/repair — over the
//! wire).

use crate::table::{f, fnv1a, median, Table};
use crate::{e11_build, e11_graph, e11_pairs, E11_BATCH};
use congest::NodeId;
use graphs::GraphDelta;
use net::{Client, NetServer, RouteOutcome, ServerConfig};
use oracle::{Backend, DistanceOracle, OracleBuilder};
use serve::{Batcher, DynamicOracle, OracleServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs per pipelined `EstimateMany` frame.
pub const E15_SHARD: usize = 32768;

/// Shards kept in flight on the pipelined connection.
const E15_WINDOW: usize = 4;

/// Individually timed single-estimate round trips behind p50/p99.
const E15_SINGLES: usize = 1000;

/// Timed sweeps per throughput number; the median is recorded.
const E15_SWEEPS: usize = 3;

/// Concurrent client threads for the admission-batched measurement.
const E15_CLIENTS: usize = 4;

/// One measured socket-serving workload on one backend.
#[derive(Clone, Debug)]
pub struct NetRun {
    /// The backend measured.
    pub backend: Backend,
    /// Number of nodes.
    pub n: usize,
    /// Median single-estimate round trip over loopback, µs.
    pub p50_us: f64,
    /// 99th-percentile single-estimate round trip, µs.
    pub p99_us: f64,
    /// Pipelined socket throughput (one connection, sharded batch), q/s.
    pub qps_pipelined: f64,
    /// Admission-batched socket throughput ([`E15_CLIENTS`] concurrent
    /// connections through the shared batcher), q/s.
    pub qps_batched: f64,
    /// The same batch through an in-process [`Batcher`], q/s — the
    /// acceptance bar (pipelined must stay within 2× of it).
    pub qps_inproc_batcher: f64,
    /// The same batch through a direct in-process
    /// [`OracleServer::query`], q/s.
    pub qps_inproc: f64,
    /// FNV-1a digest over the socket-served batch answers — asserted
    /// equal to the in-process digest (the E11 digest at the same
    /// workload).
    pub digest: u64,
}

fn serve_one(backend: Backend, n: usize, seed: u64) -> (NetServer, Arc<OracleServer>, String) {
    let (oracle, _) = e11_build(backend, n, seed);
    let registry = Arc::new(OracleServer::new());
    let name = backend.name().to_string();
    registry.install(&name, oracle);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    (server, registry, name)
}

/// Runs the canonical E15 measurement for one backend at size `n`.
///
/// # Panics
///
/// Panics if any socket-served answer diverges from the in-process
/// answer (the determinism contract), or on connection failure.
pub fn e15_run(backend: Backend, n: usize, seed: u64) -> NetRun {
    let (server, registry, name) = serve_one(backend, n, seed);
    let addr = server.local_addr();
    let pairs = e11_pairs(n, E11_BATCH, seed);

    // In-process references: direct serve and admission batcher.
    let mut expected = Vec::new();
    registry
        .query(&name, &pairs, &mut expected, 1)
        .expect("in-process serve");
    let digest = fnv1a(&expected);
    let mut qps = Vec::with_capacity(E15_SWEEPS);
    for _ in 0..E15_SWEEPS {
        let t = Instant::now();
        registry
            .query(&name, &pairs, &mut Vec::new(), 1)
            .expect("in-process serve");
        qps.push(pairs.len() as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    let qps_inproc = median(&mut qps);
    let batcher = Batcher::new(&name, Duration::from_micros(250), 1);
    let mut qps = Vec::with_capacity(E15_SWEEPS);
    for _ in 0..E15_SWEEPS {
        let t = Instant::now();
        let (answers, _) = batcher
            .submit(&registry, pairs.clone())
            .expect("in-process batcher");
        qps.push(answers.len() as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    let qps_inproc_batcher = median(&mut qps);

    // (a) Individually timed single-estimate round trips.
    let mut client = Client::connect(addr).expect("connect");
    let mut lat_us: Vec<f64> = Vec::with_capacity(E15_SINGLES);
    for &(u, v) in pairs.iter().cycle().take(E15_SINGLES) {
        let t = Instant::now();
        let est = client.estimate(&name, u, v).expect("single estimate");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        let expected_idx = lat_us.len() - 1;
        assert_eq!(
            est,
            expected[expected_idx % pairs.len()],
            "{backend}: socket single estimate diverged"
        );
    }
    lat_us.sort_unstable_by(f64::total_cmp);
    let p50_us = lat_us[lat_us.len() / 2];
    let p99_us = lat_us[(lat_us.len() * 99) / 100 - 1];

    // (b) Pipelined: a bounded window of shards in flight. Queuing the
    // whole batch before reading anything parks megabytes unread in the
    // kernel and stalls both directions on TCP flow control; the window
    // keeps the server saturated without ever overrunning the buffers.
    let shards: Vec<&[(NodeId, NodeId)]> = pairs.chunks(E15_SHARD).collect();
    let mut qps = Vec::with_capacity(E15_SWEEPS);
    let mut socket_answers = Vec::with_capacity(pairs.len());
    for sweep in 0..E15_SWEEPS {
        let keep = sweep == 0;
        let t = Instant::now();
        for shard in &shards {
            client
                .queue_estimate_many(&name, shard, false)
                .expect("queue shard");
            if client.pending() > E15_WINDOW {
                let (ests, _) = client.recv_estimate_many().expect("recv shard");
                if keep {
                    socket_answers.extend_from_slice(&ests);
                }
            }
        }
        while client.pending() > 0 {
            let (ests, _) = client.recv_estimate_many().expect("recv shard");
            if keep {
                socket_answers.extend_from_slice(&ests);
            }
        }
        qps.push(pairs.len() as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    let qps_pipelined = median(&mut qps);
    assert_eq!(
        fnv1a(&socket_answers),
        digest,
        "{backend}: pipelined socket answers diverged from in-process"
    );

    // (c) Concurrent connections through the shared admission batcher.
    let chunk = pairs.len().div_ceil(E15_CLIENTS);
    let mut qps = Vec::with_capacity(E15_SWEEPS);
    for _ in 0..E15_SWEEPS {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for piece in pairs.chunks(chunk) {
                let name = &name;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect worker");
                    for shard in piece.chunks(E15_SHARD) {
                        c.estimate_many(name, shard, true).expect("batched shard");
                    }
                });
            }
        });
        qps.push(pairs.len() as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    let qps_batched = median(&mut qps);

    server.shutdown();
    NetRun {
        backend,
        n,
        p50_us,
        p99_us,
        qps_pipelined,
        qps_batched,
        qps_inproc_batcher,
        qps_inproc,
        digest,
    }
}

fn push_row(t: &mut Table, r: &NetRun) {
    t.row(vec![
        r.backend.name().to_string(),
        r.n.to_string(),
        f(r.p50_us),
        f(r.p99_us),
        f(r.qps_pipelined),
        f(r.qps_batched),
        f(r.qps_inproc_batcher),
        f(r.qps_inproc),
        f(r.qps_pipelined / r.qps_inproc_batcher.max(1e-9)),
        format!("{:016x}", r.digest),
    ]);
}

/// The E15 table: every backend at the given sizes, plus — when
/// `headline` is set — the `BENCH_net.json` rows: all eight backends at
/// `n = 4096` (compact at 1024, its tractable size), the wire cost next
/// to `BENCH_oracle.json`'s in-process numbers.
pub fn e15_net(sizes: &[usize], headline: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "E15 (net): loopback socket serving vs in-process on unit-weight G(n, ~6/n), k=2",
        &[
            "backend",
            "n",
            "p50_us",
            "p99_us",
            "pipe_q/s",
            "batched_q/s",
            "inproc_batch_q/s",
            "inproc_q/s",
            "pipe/inproc",
            "digest",
        ],
    );
    for &n in sizes {
        for backend in Backend::ALL {
            push_row(&mut t, &e15_run(backend, n, seed));
        }
    }
    if headline {
        for backend in Backend::ALL {
            let n = if backend == Backend::Compact {
                1024
            } else {
                4096
            };
            push_row(&mut t, &e15_run(backend, n, seed));
        }
    }
    t
}

/// CI smoke: every backend served over a real loopback socket through
/// the full lifecycle — inline `Swap` of snapshot bytes, query, `Install`
/// of a snapshot file from the server's disk (hot swap), query again, an admission-
/// batched query, a shuffled-vs-sorted `EstimateMany` pair (same batch,
/// both orders, answers pinned pair-for-pair through the permutation and
/// the repeated frame byte-identical — the grouped server path),
/// `NextHop`/`Route`, and `Stats` — with every socket answer asserted
/// byte-identical to the in-process answer. One dynamic scenario then
/// drives `FailEdge` → detoured `Route` → `RepairAndSwap` over the wire
/// and pins the repaired answers against a fresh build.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn e15_smoke(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E15 smoke: socket answers byte-identical to in-process through swap/install/batch",
        &["backend", "n", "gen", "digest", "checks"],
    );
    let registry = Arc::new(OracleServer::new());
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pairs = e11_pairs(n, 512, seed);
    // A batch big enough to cross the grouped-kernel gate server-side,
    // plus its (u, v)-sorted permutation — the shuffled-vs-sorted wire
    // case below pins the grouped server path.
    let big = e11_pairs(n, 6_000, seed ^ 1);
    let mut big_perm: Vec<u32> = (0..big.len() as u32).collect();
    big_perm.sort_by_key(|&i| {
        let (u, v) = big[i as usize];
        (u.0, v.0)
    });
    let big_sorted: Vec<(NodeId, NodeId)> = big_perm.iter().map(|&i| big[i as usize]).collect();
    for backend in Backend::ALL {
        let (oracle, _) = e11_build(backend, n, seed);
        let mut expected = Vec::new();
        oracle.estimate_many(&pairs, &mut expected);
        let digest = fnv1a(&expected);
        let name = backend.name();

        // Inline swap of the snapshot bytes, then query over the socket.
        let mut snapshot = Vec::new();
        oracle.save_v3(&mut snapshot).expect("serialize");
        let installed = client.swap(name, &snapshot).expect("wire swap");
        assert_eq!(
            (installed.backend, installed.n as usize),
            (backend, n),
            "{backend}: wire swap identity"
        );
        let (ests, g2) = client
            .estimate_many(name, &pairs, false)
            .expect("wire query");
        assert_eq!(fnv1a(&ests), digest, "{backend}: swap-over-wire diverged");
        assert_eq!(g2, installed.generation, "{backend}: stale generation");

        // Install a snapshot file from the server's disk: the load_path cold
        // start, arriving as a hot swap. Written atomically — the
        // server must never observe a half-written snapshot.
        let path =
            std::env::temp_dir().join(format!("e15-smoke-{}-{}.snap", std::process::id(), name));
        oracle
            .save_path_v3(&path)
            .expect("write snapshot temp file");
        let swapped = client
            .install(name, path.to_str().expect("utf-8 temp path"))
            .expect("wire install");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            swapped.replaced.map(|(generation, _)| generation),
            Some(installed.generation),
            "{backend}: install must retire the swapped snapshot"
        );
        let (ests, g3) = client
            .estimate_many(name, &pairs, false)
            .expect("wire query");
        assert_eq!(
            fnv1a(&ests),
            digest,
            "{backend}: install-over-wire diverged"
        );
        assert_eq!(g3, swapped.generation, "{backend}: stale generation");

        // The admission-batched path answers identically.
        let (batched, _) = client.estimate_many(name, &pairs, true).expect("batched");
        assert_eq!(batched, ests, "{backend}: batched-over-wire diverged");

        // Grouped server path: the same EstimateMany batch sent shuffled
        // and (u, v)-sorted. Positional pipelining means each response
        // lists answers in its request's order, so the sorted response is
        // compared pair-for-pair through the permutation; re-sending the
        // identical shuffled frame must produce a byte-identical response.
        let (shuffled_ans, _) = client
            .estimate_many(name, &big, false)
            .expect("shuffled big batch");
        let (again, _) = client
            .estimate_many(name, &big, false)
            .expect("repeat big batch");
        assert_eq!(
            shuffled_ans, again,
            "{backend}: identical EstimateMany frames answered differently"
        );
        let (sorted_ans, _) = client
            .estimate_many(name, &big_sorted, false)
            .expect("sorted big batch");
        for (&i, &ans) in big_perm.iter().zip(&sorted_ans) {
            assert_eq!(
                ans, shuffled_ans[i as usize],
                "{backend}: sorted batch order changed an answer over the wire"
            );
        }

        // Topology ops match the in-process oracle.
        let (u, v) = pairs[0];
        assert_eq!(
            client.next_hop(name, u, v).expect("wire next_hop"),
            oracle.next_hop(u, v),
            "{backend}: next_hop diverged"
        );
        let (outcome, route) = client.route(name, u, v).expect("wire route");
        match oracle.route(u, v) {
            Some(expected_route) => {
                assert_eq!(outcome, RouteOutcome::Primary, "{backend}: route outcome");
                assert_eq!(route, Some(expected_route), "{backend}: route diverged");
            }
            None => {
                assert_eq!(
                    outcome,
                    RouteOutcome::Unroutable,
                    "{backend}: route outcome"
                );
                assert_eq!(route, None, "{backend}: phantom route");
            }
        }

        t.row(vec![
            name.to_string(),
            n.to_string(),
            g3.to_string(),
            format!("{:016x}", digest),
            "swap=install=batch, shuffled=sorted over wire".into(),
        ]);
    }

    // Stats reflect the serving that just happened.
    let stats = client.stats().expect("wire stats");
    assert_eq!(stats.oracles.len(), Backend::ALL.len(), "every name served");
    assert!(stats.requests > 0 && stats.bytes_in > 0 && stats.bytes_out > 0);

    // The dynamic lifecycle over the wire: mask, detour, repair, verify.
    let g = e11_graph(n, seed);
    let dynamic = DynamicOracle::install(
        &registry,
        "dyn",
        OracleBuilder::new(Backend::Flooding).seed(seed).k(2),
        &g,
    )
    .expect("dynamic install");
    server.register_dynamic(dynamic);
    let (u, v) = pairs
        .iter()
        .copied()
        .find(|&(u, v)| g.neighbors(u).any(|(x, _)| x == v))
        .expect("an adjacent pair in the workload");
    client.fail_edge("dyn", u, v).expect("wire fail_edge");
    let (outcome, route) = client.route("dyn", u, v).expect("wire route");
    if let Some(route) = &route {
        for hop in route.nodes.windows(2) {
            let crosses = (hop[0], hop[1]) == (u, v) || (hop[0], hop[1]) == (v, u);
            assert!(!crosses, "route crossed the masked edge");
        }
    }
    assert_ne!(outcome, RouteOutcome::Primary, "mask must divert the route");
    let summary = client
        .repair_and_swap("dyn", &GraphDelta::FailEdge { u, v })
        .expect("wire repair");
    let (repaired, generation) = client
        .estimate_many("dyn", &pairs, false)
        .expect("post-repair query");
    assert_eq!(generation, summary.generation, "repair generation served");
    let g2 = g
        .apply_delta(&GraphDelta::FailEdge { u, v })
        .expect("apply delta");
    let fresh = OracleBuilder::new(Backend::Flooding)
        .seed(seed)
        .k(2)
        .build(&g2);
    let mut expected = Vec::new();
    fresh.estimate_many(&pairs, &mut expected);
    assert_eq!(
        repaired, expected,
        "repaired-over-wire diverged from a fresh build"
    );
    t.row(vec![
        "dyn(flooding)".into(),
        n.to_string(),
        summary.generation.to_string(),
        format!("{:016x}", fnv1a(&repaired)),
        "fail→detour→repair over wire".into(),
    ]);
    server.shutdown();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::E11_SEED;

    #[test]
    fn e15_measures_socket_serving() {
        let r = e15_run(Backend::Flooding, 48, E11_SEED);
        assert!(r.p50_us > 0.0 && r.p99_us >= r.p50_us);
        assert!(r.qps_pipelined > 0.0 && r.qps_batched > 0.0);
        assert!(r.qps_inproc >= r.qps_pipelined / 1e3, "sanity");
    }

    #[test]
    fn e15_smoke_passes_at_tiny_size() {
        let t = e15_smoke(20, E11_SEED);
        assert_eq!(t.rows.len(), Backend::ALL.len() + 1);
    }
}
