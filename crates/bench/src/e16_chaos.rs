//! E16 — chaos-hardened serving: answer identity and recovery cost
//! under injected transport faults, overload, and crash/restart.
//!
//! The serving stack's robustness claims are behavioral, so this
//! experiment *injects the failures* and measures what they cost:
//!
//! * **Fault recovery** — a [`net::ChaosProxy`] between client and
//!   server tears reply frames, cuts connections mid-stream, and stalls
//!   reads on a deterministic schedule; a [`net::RetryClient`]
//!   reconnects and replays. Every answer that survives is asserted
//!   byte-identical to the in-process one, and the latency of the
//!   operations that *needed* recovery is reported as p50/p99.
//! * **Overload shedding** — a server capped at a handful of
//!   connections and a small batch budget is flooded; the shed rate and
//!   the typed [`net::WireError::Overloaded`] refusals are counted
//!   (healthy work keeps completing).
//! * **Crash-safe persistence** — a [`serve::DynamicOracle`] installed
//!   with a checkpoint + delta WAL takes live repairs, "crashes", and
//!   [`serve::DynamicOracle::recover`]s; the recovered artifact must be
//!   byte-identical to the live one, and the WAL replay time is the
//!   recovery-cost headline.
//!
//! Reproduce with `cargo run --release -p bench --bin experiments --
//! chaos` (`-- chaos headline` for the `BENCH_chaos.json` rows,
//! `-- chaos --smoke` for the CI variant: every backend through the
//! proxy with digest-pinned answers, an overload matrix check, a
//! kill-mid-traffic replica failover, and WAL recovery identity for
//! every backend).

use crate::table::{f, fnv1a, Table};
use crate::{e11_build, e11_graph, e11_pairs, e14_delta};
use net::{
    ChaosPlan, ChaosProxy, Client, NetServer, ReplicaSet, RetryClient, RetryPolicy, ServerConfig,
    WireError,
};
use oracle::{Backend, DistanceOracle, OracleBuilder};
use serve::{DynamicOracle, OracleServer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for the E16 workload (graph, pairs, fault schedule).
pub const E16_SEED: u64 = 0xC4A0_5EED;

/// Single estimates driven through the chaos proxy per run.
const E16_SINGLES: usize = 600;

/// Connection attempts thrown at the capped server.
const E16_FLOOD: usize = 16;

/// Repairs logged to the WAL before the simulated crash.
const E16_REPAIRS: usize = 3;

/// One measured chaos workload on one backend.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// The backend measured.
    pub backend: Backend,
    /// Number of nodes.
    pub n: usize,
    /// Transport faults the proxy injected during the run.
    pub faults: u64,
    /// Operations that needed at least one retry.
    pub retried_ops: u64,
    /// Reconnects (incl. failovers) the retry client performed.
    pub reconnects: u64,
    /// Median latency of operations that needed recovery, µs.
    pub recovery_p50_us: f64,
    /// 99th-percentile latency of operations that needed recovery, µs.
    pub recovery_p99_us: f64,
    /// Fraction of flood connections shed with a typed `Overloaded`
    /// refusal at the door of the capped server.
    pub shed_rate: f64,
    /// WAL replay time during recovery, µs ([`E16_REPAIRS`] deltas).
    pub wal_replay_us: f64,
    /// FNV-1a digest over the through-proxy batch answers — asserted
    /// equal to the in-process digest.
    pub digest: u64,
}

fn quantile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 * q).ceil() as usize).max(1) - 1;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn retry_client(addrs: &[SocketAddr], seed: u64) -> RetryClient {
    let replicas = ReplicaSet::new(addrs)
        .expect("replica set")
        .with_reprobe(Duration::from_millis(20));
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        jitter_seed: seed,
    };
    let mut client = RetryClient::connect(replicas, policy).expect("connect through proxy");
    client
        .set_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    client
}

/// Runs the canonical E16 measurement for one backend at size `n`.
///
/// # Panics
///
/// Panics if any answer that survives the chaos diverges from the
/// fault-free one, if recovery is not byte-identical, or on setup
/// failure — divergence under faults is exactly the bug this
/// experiment exists to catch.
pub fn e16_run(backend: Backend, n: usize, seed: u64) -> ChaosRun {
    let (oracle, _) = e11_build(backend, n, seed);
    let pairs = e11_pairs(n, 512, seed);
    let mut expected = Vec::new();
    oracle.estimate_many(&pairs, &mut expected);
    let digest = fnv1a(&expected);

    let registry = Arc::new(OracleServer::new());
    let name = backend.name().to_string();
    registry.install(&name, oracle);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let proxy = ChaosProxy::spawn(
        server.local_addr(),
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        },
    )
    .expect("spawn chaos proxy");

    // (a) Single estimates through the proxy: every answer identical to
    // the fault-free one; ops that needed recovery are timed.
    let mut client = retry_client(&[proxy.local_addr()], seed);
    let mut recovery_us: Vec<f64> = Vec::new();
    for (i, &(u, v)) in pairs.iter().cycle().take(E16_SINGLES).enumerate() {
        let retries_before = client.retries();
        let t = Instant::now();
        let est = client.estimate(&name, u, v).expect("estimate under chaos");
        let elapsed_us = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(
            est,
            expected[i % pairs.len()],
            "{backend}: answer diverged under chaos"
        );
        if client.retries() > retries_before {
            recovery_us.push(elapsed_us);
        }
    }
    // (b) The whole batch through the proxy (replayed whole on a torn
    // reply): digest-identical to in-process.
    let (ests, _) = client
        .estimate_many(&name, &pairs, false)
        .expect("batch under chaos");
    assert_eq!(
        fnv1a(&ests),
        digest,
        "{backend}: batch diverged under chaos"
    );
    let retried_ops = client.retries();
    let reconnects = client.reconnects();
    recovery_us.sort_unstable_by(f64::total_cmp);
    let recovery_p50_us = quantile(&recovery_us, 0.50);
    let recovery_p99_us = quantile(&recovery_us, 0.99);
    let faults = proxy.faults_injected();
    proxy.shutdown();
    server.shutdown();

    // (c) Overload: a server capped at 2 connections, flooded. Held
    // connections stay healthy; the rest are refused with a typed
    // error frame at the door.
    let registry2 = Arc::new(OracleServer::new());
    let (oracle2, _) = e11_build(backend, n, seed);
    registry2.install(&name, oracle2);
    let capped = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry2),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind capped server");
    let mut held: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(capped.local_addr()).expect("held connect");
            c.estimate(&name, pairs[0].0, pairs[0].1).expect("held op");
            c
        })
        .collect();
    let mut refused = 0usize;
    for _ in 0..E16_FLOOD {
        let mut c = Client::connect(capped.local_addr()).expect("flood connect");
        match c.estimate(&name, pairs[0].0, pairs[0].1) {
            Err(WireError::Overloaded { .. }) => refused += 1,
            Err(e) => panic!("{backend}: flood got {e:?}, wanted Overloaded"),
            Ok(_) => panic!("{backend}: flood admitted past the cap"),
        }
    }
    let shed_rate = refused as f64 / E16_FLOOD as f64;
    // The held connections survived the flood.
    for c in &mut held {
        c.estimate(&name, pairs[1].0, pairs[1].1)
            .expect("held connection survived the flood");
    }
    drop(held);
    capped.shutdown();

    // (d) Crash-safe persistence: install with WAL, repair live, crash,
    // recover — byte-identical artifact, replay time measured.
    let g = e11_graph(n, seed);
    let dir = std::env::temp_dir().join(format!(
        "e16-wal-{}-{}-{n}",
        std::process::id(),
        backend.name()
    ));
    std::fs::create_dir_all(&dir).expect("wal dir");
    let live_registry = OracleServer::new();
    let dynamic = DynamicOracle::install_persistent(
        &live_registry,
        &name,
        OracleBuilder::new(backend),
        &g,
        &dir,
    )
    .expect("install persistent");
    let mut graph = g.clone();
    for i in 0..E16_REPAIRS {
        let delta = e14_delta(&graph, "fail_edge", seed.wrapping_add(i as u64));
        dynamic
            .repair_and_swap(&live_registry, &delta)
            .expect("live repair");
        graph = graph.apply_delta(&delta).expect("mirror delta");
    }
    assert_eq!(dynamic.wal_records(), E16_REPAIRS as u64);
    let live_bytes = live_registry
        .lease(&name)
        .expect("live lease")
        .oracle()
        .artifact_bytes();
    drop(dynamic); // the "crash": only the files survive
    let cold_registry = OracleServer::new();
    let (_, report) =
        DynamicOracle::recover(&cold_registry, &name, OracleBuilder::new(backend), &dir)
            .expect("recover");
    assert_eq!(report.deltas_replayed, E16_REPAIRS as u64);
    let recovered_bytes = cold_registry
        .lease(&name)
        .expect("recovered lease")
        .oracle()
        .artifact_bytes();
    assert_eq!(
        live_bytes, recovered_bytes,
        "{backend}: recovery is not byte-identical to the live artifact"
    );
    let wal_replay_us = report.replay_nanos as f64 / 1e3;
    std::fs::remove_dir_all(&dir).ok();

    ChaosRun {
        backend,
        n,
        faults,
        retried_ops,
        reconnects,
        recovery_p50_us,
        recovery_p99_us,
        shed_rate,
        wal_replay_us,
        digest,
    }
}

fn push_row(t: &mut Table, r: &ChaosRun) {
    t.row(vec![
        r.backend.name().to_string(),
        r.n.to_string(),
        r.faults.to_string(),
        r.retried_ops.to_string(),
        r.reconnects.to_string(),
        f(r.recovery_p50_us),
        f(r.recovery_p99_us),
        f(r.shed_rate),
        f(r.wal_replay_us),
        format!("{:016x}", r.digest),
    ]);
}

/// The E16 table: every backend at the given sizes, plus — when
/// `headline` is set — the `BENCH_chaos.json` rows at `n = 1024`
/// (compact at its tractable 1024 too): recovery latency, shed rate,
/// and WAL replay time under one deterministic fault schedule.
pub fn e16_chaos(sizes: &[usize], headline: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "E16 (chaos): identity and recovery cost under faults, overload, and crash/restart",
        &[
            "backend",
            "n",
            "faults",
            "retried",
            "reconn",
            "rec_p50_us",
            "rec_p99_us",
            "shed",
            "wal_replay_us",
            "digest",
        ],
    );
    for &n in sizes {
        for backend in Backend::ALL {
            push_row(&mut t, &e16_run(backend, n, seed));
        }
    }
    if headline {
        for backend in Backend::ALL {
            push_row(&mut t, &e16_run(backend, 1024, seed));
        }
    }
    t
}

/// CI smoke: the full chaos matrix at a tiny size.
///
/// 1. Every backend served through a fault-injecting proxy: the retry
///    client's answers are digest-identical to in-process, with faults
///    actually injected and zero panics on either side.
/// 2. Overload: door refusals are typed `Overloaded` and a two-replica
///    retry client fails over from the saturated server to a healthy
///    one with identical answers; an oversized batch is shed while its
///    connection survives.
/// 3. Kill mid-traffic: live connections through the proxy are cut,
///    and the retry client fails over to a second server, digests
///    pinned.
/// 4. Crash-safe persistence for every backend: checkpoint + WAL
///    replay reproduces the live artifact byte-identically, including
///    through a torn WAL tail.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn e16_smoke(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E16 smoke: digest-pinned answers under chaos, typed shedding, WAL recovery identity",
        &["scenario", "backend", "detail", "digest", "ok"],
    );
    let pairs = e11_pairs(n, 256, seed);

    // --- 1. every backend through the chaos proxy -------------------
    for backend in Backend::ALL {
        let (oracle, _) = e11_build(backend, n, seed);
        let mut expected = Vec::new();
        oracle.estimate_many(&pairs, &mut expected);
        let digest = fnv1a(&expected);
        let registry = Arc::new(OracleServer::new());
        let name = backend.name().to_string();
        registry.install(&name, oracle);
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .expect("bind");
        let proxy = ChaosProxy::spawn(
            server.local_addr(),
            ChaosPlan {
                seed: seed ^ backend as u64,
                min_prefix: 32,
                max_prefix: 512,
                ..ChaosPlan::default()
            },
        )
        .expect("proxy");
        let mut client = retry_client(&[proxy.local_addr()], seed);
        for (i, &(u, v)) in pairs.iter().take(64).enumerate() {
            let est = client.estimate(&name, u, v).expect("estimate under chaos");
            assert_eq!(est, expected[i], "{backend}: single diverged under chaos");
        }
        let (ests, _) = client
            .estimate_many(&name, &pairs, false)
            .expect("batch under chaos");
        assert_eq!(
            fnv1a(&ests),
            digest,
            "{backend}: batch diverged under chaos"
        );
        let faults = proxy.faults_injected();
        assert!(faults > 0, "{backend}: the chaos proxy injected nothing");
        proxy.shutdown();
        server.shutdown();
        t.row(vec![
            "proxy-faults".into(),
            backend.name().into(),
            format!("{faults} faults, {} retries", client.retries()),
            format!("{:016x}", digest),
            "yes".into(),
        ]);
    }

    // Shared fixture for the remaining scenarios.
    let backend = Backend::Flooding;
    let name = backend.name().to_string();
    let (oracle, _) = e11_build(backend, n, seed);
    let mut expected = Vec::new();
    oracle.estimate_many(&pairs, &mut expected);
    let digest = fnv1a(&expected);

    // --- 2. overload: typed refusal, replica failover, batch shed ---
    let capped_registry = Arc::new(OracleServer::new());
    let (o1, _) = e11_build(backend, n, seed);
    capped_registry.install(&name, o1);
    let capped = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&capped_registry),
        ServerConfig {
            max_connections: 1,
            max_batch_pairs: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind capped");
    let healthy_registry = Arc::new(OracleServer::new());
    let (o2, _) = e11_build(backend, n, seed);
    healthy_registry.install(&name, o2);
    let healthy = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&healthy_registry),
        ServerConfig::default(),
    )
    .expect("bind healthy");
    // Saturate the capped server with its one allowed connection.
    let mut holder = Client::connect(capped.local_addr()).expect("holder");
    holder
        .estimate(&name, pairs[0].0, pairs[0].1)
        .expect("holder op");
    // A direct client is refused with the typed error...
    let mut direct = Client::connect(capped.local_addr()).expect("direct");
    let err = direct
        .estimate(&name, pairs[0].0, pairs[0].1)
        .expect_err("past the cap");
    assert!(
        matches!(err, WireError::Overloaded { .. }),
        "wanted Overloaded at the door, got {err:?}"
    );
    // ...while a retry client with a second replica fails over and
    // answers identically.
    let mut failover = retry_client(&[capped.local_addr(), healthy.local_addr()], seed);
    let (ests, _) = failover
        .estimate_many(&name, &pairs, false)
        .expect("failover batch");
    assert_eq!(fnv1a(&ests), digest, "failover answers diverged");
    // The oversized-batch budget sheds without killing the connection.
    let healthy_capped = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&healthy_registry),
        ServerConfig {
            max_batch_pairs: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind batch-capped");
    let mut batcher_client = Client::connect(healthy_capped.local_addr()).expect("connect");
    let err = batcher_client
        .estimate_many(&name, &pairs, false)
        .expect_err("oversized batch");
    assert!(
        matches!(err, WireError::Overloaded { .. }),
        "wanted Overloaded for the oversized batch, got {err:?}"
    );
    let (small, _) = batcher_client
        .estimate_many(&name, &pairs[..4], false)
        .expect("small batch after shed");
    assert_eq!(small, expected[..4], "post-shed answers diverged");
    let refused = capped.metrics().connections_refused;
    assert!(refused >= 1, "refusals not counted");
    assert_eq!(
        healthy_capped.metrics().requests_shed,
        1,
        "shed not counted"
    );
    drop(holder);
    healthy_capped.shutdown();
    t.row(vec![
        "overload".into(),
        backend.name().into(),
        format!("{refused} refused at door, 1 batch shed, failover ok"),
        format!("{:016x}", digest),
        "yes".into(),
    ]);

    // --- 3. kill mid-traffic, fail over to the second replica -------
    let proxy = ChaosProxy::spawn(
        capped.local_addr(),
        ChaosPlan {
            clean_every: 1, // the proxy itself stays clean; the kill is the fault
            ..ChaosPlan::default()
        },
    )
    .expect("proxy");
    let mut client = retry_client(&[proxy.local_addr(), healthy.local_addr()], seed);
    for &(u, v) in pairs.iter().take(8) {
        client.estimate(&name, u, v).expect("pre-kill estimate");
    }
    proxy.kill_live_connections();
    proxy.shutdown(); // the first replica is gone for good
    let (ests, _) = client
        .estimate_many(&name, &pairs, false)
        .expect("post-kill batch");
    assert_eq!(fnv1a(&ests), digest, "post-kill answers diverged");
    assert!(
        client.reconnects() >= 1,
        "the kill must have forced a reconnect"
    );
    capped.shutdown();
    healthy.shutdown();
    t.row(vec![
        "kill-failover".into(),
        backend.name().into(),
        format!("{} reconnects after kill", client.reconnects()),
        format!("{:016x}", digest),
        "yes".into(),
    ]);

    // --- 4. WAL recovery identity for every backend -----------------
    for backend in Backend::ALL {
        let g = e11_graph(n, seed);
        let name = backend.name().to_string();
        let dir = std::env::temp_dir().join(format!(
            "e16-smoke-wal-{}-{}",
            std::process::id(),
            backend.name()
        ));
        std::fs::create_dir_all(&dir).expect("wal dir");
        let live = OracleServer::new();
        let dynamic =
            DynamicOracle::install_persistent(&live, &name, OracleBuilder::new(backend), &g, &dir)
                .expect("install persistent");
        let mut graph = g.clone();
        for i in 0..2u64 {
            let delta = e14_delta(&graph, "fail_edge", seed.wrapping_add(i));
            dynamic.repair_and_swap(&live, &delta).expect("live repair");
            graph = graph.apply_delta(&delta).expect("mirror delta");
        }
        let live_bytes = live
            .lease(&name)
            .expect("live lease")
            .oracle()
            .artifact_bytes();
        drop(dynamic);
        // Tear the WAL tail the way a crash mid-append would.
        let wal_path = dir.join(format!("{name}.wal"));
        let mut wal_bytes = std::fs::read(&wal_path).expect("read wal");
        wal_bytes.extend_from_slice(&[0x17, 0x00, 0x00]); // half a length prefix
        std::fs::write(&wal_path, &wal_bytes).expect("tear wal");
        let cold = OracleServer::new();
        let (_, report) = DynamicOracle::recover(&cold, &name, OracleBuilder::new(backend), &dir)
            .expect("recover");
        assert!(report.torn_tail, "{backend}: the torn tail went unnoticed");
        assert_eq!(report.deltas_replayed, 2, "{backend}: wrong replay count");
        let recovered = cold
            .lease(&name)
            .expect("recovered lease")
            .oracle()
            .artifact_bytes();
        assert_eq!(
            live_bytes, recovered,
            "{backend}: recovery not byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
        let mut d = crate::table::Fnv1a::new();
        for &b in recovered.iter().take(1 << 16) {
            d.mix(u64::from(b));
        }
        t.row(vec![
            "wal-recovery".into(),
            backend.name().into(),
            format!("{} deltas replayed, torn tail cut", report.deltas_replayed),
            format!("{:016x}", d.finish()),
            "yes".into(),
        ]);
    }
    t
}
