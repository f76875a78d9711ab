//! E13 — the serving front end: cold-start-to-first-answer for
//! snapshots, and sustained query throughput through
//! [`serve::OracleServer`].
//!
//! Cold start is the number the arena snapshot layout exists to shrink: a
//! load validates one checksum and serves zero-copy views into stored
//! sections, re-deriving nothing. The protocol: build once on the E11
//! workload, serialize, `install_shared` the snapshot [`E13_LOADS`] times
//! into an [`OracleServer`] (decode, install, one probe query) and record
//! the median. Sustained throughput replays the E11 batch through
//! [`OracleServer::query`] — lease + counters on top of the oracle's own
//! batch path — so the serving overhead is visible next to
//! `BENCH_oracle.json`'s raw numbers. Answer digests are checked across a
//! hot swap: the swap must not change a single bit.
//! Reproduce with
//! `cargo run --release -p bench --bin experiments -- serve`
//! (`-- serve headline` for the `BENCH_oracle.json` rows at n = 4096,
//! `-- serve --smoke` for the CI variant, which additionally pins
//! admission-batcher answers against direct queries).

use crate::table::{f, fnv1a, median, Table};
use crate::{e11_build, e11_pairs, E11_BATCH};
use oracle::{Backend, Oracle};
use serve::{Batcher, OracleServer};
use std::time::{Duration, Instant};

/// Cold-start installs per measurement; the median is recorded.
pub const E13_LOADS: usize = 5;

/// Timed serving sweeps (per run) behind the sustained q/s median.
const E13_SWEEPS: usize = 5;

/// One measured serve workload on one backend.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// The backend measured.
    pub backend: Backend,
    /// Number of nodes.
    pub n: usize,
    /// Snapshot size in bytes.
    pub bytes: usize,
    /// Median cold-start (bytes in memory → first answer), ms.
    pub cold_ms: f64,
    /// Median sustained throughput through `OracleServer::query`, q/s.
    pub qps_served: f64,
    /// FNV-1a digest over the served batch answers — must match across
    /// the hot swap (asserted) and `BENCH_oracle.json`'s E11 digests
    /// (same workload).
    pub digest: u64,
}

/// Runs the canonical E13 measurement for one backend at size `n`:
/// build once, then serve.
pub fn e13_run(backend: Backend, n: usize, seed: u64) -> ServeRun {
    let (oracle, _) = e11_build(backend, n, seed);
    e13_measure(&oracle, backend, n, seed)
}

/// Measures cold start and served throughput for an already-built oracle.
///
/// # Panics
///
/// Panics if the answers served before and after a hot swap diverge (the
/// swap must be invisible to queries) or an install fails.
pub fn e13_measure(oracle: &Oracle, backend: Backend, n: usize, seed: u64) -> ServeRun {
    let mut snapshot = Vec::new();
    oracle.save_v3(&mut snapshot).expect("serialize");
    let bytes = snapshot.len();
    let snapshot = congest::arena::SharedBytes::from_vec(snapshot);

    let server = OracleServer::new();
    let mut ms = Vec::with_capacity(E13_LOADS);
    for _ in 0..E13_LOADS {
        let report = server
            .install_shared("cold", snapshot.clone())
            .expect("install snapshot");
        ms.push(report.cold_start_nanos as f64 / 1e6);
    }
    let cold_ms = median(&mut ms);
    server.remove("cold");

    // Sustained throughput through the server, with a hot swap inside
    // the measured path: the digest must not move.
    let name = backend.name();
    let pairs = e11_pairs(n, E11_BATCH, seed);
    let mut out = Vec::new();
    server
        .install_shared(name, snapshot.clone())
        .expect("install");
    server.query(name, &pairs, &mut out, 1).expect("serve");
    let digest = fnv1a(&out);
    server.install_shared(name, snapshot).expect("hot swap");
    let mut qps = Vec::with_capacity(E13_SWEEPS);
    for _ in 0..E13_SWEEPS {
        let t = Instant::now();
        server.query(name, &pairs, &mut out, 1).expect("serve");
        qps.push(pairs.len() as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    assert_eq!(
        fnv1a(&out),
        digest,
        "{backend}: hot swap changed served answers"
    );
    ServeRun {
        backend,
        n,
        bytes,
        cold_ms,
        qps_served: median(&mut qps),
        digest,
    }
}

fn push_row(t: &mut Table, r: &ServeRun) {
    t.row(vec![
        r.backend.name().to_string(),
        r.n.to_string(),
        r.bytes.to_string(),
        f(r.cold_ms),
        f(r.qps_served),
        format!("{:016x}", r.digest),
    ]);
}

/// The E13 table: every backend at the given sizes, plus — when
/// `headline` is set — the `BENCH_oracle.json` cold-start rows: `n =
/// 4096` for pde and rtc, truncated alongside, and compact at `n = 1024`.
pub fn e13_serve(sizes: &[usize], headline: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "E13 (serving): cold-start and served q/s on unit-weight G(n, ~6/n), k=2",
        &["backend", "n", "bytes", "cold_ms", "served_q/s", "digest"],
    );
    for &n in sizes {
        for backend in Backend::ALL {
            push_row(&mut t, &e13_run(backend, n, seed));
        }
    }
    if headline {
        for backend in [Backend::Pde, Backend::Rtc, Backend::Truncated] {
            push_row(&mut t, &e13_run(backend, 4096, seed));
        }
        push_row(&mut t, &e13_run(Backend::Compact, 1024, seed));
    }
    t
}

/// CI smoke: every backend at a tiny size goes through the full serving
/// lifecycle — install from snapshot bytes, query, hot-swap to a second
/// install of the same bytes, query again, batch through the admission
/// [`Batcher`] — and every answer path must agree bit-for-bit.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn e13_smoke(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E13 smoke: install/query/hot-swap/batch identity through OracleServer",
        &["backend", "n", "bytes", "digest", "checks"],
    );
    let server = OracleServer::new();
    let pairs = e11_pairs(n, 512, seed);
    for backend in Backend::ALL {
        let (oracle, _) = e11_build(backend, n, seed);
        let mut snapshot = Vec::new();
        oracle.save_v3(&mut snapshot).unwrap();

        let name = backend.name();
        let first = server.install_from_bytes(name, &snapshot).unwrap();
        assert_eq!(
            (first.backend, first.n),
            (backend, n),
            "{backend}: identity"
        );
        let mut before = Vec::new();
        server.query(name, &pairs, &mut before, 1).unwrap();

        let second = server.install_from_bytes(name, &snapshot).unwrap();
        let replaced = second.replaced.expect("hot swap must report the retiree");
        assert_eq!(
            replaced.generation, first.generation,
            "{backend}: wrong snapshot retired"
        );
        let mut after = Vec::new();
        let generation = server.query(name, &pairs, &mut after, 1).unwrap();
        assert_eq!(generation, second.generation, "{backend}: stale lease");
        assert_eq!(before, after, "{backend}: hot swap changed answers");

        let batcher = Batcher::new(name, Duration::from_millis(1), 1);
        let (batched, _) = batcher.submit(&server, pairs.clone()).unwrap();
        assert_eq!(batched, after, "{backend}: batcher changed answers");

        t.row(vec![
            backend.name().to_string(),
            n.to_string(),
            snapshot.len().to_string(),
            format!("{:016x}", fnv1a(&after)),
            "installed=swapped=batched".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::E11_SEED;

    #[test]
    fn e13_measures_cold_start_and_served_throughput() {
        let r = e13_run(Backend::Flooding, 48, E11_SEED);
        assert!(r.cold_ms > 0.0);
        assert!(r.qps_served > 0.0);
        assert!(r.bytes > 0);
    }

    #[test]
    fn e13_smoke_passes_at_tiny_size() {
        let t = e13_smoke(20, E11_SEED);
        assert_eq!(t.rows.len(), Backend::ALL.len());
    }
}
