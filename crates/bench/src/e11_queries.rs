//! E11 — oracle query throughput: single-query latency percentiles and
//! batch `estimate_many_with` queries/second for every backend.
//!
//! This is the workload recorded in `BENCH_oracle.json` (the before/after
//! evidence for the flat-SoA query-path refactor): connected *unit-weight*
//! G(n, p) with average degree ≈ 6, seed `0xE11`, `OracleBuilder`
//! defaults at `k = 2`. Unit weights keep the PDE weight ladder at one
//! rung so the expensive distributed builds stay tractable at `n = 4096`;
//! the query-side data structures (and therefore the measured hot path)
//! are identical to the weighted case. Reproduce with
//! `cargo run --release -p bench --bin experiments -- queries`
//! (or `-- queries --smoke` for the tiny CI variant, which also asserts
//! that every backend's batch path agrees with its scalar `estimate` and
//! is identical across thread counts).

use crate::table::{f, fnv1a, median, Table};
use crate::workloads;
use graphs::NodeId;
use oracle::{Backend, DistanceOracle, Oracle, OracleBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The seed used for the recorded benchmark workload.
pub const E11_SEED: u64 = 0xE11;

/// Pairs per batch sweep (the unit behind the recorded q/s numbers).
pub const E11_BATCH: usize = 200_000;

/// Pairs timed for the latency percentiles.
const E11_SINGLES: usize = 50_000;

/// Queries per timed group in the percentile protocol: one `Instant`
/// pair per group of this many calls, divided by the group size — so
/// the timer read amortizes to ~1/64 of a query instead of dominating
/// the p50 (the pre-PR-10 protocol timed each call individually).
const E11_LATENCY_GROUP: usize = 64;

/// Timed sweeps per measurement; the median is recorded.
const E11_SWEEPS: usize = 5;

/// One measured query workload on one backend.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// The backend measured.
    pub backend: Backend,
    /// Number of nodes.
    pub n: usize,
    /// Wall-clock build milliseconds (one-time cost, for context).
    pub build_ms: f64,
    /// Median single-query latency in nanoseconds, batch-timed: groups
    /// of [`E11_LATENCY_GROUP`] `estimate` calls share one `Instant`
    /// pair and the group time is divided per query (quantiles are over
    /// per-group means — a protocol change from the individually-timed
    /// pre-PR-10 numbers, which folded a full timer read into every
    /// sample).
    pub p50_ns: u64,
    /// 99th-percentile single-query latency in nanoseconds (same
    /// batch-timed protocol).
    pub p99_ns: u64,
    /// Median batch throughput at `threads = 1` on the shuffled
    /// (submission-order) pair list, queries/second.
    pub qps_seq: f64,
    /// Median batch throughput at `threads = 0` (auto), queries/second.
    pub qps_auto: f64,
    /// Median batch throughput at `threads = 1` on a `(u, v)`-sorted
    /// copy of the same pairs — the grouped kernel's best case; the gap
    /// to [`QueryRun::qps_seq`] is what the schedule build costs.
    pub qps_sorted: f64,
    /// FNV-1a digest over the batch answers (identity checks across
    /// thread counts and code versions).
    pub digest: u64,
}

/// The canonical E11 graph: connected unit-weight G(n, ~6/n).
pub fn e11_graph(n: usize, seed: u64) -> graphs::WGraph {
    workloads::gnp_unit(n, seed)
}

/// The canonical E11 query pairs: `count` uniform ordered pairs with
/// `u != v`, seeded from the workload seed.
pub fn e11_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD00D);
    (0..count)
        .map(|_| {
            let u = rng.random_range(0..n as u32);
            let mut v = rng.random_range(0..n as u32);
            while v == u {
                v = rng.random_range(0..n as u32);
            }
            (NodeId(u), NodeId(v))
        })
        .collect()
}

/// Builds one backend on the canonical E11 workload.
pub fn e11_build(backend: Backend, n: usize, seed: u64) -> (Oracle, f64) {
    let g = e11_graph(n, seed);
    let t0 = Instant::now();
    let o = OracleBuilder::new(backend).seed(seed).k(2).build(&g);
    (o, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs the canonical E11 measurement for one backend at size `n`.
pub fn e11_run(backend: Backend, n: usize, seed: u64) -> QueryRun {
    let (o, build_ms) = e11_build(backend, n, seed);
    e11_measure(&o, backend, n, seed, build_ms)
}

/// Measures an already-built oracle with the canonical protocol.
pub fn e11_measure(
    oracle: &Oracle,
    backend: Backend,
    n: usize,
    seed: u64,
    build_ms: f64,
) -> QueryRun {
    let pairs = e11_pairs(n, E11_BATCH, seed);
    let mut sorted_pairs = pairs.clone();
    sorted_pairs.sort_unstable_by_key(|&(u, v)| (u.0, v.0));
    let mut out = Vec::new();

    // Batch throughput: warmup sweep, then the median of timed sweeps —
    // shuffled at threads = 1 and auto, plus the (u, v)-sorted copy.
    oracle.estimate_many_with(&pairs, &mut out, 1);
    let digest = fnv1a(&out);
    let mut sweep = |list: &[(NodeId, NodeId)], threads: usize| {
        let mut qps = Vec::with_capacity(E11_SWEEPS);
        for _ in 0..E11_SWEEPS {
            let t = Instant::now();
            oracle.estimate_many_with(list, &mut out, threads);
            qps.push(list.len() as f64 / t.elapsed().as_secs_f64().max(1e-9));
        }
        median(&mut qps)
    };
    let qps_seq = sweep(&pairs, 1);
    let qps_auto = sweep(&pairs, 0);
    let qps_sorted = sweep(&sorted_pairs, 1);

    // Single-query latency percentiles over a prefix of the pair list,
    // batch-timed: one timer pair per group, group time divided per
    // query (see the `QueryRun::p50_ns` docs for the protocol change).
    let singles = &pairs[..E11_SINGLES.min(pairs.len())];
    let mut lat: Vec<u64> = Vec::with_capacity(singles.len() / E11_LATENCY_GROUP + 1);
    let mut acc = 0u64;
    for group in singles.chunks(E11_LATENCY_GROUP) {
        let t = Instant::now();
        for &(u, v) in group {
            acc = acc.wrapping_add(oracle.estimate(u, v));
        }
        lat.push(t.elapsed().as_nanos() as u64 / group.len() as u64);
    }
    std::hint::black_box(acc);
    lat.sort_unstable();
    QueryRun {
        backend,
        n,
        build_ms,
        p50_ns: lat[lat.len() / 2],
        p99_ns: lat[lat.len() * 99 / 100],
        qps_seq,
        qps_auto,
        qps_sorted,
        digest,
    }
}

fn push_row(t: &mut Table, r: &QueryRun) {
    t.row(vec![
        r.backend.name().to_string(),
        r.n.to_string(),
        f(r.build_ms),
        r.p50_ns.to_string(),
        r.p99_ns.to_string(),
        f(r.qps_seq),
        f(r.qps_auto),
        f(r.qps_sorted),
        format!("{:016x}", r.digest),
    ]);
}

/// The E11 table: every backend at the given sizes, plus — when
/// `headline` is set — the `BENCH_oracle.json` rows: `n = 4096` for the
/// backends whose distributed builds are tractable there (pde, rtc,
/// truncated) and compact at `n = 1024`.
pub fn e11_queries(sizes: &[usize], headline: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "E11 (oracle throughput): estimate/estimate_many on unit-weight G(n, ~6/n), k=2",
        &[
            "backend",
            "n",
            "build_ms",
            "p50_ns",
            "p99_ns",
            "q/s_t1",
            "q/s_auto",
            "q/s_sorted",
            "digest",
        ],
    );
    for &n in sizes {
        for backend in Backend::ALL {
            let r = e11_run(backend, n, seed);
            push_row(&mut t, &r);
        }
    }
    if headline {
        for backend in [Backend::Pde, Backend::Rtc, Backend::Truncated] {
            let r = e11_run(backend, 4096, seed);
            push_row(&mut t, &r);
        }
        let r = e11_run(Backend::Compact, 1024, seed);
        push_row(&mut t, &r);
    }
    t
}

/// CI smoke: builds every backend at a tiny size and asserts that
/// (a) the batch path agrees entry-for-entry with scalar `estimate`,
/// (b) batch answers are identical for threads ∈ {1, 4, auto}, and
/// (c) the grouped kernel's per-pair answers are digest-identical no
/// matter how the batch is ordered (shuffled as submitted, `(u, v)`-
/// sorted, reversed) — each permuted run is unpermuted back to
/// submission order before hashing.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn e11_smoke(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E11 smoke: batch vs scalar, thread-count and batch-order identity",
        &["backend", "pairs", "q/s_t1", "digest", "checks"],
    );
    let pairs = {
        // Include the diagonal in the smoke: u == v must answer 0 through
        // the batch path too. Large enough that threads=4 clears the
        // per-worker shard floor (and the grouping gate) and genuinely
        // runs the grouped parallel path.
        let mut p = e11_pairs(n, 6_000, seed);
        p.extend((0..n as u32).map(|u| (NodeId(u), NodeId(u))));
        p
    };
    // Batch orders beyond the submitted (shuffled) one: each is a
    // permutation of the same pairs; answers must be digest-identical
    // once unpermuted back to submission order.
    let mut sorted_perm: Vec<u32> = (0..pairs.len() as u32).collect();
    sorted_perm.sort_by_key(|&i| {
        let (u, v) = pairs[i as usize];
        (u.0, v.0)
    });
    let reversed_perm: Vec<u32> = (0..pairs.len() as u32).rev().collect();
    for backend in Backend::ALL {
        let (o, _) = e11_build(backend, n, seed);
        let mut seq = Vec::new();
        let t0 = Instant::now();
        o.estimate_many_with(&pairs, &mut seq, 1);
        let qps = pairs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        for (&(u, v), &got) in pairs.iter().zip(&seq) {
            assert_eq!(
                got,
                o.estimate(u, v),
                "{backend}: batch diverges from scalar estimate at ({u}, {v})"
            );
        }
        let digest = fnv1a(&seq);
        for threads in [4usize, 0] {
            let mut par = Vec::new();
            o.estimate_many_with(&pairs, &mut par, threads);
            assert_eq!(seq, par, "{backend}: threads={threads} changed answers");
        }
        for (name, perm) in [("sorted", &sorted_perm), ("reversed", &reversed_perm)] {
            let permuted: Vec<(NodeId, NodeId)> = perm.iter().map(|&i| pairs[i as usize]).collect();
            for threads in [1usize, 4] {
                let mut got = Vec::new();
                o.estimate_many_with(&permuted, &mut got, threads);
                let mut unpermuted = vec![0u64; pairs.len()];
                for (&i, &ans) in perm.iter().zip(&got) {
                    unpermuted[i as usize] = ans;
                }
                assert_eq!(
                    fnv1a(&unpermuted),
                    digest,
                    "{backend}: {name} batch order (threads={threads}) changed answers"
                );
            }
        }
        t.row(vec![
            backend.name().to_string(),
            pairs.len().to_string(),
            f(qps),
            format!("{:016x}", digest),
            "scalar=batch, t∈{1,4,auto}, order∈{shuffled,sorted,reversed} identical".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_runs_and_digest_is_thread_independent() {
        let r = e11_run(Backend::Flooding, 48, E11_SEED);
        assert!(r.qps_seq > 0.0 && r.qps_auto > 0.0);
        assert!(r.p50_ns <= r.p99_ns);
        let (o, _) = e11_build(Backend::Flooding, 48, E11_SEED);
        let pairs = e11_pairs(48, E11_BATCH, E11_SEED);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        o.estimate_many_with(&pairs, &mut a, 1);
        o.estimate_many_with(&pairs, &mut b, 3);
        assert_eq!(a, b);
        assert_eq!(fnv1a(&a), r.digest);
    }

    #[test]
    fn e11_smoke_passes_at_tiny_size() {
        let t = e11_smoke(20, E11_SEED);
        assert_eq!(t.rows.len(), Backend::ALL.len());
    }
}
