//! E14 — dynamic graphs: repair-vs-rebuild speedup and failover stretch.
//!
//! The protocol, per backend × delta kind on the E11 workload graph:
//! build once, apply one [`GraphDelta`] through
//! [`oracle::OracleBuilder::repair`] [`E14_RUNS`] times (median repair
//! wall-clock), rebuild from scratch on the mutated graph the same
//! number of times (median native rebuild), and **assert** the repaired
//! and rebuilt artifacts are byte-identical — the speedup column is only
//! meaningful because the two outputs are provably the same bytes.
//! Matrix backends (`flooding`, `bellman_ford`) repair edge deltas
//! incrementally (affected rows only); sampling-coupled schemes rebuild
//! honestly through the same entry point, so their ~1× rows quantify
//! what id/seed-keyed sampling costs under churn. For failure deltas the
//! table also measures **failover stretch**: with the failure masked but
//! not yet repaired, [`oracle::route_with_failover`] detours on the
//! *old* artifact, and the stretch is the worst routed weight over the
//! mutated graph's true distance across the E11 pair sample (`-` for
//! `bellman_ford`, which carries no topology and honestly refuses).
//! Reproduce with
//! `cargo run --release -p bench --bin experiments -- dynamic`
//! (`-- dynamic headline` for the `BENCH_dynamic.json` rows at
//! n = 4096, `-- dynamic --smoke` for the CI variant).

use crate::table::{f, median, Table};
use crate::{e11_graph, e11_pairs};
use graphs::algo::dijkstra;
use graphs::{GraphDelta, NodeId, WGraph};
use oracle::{
    route_with_failover, Backend, DistanceOracle, LivenessMask, OracleBuilder, RepairKind,
    TracedRoute,
};
use std::time::Instant;

/// Workload seed for the dynamic experiment.
pub const E14_SEED: u64 = 0xE14;

/// Timed repair/rebuild repetitions per row; the median is recorded.
pub const E14_RUNS: usize = 3;

/// Query pairs sampled for the failover-stretch measurement.
const E14_PAIRS: usize = 64;

/// One measured repair scenario on one backend.
#[derive(Clone, Debug)]
pub struct DynRun {
    /// The backend measured.
    pub backend: Backend,
    /// Number of nodes (before the delta).
    pub n: usize,
    /// Delta kind tag (`set_weight` / `fail_edge` / `fail_node`).
    pub delta: &'static str,
    /// `incremental` or `rebuilt` (from [`RepairKind::tag`]).
    pub repair_kind: &'static str,
    /// Rows recomputed / rows total (1.0 for a rebuild).
    pub rows_fraction: f64,
    /// Median wall-clock of `OracleBuilder::repair`, ms.
    pub repair_ms: f64,
    /// Median wall-clock of a full native rebuild on the mutated graph, ms.
    pub rebuild_ms: f64,
    /// `rebuild_ms / repair_ms`.
    pub speedup: f64,
    /// Worst failover-detour stretch on the masked pre-repair artifact
    /// over the E11 pair sample; 0.0 when not applicable (weight deltas,
    /// topology-free backends).
    pub failover_stretch: f64,
}

/// The canonical delta of each kind on the E14 graph: a weight bump on
/// the seed-picked edge, or the first edge/node (seed-rotated) whose
/// failure keeps the graph connected.
pub fn e14_delta(g: &WGraph, kind: &str, seed: u64) -> GraphDelta {
    let edges = g.edges();
    match kind {
        "set_weight" => {
            let (u, v, w) = edges[(seed as usize) % edges.len()];
            GraphDelta::SetWeight {
                u: NodeId(u),
                v: NodeId(v),
                w: w + 1 + seed % 9,
            }
        }
        "fail_edge" => {
            for off in 0..edges.len() {
                let (u, v, _) = edges[(seed as usize + off) % edges.len()];
                let delta = GraphDelta::FailEdge {
                    u: NodeId(u),
                    v: NodeId(v),
                };
                if g.apply_delta(&delta).is_ok() {
                    return delta;
                }
            }
            panic!("no survivable edge failure in the E14 graph");
        }
        _ => {
            for off in 0..g.len() {
                let v = NodeId(((seed as usize + off) % g.len()) as u32);
                let delta = GraphDelta::FailNode { v };
                if g.apply_delta(&delta).is_ok() {
                    return delta;
                }
            }
            panic!("no survivable node failure in the E14 graph");
        }
    }
}

/// Maps a pre-delta node id into the mutated graph's id space
/// (`None` for the failed node itself).
fn map_id(delta: &GraphDelta, x: NodeId) -> Option<NodeId> {
    match *delta {
        GraphDelta::FailNode { v } if x == v => None,
        GraphDelta::FailNode { v } if x > v => Some(NodeId(x.0 - 1)),
        _ => Some(x),
    }
}

/// Worst failover stretch on `prev` with `delta`'s failure masked:
/// routed weight over the mutated graph's true distance, maximized over
/// the E11 pair sample. Returns 0.0 when the backend has no topology or
/// the delta is not a failure.
fn failover_stretch(
    prev: &oracle::Oracle,
    g_after: &WGraph,
    delta: &GraphDelta,
    n: usize,
    seed: u64,
) -> f64 {
    let mut mask = LivenessMask::new(n);
    match *delta {
        GraphDelta::FailEdge { u, v } => mask.fail_edge(u, v),
        GraphDelta::FailNode { v } => mask.fail_node(v),
        GraphDelta::SetWeight { .. } => return 0.0,
    }
    if prev.topology().is_none() {
        return 0.0;
    }
    let mut route = TracedRoute::default();
    let mut worst = 0.0f64;
    let mut truth: Option<(NodeId, Vec<u64>)> = None;
    for (u, v) in e11_pairs(n, E14_PAIRS, seed) {
        let (Some(mu), Some(mv)) = (map_id(delta, u), map_id(delta, v)) else {
            continue; // the failed node itself is fair game to refuse
        };
        let outcome = route_with_failover(prev, &mask, u, v, &mut route);
        assert!(
            outcome.routed(),
            "{}: failover refused {u} → {v} though the mutated graph is connected",
            prev.backend()
        );
        if truth.as_ref().map(|(s, _)| *s) != Some(mu) {
            truth = Some((mu, dijkstra(g_after, mu).dist));
        }
        let exact = truth.as_ref().expect("just computed").1[mv.index()];
        worst = worst.max(route.weight as f64 / exact.max(1) as f64);
    }
    worst
}

/// Runs the canonical E14 measurement for one backend × delta kind at
/// size `n`.
///
/// # Panics
///
/// Panics if any repaired artifact is not byte-identical to the
/// from-scratch rebuild on the mutated graph, or if a failover route is
/// refused for a connected pair — the table only exists on top of those
/// guarantees.
pub fn e14_run(backend: Backend, n: usize, kind: &'static str, seed: u64) -> DynRun {
    let g = e11_graph(n, seed);
    let delta = e14_delta(&g, kind, seed);
    let builder = OracleBuilder::new(backend).seed(seed).k(2);
    let prev = builder.build(&g);
    let g_after = g.apply_delta(&delta).expect("E14 deltas apply");

    let stretch = failover_stretch(&prev, &g_after, &delta, n, seed);

    let mut repair_ms = Vec::with_capacity(E14_RUNS);
    let mut repaired = None;
    for _ in 0..E14_RUNS {
        let t0 = Instant::now();
        let r = builder.repair(&g, &prev, &delta).expect("repair succeeds");
        repair_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        repaired = Some(r);
    }
    let repaired = repaired.expect("E14_RUNS >= 1");

    let mut rebuild_ms = Vec::with_capacity(E14_RUNS);
    let mut rebuilt = None;
    for _ in 0..E14_RUNS {
        let t0 = Instant::now();
        rebuilt = Some(builder.build(&g_after));
        rebuild_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(
        repaired.oracle.artifact_bytes(),
        rebuilt.expect("E14_RUNS >= 1").artifact_bytes(),
        "{backend}: repair diverged from rebuild on {delta}"
    );

    let (repair_ms, rebuild_ms) = (median(&mut repair_ms), median(&mut rebuild_ms));
    let rows_fraction = match repaired.report.kind {
        RepairKind::Incremental {
            rows_recomputed,
            rows_total,
        } => rows_recomputed as f64 / rows_total.max(1) as f64,
        RepairKind::Rebuilt { .. } => 1.0,
    };
    DynRun {
        backend,
        n,
        delta: delta.kind(),
        repair_kind: repaired.report.kind.tag(),
        rows_fraction,
        repair_ms,
        rebuild_ms,
        speedup: rebuild_ms / repair_ms.max(1e-9),
        failover_stretch: stretch,
    }
}

fn push_row(t: &mut Table, r: &DynRun) {
    t.row(vec![
        r.backend.name().to_string(),
        r.n.to_string(),
        r.delta.to_string(),
        r.repair_kind.to_string(),
        f(r.rows_fraction),
        f(r.repair_ms),
        f(r.rebuild_ms),
        f(r.speedup),
        if r.failover_stretch > 0.0 {
            f(r.failover_stretch)
        } else {
            "-".into()
        },
    ]);
}

const E14_KINDS: [&str; 3] = ["set_weight", "fail_edge", "fail_node"];

/// The E14 table: every backend × delta kind at the given sizes, plus —
/// when `headline` is set — the `BENCH_dynamic.json` rows: single-edge
/// failure at n = 4096 on the two incremental matrix backends (the ≥5×
/// acceptance bar) with `rtc`'s honest-rebuild row alongside for scale.
pub fn e14_dynamic(sizes: &[usize], headline: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "E14 (dynamic): repair vs rebuild (byte-identity asserted) and failover stretch on unit-weight G(n, ~6/n), k=2",
        &[
            "backend",
            "n",
            "delta",
            "repair",
            "rows",
            "repair_ms",
            "rebuild_ms",
            "speedup",
            "failover_stretch",
        ],
    );
    for &n in sizes {
        for backend in Backend::ALL {
            for kind in E14_KINDS {
                push_row(&mut t, &e14_run(backend, n, kind, seed));
            }
        }
    }
    if headline {
        for backend in [Backend::Flooding, Backend::BellmanFord, Backend::Rtc] {
            push_row(&mut t, &e14_run(backend, 4096, "fail_edge", seed));
        }
    }
    t
}

/// CI smoke: every backend × delta kind at a tiny size goes through
/// repair (byte-identity vs rebuild asserted inside [`e14_run`]) and the
/// failure rows exercise a masked failover route.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn e14_smoke(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E14 smoke: repair ≡ rebuild byte-identity and failover detours",
        &[
            "backend",
            "n",
            "delta",
            "repair",
            "rows",
            "repair_ms",
            "rebuild_ms",
            "speedup",
            "failover_stretch",
        ],
    );
    for backend in Backend::ALL {
        for kind in E14_KINDS {
            push_row(&mut t, &e14_run(backend, n, kind, seed));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_measures_repair_and_failover() {
        let r = e14_run(Backend::Flooding, 32, "fail_edge", E14_SEED);
        assert_eq!(r.repair_kind, "incremental");
        assert!(r.rows_fraction > 0.0 && r.rows_fraction <= 1.0);
        assert!(r.repair_ms > 0.0 && r.rebuild_ms > 0.0);
        assert!(r.failover_stretch >= 1.0, "{}", r.failover_stretch);
    }

    #[test]
    fn e14_schemes_report_honest_rebuilds() {
        let r = e14_run(Backend::Rtc, 24, "set_weight", E14_SEED);
        assert_eq!(r.repair_kind, "rebuilt");
        assert_eq!(r.rows_fraction, 1.0);
        assert_eq!(r.failover_stretch, 0.0, "weight deltas mask nothing");
    }

    #[test]
    fn e14_smoke_passes_at_tiny_size() {
        let t = e14_smoke(20, E14_SEED);
        assert_eq!(t.rows.len(), Backend::ALL.len() * E14_KINDS.len());
    }
}
