//! Oracles — the unified `DistanceOracle` comparison: build time,
//! serialized artifact size, stretch percentiles and batch query
//! throughput for every backend on one graph.

use crate::table::{f, median, Table};
use crate::workloads;
use graphs::algo::apsp;
use oracle::{evaluate, Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder, PairSelection};
use std::time::Instant;

/// Builds every backend on G(n, p) and reports the unified-API metrics:
/// wall-clock build time (median of [`BUILD_RUNS`] builds, so warmup
/// noise stays out of the recorded numbers), CONGEST rounds charged,
/// `save` artifact size, estimate-stretch percentiles from the
/// oracle-generic evaluator, routed coverage, and measured
/// `estimate_many` throughput.
pub fn oracles(n: usize, seed: u64) -> Table {
    oracles_table(n, seed, false)
}

/// Builds per backend for the reported `build_ms` median (the smoke
/// variant builds once — CI wants cheap, not denoised).
pub const BUILD_RUNS: usize = 3;

/// CI smoke: the [`oracles`] table plus, for each freshly built backend,
/// a `save`/`load` round trip asserting identical batch answers —
/// every backend is built exactly once.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn oracles_roundtrip_check(n: usize, seed: u64) -> Table {
    oracles_table(n, seed, true)
}

fn oracles_table(n: usize, seed: u64, roundtrip: bool) -> Table {
    use rand::Rng;
    let g = workloads::gnp(n, seed);
    let exact = apsp(&g);
    let mut rng = graphs::Seed(seed).rng();
    let queries: Vec<(graphs::NodeId, graphs::NodeId)> = (0..512)
        .map(|_| {
            (
                graphs::NodeId(rng.random_range(0..n as u32)),
                graphs::NodeId(rng.random_range(0..n as u32)),
            )
        })
        .collect();
    let mut t = Table::new(
        "Oracles: one DistanceOracle API across every backend (k=2, eps=0.25)",
        &[
            "backend",
            "build_ms",
            "rounds",
            "size_KiB",
            "p50_stretch",
            "p99_stretch",
            "max_stretch",
            "routed",
            "batch_q/s",
            "sorted_q/s",
            "fails",
        ],
    );
    let pairs = if n <= 40 {
        PairSelection::All
    } else {
        PairSelection::Sample {
            count: 800,
            seed: 5,
        }
    };
    for backend in Backend::ALL {
        // Median-of-3 build time (like E11/E12 do): a single cold run
        // recorded warmup noise into the BENCH files.
        let runs = if roundtrip { 1 } else { BUILD_RUNS };
        let mut times = Vec::with_capacity(runs);
        let mut built = None;
        for _ in 0..runs {
            let t0 = Instant::now();
            // This table is the paper-faithful measurement view, so it
            // pins `Simulated` mode (rounds stay meaningful); the E12
            // `builds` table compares it against the native engine.
            built = Some(
                OracleBuilder::new(backend)
                    .seed(seed)
                    .k(2)
                    .build_mode(BuildMode::Simulated)
                    .build(&g),
            );
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let o = built.expect("at least one build");
        let build_ms = median(&mut times);
        if roundtrip {
            let mut bytes = Vec::new();
            o.save_v3(&mut bytes).expect("save");
            let loaded = Oracle::load(&mut &bytes[..]).expect("load");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            o.estimate_many(&queries, &mut a);
            loaded.estimate_many(&queries, &mut b);
            assert_eq!(a, b, "{backend}: answers diverged after save/load");
            assert_eq!(
                8 * bytes.len() as u64,
                o.size_bits(),
                "{backend}: size_bits out of sync with the artifact"
            );
        }
        let r = evaluate(&o, &g, &exact, pairs);
        t.row(vec![
            backend.name().to_string(),
            f(build_ms),
            o.build_metrics().rounds.to_string(),
            f(r.size_bits as f64 / 8.0 / 1024.0),
            f(r.p50_stretch),
            f(r.p99_stretch),
            f(r.max_estimate_stretch),
            format!("{}/{}", r.routed, r.pairs),
            f(r.queries_per_sec),
            f(r.queries_per_sec_sorted),
            r.failures.len().to_string(),
        ]);
    }
    t
}
