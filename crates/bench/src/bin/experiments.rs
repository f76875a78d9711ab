//! Regenerates every experiment table recorded in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin experiments                    # all
//! cargo run --release -p bench --bin experiments -- e1 e4           # selected
//! cargo run --release -p bench --bin experiments -- quick           # reduced sizes
//! cargo run --release -p bench --bin experiments -- --smoke         # CI bench smoke
//! cargo run --release -p bench --bin experiments -- oracles         # DistanceOracle table
//! cargo run --release -p bench --bin experiments -- oracles --smoke # CI oracle smoke
//! cargo run --release -p bench --bin experiments -- queries         # E11 throughput table
//! cargo run --release -p bench --bin experiments -- queries --smoke # CI query smoke
//! cargo run --release -p bench --bin experiments -- builds          # E12 build-engine table
//! cargo run --release -p bench --bin experiments -- builds headline # BENCH_builds.json rows (n=4096)
//! cargo run --release -p bench --bin experiments -- builds --smoke  # CI build-parity smoke
//! cargo run --release -p bench --bin experiments -- serve           # E13 serving table
//! cargo run --release -p bench --bin experiments -- serve headline  # BENCH_oracle.json cold-start rows (n=4096)
//! cargo run --release -p bench --bin experiments -- serve --smoke   # CI serve smoke
//! cargo run --release -p bench --bin experiments -- dynamic          # E14 repair/failover table
//! cargo run --release -p bench --bin experiments -- dynamic headline # BENCH_dynamic.json rows (n=4096)
//! cargo run --release -p bench --bin experiments -- dynamic --smoke  # CI dynamic smoke
//! cargo run --release -p bench --bin experiments -- net              # E15 socket-serving table
//! cargo run --release -p bench --bin experiments -- net headline     # BENCH_net.json rows (n=4096)
//! cargo run --release -p bench --bin experiments -- net --smoke      # CI net smoke
//! cargo run --release -p bench --bin experiments -- chaos            # E16 chaos/robustness table
//! cargo run --release -p bench --bin experiments -- chaos headline   # BENCH_chaos.json rows (n=1024)
//! cargo run --release -p bench --bin experiments -- chaos --smoke    # CI chaos smoke
//! ```

use bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Oracle smoke for CI: build every backend at a tiny size, print the
    // unified table, and fail loudly if any backend's save/load snapshot
    // stops answering bit-identically.
    if smoke && args.iter().any(|a| a == "oracles") {
        println!("{}", oracles_roundtrip_check(24, 0x5EED));
        println!("smoke ok: all backends round-trip through save/load");
        return;
    }
    // Query smoke for CI: every backend's batch path must agree with its
    // scalar `estimate` and be identical across thread counts.
    if smoke && args.iter().any(|a| a == "queries") {
        println!("{}", e11_smoke(24, E11_SEED));
        println!(
            "smoke ok: grouped/shuffled/sorted/scalar answers digest-identical \
             across thread counts for all backends"
        );
        return;
    }
    // Build smoke for CI: native and simulated builds of every backend
    // must produce byte-identical canonical artifacts and answers, at
    // threads 1 and 4.
    if smoke && args.iter().any(|a| a == "builds") {
        println!("{}", e12_smoke(24, E12_SEED));
        println!("smoke ok: native builds byte-identical to simulated across thread counts");
        return;
    }
    // Serve smoke for CI: every backend through the full serving
    // lifecycle (install → query → hot swap → query → admission batch)
    // with bit-identical answers on every path.
    if smoke && args.iter().any(|a| a == "serve") {
        println!("{}", e13_smoke(24, E11_SEED));
        println!("smoke ok: installed/swapped/batched answers identical through hot swaps");
        return;
    }
    // Dynamic smoke for CI: every backend × delta kind through repair
    // (byte-identity vs a from-scratch rebuild asserted) plus a masked
    // failover detour on the failure rows.
    if smoke && args.iter().any(|a| a == "dynamic") {
        println!("{}", e14_smoke(24, E14_SEED));
        println!("smoke ok: repairs byte-identical to rebuilds, failover detours live");
        return;
    }
    // Net smoke for CI: every backend served over a loopback socket —
    // swap, install-from-file, direct/batched queries, routes — with
    // socket answers asserted byte-identical to in-process, plus one
    // fail → detour → repair cycle driven entirely over the wire.
    if smoke && args.iter().any(|a| a == "net") {
        println!("{}", e15_smoke(24, E11_SEED));
        println!("smoke ok: socket answers byte-identical to in-process through hot swaps");
        return;
    }
    // Chaos smoke for CI: every backend queried through a fault-
    // injecting proxy with digest-pinned answers and zero panics,
    // typed overload shedding (door refusal, replica failover, batch
    // budget), a kill-mid-traffic failover, and checkpoint + WAL
    // recovery asserted byte-identical for every backend.
    if smoke && args.iter().any(|a| a == "chaos") {
        println!("{}", e16_smoke(24, E16_SEED));
        println!("smoke ok: answers digest-identical under faults, recovery byte-identical");
        return;
    }
    // Bench smoke for CI: run the E10 throughput table at tiny sizes so
    // the perf harness itself is exercised on every push, and fail loudly
    // if the sequential/parallel outputs ever diverge.
    if smoke {
        let table = e10_simulator(&[64, 128], 1, E10_SEED);
        println!("{table}");
        let seq = e10_run(128, 1, E10_SEED);
        let par = e10_run(128, 4, E10_SEED);
        assert_eq!(seq.digest, par.digest, "thread count changed outputs");
        println!("smoke ok: digests match across thread counts");
        return;
    }
    let quick = args.iter().any(|a| a == "quick");
    let want = |name: &str| {
        args.is_empty() || args.iter().all(|a| a == "quick") || args.iter().any(|a| a == name)
    };
    let seed = 0x5EED;

    if want("e1") {
        let sizes: &[usize] = if quick { &[24, 32] } else { &[32, 48, 64, 96] };
        println!("{}", e1_apsp(sizes, &[0.5, 0.25], seed));
    }
    if want("e2") {
        let cases: &[(usize, usize)] = if quick {
            &[(4, 4), (6, 6)]
        } else {
            &[(4, 4), (6, 6), (8, 8), (6, 12), (10, 10)]
        };
        println!("{}", e2_figure1(cases, 0.5));
    }
    if want("e3") {
        let cases: &[(u64, usize, f64)] = if quick {
            &[(8, 4, 0.5), (16, 8, 0.5)]
        } else {
            &[
                (8, 4, 0.5),
                (16, 4, 0.5),
                (32, 4, 0.5),
                (16, 8, 0.5),
                (16, 16, 0.5),
                (16, 8, 0.25),
            ]
        };
        println!("{}", e3_pde(if quick { 64 } else { 128 }, cases, seed));
    }
    if want("e4") {
        let sizes: &[usize] = if quick { &[32] } else { &[32, 48, 64] };
        println!("{}", e4_rtc(sizes, &[1, 2, 3], seed));
    }
    if want("e5") {
        println!(
            "{}",
            e5_compact(if quick { 32 } else { 64 }, &[2, 3, 4], seed)
        );
    }
    if want("e6") {
        println!("{}", e6_truncated(if quick { 24 } else { 40 }, 3, seed));
    }
    if want("e7") {
        let sizes: &[usize] = if quick { &[32] } else { &[32, 48, 64] };
        println!("{}", e7_trees(sizes, 2, seed));
    }
    if want("e8") {
        let sizes: &[usize] = if quick { &[20] } else { &[20, 30, 40] };
        println!("{}", e8_spanner(sizes, &[2, 3], seed));
    }
    if want("e9") {
        let sizes: &[usize] = if quick { &[24] } else { &[24, 32, 48] };
        println!("{}", e9_comparison(sizes, seed));
    }
    if want("e10") {
        let sizes: &[usize] = if quick {
            &[256, 1024]
        } else {
            &[1024, 4096, 16384]
        };
        println!("{}", e10_simulator(sizes, 0, E10_SEED));
    }
    if want("oracles") {
        println!("{}", oracles(if quick { 24 } else { 48 }, seed));
    }
    if want("queries") {
        // Headline rows at n = 4096 (BENCH_oracle.json workload) only in
        // the full run: the distributed builds take minutes. `queries
        // headline` runs just those rows (the tracked regression check).
        if args.iter().any(|a| a == "headline") {
            println!("{}", e11_queries(&[], true, E11_SEED));
        } else if quick {
            println!("{}", e11_queries(&[64], false, E11_SEED));
        } else {
            println!("{}", e11_queries(&[256, 1024], true, E11_SEED));
        }
    }
    if want("builds") {
        // Headline rows at n = 4096 (BENCH_builds.json workload) only on
        // request: three simulated builds per scheme take minutes.
        // `builds headline` runs just those rows.
        if args.iter().any(|a| a == "headline") {
            println!("{}", e12_builds(&[], true, E12_SEED));
        } else if quick {
            println!("{}", e12_builds(&[64], false, E12_SEED));
        } else {
            println!("{}", e12_builds(&[256, 1024], false, E12_SEED));
        }
    }
    if want("serve") {
        // Headline rows at n = 4096 (the BENCH_oracle.json cold-start
        // evidence for the arena snapshot layout) only on request: the
        // distributed builds take minutes. `serve headline` runs just
        // those rows.
        if args.iter().any(|a| a == "headline") {
            println!("{}", e13_serve(&[], true, E11_SEED));
        } else if quick {
            println!("{}", e13_serve(&[64], false, E11_SEED));
        } else {
            println!("{}", e13_serve(&[256, 1024], false, E11_SEED));
        }
    }
    if want("dynamic") {
        // Headline rows at n = 4096 (the BENCH_dynamic.json repair-vs-
        // rebuild evidence) only on request: repeated full rebuilds of
        // the matrix backends at that size take a while. `dynamic
        // headline` runs just those rows.
        if args.iter().any(|a| a == "headline") {
            println!("{}", e14_dynamic(&[], true, E14_SEED));
        } else if quick {
            println!("{}", e14_dynamic(&[64], false, E14_SEED));
        } else {
            println!("{}", e14_dynamic(&[128, 512], false, E14_SEED));
        }
    }
    if want("net") {
        // Headline rows at n = 4096 (the BENCH_net.json wire-cost
        // evidence next to BENCH_oracle.json) only on request: the
        // distributed builds take minutes. `net headline` runs just
        // those rows.
        if args.iter().any(|a| a == "headline") {
            println!("{}", e15_net(&[], true, E11_SEED));
        } else if quick {
            println!("{}", e15_net(&[64], false, E11_SEED));
        } else {
            println!("{}", e15_net(&[256, 1024], false, E11_SEED));
        }
    }
    if want("chaos") {
        // Headline rows at n = 1024 (the BENCH_chaos.json recovery/
        // shedding evidence) only on request: eight backends × chaos +
        // overload + recovery takes a while at size. `chaos headline`
        // runs just those rows.
        if args.iter().any(|a| a == "headline") {
            println!("{}", e16_chaos(&[], true, E16_SEED));
        } else if quick {
            println!("{}", e16_chaos(&[48], false, E16_SEED));
        } else {
            println!("{}", e16_chaos(&[128, 512], false, E16_SEED));
        }
    }
}
