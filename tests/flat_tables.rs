//! Property-based tests for the flat SoA query tables that replaced the
//! hash maps on every oracle hot path (`pde_core::tables`): dense and CSR
//! [`PairTable`] lookups must agree with a `HashMap` model across random
//! probes — including misses and out-of-range keys — and [`FlatTables`]
//! lookups with a per-node `HashMap` model, with byte-identical
//! round-trips through the snapshot arena.

use pde_repro::congest::arena::{ArenaCursor, ArenaReader, ArenaWriter, SharedBytes};
use pde_repro::graphs::NodeId;
use pde_repro::pde_core::tables::{FlatTables, PairTable};
use pde_repro::pde_core::{RouteInfo, RouteTable};
use proptest::prelude::*;
use std::collections::HashMap;

/// Writes one table into an arena and reads it back, returning the
/// container bytes and the decoded table.
fn arena_round_trip<T>(
    write: impl Fn(&mut ArenaWriter),
    read: impl Fn(&mut ArenaCursor<'_>) -> std::io::Result<T>,
) -> (Vec<u8>, T) {
    let mut a = ArenaWriter::new();
    write(&mut a);
    let mut buf = Vec::new();
    a.finish(&mut buf).unwrap();
    let r = ArenaReader::parse(SharedBytes::from_vec(buf.clone())).unwrap();
    let mut c = r.cursor();
    let back = read(&mut c).unwrap();
    c.expect_end().unwrap();
    (buf, back)
}

/// A generated case: side length `k`, unique in-range pair entries, and
/// probe keys (deliberately allowed to fall outside `k`, which must
/// behave as a miss, matching the `HashMap` model).
type PairCase = (usize, Vec<(u32, u32, u64)>, Vec<(usize, usize)>);

fn pair_entries() -> impl Strategy<Value = PairCase> {
    (1usize..=40).prop_flat_map(|k| {
        let entries = proptest::collection::vec(
            ((0..k as u32), (0..k as u32), 0u64..1_000_000),
            0..(2 * k).min(60),
        );
        let probes = proptest::collection::vec(((0..k + 3), (0..k + 3)), 40);
        (Just(k), entries, probes).prop_map(|(k, raw, probes)| {
            // Deduplicate keys, first writer wins (the builders never
            // produce duplicates; PairTable asserts on them).
            let mut seen = HashMap::new();
            for (r, c, v) in raw {
                seen.entry((r, c)).or_insert(v);
            }
            let mut entries: Vec<(u32, u32, u64)> =
                seen.into_iter().map(|((r, c), v)| (r, c, v)).collect();
            entries.sort_unstable();
            (k, entries, probes)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense and CSR representations both agree with the `HashMap` model
    /// on every probe, hits and misses alike.
    #[test]
    fn pair_table_reps_agree_with_hashmap_model(case in pair_entries()) {
        let (k, entries, probes) = case;
        let model: HashMap<(usize, usize), u64> = entries
            .iter()
            .map(|&(r, c, v)| ((r as usize, c as usize), v))
            .collect();
        let dense = PairTable::dense(k, &entries);
        let csr = PairTable::csr(k, &entries);
        let auto = PairTable::auto(k, &entries);
        prop_assert_eq!(dense.len(), entries.len());
        prop_assert_eq!(csr.len(), entries.len());
        for &(r, c) in &probes {
            let want = model.get(&(r, c)).copied();
            prop_assert_eq!(dense.get(r, c), want, "dense ({}, {})", r, c);
            prop_assert_eq!(csr.get(r, c), want, "csr ({}, {})", r, c);
            prop_assert_eq!(auto.get(r, c), want, "auto ({}, {})", r, c);
        }
        // And over the full (plus one out-of-range rim) key square.
        for r in 0..k + 1 {
            for c in 0..k + 1 {
                prop_assert_eq!(dense.get(r, c), model.get(&(r, c)).copied());
                prop_assert_eq!(csr.get(r, c), model.get(&(r, c)).copied());
            }
        }
    }

    /// Both representations round-trip through the snapshot arena
    /// byte-identically, preserving the representation tag.
    #[test]
    fn pair_table_round_trips_byte_identically(case in pair_entries()) {
        let (k, entries, _probes) = case;
        for table in [PairTable::dense(k, &entries), PairTable::csr(k, &entries)] {
            let (buf, back) = arena_round_trip(|a| table.write_arena(a), PairTable::read_arena);
            prop_assert_eq!(&table, &back);
            let (buf2, _) = arena_round_trip(|a| back.write_arena(a), PairTable::read_arena);
            prop_assert_eq!(buf, buf2);
            // Iteration agrees with construction.
            let got: Vec<(u32, u32, u64)> = table.iter().collect();
            prop_assert_eq!(got, entries.clone());
        }
    }

    /// Flat per-node route rows agree with the hash tables they were
    /// flattened from, across hits and misses.
    #[test]
    fn flat_tables_agree_with_route_table_model(
        tables in proptest::collection::vec(
            proptest::collection::vec(((0u32..30), 0u64..1_000, (0u32..4), (0u32..3)), 0..12),
            1..8,
        ),
        probes in proptest::collection::vec(((0u32..10), (0u32..33)), 60),
    ) {
        let model: Vec<RouteTable> = tables
            .iter()
            .map(|rows| {
                let mut t = RouteTable::default();
                for &(src, est, port, level) in rows {
                    t.insert(NodeId(src), RouteInfo { est, port, level });
                }
                t
            })
            .collect();
        let flat = FlatTables::from_tables(&model);
        prop_assert_eq!(flat.len_nodes(), model.len());
        for &(v, s) in &probes {
            let v = NodeId(v % model.len() as u32);
            let want = model[v.index()].get(&NodeId(s));
            let got = flat.get(v, NodeId(s));
            prop_assert_eq!(want.map(|r| (r.est, r.port)),
                got.map(|e| (e.est, e.port)), "({}, {})", v, s);
        }
        // The cold level array round-trips through unflatten.
        prop_assert_eq!(pde_repro::pde_core::tables::unflatten(&flat), model.clone());
        // Rows enumerate exactly the model's entries, sorted by source.
        for (v, table) in model.iter().enumerate() {
            let row = flat.row_vec(NodeId(v as u32));
            prop_assert_eq!(row.len(), table.len());
            prop_assert!(row.windows(2).all(|w| w[0].src < w[1].src));
        }
        // Byte-identical codec round-trip.
        let (buf, back) = arena_round_trip(|a| flat.write_arena(a), FlatTables::read_arena);
        prop_assert_eq!(&flat, &back);
        let (buf2, _) = arena_round_trip(|a| back.write_arena(a), FlatTables::read_arena);
        prop_assert_eq!(buf, buf2);
    }
}
