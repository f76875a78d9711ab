//! Flat structure-of-arrays query tables.
//!
//! The PDE builders produce hash-keyed state ([`RouteTable`] per node,
//! `(row, col)`-keyed pair maps for skeleton-graph levels) because hashing
//! is the right shape *during* a merge. Serving millions of queries is a
//! different regime: every probe should be a short, predictable chain of
//! loads from dense, contiguous memory — no hashing, no per-query
//! allocation. This module holds the two shared layouts every scheme's
//! query side now uses:
//!
//! * [`FlatTables`] — per-node route rows in one CSR arena, each row
//!   sorted by source id. Point lookups are a bucket probe over the
//!   near-uniform node-id keys (see [`FlatTables::get`]); "iterate
//!   everything `v` knows" is a contiguous walk. The arrays live behind
//!   zero-copy [`congest::arena`] views (entries as packed 16-byte
//!   little-endian records), so a snapshot load *is* the in-memory
//!   form: no decode pass, no copy.
//! * [`PairTable`] — a `k × k` partial map in either dense
//!   (`row * k + col` indexed, [`ABSENT`] sentinel) or row-sorted CSR
//!   form; [`PairTable::auto`] picks dense unless the table is large and
//!   sparse. Lookups agree exactly with the `HashMap` model they replace
//!   (pinned by proptests in `tests/flat_tables.rs`).
//!
//! Both layouts serialize *directly* (their snapshot bytes are the
//! in-memory layout, already canonical because rows are sorted), so
//! reload → re-save stays byte-identical without any sort-on-write step.

use crate::pde::{RouteInfo, RouteTable};
use congest::arena::{SharedBytes, U32View};
use congest::wire::invalid_data;
use congest::{NodeId, Port, Topology};
use std::io;

/// Sentinel for "no entry" in dense [`PairTable`] storage (never a valid
/// stored value: estimates in pair maps are finite and next-hop indices
/// fit `u32`).
pub const ABSENT: u64 = u64::MAX;

/// One flattened routing entry: the destination source, the estimate and
/// the out-port — the fields query loops actually read, packed into 16
/// bytes. The [`RouteInfo::level`] payload is kept in a parallel cold
/// array ([`FlatTables::levels`]): no query path touches it, so it would
/// only inflate the hot arena's cache traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlatEntry {
    /// Source node id (the row's sort key).
    pub src: u32,
    /// Port towards the neighbor that announced the estimate.
    pub port: Port,
    /// Distance estimate for this source.
    pub est: u64,
}

/// Zero-copy view of packed 16-byte [`FlatEntry`] records
/// (`src: u32 | port: u32 | est: u64`, all little-endian).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EntryView(SharedBytes);

/// Bytes per packed [`FlatEntry`] record.
const ENTRY_BYTES: usize = 16;

impl EntryView {
    /// Wraps `bytes` as packed entry records.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the byte length is not a multiple of 16.
    pub fn new(bytes: SharedBytes) -> io::Result<Self> {
        if !bytes.len().is_multiple_of(ENTRY_BYTES) {
            return Err(invalid_data("entry section length not a multiple of 16"));
        }
        Ok(EntryView(bytes))
    }

    /// Encodes `xs` into a fresh owned view (the build-side constructor).
    pub fn from_entries(xs: &[FlatEntry]) -> Self {
        let mut buf = Vec::with_capacity(xs.len() * ENTRY_BYTES);
        for e in xs {
            buf.extend_from_slice(&e.src.to_le_bytes());
            buf.extend_from_slice(&e.port.to_le_bytes());
            buf.extend_from_slice(&e.est.to_le_bytes());
        }
        EntryView(SharedBytes::from_vec(buf))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.len() / ENTRY_BYTES
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Decodes record `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds, exactly like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> FlatEntry {
        let b = &self.0.as_slice()[i * ENTRY_BYTES..(i + 1) * ENTRY_BYTES];
        FlatEntry {
            src: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            port: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
            est: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
        }
    }

    /// Iterates the records of `range`.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds, exactly like slice indexing.
    pub fn iter_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = FlatEntry> + '_ {
        self.0.as_slice()[range.start * ENTRY_BYTES..range.end * ENTRY_BYTES]
            .chunks_exact(ENTRY_BYTES)
            .map(|b| FlatEntry {
                src: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
                port: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
                est: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            })
    }

    /// Iterates all records in order.
    pub fn iter(&self) -> impl Iterator<Item = FlatEntry> + '_ {
        self.iter_range(0..self.len())
    }

    /// The backing bytes (for re-serialization).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
}

/// Per-node routing tables flattened into one source-sorted entry arena
/// with CSR row offsets — the cache-friendly replacement for
/// `Vec<RouteTable>` on every query path. Every array is a zero-copy
/// view: a table decoded from a snapshot keeps pointing into the
/// snapshot buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatTables {
    /// `starts[v]..starts[v + 1]` delimits node `v`'s row (`n + 1` offsets).
    starts: U32View,
    /// All rows back to back, each sorted by `src`, as packed records.
    entries: EntryView,
    /// Ladder level of each entry, arena-aligned (cold: codec-only).
    levels: U32View,
    /// Concatenated per-row bucket offset tables: row `v` owns
    /// `bucket_starts[v]..bucket_starts[v+1]` slots, one per high-bits
    /// bucket plus a terminator, each holding the row-relative index of
    /// the bucket's first entry.
    buckets: U32View,
    /// `bucket_starts[v]..bucket_starts[v+1]` delimits `v`'s slice of
    /// [`FlatTables::buckets`] (`n + 1` offsets).
    bucket_starts: U32View,
    /// Per-row right-shift mapping a source id to its bucket.
    shifts: SharedBytes,
}

impl FlatTables {
    /// Flattens per-node hash tables into sorted CSR rows.
    ///
    /// # Panics
    ///
    /// Panics if the total entry count exceeds `u32::MAX` (no realistic
    /// scheme gets close; offsets stay 4 bytes on purpose).
    pub fn from_tables(tables: &[RouteTable]) -> Self {
        let mut starts = Vec::with_capacity(tables.len() + 1);
        starts.push(0u32);
        let total = tables.iter().map(|t| t.len()).sum();
        let mut entries: Vec<FlatEntry> = Vec::with_capacity(total);
        let mut levels: Vec<u32> = Vec::with_capacity(total);
        let mut scratch: Vec<(FlatEntry, u32)> = Vec::new();
        for table in tables {
            scratch.clear();
            scratch.extend(table.iter().map(|(&s, r)| {
                (
                    FlatEntry {
                        src: s.0,
                        port: r.port,
                        est: r.est,
                    },
                    r.level,
                )
            }));
            scratch.sort_unstable_by_key(|(e, _)| e.src);
            entries.extend(scratch.iter().map(|&(e, _)| e));
            levels.extend(scratch.iter().map(|&(_, l)| l));
            starts.push(u32::try_from(entries.len()).expect("flat table fits u32 offsets"));
        }
        FlatTables::from_parts(starts, entries, levels)
    }

    /// Assembles a table from validated offsets + sorted rows, computing
    /// the derived per-row bucket index (see [`FlatTables::get`]).
    fn from_parts(starts: Vec<u32>, entries: Vec<FlatEntry>, levels: Vec<u32>) -> Self {
        let n = starts.len().saturating_sub(1);
        let mut buckets: Vec<u32> = Vec::with_capacity(2 * entries.len() + n + 1);
        let mut bucket_starts = Vec::with_capacity(n + 1);
        let mut shifts = Vec::with_capacity(n);
        bucket_starts.push(0u32);
        for w in starts.windows(2) {
            let row = &entries[w[0] as usize..w[1] as usize];
            // One bucket per entry (rounded up to a power of two): with
            // near-uniform node-id keys the expected occupancy is ≤ 1.
            let count = row.len().next_power_of_two().max(1);
            let max_src = row.iter().map(|e| e.src).max().unwrap_or(0);
            let key_bits = 32 - max_src.leading_zeros();
            let shift = key_bits.saturating_sub(count.trailing_zeros());
            shifts.push(shift as u8);
            let base = buckets.len();
            buckets.resize(base + count + 1, 0);
            let mut cur = 0usize;
            for (i, e) in row.iter().enumerate() {
                let b = e.src.checked_shr(shift).unwrap_or(0) as usize;
                while cur <= b {
                    buckets[base + cur] = i as u32;
                    cur += 1;
                }
            }
            while cur <= count {
                buckets[base + cur] = row.len() as u32;
                cur += 1;
            }
            bucket_starts
                .push(u32::try_from(buckets.len()).expect("bucket index fits u32 offsets"));
        }
        FlatTables {
            starts: U32View::from_vals(&starts),
            entries: EntryView::from_entries(&entries),
            levels: U32View::from_vals(&levels),
            buckets: U32View::from_vals(&buckets),
            bucket_starts: U32View::from_vals(&bucket_starts),
            shifts: SharedBytes::from_vec(shifts),
        }
    }

    /// Number of nodes covered (rows).
    #[inline]
    pub fn len_nodes(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Total entries across all rows.
    #[inline]
    pub fn len_entries(&self) -> usize {
        self.entries.len()
    }

    /// Length of node `v`'s row.
    #[inline]
    pub fn row_len(&self, v: NodeId) -> usize {
        self.row_range(v).len()
    }

    /// Iterates node `v`'s row: every `(src, est, port)` it knows, sorted
    /// by source id.
    #[inline]
    pub fn row_iter(&self, v: NodeId) -> impl Iterator<Item = FlatEntry> + '_ {
        self.entries.iter_range(self.row_range(v))
    }

    /// Node `v`'s row decoded into a `Vec` (tests and cold paths).
    pub fn row_vec(&self, v: NodeId) -> Vec<FlatEntry> {
        self.row_iter(v).collect()
    }

    /// Point lookup: `v`'s entry for source `s`, if present.
    ///
    /// Resolves the row's metadata and delegates to one
    /// [`RowCursor::get`] probe — batch kernels that issue many lookups
    /// against the same row should hold a [`FlatTables::cursor`] instead,
    /// which resolves that metadata once per row group.
    #[inline]
    pub fn get(&self, v: NodeId, s: NodeId) -> Option<FlatEntry> {
        self.cursor(v).get(s)
    }

    /// Resolves node `v`'s row metadata (CSR start, bucket index base,
    /// shift) once, returning a cursor for repeated key probes against
    /// that row. This is the schedule-aware half of the batch kernel:
    /// a source-grouped batch resolves one cursor per group instead of
    /// re-deriving the metadata per query.
    #[inline]
    pub fn cursor(&self, v: NodeId) -> RowCursor<'_> {
        let range = self.row_range(v);
        let base = self.bucket_starts.get(v.index()) as usize;
        let slots = (self.bucket_starts.get(v.index() + 1) as usize).saturating_sub(base);
        RowCursor {
            tab: self,
            row_start: range.start,
            row_len: range.end.saturating_sub(range.start),
            bucket_base: base,
            slots,
            shift: u32::from(self.shifts.as_slice()[v.index()]),
        }
    }

    /// Branchless key scan over the packed records
    /// `[start, start + len)`: compares the low-`u32` source key of each
    /// 16-byte chunk and keeps the last hit — row keys are unique
    /// (strictly sorted), so "last" and "first" coincide on valid data.
    /// The loop carries no early exit and no data-dependent branch, so
    /// LLVM unrolls and vectorizes it over the AoS layout (the workspace
    /// forbids `unsafe`, so this shape — not intrinsics — is the whole
    /// trick).
    #[inline]
    fn scan_keys(&self, start: usize, len: usize, key: u32) -> Option<FlatEntry> {
        let bytes = &self.entries.as_bytes()[start * ENTRY_BYTES..(start + len) * ENTRY_BYTES];
        let mut hit = usize::MAX;
        for (i, rec) in bytes.chunks_exact(ENTRY_BYTES).enumerate() {
            let word = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes"));
            hit = if word as u32 == key { i } else { hit };
        }
        (hit != usize::MAX).then(|| self.entries.get(start + hit))
    }

    /// The index range of node `v`'s row within the entry arena (for
    /// callers that keep per-entry side tables aligned with the arena,
    /// e.g. pre-resolved skeleton indices; see
    /// [`FlatTables::entries_in`]).
    #[inline]
    pub fn row_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.starts.get(v.index()) as usize..self.starts.get(v.index() + 1) as usize
    }

    /// Decodes arena entry `i` (rows back to back; see
    /// [`FlatTables::row_range`]).
    #[inline]
    pub fn entry(&self, i: usize) -> FlatEntry {
        self.entries.get(i)
    }

    /// Iterates the arena entries of `range` (see
    /// [`FlatTables::row_range`]).
    #[inline]
    pub fn entries_in(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = FlatEntry> + '_ {
        self.entries.iter_range(range)
    }

    /// Ladder level of each arena entry (cold data, kept out of the hot
    /// entry records; arena-aligned).
    #[inline]
    pub fn levels(&self) -> &U32View {
        &self.levels
    }

    /// Emits the table into a snapshot arena: one typed section per
    /// array, entries as packed 16-byte records, **including the derived
    /// bucket index** — a load rebuilds nothing. The sections are the views'
    /// backing bytes verbatim, so load → re-save is a passthrough.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) {
        a.section(self.starts.as_bytes());
        a.section(self.entries.as_bytes());
        a.section(self.levels.as_bytes());
        a.section(self.buckets.as_bytes());
        a.section(self.bucket_starts.as_bytes());
        a.section(self.shifts.as_slice());
    }

    /// Reads what [`FlatTables::write_arena`] wrote: six zero-copy views
    /// over the container plus O(n) shape checks on the offset arrays
    /// (CSR offsets and bucket offsets monotone and bounded). Per-entry
    /// sweeps — row sort order, per-bucket bounds — are *not* re-run
    /// here: the arena checksum owns integrity, and [`FlatTables::get`]
    /// re-checks its probe bounds so even a hostile bucket index answers
    /// with a miss rather than a panic.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed section or inconsistent
    /// shape.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let starts = c.u32v()?;
        let entries = EntryView::new(c.shared()?)?;
        let levels = c.u32v()?;
        let buckets = c.u32v()?;
        let bucket_starts = c.u32v()?;
        let shifts = c.shared()?;
        if levels.len() != entries.len() {
            return Err(invalid_data("flat table sections disagree on length"));
        }
        let n = starts
            .len()
            .checked_sub(1)
            .ok_or_else(|| invalid_data("flat table starts section empty"))?;
        if starts.get(0) != 0
            || (0..n).any(|v| starts.get(v) > starts.get(v + 1))
            || starts.get(n) as usize != entries.len()
        {
            return Err(invalid_data("flat table offsets inconsistent"));
        }
        if bucket_starts.len() != n + 1 || shifts.len() != n {
            return Err(invalid_data("flat table bucket sections misshapen"));
        }
        if bucket_starts.get(0) != 0
            || (0..n).any(|v| bucket_starts.get(v) > bucket_starts.get(v + 1))
            || bucket_starts.get(n) as usize != buckets.len()
        {
            return Err(invalid_data("flat table bucket offsets inconsistent"));
        }
        Ok(FlatTables {
            starts,
            entries,
            levels,
            buckets,
            bucket_starts,
            shifts,
        })
    }

    /// Validates rows against the topology they will be queried on: one
    /// row per node, sources in range, ports within each node's degree
    /// ([`Topology::neighbor`] only debug-asserts its port, so a corrupted
    /// port would silently resolve to a wrong neighbor in release builds).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any out-of-range source or port.
    pub fn validate(&self, topo: &Topology) -> io::Result<()> {
        if self.len_nodes() != topo.len() {
            return Err(invalid_data("flat table row count mismatch"));
        }
        for v in topo.nodes() {
            let deg = topo.degree(v) as u32;
            for e in self.row_iter(v) {
                if e.src as usize >= topo.len() {
                    return Err(invalid_data(format!(
                        "flat route source {} out of range",
                        e.src
                    )));
                }
                if e.port >= deg {
                    return Err(invalid_data(format!(
                        "flat route port {} out of range at {v} (degree {deg})",
                        e.port
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Rows at or below this many entries skip the bucket index entirely:
/// the whole row fits in a couple of cache lines, and one branchless
/// [`FlatTables::scan_keys`] sweep is cheaper than the bucket probe's
/// chain of dependent loads (bucket offsets → shift → bucket pair →
/// entries). Measured on the E11 compact@1024 workload, whose tiny rows
/// made the bucket index *overhead* dominate PR 4's gains.
const SMALL_ROW_SCAN: usize = 16;

/// Resolved per-row lookup state for [`FlatTables`]: the CSR start, row
/// length, bucket index base and shift of one node's row, captured once
/// by [`FlatTables::cursor`] so a source-grouped batch re-reads none of
/// it per query.
#[derive(Clone, Copy, Debug)]
pub struct RowCursor<'a> {
    tab: &'a FlatTables,
    row_start: usize,
    row_len: usize,
    bucket_base: usize,
    slots: usize,
    shift: u32,
}

impl RowCursor<'_> {
    /// Length of the cursor's row.
    #[inline]
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Point lookup within the cursor's row (same answers as
    /// [`FlatTables::get`] on the same row, by construction).
    ///
    /// Small rows take one branchless sweep of the whole row; larger
    /// rows take the bucket probe — one bucket-offset pair load plus a
    /// branchless sweep of the (expected ≤ 1-entry) bucket slice. Probe
    /// bounds are re-checked as in [`FlatTables::get`]: the arena
    /// checksum owns integrity, and a bucket that still points outside
    /// its row answers with a miss, never a panic.
    #[inline]
    pub fn get(&self, s: NodeId) -> Option<FlatEntry> {
        let key = s.0;
        if self.row_len <= SMALL_ROW_SCAN {
            if self.row_len == 0 {
                return None;
            }
            return self.tab.scan_keys(self.row_start, self.row_len, key);
        }
        let b = key.checked_shr(self.shift).unwrap_or(0) as usize;
        if b + 1 >= self.slots {
            return None; // key above every bucket
        }
        let lo = self.tab.buckets.get(self.bucket_base + b) as usize;
        let hi = self.tab.buckets.get(self.bucket_base + b + 1) as usize;
        if lo > hi || hi > self.row_len {
            return None;
        }
        self.tab.scan_keys(self.row_start + lo, hi - lo, key)
    }
}

/// Convenience: flatten each run of a multi-level route archive.
pub fn flatten_runs(runs: &[Vec<RouteTable>]) -> Vec<FlatTables> {
    runs.iter()
        .map(|run| FlatTables::from_tables(run))
        .collect()
}

/// Pre-resolves each arena entry's source through a
/// [`graphs::DenseIndex`] (sentinel [`graphs::DenseIndex::NONE`] for
/// non-members) so query loops read an arena-aligned side table instead
/// of probing the index per entry.
pub fn resolve_entry_indices(tables: &FlatTables, index: &graphs::DenseIndex) -> Vec<u32> {
    tables
        .entries_in(0..tables.len_entries())
        .map(|e| {
            index
                .get(NodeId(e.src))
                .map_or(graphs::DenseIndex::NONE, |i| i as u32)
        })
        .collect()
}

/// Rebuilds the hash-table form of one flat row set (used by builders
/// that still merge through [`RouteTable`], and by tests).
pub fn unflatten(ft: &FlatTables) -> Vec<RouteTable> {
    (0..ft.len_nodes())
        .map(|v| {
            let v = NodeId::from_index(v);
            let mut t = RouteTable::default();
            let range = ft.row_range(v);
            for (e, level) in ft
                .entries_in(range.clone())
                .zip(ft.levels().iter_range(range))
            {
                t.insert(
                    NodeId(e.src),
                    RouteInfo {
                        est: e.est,
                        port: e.port,
                        level,
                    },
                );
            }
            t
        })
        .collect()
}

/// A partial `k × k` map keyed by `(row, col)` pairs — the flat
/// replacement for `HashMap<(usize, usize), u64>` in the truncated
/// hierarchy's upper levels.
///
/// Dense form is one `k²` value array with [`ABSENT`] sentinels (a lookup
/// is a single indexed load); CSR form stores row-sorted `(col, value)`
/// pairs (a lookup is a binary search within the row). Representation is
/// part of the value: snapshots record it, so reload → re-save is
/// byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairTable {
    /// `values[row * k + col]`, [`ABSENT`] where no entry exists.
    Dense {
        /// Side length `k`.
        k: usize,
        /// `k²` values.
        values: Vec<u64>,
    },
    /// Row-sorted compressed sparse rows.
    Csr {
        /// Side length `k`.
        k: usize,
        /// `k + 1` row offsets.
        starts: Vec<u32>,
        /// Column ids, sorted within each row.
        cols: Vec<u32>,
        /// Values, parallel to `cols`.
        vals: Vec<u64>,
    },
}

/// Above this many cells, [`PairTable::auto`] considers CSR.
const DENSE_CELL_FLOOR: usize = 1 << 12;
/// `auto` stays dense while entries fill at least 1/8 of the cells.
const DENSE_FILL_SHIFT: u32 = 3;

impl PairTable {
    /// Builds the representation [`PairTable::auto`] deems best: dense for
    /// small or well-filled tables, CSR for large sparse ones. The rule is
    /// deterministic (a pure function of `k` and the entry count), so
    /// identical builds pick identical layouts.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range keys, duplicate keys, or [`ABSENT`] values
    /// (builder bugs, not data).
    pub fn auto(k: usize, entries: &[(u32, u32, u64)]) -> Self {
        let cells = k.saturating_mul(k);
        if cells <= DENSE_CELL_FLOOR || entries.len() >= cells >> DENSE_FILL_SHIFT {
            Self::dense(k, entries)
        } else {
            Self::csr(k, entries)
        }
    }

    /// Builds the dense representation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range keys, duplicates, or [`ABSENT`] values.
    pub fn dense(k: usize, entries: &[(u32, u32, u64)]) -> Self {
        let mut values = vec![ABSENT; k * k];
        for &(r, c, v) in entries {
            assert!(
                (r as usize) < k && (c as usize) < k,
                "pair key out of range"
            );
            assert_ne!(v, ABSENT, "ABSENT is reserved");
            let cell = &mut values[r as usize * k + c as usize];
            assert_eq!(*cell, ABSENT, "duplicate pair key ({r}, {c})");
            *cell = v;
        }
        PairTable::Dense { k, values }
    }

    /// Builds the CSR representation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range keys, duplicates, or [`ABSENT`] values.
    pub fn csr(k: usize, entries: &[(u32, u32, u64)]) -> Self {
        let mut sorted: Vec<(u32, u32, u64)> = entries.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut starts = Vec::with_capacity(k + 1);
        let mut cols = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        starts.push(0u32);
        let mut row = 0u32;
        for (i, &(r, c, v)) in sorted.iter().enumerate() {
            assert!(
                (r as usize) < k && (c as usize) < k,
                "pair key out of range"
            );
            assert_ne!(v, ABSENT, "ABSENT is reserved");
            if i > 0 {
                assert_ne!(
                    (r, c),
                    (sorted[i - 1].0, sorted[i - 1].1),
                    "duplicate pair key"
                );
            }
            while row < r {
                starts.push(cols.len() as u32);
                row += 1;
            }
            cols.push(c);
            vals.push(v);
        }
        while starts.len() < k + 1 {
            starts.push(cols.len() as u32);
        }
        PairTable::Csr {
            k,
            starts,
            cols,
            vals,
        }
    }

    /// Side length `k`.
    pub fn k(&self) -> usize {
        match self {
            PairTable::Dense { k, .. } | PairTable::Csr { k, .. } => *k,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        match self {
            PairTable::Dense { values, .. } => values.iter().filter(|&&v| v != ABSENT).count(),
            PairTable::Csr { cols, .. } => cols.len(),
        }
    }

    /// `true` if no entries are present.
    pub fn is_empty(&self) -> bool {
        match self {
            PairTable::Dense { values, .. } => values.iter().all(|&v| v == ABSENT),
            PairTable::Csr { cols, .. } => cols.is_empty(),
        }
    }

    /// The value at `(row, col)`, if present. Out-of-range keys are
    /// misses, matching the `HashMap` model.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<u64> {
        match self {
            PairTable::Dense { k, values } => {
                if row >= *k || col >= *k {
                    return None;
                }
                let v = values[row * k + col];
                (v != ABSENT).then_some(v)
            }
            PairTable::Csr {
                k,
                starts,
                cols,
                vals,
            } => {
                if row >= *k || col >= *k {
                    return None;
                }
                let lo = starts[row] as usize;
                let hi = starts[row + 1] as usize;
                cols[lo..hi]
                    .binary_search(&(col as u32))
                    .ok()
                    .map(|i| vals[lo + i])
            }
        }
    }

    /// Iterates present entries as `(row, col, value)`, row-major and
    /// column-sorted within each row.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u32, u32, u64)> + '_> {
        match self {
            PairTable::Dense { k, values } => {
                let k = *k;
                Box::new(
                    values
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| v != ABSENT)
                        .map(move |(i, &v)| ((i / k) as u32, (i % k) as u32, v)),
                )
            }
            PairTable::Csr {
                starts, cols, vals, ..
            } => Box::new((0..starts.len().saturating_sub(1)).flat_map(move |row| {
                (starts[row] as usize..starts[row + 1] as usize)
                    .map(move |i| (row as u32, cols[i], vals[i]))
            })),
        }
    }

    /// Emits the table into a snapshot arena: a `[tag, k]` meta section,
    /// then the representation's arrays as typed sections.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) {
        match self {
            PairTable::Dense { k, values } => {
                a.u64s(&[0, *k as u64]);
                a.u64s(values);
            }
            PairTable::Csr {
                k,
                starts,
                cols,
                vals,
            } => {
                a.u64s(&[1, *k as u64]);
                a.u32s(starts);
                a.u32s(cols);
                a.u64s(vals);
            }
        }
    }

    /// Reads what [`PairTable::write_arena`] wrote, validating shape
    /// (offsets monotone and bounded, columns sorted and in range).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let meta = c.u64s()?;
        let [tag, k] = meta[..] else {
            return Err(invalid_data("pair table meta section misshapen"));
        };
        let k = usize::try_from(k).map_err(|_| invalid_data("pair table k overflow"))?;
        if k > congest::wire::MAX_SNAPSHOT_NODES {
            return Err(invalid_data(format!("pair table claims k = {k}")));
        }
        match tag {
            0 => {
                let values = c.u64s()?;
                let cells = congest::wire::seq_product(k, k, "pair table")?;
                if values.len() != cells {
                    return Err(invalid_data("pair table cell count mismatch"));
                }
                Ok(PairTable::Dense { k, values })
            }
            1 => {
                let starts = c.u32s()?;
                let cols = c.u32s()?;
                let vals = c.u64s()?;
                if starts.len() != k + 1 || cols.len() != vals.len() {
                    return Err(invalid_data("pair table sections disagree on length"));
                }
                let m = cols.len();
                if starts[0] != 0
                    || starts.windows(2).any(|w| w[0] > w[1])
                    || *starts.last().expect("nonempty") as usize != m
                {
                    return Err(invalid_data("pair table offsets inconsistent"));
                }
                for row in 0..k {
                    let lo = starts[row] as usize;
                    let hi = starts[row + 1] as usize;
                    let r = &cols[lo..hi];
                    if r.windows(2).any(|w| w[0] >= w[1]) || r.iter().any(|&cv| cv as usize >= k) {
                        return Err(invalid_data("pair table row malformed"));
                    }
                }
                Ok(PairTable::Csr {
                    k,
                    starts,
                    cols,
                    vals,
                })
            }
            t => Err(invalid_data(format!("unknown pair table tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tables() -> Vec<RouteTable> {
        let mut t0 = RouteTable::default();
        t0.insert(
            NodeId(3),
            RouteInfo {
                est: 10,
                port: 1,
                level: 0,
            },
        );
        t0.insert(
            NodeId(1),
            RouteInfo {
                est: 7,
                port: 0,
                level: 2,
            },
        );
        vec![t0, RouteTable::default()]
    }

    #[test]
    fn flat_tables_sort_rows_and_look_up() {
        let ft = FlatTables::from_tables(&sample_tables());
        assert_eq!(ft.len_nodes(), 2);
        assert_eq!(ft.len_entries(), 2);
        let row = ft.row_vec(NodeId(0));
        assert_eq!(row[0].src, 1);
        assert_eq!(row[1].src, 3);
        assert_eq!(ft.get(NodeId(0), NodeId(3)).unwrap().est, 10);
        assert!(ft.get(NodeId(0), NodeId(2)).is_none());
        assert_eq!(ft.row_len(NodeId(1)), 0);
        assert_eq!(ft.entry(0), row[0]);
    }

    /// Round-trips `write` through an arena, returning the container bytes
    /// and a cursor-driven decode of them.
    fn arena_round_trip<T>(
        write: impl Fn(&mut congest::arena::ArenaWriter),
        read: impl Fn(&mut congest::arena::ArenaCursor<'_>) -> io::Result<T>,
    ) -> (Vec<u8>, T) {
        let mut a = congest::arena::ArenaWriter::new();
        write(&mut a);
        let mut buf = Vec::new();
        a.finish(&mut buf).unwrap();
        let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf.clone())).unwrap();
        let mut c = r.cursor();
        let back = read(&mut c).unwrap();
        c.expect_end().unwrap();
        (buf, back)
    }

    #[test]
    fn flat_tables_round_trip_byte_identically() {
        let ft = FlatTables::from_tables(&sample_tables());
        let (buf, back) = arena_round_trip(|a| ft.write_arena(a), FlatTables::read_arena);
        assert_eq!(ft, back);
        let (buf2, _) = arena_round_trip(|a| back.write_arena(a), FlatTables::read_arena);
        assert_eq!(buf, buf2);
        assert_eq!(unflatten(&back), sample_tables());
    }

    #[test]
    fn pair_table_reps_agree() {
        let entries = &[(0u32, 2u32, 5u64), (1, 0, 9), (1, 3, 2), (3, 3, 7)];
        let d = PairTable::dense(4, entries);
        let c = PairTable::csr(4, entries);
        for row in 0..5 {
            for col in 0..5 {
                assert_eq!(d.get(row, col), c.get(row, col), "({row}, {col})");
            }
        }
        assert_eq!(d.len(), 4);
        assert_eq!(c.len(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn pair_table_round_trips_both_reps() {
        let entries = &[(0u32, 2u32, 5u64), (1, 0, 9), (1, 3, 2), (3, 3, 7)];
        for t in [PairTable::dense(4, entries), PairTable::csr(4, entries)] {
            let (buf, back) = arena_round_trip(|a| t.write_arena(a), PairTable::read_arena);
            assert_eq!(t, back);
            let (buf2, _) = arena_round_trip(|a| back.write_arena(a), PairTable::read_arena);
            assert_eq!(buf, buf2);
        }
    }

    #[test]
    fn auto_picks_dense_for_small_and_csr_for_large_sparse() {
        assert!(matches!(
            PairTable::auto(4, &[(0, 0, 1)]),
            PairTable::Dense { .. }
        ));
        // 100×100 = 10_000 cells > floor, 1 entry ≪ 1/8 fill.
        assert!(matches!(
            PairTable::auto(100, &[(0, 0, 1)]),
            PairTable::Csr { .. }
        ));
        // Same size, well filled → dense.
        let filled: Vec<(u32, u32, u64)> = (0..100u32)
            .flat_map(|r| (0..20u32).map(move |c| (r, c, 1u64)))
            .collect();
        assert!(matches!(
            PairTable::auto(100, &filled),
            PairTable::Dense { .. }
        ));
    }
}
