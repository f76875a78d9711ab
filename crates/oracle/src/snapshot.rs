//! Versioned binary snapshots: `Oracle::save_v3` / `Oracle::load`.
//!
//! # Version matrix
//!
//! | version | layout | write | read |
//! |---|---|---|---|
//! | 1 | hash-table streams | — | rejected (rebuild) |
//! | 2 | flat-table wire streams | — | rejected (rebuild) |
//! | 3 | aligned arena container | [`Oracle::save_v3`] | header-validated bulk decode, derived state stored |
//!
//! Header (all little-endian, via [`congest::wire`]):
//!
//! ```text
//! magic  "PDOR"            4 bytes
//! version u16              3
//! backend u8               Backend::tag
//! pad     u8               zero — aligns the arena to 8 bytes
//! n       u64
//! rounds  u64              build metrics (summary)
//! msgs    u64
//! nanos   u64
//! payload …                backend-specific
//! ```
//!
//! The payload is one [`congest::arena`] container: a section directory,
//! 8-byte-aligned typed sections, and a trailing checksum. Loading
//! validates the directory and checksum in a single pass, then hands out
//! *zero-copy views* ([`congest::arena::SharedBytes`] slices) over the
//! large typed sections — derived state (bucket indexes, RTC long-range
//! tables) is stored in those sections rather than re-derived.
//! [`Oracle::load_shared`] is the copy-free in-memory entry point the
//! `serve` crate uses.
//!
//! Snapshots are caches of a deterministic build, not primary data, so
//! older versions are not migrated: a version-1 or version-2 header is
//! rejected with `InvalidData` naming the rebuild.
//!
//! Every map written anywhere in a payload is in sorted key order, so
//! `load` → `save_v3` reproduces the byte stream exactly, and a reloaded
//! oracle answers queries bit-identically to the one that was saved
//! (`tests/oracle_matrix.rs` pins both properties).
//!
//! Truncated inputs (a partial download, a torn write) surface as
//! `InvalidData` wrapping [`congest::wire::SnapshotError::Truncated`] —
//! test with [`congest::wire::is_truncated`] — rather than a raw
//! `UnexpectedEof`.

use crate::backends::{
    ApsOracle, BfOracle, CompactOracle, FloodOracle, Inner, PdeOracle, RtcOracle, TruncatedOracle,
    TzOracle,
};
use crate::{Backend, Oracle, OracleBuildMetrics};
use baselines::ExactTz;
use compact::{CompactScheme, TruncatedScheme};
use congest::arena::{ArenaCursor, ArenaReader, ArenaWriter, SharedBytes};
use congest::wire::{invalid_data, WireReader, WireWriter, MAX_SNAPSHOT_NODES};
use graphs::WGraph;
use pde_core::FlatTables;
use routing::RtcScheme;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PDOR";
/// The snapshot version this build writes and reads (see the module
/// docs).
const VERSION: u16 = 3;
/// Fixed header size: magic + version + backend + pad + 4 × u64 metrics.
/// The pad byte makes the arena that follows start on an 8-byte boundary.
const HEADER_BYTES: u64 = 4 + 2 + 1 + 1 + 4 * 8;

/// Serialized size in bits of a backend whose arena payload `write`
/// emits: 8 × the length of its snapshot. The arena is built in memory
/// to measure it, so this is a reporting call (eval, benches), not a
/// serving-path one.
pub(crate) fn size_bits(write: impl FnOnce(&mut ArenaWriter) -> io::Result<()>) -> u64 {
    let mut a = ArenaWriter::new();
    write(&mut a).expect("writing an in-memory arena cannot fail");
    8 * (HEADER_BYTES + a.finished_len() as u64)
}

/// Writes a file atomically: `write` streams into a uniquely named temp
/// file in the target directory (process id plus a per-process
/// sequence number), which is flushed and fsynced and only then renamed
/// over `path`. A crash at any point leaves either the old file or the
/// new one — never a torn file that a reader would reject. The directory
/// entry is fsynced after the rename (best effort: not every filesystem
/// supports opening directories) so the rename itself survives a power
/// cut. Snapshots ([`Oracle::save_path_v3`]) and the `serve` crate's
/// checkpoints are both written through here.
///
/// # Errors
///
/// `InvalidData` when `path` has no file name; otherwise the i/o failure
/// of `write`, the fsync or the rename. The temp file is removed on
/// failure.
pub fn write_atomic(
    path: &std::path::Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| invalid_data(format!("path {} has no file name", path.display())))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut sink = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut sink)?;
        let file = sink.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes the snapshot (see the module docs). With `canonical` set, the
/// volatile measurement fields (header rounds/messages/nanos and every
/// scheme-embedded round total) are written as zeros — see
/// [`crate::Oracle::artifact_bytes`].
pub(crate) fn save(oracle: &Oracle, sink: &mut dyn Write, canonical: bool) -> io::Result<()> {
    let m = *oracle.inner.as_dyn().build_metrics();
    let zero = |x: u64| if canonical { 0 } else { x };
    let mut w = WireWriter::new(sink);
    w.bytes(MAGIC)?;
    w.u16(VERSION)?;
    w.u8(m.backend.tag())?;
    w.u8(0)?; // pad: the arena starts 8-aligned
    w.usize(m.n)?;
    w.u64(zero(m.rounds))?;
    w.u64(zero(m.messages))?;
    w.u64(zero(m.build_nanos))?;
    let mut a = ArenaWriter::new();
    write_arena_payload(&oracle.inner, &mut a, canonical)?;
    a.finish(sink)
}

fn write_arena_payload(inner: &Inner, a: &mut ArenaWriter, canonical: bool) -> io::Result<()> {
    match inner {
        Inner::Pde(o) => o.write_arena(a),
        Inner::Aps(o) => o.write_arena(a),
        Inner::Rtc(o) => o.write_arena(a, canonical),
        Inner::Compact(o) => o.write_arena(a, canonical),
        Inner::Truncated(o) => o.write_arena(a, canonical),
        Inner::Tz(o) => o.write_arena(a),
        Inner::Bf(o) => o.write_arena(a),
        Inner::Flood(o) => o.write_arena(a),
    }
}

// Per-backend arena payloads. Only the distributed schemes embed round
// totals, so only they take the `canonical` flag.

impl PdeOracle {
    pub(crate) fn write_arena(&self, a: &mut ArenaWriter) -> io::Result<()> {
        a.u64s(&[self.eps.to_bits(), self.h, self.sigma as u64]);
        self.g.write_arena(a);
        self.routes.write_arena(a);
        Ok(())
    }
}

impl ApsOracle {
    pub(crate) fn write_arena(&self, a: &mut ArenaWriter) -> io::Result<()> {
        a.u64s(&[self.eps.to_bits()]);
        self.g.write_arena(a);
        a.u64s(&self.dist);
        self.routes.write_arena(a);
        Ok(())
    }
}

macro_rules! scheme_payload {
    ($($oracle:ident),*) => {$(
        impl $oracle {
            pub(crate) fn write_arena(&self, a: &mut ArenaWriter, canonical: bool) -> io::Result<()> {
                a.u64s(&[u64::from(self.k), self.eps.to_bits()]);
                self.scheme.write_arena(a, canonical)
            }
        }
    )*};
}

scheme_payload!(RtcOracle, CompactOracle, TruncatedOracle);

impl TzOracle {
    pub(crate) fn write_arena(&self, a: &mut ArenaWriter) -> io::Result<()> {
        a.u64s(&[u64::from(self.k)]);
        // ExactTz holds no topology, so the wrapper persists the graph.
        self.g.write_arena(a);
        self.scheme.write_arena(a)
    }
}

impl BfOracle {
    pub(crate) fn write_arena(&self, a: &mut ArenaWriter) -> io::Result<()> {
        a.u64s(&[self.n as u64]);
        a.u64s(&self.dist);
        Ok(())
    }
}

impl FloodOracle {
    pub(crate) fn write_arena(&self, a: &mut ArenaWriter) -> io::Result<()> {
        a.u64s(&[self.lsdb_edges as u64]);
        self.g.write_arena(a);
        a.u64s(&self.dist);
        a.u32s(&self.next);
        Ok(())
    }
}

fn read_arena_payload(
    backend: Backend,
    metrics: OracleBuildMetrics,
    c: &mut ArenaCursor<'_>,
) -> io::Result<Inner> {
    Ok(match backend {
        Backend::Pde => {
            let meta = c.u64s()?;
            let [eps, h, sigma] = meta[..] else {
                return Err(invalid_data("PDE meta section misshapen"));
            };
            let eps = f64::from_bits(eps);
            let sigma = usize::try_from(sigma).map_err(|_| invalid_data("PDE sigma overflow"))?;
            let g = WGraph::read_arena(c)?;
            let routes = FlatTables::read_arena(c)?;
            let topo = g.to_topology();
            routes.validate(&topo)?;
            Inner::Pde(PdeOracle {
                g,
                topo,
                routes,
                eps,
                h,
                sigma,
                metrics,
            })
        }
        Backend::ApproxApsp => {
            let meta = c.u64s()?;
            let [eps] = meta[..] else {
                return Err(invalid_data("APSP meta section misshapen"));
            };
            let eps = f64::from_bits(eps);
            let g = WGraph::read_arena(c)?;
            let cells = congest::wire::seq_product(g.len(), g.len(), "distance matrix")?;
            let dist = c.u64s()?;
            if dist.len() != cells {
                return Err(invalid_data("dense matrix size mismatch"));
            }
            let routes = FlatTables::read_arena(c)?;
            let topo = g.to_topology();
            routes.validate(&topo)?;
            Inner::Aps(ApsOracle {
                g,
                topo,
                dist,
                routes,
                eps,
                metrics,
            })
        }
        Backend::Rtc => {
            let (k, eps) = read_scheme_meta(c)?;
            let scheme = RtcScheme::read_arena(c)?;
            Inner::Rtc(RtcOracle {
                scheme,
                k,
                eps,
                metrics,
            })
        }
        Backend::Compact => {
            let (k, eps) = read_scheme_meta(c)?;
            let scheme = CompactScheme::read_arena(c)?;
            Inner::Compact(CompactOracle {
                scheme,
                k,
                eps,
                metrics,
            })
        }
        Backend::Truncated => {
            let (k, eps) = read_scheme_meta(c)?;
            let scheme = TruncatedScheme::read_arena(c)?;
            Inner::Truncated(TruncatedOracle {
                scheme,
                k,
                eps,
                metrics,
            })
        }
        Backend::ExactTz => {
            let meta = c.u64s()?;
            let [k] = meta[..] else {
                return Err(invalid_data("TZ meta section misshapen"));
            };
            let k = u32::try_from(k).map_err(|_| invalid_data("TZ k overflow"))?;
            let g = WGraph::read_arena(c)?;
            let scheme = ExactTz::read_arena(c)?;
            let topo = g.to_topology();
            Inner::Tz(TzOracle {
                g,
                topo,
                scheme,
                k,
                metrics,
            })
        }
        Backend::BellmanFord => {
            let meta = c.u64s()?;
            let [n] = meta[..] else {
                return Err(invalid_data("BF meta section misshapen"));
            };
            let n = usize::try_from(n).map_err(|_| invalid_data("BF n overflow"))?;
            if n > MAX_SNAPSHOT_NODES {
                return Err(invalid_data(format!("snapshot claims {n} nodes")));
            }
            let cells = congest::wire::seq_product(n, n, "distance matrix")?;
            let dist = c.u64s()?;
            if dist.len() != cells {
                return Err(invalid_data("dense matrix size mismatch"));
            }
            Inner::Bf(BfOracle { n, dist, metrics })
        }
        Backend::Flooding => {
            let meta = c.u64s()?;
            let [lsdb] = meta[..] else {
                return Err(invalid_data("flooding meta section misshapen"));
            };
            let lsdb_edges =
                usize::try_from(lsdb).map_err(|_| invalid_data("LSDB size overflow"))?;
            let g = WGraph::read_arena(c)?;
            let cells = congest::wire::seq_product(g.len(), g.len(), "distance matrix")?;
            let dist = c.u64s()?;
            let next = c.u32s()?;
            if dist.len() != cells || next.len() != cells {
                return Err(invalid_data("dense matrix size mismatch"));
            }
            for &raw in &next {
                if raw != u32::MAX && raw as usize >= g.len() {
                    return Err(invalid_data(format!("first hop {raw} out of range")));
                }
            }
            let topo = g.to_topology();
            Inner::Flood(FloodOracle {
                g,
                topo,
                dist,
                next,
                lsdb_edges,
                metrics,
            })
        }
    })
}

fn read_scheme_meta(c: &mut ArenaCursor<'_>) -> io::Result<(u32, f64)> {
    let meta = c.u64s()?;
    let [k, eps] = meta[..] else {
        return Err(invalid_data("scheme meta section misshapen"));
    };
    let k = u32::try_from(k).map_err(|_| invalid_data("scheme k overflow"))?;
    Ok((k, f64::from_bits(eps)))
}

pub(crate) fn load(source: &mut dyn Read) -> io::Result<Oracle> {
    load_inner(source).map_err(congest::wire::map_truncation)
}

/// Loads an oracle from a borrowed in-memory snapshot buffer. The bytes
/// are copied once into an owned buffer so the oracle can keep views
/// into them; callers that already hold the snapshot as a
/// [`SharedBytes`] should use [`load_shared`] and skip that copy.
pub(crate) fn load_bytes(buf: &[u8]) -> io::Result<Oracle> {
    load_shared(SharedBytes::from_vec(buf.to_vec()))
}

/// Loads an oracle from a shared in-memory snapshot buffer — the
/// zero-copy path: the header and section directory are validated, and
/// the oracle's tables are views into `bytes`; no payload bytes are moved
/// at all.
pub(crate) fn load_shared(bytes: SharedBytes) -> io::Result<Oracle> {
    load_shared_inner(bytes).map_err(congest::wire::map_truncation)
}

fn load_shared_inner(bytes: SharedBytes) -> io::Result<Oracle> {
    // Reading from a byte slice advances it, so after the header `rest`
    // is exactly the arena body, shared in place.
    let mut rest = bytes.as_slice();
    let metrics = read_header(&mut rest)?;
    let off = bytes.len() - rest.len();
    finish(bytes.slice(off..bytes.len()), metrics)
}

fn load_inner(source: &mut dyn Read) -> io::Result<Oracle> {
    let metrics = read_header(source)?;
    let mut body = Vec::new();
    source.read_to_end(&mut body)?;
    finish(SharedBytes::from_vec(body), metrics)
}

fn read_header(source: &mut dyn Read) -> io::Result<OracleBuildMetrics> {
    let mut r = WireReader::new(source);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(invalid_data("not an oracle snapshot (bad magic)"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(invalid_data(format!(
            "unsupported snapshot version {version} (expected {VERSION}); \
             snapshots are build caches: rebuild the oracle with this binary and re-save"
        )));
    }
    let tag = r.u8()?;
    let backend =
        Backend::from_tag(tag).ok_or_else(|| invalid_data(format!("unknown backend tag {tag}")))?;
    if r.u8()? != 0 {
        return Err(invalid_data("nonzero pad byte in snapshot header"));
    }
    Ok(OracleBuildMetrics {
        backend,
        n: r.usize()?,
        rounds: r.u64()?,
        messages: r.u64()?,
        build_nanos: r.u64()?,
    })
}

fn finish(body: SharedBytes, metrics: OracleBuildMetrics) -> io::Result<Oracle> {
    let reader = ArenaReader::parse(body)?;
    let mut c = reader.cursor();
    let inner = read_arena_payload(metrics.backend, metrics, &mut c)?;
    c.expect_end()?;
    Ok(Oracle { inner })
}
