//! Adversarial snapshot inputs: truncations at every byte boundary,
//! corrupted bytes and hostile length fields must surface as
//! `InvalidData` — typed
//! [`SnapshotError::Truncated`](pde_repro::congest::wire::SnapshotError)
//! for short streams — and never panic or request absurd allocations.
//! Snapshots of retired versions (1 and 2) are refused by every load
//! entry point with an error naming the rebuild.

use pde_repro::congest::arena::{Digest, SharedBytes};
use pde_repro::congest::wire::is_truncated;
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{Seed, WGraph};
use pde_repro::oracle::{Backend, Oracle, OracleBuilder};

/// Header bytes before the arena: magic, version, backend, pad, and the
/// four `u64` build metrics (n, rounds, messages, nanos).
const HEADER: usize = 4 + 2 + 1 + 1 + 4 * 8;

fn graph(seed: u64) -> WGraph {
    let mut rng = Seed(seed).rng();
    gen::gnp_connected(18, 0.22, Weights::Uniform { lo: 1, hi: 9 }, &mut rng)
}

fn snapshot(backend: Backend) -> Vec<u8> {
    let oracle = OracleBuilder::new(backend).seed(23).k(2).build(&graph(21));
    let mut bytes = Vec::new();
    oracle.save_v3(&mut bytes).unwrap();
    bytes
}

/// Absolute offset of arena section `i` in a snapshot.
fn section_at(bytes: &[u8], i: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let count = word(HEADER);
    let body = HEADER + 8 + 16 * count;
    body + word(HEADER + 8 + 16 * i)
}

/// Recomputes the trailing arena checksum, so a planted field reaches
/// the payload decoders instead of failing the integrity check.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 8;
    let mut d = Digest::new();
    d.update(&bytes[HEADER..end]);
    bytes[end..].copy_from_slice(&d.finish().to_le_bytes());
}

#[test]
fn every_one_byte_truncation_is_typed_truncated() {
    // Cut one byte at a time off the tail of a small PDOR file, through
    // every section boundary down to the empty stream: each prefix must
    // load as an error, and each error must be the *typed* truncation
    // (not a raw UnexpectedEof, not a misdiagnosed corruption). One
    // scheme backend and one matrix backend cover every section shape
    // (graphs, CSR tables, embedded tree streams, labels, matrices).
    for backend in [Backend::Compact, Backend::ApproxApsp] {
        let bytes = snapshot(backend);
        for keep in 0..bytes.len() {
            let err = match Oracle::load(&mut &bytes[..keep]) {
                Err(e) => e,
                Ok(_) => panic!("{backend}: truncation to {keep} bytes accepted"),
            };
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{backend} at {keep}: {err}"
            );
            assert!(
                is_truncated(&err),
                "{backend} at {keep}: untyped truncation: {err}"
            );
            let err = Oracle::load_bytes(&bytes[..keep]).unwrap_err();
            assert!(is_truncated(&err), "{backend} at {keep}: {err}");
        }
    }
}

#[test]
fn every_single_byte_corruption_errors_or_loads_but_never_panics() {
    // Flip each byte of a full snapshot to 0xFF ^ original: loads must
    // never panic, wrap a length into a huge allocation, or loop. The
    // header's build metrics (n, rounds, messages, nanos) are carried,
    // not validated; the arena checksum means any damage after them must
    // fail.
    for backend in [Backend::Rtc, Backend::Flooding] {
        let bytes = snapshot(backend);
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            let streamed = Oracle::load(&mut &bad[..]);
            let shared = Oracle::load_bytes(&bad);
            assert_eq!(streamed.is_ok(), shared.is_ok(), "{backend} at {at}");
            if at >= HEADER {
                assert!(
                    shared.is_err(),
                    "{backend}: corruption at {at} survived the checksum"
                );
            }
        }
    }
}

#[test]
fn adversarial_length_fields_are_invalid_data_not_aborts() {
    // Plant maximal length/count fields and re-checksum, so the payload
    // readers — not the integrity check — must reject them by bound
    // check (InvalidData) before any allocation sized by the field. The
    // BellmanFord payload leads with its node count, ApproxApsp with ε
    // and then the graph's node count.
    let mut bad = snapshot(Backend::BellmanFord);
    let at = section_at(&bad, 0);
    bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bad);
    let err = Oracle::load(&mut &bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(!is_truncated(&err), "bound check misreported as truncation");

    let mut bad = snapshot(Backend::ApproxApsp);
    let at = section_at(&bad, 1);
    bad[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    reseal(&mut bad);
    let err = Oracle::load(&mut &bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(!is_truncated(&err), "bound check misreported as truncation");

    // An adversarial section directory: huge section count.
    let mut bad = snapshot(Backend::BellmanFord);
    bad[HEADER..HEADER + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = Oracle::load_bytes(&bad).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn retired_snapshot_versions_are_invalid_data_naming_the_rebuild() {
    // Snapshots are caches of a deterministic build: a version-1 or
    // version-2 header is refused, not migrated, by every entry point.
    let current = snapshot(Backend::Rtc);
    let path = std::env::temp_dir().join(format!(
        "snapshot-adversarial-retired-{}.snap",
        std::process::id()
    ));
    for version in [1u16, 2] {
        let mut old = current.clone();
        old[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let errors = [
            Oracle::load(&mut &old[..]).unwrap_err(),
            Oracle::load_bytes(&old).unwrap_err(),
            Oracle::load_shared(SharedBytes::from_vec(old.clone())).unwrap_err(),
            Oracle::load_path(&path).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(!is_truncated(&err), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {version}")) && msg.contains("rebuild"),
                "{msg}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}
