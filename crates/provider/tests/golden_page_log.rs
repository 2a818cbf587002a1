//! Golden-format check for the provider page log.
//!
//! `fixtures/pages.g0.log` was written by an earlier build of
//! `MmapBackend` with the sequence in [`write_sequence`]: two pages, each
//! sealed by its own commit marker, then the aftermath of a crash in the
//! middle of a batch — a tombstone over a failed append and a complete
//! page record that no marker covers. The crash tests only replay files
//! written by the same build, so they cannot see format drift; these
//! tests pin the bytes.

use blobseer_proto::tree::PageKey;
use blobseer_proto::{BlobId, WriteId};
use blobseer_provider::{MmapBackend, StorageBackend};
use blobseer_util::recordlog::{
    encode_header, payload_digest, write_at, REC_HEADER, TOMBSTONE_MAGIC,
};
use blobseer_util::PageBuf;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

const FIXTURE: &[u8] = include_bytes!("fixtures/pages.g0.log");

/// Page-log size the fixture was written with (the file is pre-sized).
const CAP: u64 = 4096;

/// Page-record magic, "BSPGLOG2", spelled out so a change to the
/// backend's constant cannot pass unnoticed.
const PAGE_MAGIC: u64 = 0x4253_5047_4c4f_4732;

fn key(index: u64) -> PageKey {
    PageKey {
        blob: BlobId(1),
        write: WriteId(7),
        index,
    }
}

fn page(index: u64, len: usize) -> PageBuf {
    PageBuf::from_vec(
        (0..len)
            .map(|j| (j as u8).wrapping_mul(31).wrapping_add(index as u8 * 7))
            .collect(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("golden-page-log-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The sequence the fixture holds: pages 0 and 1 appended through the
/// backend, then a 64-byte tombstone and page 2's record handcrafted
/// past the last marker. Returns the log file's path.
fn write_sequence(dir: &Path) -> PathBuf {
    let b = MmapBackend::open(dir, CAP).unwrap();
    b.ingest(&key(0), &page(0, 300), None).unwrap();
    b.ingest(&key(1), &page(1, 200), None).unwrap();
    let tail = b.log_bytes();
    drop(b);
    let path = dir.join("pages.g0.log");
    let f = OpenOptions::new().write(true).open(&path).unwrap();
    write_at(&f, &encode_header(TOMBSTONE_MAGIC, 0, 0, 0, 64, 0), tail).unwrap();
    let at = tail + REC_HEADER + 64;
    let p2 = page(2, 100);
    let k2 = key(2);
    let header = encode_header(
        PAGE_MAGIC,
        k2.blob.0,
        k2.write.0,
        k2.index,
        p2.len() as u64,
        payload_digest(p2.as_slice()),
    );
    write_at(&f, &header, at).unwrap();
    write_at(&f, p2.as_slice(), at + REC_HEADER).unwrap();
    path
}

#[test]
fn fixture_replays_exactly_the_committed_pages() {
    let dir = temp_dir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("pages.g0.log"), FIXTURE).unwrap();
    let b = MmapBackend::open(&dir, CAP).unwrap();
    let recovered = b.recover().unwrap();
    assert_eq!(
        recovered,
        vec![(key(0), page(0, 300)), (key(1), page(1, 200))],
        "the two sealed pages, in order; the tail after the last marker is dropped"
    );
    let durable = (REC_HEADER + 300 + REC_HEADER) + (REC_HEADER + 200 + REC_HEADER);
    assert_eq!(b.log_bytes(), durable, "appends resume at the last marker");
    // The next append overwrites the uncommitted tail and commits.
    b.ingest(&key(3), &page(3, 64), None).unwrap();
    drop(b);
    let b = MmapBackend::open(&dir, CAP).unwrap();
    let recovered = b.recover().unwrap();
    assert_eq!(recovered.len(), 3);
    assert_eq!(recovered[2], (key(3), page(3, 64)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_sequence_writes_identical_bytes() {
    let dir = temp_dir("rewrite");
    let path = write_sequence(&dir);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), FIXTURE.len());
    assert!(
        bytes == FIXTURE,
        "page-log bytes drifted from the golden fixture"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
