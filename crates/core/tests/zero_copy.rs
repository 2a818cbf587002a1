//! End-to-end copy accounting through the full distributed stack.
//!
//! Asserts the client's copy discipline as *measured numbers*, one per
//! data-path entry point:
//!
//! * `write` copies the caller's slice exactly once, no matter how many
//!   replicas fan out (they share one `PageBuf`);
//! * `write_with` shares the caller's `PageBuf` and copies nothing;
//! * `read` copies each page exactly once, into the result `Vec`;
//! * `read_into_with` copies each page exactly once, straight into the
//!   caller's buffer;
//! * a single-page aligned `read_buf` copies **zero** bytes — the caller
//!   receives a refcount borrow of the provider's stored page; any
//!   other `read_buf` copies each page once.
//!
//! The copy test is one function on one thread, using the thread-local
//! copy meters: the simulated transports dispatch handlers inline on
//! the calling thread, so every hop's copies land on this thread's
//! meter. A second test pins that the reads agree with each other and
//! the writes with each other.

use blobseer_core::{BlobClient, Deployment, DeploymentConfig, ReadOptions, WriteOptions};
use blobseer_proto::{BlobError, BlobId, PageBuf, Segment, Version};
use blobseer_rpc::Ctx;
use blobseer_util::copymeter;

const PAGE: u64 = 4096;
const PAGES: u64 = 16;
const TOTAL: u64 = PAGE * PAGES;

#[test]
fn copies_are_counted_and_minimal() {
    // Copy counts are flag sensitive; exclude any concurrent ablation
    // flip (none lives in this binary today, but the guard is the rule).
    let _shared = blobseer_util::testsync::ablation_shared();
    let mut cfg = DeploymentConfig::functional(4);
    cfg.replication = 3; // make per-replica copying impossible to miss
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    // WRITE from a borrowed slice: exactly one copy of the segment
    // (slice → shared PageBuf), despite 8 pages × 3 replicas = 24 puts.
    let seg_bytes = 8 * PAGE;
    let data: Vec<u8> = (0..seg_bytes).map(|i| (i % 251) as u8).collect();
    let before = copymeter::thread_snapshot();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    assert_eq!(
        before.bytes_since(),
        seg_bytes,
        "write must copy the caller's buffer exactly once across all replicas"
    );

    // Zero-copy WRITE: the caller's PageBuf is shared, never copied.
    let buf = PageBuf::from_vec(vec![7u8; (2 * PAGE) as usize]);
    let before = copymeter::thread_snapshot();
    let (v2, _) = c
        .write_with(
            &mut ctx,
            info.blob,
            8 * PAGE,
            buf.clone(),
            &WriteOptions::default(),
        )
        .unwrap();
    assert_eq!(before.bytes_since(), 0, "write_with must copy nothing");

    // All three replicas of a write_with page are the caller's allocation.
    let stored: usize = d.storage.iter().map(|s| s.data().page_count()).sum();
    assert!(stored >= 24 + 6, "replicated pages stored: {stored}");

    // READ: each page copied exactly once into the result.
    let before = copymeter::thread_snapshot();
    let (got, _) = c
        .read(&mut ctx, info.blob, None, Segment::new(0, seg_bytes))
        .unwrap();
    assert_eq!(got, data);
    assert_eq!(
        before.bytes_since(),
        seg_bytes,
        "read must copy each page exactly once into the result"
    );

    // read_into_with: same copy count, caller-owned destination.
    let mut out = vec![0u8; (2 * PAGE) as usize];
    let before = copymeter::thread_snapshot();
    let (latest, _) = c
        .read_into_with(
            &mut ctx,
            info.blob,
            Segment::new(8 * PAGE, 2 * PAGE),
            &mut out,
            &ReadOptions::at_version(v2),
        )
        .unwrap();
    assert_eq!(latest, v2);
    assert_eq!(out, &buf[..]);
    assert_eq!(
        before.bytes_since(),
        2 * PAGE,
        "read_into_with copies each page once"
    );

    // Single-page aligned read_buf: zero copies end to end; the result
    // shares the allocation the writer handed in (stored by the
    // provider, lent through the RPC response).
    let before = copymeter::thread_snapshot();
    let (page, _) = c
        .read_buf(
            &mut ctx,
            info.blob,
            Segment::new(8 * PAGE, PAGE),
            &ReadOptions::at_version(v2),
        )
        .unwrap();
    assert_eq!(
        before.bytes_since(),
        0,
        "aligned single-page read_buf must be zero-copy"
    );
    assert!(
        page.same_allocation(&buf),
        "the read page must be the very allocation the writer stored"
    );
    assert_eq!(&page[..], &buf[..PAGE as usize]);

    // Unaligned read_buf still works (one copy per touched page).
    let before = copymeter::thread_snapshot();
    let (span, _) = c
        .read_buf(
            &mut ctx,
            info.blob,
            Segment::new(PAGE / 2, PAGE),
            &ReadOptions::default(),
        )
        .unwrap();
    assert_eq!(
        &span[..],
        &data[(PAGE / 2) as usize..(3 * PAGE / 2) as usize]
    );
    assert_eq!(
        before.bytes_since(),
        PAGE,
        "a straddling read copies exactly the requested bytes (each byte once)"
    );
}

/// What one read returned: the bytes and `vr`, or the error.
type ReadResult = Result<(Vec<u8>, Version), BlobError>;

/// The three reads of `seg` under `version`, as `(bytes, vr)`: `read`,
/// `read_into_with` and `read_buf`, in that order.
fn read_three(
    c: &BlobClient,
    blob: BlobId,
    version: Option<Version>,
    seg: Segment,
) -> [ReadResult; 3] {
    let mut ctx = Ctx::start();
    let opts = ReadOptions {
        version,
        ..ReadOptions::default()
    };
    let mut out = vec![0xAAu8; seg.size as usize]; // stale bytes must not leak
    [
        c.read(&mut ctx, blob, version, seg),
        c.read_into_with(&mut ctx, blob, seg, &mut out, &opts)
            .map(|(vr, _)| (out.clone(), vr)),
        c.read_buf(&mut ctx, blob, seg, &opts)
            .map(|(buf, vr)| (buf.to_vec(), vr)),
    ]
}

#[test]
fn read_and_write_entry_points_agree() {
    let d = Deployment::build(DeploymentConfig::functional(4));
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;

    // The same bytes through both aligned writes: pages 0..4 from a
    // borrowed slice (v1), pages 4..8 from a shared buffer (v2).
    let data: Vec<u8> = (0..4 * PAGE).map(|i| (i % 241) as u8).collect();
    let v1 = c.write(&mut ctx, blob, 0, &data).unwrap();
    let (v2, _) = c
        .write_with(
            &mut ctx,
            blob,
            4 * PAGE,
            PageBuf::copy_from_slice(&data),
            &WriteOptions::default(),
        )
        .unwrap();
    assert_eq!((v1, v2), (1, 2));

    let at = |range: std::ops::Range<u64>| data[range.start as usize..range.end as usize].to_vec();
    let zeros = |n: u64| vec![0u8; n as usize];
    // (row, version pin, segment, expected bytes and vr)
    let rows: [(&str, Option<Version>, Segment, ReadResult); 5] = [
        (
            "unaligned multi-page, latest",
            None,
            Segment::new(PAGE / 2, 3 * PAGE),
            Ok((at(PAGE / 2..7 * PAGE / 2), v2)),
        ),
        (
            "unaligned across both writes, pinned at v2",
            Some(v2),
            Segment::new(3 * PAGE + 100, 2 * PAGE),
            Ok((
                [at(3 * PAGE + 100..4 * PAGE), at(0..PAGE + 100)].concat(),
                v2,
            )),
        ),
        (
            "unaligned across both writes, pinned at v1",
            Some(v1),
            Segment::new(3 * PAGE + 100, 2 * PAGE),
            Ok((
                [at(3 * PAGE + 100..4 * PAGE), zeros(PAGE + 100)].concat(),
                v2,
            )),
        ),
        (
            "version 0",
            Some(0),
            Segment::new(PAGE / 2, 3 * PAGE),
            Ok((zeros(3 * PAGE), v2)),
        ),
        (
            "unpublished pin",
            Some(v2 + 1),
            Segment::new(0, PAGE),
            Err(BlobError::VersionNotPublished {
                requested: v2 + 1,
                latest: v2,
            }),
        ),
    ];
    for (row, version, seg, want) in rows {
        for (got, name) in read_three(&c, blob, version, seg).into_iter().zip([
            "read",
            "read_into_with",
            "read_buf",
        ]) {
            assert_eq!(got, want, "{row}: {name}");
        }
    }

    // The slice write and the shared-buffer write read back identically.
    let (first, _) = c
        .read(&mut ctx, blob, None, Segment::new(0, 4 * PAGE))
        .unwrap();
    let (second, _) = c
        .read(&mut ctx, blob, None, Segment::new(4 * PAGE, 4 * PAGE))
        .unwrap();
    assert_eq!(first, data);
    assert_eq!(second, first);
}
