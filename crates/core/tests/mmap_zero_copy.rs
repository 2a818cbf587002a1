//! Copy-accounting parity for the persistent provider backend: with
//! `BackendKind::Mmap` over `TransportKind::Tcp`, the payload leg must
//! meter **exactly** what the in-memory backend meters — `write` = 1
//! copy of the caller's slice (the sanctioned client-side copy;
//! appending to the page log is positioned kernel I/O, not a memcpy),
//! `read_into_with` = 1 copy per page into the caller's buffer, aligned
//! single-page `read_buf` = 0 extra.
//! Serving a page out of the mapped log is a refcount bump on the
//! mapping — if the provider copied, the read legs would show it.
//!
//! Lives in its own test binary because TCP dispatch happens on server
//! worker threads, so the measurements use the process-global copy
//! meters (one test function, nothing else to pollute them).

use blobseer_core::{BackendKind, Deployment, DeploymentConfig, ReadOptions, TransportKind};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;
use blobseer_util::copymeter;

const PAGE: u64 = 4096;
const PAGES: u64 = 16;
const TOTAL: u64 = PAGE * PAGES;
const SEG: u64 = 8 * PAGE;

/// Run the canonical write / read / aligned-read_buf workload on the
/// given transport × backend and return the global bytes-copied of each
/// leg.
fn measure(transport: TransportKind, backend: BackendKind) -> (u64, u64, u64) {
    let mut cfg = DeploymentConfig::functional(4)
        .tune()
        .transport(transport)
        .backend(backend)
        .build();
    cfg.replication = 2; // replica fan-out shares one buffer on both paths
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    let data: Vec<u8> = (0..SEG).map(|i| (i % 251) as u8).collect();
    let before = copymeter::snapshot();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    let write_copied = before.bytes_since();

    let mut out = vec![0u8; SEG as usize];
    let before = copymeter::snapshot();
    c.read_into_with(
        &mut ctx,
        info.blob,
        Segment::new(0, SEG),
        &mut out,
        &ReadOptions::at_version(1),
    )
    .unwrap();
    let read_copied = before.bytes_since();
    assert_eq!(out, data);

    let before = copymeter::snapshot();
    let (page, _) = c
        .read_buf(
            &mut ctx,
            info.blob,
            Segment::new(0, PAGE),
            &ReadOptions::at_version(1),
        )
        .unwrap();
    let read_buf_copied = before.bytes_since();
    assert_eq!(&page[..], &data[..PAGE as usize]);

    (write_copied, read_copied, read_buf_copied)
}

#[test]
fn mmap_backend_meters_identically_to_memory() {
    // Single test function: the global meter must not see traffic from
    // sibling tests, so this binary holds exactly one.
    let _shared = blobseer_util::testsync::ablation_shared();

    let (mem_w, mem_r, mem_rb) = measure(TransportKind::Tcp, BackendKind::Memory);
    let (map_w, map_r, map_rb) = measure(TransportKind::Tcp, BackendKind::Mmap);

    assert_eq!(
        (map_w, map_r, map_rb),
        (mem_w, mem_r, mem_rb),
        "the mmap backend must copy the same byte counts as memory \
         (memory: w={mem_w} r={mem_r} rb={mem_rb})"
    );
    assert_eq!(
        map_w, SEG,
        "a write copies the caller's buffer exactly once; appending to \
         the page log adds zero metered copies"
    );
    assert_eq!(
        map_r, SEG,
        "a read copies each page exactly once, straight off the mapping"
    );
    assert_eq!(
        map_rb, 0,
        "an aligned single-page read_buf is zero-copy end to end"
    );

    // White-box on the in-process transport: the page a client gets from
    // read_buf *is* a slice of the provider's log mapping — the whole
    // data path from file to client is one refcount chain.
    let mut cfg = DeploymentConfig::functional_mmap(4);
    cfg.replication = 2;
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..SEG).map(|i| (i % 239) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    let (page, _) = c
        .read_buf(
            &mut ctx,
            info.blob,
            Segment::new(0, PAGE),
            &ReadOptions::at_version(1),
        )
        .unwrap();
    assert_eq!(&page[..], &data[..PAGE as usize]);
    #[cfg(unix)]
    assert!(
        page.is_mapped(),
        "over the in-process transport the served page is lent straight \
         from the provider's log mapping"
    );
}
