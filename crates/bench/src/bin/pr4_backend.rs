//! PR 4 acceptance benchmark: the persistent mmap provider backend vs
//! the in-memory backend, over the real TCP transport on loopback.
//!
//! Runs the full distributed stack at 1–64 concurrent clients with
//! large (256 KiB) pages, once per backend:
//!
//! * **memory** — pages live in provider heap buffers (the PR 1–3
//!   regime; a provider restart loses everything);
//! * **mmap** — every acknowledged page is appended to the provider's
//!   page log and *served as a refcounted slice of the log mapping*:
//!   the write path adds positioned kernel writes (durability), the
//!   read path serves straight out of the page cache.
//!
//! The bench **asserts** the copy invariants it sweeps: both backends,
//! both directions, must meter exactly the one sanctioned 1 MiB copy
//! per 1 MiB operation (write: the client's `copy_from_slice`; read:
//! the per-page assembly into the result) and an aligned single-page
//! `read_buf` must add zero copies on the mmap path. A backend that
//! snuck an extra copy in aborts the bench — and the CI gate
//! (`bench_gate`) catches quieter drifts against the committed
//! `BENCH_PR4.json`.

use blobseer_bench::payload;
use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, Sample, COPIES};
use blobseer_core::{BackendKind, Deployment, DeploymentConfig, ReadOptions};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;
use blobseer_util::copymeter;

const PAGE: u64 = 256 * 1024; // large pages: the copy-bound regime
const SEG_PAGES: u64 = 4; // 1 MiB per operation
const SEG: u64 = SEG_PAGES * PAGE;
const OPS_PER_CLIENT: u64 = 8;
const PROVIDERS: usize = 8;
const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

fn deployment(backend: BackendKind) -> Deployment {
    let mut cfg = DeploymentConfig::functional_tcp(PROVIDERS)
        .tune()
        .backend(backend)
        .build();
    cfg.provider_capacity = u64::MAX; // mmap clamps to its log cap
    Deployment::build(cfg)
}

/// `n` client threads, disjoint regions, over sockets.
fn row(op: Op, deploy: &(dyn Fn() -> Deployment + Sync)) -> Row<'_> {
    Row {
        deploy,
        op,
        page: PAGE,
        seg: SEG,
        clients: CLIENTS,
        ops_per_client: OPS_PER_CLIENT,
        layout: Layout::Disjoint,
        reps: 1,
        clock: Clock::Wall,
    }
}

/// The aligned single-page `read_buf` leg: must add **zero** copies on
/// either backend (the page is lent from the receive buffer, which the
/// mmap provider filled by gather-writing straight off its log
/// mapping).
fn run_read_buf_copies(backend: BackendKind) -> u64 {
    let d = deployment(backend);
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, SEG, PAGE).unwrap().blob;
    c.write(&mut ctx, blob, 0, &payload(SEG, 9)).unwrap();
    let before = copymeter::snapshot();
    let (page, _) = c
        .read_buf(
            &mut ctx,
            blob,
            Segment::new(0, PAGE),
            &ReadOptions::default(),
        )
        .unwrap();
    assert_eq!(page.len() as u64, PAGE);
    before.bytes_since()
}

/// The invariant this PR's seam promised: exactly the sanctioned copy
/// per op, regardless of backend. Asserted here so the bench itself is
/// an acceptance test, not just a reporter.
fn assert_copy_invariants(name: &str, samples: &[Sample]) {
    for s in samples {
        assert!(
            (s.copied_per_op - SEG as f64).abs() < 1.0,
            "{name}@{} clients: copies/op {} != sanctioned {}",
            s.clients,
            s.copied_per_op,
            SEG
        );
    }
}

fn main() {
    println!(
        "pr4 storage backend benchmark: page={PAGE} seg={SEG} ops/client={OPS_PER_CLIENT} \
         (tcp loopback)"
    );

    println!("\n-- backend: memory (provider heap, volatile)");
    let memory = || deployment(BackendKind::Memory);
    let (w_mem, r_mem) = (
        sweep::run(&row(Op::Write, &memory)),
        sweep::run(&row(Op::Read, &memory)),
    );
    println!("-- backend: mmap (append-only page log, persistent)");
    let mmap = || deployment(BackendKind::Mmap);
    let (w_map, r_map) = (
        sweep::run(&row(Op::Write, &mmap)),
        sweep::run(&row(Op::Read, &mmap)),
    );

    for (name, samples) in [
        ("write/memory", &w_mem),
        ("write/mmap", &w_map),
        ("read/memory", &r_mem),
        ("read/mmap", &r_map),
    ] {
        assert_copy_invariants(name, samples);
    }
    let rb_mem = run_read_buf_copies(BackendKind::Memory);
    let rb_map = run_read_buf_copies(BackendKind::Mmap);
    assert_eq!(
        rb_map, 0,
        "aligned single-page read_buf on the mmap backend must add zero copies"
    );
    assert_eq!(rb_mem, 0, "…and the memory backend agrees");
    println!(
        "\ncopy invariants hold: {} copied/op both backends both directions, read_buf 0 extra",
        SEG
    );

    let wt = sweep::table(&[("memory", &w_mem), ("mmap", &w_map)], COPIES);
    let rt = sweep::table(&[("memory", &r_mem), ("mmap", &r_map)], COPIES);
    blobseer_bench::emit(
        "pr4_write",
        "PR4 large-page write, memory vs mmap backend",
        &wt,
    );
    blobseer_bench::emit(
        "pr4_read",
        "PR4 large-page read, memory vs mmap backend",
        &rt,
    );

    // Headline: the persistence tax on writes, and read parity, as
    // geomean ratios across client counts.
    let write_ratio = sweep::geomean_ratio(&w_mem, &w_map);
    let read_ratio = sweep::geomean_ratio(&r_mem, &r_map);
    println!(
        "\nmmap/memory throughput ratio (geomean): write {write_ratio:.3}, read {read_ratio:.3}"
    );

    let json = format!(
        "{{\n  \"bench\": \"pr4_backend\",\n  \"transport\": \"tcp-loopback\",\n  \"page_size\": {PAGE},\n  \"segment_bytes\": {SEG},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"write\": {{\"memory\": {}, \"mmap\": {}}},\n  \"read\": {{\"memory\": {}, \"mmap\": {}}},\n  \"read_buf\": {{\"memory\": {{\"bytes_copied_per_op\": {rb_mem}}}, \"mmap\": {{\"bytes_copied_per_op\": {rb_map}}}}},\n  \"mmap_write_ratio_geomean\": {write_ratio:.3},\n  \"mmap_read_ratio_geomean\": {read_ratio:.3}\n}}\n",
        sweep::json_series(&w_mem, COPIES),
        sweep::json_series(&w_map, COPIES),
        sweep::json_series(&r_mem, COPIES),
        sweep::json_series(&r_map, COPIES),
    );
    std::fs::write("BENCH_PR4.json", &json).expect("write BENCH_PR4.json");
    println!("(json written to BENCH_PR4.json)");
}
