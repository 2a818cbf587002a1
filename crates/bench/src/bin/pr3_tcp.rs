//! PR 3 acceptance benchmark: the real TCP transport on loopback,
//! gather-write vs the flatten-write ablation.
//!
//! Runs the full distributed stack over `TcpTransport` at 1–64
//! concurrent clients with large (256 KiB) pages, in two send modes:
//!
//! * **flatten** — `set_gather_write(false)`: every outbound frame body
//!   is flattened into one contiguous buffer before the socket write
//!   (a metered memcpy per frame), the regime a naive socket port of
//!   the seed would have shipped;
//! * **gather** — the default: the frame header plus every body segment
//!   go to `write_vectored` as one slice list, zero flatten copies.
//!
//! Both modes share the receive path: one buffer per inbound frame,
//! payloads lent out by refcount (`Reader::from_buf`).
//!
//! Emits a table per phase and `BENCH_PR3.json` at the repo root with
//! aggregate throughput, per-op bytes-copied, and the flatten→gather
//! improvement on the large-page write benchmark.

use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, COPIES};
use blobseer_core::{Deployment, DeploymentConfig};

const PAGE: u64 = 256 * 1024; // large pages: the copy-bound regime
const SEG_PAGES: u64 = 4; // 1 MiB per operation
const SEG: u64 = SEG_PAGES * PAGE;
const OPS_PER_CLIENT: u64 = 8;
const PROVIDERS: usize = 8;
const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

fn deployment(gather: bool) -> Deployment {
    let mut cfg = DeploymentConfig::functional_tcp(PROVIDERS);
    cfg.provider_capacity = u64::MAX;
    let d = Deployment::build(cfg);
    d.cluster
        .tcp()
        .expect("tcp deployment")
        .set_gather_write(gather);
    d
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

fn main() {
    println!(
        "pr3 tcp transport benchmark: page={PAGE} seg={SEG} ops/client={OPS_PER_CLIENT} (loopback)"
    );

    println!("\n-- mode: flatten (contiguous copy before every socket write)");
    let flatten = || deployment(false);
    let (w_flat, r_flat) = (
        sweep::run(&row(Op::Write, &flatten)),
        sweep::run(&row(Op::Read, &flatten)),
    );
    println!("-- mode: gather (writev straight from the segment chain)");
    let gather = || deployment(true);
    let (w_gat, r_gat) = (
        sweep::run(&row(Op::Write, &gather)),
        sweep::run(&row(Op::Read, &gather)),
    );

    let wt = sweep::table(&[("flatten", &w_flat), ("gather", &w_gat)], COPIES);
    let rt = sweep::table(&[("flatten", &r_flat), ("gather", &r_gat)], COPIES);
    blobseer_bench::emit(
        "pr3_write",
        "PR3 tcp large-page write, flatten vs gather",
        &wt,
    );
    blobseer_bench::emit(
        "pr3_read",
        "PR3 tcp large-page read, flatten vs gather",
        &rt,
    );

    // Headline: geometric-mean write speedup across client counts.
    let geo = sweep::geomean_ratio(&w_flat, &w_gat);
    let pct = (geo - 1.0) * 100.0;
    println!("\ntcp large-page write throughput improvement (geomean): {pct:.1}%");

    let json = format!(
        "{{\n  \"bench\": \"pr3_tcp\",\n  \"transport\": \"tcp-loopback\",\n  \"page_size\": {PAGE},\n  \"segment_bytes\": {SEG},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"write\": {{\"flatten\": {}, \"gather\": {}}},\n  \"read\": {{\"flatten\": {}, \"gather\": {}}},\n  \"write_speedup_geomean\": {geo:.3},\n  \"write_improvement_pct\": {pct:.1}\n}}\n",
        sweep::json_series(&w_flat, COPIES),
        sweep::json_series(&w_gat, COPIES),
        sweep::json_series(&r_flat, COPIES),
        sweep::json_series(&r_gat, COPIES),
    );
    std::fs::write("BENCH_PR3.json", &json).expect("write BENCH_PR3.json");
    println!("(json written to BENCH_PR3.json)");
}
