//! PR 1 acceptance benchmark: the zero-copy page path, before vs after.
//!
//! Runs the full distributed stack (zero-cost transport, so wall-clock
//! time is dominated by real CPU work — exactly the memcpy traffic this
//! PR removes) at 1–64 concurrent clients, large pages, in two modes:
//!
//! * **before** — `wire::zero_copy_ablation(false)`: every page payload is
//!   copied at each hop (encode, batch, decode, store, respond), the
//!   seed's copy regime;
//! * **after** — the zero-copy path: pages are shared by refcount; a
//!   write copies the caller's buffer once, a read copies each page once
//!   into the result.
//!
//! Emits a table per phase and `BENCH_PR1.json` at the repo root with
//! aggregate throughput, per-op bytes-copied, and the before→after
//! improvement on the large-page write benchmark.

use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, COPIES};
use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::wire;

const PAGE: u64 = 256 * 1024; // large pages: the copy-bound regime
const SEG_PAGES: u64 = 4; // 1 MiB per operation
const SEG: u64 = SEG_PAGES * PAGE;
const OPS_PER_CLIENT: u64 = 24;
const PROVIDERS: usize = 8;
const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

fn deployment() -> Deployment {
    let mut cfg = DeploymentConfig::functional(PROVIDERS);
    cfg.provider_capacity = u64::MAX;
    Deployment::build(cfg)
}

/// `n` clients, disjoint regions, `OPS_PER_CLIENT` segment ops each.
fn row(op: Op) -> Row<'static> {
    Row {
        deploy: &deployment,
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
    println!("pr1 zero-copy benchmark: page={PAGE} seg={SEG} ops/client={OPS_PER_CLIENT}");

    println!("\n-- mode: before (per-hop payload copies, the seed regime)");
    let (w_before, r_before) = {
        let _seed_copies = wire::zero_copy_ablation(false);
        (sweep::run(&row(Op::Write)), sweep::run(&row(Op::Read)))
    };
    println!("-- mode: after (zero-copy shared PageBuf path)");
    let (w_after, r_after) = (sweep::run(&row(Op::Write)), sweep::run(&row(Op::Read)));

    let wt = sweep::table(&[("before", &w_before), ("after", &w_after)], COPIES);
    let rt = sweep::table(&[("before", &r_before), ("after", &r_after)], COPIES);
    blobseer_bench::emit("pr1_write", "PR1 large-page write, before vs after", &wt);
    blobseer_bench::emit("pr1_read", "PR1 large-page read, before vs after", &rt);

    // Headline number: geometric-mean write speedup across client counts.
    let geo = sweep::geomean_ratio(&w_before, &w_after);
    let pct = (geo - 1.0) * 100.0;
    println!("\nlarge-page write throughput improvement (geomean): {pct:.1}%");

    let json = format!(
        "{{\n  \"bench\": \"pr1_zero_copy\",\n  \"page_size\": {PAGE},\n  \"segment_bytes\": {SEG},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"write\": {{\"before\": {}, \"after\": {}}},\n  \"read\": {{\"before\": {}, \"after\": {}}},\n  \"write_speedup_geomean\": {geo:.3},\n  \"write_improvement_pct\": {pct:.1}\n}}\n",
        sweep::json_series(&w_before, COPIES),
        sweep::json_series(&w_after, COPIES),
        sweep::json_series(&r_before, COPIES),
        sweep::json_series(&r_after, COPIES),
    );
    std::fs::write("BENCH_PR1.json", &json).expect("write BENCH_PR1.json");
    println!("(json written to BENCH_PR1.json)");
}
