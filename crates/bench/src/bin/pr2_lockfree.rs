//! PR 2 acceptance benchmark: the lock-free control plane, before vs
//! after, swept past the old 64-client cliff.
//!
//! Runs the full distributed stack (zero-cost transport, zero-copy data
//! path — PR 1's regime) at 1–256 concurrent clients in two modes:
//!
//! * **serialized** — `lockmeter::serialized_ablation(true)`:
//!   every `plan_write` funnels through one global mutex and every
//!   metadata-cache access through another, reproducing the pre-PR-2
//!   control plane (a `RwLock`-guarded provider table and a
//!   `Mutex<LruCache>`);
//! * **lockfree** — the PR 2 control plane: RCU roster snapshot,
//!   power-of-two-choices placement with CAS capacity reservations, and
//!   the sharded CLOCK metadata cache shared by every client.
//!
//! Lock traffic is *measured*, not asserted: the serializing-acquisitions
//! per-op column comes from `blobseer_util::lockmeter` and must read 0 in
//! lockfree mode (the version-assignment mutex is charged separately —
//! it is the paper's sanctioned serialization and appears in its own
//! column, ~1 per write).
//!
//! Emits tables per phase and `BENCH_PR2.json` at the repo root with the
//! acceptance numbers: write throughput at 64 clients vs the PR 1
//! baseline (583 MiB/s) and vs the 8-client peak.

use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, LOCKS};
use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_util::lockmeter;

const PAGE: u64 = 256 * 1024;
const SEG_PAGES: u64 = 4; // 1 MiB per operation, as in pr1_zero_copy
const SEG: u64 = SEG_PAGES * PAGE;
const OPS_PER_CLIENT: u64 = 24;
const PROVIDERS: usize = 8;
const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
/// PR 1's zero-copy write throughput at 64 clients (BENCH_PR1.json) —
/// the cliff this PR flattens.
const PR1_WRITE_64_MIB_S: f64 = 583.46;

fn deployment() -> Deployment {
    let mut cfg = DeploymentConfig::functional(PROVIDERS);
    cfg.provider_capacity = u64::MAX;
    cfg.cache_nodes = 1 << 18;
    let d = Deployment::build(cfg);
    d.manager.set_page_size_hint(PAGE);
    d
}

/// Repetitions per (mode, phase, client count); the median rep is kept.
/// Phases are short (hundreds of ms to seconds) and the host may be a
/// shared machine, so single shots confound CPU steal with contention;
/// the median filters both steal spikes and lucky bursts.
const REPS: usize = 3;

fn row(op: Op) -> Row<'static> {
    Row {
        deploy: &deployment,
        op,
        page: PAGE,
        seg: SEG,
        clients: CLIENTS,
        ops_per_client: OPS_PER_CLIENT,
        layout: Layout::Disjoint,
        reps: REPS,
        clock: Clock::Wall,
    }
}

fn main() {
    println!("pr2 lock-free control plane: page={PAGE} seg={SEG} ops/client={OPS_PER_CLIENT}");

    println!("\n-- mode: serialized control plane (the pre-PR-2 regime)");
    let (w_ser, r_ser) = {
        let _serialized = lockmeter::serialized_ablation(true);
        (sweep::run(&row(Op::Write)), sweep::run(&row(Op::Read)))
    };
    println!("-- mode: lock-free control plane");
    let (w_free, r_free) = (sweep::run(&row(Op::Write)), sweep::run(&row(Op::Read)));

    let wt = sweep::table(&[("serialized", &w_ser), ("lockfree", &w_free)], LOCKS);
    let rt = sweep::table(&[("serialized", &r_ser), ("lockfree", &r_free)], LOCKS);
    blobseer_bench::emit("pr2_write", "PR2 write sweep, serialized vs lock-free", &wt);
    blobseer_bench::emit("pr2_read", "PR2 read sweep, serialized vs lock-free", &rt);

    let w64 = sweep::at(&w_free, 64);
    let peak8 = sweep::at(&w_free, 8);
    let vs_pr1 = w64.mib_s / PR1_WRITE_64_MIB_S;
    let vs_peak = w64.mib_s / peak8.mib_s;
    println!(
        "\nwrite@64 lockfree: {:.1} MiB/s = {vs_pr1:.2}x the PR1 baseline ({PR1_WRITE_64_MIB_S} MiB/s), {:.0}% of the 8-client peak ({:.1} MiB/s)",
        w64.mib_s,
        vs_peak * 100.0,
        peak8.mib_s
    );
    println!(
        "serializing locks/op at 64 clients: {:.2} (serialized mode: {:.1})",
        w64.ser_per_op,
        sweep::at(&w_ser, 64).ser_per_op
    );

    let json = format!(
        "{{\n  \"bench\": \"pr2_lockfree\",\n  \"page_size\": {PAGE},\n  \"segment_bytes\": {SEG},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"cache_nodes\": {},\n  \"write\": {{\"serialized\": {}, \"lockfree\": {}}},\n  \"read\": {{\"serialized\": {}, \"lockfree\": {}}},\n  \"pr1_write_64_baseline_mib_s\": {PR1_WRITE_64_MIB_S},\n  \"write_64_lockfree_mib_s\": {:.2},\n  \"write_64_vs_pr1_baseline\": {vs_pr1:.3},\n  \"write_64_vs_8_client_peak\": {vs_peak:.3},\n  \"write_64_serializing_locks_per_op\": {:.2}\n}}\n",
        1 << 18,
        sweep::json_series(&w_ser, LOCKS),
        sweep::json_series(&w_free, LOCKS),
        sweep::json_series(&r_ser, LOCKS),
        sweep::json_series(&r_free, LOCKS),
        w64.mib_s,
        w64.ser_per_op,
    );
    std::fs::write("BENCH_PR2.json", &json).expect("write BENCH_PR2.json");
    println!("(json written to BENCH_PR2.json)");
}
