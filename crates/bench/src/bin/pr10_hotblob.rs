//! PR 10 acceptance benchmark: grant-batched version assignment on one
//! **hot blob** — the last per-op lock, killed and gated.
//!
//! Every client hammers the *same* blob, so every write serializes on
//! that blob's `VersionAssign` critical section at the version manager.
//! Two series over 1–256 concurrent writers:
//!
//! * **hot_batched** — the PR 10 grant protocol: one leader acquires the
//!   assignment mutex once and assigns a contiguous run of versions for
//!   itself plus every writer queued behind it (followers ride the
//!   grant through a condvar, touching no lock the meter charges);
//! * **hot_per_op** — the ablation (`version_batched = false`): the
//!   pre-PR-10 discipline, one metered acquisition per write.
//!
//! Lock traffic is *measured* by `blobseer_util::lockmeter`, and the
//! simulated version manager charges `version_assign_ns` per metered
//! acquisition — virtual cost mirrors the meter exactly, so the
//! throughput columns (virtual-time MiB/s, the fig3c regime) show what
//! batching buys once assignment dominates. The critical section is
//! deliberately stressed (240 µs, ~3× the grid5000 calibration) to model
//! the paper's version manager under a metadata-heavy hot spot.
//!
//! **Asserted** (the bench is an acceptance test, not a reporter):
//!
//! * `version_assign_locks_per_op < 1.0` at every count ≥ 16 in the
//!   batched series — the headline CI gate;
//! * batched throughput ≥ 2× the per-op ablation at every count ≥ 64;
//! * zero serializing locks per op in both series (the control plane
//!   stays lock-free);
//! * the ablation meters ~1 acquisition per op (the baseline is real).
//!
//! Emits `BENCH_PR10.json` at the repo root; `bench_gate` then catches
//! regressions of the locks-per-op and copies-per-op columns against
//! the committed baseline.

use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, PARITY};
use blobseer_bench::KB;
use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_simnet::ServiceCosts;
use std::time::Duration;

const PAGE: u64 = 8 * KB;
const BLOB: u64 = 512 * KB; // 64 pages — one hot blob, shallow tree
const OPS_PER_CLIENT: u64 = 32;
const PROVIDERS: usize = 40;
const CLIENTS: &[usize] = &[1, 4, 16, 64, 128, 256];

/// The grant window: how long a leader lingers (real time) so that
/// concurrent writers pile into its grant. Real sleep, zero virtual
/// cost — it exists so batching is deterministic even on a single-core
/// CI host, where the leader would otherwise outrun the queue.
const GRANT_WINDOW: Duration = Duration::from_millis(2);

/// Stressed assignment cost: the version-assignment critical section
/// (border-link computation + index update) under a metadata-heavy
/// blob, ~3× the grid5000 calibration. Batching amortizes exactly this.
const VERSION_ASSIGN_NS: u64 = 240_000;

fn costs() -> ServiceCosts {
    ServiceCosts {
        meta_store_ns: 1_000_000, // I/O latency: overlaps across writers
        meta_store_cpu_ns: 30_000,
        meta_fetch_ns: 20_000,
        page_store_ns: 50_000,
        page_fetch_ns: 50_000,
        version_assign_ns: VERSION_ASSIGN_NS,
        manager_query_ns: 10_000,
    }
}

fn deployment(batched: bool) -> Deployment {
    let mut cfg = DeploymentConfig::grid5000(PROVIDERS)
        .tune()
        .service_costs(costs())
        .version_batched(batched)
        .version_grant_window(GRANT_WINDOW)
        .build();
    cfg.provider_capacity = u64::MAX;
    Deployment::build(cfg)
}

/// Repetitions per (series, client count); the median rep by throughput
/// is kept. Grant grouping depends on real-time thread interleaving, so
/// the median filters scheduler flukes on shared CI hosts.
const REPS: usize = 3;

/// One page per op, every writer interleaving over the same 64-page
/// blob — the hottest possible version-assignment workload — timed in
/// virtual time (the fig3c regime).
fn row(deploy: &(dyn Fn() -> Deployment + Sync)) -> Row<'_> {
    Row {
        deploy,
        op: Op::Write,
        page: PAGE,
        seg: PAGE,
        clients: CLIENTS,
        ops_per_client: OPS_PER_CLIENT,
        layout: Layout::Hot(BLOB),
        reps: REPS,
        clock: Clock::Virtual,
    }
}

fn main() {
    println!(
        "pr10 hot-blob grant batching: page={PAGE} blob={BLOB} ops/client={OPS_PER_CLIENT} \
         va_cost={VERSION_ASSIGN_NS}ns window={GRANT_WINDOW:?}"
    );

    println!("\n-- series: hot_batched (grant protocol)");
    let batched = sweep::run(&row(&|| deployment(true)));
    println!("-- series: hot_per_op (ablation: one acquisition per write)");
    let per_op = sweep::run(&row(&|| deployment(false)));

    // The acceptance asserts — the bench *is* the gate.
    for s in batched.iter().chain(&per_op) {
        assert!(
            s.ser_per_op < 0.01,
            "@{} clients: {} serializing locks/op on the lock-free plane",
            s.clients,
            s.ser_per_op
        );
    }
    for s in &per_op {
        assert!(
            (s.va_per_op - 1.0).abs() < 0.05,
            "ablation@{} clients: {} VersionAssign locks/op (expected exactly 1)",
            s.clients,
            s.va_per_op
        );
    }
    for s in batched.iter().filter(|s| s.clients >= 16) {
        assert!(
            s.va_per_op < 1.0,
            "batched@{} clients: {} VersionAssign locks/op — the last lock survived",
            s.clients,
            s.va_per_op
        );
    }
    for (b, p) in batched.iter().zip(&per_op).filter(|(b, _)| b.clients >= 64) {
        let ratio = b.mib_s / p.mib_s;
        assert!(
            ratio >= 2.0,
            "batched@{} clients: only {ratio:.2}x the per-op ablation (need >= 2x)",
            b.clients
        );
    }

    let t = sweep::table(&[("per-op", &per_op), ("batched", &batched)], PARITY);
    blobseer_bench::emit(
        "pr10_hotblob",
        "PR10 hot-blob write sweep, grant-batched vs per-op assignment",
        &t,
    );

    let b64 = sweep::at(&batched, 64);
    let p64 = sweep::at(&per_op, 64);
    let ratio64 = b64.mib_s / p64.mib_s;
    let va16 = sweep::at(&batched, 16).va_per_op;
    println!(
        "\nheadline: va/op@16 = {va16:.3} (< 1.0), batched@64 = {:.1} MiB/s = {ratio64:.2}x ablation ({:.1} MiB/s)",
        b64.mib_s, p64.mib_s
    );

    let json = format!(
        "{{\n  \"bench\": \"pr10_hotblob\",\n  \"page_size\": {PAGE},\n  \"blob_bytes\": {BLOB},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"version_assign_ns\": {VERSION_ASSIGN_NS},\n  \"grant_window_ms\": {},\n  \"write\": {{\"hot_batched\": {}, \"hot_per_op\": {}}},\n  \"write_16_batched_version_assign_locks_per_op\": {va16:.3},\n  \"write_64_batched_over_per_op\": {ratio64:.3}\n}}\n",
        GRANT_WINDOW.as_millis(),
        sweep::json_series(&batched, PARITY),
        sweep::json_series(&per_op, PARITY),
    );
    std::fs::write("BENCH_PR10.json", &json).expect("write BENCH_PR10.json");
    println!("(json written to BENCH_PR10.json)");
}
