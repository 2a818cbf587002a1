//! PR 5 acceptance benchmark: the crash-consistent page log —
//! commit-mode sweep plus the compaction before/after — over the real
//! TCP transport on loopback, mmap backend.
//!
//! **Durability sweep**: the full distributed stack at 1–64 concurrent
//! clients writing large (256 KiB) pages, once per commit mode:
//!
//! * **buffered** — commit markers only (`fsync_on_commit = false`):
//!   an acknowledged append survives a process crash;
//! * **fsync** — `fsync_on_commit = true`: one `fdatasync` per *group*
//!   commit, so acknowledged appends also survive power loss. The gap
//!   between the two columns is the price of that promise, and group
//!   commit is what keeps it sane under concurrency.
//!
//! **Compaction leg**: write four versions, GC three (¾ of the log
//! goes dead), measure read throughput, compact every provider,
//! measure again. Asserted: compaction reclaims ≥ 90% of the dead
//! bytes; reported: post/pre read throughput (the swap must not cost
//! the read path — pages are served from the new generation's mapping
//! exactly like the old one's).
//!
//! The bench **asserts** its invariants: every sweep cell and both
//! read legs must meter exactly the one sanctioned 1 MiB copy per
//! 1 MiB operation, zero `Serializing` locks, and exactly the one
//! sanctioned `VersionAssign` acquisition per write — commit markers
//! and generation swaps add kernel writes, never copies or
//! control-plane locks. The CI gate (`bench_gate`) then catches
//! quieter drifts against the committed `BENCH_PR5.json`.

use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, Sample, PARITY};
use blobseer_bench::{payload, MB};
use blobseer_core::{BackendKind, Deployment, DeploymentConfig, ReadOptions};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;

const PAGE: u64 = 256 * 1024; // large pages: the copy-bound regime
const SEG_PAGES: u64 = 4; // 1 MiB per operation
const SEG: u64 = SEG_PAGES * PAGE;
const OPS_PER_CLIENT: u64 = 8;
const PROVIDERS: usize = 8;
const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Compaction leg: 16 MiB region × 4 versions, read by 4 clients.
const COMPACT_REGION: u64 = 16 * MB;
const COMPACT_VERSIONS: u64 = 4;
const COMPACT_READERS: usize = 4;
const COMPACT_READ_OPS: u64 = 8;

fn deployment(fsync: bool) -> Deployment {
    let mut cfg = DeploymentConfig::functional_tcp(PROVIDERS)
        .tune()
        .backend(BackendKind::Mmap)
        .fsync_on_commit(fsync)
        .build();
    cfg.provider_capacity = u64::MAX; // mmap clamps to its log cap
    Deployment::build(cfg)
}

/// `n` client threads writing disjoint regions over sockets, appends
/// committed in the deployment's mode.
fn write_row(deploy: &(dyn Fn() -> Deployment + Sync)) -> Row<'_> {
    Row {
        deploy,
        op: Op::Write,
        page: PAGE,
        seg: SEG,
        clients: CLIENTS,
        ops_per_client: OPS_PER_CLIENT,
        layout: Layout::Disjoint,
        reps: 1,
        clock: Clock::Wall,
    }
}

/// The invariants the sweep promises, asserted so the bench is an
/// acceptance test, not just a reporter.
fn assert_invariants(name: &str, samples: &[Sample]) {
    for s in samples {
        assert!(
            (s.copied_per_op - SEG as f64).abs() < 1.0,
            "{name}@{} clients: copies/op {} != sanctioned {}",
            s.clients,
            s.copied_per_op,
            SEG
        );
        assert!(
            s.ser_per_op < 0.01,
            "{name}@{} clients: {} serializing locks/op on the lock-free plane",
            s.clients,
            s.ser_per_op
        );
        // At most one sanctioned acquisition per write: the PR 10 grant
        // protocol may batch concurrent assignments below 1, never above.
        assert!(
            s.va_per_op > 0.0 && s.va_per_op <= 1.01,
            "{name}@{} clients: {} VersionAssign locks/op (sanctioned: <= 1)",
            s.clients,
            s.va_per_op
        );
    }
}

/// Timed re-read of the latest version by `COMPACT_READERS` clients.
fn read_leg(d: &Deployment, blob: blobseer_proto::BlobId) -> Sample {
    let clients = sweep::warm_clients(d, &mut Ctx::start(), blob, COMPACT_READERS);
    sweep::closed_loop(
        d,
        Clock::Wall,
        clients,
        COMPACT_READ_OPS,
        SEG,
        |t, c, ctx| {
            let slots = COMPACT_REGION / SEG;
            let mut out = vec![0u8; SEG as usize];
            for i in 0..COMPACT_READ_OPS {
                let off = ((t as u64 + i * COMPACT_READERS as u64) % slots) * SEG;
                c.read_into_with(
                    ctx,
                    blob,
                    Segment::new(off, SEG),
                    &mut out,
                    &ReadOptions::default(),
                )
                .unwrap();
            }
        },
    )
}

struct CompactionOutcome {
    dead_bytes: u64,
    reclaimed_bytes: u64,
    fraction: f64,
    pre: Sample,
    post: Sample,
}

/// Write → GC ¾ of the versions → read → compact → read.
fn run_compaction_leg() -> CompactionOutcome {
    let mut cfg = DeploymentConfig::functional_tcp(PROVIDERS)
        .tune()
        .backend(BackendKind::Mmap)
        .build();
    cfg.provider_capacity = u64::MAX;
    // The sweep measures the *explicit* before/after; disable the
    // automatic trigger so GC's removes don't compact under us.
    cfg.log.compact_dead_ratio = 0.0;
    let d = Deployment::build(cfg);
    let setup = d.client();
    let mut ctx = Ctx::start();
    let blob = setup.alloc(&mut ctx, COMPACT_REGION, PAGE).unwrap().blob;
    // Four full passes over the region (every chunk write is its own
    // version; the final pass alone covers the whole region).
    let mut last_v = 0;
    for pass in 0..COMPACT_VERSIONS {
        let data = payload(SEG, pass);
        let mut off = 0;
        while off < COMPACT_REGION {
            last_v = setup.write(&mut ctx, blob, off, &data).unwrap();
            off += SEG;
        }
    }
    // Collect everything below the newest version: the three
    // superseded passes — ¾ of the log — go dead.
    setup.gc(&mut ctx, blob, last_v).unwrap();

    let pre = read_leg(&d, blob);

    let mut dead_bytes = 0u64;
    let mut reclaimed_bytes = 0u64;
    for i in 0..PROVIDERS {
        let stats = d.storage[i].data().stats();
        dead_bytes += stats.dead_bytes;
        let report = d
            .compact_storage(i)
            .unwrap()
            .expect("mmap backend compacts");
        reclaimed_bytes += report.reclaimed_bytes;
    }
    let fraction = reclaimed_bytes as f64 / dead_bytes as f64;

    let post = read_leg(&d, blob);
    CompactionOutcome {
        dead_bytes,
        reclaimed_bytes,
        fraction,
        pre,
        post,
    }
}

fn main() {
    println!(
        "pr5 durability benchmark: page={PAGE} seg={SEG} ops/client={OPS_PER_CLIENT} \
         (tcp loopback, mmap backend)"
    );

    println!("\n-- commit mode: buffered (markers only)");
    let buffered = sweep::run(&write_row(&|| deployment(false)));
    println!("-- commit mode: fsync-on-commit (group-amortized fdatasync)");
    let fsync = sweep::run(&write_row(&|| deployment(true)));
    assert_invariants("write/buffered", &buffered);
    assert_invariants("write/fsync", &fsync);

    let wt = sweep::table(&[("buffered", &buffered), ("fsync", &fsync)], PARITY);
    blobseer_bench::emit(
        "pr5_write",
        "PR5 large-page write, buffered vs fsync-on-commit",
        &wt,
    );

    println!("-- compaction: write 4 versions, gc 3, compact, re-read");
    let comp = run_compaction_leg();
    for (leg, r) in [("pre", &comp.pre), ("post", &comp.post)] {
        assert!(
            (r.copied_per_op - SEG as f64).abs() < 1.0,
            "read/{leg}-compaction: copies/op {} != sanctioned {}",
            r.copied_per_op,
            SEG
        );
    }
    assert!(
        comp.fraction >= 0.9,
        "compaction reclaimed only {:.1}% of {} dead bytes",
        comp.fraction * 100.0,
        comp.dead_bytes
    );
    let post_over_pre = comp.post.mib_s / comp.pre.mib_s;
    println!(
        "compaction: reclaimed {} of {} dead bytes ({:.0}%), read {:.1} -> {:.1} MiB/s ({:.2}x)",
        comp.reclaimed_bytes,
        comp.dead_bytes,
        comp.fraction * 100.0,
        comp.pre.mib_s,
        comp.post.mib_s,
        post_over_pre
    );

    // Headline: the fsync tax as a geomean over the sweep.
    let fsync_ratio = sweep::geomean_ratio(&buffered, &fsync);
    println!("\nfsync/buffered write throughput ratio (geomean): {fsync_ratio:.3}");

    let json = format!(
        "{{\n  \"bench\": \"pr5_durability\",\n  \"transport\": \"tcp-loopback\",\n  \"backend\": \"mmap\",\n  \"page_size\": {PAGE},\n  \"segment_bytes\": {SEG},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"write\": {{\"buffered\": {}, \"fsync\": {}}},\n  \"fsync_write_ratio_geomean\": {fsync_ratio:.3},\n  \"compaction\": {{\n    \"dead_bytes\": {},\n    \"reclaimed_bytes\": {},\n    \"dead_reclaimed_fraction\": {:.3},\n    \"read_pre\": {{\"mib_s\": {:.2}, \"bytes_copied_per_op\": {:.0}}},\n    \"read_post\": {{\"mib_s\": {:.2}, \"bytes_copied_per_op\": {:.0}}},\n    \"read_post_over_pre\": {post_over_pre:.3}\n  }}\n}}\n",
        sweep::json_series(&buffered, PARITY),
        sweep::json_series(&fsync, PARITY),
        comp.dead_bytes,
        comp.reclaimed_bytes,
        comp.fraction,
        comp.pre.mib_s,
        comp.pre.copied_per_op,
        comp.post.mib_s,
        comp.post.copied_per_op,
    );
    std::fs::write("BENCH_PR5.json", &json).expect("write BENCH_PR5.json");
    println!("(json written to BENCH_PR5.json)");
}
