//! PR 7 acceptance benchmark: the durable control plane — steady-state
//! parity plus cold-restart replay — over the real TCP transport on
//! loopback, mmap backend.
//!
//! **Parity sweep (hard-gated)**: with the metadata journals and the
//! version journal enabled (every mmap deployment journals since PR 7),
//! the steady-state write and read paths must look exactly like PR 5's:
//! the one sanctioned 1 MiB copy per 1 MiB operation, zero
//! `Serializing` locks, and exactly one `VersionAssign` acquisition per
//! write. Control-plane durability is write-ahead appends on the
//! journals' group-commit machinery — kernel writes, never data-plane
//! copies or control-plane locks. Asserted here, then held against the
//! committed `BENCH_PR7.json` by the CI gate's hard columns.
//!
//! **Cold-restart leg (advisory)**: publish a growing history, then
//! time [`Deployment::restart_cluster`] — kill every node kind, reopen
//! the page logs, metadata journals and version journal, replay, and
//! re-serve. Reported per history size: the journal bytes replayed and
//! the restart wall time, plus a post-restart read verifying the
//! recovered latest version end to end. Restart time is replay-bound
//! and machine-dependent — advisory, like throughput.

use blobseer_bench::payload;
use blobseer_bench::sweep::{self, Clock, Layout, Op, Row, Sample, PARITY};
use blobseer_core::{BackendKind, Deployment, DeploymentConfig, ReadOptions};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;
use blobseer_util::stats::Table;
use std::time::Instant;

const PAGE: u64 = 256 * 1024; // large pages: the copy-bound regime
const SEG_PAGES: u64 = 4; // 1 MiB per operation
const SEG: u64 = SEG_PAGES * PAGE;
const OPS_PER_CLIENT: u64 = 8;
const PROVIDERS: usize = 8;
const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
const READERS: usize = 4;
const READ_OPS: u64 = 8;

/// Cold-restart leg: histories of this many 1 MiB publishes.
const RESTART_VERSIONS: &[u64] = &[16, 64, 256];

fn deployment() -> Deployment {
    let mut cfg = DeploymentConfig::functional_tcp(PROVIDERS)
        .tune()
        .backend(BackendKind::Mmap)
        .build();
    cfg.provider_capacity = u64::MAX; // mmap clamps to its log cap
    Deployment::build(cfg)
}

/// Read parity: `READERS` clients re-reading the latest version of a
/// freshly *restarted* cluster — the replayed serving path must meter
/// exactly like the original one.
fn run_read_after_restart() -> Sample {
    let mut d = deployment();
    let setup = d.client();
    let mut ctx = Ctx::start();
    let region = SEG * (READERS as u64) * READ_OPS;
    let total = region.next_power_of_two();
    let blob = setup.alloc(&mut ctx, total, PAGE).unwrap().blob;
    let data = payload(SEG, 7);
    let mut off = 0;
    while off < region {
        setup.write(&mut ctx, blob, off, &data).unwrap();
        off += SEG;
    }
    d.restart_cluster().expect("cold restart");

    // Steady state means warm clients here too: the first op per client
    // pulls geometry/roster under a (sanctioned, one-off) serializing
    // lock — pay it outside the measured region.
    let clients = sweep::warm_clients(&d, &mut ctx, blob, READERS);
    sweep::closed_loop(&d, Clock::Wall, clients, READ_OPS, SEG, |t, c, ctx| {
        let slots = region / SEG;
        let mut out = vec![0u8; SEG as usize];
        for i in 0..READ_OPS {
            let off = ((t as u64 + i * READERS as u64) % slots) * SEG;
            c.read_into_with(
                ctx,
                blob,
                Segment::new(off, SEG),
                &mut out,
                &ReadOptions::default(),
            )
            .unwrap();
        }
    })
}

struct RestartSample {
    versions: u64,
    control_log_bytes: u64,
    restart_ms: f64,
}

/// The cold-restart timing leg: publish `versions` 1 MiB writes, then
/// time the whole-cluster kill + reopen + replay, and verify the
/// recovered latest end to end.
fn run_restart(versions: u64) -> RestartSample {
    let mut d = deployment();
    let c = d.client();
    let mut ctx = Ctx::start();
    let total = (SEG * versions).next_power_of_two();
    let blob = c.alloc(&mut ctx, total, PAGE).unwrap().blob;
    let data = payload(SEG, versions);
    for i in 0..versions {
        c.write(&mut ctx, blob, (i * SEG) % total, &data).unwrap();
    }
    let control_log_bytes: u64 = (0..PROVIDERS)
        .map(|i| d.storage[i].meta().log_bytes())
        .sum::<u64>()
        + d.vm.log_bytes();

    let t0 = Instant::now();
    d.restart_cluster().expect("cold restart");
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3;

    let (latest_read, latest) = c
        .read(
            &mut ctx,
            blob,
            None,
            Segment::new((versions - 1) * SEG % total, SEG),
        )
        .expect("post-restart read");
    assert_eq!(latest, versions, "replay surfaced every published version");
    assert_eq!(latest_read, data, "recovered bytes are byte-identical");

    RestartSample {
        versions,
        control_log_bytes,
        restart_ms,
    }
}

/// The invariants the parity sweep promises (same budget as PR 5).
fn assert_invariants(name: &str, samples: &[Sample], writes: bool) {
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
        if writes {
            // At most one sanctioned acquisition per write: the PR 10
            // grant protocol may batch concurrent assignments below 1,
            // never above.
            assert!(
                s.va_per_op > 0.0 && s.va_per_op <= 1.01,
                "{name}@{} clients: {} VersionAssign locks/op (sanctioned: <= 1)",
                s.clients,
                s.va_per_op
            );
        }
    }
}

fn main() {
    println!(
        "pr7 restart benchmark: page={PAGE} seg={SEG} ops/client={OPS_PER_CLIENT} \
         (tcp loopback, mmap backend, durable control plane)"
    );

    println!("\n-- steady-state write parity (journals on)");
    // Every publish journaled write-ahead at the version manager and
    // every tree-node batch journaled at its metadata provider.
    let writes = sweep::run(&Row {
        deploy: &deployment,
        op: Op::Write,
        page: PAGE,
        seg: SEG,
        clients: CLIENTS,
        ops_per_client: OPS_PER_CLIENT,
        layout: Layout::Disjoint,
        reps: 1,
        clock: Clock::Wall,
    });
    assert_invariants("write/durable-control-plane", &writes, true);
    let wt = sweep::table(&[("durable", &writes)], PARITY);
    blobseer_bench::emit(
        "pr7_write",
        "PR7 large-page write with durable control plane",
        &wt,
    );

    println!("-- steady-state read parity after a cold restart");
    let read = run_read_after_restart();
    assert_invariants("read/after-restart", std::slice::from_ref(&read), false);
    println!(
        "read after restart: {:.1} MiB/s, {:.0} copied/op, {:.2} ser/op",
        read.mib_s, read.copied_per_op, read.ser_per_op
    );

    println!("\n-- cold-restart replay time vs history size");
    let restarts: Vec<RestartSample> = RESTART_VERSIONS.iter().map(|&v| run_restart(v)).collect();
    let mut rt = Table::new(&["versions", "control log B", "restart ms"]);
    for r in &restarts {
        rt.row(&[
            r.versions.to_string(),
            r.control_log_bytes.to_string(),
            format!("{:.1}", r.restart_ms),
        ]);
    }
    blobseer_bench::emit("pr7_restart", "PR7 whole-cluster cold restart replay", &rt);

    let restart_json: Vec<String> = restarts
        .iter()
        .map(|r| {
            format!(
                "{{\"versions\": {}, \"control_log_bytes\": {}, \"restart_ms\": {:.1}}}",
                r.versions, r.control_log_bytes, r.restart_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pr7_restart\",\n  \"transport\": \"tcp-loopback\",\n  \"backend\": \"mmap\",\n  \"page_size\": {PAGE},\n  \"segment_bytes\": {SEG},\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"providers\": {PROVIDERS},\n  \"write\": {},\n  \"read_after_restart\": {},\n  \"restart\": [{}]\n}}\n",
        sweep::json_series(&writes, PARITY),
        sweep::json_series(std::slice::from_ref(&read), PARITY),
        restart_json.join(", "),
    );
    std::fs::write("BENCH_PR7.json", &json).expect("write BENCH_PR7.json");
    println!("(json written to BENCH_PR7.json)");
}
