//! End-to-end tests for the PR 9 client-side contracts, over a real
//! deployment:
//!
//! * hot-page read fan-out — repeated reads of one page promote it onto
//!   extra providers, reads stay byte-correct, and the replica cap
//!   holds;
//! * retry semantics — idempotent reads ride out an outage under a
//!   [`RetryPolicy`]; the non-idempotent version-publish legs of a
//!   write never retry, whatever policy is set;
//! * [`ReadOptions`] behavior — version pins and the `deadline_ms`
//!   retry budget.

use blobseer_core::{Deployment, DeploymentConfig, FanOutOptions, ReadOptions, WriteOptions};
use blobseer_proto::{BlobError, PageBuf, Segment};
use blobseer_rpc::{Ctx, RetryPolicy};
use std::time::{Duration, Instant};

const PAGE: u64 = 1024;
const TOTAL: u64 = PAGE * 16;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

/// A policy whose first backoff is far longer than any test below is
/// willing to wait — retrying under it is detectable from the clock.
fn glacial() -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_secs(60),
        max_backoff: Duration::from_secs(60),
        ..RetryPolicy::default()
    }
}

#[test]
fn hot_reads_promote_the_page_and_stay_correct() {
    let d = Deployment::build(
        DeploymentConfig::functional(4)
            .tune()
            .fan_out(FanOutOptions {
                promote_after_reads: 4,
                max_replicas: 3,
            })
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..PAGE).map(|i| (i % 199) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    let pages_before = d.total_pages();
    assert_eq!(pages_before, 1, "one page, replication 1");

    // Hammer the single page well past two promotion thresholds.
    for _ in 0..16 {
        let (got, _) = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
        assert_eq!(got, data, "reads stay byte-correct during fan-out");
    }

    let heat = d.heat.as_ref().expect("fan-out configured");
    // 16 reads at promote_after_reads=4 cross the threshold 4 times,
    // but max_replicas=3 caps useful promotions at 2 (primary + 2).
    assert_eq!(heat.promotions(), 2, "promotions stop at the replica cap");
    // Each promotion physically stored one more copy of the page.
    assert_eq!(
        d.total_pages(),
        pages_before + 2,
        "promoted replicas land on real providers"
    );

    // A *fresh* client (fresh leaf fetch) sees the extended replica
    // list and still reads correctly through the rotation.
    let c2 = d.client();
    for _ in 0..6 {
        let (got, _) = c2.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
        assert_eq!(got, data);
    }
}

#[test]
fn fan_out_survives_losing_the_primary() {
    let d = Deployment::build(
        DeploymentConfig::functional(4)
            .tune()
            .fan_out(FanOutOptions {
                promote_after_reads: 2,
                max_replicas: 2,
            })
            // Metadata has its own replication; this test is about the
            // *data* fan-out, so keep the tree reachable past the kill.
            .meta_replication(3)
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..PAGE).map(|i| (i % 23) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Find the primary (the only provider holding a page right now),
    // then heat the page until it fans out onto a second provider.
    let primary = d
        .storage
        .iter()
        .position(|s| s.data().page_count() > 0)
        .expect("someone stores the page");
    for _ in 0..4 {
        c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
    }
    assert_eq!(d.heat.as_ref().unwrap().promotions(), 1);

    // With the primary dead, the promoted replica serves the read via
    // the failover path — fan-out is real redundancy, not a cache.
    d.kill_storage(primary);
    let (got, _) = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
    assert_eq!(got, data, "promoted replica serves after primary loss");
}

#[test]
fn idempotent_reads_retry_through_an_outage() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data = vec![7u8; PAGE as usize];
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Take the version manager down; a fail-fast read surfaces the
    // typed outage immediately.
    d.cluster.kill(d.vm_node);
    let err = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");

    // Under a retry policy, the same read rides the outage out: a
    // sibling thread revives the node while the client is backing off
    // (backoff sleeps real wall time, so the revival lands mid-retry).
    let sim = std::sync::Arc::clone(d.cluster.sim().expect("functional runs on sim"));
    let vm_node = d.vm_node;
    let reviver = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        sim.revive(vm_node);
    });
    let opts = ReadOptions::with_retry(RetryPolicy {
        base_backoff: Duration::from_millis(20),
        max_attempts: 10,
        ..RetryPolicy::default()
    });
    let (got, latest) = c
        .read_buf(&mut ctx, info.blob, seg(0, PAGE), &opts)
        .unwrap();
    reviver.join().unwrap();
    assert_eq!(latest, 1);
    assert_eq!(
        &got[..],
        &data[..],
        "read is replayed whole and stays correct"
    );
}

#[test]
fn publish_legs_never_retry_even_with_a_policy_set() {
    // Deployment-wide glacial retry policy: if any non-idempotent leg
    // consulted it, the write below would stall for a minute.
    let d = Deployment::build(
        DeploymentConfig::functional(2)
            .tune()
            .retry(glacial())
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    // Kill the version manager: the write sails through plan + page
    // puts and dies at REQUEST_VERSION — the non-idempotent leg.
    d.cluster.kill(d.vm_node);
    let t0 = Instant::now();
    let err = c
        .write_with(
            &mut ctx,
            info.blob,
            0,
            PageBuf::from_vec(vec![1u8; PAGE as usize]),
            &WriteOptions::with_retry(glacial()),
        )
        .unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "publish legs must fail fast, not back off ({:?})",
        t0.elapsed()
    );
}

#[test]
fn read_deadline_caps_the_retry_budget() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![9u8; PAGE as usize])
        .unwrap();
    d.cluster.kill(d.vm_node);

    // The policy alone would sleep a minute before its first retry;
    // the 5 ms deadline refuses that backoff, so the call fails fast
    // with the last typed error instead.
    let opts = ReadOptions {
        retry: Some(glacial()),
        deadline_ms: Some(5),
        ..ReadOptions::default()
    };
    let t0 = Instant::now();
    let err = c
        .read_buf(&mut ctx, info.blob, seg(0, PAGE), &opts)
        .unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "deadline must bound the backoff ({:?})",
        t0.elapsed()
    );
}

#[test]
fn read_options_pin_versions_exactly() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let v1 = vec![1u8; PAGE as usize];
    let v2 = vec![2u8; PAGE as usize];
    c.write(&mut ctx, info.blob, 0, &v1).unwrap();
    c.write(&mut ctx, info.blob, 0, &v2).unwrap();

    // Pinned read returns the pinned snapshot, and reports the latest.
    let (got, latest) = c
        .read_buf(
            &mut ctx,
            info.blob,
            seg(0, PAGE),
            &ReadOptions::at_version(1),
        )
        .unwrap();
    assert_eq!((got.to_vec(), latest), (v1, 2));

    // Default options read the latest snapshot.
    let (got, latest) = c
        .read_buf(&mut ctx, info.blob, seg(0, PAGE), &ReadOptions::default())
        .unwrap();
    assert_eq!((got.to_vec(), latest), (v2, 2));

    // Pinning an unpublished version is a typed refusal, not a wait —
    // and it is not retryable, so a policy never spins on it.
    let err = c
        .read_buf(
            &mut ctx,
            info.blob,
            seg(0, PAGE),
            &ReadOptions::at_version(9),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlobError::VersionNotPublished {
                requested: 9,
                latest: 2
            }
        ),
        "{err:?}"
    );
}
