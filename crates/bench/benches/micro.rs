//! Criterion micro-benchmarks for the core data structures and hot paths.
//!
//! These are not the paper's figures (see `src/bin/fig3*.rs` for those);
//! they guard the building blocks: interval map, segment-tree algebra,
//! codec, metadata cache, ring, version assignment, publish window, and
//! the embedded engine's read/write paths.

use blobseer_core::LocalEngine;
use blobseer_dht::Ring;
use blobseer_meta::write::{border_specs, borders_to_links, build_write_tree};
use blobseer_meta::{node_count_for_write, write_intervals};
use blobseer_proto::messages::WriteTicket;
use blobseer_proto::tree::{PageKey, PageLoc, TreeNode};
use blobseer_proto::{BlobId, Geometry, NodeId, ProviderId, Segment, Wire, WriteId};
use blobseer_provider::{ProviderManagerService, Strategy};
use blobseer_simnet::ServiceCosts;
use blobseer_util::{ClockCache, IntervalMap};
use blobseer_version::{PublishWindow, VersionRegistry};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_interval_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_map");
    g.bench_function("assign_1k_random", |b| {
        b.iter(|| {
            let mut m: IntervalMap<u64> = IntervalMap::new();
            let mut x = 12345u64;
            for i in 0..1000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let start = x % (1 << 20);
                m.assign(start, start + 4096, i);
            }
            black_box(m.run_count())
        })
    });
    let mut m: IntervalMap<u64> = IntervalMap::new();
    let mut x = 999u64;
    for i in 0..10_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let start = x % (1 << 24);
        m.assign(start, start + 8192, i);
    }
    g.bench_function("range_max_hot", |b| {
        b.iter(|| black_box(m.range_max(black_box(1 << 20), black_box(1 << 21))))
    });
    g.finish();
}

fn bench_tree_algebra(c: &mut Criterion) {
    // The paper's scale: 1 TB blob, 64 KB pages (2^24 leaves).
    let geom = Geometry::new(1 << 40, 1 << 16).unwrap();
    let seg16m = Segment::new(123 << 24, 16 << 20);
    let mut g = c.benchmark_group("tree_algebra");
    g.bench_function("write_intervals_16MiB@1TB", |b| {
        b.iter(|| black_box(write_intervals(&geom, &seg16m).len()))
    });
    g.bench_function("border_specs_16MiB@1TB", |b| {
        b.iter(|| black_box(border_specs(&geom, &seg16m).len()))
    });
    g.bench_function("node_count_16MiB@1TB", |b| {
        b.iter(|| black_box(node_count_for_write(&geom, &seg16m)))
    });
    g.bench_function("build_write_tree_16MiB@1TB", |b| {
        let blob = BlobId(1);
        let pages: Vec<PageLoc> = (0..256)
            .map(|i| PageLoc {
                key: PageKey {
                    blob,
                    write: WriteId(1),
                    index: (seg16m.offset >> 16) + i,
                },
                replicas: vec![ProviderId(0)],
            })
            .collect();
        let specs = border_specs(&geom, &seg16m);
        let ticket = WriteTicket {
            version: 1,
            borders: borders_to_links(&specs, |_| Some(0)),
        };
        b.iter(|| {
            black_box(
                build_write_tree(&geom, blob, &seg16m, &pages, &ticket)
                    .unwrap()
                    .len(),
            )
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let node = TreeNode {
        key: blobseer_proto::NodeKey {
            blob: BlobId(3),
            version: 42,
            offset: 1 << 30,
            size: 1 << 20,
        },
        body: blobseer_proto::NodeBody::Leaf {
            page: PageLoc {
                key: PageKey {
                    blob: BlobId(3),
                    write: WriteId(7),
                    index: 999,
                },
                replicas: vec![ProviderId(1), ProviderId(2)],
            },
        },
    };
    let bytes = node.to_wire();
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_tree_node", |b| {
        b.iter(|| black_box(node.to_wire().len()))
    });
    g.bench_function("decode_tree_node", |b| {
        b.iter(|| black_box(TreeNode::from_wire(&bytes).unwrap()))
    });
    g.finish();
}

fn bench_provider_plan(c: &mut Criterion) {
    // The control-plane hot path this PR made lock-free: any regression
    // here shows up before it reaches the client sweep.
    let mut g = c.benchmark_group("provider_plan");
    for (name, strategy) in [
        ("plan_write_p2c_16pages@40", Strategy::PowerOfTwo),
        ("plan_write_least_loaded_16pages@40", Strategy::LeastLoaded),
    ] {
        g.bench_function(name, |b| {
            let m = ProviderManagerService::new(strategy, 7, ServiceCosts::zero());
            for i in 0..40 {
                m.register(ProviderId(i), u64::MAX / 2);
            }
            m.set_page_size_hint(64 * 1024);
            b.iter(|| black_box(m.plan_write(16, 2).unwrap().targets.len()))
        });
    }
    g.finish();
}

fn bench_meta_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("meta_cache");
    g.bench_function("clock_hit_hot_key", |b| {
        let cache: ClockCache<u64, u64> = ClockCache::new(1 << 16);
        for i in 0..(1u64 << 16) {
            cache.insert(i, i);
        }
        b.iter(|| black_box(cache.get(&42)))
    });
    g.bench_function("clock_insert_evict_cycle", |b| {
        let cache: ClockCache<u64, u64> = ClockCache::new(1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cache.insert(i, i);
            black_box(i)
        })
    });
    g.finish();
}

fn bench_ring(c: &mut Criterion) {
    let members: Vec<NodeId> = (0..40).map(NodeId).collect();
    let ring = Ring::new(&members, 128, 2, 7);
    c.bench_function("ring_replicas", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9e3779b97f4a7c15);
            black_box(ring.replicas(k))
        })
    });
}

fn bench_version_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("version_manager");
    g.bench_function("request_version_and_complete", |b| {
        let reg = VersionRegistry::default();
        let state = reg.create_blob(Geometry::new(1 << 40, 1 << 16).unwrap());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let seg = Segment::new(((i * 37) % 1024) << 16, 64 << 16);
            let t = state.request_version(WriteId(i), seg).unwrap();
            black_box(state.complete_write(t.version).unwrap())
        })
    });
    g.bench_function("publish_window_complete", |b| {
        let w = PublishWindow::new(1 << 16);
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            black_box(w.complete(v))
        })
    });
    g.finish();
}

fn bench_local_engine(c: &mut Criterion) {
    const PAGE: u64 = 64 * 1024;
    let mut g = c.benchmark_group("local_engine");
    g.throughput(Throughput::Bytes(4 * PAGE));
    g.bench_function("write_4_pages", |b| {
        let e = LocalEngine::new();
        let blob = e.alloc(1 << 34, PAGE).unwrap();
        let data = vec![7u8; (4 * PAGE) as usize];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let off = ((i * 13) % 1000) * 4 * PAGE;
            black_box(e.write(blob, off, &data).unwrap())
        })
    });
    g.bench_function("read_4_pages", |b| {
        let e = LocalEngine::new();
        let blob = e.alloc(1 << 30, PAGE).unwrap();
        let data = vec![7u8; (64 * PAGE) as usize];
        e.write(blob, 0, &data).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let off = ((i * 7) % 16) * 4 * PAGE;
            black_box(
                e.read(blob, Some(1), Segment::new(off, 4 * PAGE))
                    .unwrap()
                    .0
                    .len(),
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(30);
    targets =
        bench_interval_map,
        bench_tree_algebra,
        bench_codec,
        bench_meta_cache,
        bench_provider_plan,
        bench_ring,
        bench_version_manager,
        bench_local_engine
}
criterion_main!(benches);
