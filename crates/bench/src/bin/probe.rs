//! Diagnostic probe for the fig3c collapse: per-phase breakdown of reads
//! under 1 vs N concurrent clients.

use blobseer_bench::*;
use blobseer_core::{Deployment, DeploymentConfig, ReadOptions};
use blobseer_rpc::Ctx;
use std::sync::Arc;

const REGION: u64 = 256 * MB;
const SEG: u64 = 2 * MB;
const ITERS: u64 = 8;

fn run(n_clients: usize) {
    let d = Arc::new(Deployment::build(DeploymentConfig::grid5000(20)));
    let setup = d.client();
    let mut sctx = Ctx::start();
    let info = setup.alloc(&mut sctx, PAPER_BLOB, PAPER_PAGE).unwrap();
    prefill(&d, info.blob, 0, REGION, 8 * MB);
    let base = d.cluster.horizon();

    let handles: Vec<_> = (0..n_clients)
        .map(|k| {
            let d = Arc::clone(&d);
            let blob = info.blob;
            std::thread::spawn(move || {
                let client = d.client();
                let mut ctx = Ctx::at(base);
                // warm
                client
                    .read(
                        &mut ctx,
                        blob,
                        None,
                        disjoint_segment(0, REGION, SEG, k as u64 * ITERS),
                    )
                    .unwrap();
                let t0 = ctx.vt;
                let (mut lat, mut meta, mut data) = (0u64, 0u64, 0u64);
                let mut out = vec![0u8; SEG as usize];
                for i in 0..ITERS {
                    let seg = disjoint_segment(0, REGION, SEG, k as u64 * ITERS + i);
                    let (_, st) = client
                        .read_into_with(&mut ctx, blob, seg, &mut out, &ReadOptions::default())
                        .unwrap();
                    lat += st.latest_ns;
                    meta += st.meta_ns;
                    data += st.data_ns;
                }
                (ctx.vt - t0, lat, meta, data)
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (total, lat, meta, data) = h.join().unwrap();
        println!(
            "clients={n_clients} client#{i}: total={}ms latest={}ms meta={}ms data={}ms -> {:.1} MB/s",
            total / 1_000_000,
            lat / 1_000_000,
            meta / 1_000_000,
            data / 1_000_000,
            blobseer_util::stats::mbps(ITERS * SEG, total)
        );
    }
}

fn main() {
    run(1);
    run(2);
    run(8);
}
