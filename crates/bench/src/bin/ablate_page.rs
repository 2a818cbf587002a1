//! **Ablation: page size** — the paper's §V.A tradeoff: "there is a
//! tradeoff between striping and streaming. Dispersing data too fine
//! grained might not pay off because of RPC call overhead."
//!
//! Fixed 8 MiB accesses on 20 providers, page size swept 16 KiB → 1 MiB.
//! Small pages multiply per-page RPCs and metadata tree size; large pages
//! reduce dispersion (fewer providers touched per access).

use blobseer_bench::*;
use blobseer_core::{Deployment, DeploymentConfig, ReadOptions, WriteOptions};
use blobseer_proto::PageBuf;
use blobseer_rpc::Ctx;
use blobseer_util::stats::Table;

const ACCESS: u64 = 8 * MB;

fn main() {
    let mut table = Table::new(&[
        "page size",
        "write total (s)",
        "write meta (s)",
        "read total (s)",
        "read meta (s)",
        "tree nodes/write",
    ]);
    for page in [16 * KB, 64 * KB, 256 * KB, 1024 * KB] {
        let d = Deployment::build(DeploymentConfig::grid5000(20));
        let client = d.client();
        let mut ctx = Ctx::start();
        let info = client.alloc(&mut ctx, 1 << 36, page).unwrap();

        // Warm connections.
        client
            .write(&mut ctx, info.blob, 1 << 33, &payload(page, 1))
            .unwrap();

        let (_, wstats) = client
            .write_with(
                &mut ctx,
                info.blob,
                0,
                PageBuf::from_vec(payload(ACCESS, 2)),
                &WriteOptions::default(),
            )
            .unwrap();
        let reader = d.client();
        let mut rctx = Ctx::at(d.cluster.horizon());
        let mut out = vec![0u8; ACCESS as usize];
        let (_, rstats) = reader
            .read_into_with(
                &mut rctx,
                info.blob,
                blobseer_proto::Segment::new(0, ACCESS),
                &mut out,
                &ReadOptions::default(),
            )
            .unwrap();

        table.row(&[
            format!("{} KiB", page / KB),
            secs(wstats.total_ns()),
            secs(wstats.metadata_ns()),
            secs(rstats.total_ns()),
            secs(rstats.metadata_ns()),
            wstats.nodes_built.to_string(),
        ]);
        println!(
            "page {} KiB: write {} s (meta {}), read {} s (meta {}), {} nodes",
            page / KB,
            secs(wstats.total_ns()),
            secs(wstats.metadata_ns()),
            secs(rstats.total_ns()),
            secs(rstats.metadata_ns()),
            wstats.nodes_built
        );
    }
    emit(
        "ablate_page",
        "Ablation: page-size sweep (8 MiB accesses, 20 providers)",
        &table,
    );
    println!("shape checks: metadata cost shrinks as pages grow; data path flattens");
}
