//! **Ablation: RPC aggregation** — the mechanism the paper credits for
//! Fig. 3(b)'s improvement with provider count ("our optimized RPC
//! mechanism, which aggregates requests for storage sent to the same
//! remote process").
//!
//! Repeats the Fig. 3(b) write sweep at 20 providers with aggregation ON
//! vs OFF, reporting metadata time and real message counts.

use blobseer_bench::*;
use blobseer_core::{Deployment, DeploymentConfig, WriteOptions};
use blobseer_proto::PageBuf;
use blobseer_rpc::{AggregationPolicy, Ctx};
use blobseer_util::stats::{OnlineStats, Table};

fn run(policy: AggregationPolicy, chatty: bool) -> Vec<(u64, f64, u64)> {
    let mut cfg = DeploymentConfig::grid5000(20);
    cfg.aggregation = policy;
    if chatty {
        // A chattier network (grid multi-site / congested switch): higher
        // per-message cost and latency. Aggregation's win scales with
        // exactly these two knobs.
        cfg.cost.rpc_overhead_ns = 200_000;
        cfg.cost.latency_ns = 500_000;
    }
    let d = Deployment::build(cfg);
    let mut out = Vec::new();
    for (row, &seg_size) in fig3ab_segments().iter().enumerate() {
        let mut stats = OnlineStats::new();
        let mut msgs = 0u64;
        let iters = 4;
        for i in 0..iters {
            let client = d.client();
            let mut ctx = Ctx::at(d.cluster.horizon());
            let info = if row == 0 && i == 0 {
                client.alloc(&mut ctx, PAPER_BLOB, PAPER_PAGE).unwrap()
            } else {
                client.info(&mut ctx, blobseer_proto::BlobId(1)).unwrap()
            };
            let offset = (row as u64 * iters + i) * (16 * MB);
            client
                .write(
                    &mut ctx,
                    info.blob,
                    offset + (1 << 35),
                    &payload(PAPER_PAGE, 3),
                )
                .unwrap();
            let before = d.cluster.message_count();
            let (_, wstats) = client
                .write_with(
                    &mut ctx,
                    info.blob,
                    offset,
                    PageBuf::from_vec(payload(seg_size, i)),
                    &WriteOptions::default(),
                )
                .unwrap();
            msgs = d.cluster.message_count() - before;
            stats.push(wstats.metadata_ns() as f64);
        }
        out.push((seg_size, stats.mean(), msgs));
    }
    out
}

fn main() {
    for (chatty, name, title) in [
        (
            false,
            "ablate_agg",
            "Ablation: RPC aggregation — Grid'5000 LAN costs",
        ),
        (
            true,
            "ablate_agg_wan",
            "Ablation: RPC aggregation — chatty network (multi-site)",
        ),
    ] {
        let on = run(AggregationPolicy::Batch, chatty);
        let off = run(AggregationPolicy::PerCall, chatty);
        let mut table = Table::new(&[
            "segment",
            "agg ON meta (s)",
            "agg OFF meta (s)",
            "speedup",
            "msgs ON",
            "msgs OFF",
        ]);
        for ((seg, t_on, m_on), (_, t_off, m_off)) in on.iter().zip(&off) {
            table.row(&[
                format!("{} KiB", seg / KB),
                secs(*t_on as u64),
                secs(*t_off as u64),
                format!("{:.2}x", t_off / t_on.max(1.0)),
                m_on.to_string(),
                m_off.to_string(),
            ]);
        }
        emit(name, title, &table);
    }
    println!(
        "shape checks: aggregation slashes message counts everywhere; its *time* win is \
         modest on the quiet LAN (provider store CPU dominates) and large when per-message \
         costs rise"
    );
}
