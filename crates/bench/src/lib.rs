//! # blobseer-bench
//!
//! Benchmark harnesses regenerating every figure of the CLUSTER'08
//! evaluation (§V), plus ablations for the design choices DESIGN.md calls
//! out. Each figure has a dedicated binary that prints the paper-style
//! series and writes a CSV under `results/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3a` | Fig. 3(a): metadata read overhead vs segment size, {10,20,40} providers |
//! | `fig3b` | Fig. 3(b): metadata write overhead vs segment size, {10,20,40} providers |
//! | `fig3c` | Fig. 3(c): per-client bandwidth vs number of concurrent clients |
//! | `ablate_agg` | RPC aggregation on/off (explains Fig. 3(b)) |
//! | `ablate_lock` | lock-free vs global-lock vs per-page-lock under mixed load |
//! | `ablate_page` | page-size sweep (striping-vs-overhead tradeoff, §V.A) |
//! | `sky_e2e` | the supernova pipeline on the simulated cluster |
//!
//! PR-acceptance sweeps (`pr1_zero_copy`, `pr2_lockfree`, `pr3_tcp`,
//! `pr4_backend`, `pr5_durability`, `pr6_reactor`, `pr7_restart`,
//! `pr9_workload` — the [`workload`]-driven open-loop overload storm
//! and hot-page fan-out ablation, with p50/p99/p999 latency columns —
//! and `pr10_hotblob`) emit `BENCH_PR*.json` at the repo root; the
//! [`gate`] module (driven by the `bench_gate` binary) compares fresh
//! smoke runs against those committed baselines and hard-fails CI when
//! an invariant column — bytes-copied-per-op or locks-per-op —
//! regresses, or when any baseline number has no fresh counterpart.
//! Throughput stays advisory. [`json`] is the dependency-free JSON
//! reader behind it.
//!
//! Every closed-loop leg of those sweeps runs through [`sweep`]. A
//! binary declares each leg as a [`sweep::Row`] — its deployment
//! builder (transport, backend, journals, any per-deployment
//! ablation), the op, page and segment size, client counts, ops per
//! client, addressing layout, reps and wall or virtual clock — and
//! calls [`sweep::run`], which returns one [`sweep::Sample`] per client
//! count with every meter. Process-global ablations are held around the
//! call through their RAII guards (`wire::zero_copy_ablation`,
//! `lockmeter::serialized_ablation`). [`sweep::json_series`] and
//! [`sweep::table`] render the samples with the binary's column set
//! ([`sweep::COPIES`], [`sweep::LOCKS`] or [`sweep::PARITY`]); the
//! binary keeps only its constants, its legs no other bench has, its
//! in-bench assertions and the layout of its JSON document.
//!
//! Criterion micro-benches live in `benches/micro.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod harness;
pub mod json;
pub mod sweep;
pub mod workload;

pub use harness::*;
