//! `BlobClient` — the public client library: `ALLOC` / `READ` / `WRITE`
//! exactly as specified in the paper's §II, plus the §VI future-work
//! features (garbage collection, client-side metadata caching, page
//! replication) implemented.
//!
//! Protocol fidelity (§III.B):
//! * **READ**: one version-manager round trip for the latest version, then
//!   a level-by-level descent of the segment tree with *batched, parallel*
//!   metadata fetches, then *parallel* page downloads — no lock anywhere,
//!   no interaction with any writer.
//! * **WRITE**: provider-manager plan → parallel page puts → version +
//!   border links from the version manager → metadata built **in
//!   isolation** → batched metadata puts → completion report.
//!
//! The data path has one entry point per data source or destination,
//! each with its own page-copy count (pinned by the copy-discipline
//! tests in `crates/core/tests/`):
//!
//! | method | payload | copies | returns |
//! |---|---|---|---|
//! | [`write`](BlobClient::write) | borrowed slice | 1 | `vw` |
//! | [`write_with`](BlobClient::write_with) | shared [`PageBuf`] + [`WriteOptions`] | 0 | `vw` + [`WriteStats`] |
//! | [`write_unaligned`](BlobClient::write_unaligned) | borrowed slice, any offset | read-modify-write | `vw` |
//! | [`read`](BlobClient::read) | owned `Vec` | 1 per page | bytes + `vr` |
//! | [`read_into_with`](BlobClient::read_into_with) | caller's buffer + [`ReadOptions`] | 1 per page | `vr` + [`ReadStats`] |
//! | [`read_buf`](BlobClient::read_buf) | [`PageBuf`] + [`ReadOptions`] | 0 for one aligned page | buffer + `vr` |
//!
//! `write_with` is the one write pipeline; the three reads share one
//! resolve step (retry loop, version resolution, tree descent, page
//! fetch) and differ only in how they assemble.
//!
//! The client charges its own per-node processing costs (deserialization,
//! tree descent, buffer stitching) to the virtual clock — the paper notes
//! "the main limiting factor is actually the performance of the client's
//! processing power", and reproducing Figure 3(a) depends on it.

use crate::heat::HeatTracker;
use crate::options::{ReadOptions, WriteOptions};
use blobseer_dht::{DhtClient, Ring};
use blobseer_meta::read::{assemble_read, assemble_read_into, expand, root_key, Visit};
use blobseer_meta::shape::align_to_pages;
use blobseer_meta::write::build_write_tree;
use blobseer_proto::messages::{
    method, BlobInfo, CompleteWrite, CreateBlob, GcRequest, GetLatest, GetPage, PlanWrite,
    PublishState, PutPage, RemovePage, RequestVersion, WriteTicket,
};
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc, TreeNode};
use blobseer_proto::{BlobError, BlobId, Geometry, NodeId, PageBuf, ProviderId, Segment, Version};
use blobseer_rpc::{Ctx, RetryPolicy, RpcClient, ShardRouter};
use blobseer_simnet::ClientCosts;
use blobseer_util::{lockmeter, ClockCache, FxHashMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The client-side metadata-tree cache: a sharded concurrent CLOCK cache
/// of refcounted tree-node bodies. One instance may be shared by any
/// number of [`BlobClient`]s (tree nodes are immutable, so the cache
/// never needs invalidation), letting co-located readers warm one cache
/// instead of N cold ones.
pub type MetaCache = ClockCache<NodeKey, Arc<NodeBody>>;

/// Virtual-time breakdown of one WRITE (Figure 3(b)'s instrument).
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteStats {
    /// Provider-manager plan round trip.
    pub plan_ns: u64,
    /// Parallel page puts.
    pub pages_ns: u64,
    /// Version + border-link round trip.
    pub ticket_ns: u64,
    /// Metadata build + batched DHT puts — the paper's "metadata write".
    pub meta_ns: u64,
    /// Completion report round trip.
    pub publish_ns: u64,
    /// Tree nodes this write created.
    pub nodes_built: u64,
}

impl WriteStats {
    /// The metadata share (ticket + build + store + publish) — what
    /// Fig. 3(b) plots.
    pub fn metadata_ns(&self) -> u64 {
        self.ticket_ns + self.meta_ns + self.publish_ns
    }

    /// Total time.
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.pages_ns + self.ticket_ns + self.meta_ns + self.publish_ns
    }
}

/// Virtual-time breakdown of one READ (Figure 3(a)'s instrument).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStats {
    /// Version-manager round trip.
    pub latest_ns: u64,
    /// Tree descent with batched metadata fetches — what Fig. 3(a) plots.
    pub meta_ns: u64,
    /// Parallel page downloads + buffer assembly.
    pub data_ns: u64,
    /// Tree nodes visited.
    pub nodes_visited: u64,
}

impl ReadStats {
    /// The metadata share (latest + descent).
    pub fn metadata_ns(&self) -> u64 {
        self.latest_ns + self.meta_ns
    }

    /// Total time.
    pub fn total_ns(&self) -> u64 {
        self.latest_ns + self.meta_ns + self.data_ns
    }
}

/// The resolved pieces of one READ, ready for assembly: the zero
/// ranges and the fetched pages (shared buffers) with their clipped
/// blob ranges.
struct ReadPlan {
    geom: Geometry,
    latest: Version,
    stats: ReadStats,
    zeros: Vec<Segment>,
    pages: Vec<(PageLoc, Segment, PageBuf)>,
}

/// A client of the blob store. One instance per logical client process;
/// cheap to create. Nothing in it serializes independent operations: the
/// metadata cache is a shared concurrent [`MetaCache`] and the geometry
/// map is read-checked before its write lock is ever touched (see
/// `crates/core/tests/lock_free.rs` for the measured invariant).
pub struct BlobClient {
    rpc: RpcClient,
    vms: ShardRouter,
    pm: NodeId,
    dht: DhtClient,
    costs: ClientCosts,
    cache: Option<Arc<MetaCache>>,
    geoms: RwLock<FxHashMap<BlobId, Geometry>>,
    replication: u32,
    retry: RetryPolicy,
    heat: Option<Arc<HeatTracker>>,
    // Round-robin cursor spreading multi-replica page reads.
    rr: AtomicU64,
    // Round-robin cursor spreading key-less version-manager requests
    // (blob creation) across shards.
    vm_rr: AtomicU64,
}

impl BlobClient {
    /// Assemble a client. Usually called via
    /// [`Deployment::client`](crate::Deployment::client), which hands
    /// every client one shared [`MetaCache`].
    pub fn new(
        rpc: RpcClient,
        vm: NodeId,
        pm: NodeId,
        ring: Arc<RwLock<Ring>>,
        costs: ClientCosts,
        cache: Option<Arc<MetaCache>>,
        replication: u32,
    ) -> Self {
        let dht = DhtClient::new(rpc.clone(), ring);
        Self {
            rpc,
            vms: ShardRouter::new(vec![vm]),
            pm,
            dht,
            costs,
            cache,
            // lint: allow(unmetered-lock) — construction only; every geometry-map
            // acquisition below carries its Shared/Serializing charge
            geoms: RwLock::new(FxHashMap::default()),
            replication,
            retry: RetryPolicy::none(),
            heat: None,
            rr: AtomicU64::new(0),
            vm_rr: AtomicU64::new(0),
        }
    }

    /// Route version-manager traffic across sharded manager nodes:
    /// `nodes[s]` must serve the registry shard owning blob ids
    /// `≡ s (mod nodes.len())`. Blob-keyed requests route by one modulo
    /// (`vm_for`); creation round-robins, since any shard may
    /// allocate (each hands out ids from its own residue class).
    pub fn with_version_nodes(mut self, nodes: Vec<NodeId>) -> Self {
        self.vms = ShardRouter::new(nodes);
        self
    }

    /// The version-manager shard owning `blob`.
    fn vm_for(&self, blob: BlobId) -> NodeId {
        self.vms.route(blob.0)
    }

    /// Set the client-wide default [`RetryPolicy`], applied to
    /// idempotent operations when a call's options don't override it.
    /// The default is [`RetryPolicy::none`] (fail fast).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a shared [`HeatTracker`]: page fetches are counted and
    /// hot pages are promoted onto extra providers (read fan-out).
    pub fn with_heat(mut self, heat: Arc<HeatTracker>) -> Self {
        self.heat = Some(heat);
        self
    }

    /// The client-wide default retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The shared heat tracker, when fan-out is enabled.
    pub fn heat(&self) -> Option<&Arc<HeatTracker>> {
        self.heat.as_ref()
    }

    /// Back off before retry `attempt`, spending the delay on both
    /// clocks: the virtual clock (so sim benches see queueing delay)
    /// and the wall clock (so TCP peers actually get air). Returns
    /// `None` — ending the retry loop — once the policy or the caller's
    /// `deadline_ms` budget (measured in virtual time since `t0`) is
    /// exhausted, or the error is not retryable.
    fn backoff(
        &self,
        ctx: &mut Ctx,
        policy: &RetryPolicy,
        deadline_ms: Option<u64>,
        t0: u64,
        attempt: u32,
        err: &BlobError,
    ) -> Option<()> {
        let delay = policy.backoff_for(attempt, err)?;
        let delay_ns = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
        if let Some(ms) = deadline_ms {
            let budget_ns = ms.saturating_mul(1_000_000);
            if (ctx.vt - t0).saturating_add(delay_ns) > budget_ns {
                return None;
            }
        }
        ctx.advance(delay_ns);
        if delay > Duration::ZERO {
            std::thread::sleep(delay);
        }
        Some(())
    }

    /// `(hits, misses)` of the metadata cache, if enabled. When the cache
    /// is shared, the counters aggregate every sharing client.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Record `blob`'s geometry, write-locking the map only when the
    /// entry is actually new or changed — repeated opens of a known blob
    /// stay lock-write-free (geometries are immutable, so the read check
    /// almost always suffices).
    fn remember_geometry(&self, blob: BlobId, geom: Geometry) {
        lockmeter::record_shared();
        if self.geoms.read().get(&blob) == Some(&geom) {
            return;
        }
        lockmeter::record_serializing();
        self.geoms.write().insert(blob, geom);
    }

    /// `ALLOC`: create a blob, returning its descriptor.
    pub fn alloc(
        &self,
        ctx: &mut Ctx,
        total_size: u64,
        page_size: u64,
    ) -> Result<BlobInfo, BlobError> {
        let shard = self
            .vms
            .round_robin(self.vm_rr.fetch_add(1, Ordering::Relaxed));
        let info: BlobInfo = self.rpc.call(
            ctx,
            shard,
            method::CREATE_BLOB,
            &CreateBlob {
                total_size,
                page_size,
            },
        )?;
        self.remember_geometry(info.blob, info.geometry());
        Ok(info)
    }

    /// Blob descriptor (geometry + latest published version).
    pub fn info(&self, ctx: &mut Ctx, blob: BlobId) -> Result<BlobInfo, BlobError> {
        let info: BlobInfo = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::GET_BLOB,
            &GetLatest { blob },
        )?;
        self.remember_geometry(info.blob, info.geometry());
        Ok(info)
    }

    /// Latest published version.
    pub fn latest(&self, ctx: &mut Ctx, blob: BlobId) -> Result<Version, BlobError> {
        self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::GET_LATEST,
            &GetLatest { blob },
        )
    }

    fn geometry(&self, ctx: &mut Ctx, blob: BlobId) -> Result<Geometry, BlobError> {
        lockmeter::record_shared();
        if let Some(g) = self.geoms.read().get(&blob) {
            return Ok(*g);
        }
        Ok(self.info(ctx, blob)?.geometry())
    }

    // ------------------------------------------------------------------
    // WRITE
    // ------------------------------------------------------------------

    /// `WRITE(id, buffer, offset, size)` for page-aligned segments.
    /// Returns the snapshot version this write produced (`vw`).
    ///
    /// The buffer is copied **once** into a shared [`PageBuf`]; page
    /// splitting, replica fan-out, framing and batching all share that
    /// single allocation. Callers that already hold a `PageBuf` should
    /// use [`BlobClient::write_with`], which performs zero copies.
    pub fn write(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: &[u8],
    ) -> Result<Version, BlobError> {
        let buf = PageBuf::copy_from_slice(data);
        self.write_with(ctx, blob, offset, buf, &WriteOptions::default())
            .map(|(v, _)| v)
    }

    /// The write pipeline, and the zero-copy `WRITE`: the caller's
    /// buffer is shared, never copied. Plan → page puts (idempotent,
    /// retried under `opts`) → version ticket → metadata → publish
    /// (never retried). Returns `vw` and the per-phase virtual-time
    /// breakdown — the instrument behind Figure 3(b), which reports the
    /// *metadata* share of a write.
    pub fn write_with(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: PageBuf,
        opts: &WriteOptions,
    ) -> Result<(Version, WriteStats), BlobError> {
        let t0 = ctx.vt;
        let seg = Segment::new(offset, data.len() as u64);
        let geom = self.geometry(ctx, blob)?;
        let range = geom.validate_aligned(&seg)?;
        let n_pages = range.count();

        // Step 1: provider-manager plan (write id + page placement).
        let plan: blobseer_proto::messages::WritePlan = self.rpc.call(
            ctx,
            self.pm,
            method::PLAN_WRITE,
            &PlanWrite {
                blob,
                pages: n_pages,
                replication: self.replication,
            },
        )?;
        if plan.targets.len() as u64 != n_pages {
            return Err(BlobError::Internal("write plan page count mismatch"));
        }
        let t_plan = ctx.vt;

        // Step 2: parallel page puts — one call per (page, replica).
        // Splitting the buffer into page-sized send buffers is O(1) per
        // page (shared slices of the one write buffer), and every replica
        // of a page shares the same allocation: the fan-out moves
        // refcounts, not bytes.
        //
        // Page puts are the idempotent prefix of the pipeline (pages are
        // immutable: re-putting a key re-stores identical bytes), so
        // pages that collected zero acks — shed or unreachable replicas —
        // are retried under the policy before the write gives up. The
        // version-publish legs below never retry.
        ctx.advance(self.costs.write_page_ns * n_pages);
        let policy = opts.retry.unwrap_or(self.retry);
        let t_retry0 = ctx.vt;
        let mut ok_replicas: Vec<Vec<ProviderId>> = vec![Vec::new(); n_pages as usize];
        let mut attempt = 0u32;
        loop {
            let mut calls: Vec<(NodeId, u16, PutPage)> = Vec::new();
            let mut call_page: Vec<usize> = Vec::new();
            for (i, page_idx) in range.iter().enumerate() {
                if !ok_replicas[i].is_empty() {
                    continue; // acked on a previous attempt
                }
                let key = PageKey {
                    blob,
                    write: plan.write,
                    index: page_idx,
                };
                let start = i * geom.page_size as usize;
                let page_data = data.slice(start..start + geom.page_size as usize);
                for &target in &plan.targets[i] {
                    calls.push((
                        NodeId(target.0),
                        method::PUT_PAGE,
                        PutPage {
                            key,
                            data: page_data.clone(),
                        },
                    ));
                    call_page.push(i);
                }
            }
            let put_results = self.rpc.fan_out::<PutPage, ()>(ctx, &calls);

            // A page is durable on the replicas that acknowledged;
            // require at least one per page.
            let mut last_err = None;
            for (slot, res) in put_results.into_iter().enumerate() {
                let page_i = call_page[slot];
                match res {
                    Ok(()) => ok_replicas[page_i].push(ProviderId(calls[slot].0 .0)),
                    Err(e) => last_err = Some(e),
                }
            }
            if ok_replicas.iter().all(|r| !r.is_empty()) {
                break;
            }
            let err = last_err.unwrap_or(BlobError::Internal("page put failed"));
            if self
                .backoff(ctx, &policy, opts.deadline_ms, t_retry0, attempt, &err)
                .is_none()
            {
                return Err(err);
            }
            attempt += 1;
        }
        let locs: Vec<PageLoc> = range
            .iter()
            .zip(ok_replicas)
            .map(|(page_idx, replicas)| PageLoc {
                key: PageKey {
                    blob,
                    write: plan.write,
                    index: page_idx,
                },
                replicas,
            })
            .collect();
        let t_pages = ctx.vt;

        // Step 3: version number + precomputed border links.
        let ticket: WriteTicket = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::REQUEST_VERSION,
            &RequestVersion {
                blob,
                write: plan.write,
                offset: seg.offset,
                size: seg.size,
            },
        )?;
        let t_ticket = ctx.vt;

        // Step 4: build metadata in complete isolation, then batched puts.
        let nodes = build_write_tree(&geom, blob, &seg, &locs, &ticket)?;
        ctx.advance(self.costs.build_node_ns * nodes.len() as u64);
        self.dht.put_nodes(ctx, &nodes)?;
        if let Some(cache) = &self.cache {
            // Best effort: a writer never blocks on a contended cache
            // shard just to pre-warm readers — a skipped insert costs at
            // most one DHT fetch later.
            for n in &nodes {
                cache.try_insert(n.key, Arc::new(n.body.clone()));
            }
            ctx.advance(self.costs.cache_ns * nodes.len() as u64);
        }

        let t_meta = ctx.vt;

        // Step 5: report success; the version manager publishes in order.
        let _publish: PublishState = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::COMPLETE_WRITE,
            &CompleteWrite {
                blob,
                version: ticket.version,
            },
        )?;
        let stats = WriteStats {
            plan_ns: t_plan - t0,
            pages_ns: t_pages - t_plan,
            ticket_ns: t_ticket - t_pages,
            meta_ns: t_meta - t_ticket,
            publish_ns: ctx.vt - t_meta,
            nodes_built: blobseer_meta::node_count_for_write(&geom, &seg),
        };
        Ok((ticket.version, stats))
    }

    /// `WRITE` for arbitrary segments: read-modify-write of the boundary
    /// pages against the latest published snapshot. Note the paper's model
    /// only defines aligned segments (§II); this extension patches at page
    /// granularity, so two *concurrent* unaligned writers touching the
    /// same boundary page resolve last-writer-wins on that page.
    pub fn write_unaligned(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: &[u8],
    ) -> Result<Version, BlobError> {
        let seg = Segment::new(offset, data.len() as u64);
        let geom = self.geometry(ctx, blob)?;
        geom.validate_bounds(&seg)?;
        let envelope = align_to_pages(&geom, &seg);
        if envelope == seg {
            return self.write(ctx, blob, offset, data);
        }
        let (mut buf, _latest) = self.read(ctx, blob, None, envelope)?;
        let start = (seg.offset - envelope.offset) as usize;
        buf[start..start + data.len()].copy_from_slice(data);
        self.write(ctx, blob, envelope.offset, &buf)
    }

    // ------------------------------------------------------------------
    // READ
    // ------------------------------------------------------------------

    /// `READ(id, v, buffer, offset, size)`.
    ///
    /// * `version: None` reads the latest published snapshot.
    /// * `version: Some(v)` fails with
    ///   [`BlobError::VersionNotPublished`] if `v` has not been published —
    ///   exactly the paper's semantics.
    ///
    /// Returns the bytes and `vr`, the latest published version observed
    /// (`vr >= v` always holds). Each page is copied exactly once, from
    /// the (shared) fetched buffer into the result.
    pub fn read(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version), BlobError> {
        let opts = ReadOptions {
            version,
            ..ReadOptions::default()
        };
        let plan = self.resolve(ctx, blob, seg, &opts)?;
        let buf = assemble_read(&plan.geom, &seg, &plan.zeros, &plan.pages)?;
        Ok((buf, plan.latest))
    }

    /// Scatter-assembling `READ` into a caller-provided buffer of exactly
    /// `seg.size` bytes, under [`ReadOptions`] (version pin, retry
    /// override, admission deadline): each page is copied exactly once,
    /// directly into `out`; no intermediate result buffer exists.
    /// Returns `vr` and the virtual-time breakdown — the instrument
    /// behind Figure 3(a), which reports the *metadata* share of a read.
    pub fn read_into_with(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        seg: Segment,
        out: &mut [u8],
        opts: &ReadOptions,
    ) -> Result<(Version, ReadStats), BlobError> {
        if out.len() as u64 != seg.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "buffer size mismatch",
            });
        }
        let plan = self.resolve(ctx, blob, seg, opts)?;
        assemble_read_into(&plan.geom, &seg, &plan.zeros, &plan.pages, out)?;
        Ok((plan.latest, plan.stats))
    }

    /// Zero-copy `READ` of a single-page-aligned segment: returns the
    /// fetched page buffer itself (a refcount borrow of the provider's
    /// stored page under the in-process transports) — **zero** page
    /// copies end to end. Non-aligned or multi-page segments are
    /// assembled with exactly one copy per page.
    pub fn read_buf(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        seg: Segment,
        opts: &ReadOptions,
    ) -> Result<(PageBuf, Version), BlobError> {
        let plan = self.resolve(ctx, blob, seg, opts)?;
        let page_size = plan.geom.page_size;
        // Fast path: the read is exactly one whole page (a leaf's range
        // equals `seg` only when `seg` lies inside that one page).
        if let ([], [(_, blob_range, data)]) = (&plan.zeros[..], &plan.pages[..]) {
            if *blob_range == seg && seg.size == page_size && data.len() as u64 == page_size {
                return Ok((data.clone(), plan.latest));
            }
        }
        let buf = assemble_read(&plan.geom, &seg, &plan.zeros, &plan.pages)?;
        Ok((PageBuf::from_vec(buf), plan.latest))
    }

    /// The resolve step the three reads share, under the retry loop:
    /// reads are idempotent end to end, so a shed or unreachable attempt
    /// is replayed whole under the effective policy (per-call override,
    /// else the client default) until it succeeds, the policy caps out,
    /// or the `deadline_ms` budget is spent.
    fn resolve(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        seg: Segment,
        opts: &ReadOptions,
    ) -> Result<ReadPlan, BlobError> {
        let policy = opts.retry.unwrap_or(self.retry);
        let t0 = ctx.vt;
        let mut attempt = 0u32;
        loop {
            match self.resolve_once(ctx, blob, opts.version, seg) {
                Ok(plan) => return Ok(plan),
                Err(e) => {
                    if self
                        .backoff(ctx, &policy, opts.deadline_ms, t0, attempt, &e)
                        .is_none()
                    {
                        return Err(e);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// One resolve attempt: version resolution, cached level-by-level
    /// tree descent, parallel page fetches. Returns the pieces for the
    /// caller to assemble.
    fn resolve_once(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<ReadPlan, BlobError> {
        let t0 = ctx.vt;
        let geom = self.geometry(ctx, blob)?;
        geom.validate_bounds(&seg)?;

        // Single interaction with the (only) centralized entity.
        let latest = self.latest(ctx, blob)?;
        let t_latest = ctx.vt;
        let v = match version {
            None => latest,
            Some(v) if v > latest => {
                return Err(BlobError::VersionNotPublished {
                    requested: v,
                    latest,
                })
            }
            Some(v) => v,
        };
        if v == 0 {
            // Nothing was ever written: one zero range, no pages.
            let stats = ReadStats {
                latest_ns: t_latest - t0,
                meta_ns: 0,
                data_ns: 0,
                nodes_visited: 0,
            };
            return Ok(ReadPlan {
                geom,
                latest,
                stats,
                zeros: vec![seg],
                pages: Vec::new(),
            });
        }

        // Level-by-level descent with batched parallel metadata fetches;
        // cache hits and misses alike hand out refcounted bodies, never
        // deep clones.
        let mut nodes_visited = 0u64;
        let mut frontier = vec![root_key(&geom, blob, v)];
        let mut zeros: Vec<Segment> = Vec::new();
        let mut leaves: Vec<(NodeKey, PageLoc, Segment)> = Vec::new();
        while !frontier.is_empty() {
            let mut bodies: Vec<Option<Arc<NodeBody>>> = vec![None; frontier.len()];
            let mut missing_idx = Vec::new();
            if let Some(cache) = &self.cache {
                for (i, key) in frontier.iter().enumerate() {
                    match cache.get(key) {
                        Some(body) => bodies[i] = Some(body),
                        None => missing_idx.push(i),
                    }
                }
                ctx.advance(self.costs.cache_ns * frontier.len() as u64);
            } else {
                missing_idx = (0..frontier.len()).collect();
            }
            if !missing_idx.is_empty() {
                let keys: Vec<NodeKey> = missing_idx.iter().map(|&i| frontier[i]).collect();
                let fetched = self.dht.get_nodes(ctx, &keys)?;
                for (&i, node) in missing_idx.iter().zip(fetched) {
                    let node = node.ok_or(BlobError::MissingMetadata {
                        blob,
                        version: frontier[i].version,
                    })?;
                    let body = Arc::new(node.body);
                    if let Some(cache) = &self.cache {
                        cache.insert(node.key, Arc::clone(&body));
                    }
                    bodies[i] = Some(body);
                }
                // Client-side processing of freshly fetched nodes.
                ctx.advance(self.costs.read_node_ns * missing_idx.len() as u64);
            }
            let mut next = Vec::new();
            nodes_visited += frontier.len() as u64;
            for (key, body) in frontier.iter().zip(bodies) {
                // lint: allow(panic-on-serving-path) — every missing index was
                // filled by the fetch loop above; a hole is a local logic bug
                let body = body.expect("filled above");
                for visit in expand(&geom, key, &body, &seg)? {
                    match visit {
                        Visit::Descend(k) => next.push(k),
                        Visit::Zeros(z) => zeros.push(z),
                        Visit::Page { page, blob_range } => leaves.push((*key, page, blob_range)),
                    }
                }
            }
            frontier = next;
        }
        let t_meta = ctx.vt;

        // Parallel page downloads with replica failover.
        let pages = self.fetch_pages(ctx, &leaves)?;
        ctx.advance(self.costs.page_ns * pages.len() as u64);
        let stats = ReadStats {
            latest_ns: t_latest - t0,
            meta_ns: t_meta - t_latest,
            data_ns: ctx.vt - t_meta,
            nodes_visited,
        };
        Ok(ReadPlan {
            geom,
            latest,
            stats,
            zeros,
            pages,
        })
    }

    /// Fetch every leaf's page. Single-replica pages go to their
    /// primary; multi-replica (fanned-out or replicated) pages rotate
    /// the starting replica round-robin so a hot page's read load
    /// spreads over every holder. On failure the remaining replicas are
    /// tried in rotation order; if every replica fails, a typed
    /// `Overload` among the failures wins over `MissingPage` (the page
    /// exists — the system is shedding, and the caller's retry policy
    /// should see that).
    ///
    /// Successful fetches feed the shared [`HeatTracker`] (when
    /// enabled); a page crossing the promotion threshold is fanned out
    /// onto one more provider right here, best-effort.
    fn fetch_pages(
        &self,
        ctx: &mut Ctx,
        leaves: &[(NodeKey, PageLoc, Segment)],
    ) -> Result<Vec<(PageLoc, Segment, PageBuf)>, BlobError> {
        if leaves.is_empty() {
            return Ok(Vec::new());
        }
        let starts: Vec<usize> = leaves
            .iter()
            .map(|(_, loc, _)| {
                if loc.replicas.len() > 1 {
                    (self.rr.fetch_add(1, Ordering::Relaxed) % loc.replicas.len() as u64) as usize
                } else {
                    0
                }
            })
            .collect();
        let calls: Vec<(NodeId, u16, GetPage)> = leaves
            .iter()
            .zip(&starts)
            .map(|((_, loc, _), &start)| {
                // Well-formed leaves always carry at least one replica; a
                // malformed one routes to an impossible node and surfaces
                // as MissingPage through the normal failover path.
                let first = loc
                    .replicas
                    .get(start)
                    .copied()
                    .unwrap_or(ProviderId(u32::MAX));
                (NodeId(first.0), method::GET_PAGE, GetPage { key: loc.key })
            })
            .collect();
        let results = self.rpc.fan_out::<GetPage, PageBuf>(ctx, &calls);
        let mut out = Vec::with_capacity(leaves.len());
        for (((leaf_key, loc, range), res), start) in leaves.iter().zip(results).zip(&starts) {
            let data = match res {
                Ok(data) => data,
                Err(first_err) => {
                    // Failover: the remaining replicas, in rotation order.
                    let mut found = None;
                    let mut last_shed = first_err.retry_after_hint_ms();
                    let n = loc.replicas.len();
                    for k in 1..n {
                        let replica = loc.replicas[(start + k) % n];
                        let r: Result<PageBuf, BlobError> = self.rpc.call(
                            ctx,
                            NodeId(replica.0),
                            method::GET_PAGE,
                            &GetPage { key: loc.key },
                        );
                        match r {
                            Ok(data) => {
                                found = Some(data);
                                break;
                            }
                            Err(e) => {
                                if let Some(hint) = e.retry_after_hint_ms() {
                                    last_shed = Some(last_shed.unwrap_or(0).max(hint));
                                }
                            }
                        }
                    }
                    match (found, last_shed) {
                        (Some(data), _) => data,
                        // Every replica failed and at least one shed:
                        // the page is there, the system is overloaded —
                        // keep the typed Overload so retry policies see
                        // it (never demote to MissingPage/Unreachable).
                        (None, Some(hint)) => {
                            return Err(BlobError::Overload {
                                retry_after_hint: hint,
                            })
                        }
                        (None, None) => {
                            return Err(BlobError::MissingPage {
                                tried: loc.replicas.clone(),
                            })
                        }
                    }
                }
            };
            if let Some(heat) = &self.heat {
                if heat.record_read(loc.key) && loc.replicas.len() < heat.options().max_replicas {
                    self.promote_page(ctx, *leaf_key, loc, &data);
                }
            }
            out.push((loc.clone(), *range, data));
        }
        Ok(out)
    }

    /// Fan a hot page out onto one more provider: reserve placement via
    /// the provider manager, store the already-fetched bytes there
    /// (refcount, no copy), and re-put the metadata leaf with the
    /// extended replica list — the publisher/subscriber split: the
    /// original writer's primary publishes, promoted providers
    /// subscribe by joining the leaf's `replicas`. Replica extension is
    /// additive, so stale cached leaves stay valid (they just name
    /// fewer replicas). Best-effort: any failure leaves the previous
    /// state intact and the next threshold crossing tries again.
    fn promote_page(&self, ctx: &mut Ctx, leaf: NodeKey, loc: &PageLoc, data: &PageBuf) {
        let outcome = (|| -> Result<bool, BlobError> {
            let plan: blobseer_proto::messages::WritePlan = self.rpc.call(
                ctx,
                self.pm,
                method::PLAN_WRITE,
                &PlanWrite {
                    blob: loc.key.blob,
                    pages: 1,
                    replication: 1,
                },
            )?;
            let Some(&target) = plan.targets.first().and_then(|t| t.first()) else {
                return Ok(false);
            };
            if loc.replicas.contains(&target) {
                // Placement chose an existing holder; skip this round.
                return Ok(false);
            }
            self.rpc.call::<PutPage, ()>(
                ctx,
                NodeId(target.0),
                method::PUT_PAGE,
                &PutPage {
                    key: loc.key,
                    data: data.clone(),
                },
            )?;
            let mut replicas = loc.replicas.clone();
            replicas.push(target);
            let node = TreeNode {
                key: leaf,
                body: NodeBody::Leaf {
                    page: PageLoc {
                        key: loc.key,
                        replicas,
                    },
                },
            };
            self.dht.put_nodes(ctx, std::slice::from_ref(&node))?;
            if let Some(cache) = &self.cache {
                cache.insert(node.key, Arc::new(node.body));
            }
            Ok(true)
        })();
        if matches!(outcome, Ok(true)) {
            if let Some(heat) = &self.heat {
                heat.record_promotion();
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection (paper §VI future work, implemented)
    // ------------------------------------------------------------------

    /// Discard every version below `keep_from`. Returns
    /// `(tree_nodes_removed, pages_removed)`.
    ///
    /// The version manager computes the dead set (metadata-only
    /// reasoning); the client resolves dead leaves to replica locations,
    /// deletes the pages, then the tree nodes.
    pub fn gc(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        keep_from: Version,
    ) -> Result<(u64, u64), BlobError> {
        let plan: blobseer_proto::messages::GcPlan = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::GC_PLAN,
            &GcRequest { blob, keep_from },
        )?;
        if plan.dead_nodes.is_empty() {
            return Ok((0, 0));
        }
        // Resolve dead leaves to their replica sets.
        let geom = self.geometry(ctx, blob)?;
        let leaf_keys: Vec<NodeKey> = plan
            .dead_nodes
            .iter()
            .copied()
            .filter(|k| k.size == geom.page_size)
            .collect();
        let leaves = self.dht.get_nodes(ctx, &leaf_keys)?;
        let mut page_calls: Vec<(NodeId, u16, RemovePage)> = Vec::new();
        for leaf in leaves.into_iter().flatten() {
            if let NodeBody::Leaf { page } = leaf.body {
                for &replica in &page.replicas {
                    page_calls.push((
                        NodeId(replica.0),
                        method::REMOVE_PAGE,
                        RemovePage { key: page.key },
                    ));
                }
            }
        }
        let removed_pages: u64 = self
            .rpc
            .fan_out::<RemovePage, bool>(ctx, &page_calls)
            .into_iter()
            .filter(|r| matches!(r, Ok(true)))
            .count() as u64;

        // Drop the metadata (all replicas) and purge the local cache.
        let removed_nodes = self.dht.remove_nodes(ctx, &plan.dead_nodes);
        if let Some(cache) = &self.cache {
            for k in &plan.dead_nodes {
                cache.remove(k);
            }
        }
        Ok((removed_nodes, removed_pages))
    }
}
