//! The benchmark's two ways of issuing an operation.
//!
//! Untraced ops go through [`BlobClient`], the shipped entry point.
//! Traced ops issue the same sequence of public layer calls that
//! `BlobClient::write` and `BlobClient::read_into_with` compose — provider
//! plan, page puts, version grant, tree build, DHT puts, publish; latest,
//! cache probes, DHT descent, page gets, assembly — with a span around
//! each call. The deployment runs without retries, read fan-out or
//! replication, so those branches of the client have no counterpart here.
//! `probe` in `main.rs` checks that both ways send the same messages and
//! copy the same bytes.

use crate::trace::Tracer;
use blobseer_core::{BlobClient, Deployment, MetaCache, ReadOptions, StorageNodeService};
use blobseer_dht::DhtClient;
use blobseer_meta::read::{assemble_read_into, expand, root_key, Visit};
use blobseer_meta::write::build_write_tree;
use blobseer_proto::messages::{
    method, CompleteWrite, GetLatest, GetPage, PlanWrite, PublishState, PutPage, RequestVersion,
    WritePlan, WriteTicket,
};
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc};
use blobseer_proto::{BlobError, BlobId, Geometry, NodeId, PageBuf, ProviderId, Segment, Version};
use blobseer_rpc::{Ctx, RpcClient, ShardRouter};
use std::sync::Arc;

/// Work counts of one traced op, measured where the work happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    /// Distinct destinations of the page-put fan-out.
    pub put_rounds: u64,
    pub nodes_built: u64,
    /// `DhtClient::get_nodes` calls (descent levels with a cache miss).
    pub get_rounds: u64,
    pub nodes_visited: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// A client thread's handle: the shipped client, plus (when tracing) the
/// layer handles the traced composition calls.
pub struct Client {
    pub plain: BlobClient,
    traced: Option<Layers>,
}

struct Layers {
    rpc: RpcClient,
    dht: DhtClient,
    vms: ShardRouter,
    pm: NodeId,
    cache: Option<Arc<MetaCache>>,
    replication: u32,
    storage_nodes: Vec<NodeId>,
    storage: Vec<Arc<StorageNodeService>>,
}

impl Client {
    /// A client on its own node; `traced` also wires the layer handles
    /// (on a second node, as `Deployment::client` would).
    pub fn new(d: &Deployment, traced: bool) -> Self {
        let plain = d.client();
        let traced = traced.then(|| {
            let rpc = RpcClient::new(d.cluster.transport(), d.cluster.add_node())
                .with_aggregation(d.config.aggregation);
            Layers {
                dht: DhtClient::new(rpc.clone(), Arc::clone(&d.ring)),
                rpc,
                vms: ShardRouter::new(d.vm_nodes.clone()),
                pm: d.pm_node,
                cache: d.meta_cache.clone(),
                replication: d.config.replication,
                storage_nodes: d.storage_nodes.clone(),
                storage: d.storage.clone(),
            }
        });
        Self { plain, traced }
    }

    pub fn can_trace(&self) -> bool {
        self.traced.is_some()
    }

    /// WRITE `data` at `offset`; traced when a tracer is given.
    pub fn write(
        &self,
        ctx: &mut Ctx,
        tr: Option<(&mut Tracer, u64)>,
        blob: BlobId,
        geom: &Geometry,
        offset: u64,
        data: &[u8],
    ) -> Result<(Version, OpCounts), BlobError> {
        match (tr, &self.traced) {
            (Some((tr, op)), Some(l)) => {
                let root = tr.begin_op("core.write", op);
                let r = l.write(ctx, tr, blob, geom, offset, data);
                tr.end(root, r.is_err());
                r
            }
            _ => Ok((
                self.plain.write(ctx, blob, offset, data)?,
                OpCounts::default(),
            )),
        }
    }

    /// READ `seg` (at `version`, else latest) into `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        ctx: &mut Ctx,
        tr: Option<(&mut Tracer, u64)>,
        blob: BlobId,
        geom: &Geometry,
        version: Option<Version>,
        seg: Segment,
        out: &mut [u8],
    ) -> Result<OpCounts, BlobError> {
        match (tr, &self.traced) {
            (Some((tr, op)), Some(l)) => {
                let root = tr.begin_op("core.read", op);
                let mut keys = Vec::new();
                let r = l.read(ctx, tr, blob, geom, version, seg, out, &mut keys);
                tr.end(root, r.is_err());
                // The provider's own lookup of the same pages, in process
                // and off the wire: outside the op, so it adds no op time.
                tr.time("provider.page", || {
                    for (provider, key) in &keys {
                        if let Some(i) = l.storage_nodes.iter().position(|n| n.0 == provider.0) {
                            std::hint::black_box(l.storage[i].data().page(key));
                        }
                    }
                });
                r
            }
            _ => {
                let opts = ReadOptions {
                    version,
                    ..ReadOptions::default()
                };
                self.plain.read_into_with(ctx, blob, seg, out, &opts)?;
                Ok(OpCounts::default())
            }
        }
    }
}

impl Layers {
    fn write(
        &self,
        ctx: &mut Ctx,
        tr: &mut Tracer,
        blob: BlobId,
        geom: &Geometry,
        offset: u64,
        data: &[u8],
    ) -> Result<(Version, OpCounts), BlobError> {
        let mut counts = OpCounts::default();
        let data = tr.time("util.copy_in", || PageBuf::copy_from_slice(data));
        let seg = Segment::new(offset, data.len() as u64);
        let range = geom.validate_aligned(&seg)?;
        let n_pages = range.count();

        let plan: WritePlan = tr.span("provider.plan", || {
            self.rpc.call(
                ctx,
                self.pm,
                method::PLAN_WRITE,
                &PlanWrite {
                    blob,
                    pages: n_pages,
                    replication: self.replication,
                },
            )
        })?;
        if plan.targets.len() as u64 != n_pages {
            return Err(BlobError::Internal("write plan page count mismatch"));
        }

        let mut calls: Vec<(NodeId, u16, PutPage)> = Vec::new();
        let mut call_page: Vec<usize> = Vec::new();
        for (i, page_idx) in range.iter().enumerate() {
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
        counts.put_rounds = distinct(calls.iter().map(|c| c.0));
        let results = tr.time("rpc.page_puts", || {
            self.rpc.fan_out::<PutPage, ()>(ctx, &calls)
        });
        let mut replicas: Vec<Vec<ProviderId>> = vec![Vec::new(); n_pages as usize];
        let mut last_err = None;
        for (slot, res) in results.into_iter().enumerate() {
            match res {
                Ok(()) => replicas[call_page[slot]].push(ProviderId(calls[slot].0 .0)),
                Err(e) => last_err = Some(e),
            }
        }
        if replicas.iter().any(|r| r.is_empty()) {
            return Err(last_err.unwrap_or(BlobError::Internal("page put failed")));
        }
        let locs: Vec<PageLoc> = range
            .iter()
            .zip(replicas)
            .map(|(page_idx, replicas)| PageLoc {
                key: PageKey {
                    blob,
                    write: plan.write,
                    index: page_idx,
                },
                replicas,
            })
            .collect();

        let vm = self.vms.route(blob.0);
        let ticket: WriteTicket = tr.span("version.grant", || {
            self.rpc.call(
                ctx,
                vm,
                method::REQUEST_VERSION,
                &RequestVersion {
                    blob,
                    write: plan.write,
                    offset: seg.offset,
                    size: seg.size,
                },
            )
        })?;

        let nodes = tr.span("meta.build_tree", || {
            build_write_tree(geom, blob, &seg, &locs, &ticket)
        })?;
        counts.nodes_built = nodes.len() as u64;
        tr.span("dht.put_nodes", || self.dht.put_nodes(ctx, &nodes))?;
        if let Some(cache) = &self.cache {
            tr.time("util.cache_insert", || {
                for n in &nodes {
                    cache.try_insert(n.key, Arc::new(n.body.clone()));
                }
            });
        }

        let _: PublishState = tr.span("version.publish", || {
            self.rpc.call(
                ctx,
                vm,
                method::COMPLETE_WRITE,
                &CompleteWrite {
                    blob,
                    version: ticket.version,
                },
            )
        })?;
        Ok((ticket.version, counts))
    }

    #[allow(clippy::too_many_arguments)]
    fn read(
        &self,
        ctx: &mut Ctx,
        tr: &mut Tracer,
        blob: BlobId,
        geom: &Geometry,
        version: Option<Version>,
        seg: Segment,
        out: &mut [u8],
        keys_read: &mut Vec<(ProviderId, PageKey)>,
    ) -> Result<OpCounts, BlobError> {
        let mut counts = OpCounts::default();
        if out.len() as u64 != seg.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "buffer size mismatch",
            });
        }
        geom.validate_bounds(&seg)?;
        let latest: Version = tr.span("version.latest", || {
            self.rpc.call(
                ctx,
                self.vms.route(blob.0),
                method::GET_LATEST,
                &GetLatest { blob },
            )
        })?;
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
            out.fill(0);
            return Ok(counts);
        }

        let mut frontier = vec![root_key(geom, blob, v)];
        let mut zeros: Vec<Segment> = Vec::new();
        let mut leaves: Vec<PageLoc> = Vec::new();
        let mut ranges: Vec<Segment> = Vec::new();
        while !frontier.is_empty() {
            let mut bodies: Vec<Option<Arc<NodeBody>>> = vec![None; frontier.len()];
            let mut missing_idx = Vec::new();
            match &self.cache {
                Some(cache) => tr.time("util.cache_get", || {
                    for (i, key) in frontier.iter().enumerate() {
                        match cache.get(key) {
                            Some(body) => bodies[i] = Some(body),
                            None => missing_idx.push(i),
                        }
                    }
                }),
                None => missing_idx = (0..frontier.len()).collect(),
            }
            counts.cache_misses += missing_idx.len() as u64;
            counts.cache_hits += (frontier.len() - missing_idx.len()) as u64;
            if !missing_idx.is_empty() {
                let keys: Vec<NodeKey> = missing_idx.iter().map(|&i| frontier[i]).collect();
                counts.get_rounds += 1;
                let fetched = tr.span("dht.get_nodes", || self.dht.get_nodes(ctx, &keys))?;
                let id = tr.begin("util.cache_insert");
                for (&i, node) in missing_idx.iter().zip(fetched) {
                    let Some(node) = node else {
                        tr.end(id, true);
                        return Err(BlobError::MissingMetadata {
                            blob,
                            version: frontier[i].version,
                        });
                    };
                    let body = Arc::new(node.body);
                    if let Some(cache) = &self.cache {
                        cache.insert(node.key, Arc::clone(&body));
                    }
                    bodies[i] = Some(body);
                }
                tr.end(id, false);
            }
            counts.nodes_visited += frontier.len() as u64;
            frontier = tr.span("meta.expand", || {
                let mut next = Vec::new();
                for (key, body) in frontier.iter().zip(&bodies) {
                    let body = body.as_ref().ok_or(BlobError::Internal("unfilled node"))?;
                    for visit in expand(geom, key, body, &seg)? {
                        match visit {
                            Visit::Descend(k) => next.push(k),
                            Visit::Zeros(z) => zeros.push(z),
                            Visit::Page { page, blob_range } => {
                                leaves.push(page);
                                ranges.push(blob_range);
                            }
                        }
                    }
                }
                Ok::<_, BlobError>(next)
            })?;
        }

        // One replica per page here: every get goes to the page's primary.
        let calls: Vec<(NodeId, u16, GetPage)> = leaves
            .iter()
            .map(|loc| {
                let first = loc
                    .replicas
                    .first()
                    .copied()
                    .unwrap_or(ProviderId(u32::MAX));
                keys_read.push((first, loc.key));
                (NodeId(first.0), method::GET_PAGE, GetPage { key: loc.key })
            })
            .collect();
        let results = tr.time("rpc.page_gets", || {
            self.rpc.fan_out::<GetPage, PageBuf>(ctx, &calls)
        });
        let mut pages = Vec::with_capacity(leaves.len());
        for ((loc, range), res) in leaves.into_iter().zip(ranges).zip(results) {
            match res {
                Ok(data) => pages.push((loc, range, data)),
                Err(e) if e.retry_after_hint_ms().is_some() => return Err(e),
                Err(_) => {
                    return Err(BlobError::MissingPage {
                        tried: loc.replicas,
                    })
                }
            }
        }
        tr.span("meta.assemble", || {
            assemble_read_into(geom, &seg, &zeros, &pages, out)
        })?;
        Ok(counts)
    }
}

fn distinct(nodes: impl Iterator<Item = NodeId>) -> u64 {
    let mut seen: Vec<NodeId> = Vec::new();
    for n in nodes {
        if !seen.contains(&n) {
            seen.push(n);
        }
    }
    seen.len() as u64
}
