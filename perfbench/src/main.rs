//! The repository benchmark: survey-pipeline workloads against the shipped
//! stack — real loopback sockets, the reactor, mmap page logs and every
//! journal — with every byte read checked against what was written.
//!
//! ```text
//! perfbench --workload ingest|detect|survey --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with every other op issued through the traced layer calls of
//! `ops.rs` and prints the per-layer metrics. The last stdout line is one
//! JSON object; the exit code is nonzero on any wrong byte. See
//! `perfbench/README.md` for the workloads and the metric map.

mod gen;
mod idle;
mod ops;
mod stats;
mod trace;

use blobseer_core::{BackendKind, Deployment, DeploymentConfig};
use blobseer_proto::{BlobId, Geometry, Segment};
use blobseer_rpc::Ctx;
use blobseer_util::{copymeter, lockmeter};
use gen::{base_payload, page_matches, stamp_pages, Rng, Zipf};
use ops::{Client, OpCounts};
use stats::{median, window_rates, Summary};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{Profile, Span, Tracer};

const KIB: u64 = 1024;
const MIB: u64 = 1 << 20;
/// The paper's page size.
const PAGE: u64 = 64 * KIB;
/// Telescope writes: 16 pages.
const SEG: u64 = MIB;
/// One sky tile: 4 pages.
const TILE: u64 = 256 * KIB;
/// One 1 TiB blob per round.
const BLOB: u64 = 1 << 40;
const PROVIDERS: usize = 8;
/// Metadata cache size for every workload, in tree nodes.
const CACHE_NODES: usize = 2048;
/// Each storage node's page log is extended sparsely to this size up
/// front (the default is 4 GiB, which a file-size limit may refuse), and
/// the provider manager registers it as the node's capacity.
const LOG_CAP: u64 = 256 * MIB;
/// `ingest` stops a round's closed loop early once its writers have
/// issued this many bytes: 160 MiB per storage node on average, well
/// inside `LOG_CAP`, and below the dirty-page background threshold. At
/// 2 s rounds it binds only above 640 MiB/s; the throughput is then
/// still the rate over the windows of the loop's measured length.
const INGEST_ROUND_BYTES: u64 = 1280 * MIB;
const THREADS: usize = 2;
/// Length of one round: set-up, this much closed loop, restart, checks.
/// Every round runs on a fresh deployment and deletes it at the end, so
/// the page-log bytes alive at once (2 s of `ingest` at most) stay below
/// the kernel's dirty-page background threshold and no writeback runs
/// during a measurement.
const ROUND_S: f64 = 2.0;
/// `detect` reads Zipf-chosen tiles of this prefilled region.
const DETECT_REGION: u64 = 256 * MIB;
/// `survey` overwrites and reads this region.
const SURVEY_REGION: u64 = 16 * MIB;
/// `survey` reads pin a version 1..=PIN_BEHIND behind the latest.
const PIN_BEHIND: u64 = 4;
/// Segments `ingest` re-reads after each restart.
const VERIFY_INGEST: usize = 256;
/// Segments the other workloads re-read after each restart.
const VERIFY_OTHER: usize = 64;

const PREFILL: u64 = 0;
const MAIN: u64 = 1;
const VERIFY: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Ingest,
    Detect,
    Survey,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "ingest" => Some(Self::Ingest),
            "detect" => Some(Self::Detect),
            "survey" => Some(Self::Survey),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Ingest => "ingest",
            Self::Detect => "detect",
            Self::Survey => "survey",
        }
    }

    /// The phase whose writes give the write metrics: `detect` runs no
    /// writer, so its prefill (done in set-up) stands in.
    fn write_phase(self) -> u64 {
        if self == Self::Detect {
            PREFILL
        } else {
            MAIN
        }
    }

    /// The phase whose reads give the read metrics: `ingest` runs no
    /// reader, so its post-restart re-reads stand in.
    fn read_phase(self) -> u64 {
        if self == Self::Ingest {
            VERIFY
        } else {
            MAIN
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The shipped stack: 8 storage nodes on loopback TCP with the reactor at
/// its default thread counts, mmap page logs and journals with the
/// default `LogOptions` (`fsync_on_commit` off), no replication.
fn config() -> DeploymentConfig {
    DeploymentConfig::functional_tcp(PROVIDERS)
        .tune()
        .backend(BackendKind::Mmap)
        .cache_nodes(CACHE_NODES)
        .provider_capacity(LOG_CAP)
        .build()
}

/// One acknowledged write: where, which version, and how to rebuild its
/// bytes (`base` content stamped with `stamp`).
#[derive(Clone, Copy, Debug)]
struct WriteRec {
    off: u64,
    version: u64,
    stamp: u64,
    base: usize,
}

/// One issued op.
#[derive(Clone, Copy, Debug)]
struct OpRec {
    write: bool,
    phase: u64,
    round: u64,
    traced: bool,
    ok: bool,
    wrong: bool,
    lat_ns: u64,
    /// Completion time, seconds since the run's epoch.
    done_s: f64,
    bytes: u64,
    counts: OpCounts,
}

/// Span op ids carry the phase and kind, so profiles filter on them.
fn op_id(phase: u64, write: bool, thread: usize, seq: u64) -> u64 {
    (phase << 56) | ((write as u64) << 52) | ((thread as u64) << 48) | seq
}

fn op_phase(op: u64) -> u64 {
    op >> 56
}

fn op_is_write(op: u64) -> bool {
    (op >> 52) & 1 == 1
}

/// Check `buf`, read from `seg`, against the write `rec` covering it.
fn check(buf: &[u8], seg: Segment, rec: &WriteRec, bases: &[Vec<u8>]) -> bool {
    if seg.offset < rec.off || seg.end() > rec.off + SEG {
        return false;
    }
    buf.chunks(PAGE as usize).enumerate().all(|(i, page)| {
        let page_off = seg.offset + i as u64 * PAGE;
        page_matches(
            page,
            &bases[rec.base],
            (page_off - rec.off) as usize,
            page_off,
            rec.stamp,
        )
    })
}

/// One client thread's closed loop state.
struct Worker<'a> {
    client: &'a Client,
    blob: BlobId,
    geom: Geometry,
    bases: &'a [Vec<u8>],
    thread: usize,
    epoch: Instant,
    ctx: Ctx,
    tracer: Option<Tracer>,
    trace_all: bool,
    seq: u64,
    ops: Vec<OpRec>,
    wbuf: Vec<u8>,
    wbuf_base: usize,
    rbuf: Vec<u8>,
}

impl<'a> Worker<'a> {
    fn new(stage: &'a Stage, thread: usize, bases: &'a [Vec<u8>], epoch: Instant) -> Self {
        let client = &stage.clients[thread];
        Self {
            client,
            blob: stage.blob,
            geom: stage.geom,
            bases,
            thread,
            epoch,
            ctx: Ctx::start(),
            tracer: client.can_trace().then(|| Tracer::new(epoch)),
            trace_all: false,
            seq: 0,
            ops: Vec::new(),
            wbuf: Vec::new(),
            wbuf_base: usize::MAX,
            rbuf: Vec::new(),
        }
    }

    fn write(&mut self, phase: u64, off: u64, base: usize) -> Option<WriteRec> {
        if self.wbuf_base != base {
            self.wbuf = self.bases[base].clone();
            self.wbuf_base = base;
        }
        let stamp = ((base as u64) << 56) | (phase << 48) | self.seq;
        stamp_pages(&mut self.wbuf, off, PAGE, stamp);
        let op = op_id(phase, true, self.thread, self.seq);
        let tr = pick(&mut self.tracer, self.trace_all, self.seq, op);
        let traced = tr.is_some();
        let t0 = Instant::now();
        let res = self
            .client
            .write(&mut self.ctx, tr, self.blob, &self.geom, off, &self.wbuf);
        let done = Instant::now();
        let lat_ns = (done - t0).as_nanos() as u64;
        self.seq += 1;
        let (ok, version, counts) = match res {
            Ok((v, c)) => (true, v, c),
            Err(_) => (false, 0, OpCounts::default()),
        };
        self.ops.push(OpRec {
            write: true,
            phase,
            round: 0,
            traced,
            ok,
            wrong: false,
            lat_ns,
            done_s: (done - self.epoch).as_secs_f64(),
            bytes: SEG,
            counts,
        });
        ok.then_some(WriteRec {
            off,
            version,
            stamp,
            base,
        })
    }

    fn read(&mut self, phase: u64, seg: Segment, version: Option<u64>, rec: &WriteRec) {
        self.rbuf.resize(seg.size as usize, 0);
        let op = op_id(phase, false, self.thread, self.seq);
        let tr = pick(&mut self.tracer, self.trace_all, self.seq, op);
        let traced = tr.is_some();
        let t0 = Instant::now();
        let res = self.client.read(
            &mut self.ctx,
            tr,
            self.blob,
            &self.geom,
            version,
            seg,
            &mut self.rbuf,
        );
        let done = Instant::now();
        let lat_ns = (done - t0).as_nanos() as u64;
        self.seq += 1;
        let ok = res.is_ok();
        let wrong = ok && !check(&self.rbuf, seg, rec, self.bases);
        if wrong {
            eprintln!(
                "WRONG BYTES: {} read of {seg:?} at {version:?} (expected write {rec:?})",
                phase_name(phase)
            );
        }
        self.ops.push(OpRec {
            write: false,
            phase,
            round: 0,
            traced,
            ok,
            wrong,
            lat_ns,
            done_s: (done - self.epoch).as_secs_f64(),
            bytes: seg.size,
            counts: res.unwrap_or_default(),
        });
    }
}

/// The tracer for op `seq`: in a traced run every other op (every op
/// with `all`) goes through the traced layer calls.
fn pick(tracer: &mut Option<Tracer>, all: bool, seq: u64, op: u64) -> Option<(&mut Tracer, u64)> {
    match tracer {
        Some(t) if all || seq % 2 == 1 => Some((t, op)),
        _ => None,
    }
}

fn phase_name(phase: u64) -> &'static str {
    match phase {
        PREFILL => "prefill",
        MAIN => "main",
        _ => "verify",
    }
}

/// Process-global and per-deployment counters, read at phase boundaries.
#[derive(Clone, Copy, Debug, Default)]
struct Meters {
    msgs: u64,
    wire: u64,
    copies: u64,
    serializing: u64,
    version_assign: u64,
    page_log: u64,
    meta_journal: u64,
    version_journal: u64,
}

struct MeterStart {
    at: Meters,
    locks: lockmeter::LockSnapshot,
}

fn meter_now(d: &Deployment) -> Meters {
    Meters {
        msgs: d.cluster.message_count(),
        wire: d.cluster.byte_count(),
        copies: copymeter::bytes_copied(),
        page_log: d
            .storage
            .iter()
            .map(|s| s.data().stats().mapped_bytes)
            .sum(),
        meta_journal: d.storage.iter().map(|s| s.meta().log_bytes()).sum(),
        version_journal: d.vms.iter().map(|v| v.log_bytes()).sum(),
        ..Meters::default()
    }
}

impl MeterStart {
    fn new(d: &Deployment) -> Self {
        Self {
            at: meter_now(d),
            locks: lockmeter::snapshot(),
        }
    }

    fn delta(&self, d: &Deployment) -> Meters {
        let now = meter_now(d);
        let locks = self.locks.since();
        Meters {
            msgs: now.msgs - self.at.msgs,
            wire: now.wire - self.at.wire,
            copies: now.copies - self.at.copies,
            serializing: locks.serializing,
            version_assign: locks.version_assign,
            page_log: now.page_log - self.at.page_log,
            meta_journal: now.meta_journal - self.at.meta_journal,
            version_journal: now.version_journal - self.at.version_journal,
        }
    }
}

impl std::ops::AddAssign for Meters {
    fn add_assign(&mut self, o: Self) {
        self.msgs += o.msgs;
        self.wire += o.wire;
        self.copies += o.copies;
        self.serializing += o.serializing;
        self.version_assign += o.version_assign;
        self.page_log += o.page_log;
        self.meta_journal += o.meta_journal;
        self.version_journal += o.version_journal;
    }
}

/// A deployment with one blob and one client per thread.
struct Stage {
    d: Deployment,
    blob: BlobId,
    geom: Geometry,
    clients: Vec<Client>,
}

impl Stage {
    fn build(dir: &Path, traced: bool) -> Self {
        let d = Deployment::build_at(config(), dir);
        let clients: Vec<Client> = (0..THREADS).map(|_| Client::new(&d, traced)).collect();
        let mut ctx = Ctx::start();
        let info = clients[0]
            .plain
            .alloc(&mut ctx, BLOB, PAGE)
            .unwrap_or_else(|e| fatal(&format!("alloc: {e}")));
        // Warm every client's geometry outside the measured ops.
        for c in &clients[1..] {
            c.plain
                .info(&mut ctx, info.blob)
                .unwrap_or_else(|e| fatal(&format!("info: {e}")));
        }
        Self {
            blob: info.blob,
            geom: info.geometry(),
            d,
            clients,
        }
    }

    fn reconnect(&mut self, traced: bool) {
        self.clients = (0..THREADS).map(|_| Client::new(&self.d, traced)).collect();
        let mut ctx = Ctx::start();
        for c in &self.clients {
            c.plain
                .info(&mut ctx, self.blob)
                .unwrap_or_else(|e| fatal(&format!("info after restart: {e}")));
        }
    }
}

/// The span from `start` to now, in seconds since `epoch`.
fn since(epoch: Instant, start: Instant) -> (f64, f64) {
    let now = Instant::now();
    ((start - epoch).as_secs_f64(), (now - epoch).as_secs_f64())
}

/// The host's (steal, total) CPU ticks so far, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Steal ticks between two `cpu_ticks` readings, as a percentage of all
/// ticks: the share of time the hypervisor ran something else on the
/// machine's virtual CPUs.
fn steal_pct(a: (u64, u64), b: (u64, u64)) -> f64 {
    100.0 * b.0.saturating_sub(a.0) as f64 / b.1.saturating_sub(a.1).max(1) as f64
}

fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// Everything a run records.
#[derive(Default)]
struct Record {
    ops: Vec<OpRec>,
    spans: Vec<Vec<Span>>,
    /// The round running now; `absorb` tags ops with it.
    round: u64,
    /// Per round: set-up time, and the (start, end) of each phase in
    /// seconds since the run's epoch.
    setup_s: Vec<f64>,
    prefill_at: Vec<(f64, f64)>,
    prefill_meters: Meters,
    main_at: Vec<(f64, f64)>,
    main_meters: Meters,
    verify_at: Vec<(f64, f64)>,
    /// Per round: the host's steal share of all CPU time during the
    /// closed loop, in percent.
    steal_pct: Vec<f64>,
    /// Restart seconds per GiB stored, one per round.
    restart_s_per_gib: Vec<f64>,
    stored_bytes: u64,
    user_bytes: u64,
    /// Peak anonymous memory of each round.
    anon_peak_mib: Vec<f64>,
}

impl Record {
    fn absorb(&mut self, w: Worker) {
        let round = self.round;
        self.ops
            .extend(w.ops.into_iter().map(|o| OpRec { round, ..o }));
        if let Some(t) = w.tracer {
            self.spans.push(t.spans);
        }
    }
}

/// Prefill `slots` 1 MiB segments from offset 0, slot `i` by thread
/// `i % threads`; returns the records in slot order.
fn prefill(
    stage: &Stage,
    bases: &[Vec<u8>],
    slots: u64,
    threads: usize,
    epoch: Instant,
    rec: &mut Record,
) -> Vec<WriteRec> {
    let mut out: Vec<Option<WriteRec>> = vec![None; slots as usize];
    let workers: Vec<(Worker, Vec<(u64, WriteRec)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut w = Worker::new(stage, t, bases, epoch);
                    let mut acked = Vec::new();
                    for slot in (t as u64..slots).step_by(threads) {
                        if let Some(r) = w.write(PREFILL, slot * SEG, 2 + t) {
                            acked.push((slot, r));
                        }
                    }
                    (w, acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread"))
            .collect()
    });
    for (w, acked) in workers {
        rec.absorb(w);
        for (slot, r) in acked {
            out[slot as usize] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.unwrap_or_else(|| fatal("prefill write failed")))
        .collect()
}

/// Build the deployment and prefill what the workload reads.
fn setup(
    wl: Workload,
    dir: &Path,
    traced: bool,
    bases: &[Vec<u8>],
    epoch: Instant,
    rec: &mut Record,
) -> (Stage, Vec<WriteRec>) {
    let t0 = Instant::now();
    let stage = Stage::build(dir, traced);
    let meters = MeterStart::new(&stage.d);
    let p0 = Instant::now();
    let filled = match wl {
        Workload::Ingest => Vec::new(),
        Workload::Detect => prefill(&stage, bases, DETECT_REGION / SEG, THREADS, epoch, rec),
        Workload::Survey => prefill(&stage, bases, SURVEY_REGION / SEG, 1, epoch, rec),
    };
    rec.prefill_at.push(since(epoch, p0));
    rec.prefill_meters += meters.delta(&stage.d);
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    (stage, filled)
}

/// The timed closed loop. Returns every acknowledged write.
#[allow(clippy::too_many_arguments)]
fn main_phase(
    wl: Workload,
    args: &Args,
    round: u64,
    seconds: f64,
    stage: &Stage,
    bases: &[Vec<u8>],
    filled: &[WriteRec],
    epoch: Instant,
    rec: &mut Record,
) -> Vec<WriteRec> {
    let zipf = Zipf::new(DETECT_REGION / TILE, 1.0, args.seed);
    let history: Mutex<Vec<Vec<WriteRec>>> = Mutex::new(filled.iter().map(|r| vec![*r]).collect());
    let prefill_latest = filled.iter().map(|r| r.version).max().unwrap_or(0);
    let latest = AtomicU64::new(prefill_latest);
    let issued = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let ticks = cpu_ticks();
    let seed = args.seed;
    let results: Vec<(Worker, Vec<WriteRec>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (zipf, history, latest, issued) = (&zipf, &history, &latest, &issued);
                s.spawn(move || {
                    let mut w = Worker::new(stage, t, bases, epoch);
                    let mut rng = Rng::new(seed, 16 * (round + 1) + t as u64);
                    let mut acked = Vec::new();
                    while Instant::now() < deadline {
                        match (wl, t) {
                            (Workload::Ingest, _) => {
                                if issued.fetch_add(SEG, Ordering::Relaxed) >= INGEST_ROUND_BYTES {
                                    break;
                                }
                                let region = BLOB / THREADS as u64;
                                let off = t as u64 * region + rng.below(region / SEG) * SEG;
                                acked.extend(w.write(MAIN, off, t));
                            }
                            (Workload::Detect, _) => {
                                let off = zipf.sample(&mut rng) * TILE;
                                let src = filled[(off / SEG) as usize];
                                w.read(MAIN, Segment::new(off, TILE), None, &src);
                            }
                            (Workload::Survey, 0) => {
                                let slot = rng.below(SURVEY_REGION / SEG);
                                if let Some(r) = w.write(MAIN, slot * SEG, 4) {
                                    history.lock().unwrap()[slot as usize].push(r);
                                    latest.store(r.version, Ordering::Release);
                                    acked.push(r);
                                }
                            }
                            (Workload::Survey, _) => {
                                let behind = 1 + rng.below(PIN_BEHIND);
                                let v = latest
                                    .load(Ordering::Acquire)
                                    .saturating_sub(behind)
                                    .max(prefill_latest);
                                let slot = rng.below(SURVEY_REGION / SEG);
                                let src = *history.lock().unwrap()[slot as usize]
                                    .iter()
                                    .rev()
                                    .find(|r| r.version <= v)
                                    .expect("prefill covers every slot");
                                w.read(MAIN, Segment::new(slot * SEG, SEG), Some(v), &src);
                            }
                        }
                    }
                    (w, acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    rec.main_at.push(since(epoch, t0));
    rec.steal_pct.push(steal_pct(ticks, cpu_ticks()));
    let mut acked = Vec::new();
    for (w, a) in results {
        rec.absorb(w);
        acked.extend(a);
    }
    acked
}

/// Re-read a seeded sample of acknowledged writes after the restart.
#[allow(clippy::too_many_arguments)]
fn verify_phase(
    wl: Workload,
    seed: u64,
    round: u64,
    stage: &Stage,
    bases: &[Vec<u8>],
    filled: &[WriteRec],
    acked: &[WriteRec],
    epoch: Instant,
    rec: &mut Record,
) {
    let mut rng = Rng::new(seed, 16 * (round + 1) + 8);
    let checks: Vec<(Segment, Option<u64>, WriteRec)> = match wl {
        Workload::Detect => (0..VERIFY_OTHER)
            .map(|_| {
                let off = rng.below(DETECT_REGION / TILE) * TILE;
                (Segment::new(off, TILE), None, filled[(off / SEG) as usize])
            })
            .collect(),
        _ => {
            let mut pool: Vec<WriteRec> = filled.iter().chain(acked).copied().collect();
            let n = if wl == Workload::Ingest {
                VERIFY_INGEST
            } else {
                VERIFY_OTHER
            };
            let n = n.min(pool.len());
            for i in 0..n {
                let j = i + rng.below((pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            pool.truncate(n);
            pool.into_iter()
                .map(|r| (Segment::new(r.off, SEG), Some(r.version), r))
                .collect()
        }
    };
    let t0 = Instant::now();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let checks = &checks;
                s.spawn(move || {
                    let mut w = Worker::new(stage, t, bases, epoch);
                    for (seg, v, r) in checks.iter().skip(t).step_by(THREADS) {
                        w.read(VERIFY, *seg, *v, r);
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread"))
            .collect()
    });
    rec.verify_at.push(since(epoch, t0));
    for w in workers {
        rec.absorb(w);
    }
}

/// Run one workload: `seconds / ROUND_S` rounds, each a full cycle on a
/// fresh deployment — set-up, timed closed loop, timed cold restart,
/// post-restart checks — deleted at the end of the round.
fn run(args: &Args, root: &Path, epoch: Instant) -> Record {
    let wl = args.workload;
    let mut rec = Record::default();
    let mem = MemSampler::start();
    // Writer bases: 0..THREADS main-phase writers, 2.. prefill threads,
    // 4 the survey writer.
    let bases: Vec<Vec<u8>> = (0..5)
        .map(|b| base_payload(args.seed, b, SEG as usize))
        .collect();
    let rounds = (args.seconds / ROUND_S).ceil().max(1.0) as u64;
    for round in 0..rounds {
        rec.round = round;
        let dir = root.join(format!("round-{round}"));
        let (mut stage, filled) = setup(wl, &dir, args.trace, &bases, epoch, &mut rec);

        let meters = MeterStart::new(&stage.d);
        let secs = args.seconds / rounds as f64;
        let acked = main_phase(
            wl, args, round, secs, &stage, &bases, &filled, epoch, &mut rec,
        );
        rec.main_meters += meters.delta(&stage.d);

        let now = meter_now(&stage.d);
        let stored = now.page_log + now.meta_journal + now.version_journal;
        rec.stored_bytes += stored;
        rec.user_bytes += (filled.len() + acked.len()) as u64 * SEG;

        let t0 = Instant::now();
        stage
            .d
            .restart_cluster()
            .unwrap_or_else(|e| fatal(&format!("restart: {e}")));
        let restart_s = t0.elapsed().as_secs_f64();
        rec.restart_s_per_gib
            .push(restart_s / (stored as f64 / (1u64 << 30) as f64));
        stage.reconnect(args.trace);
        verify_phase(
            wl, args.seed, round, &stage, &bases, &filled, &acked, epoch, &mut rec,
        );

        // Deleting the files drops their dirty pages unwritten; syncing
        // the parent commits the unlinks now, before the next round.
        drop(stage);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::File::open(root).and_then(|d| d.sync_all());
        rec.anon_peak_mib.push(mem.take_peak_mib());
    }
    rec
}

/// Anonymous resident memory (resident minus file-backed and shared
/// pages, from `/proc/self/statm`), in KiB. The page logs are file
/// mappings, so this is the process's own memory, not the page cache the
/// data it stored occupies.
fn anon_rss_kib() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let f: Vec<u64> = statm
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    match f.as_slice() {
        [_, resident, shared, ..] => resident.saturating_sub(*shared) * 4,
        _ => 0,
    }
}

/// Samples [`anon_rss_kib`] every 20 ms on its own thread, keeping the
/// peak since the last [`MemSampler::take_peak_mib`].
struct MemSampler {
    peak_kib: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MemSampler {
    fn start() -> Self {
        let peak_kib = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (peak, flag) = (Arc::clone(&peak_kib), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                peak.fetch_max(anon_rss_kib(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        Self {
            peak_kib,
            stop,
            handle: Some(handle),
        }
    }

    fn take_peak_mib(&self) -> f64 {
        self.peak_kib.fetch_max(anon_rss_kib(), Ordering::Relaxed);
        self.peak_kib.swap(0, Ordering::Relaxed) as f64 / 1024.0
    }
}

impl Drop for MemSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One metric: value, unit, sample count, and (for tails) the samples
/// beyond it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
    beyond: Option<usize>,
    /// Reported in the JSON result (else printed for information only).
    json: bool,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
        beyond: None,
        json: true,
    }
}

fn ops_of(rec: &Record, write: bool, phase: u64) -> impl Iterator<Item = &OpRec> {
    rec.ops
        .iter()
        .filter(move |o| o.write == write && o.phase == phase)
}

/// Throughput window length, seconds.
const RATE_WINDOW_S: f64 = 0.25;

/// Throughput, median and tails of one op kind in one phase. The
/// throughput is the median over `RATE_WINDOW_S` windows of every round's
/// phase; the latencies are computed per round and reported as the
/// median over rounds. So a burst of host noise that spoils one window or
/// one round does not move them. The tails are printed for information
/// only (see README).
fn path_metrics(
    rec: &Record,
    write: bool,
    phase: u64,
    spans: &[(f64, f64)],
    names: [&'static str; 4],
) -> Vec<Metric> {
    let (mut n, mut beyond95, mut beyond99) = (0, 0, 0);
    let mut rounds: Vec<[f64; 3]> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    for (round, &(start, end)) in spans.iter().enumerate() {
        let good: Vec<&OpRec> = ops_of(rec, write, phase)
            .filter(|o| o.round == round as u64 && o.ok && !o.wrong)
            .collect();
        if good.is_empty() {
            continue;
        }
        let lat: Vec<f64> = good.iter().map(|o| o.lat_ns as f64 / 1e6).collect();
        let done: Vec<(f64, f64)> = good
            .iter()
            .map(|o| (o.done_s, o.bytes as f64 / MIB as f64))
            .collect();
        rates.extend(window_rates(start, end, RATE_WINDOW_S, &done));
        let s = Summary::of(&lat);
        (n, beyond95, beyond99) = (n + s.n, beyond95 + s.beyond_p95, beyond99 + s.beyond_p99);
        rounds.push([s.p50, s.p95, s.p99]);
    }
    let med = |i: usize| {
        let v: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let rate = if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    };
    vec![
        metric(names[0], rate, "MiB/s", rates.len()),
        metric(names[1], med(0), "ms", n),
        Metric {
            beyond: Some(beyond95),
            json: false,
            ..metric(names[2], med(1), "ms", n)
        },
        Metric {
            beyond: Some(beyond99),
            json: false,
            ..metric(names[3], med(2), "ms", n)
        },
    ]
}

fn end_to_end(wl: Workload, rec: &Record) -> Vec<Metric> {
    let wall = |phase| match phase {
        PREFILL => &rec.prefill_at,
        MAIN => &rec.main_at,
        _ => &rec.verify_at,
    };
    let mut m = vec![metric(
        "setup_s",
        median(&rec.setup_s),
        "s",
        rec.setup_s.len(),
    )];
    m.extend(path_metrics(
        rec,
        true,
        wl.write_phase(),
        wall(wl.write_phase()),
        [
            "write_mib_s",
            "write_p50_ms",
            "write_p95_ms",
            "write_p99_ms",
        ],
    ));
    m.extend(path_metrics(
        rec,
        false,
        wl.read_phase(),
        wall(wl.read_phase()),
        ["read_mib_s", "read_p50_ms", "read_p95_ms", "read_p99_ms"],
    ));
    m.push(metric(
        "restart_s_per_gib",
        median(&rec.restart_s_per_gib),
        "s/GiB",
        rec.restart_s_per_gib.len(),
    ));
    m.push(metric(
        "stored_bytes_per_user_byte",
        rec.stored_bytes as f64 / rec.user_bytes.max(1) as f64,
        "ratio",
        (rec.user_bytes / SEG) as usize,
    ));
    m.push(metric(
        "anon_rss_peak_mib",
        median(&rec.anon_peak_mib),
        "MiB",
        rec.anon_peak_mib.len(),
    ));
    m.push(Metric {
        json: false,
        ..metric(
            "host_steal_pct",
            median(&rec.steal_pct),
            "%",
            rec.steal_pct.len(),
        )
    });
    m
}

/// Per-layer metrics from the traced ops (and the phase meters).
fn per_layer(wl: Workload, rec: &Record, faith: &Faithfulness) -> Vec<Metric> {
    let (wp, rp) = (wl.write_phase(), wl.read_phase());
    let mut pw = Profile::default();
    let mut pr = Profile::default();
    let mut all = Profile::default();
    for spans in &rec.spans {
        pw.add(spans, |op| op_is_write(op) && op_phase(op) == wp);
        pr.add(spans, |op| !op_is_write(op) && op_phase(op) == rp);
        all.add(spans, |_| true);
    }
    let tw: Vec<&OpRec> = ops_of(rec, true, wp).filter(|o| o.traced && o.ok).collect();
    let tr: Vec<&OpRec> = ops_of(rec, false, rp)
        .filter(|o| o.traced && o.ok)
        .collect();
    let (nw, nr) = (tw.len().max(1) as f64, tr.len().max(1) as f64);
    let us_w = |name: &str| pw.get(name).total_ns as f64 / 1e3 / nw;
    let us_r = |name: &str| pr.get(name).total_ns as f64 / 1e3 / nr;
    let mean_w = |f: fn(&OpCounts) -> u64| tw.iter().map(|o| f(&o.counts)).sum::<u64>() as f64 / nw;
    let mean_r = |f: fn(&OpCounts) -> u64| tr.iter().map(|o| f(&o.counts)).sum::<u64>() as f64 / nr;

    let main_ops = rec.ops.iter().filter(|o| o.phase == MAIN).count().max(1) as f64;
    let mm = rec.main_meters;
    let (wmeters, wops) = if wp == PREFILL {
        (rec.prefill_meters, ops_of(rec, true, PREFILL).count())
    } else {
        (mm, ops_of(rec, true, MAIN).count())
    };
    let wops = wops.max(1) as f64;
    let hits: u64 = tr.iter().map(|o| o.counts.cache_hits).sum();
    let probes: u64 = hits + tr.iter().map(|o| o.counts.cache_misses).sum::<u64>();
    let unattributed = |p: &Profile, root: &str| {
        let t = p.get(root);
        100.0 * t.self_ns as f64 / t.total_ns.max(1) as f64
    };
    let (ntw, ntr) = (tw.len(), tr.len());
    vec![
        metric("rpc.page_puts_us", us_w("rpc.page_puts"), "us", ntw),
        metric(
            "rpc.page_put_rounds",
            mean_w(|c| c.put_rounds),
            "count",
            ntw,
        ),
        metric("rpc.page_gets_us", us_r("rpc.page_gets"), "us", ntr),
        metric(
            "rpc.msgs_per_op",
            mm.msgs as f64 / main_ops,
            "count",
            main_ops as usize,
        ),
        metric(
            "rpc.wire_bytes_per_op",
            mm.wire as f64 / main_ops,
            "B",
            main_ops as usize,
        ),
        metric("dht.put_nodes_us", us_w("dht.put_nodes"), "us", ntw),
        metric("dht.get_nodes_us", us_r("dht.get_nodes"), "us", ntr),
        metric(
            "dht.get_rounds_per_read",
            mean_r(|c| c.get_rounds),
            "count",
            ntr,
        ),
        metric(
            "dht.journal_bytes_per_op",
            wmeters.meta_journal as f64 / wops,
            "B",
            wops as usize,
        ),
        metric("version.grant_us", us_w("version.grant"), "us", ntw),
        metric("version.publish_us", us_w("version.publish"), "us", ntw),
        metric("version.latest_us", us_r("version.latest"), "us", ntr),
        metric(
            "version.assign_locks_per_op",
            wmeters.version_assign as f64 / wops,
            "count",
            wops as usize,
        ),
        metric(
            "version.journal_bytes_per_op",
            wmeters.version_journal as f64 / wops,
            "B",
            wops as usize,
        ),
        metric("meta.build_tree_us", us_w("meta.build_tree"), "us", ntw),
        metric(
            "meta.nodes_per_write",
            mean_w(|c| c.nodes_built),
            "count",
            ntw,
        ),
        metric("meta.expand_us", us_r("meta.expand"), "us", ntr),
        metric(
            "meta.nodes_visited_per_read",
            mean_r(|c| c.nodes_visited),
            "count",
            ntr,
        ),
        metric("meta.assemble_us", us_r("meta.assemble"), "us", ntr),
        metric("provider.plan_us", us_w("provider.plan"), "us", ntw),
        metric("provider.page_us", us_r("provider.page"), "us", ntr),
        metric(
            "provider.log_bytes_per_user_byte",
            wmeters.page_log as f64 / (wops * SEG as f64),
            "ratio",
            wops as usize,
        ),
        metric(
            "util.cache_hit_ratio",
            hits as f64 / probes.max(1) as f64,
            "ratio",
            probes as usize,
        ),
        metric("util.cache_get_us", us_r("util.cache_get"), "us", ntr),
        metric(
            "util.copy_bytes_per_op",
            mm.copies as f64 / main_ops,
            "B",
            main_ops as usize,
        ),
        metric(
            "util.serializing_locks_per_op",
            mm.serializing as f64 / main_ops,
            "count",
            main_ops as usize,
        ),
        metric(
            "core.write_unattributed_pct",
            unattributed(&pw, "core.write"),
            "%",
            ntw,
        ),
        metric(
            "core.read_unattributed_pct",
            unattributed(&pr, "core.read"),
            "%",
            ntr,
        ),
        metric(
            "core.span_errors",
            all.errors() as f64,
            "count",
            rec.spans.iter().map(Vec::len).sum(),
        ),
        metric(
            "trace.overhead_pct",
            overhead_pct(rec),
            "%",
            main_ops as usize,
        ),
        metric(
            "trace.msgs_per_op_diff",
            faith.msgs_diff,
            "count",
            faith.ops,
        ),
        metric(
            "trace.copy_bytes_per_op_diff",
            faith.copies_diff,
            "B",
            faith.ops,
        ),
    ]
}

/// Traced against untraced median op time in the main phase, averaged
/// over the op kinds it runs.
fn overhead_pct(rec: &Record) -> f64 {
    let mut ratios = Vec::new();
    for write in [true, false] {
        let lat = |traced: bool| -> Vec<f64> {
            ops_of(rec, write, MAIN)
                .filter(|o| o.ok && o.traced == traced)
                .map(|o| o.lat_ns as f64)
                .collect()
        };
        let (t, u) = (lat(true), lat(false));
        if !t.is_empty() && !u.is_empty() {
            ratios.push(median(&t) / median(&u));
        }
    }
    if ratios.is_empty() {
        return 0.0;
    }
    100.0 * (ratios.iter().sum::<f64>() / ratios.len() as f64 - 1.0)
}

/// Traced-minus-untraced messages and copied bytes per op over one
/// identical, single-threaded op sequence on two fresh deployments.
struct Faithfulness {
    ops: usize,
    msgs_diff: f64,
    copies_diff: f64,
}

/// Replay one seeded op sequence — 1 MiB writes, tile reads at the
/// latest version, 1 MiB reads at pinned versions — once through
/// `BlobClient` and once through the traced layer calls, each on its own
/// fresh deployment, and compare what the wire and the copy meter saw.
fn probe(seed: u64, root: &Path, bases: &[Vec<u8>]) -> Faithfulness {
    const WRITES: u64 = 8;
    const TILE_READS: u64 = 16;
    let mut totals = [(0u64, 0u64); 2];
    let mut ops = 0;
    for (side, total) in totals.iter_mut().enumerate() {
        let dir = root.join(format!("probe-{side}"));
        let stage = Stage::build(&dir, true);
        let epoch = Instant::now();
        let mut w = Worker::new(&stage, 0, bases, epoch);
        if side == 0 {
            w.tracer = None;
        } else {
            w.trace_all = true;
        }
        let mut rng = Rng::new(seed, 50);
        let meters = MeterStart::new(&stage.d);
        let mut recs = Vec::new();
        for _ in 0..WRITES {
            let off = rng.below(64) * SEG;
            recs.extend(w.write(MAIN, off, 0));
        }
        for _ in 0..TILE_READS {
            let r = recs[rng.below(recs.len() as u64) as usize];
            let latest = recs
                .iter()
                .rev()
                .find(|x| x.off == r.off)
                .copied()
                .unwrap_or(r);
            let off = r.off + rng.below(SEG / TILE) * TILE;
            w.read(MAIN, Segment::new(off, TILE), None, &latest);
        }
        for r in recs.clone() {
            w.read(MAIN, Segment::new(r.off, SEG), Some(r.version), &r);
        }
        let m = meters.delta(&stage.d);
        *total = (m.msgs, m.copies);
        ops = w.ops.len();
        if w.ops.iter().any(|o| !o.ok || o.wrong) {
            fatal("faithfulness probe: an op failed");
        }
        drop(w);
        drop(stage);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let [(m0, c0), (m1, c1)] = totals;
    let per = |a: u64, b: u64| (b as f64 - a as f64) / ops.max(1) as f64;
    if m0 != m1 || c0 != c1 {
        eprintln!(
            "perfbench: traced ops diverge from BlobClient (msgs {m0} vs {m1}, copied bytes {c0} vs {c1}); \
             the per-layer figures do not describe the shipped client"
        );
    }
    Faithfulness {
        ops,
        msgs_diff: per(m0, m1),
        copies_diff: per(c0, c1),
    }
}

fn fmt_row(wl: Workload, seed: u64, metrics: &[Metric], failed: u64, attempted: u64) -> String {
    let mut row = format!("row {} | seed {seed}", wl.name());
    for m in metrics {
        let info = if m.json { "" } else { "info " };
        row += &format!(" | {info}{} {:.4} {} (n={}", m.name, m.value, m.unit, m.n);
        if let Some(b) = m.beyond {
            row += &format!(", {b} beyond");
        }
        row += ")";
    }
    row += &format!(
        " | failed_frac {:.4} ratio ({failed}/{attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    row
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "usage: perfbench --workload ingest|detect|survey --seed N --seconds S --trace 0|1"
        );
        fatal(&e)
    });
    let wl = args.workload;
    let root = PathBuf::from(".bench_data").join(format!("{}-{}", wl.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap_or_else(|e| fatal(&format!("create {root:?}: {e}")));

    let spinners = idle::IdleSpinners::start();
    println!(
        "perfbench {} seed={} seconds={} trace={} | tcp loopback + reactor (default threads), \
         mmap page logs + journals, fsync_on_commit=off, {PROVIDERS} storage nodes, \
         cache_nodes={CACHE_NODES}, {THREADS} client threads closed loop, page {} KiB, \
         {} SCHED_IDLE spinners",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        PAGE / KIB,
        spinners.running()
    );
    let epoch = Instant::now();
    let rec = run(&args, &root, epoch);

    let attempted = rec.ops.len() as u64;
    let failed = rec.ops.iter().filter(|o| !o.ok || o.wrong).count() as u64;
    let wrong = rec.ops.iter().filter(|o| o.wrong).count();

    let metrics = if args.trace {
        let bases = [base_payload(args.seed, 0, SEG as usize)];
        let faith = probe(args.seed, &root, &bases);
        let traces = PathBuf::from(".bench_data").join("traces");
        let _ = std::fs::create_dir_all(&traces);
        // One file per workload, overwritten by the next traced run.
        let path = traces.join(format!("{}.tsv", wl.name()));
        if let Ok(f) = std::fs::File::create(&path) {
            let mut out = std::io::BufWriter::new(f);
            for (i, spans) in rec.spans.iter().enumerate() {
                let _ = trace::write_tsv(&mut out, i, spans);
            }
            println!("spans written to {}", path.display());
        }
        let mut all = Profile::default();
        for spans in &rec.spans {
            all.add(spans, |_| true);
        }
        println!("span                       calls   errors   total_ms    self_ms");
        for (name, t) in &all.by_name {
            println!(
                "{name:<24} {:>8} {:>8} {:>10.1} {:>10.1}",
                t.calls,
                t.errors,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        per_layer(wl, &rec, &faith)
    } else {
        end_to_end(wl, &rec)
    };
    drop(spinners);
    let _ = std::fs::remove_dir_all(&root);

    println!("{}", fmt_row(wl, args.seed, &metrics, failed, attempted));
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.json)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        wrong == 0,
        body.join(", ")
    );
    if wrong > 0 {
        eprintln!("perfbench: {wrong} reads returned wrong bytes");
        std::process::exit(1);
    }
}
