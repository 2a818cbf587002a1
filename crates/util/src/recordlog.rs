//! The record-then-commit append-only log engine.
//!
//! Every durable byte of the system — provider pages, metadata tree
//! nodes, version history — goes through this one engine. Every record
//! is `48-byte header + payload`, the header six little-endian `u64`s
//! (`magic, a, b, c, len, check`), and nothing is acknowledged until a
//! **commit marker** covering it is on disk (optionally fsynced). Replay
//! makes records visible marker by marker and stops at the first invalid
//! or out-of-sequence record, so a torn tail can never surface
//! un-acknowledged state.
//!
//! [`RecordLog`] serves its two kinds of client through one code path:
//!
//! * the control-plane journals (metadata tree, version history) use
//!   [`RecordLog::open`]: a plain file that grows with its appends,
//!   replayed by reading it once into [`OwnedRecord`]s;
//! * the provider's page log uses [`RecordLog::open_raw`] with a
//!   capacity: a sparse file pre-sized once so it can be memory-mapped
//!   whole. It replays its own mapping in place with
//!   [`RecordLog::replay`] — payloads come back as byte ranges, never
//!   copied — and serves pages as slices of that mapping.
//!
//! Either way a log lives in a directory as `<base>.g<N>.log` generation
//! files. [`RecordLog::prepare`] writes the next generation to a `.tmp`,
//! seals and fsyncs it, and [`RecordLog::install`] renames it into place
//! and unlinks the predecessor, so a crash at any point leaves exactly
//! one winner — which [`RecordLog::open_raw`] picks, removing the debris.

use crate::rng::splitmix64;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bytes of one log-record header: six little-endian `u64`s —
/// `magic, a, b, c, len, check`.
pub const REC_HEADER: u64 = 48;

/// Magic of a tombstone record ("BSPGDEAD"): a reserved range whose
/// write failed while later appenders had already reserved beyond it.
/// Replay skips it instead of stopping, so the records committed
/// *after* the failure stay recoverable.
pub const TOMBSTONE_MAGIC: u64 = 0x4253_5047_4445_4144;

/// Magic of a commit marker ("BSPGCMT1"): field `a` is the marker's
/// sequence number, `b` the offset the previous marker sealed up to;
/// the marker commits every record between that offset and itself.
pub const COMMIT_MAGIC: u64 = 0x4253_5047_434d_5431;

/// Fast 64-bit digest of the payload bytes (8-byte chunks + tail),
/// folded into the record check word so a torn record — valid header,
/// partial payload — fails validation at replay instead of surfacing
/// corrupt bytes.
pub fn payload_digest(data: &[u8]) -> u64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        // lint: allow(panic-on-serving-path) — chunks_exact(8) yields exactly 8 bytes
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        acc = (acc ^ w)
            .rotate_left(23)
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    for &b in chunks.remainder() {
        acc = (acc ^ b as u64)
            .rotate_left(9)
            .wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// The header check word: a splitmix64 hash over every header field and
/// the payload digest, so a single flipped bit anywhere in the record
/// fails validation.
pub fn check_word(magic: u64, a: u64, b: u64, c: u64, len: u64, digest: u64) -> u64 {
    let mut s = magic
        ^ a.rotate_left(17)
        ^ b.rotate_left(34)
        ^ c.rotate_left(51)
        ^ len
        ^ digest.rotate_left(7);
    splitmix64(&mut s)
}

/// Encode one record header (`magic, a, b, c, len, check`).
pub fn encode_header(magic: u64, a: u64, b: u64, c: u64, len: u64, digest: u64) -> [u8; 48] {
    let mut header = [0u8; REC_HEADER as usize];
    for (i, word) in [magic, a, b, c, len, check_word(magic, a, b, c, len, digest)]
        .into_iter()
        .enumerate()
    {
        header[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
    header
}

/// Positioned write: the whole buffer at `off`, no seek on the shared
/// handle (unix `pwrite`; other platforms clone the handle and seek).
#[cfg(unix)]
pub fn write_at(file: &File, buf: &[u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, off)
}

/// Positioned write: the whole buffer at `off`, no seek on the shared
/// handle (unix `pwrite`; other platforms clone the handle and seek).
#[cfg(not(unix))]
pub fn write_at(file: &File, buf: &[u8], off: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(off))?;
    f.write_all(buf)
}

/// What can go wrong appending to or opening a [`RecordLog`]. The
/// `&'static str` names the failed operation; callers add file context
/// when surfacing it (e.g. as `BlobError::Recovery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// An I/O operation failed. From an append this means the record
    /// write failed and its reserved range became a tombstone.
    Io(&'static str),
    /// A pre-sized log has no room for the records plus the commit
    /// marker that would seal them; nothing was reserved.
    Full,
    /// The medium failed in a way that could strand committed-but-
    /// unreplayable records; no further append may be acknowledged.
    Poisoned,
    /// A commit marker could not be sealed (the append's bytes are on
    /// disk but un-acknowledged — replay will not surface them).
    CommitFailed,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(op) => write!(f, "log I/O failed: {op}"),
            LogError::Full => write!(f, "log capacity exhausted"),
            LogError::Poisoned => write!(f, "log poisoned by an earlier media failure"),
            LogError::CommitFailed => write!(f, "log commit marker could not be sealed"),
        }
    }
}

impl std::error::Error for LogError {}

/// Durability knobs of a [`RecordLog`] (the provider's `LogOptions`
/// carries the same two for its page log).
#[derive(Debug, Clone, Copy)]
pub struct RecordLogOptions {
    /// `fdatasync` on every commit marker: an acknowledged append
    /// survives power loss, not just a process crash. One sync per
    /// *group* commit — concurrent appenders share it.
    pub fsync_on_commit: bool,
    /// How long a group-commit leader lingers before sealing, so
    /// concurrent appenders can join the same marker (and fsync).
    pub group_commit_window: Duration,
}

impl Default for RecordLogOptions {
    fn default() -> Self {
        Self {
            fsync_on_commit: false,
            group_commit_window: Duration::ZERO,
        }
    }
}

/// One record to append: header words + payload. `magic` must not be
/// [`COMMIT_MAGIC`] or [`TOMBSTONE_MAGIC`] (those are the engine's).
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// Record-type magic (caller-defined).
    pub magic: u64,
    /// First header word.
    pub a: u64,
    /// Second header word.
    pub b: u64,
    /// Third header word.
    pub c: u64,
    /// Payload bytes (digest-protected).
    pub payload: &'a [u8],
}

/// One committed record handed out by [`RecordLog::replay`]: its
/// header words and where its payload lies in the replayed bytes
/// (nothing is copied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Record-type magic.
    pub magic: u64,
    /// First header word.
    pub a: u64,
    /// Second header word.
    pub b: u64,
    /// Third header word.
    pub c: u64,
    /// Byte offset of the record header in the log file (error context
    /// for callers whose payload decode fails).
    pub offset: u64,
    /// The payload's byte range within the replayed bytes.
    pub payload: Range<usize>,
}

/// One committed record surfaced by [`RecordLog::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRecord {
    /// Record-type magic.
    pub magic: u64,
    /// First header word.
    pub a: u64,
    /// Second header word.
    pub b: u64,
    /// Third header word.
    pub c: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Byte offset of the record header in the log file (error context
    /// for callers whose payload decode fails).
    pub offset: u64,
}

/// Commit bookkeeping, guarded by the log's mutex.
#[derive(Debug, Default)]
struct CommitState {
    /// Every byte below this offset is sealed by a marker (the marker
    /// bytes included). Replay never recovers past it.
    durable: u64,
    /// Contiguous completed-bytes frontier: every reserved range below
    /// it has finished its write (record, tombstone, or marker).
    frontier: u64,
    /// Completed ranges that landed out of order (`start → end`),
    /// merged into `frontier` as the gap before them closes.
    completed: BTreeMap<u64, u64>,
    /// Sequence number the next marker carries.
    next_seq: u64,
    /// A group-commit leader is in flight; followers wait for coverage.
    committing: bool,
    /// No further commit may succeed.
    poisoned: bool,
}

/// A crash-consistent append-only record log: one generation file.
///
/// * **Append** reserves a record range with a CAS on the tail offset
///   (concurrent appenders never interleave bytes), writes
///   `header + payload` with positioned I/O — no lock, no user-space
///   copy — then blocks until a group-commit marker covers it: only
///   committed records are acknowledged, and only committed records
///   replay.
/// * **Replay** surfaces records marker by marker; it ends at the first
///   invalid or out-of-sequence record, and appends resume at the last
///   durable marker.
/// * **Rewrite** swaps in a compacted next generation atomically
///   (tmp → fsync → rename → unlink).
///
/// The commit mutex/condvar is durability machinery on the ack path,
/// not a control-plane serialization point — it is deliberately
/// outside the lockmeter.
pub struct RecordLog {
    dir: PathBuf,
    base: String,
    number: u64,
    file: File,
    path: PathBuf,
    /// Pre-sized file length; `None` for a file that grows.
    capacity: Option<u64>,
    opts: RecordLogOptions,
    /// Reservation frontier: appends CAS disjoint ranges off it.
    tail: AtomicU64,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
}

impl fmt::Debug for RecordLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordLog")
            .field("path", &self.path)
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// `<base>.g<n>.log`.
fn log_file_name(base: &str, n: u64) -> String {
    format!("{base}.g{n}.log")
}

/// Parse a generation number out of a `<base>.g<n>.log` file name.
fn parse_log_name(base: &str, name: &str) -> Option<u64> {
    name.strip_prefix(base)?
        .strip_prefix(".g")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Find the newest *renamed* generation of `<base>` under `dir` and
/// remove the debris: older generations (a crash between a rewrite's
/// rename and its unlink) and `.tmp` files (a rewrite that never
/// reached its rename — the old generation wins).
fn scan_generations(dir: &Path, base: &str) -> Result<u64, LogError> {
    let mut newest: Option<u64> = None;
    let mut debris: Vec<PathBuf> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|_| LogError::Io("scan log dir"))?;
    let tmp_prefix = format!("{base}.g");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&tmp_prefix) && name.ends_with(".tmp") {
            debris.push(entry.path());
        } else if let Some(n) = parse_log_name(base, name) {
            match newest {
                Some(best) if best >= n => debris.push(entry.path()),
                Some(_) | None => {
                    if let Some(best) = newest {
                        debris.push(dir.join(log_file_name(base, best)));
                    }
                    newest = Some(n);
                }
            }
        }
    }
    for stale in debris {
        let _ = std::fs::remove_file(stale);
    }
    Ok(newest.unwrap_or(0))
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir).and_then(|d| d.sync_all())
}

/// Write one record (`header + payload`) at `off`.
fn write_record(file: &File, r: &Record<'_>, off: u64) -> std::io::Result<()> {
    debug_assert!(r.magic != COMMIT_MAGIC && r.magic != TOMBSTONE_MAGIC);
    let len = r.payload.len() as u64;
    let header = encode_header(r.magic, r.a, r.b, r.c, len, payload_digest(r.payload));
    write_at(file, &header, off)?;
    write_at(file, r.payload, off + REC_HEADER)
}

/// One parsed record during replay.
enum Parsed {
    /// A payload record.
    Payload(RecordSpan),
    /// A tombstone: skip to its end.
    Skip(u64),
    /// A commit marker.
    Commit {
        seq: u64,
        covered_from: u64,
        end: u64,
    },
}

fn read_word(buf: &[u8], off: u64) -> u64 {
    // lint: allow(truncating-cast) — parse_record checks off + REC_HEADER ≤
    // buf.len() (itself a usize) before every read_word call
    let s = &buf[off as usize..off as usize + 8];
    // lint: allow(panic-on-serving-path) — the slice above is exactly 8 bytes
    u64::from_le_bytes(s.try_into().expect("8 bytes"))
}

/// Parse the record at `off`; `None` is an invalid record (torn,
/// corrupt, out of bounds) — replay ends at the last durable point
/// before it.
fn parse_record(buf: &[u8], off: u64) -> Option<Parsed> {
    let limit = buf.len() as u64;
    if off + REC_HEADER > limit {
        return None;
    }
    let magic = read_word(buf, off);
    let a = read_word(buf, off + 8);
    let b = read_word(buf, off + 16);
    let c = read_word(buf, off + 24);
    let len = read_word(buf, off + 32);
    let check = read_word(buf, off + 40);
    let end = (off + REC_HEADER).checked_add(len)?;
    if end > limit {
        return None;
    }
    match magic {
        COMMIT_MAGIC => {
            // A marker carries no payload; its check covers the header
            // only.
            (len == 0 && check == check_word(magic, a, b, c, len, 0)).then_some(Parsed::Commit {
                seq: a,
                covered_from: b,
                end,
            })
        }
        TOMBSTONE_MAGIC => {
            // Tombstone check covers the header only — its payload
            // range is whatever the failed write left behind.
            (check == check_word(magic, a, b, c, len, 0)).then_some(Parsed::Skip(end))
        }
        _ => {
            // lint: allow(truncating-cast) — end ≤ limit = buf.len() (a usize)
            // was checked above; both bounds fit
            let payload = (off + REC_HEADER) as usize..end as usize;
            (check == check_word(magic, a, b, c, len, payload_digest(&buf[payload.clone()])))
                .then_some(Parsed::Payload(RecordSpan {
                    magic,
                    a,
                    b,
                    c,
                    offset: off,
                    payload,
                }))
        }
    }
}

impl RecordLog {
    /// Open (or create) the log `<base>.g<N>.log` under `dir` (see
    /// [`RecordLog::open_raw`]) as a growing file and replay it: returns
    /// every committed record in append order; appends resume at the
    /// last durable commit marker.
    pub fn open(
        dir: &Path,
        base: &str,
        opts: RecordLogOptions,
    ) -> Result<(Self, Vec<OwnedRecord>), LogError> {
        let log = Self::open_raw(dir, base, None, opts)?;
        let buf = std::fs::read(&log.path).map_err(|_| LogError::Io("read log file"))?;
        let mut records = Vec::new();
        log.replay(&buf, |r| {
            records.push(OwnedRecord {
                magic: r.magic,
                a: r.a,
                b: r.b,
                c: r.c,
                // lint: allow(unmetered-copy) — replay materializes owned records
                // at recovery time, not on the steady-state path
                payload: buf[r.payload].to_vec(),
                offset: r.offset,
            })
        });
        Ok((log, records))
    }

    /// Open (or create) the log `<base>.g<N>.log` under `dir` without
    /// replaying it: keeps the highest renamed generation (an
    /// interrupted rewrite's `.tmp` never wins) and removes the debris.
    /// With `capacity`, the file is extended sparsely to at least that
    /// many bytes — its length from then on — and every reservation
    /// keeps room for the marker that seals it. Call
    /// [`RecordLog::replay`] before appending to a log that holds
    /// records.
    pub fn open_raw(
        dir: &Path,
        base: &str,
        capacity: Option<u64>,
        opts: RecordLogOptions,
    ) -> Result<Self, LogError> {
        std::fs::create_dir_all(dir).map_err(|_| LogError::Io("create log dir"))?;
        let number = scan_generations(dir, base)?;
        let path = dir.join(log_file_name(base, number));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|_| LogError::Io("open log file"))?;
        let capacity = match capacity {
            None => None,
            Some(cap) => {
                let existing = file
                    .metadata()
                    .map_err(|_| LogError::Io("stat log file"))?
                    .len();
                if cap > existing {
                    file.set_len(cap)
                        .map_err(|_| LogError::Io("extend log file"))?;
                }
                Some(cap.max(existing))
            }
        };
        if opts.fsync_on_commit {
            // The directory entry of a freshly created log must reach
            // stable storage before any commit is acknowledged.
            sync_dir(dir).map_err(|_| LogError::Io("sync log dir"))?;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            base: base.to_string(),
            number,
            file,
            path,
            capacity,
            opts,
            tail: AtomicU64::new(0),
            commit: Mutex::new(CommitState::default()),
            commit_cv: Condvar::new(),
        })
    }

    /// Replay `bytes` — this log's file contents, read or mapped — and
    /// hand each committed record to `visit`, in append order. Records
    /// become visible marker by marker; replay ends at the first invalid
    /// record or out-of-sequence marker. Everything beyond the last
    /// durable marker (complete-but-uncommitted records included) was
    /// never acknowledged: appends resume over it.
    pub fn replay(&self, bytes: &[u8], mut visit: impl FnMut(RecordSpan)) {
        let mut pending: Vec<RecordSpan> = Vec::new();
        let mut durable = 0u64;
        let mut seq = 0u64;
        let mut off = 0u64;
        while let Some(parsed) = parse_record(bytes, off) {
            match parsed {
                Parsed::Payload(rec) => {
                    off = rec.payload.end as u64;
                    pending.push(rec);
                }
                Parsed::Skip(end) => off = end,
                Parsed::Commit {
                    seq: s,
                    covered_from,
                    end,
                } => {
                    // A checksum-valid marker that is out of sequence or
                    // claims the wrong coverage is stale bytes from an
                    // earlier incarnation, not a commit.
                    if s != seq || covered_from != durable {
                        break;
                    }
                    seq += 1;
                    durable = end;
                    pending.drain(..).for_each(&mut visit);
                    off = end;
                }
            }
        }
        self.resume(durable, seq);
    }

    /// Reset the commit state: appends continue at `durable`, and the
    /// next marker carries `next_seq`.
    fn resume(&self, durable: u64, next_seq: u64) {
        *self.commit.lock() = CommitState {
            durable,
            frontier: durable,
            next_seq,
            ..CommitState::default()
        };
        self.tail.store(durable, Ordering::Relaxed);
    }

    /// Path of the current generation file (error context).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The generation number (0 at creation, +1 per rewrite).
    pub fn generation(&self) -> u64 {
        self.number
    }

    /// The open generation file (for mapping it).
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Current log size in bytes (reserved tail).
    pub fn log_bytes(&self) -> u64 {
        self.tail.load(Ordering::Relaxed)
    }

    /// The highest offset a reservation may end at.
    fn limit(&self) -> u64 {
        self.capacity.unwrap_or(u64::MAX)
    }

    /// Append one record and block until a commit marker covers it;
    /// returns the offset of its header.
    pub fn append(&self, rec: Record<'_>) -> Result<u64, LogError> {
        self.append_batch(std::slice::from_ref(&rec))
    }

    /// Append a batch of records contiguously and block until one
    /// commit marker covers them all (one marker, one optional fsync —
    /// the control-plane analogue of RPC aggregation). Returns the
    /// offset of the first record's header; the rest follow back to
    /// back.
    pub fn append_batch(&self, recs: &[Record<'_>]) -> Result<u64, LogError> {
        if recs.is_empty() {
            return Ok(self.log_bytes());
        }
        let total: u64 = recs
            .iter()
            .map(|r| REC_HEADER + r.payload.len() as u64)
            .sum();
        let limit = self.limit();
        // Reserve a disjoint range, keeping room for the commit marker
        // that will seal it.
        let start = self
            .tail
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(total + REC_HEADER)
                    .filter(|&end| end <= limit)
                    .map(|_| cur + total)
            })
            .map_err(|_| LogError::Full)?;
        let mut off = start;
        for r in recs {
            if write_record(&self.file, r, off).is_err() {
                // Later appenders may own bytes beyond this range, so a
                // hole here would end replay before their commits.
                // Brand the whole reserved range one tombstone so replay
                // steps over it; if even that fails, poison the log.
                let tomb = encode_header(TOMBSTONE_MAGIC, 0, 0, 0, total - REC_HEADER, 0);
                if write_at(&self.file, &tomb, start).is_err() {
                    self.commit.lock().poisoned = true;
                }
                self.complete(start, start + total);
                return Err(LogError::Io("write log record"));
            }
            off += REC_HEADER + r.payload.len() as u64;
        }
        self.complete(start, start + total);
        self.commit_covering(start + total)?;
        Ok(start)
    }

    /// `fdatasync` the log file (explicit durability point for callers
    /// running without `fsync_on_commit`).
    pub fn sync(&self) -> Result<(), LogError> {
        self.file.sync_data().map_err(|_| LogError::Io("sync log"))
    }

    /// Rewrite the log as a fresh generation containing exactly `recs`
    /// under one commit marker, atomically replacing the current file
    /// ([`RecordLog::prepare`] then [`RecordLog::install`]). Used to
    /// checkpoint after replay: stale records beyond the last durable
    /// marker are physically dropped, so identifiers they mention can
    /// be reused.
    pub fn rewrite(&mut self, recs: &[Record<'_>]) -> Result<(), LogError> {
        let mut next = self.prepare(recs)?;
        next.install(self)?;
        *self = next;
        Ok(())
    }

    /// The expensive half of a rewrite, touching nothing this log
    /// serves: write `recs` into the next generation's `.tmp` file
    /// (pre-sized like this one) under marker 0, and fsync it. The
    /// returned log is that staged generation: it takes appends — a
    /// compaction's catch-up batch lands under marker 1 — and becomes
    /// the newest generation on disk only at [`RecordLog::install`].
    /// Dropping it abandons the `.tmp` as debris the next open removes;
    /// a failed prepare removes it at once.
    pub fn prepare(&self, recs: &[Record<'_>]) -> Result<RecordLog, LogError> {
        let number = self.number + 1;
        let tmp = self
            .dir
            .join(format!("{}.tmp", log_file_name(&self.base, number)));
        let staged = self.write_generation(number, &tmp, recs);
        if staged.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        staged
    }

    fn write_generation(
        &self,
        number: u64,
        tmp: &Path,
        recs: &[Record<'_>],
    ) -> Result<RecordLog, LogError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)
            .map_err(|_| LogError::Io("create next generation"))?;
        if let Some(cap) = self.capacity {
            file.set_len(cap)
                .map_err(|_| LogError::Io("extend next generation"))?;
        }
        let mut off = 0u64;
        for r in recs {
            let end = off + REC_HEADER + r.payload.len() as u64;
            if end + REC_HEADER > self.limit() {
                return Err(LogError::Full);
            }
            write_record(&file, r, off).map_err(|_| LogError::Io("write next generation"))?;
            off = end;
        }
        let marker = encode_header(COMMIT_MAGIC, 0, 0, 0, 0, 0);
        write_at(&file, &marker, off).map_err(|_| LogError::Io("seal next generation"))?;
        file.sync_all()
            .map_err(|_| LogError::Io("sync next generation"))?;
        let staged = RecordLog {
            dir: self.dir.clone(),
            base: self.base.clone(),
            number,
            file,
            path: tmp.to_path_buf(),
            capacity: self.capacity,
            opts: self.opts,
            tail: AtomicU64::new(0),
            commit: Mutex::new(CommitState::default()),
            commit_cv: Condvar::new(),
        };
        staged.resume(off + REC_HEADER, 1);
        Ok(staged)
    }

    /// Make this staged generation (from [`RecordLog::prepare`]) the
    /// newest on disk in place of `old`: fsync it, rename the `.tmp` to
    /// its final name, sync the directory, unlink `old`'s file. The
    /// rename is the swap point — a crash before it recovers `old`,
    /// after it this generation. Under `fsync_on_commit` a failed
    /// directory sync undoes the rename and fails: a power loss could
    /// otherwise revert the name and lose commits acknowledged after
    /// the swap. If even the undo fails, `old` is poisoned so nothing
    /// further is acknowledged.
    pub fn install(&mut self, old: &RecordLog) -> Result<(), LogError> {
        self.sync()?;
        let fresh = self.dir.join(log_file_name(&self.base, self.number));
        std::fs::rename(&self.path, &fresh).map_err(|_| LogError::Io("rename next generation"))?;
        if sync_dir(&self.dir).is_err() && self.opts.fsync_on_commit {
            if std::fs::rename(&fresh, &self.path).is_err() {
                old.commit.lock().poisoned = true;
            }
            return Err(LogError::Io("sync log dir"));
        }
        // Readers holding a mapping of the old file keep its bytes;
        // the unlink only drops the name.
        let _ = std::fs::remove_file(&old.path);
        self.path = fresh;
        Ok(())
    }

    /// Record that the reserved range `[start, end)` finished its
    /// write, advancing the contiguous frontier when the gap before it
    /// closed, and wake anyone waiting on the frontier.
    fn complete(&self, start: u64, end: u64) {
        let mut st = self.commit.lock();
        if st.frontier == start {
            st.frontier = end;
            loop {
                let f = st.frontier;
                match st.completed.remove(&f) {
                    Some(e) => st.frontier = e,
                    None => break,
                }
            }
        } else {
            st.completed.insert(start, end);
        }
        self.commit_cv.notify_all();
    }

    /// Group commit: block until a marker covering `my_end` is durable.
    /// Exactly one leader at a time seals a marker; every append that
    /// completed before the seal rides the same marker (and the same
    /// optional fsync).
    fn commit_covering(&self, my_end: u64) -> Result<(), LogError> {
        loop {
            {
                let mut st = self.commit.lock();
                loop {
                    if st.durable >= my_end {
                        return Ok(());
                    }
                    if st.poisoned {
                        return Err(LogError::Poisoned);
                    }
                    if !st.committing {
                        st.committing = true;
                        break;
                    }
                    self.commit_cv.wait(&mut st);
                }
            }
            let sealed = self.commit_lead();
            let mut st = self.commit.lock();
            st.committing = false;
            self.commit_cv.notify_all();
            match sealed {
                // The marker slot is reserved at the tail, after this
                // append's completed record, so one round always covers
                // it — the loop is belt and braces.
                Ok(()) if st.durable >= my_end => return Ok(()),
                Ok(()) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The leader's half of a group commit: optionally linger so
    /// concurrent appends join the batch, reserve the marker slot at
    /// the tail, wait for every record below it to finish writing,
    /// seal, and (optionally) fsync.
    fn commit_lead(&self) -> Result<(), LogError> {
        if !self.opts.group_commit_window.is_zero() {
            std::thread::sleep(self.opts.group_commit_window);
        }
        let limit = self.limit();
        let marker_at = self
            .tail
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(REC_HEADER).filter(|&end| end <= limit)
            })
            .map_err(|_| LogError::Full)?;
        let (seq, covered_from) = {
            let mut st = self.commit.lock();
            while st.frontier < marker_at {
                if st.poisoned {
                    return Err(LogError::Poisoned);
                }
                self.commit_cv.wait(&mut st);
            }
            // Re-check under the same lock: a failed append below the
            // marker slot poisons *before* completing its range, so a
            // frontier that already reached the slot can carry an
            // un-skippable hole — sealing a marker over it would
            // acknowledge records replay can never reach.
            if st.poisoned {
                return Err(LogError::Poisoned);
            }
            debug_assert_eq!(st.frontier, marker_at, "marker slot is the frontier");
            (st.next_seq, st.durable)
        };
        let header = encode_header(COMMIT_MAGIC, seq, covered_from, 0, 0, 0);
        if write_at(&self.file, &header, marker_at).is_err() {
            // The marker slot would be an un-skippable hole: a later
            // marker could commit records replay can never reach. Brand
            // the slot a tombstone so replay steps over it; if even
            // that fails, poison the log.
            let tomb = encode_header(TOMBSTONE_MAGIC, 0, 0, 0, 0, 0);
            let mut st = self.commit.lock();
            if write_at(&self.file, &tomb, marker_at).is_err() {
                st.poisoned = true;
            }
            drop(st);
            self.complete(marker_at, marker_at + REC_HEADER);
            return Err(LogError::CommitFailed);
        }
        if self.opts.fsync_on_commit && self.file.sync_data().is_err() {
            // The marker bytes may or may not be durable; conservatively
            // stop acknowledging anything further.
            self.commit.lock().poisoned = true;
            self.complete(marker_at, marker_at + REC_HEADER);
            return Err(LogError::CommitFailed);
        }
        {
            let mut st = self.commit.lock();
            st.next_seq = seq + 1;
            st.durable = marker_at + REC_HEADER;
        }
        self.complete(marker_at, marker_at + REC_HEADER);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    const MAGIC_A: u64 = 0x5445_5354_4d41_4731; // "TESTMAG1"
    const MAGIC_B: u64 = 0x5445_5354_4d41_4732;

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: TestCounter = TestCounter::new(0);
        let d = std::env::temp_dir().join(format!(
            "recordlog-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn rec(a: u64, payload: &[u8]) -> Record<'_> {
        Record {
            magic: MAGIC_A,
            a,
            b: a * 2,
            c: a * 3,
            payload,
        }
    }

    /// Open `dir`'s `test` log the way the page log does — sparse file
    /// pre-sized to a capacity, mapped, replayed in place — and return
    /// the committed payloads.
    fn replay_in_place(dir: &Path) -> Vec<Vec<u8>> {
        let log = RecordLog::open_raw(dir, "test", Some(8192), RecordLogOptions::default())
            .expect("open pre-sized log");
        let map = crate::PageBuf::map_file(log.file()).expect("map log");
        let mut payloads = Vec::new();
        log.replay(map.as_slice(), |r| {
            payloads.push(map.as_slice()[r.payload].to_vec())
        });
        payloads
    }

    #[test]
    fn roundtrip_single_and_batch() {
        let dir = tmp_dir("roundtrip");
        {
            let (log, replayed) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open fresh log");
            assert!(replayed.is_empty());
            log.append(rec(1, b"one")).unwrap();
            log.append_batch(&[rec(2, b"two"), rec(3, b"three")])
                .unwrap();
        }
        let (log, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen log");
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].payload, b"one");
        assert_eq!(replayed[2].a, 3);
        assert_eq!(replayed[2].payload, b"three");
        // Appends resume cleanly after a replayed reopen.
        log.append(rec(4, b"four")).unwrap();
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen again");
        assert_eq!(replayed.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_at_last_marker() {
        let dir = tmp_dir("torn");
        let path = {
            let (log, _) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
            log.append(rec(1, b"committed")).unwrap();
            log.path().to_path_buf()
        };
        // Simulate a crash mid-append: a record header with a payload
        // that never finished (digest mismatch).
        let tail = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let header = encode_header(MAGIC_A, 9, 9, 9, 100, payload_digest(b"intended"));
        write_at(&file, &header, tail).unwrap();
        write_at(&file, b"torn", tail + REC_HEADER).unwrap();
        drop(file);
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 1, "torn tail is invisible");
        assert_eq!(replayed[0].payload, b"committed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_records_do_not_replay() {
        let dir = tmp_dir("uncommitted");
        let path = {
            let (log, _) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
            log.append(rec(1, b"acked")).unwrap();
            log.path().to_path_buf()
        };
        // A fully valid record *without* a covering marker (crash after
        // the record write, before the group commit sealed).
        let tail = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let payload = b"never-acked";
        let header = encode_header(
            MAGIC_B,
            7,
            14,
            21,
            payload.len() as u64,
            payload_digest(payload),
        );
        write_at(&file, &header, tail).unwrap();
        write_at(&file, payload, tail + REC_HEADER).unwrap();
        drop(file);
        let (log, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 1, "uncommitted record must not surface");
        // The next append overwrites the dangling record and commits.
        log.append(rec(2, b"after")).unwrap();
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen 2");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].payload, b"after");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_swaps_generation_and_drops_history() {
        let dir = tmp_dir("rewrite");
        let (mut log, _) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
        for i in 0..10 {
            log.append(rec(i, b"bulk")).unwrap();
        }
        let before = log.log_bytes();
        log.rewrite(&[rec(99, b"checkpoint")]).unwrap();
        assert!(log.log_bytes() < before);
        assert!(log.path().to_string_lossy().contains(".g1.log"));
        // Appends after a rewrite land in the new generation.
        log.append(rec(100, b"incremental")).unwrap();
        drop(log);
        let (log, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].a, 99);
        assert_eq!(replayed[1].a, 100);
        assert!(
            !dir.join("test.g0.log").exists(),
            "old generation unlinked after rewrite"
        );
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_replay() {
        let dir = tmp_dir("concurrent");
        let (log, _) = RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
        let log = std::sync::Arc::new(log);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        log.append(rec(t * 1000 + i, b"payload")).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(log);
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 200);
        let mut ids: Vec<u64> = replayed.iter().map(|r| r.a).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "every append replays exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        // Hostile bytes: any file content must open to `Ok` (with
        // whatever committed prefix validates) or a typed error —
        // never a panic, never an out-of-bounds read.
        #[test]
        fn hostile_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096)) {
            let dir = tmp_dir("hostile");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("test.g0.log"), &bytes).unwrap();
            let _ = RecordLog::open(&dir, "test", RecordLogOptions::default());
            // The page log's path: pre-sized file, replayed in place.
            let _ = replay_in_place(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Truncating a valid log at any point never panics and never
        // surfaces a record that was not fully committed.
        #[test]
        fn truncation_never_panics(cut in 0usize..600) {
            let dir = tmp_dir("truncate");
            {
                let (log, _) =
                    RecordLog::open(&dir, "test", RecordLogOptions::default()).unwrap();
                log.append_batch(&[rec(1, b"alpha"), rec(2, b"beta")]).unwrap();
                log.append(rec(3, b"gamma")).unwrap();
            }
            let path = dir.join("test.g0.log");
            let bytes = std::fs::read(&path).unwrap();
            let cut = cut.min(bytes.len());
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (_, replayed) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).unwrap();
            // Whatever replays must be an exact prefix of what was acked.
            let acked: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
            proptest::prop_assert!(replayed.len() <= acked.len());
            for (r, want) in replayed.iter().zip(&acked) {
                proptest::prop_assert_eq!(&r.payload[..], *want);
            }
            // The page log's path: pre-sized file, replayed in place.
            let in_place = replay_in_place(&dir);
            proptest::prop_assert!(in_place.len() <= acked.len());
            for (r, want) in in_place.iter().zip(&acked) {
                proptest::prop_assert_eq!(&r[..], *want);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
