//! The closed-loop sweep driver behind every `pr*` acceptance bench.
//!
//! A leg is one declarative [`Row`]: the deployment builder (transport,
//! backend, journals and any per-deployment ablation live there), the
//! op, the page and segment size, the client counts, the ops per
//! client, the addressing [`Layout`], the repetitions and the
//! [`Clock`]. [`run`] measures the row at every client count and
//! returns one [`Sample`] per count carrying every meter the benches
//! gate on. [`json_series`] and [`table`] render samples with the
//! column set a bench's committed `BENCH_PR*.json` expects.
//!
//! Rules every row shares, so that two benches never differ by
//! accident:
//!
//! * clients are **warm**: spawned and handed the blob's geometry
//!   (`info`) before the measured region, so client start-up is not
//!   charged to the per-op meters;
//! * a read row first fills every segment it will read, one write per
//!   segment, with the same payload a write row would store;
//! * a [`Layout::Disjoint`] blob is sized for the row's widest client
//!   count, so per-op tree depth is the same at every count and the
//!   curve measures contention, nothing else.

use crate::{measure_region, payload, MB};
use blobseer_core::{BlobClient, Deployment, ReadOptions};
use blobseer_proto::{BlobId, Segment};
use blobseer_rpc::Ctx;
use blobseer_util::lockmeter;
use blobseer_util::stats::Table;

/// What every client does once per op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `BlobClient::write` of one segment.
    Write,
    /// `BlobClient::read_into_with` (default options) of one segment
    /// into a reused buffer.
    Read,
}

/// Where op `i` of client `t` lands in the blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Client `t` owns the `ops_per_client` consecutive segments
    /// starting at `t * ops_per_client * seg`.
    Disjoint,
    /// Every client walks one blob of this many bytes, one segment per
    /// op, wrapping: all writers collide on the same pages (the hot
    /// spot of the version-assignment benches).
    Hot(u64),
}

/// How a measured region is timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock around the region.
    Wall,
    /// Simulated time: every client starts at the cluster's virtual
    /// horizon and the region lasts until the last client's clock.
    Virtual,
}

/// One closed-loop leg.
pub struct Row<'a> {
    /// Builds a fresh deployment for every (client count, rep) cell.
    pub deploy: &'a (dyn Fn() -> Deployment + Sync),
    /// The op every client repeats.
    pub op: Op,
    /// Page size of the blob.
    pub page: u64,
    /// Bytes per op.
    pub seg: u64,
    /// The client counts swept, in order.
    pub clients: &'a [usize],
    /// Ops each client issues per cell.
    pub ops_per_client: u64,
    /// Addressing of the ops inside the blob.
    pub layout: Layout,
    /// Repetitions per cell; the median by throughput is kept.
    pub reps: usize,
    /// Wall or virtual timing.
    pub clock: Clock,
}

impl Row<'_> {
    /// Logical size of the blob every cell of the row allocates.
    fn blob_bytes(&self) -> u64 {
        match self.layout {
            Layout::Disjoint => {
                let widest = self.clients.iter().copied().max().unwrap_or(1) as u64;
                (self.seg * self.ops_per_client * widest).next_power_of_two()
            }
            Layout::Hot(bytes) => bytes,
        }
    }

    /// Offset of op `i` of client `t`.
    fn offset(&self, t: usize, i: u64) -> u64 {
        let k = t as u64 * self.ops_per_client + i;
        match self.layout {
            Layout::Disjoint => k * self.seg,
            Layout::Hot(bytes) => (k % (bytes / self.seg)) * self.seg,
        }
    }
}

/// Every meter of one measured cell.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Concurrent clients.
    pub clients: usize,
    /// Aggregate throughput (wall or virtual, per the row's clock).
    pub mib_s: f64,
    /// Payload bytes copied per op.
    pub copied_per_op: f64,
    /// Serializing control-plane lock acquisitions per op.
    pub ser_per_op: f64,
    /// Version-assignment (sanctioned) acquisitions per op.
    pub va_per_op: f64,
    /// Sharded exclusive acquisitions per op (cache insert/evict).
    pub sharded_per_op: f64,
}

/// Measure `row` at every client count, keeping the median rep of each.
pub fn run(row: &Row<'_>) -> Vec<Sample> {
    assert!(row.reps > 0, "a row needs at least one rep");
    row.clients
        .iter()
        .map(|&n| median_by_throughput((0..row.reps).map(|_| run_once(row, n)).collect()))
        .collect()
}

fn run_once(row: &Row<'_>, n: usize) -> Sample {
    let d = (row.deploy)();
    let setup = d.client();
    let mut ctx = Ctx::start();
    let blob = setup
        .alloc(&mut ctx, row.blob_bytes(), row.page)
        .expect("alloc the sweep blob")
        .blob;
    if row.op == Op::Read {
        for t in 0..n {
            let data = payload(row.seg, t as u64);
            for i in 0..row.ops_per_client {
                setup
                    .write(&mut ctx, blob, row.offset(t, i), &data)
                    .expect("prefill write");
            }
        }
    }
    let clients = warm_clients(&d, &mut ctx, blob, n);
    closed_loop(
        &d,
        row.clock,
        clients,
        row.ops_per_client,
        row.seg,
        |t, c, ctx| match row.op {
            Op::Write => {
                let data = payload(row.seg, t as u64);
                for i in 0..row.ops_per_client {
                    c.write(ctx, blob, row.offset(t, i), &data)
                        .expect("sweep write");
                }
            }
            Op::Read => {
                let mut out = vec![0u8; row.seg as usize];
                for i in 0..row.ops_per_client {
                    let seg = Segment::new(row.offset(t, i), row.seg);
                    c.read_into_with(ctx, blob, seg, &mut out, &ReadOptions::default())
                        .expect("sweep read");
                }
            }
        },
    )
}

/// Spawn `n` clients and pull `blob`'s geometry into each, outside any
/// measured region.
pub fn warm_clients(d: &Deployment, ctx: &mut Ctx, blob: BlobId, n: usize) -> Vec<BlobClient> {
    (0..n)
        .map(|_| {
            let c = d.client();
            c.info(ctx, blob).expect("warm-up info");
            c
        })
        .collect()
}

/// Run `client_loop(t, client, ctx)` on one thread per client, each
/// issuing `ops_per_client` ops of `bytes_per_op`, and meter the region:
/// throughput on `clock`, payload copies and lock acquisitions per op.
pub fn closed_loop<F>(
    d: &Deployment,
    clock: Clock,
    clients: Vec<BlobClient>,
    ops_per_client: u64,
    bytes_per_op: u64,
    client_loop: F,
) -> Sample
where
    F: Fn(usize, &BlobClient, &mut Ctx) + Sync,
{
    let n = clients.len();
    let start_vt = match clock {
        Clock::Wall => 0,
        // Every measured client is causally after setup.
        Clock::Virtual => d.cluster.horizon(),
    };
    let mut end_vts = vec![start_vt; n];
    let locks = lockmeter::snapshot();
    let m = measure_region(|| {
        std::thread::scope(|scope| {
            for ((t, c), end) in clients.into_iter().enumerate().zip(&mut end_vts) {
                let client_loop = &client_loop;
                scope.spawn(move || {
                    let mut ctx = Ctx::at(start_vt);
                    client_loop(t, &c, &mut ctx);
                    *end = ctx.vt;
                });
            }
        });
    });
    let d_locks = locks.since();
    let ops = (n as u64 * ops_per_client) as f64;
    let secs = match clock {
        Clock::Wall => m.secs,
        Clock::Virtual => {
            (end_vts.iter().copied().max().unwrap_or(start_vt) - start_vt) as f64 / 1e9
        }
    };
    Sample {
        clients: n,
        mib_s: ops * bytes_per_op as f64 / MB as f64 / secs,
        copied_per_op: m.bytes_copied as f64 / ops,
        ser_per_op: d_locks.serializing as f64 / ops,
        va_per_op: d_locks.version_assign as f64 / ops,
        sharded_per_op: d_locks.sharded as f64 / ops,
    }
}

/// The rep with the median throughput (the upper median for an even
/// count). Short phases on a shared host confound CPU steal with
/// contention; the median filters both steal spikes and lucky bursts.
fn median_by_throughput(mut reps: Vec<Sample>) -> Sample {
    reps.sort_by(|a, b| a.mib_s.total_cmp(&b.mib_s));
    let mid = reps.len() / 2;
    reps.swap_remove(mid)
}

/// The sample at `clients` in a sweep.
pub fn at(samples: &[Sample], clients: usize) -> &Sample {
    samples
        .iter()
        .find(|s| s.clients == clients)
        .expect("client count in sweep")
}

/// Geometric mean over paired sweep points of `after.mib_s / before.mib_s`.
pub fn geomean_ratio(before: &[Sample], after: &[Sample]) -> f64 {
    let logs: Vec<f64> = before
        .iter()
        .zip(after)
        .map(|(b, a)| (a.mib_s / b.mib_s).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// A per-op meter a bench emits next to `clients` and `mib_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Meter {
    /// `bytes_copied_per_op`.
    Copied,
    /// `serializing_locks_per_op`.
    Serializing,
    /// `version_assign_locks_per_op`.
    VersionAssign,
    /// `sharded_locks_per_op`.
    Sharded,
}

/// The copy-discipline columns (pr1, pr3, pr4).
pub const COPIES: &[Meter] = &[Meter::Copied];
/// The control-plane lock columns (pr2).
pub const LOCKS: &[Meter] = &[Meter::Serializing, Meter::VersionAssign, Meter::Sharded];
/// Copies plus the write-path lock columns (pr5, pr6, pr7, pr10).
pub const PARITY: &[Meter] = &[Meter::Copied, Meter::Serializing, Meter::VersionAssign];

impl Meter {
    /// JSON key in `BENCH_PR*.json`.
    fn key(self) -> &'static str {
        match self {
            Meter::Copied => "bytes_copied_per_op",
            Meter::Serializing => "serializing_locks_per_op",
            Meter::VersionAssign => "version_assign_locks_per_op",
            Meter::Sharded => "sharded_locks_per_op",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Meter::Copied => "copied/op",
            Meter::Serializing => "ser/op",
            Meter::VersionAssign => "va/op",
            Meter::Sharded => "sharded/op",
        }
    }

    fn format(self, s: &Sample) -> String {
        match self {
            Meter::Copied => format!("{:.0}", s.copied_per_op),
            Meter::Serializing => format!("{:.2}", s.ser_per_op),
            Meter::VersionAssign => format!("{:.3}", s.va_per_op),
            Meter::Sharded => format!("{:.2}", s.sharded_per_op),
        }
    }
}

/// `"clients": …, "mib_s": …` and then every meter, as JSON object
/// members without the braces (a bench may add its own keys around them).
pub fn json_fields(s: &Sample, meters: &[Meter]) -> String {
    let mut out = format!("\"clients\": {}, \"mib_s\": {:.2}", s.clients, s.mib_s);
    for m in meters {
        out.push_str(&format!(", \"{}\": {}", m.key(), m.format(s)));
    }
    out
}

/// A sweep as a JSON array of sample objects.
pub fn json_series(samples: &[Sample], meters: &[Meter]) -> String {
    let entries: Vec<String> = samples
        .iter()
        .map(|s| format!("{{{}}}", json_fields(s, meters)))
        .collect();
    format!("[{}]", entries.join(", "))
}

/// Side-by-side table of labelled sweeps over the same client counts:
/// each series' MiB/s, the second-over-first ratio when there are two,
/// then every meter per series.
pub fn table(series: &[(&str, &[Sample])], meters: &[Meter]) -> Table {
    let mut header = vec!["clients".to_string()];
    header.extend(series.iter().map(|(label, _)| format!("{label} MiB/s")));
    let ratio = series.len() == 2;
    if ratio {
        header.push(format!("{}/{}", series[1].0, series[0].0));
    }
    for m in meters {
        header.extend(
            series
                .iter()
                .map(|(label, _)| format!("{} {label}", m.label())),
        );
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header);
    for (k, first) in series[0].1.iter().enumerate() {
        let cell: Vec<&Sample> = series.iter().map(|(_, s)| &s[k]).collect();
        let mut row = vec![first.clients.to_string()];
        row.extend(cell.iter().map(|s| format!("{:.1}", s.mib_s)));
        if ratio {
            row.push(format!("{:.2}x", cell[1].mib_s / cell[0].mib_s));
        }
        for m in meters {
            row.extend(cell.iter().map(|s| m.format(s)));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::KB;

    fn row(layout: Layout, clients: &'static [usize], ops: u64, seg: u64) -> Row<'static> {
        Row {
            deploy: &|| -> Deployment { unreachable!("addressing tests build no deployment") },
            op: Op::Write,
            page: seg,
            seg,
            clients,
            ops_per_client: ops,
            layout,
            reps: 1,
            clock: Clock::Wall,
        }
    }

    fn sample(clients: usize, mib_s: f64) -> Sample {
        Sample {
            clients,
            mib_s,
            copied_per_op: 1.0,
            ser_per_op: 0.0,
            va_per_op: 1.0,
            sharded_per_op: 0.0,
        }
    }

    #[test]
    fn disjoint_ranges_are_disjoint_and_inside_the_blob() {
        let r = row(Layout::Disjoint, &[1, 3, 8], 5, 4 * KB);
        let blob = r.blob_bytes();
        assert!(blob.is_power_of_two());
        for &n in r.clients {
            let mut ranges: Vec<(u64, u64)> = (0..n)
                .flat_map(|t| (0..r.ops_per_client).map(move |i| (t, i)))
                .map(|(t, i)| (r.offset(t, i), r.offset(t, i) + r.seg))
                .collect();
            ranges.sort();
            assert!(
                ranges.last().unwrap().1 <= blob,
                "{n} clients overrun the blob"
            );
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "{n} clients overlap at {w:?}");
            }
        }
    }

    #[test]
    fn hot_addressing_wraps_over_the_blob_pages() {
        let page = 8 * KB;
        let r = row(Layout::Hot(64 * page), &[4], 32, page);
        assert_eq!(r.blob_bytes(), 64 * page);
        let mut hits = [0u32; 64];
        for t in 0..4 {
            for i in 0..32 {
                let off = r.offset(t, i);
                assert_eq!(off % page, 0);
                hits[(off / page) as usize] += 1;
            }
        }
        // 4 clients × 32 ops over 64 pages: every page exactly twice.
        assert!(hits.iter().all(|&h| h == 2), "{hits:?}");
        // Client 2 starts where the walk wraps back to page 0.
        assert_eq!(r.offset(2, 0), 0);
        assert_eq!(r.offset(1, 31), 63 * page);
    }

    #[test]
    fn median_of_reps_is_the_middle_throughput() {
        let reps = vec![sample(4, 5.0), sample(4, 1.0), sample(4, 3.0)];
        assert_eq!(median_by_throughput(reps).mib_s, 3.0);
        let reps = vec![
            sample(4, 4.0),
            sample(4, 2.0),
            sample(4, 1.0),
            sample(4, 3.0),
        ];
        assert_eq!(median_by_throughput(reps).mib_s, 3.0);
        assert_eq!(median_by_throughput(vec![sample(4, 7.0)]).mib_s, 7.0);
    }

    fn keys(obj: &Json) -> Vec<String> {
        let mut k: Vec<String> = obj
            .as_obj()
            .expect("series element is an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        k.sort();
        k
    }

    #[test]
    fn rendered_series_have_the_committed_baseline_keys() {
        let cases: &[(&str, &[&str], &[Meter])] = &[
            ("BENCH_PR1.json", &["write", "before"], COPIES),
            ("BENCH_PR1.json", &["read", "after"], COPIES),
            ("BENCH_PR2.json", &["write", "serialized"], LOCKS),
            ("BENCH_PR2.json", &["read", "lockfree"], LOCKS),
            ("BENCH_PR3.json", &["write", "flatten"], COPIES),
            ("BENCH_PR3.json", &["read", "gather"], COPIES),
            ("BENCH_PR4.json", &["write", "memory"], COPIES),
            ("BENCH_PR4.json", &["read", "mmap"], COPIES),
            ("BENCH_PR5.json", &["write", "buffered"], PARITY),
            ("BENCH_PR5.json", &["write", "fsync"], PARITY),
            ("BENCH_PR7.json", &["write"], PARITY),
            ("BENCH_PR7.json", &["read_after_restart"], PARITY),
            ("BENCH_PR10.json", &["write", "hot_batched"], PARITY),
            ("BENCH_PR10.json", &["write", "hot_per_op"], PARITY),
        ];
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, path, meters) in cases {
            let src = std::fs::read_to_string(format!("{root}/{file}")).expect("baseline");
            let doc = Json::parse(&src).expect("baseline parses");
            let series = path
                .iter()
                .fold(&doc, |j, k| j.get(k).expect("baseline series"));
            let want = keys(&series.as_arr().expect("series is an array")[0]);
            let rendered = json_series(&[sample(1, 2.0), sample(2, 3.0)], meters);
            let got = Json::parse(&rendered).expect("rendered series parses");
            for elem in got.as_arr().expect("rendered array") {
                assert_eq!(keys(elem), want, "{file} {path:?}");
            }
        }
        // pr6 wraps one sample's fields with its segment size.
        let src = std::fs::read_to_string(format!("{root}/BENCH_PR6.json")).expect("baseline");
        let doc = Json::parse(&src).expect("baseline parses");
        let want = keys(doc.get("write_parity").expect("write_parity"));
        let rendered = format!(
            "{{\"segment_bytes\": 1, {}}}",
            json_fields(&sample(8, 1.0), PARITY)
        );
        assert_eq!(keys(&Json::parse(&rendered).expect("parses")), want);
    }

    #[test]
    fn table_pairs_two_series_with_their_ratio() {
        let a = [sample(1, 100.0), sample(2, 150.0)];
        let b = [sample(1, 200.0), sample(2, 150.0)];
        let t = table(&[("before", &a), ("after", &b)], COPIES);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "clients,before MiB/s,after MiB/s,after/before,copied/op before,copied/op after"
        );
        assert_eq!(lines.next().unwrap(), "1,100.0,200.0,2.00x,1,1");
    }
}
