//! In-memory spans around calls into each layer, and the self-time math.
//!
//! A span has a name, start, end, parent and the id of the operation it
//! belongs to. Spans stay in a per-thread [`Tracer`] until the run ends;
//! [`Profile`] then folds them into per-name totals.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub err: bool,
}

/// One thread's span recorder. Span ids are indexes into `spans`.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open an operation's root span; every span until the matching
    /// [`Tracer::end`] shares its op id.
    pub fn begin_op(&mut self, name: &'static str, op: u64) -> u32 {
        self.op = op;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            err: false,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32, err: bool) {
        let end_ns = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.err = err;
        // Spans close innermost first; tolerate an early-returned child.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`; an `Err` marks the span failed.
    pub fn span<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.begin(name);
        let r = f();
        self.end(id, r.is_err());
        r
    }

    /// Run an infallible `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let r = f();
        self.end(id, false);
        r
    }
}

/// Nanoseconds of `[start, end)` that no child interval covers. Children
/// may nest or overlap one another and may stick out of the parent; only
/// their union clipped to the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub errors: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, NameTotals>,
}

impl Profile {
    /// Fold one tracer's spans, keeping only those whose op satisfies
    /// `keep` (a predicate on the op id).
    pub fn add(&mut self, spans: &[Span], keep: impl Fn(u64) -> bool) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in spans.iter().zip(&children) {
            if !keep(s.op) {
                continue;
            }
            let t = self.by_name.entry(s.name).or_default();
            t.calls += 1;
            t.errors += s.err as u64;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_time(s.start_ns, s.end_ns, kids);
        }
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn errors(&self) -> u64 {
        self.by_name.values().map(|t| t.errors).sum()
    }
}

/// Write spans as tab-separated lines (`thread op span parent name
/// start_ns end_ns err`).
pub fn write_tsv(out: &mut impl Write, thread: usize, spans: &[Span]) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{thread}\t{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns, s.err as u8
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [10,40) ∪ [30,60) ∪ [55,70) = [10,70): 60 ns covered.
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40), (55, 70)]), 40);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Identical children.
        assert_eq!(self_time(0, 10, &[(2, 4), (2, 4)]), 8);
        // Touching children merge without double counting.
        assert_eq!(self_time(0, 10, &[(0, 5), (5, 10)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 5), (30, 40)]), 10);
    }

    #[test]
    fn profile_folds_nested_spans() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.begin_op("op", 1);
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let _: Result<(), ()> = t.span("b", || Err(()));
        let inner = t.begin("c");
        t.time("d", || ());
        t.end(inner, false);
        t.end(root, false);
        let second = t.begin_op("op", 2);
        t.end(second, false);

        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[4].parent, Some(3));
        assert!(t.spans.iter().take(5).all(|s| s.op == 1));

        let mut p = Profile::default();
        p.add(&t.spans, |op| op == 1);
        let op = p.get("op");
        assert_eq!((op.calls, op.errors), (1, 0));
        assert_eq!(p.get("b").errors, 1);
        assert_eq!(p.errors(), 1);
        let kids: u64 = ["a", "b", "c"].iter().map(|n| p.get(n).total_ns).sum();
        assert_eq!(op.self_ns, op.total_ns - kids);
        assert!(p.get("a").self_ns >= 2_000_000);
        assert_eq!(
            p.get("c").self_ns,
            p.get("c").total_ns - p.get("d").total_ns
        );

        let mut buf = Vec::new();
        write_tsv(&mut buf, 0, &t.spans).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap().lines().count(),
            t.spans.len()
        );
    }
}
