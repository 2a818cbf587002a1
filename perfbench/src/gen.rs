//! Seeded input generation: random streams, segment offsets, Zipf
//! popularity, and the stamped payloads every read is checked against.
//!
//! Everything here is a pure function of the workload seed, so one seed
//! always yields the same offsets and the same bytes.

/// splitmix64: a small, well-mixed generator; one per client thread.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-32 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `n` items: rank `k` (0-based) has weight `1 / (k+1)^s`.
/// Ranks map to items through a seeded permutation, so the hot items are
/// scattered over the region instead of packed at its start.
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64, seed: u64) -> Self {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Fisher-Yates with its own stream: the permutation depends on the
        // seed only, never on how many samples a thread has drawn.
        let mut item_of_rank: Vec<u64> = (0..n).collect();
        let mut rng = Rng::new(seed, 0x21ff);
        for i in (1..n as usize).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            item_of_rank.swap(i, j);
        }
        Self { cdf, item_of_rank }
    }

    /// The rank a uniform draw `u` in `[0, 1)` falls on.
    pub fn rank_for(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.item_of_rank[self.rank_for(rng.unit())]
    }
}

/// Bytes of the per-page stamp: `(stamp, page index)`, little endian.
pub const STAMP_BYTES: usize = 16;

/// A writer's base content: `len` seeded bytes. Every write by that
/// writer sends the base with each page's first [`STAMP_BYTES`]
/// overwritten by [`stamp_pages`], so every (write, page) is unique.
pub fn base_payload(seed: u64, base_id: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0xba5e_0000 + base_id);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Stamp every page of `buf` (written at blob offset `offset`) with
/// `stamp` and its blob page index.
pub fn stamp_pages(buf: &mut [u8], offset: u64, page: u64, stamp: u64) {
    for (i, p) in buf.chunks_mut(page as usize).enumerate() {
        p[..8].copy_from_slice(&stamp.to_le_bytes());
        p[8..STAMP_BYTES].copy_from_slice(&(offset / page + i as u64).to_le_bytes());
    }
}

/// Check one page read back at blob offset `page_off`, expected to hold
/// the bytes a write stamped `stamp` put there from `base` (the writer's
/// base content, `base_off` bytes into the write).
pub fn page_matches(got: &[u8], base: &[u8], base_off: usize, page_off: u64, stamp: u64) -> bool {
    let len = got.len();
    got.len() >= STAMP_BYTES
        && got[..8] == stamp.to_le_bytes()
        && got[8..STAMP_BYTES] == (page_off / len as u64).to_le_bytes()
        && got[STAMP_BYTES..] == base[base_off + STAMP_BYTES..base_off + len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_reproduce_exactly() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 3);
            (0..64).map(|_| r.below(1 << 19)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 3);
            (0..64).map(|_| r.below(1 << 19)).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(8, 3);
        assert_ne!(
            a[..8],
            (0..8).map(|_| other.below(1 << 19)).collect::<Vec<_>>()[..]
        );
        let mut r = Rng::new(7, 3);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // Canonical splitmix64 outputs for state 0.
        let mut r = Rng(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn zipf_reproduces_exactly() {
        let z1 = Zipf::new(1024, 1.0, 42);
        let z2 = Zipf::new(1024, 1.0, 42);
        let (mut r1, mut r2) = (Rng::new(42, 1), Rng::new(42, 1));
        let a: Vec<u64> = (0..1000).map(|_| z1.sample(&mut r1)).collect();
        let b: Vec<u64> = (0..1000).map(|_| z2.sample(&mut r2)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 1024));
        // Another seed permutes the items differently.
        let z3 = Zipf::new(1024, 1.0, 43);
        assert_ne!(z1.item_of_rank, z3.item_of_rank);
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_law() {
        let n = 100u64;
        let z = Zipf::new(n, 1.0, 1);
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        // Exact CDF: rank 0 covers [0, 1/H), rank 1 the next 1/(2H).
        assert_eq!(z.rank_for(0.0), 0);
        assert_eq!(z.rank_for(0.999 / h), 0);
        assert_eq!(z.rank_for(1.001 / h), 1);
        assert_eq!(z.rank_for(0.999_999_999), (n - 1) as usize);
        let mut rng = Rng::new(5, 5);
        let draws = 200_000;
        let mut count = vec![0u64; n as usize];
        for _ in 0..draws {
            count[z.rank_for(rng.unit())] += 1;
        }
        for k in [0usize, 1, 9] {
            let want = draws as f64 / ((k + 1) as f64 * h);
            let got = count[k] as f64;
            assert!(
                (got - want).abs() < 0.05 * want,
                "rank {k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn uniform_zipf_degenerates_to_uniform() {
        let z = Zipf::new(4, 0.0, 9);
        assert_eq!(z.rank_for(0.24), 0);
        assert_eq!(z.rank_for(0.26), 1);
        assert_eq!(z.rank_for(0.74), 2);
        assert_eq!(z.rank_for(0.76), 3);
    }

    #[test]
    fn stamped_pages_verify_and_detect_mismatch() {
        let page = 64u64;
        let base = base_payload(3, 1, 256);
        assert_eq!(base, base_payload(3, 1, 256));
        assert_ne!(base, base_payload(3, 2, 256));
        let mut buf = base.clone();
        stamp_pages(&mut buf, 640, page, 99);
        for i in 0..4usize {
            let p = &buf[i * 64..(i + 1) * 64];
            assert!(page_matches(p, &base, i * 64, 640 + i as u64 * 64, 99));
            assert!(!page_matches(p, &base, i * 64, 640 + i as u64 * 64, 98));
            assert!(!page_matches(p, &base, i * 64, 704 + i as u64 * 64, 99));
        }
        let mut bad = buf.clone();
        bad[100] ^= 1;
        assert!(!page_matches(&bad[64..128], &base, 64, 704, 99));
    }
}
