//! One level of set-associative cache with LRU replacement, MRU way
//! prediction, and partial tag matching.

use crate::config::CacheConfig;
use std::ops::Range;

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, Default, Debug)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
}

impl CacheStats {
    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]` (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// Result of a full (conventional) access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// Way that now holds the line.
    pub way: u32,
}

/// Classification of a partial-tag probe — the four cases of the paper's
/// Fig. 4 plus the way-prediction detail used by the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartialOutcome {
    /// No way matches the known tag bits: the access is a provable miss
    /// before the full address exists ("zero entries match").
    ZeroMatch,
    /// Exactly one way matches the partial tag, and the full tag will
    /// confirm it ("single entry - hit").
    SingleHit {
        /// The matching way.
        way: u32,
    },
    /// Exactly one way matches the partial tag, but the full tag will
    /// refute it — a miss discovered only at verification
    /// ("single entry - miss").
    SingleMiss,
    /// Several ways match the partial tag; a way predictor must choose
    /// ("mult match").
    MultiMatch {
        /// The way the MRU policy would select.
        mru_way: u32,
        /// Whether that selection is the way that actually hits.
        mru_correct: bool,
    },
}

/// The highest associativity a [`Cache`] supports: recency ranks are
/// stored as `u8`.
pub const MAX_WAYS: u32 = u8::MAX as u32 + 1;

/// A set-associative cache.
///
/// Tracks only tags (this is a timing structure, not a data store — the
/// emulator owns the actual bytes).
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`; `None` = invalid.
    tags: Vec<Option<u32>>,
    /// Recency ranks (0 = MRU), same layout.
    lru: Vec<u8>,
    stats: CacheStats,
}

impl Cache {
    /// An empty cache with geometry `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.ways` exceeds [`MAX_WAYS`].
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.ways <= MAX_WAYS,
            "associativity {} above {MAX_WAYS}",
            cfg.ways
        );
        let n = (cfg.sets() * cfg.ways) as usize;
        let lru = (0..n).map(|i| (i as u32 % cfg.ways) as u8).collect();
        Cache {
            cfg,
            tags: vec![None; n],
            lru,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn base(&self, set: u32) -> usize {
        (set * self.cfg.ways) as usize
    }

    /// Non-updating residency check.
    pub fn probe(&self, addr: u32) -> bool {
        let set = self.cfg.set_of(addr);
        let tag = self.cfg.tag_of(addr);
        let base = self.base(set);
        self.tags[base..base + self.cfg.ways as usize].contains(&Some(tag))
    }

    /// Conventional access: looks up `addr`, fills on miss (evicting LRU),
    /// updates recency and stats.
    pub fn access(&mut self, addr: u32) -> AccessResult {
        let set = self.cfg.set_of(addr);
        let tag = self.cfg.tag_of(addr);
        let base = self.base(set);
        let ways = self.cfg.ways as usize;
        self.stats.accesses += 1;

        for w in 0..ways {
            if self.tags[base + w] == Some(tag) {
                self.stats.hits += 1;
                self.touch(base, w);
                return AccessResult {
                    hit: true,
                    way: w as u32,
                };
            }
        }
        // Miss: fill an invalid way, else evict LRU.
        let victim = (0..ways)
            .find(|&w| self.tags[base + w].is_none())
            .unwrap_or_else(|| {
                (0..ways)
                    .max_by_key(|&w| self.lru[base + w])
                    .expect("a set has at least one way")
            });
        self.tags[base + victim] = Some(tag);
        self.touch(base, victim);
        AccessResult {
            hit: false,
            way: victim as u32,
        }
    }

    /// The MRU way of the set containing `addr` (the way-predictor's
    /// default choice).
    pub fn mru_way(&self, addr: u32) -> u32 {
        let base = self.base(self.cfg.set_of(addr));
        (0..self.cfg.ways as usize)
            .min_by_key(|&w| self.lru[base + w])
            .expect("a set has at least one way") as u32
    }

    /// The valid ways of the set `addr` maps to, each as `(way, first
    /// differing bit, LRU rank)`. The first differing bit is the lowest
    /// bit at which the way's tag differs from `addr`'s, or 32 when the
    /// tags are equal.
    ///
    /// A compare over the low `t` tag bits stops matching at the first
    /// differing bit, so a way matches with `t` known tag bits exactly
    /// when that bit is `>= t`: one number per way decides the probe at
    /// every width.
    fn tag_diffs(&self, addr: u32) -> impl Iterator<Item = (u32, u32, u8)> + '_ {
        let base = self.base(self.cfg.set_of(addr));
        let ways = base..base + self.cfg.ways as usize;
        let tag = self.cfg.tag_of(addr);
        self.tags[ways.clone()]
            .iter()
            .zip(&self.lru[ways])
            .enumerate()
            .filter_map(move |(w, (t, &rank))| {
                t.map(|t| (w as u32, (t ^ tag).trailing_zeros(), rank))
            })
    }

    /// Probe with only the low `tag_bits_known` bits of the tag available
    /// (the set index must already be complete — the caller guarantees
    /// this via [`CacheConfig::partial_tag_bits`]).
    ///
    /// Classifies the probe per Fig. 4. Does **not** update recency or
    /// stats — a partial probe is a peek that precedes the verifying full
    /// access.
    pub fn partial_probe(&self, addr: u32, tag_bits_known: u32) -> PartialOutcome {
        let t = tag_bits_known.min(32);
        let mut matching = 0;
        let mut mru = NO_WAY;
        let mut hit = None;
        for (way, diff, rank) in self.tag_diffs(addr) {
            if diff == 32 {
                hit = hit.or(Some(way));
            }
            if diff >= t {
                matching += 1;
                mru = mru.min(recency_key(rank, way));
            }
        }
        classify(matching, mru, hit)
    }

    /// [`Cache::partial_probe`] at every width `t < widths` in one pass.
    /// Calls `visit(run, outcome)` for runs of consecutive widths that
    /// together cover `0..widths`, widest run first; `outcome` is what
    /// `partial_probe(addr, t)` returns for every `t` in `run`.
    ///
    /// Ways are bucketed by their first differing tag bit. Walking the
    /// width down from the widest compare, the matching set grows by one
    /// bucket at each non-empty bucket's bit and is constant in between,
    /// so the walk visits only the non-empty buckets.
    pub fn partial_probe_widths(
        &self,
        addr: u32,
        widths: usize,
        mut visit: impl FnMut(Range<usize>, PartialOutcome),
    ) {
        // Per first differing bit (32 = equal tags): how many ways first
        // differ there, and the recency key of the most recent of them.
        let mut count = [0u32; 33];
        let mut mru = [NO_WAY; 33];
        let mut present = 0u64;
        let mut hit = None;
        for (way, diff, rank) in self.tag_diffs(addr) {
            let d = diff as usize;
            if d == 32 {
                hit = hit.or(Some(way));
            }
            count[d] += 1;
            mru[d] = mru[d].min(recency_key(rank, way));
            present |= 1 << d;
        }
        // Equal tags match at every width, however wide.
        let (mut matching, mut matching_mru) = (count[32], mru[32]);
        present &= !(1 << 32);
        // Widths `hi..widths` are visited; bucket `d` matches widths `..=d`.
        let mut hi = widths;
        while present != 0 {
            let d = 63 - present.leading_zeros() as usize;
            present &= !(1 << d);
            if d + 1 < hi {
                visit(d + 1..hi, classify(matching, matching_mru, hit));
                hi = d + 1;
            }
            matching += count[d];
            matching_mru = matching_mru.min(mru[d]);
        }
        if hi > 0 {
            visit(0..hi, classify(matching, matching_mru, hit));
        }
    }

    fn touch(&mut self, base: usize, way: usize) {
        let old = self.lru[base + way];
        for w in 0..self.cfg.ways as usize {
            if self.lru[base + w] < old {
                self.lru[base + w] += 1;
            }
        }
        self.lru[base + way] = 0;
    }
}

/// A way's recency key: ordered by LRU rank (distinct within a set, so
/// the minimum is the MRU way), with the way in the low byte. Ranks and
/// ways both fit a byte ([`MAX_WAYS`]).
#[inline]
fn recency_key(rank: u8, way: u32) -> u32 {
    u32::from(rank) << 8 | way
}

/// The recency key of no way: above every real key.
const NO_WAY: u32 = u32::MAX;

/// The Fig. 4 category of a probe with `matching` partially matching
/// ways, `mru` the recency key of the most recent of them, and `hit` the
/// way whose full tag matches, if any.
fn classify(matching: u32, mru: u32, hit: Option<u32>) -> PartialOutcome {
    let way = mru & 0xff;
    match matching {
        0 => PartialOutcome::ZeroMatch,
        1 if hit == Some(way) => PartialOutcome::SingleHit { way },
        1 => PartialOutcome::SingleMiss,
        _ => PartialOutcome::MultiMatch {
            mru_way: way,
            mru_correct: hit == Some(way),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popk_isa::rng::SplitMix64;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 16B lines = 128 B.
        Cache::new(CacheConfig::new(128, 16, 2))
    }

    #[test]
    fn fill_hit_evict() {
        let mut c = tiny();
        let a = 0x0000_0000;
        let b = 0x0000_0040; // same set (4 sets × 16B ⇒ set stride 64)
        let d = 0x0000_0080; // same set again
        assert!(!c.access(a).hit);
        assert!(c.access(a).hit);
        assert!(!c.access(b).hit);
        assert!(c.probe(a) && c.probe(b));
        // Third distinct line in a 2-way set evicts LRU (a).
        assert!(!c.access(d).hit);
        assert!(!c.probe(a));
        assert!(c.probe(b) && c.probe(d));
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn mru_tracking() {
        let mut c = tiny();
        let a = 0x0000_0000;
        let b = 0x0000_0040;
        let wa = c.access(a).way;
        let wb = c.access(b).way;
        assert_eq!(c.mru_way(a), wb);
        c.access(a);
        assert_eq!(c.mru_way(a), wa);
    }

    #[test]
    fn partial_probe_categories() {
        // 64KB 4-way 64B (Table 2 L1D): tag starts at bit 14.
        let mut c = Cache::new(CacheConfig::l1d_table2());
        let cfg = *c.config();
        let set_stride = 1 << cfg.tag_start_bit(); // addresses differing only in tag

        let a = 0x1000_0000;
        let b = a + set_stride; // same set, tag differs in bit 0 of tag
        let d = a + 2 * set_stride; // tag differs in bit 1
        c.access(a);
        c.access(b);
        c.access(d);

        // Probe for a line that is resident and unique in its low tag bits.
        match c.partial_probe(a, 2) {
            PartialOutcome::SingleHit { .. } => {}
            other => panic!("expected SingleHit, got {other:?}"),
        }
        // Probe for a non-resident address whose partial tag matches
        // nothing: 0 tag bits known -> everything resident matches
        // (vacuous mask), so use an empty set instead.
        let empty_set_addr = a + (1 << cfg.offset_bits()); // different set, untouched
        assert_eq!(
            c.partial_probe(empty_set_addr, 2),
            PartialOutcome::ZeroMatch
        );

        // A non-resident address sharing low tag bits with a resident one:
        // tag differs only above the known bits → SingleMiss.
        let ghost = a + 4 * set_stride; // tag bit 2 differs; low 2 bits equal
        match c.partial_probe(ghost, 2) {
            PartialOutcome::SingleMiss => {}
            other => panic!("expected SingleMiss, got {other:?}"),
        }

        // With 0 known tag bits, every resident way matches → MultiMatch,
        // and MRU (most recently touched = d) decides.
        match c.partial_probe(d, 0) {
            PartialOutcome::MultiMatch { mru_correct, .. } => assert!(mru_correct),
            other => panic!("expected MultiMatch, got {other:?}"),
        }
        match c.partial_probe(a, 0) {
            PartialOutcome::MultiMatch { mru_correct, .. } => assert!(!mru_correct),
            other => panic!("expected MultiMatch, got {other:?}"),
        }
    }

    #[test]
    fn partial_probe_full_tag_degenerates_to_exact() {
        let mut c = Cache::new(CacheConfig::l1d_table2());
        let cfg = *c.config();
        let a = 0x2000_0040;
        c.access(a);
        assert_eq!(
            c.partial_probe(a, cfg.tag_bits()),
            PartialOutcome::SingleHit { way: 0 }
        );
        let other = a + (1 << cfg.tag_start_bit());
        assert_eq!(
            c.partial_probe(other, cfg.tag_bits()),
            PartialOutcome::ZeroMatch
        );
    }

    #[test]
    fn partial_probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0);
        let s0 = c.stats().accesses;
        let _ = c.partial_probe(0, 1);
        assert_eq!(c.stats().accesses, s0);
    }

    /// Reference for the first-differing-bit kernels: one width at a
    /// time, mask the known tag bits and compare every way.
    fn reference_probe(c: &Cache, addr: u32, tag_bits_known: u32) -> PartialOutcome {
        let set = c.cfg.set_of(addr);
        let full_tag = c.cfg.tag_of(addr);
        let mask = if tag_bits_known >= 32 {
            u32::MAX
        } else {
            (1u32 << tag_bits_known) - 1
        };
        let base = c.base(set);
        let ways = c.cfg.ways as usize;

        let mut matches = Vec::new();
        for w in 0..ways {
            if let Some(t) = c.tags[base + w] {
                if (t ^ full_tag) & mask == 0 {
                    matches.push(w as u32);
                }
            }
        }
        match matches.len() {
            0 => PartialOutcome::ZeroMatch,
            1 => {
                let w = matches[0];
                if c.tags[base + w as usize] == Some(full_tag) {
                    PartialOutcome::SingleHit { way: w }
                } else {
                    PartialOutcome::SingleMiss
                }
            }
            _ => {
                let mru_way = matches
                    .iter()
                    .copied()
                    .min_by_key(|&w| c.lru[base + w as usize])
                    .expect("multi-match has at least two ways");
                let hit_way = (0..ways).find(|&w| c.tags[base + w] == Some(full_tag));
                PartialOutcome::MultiMatch {
                    mru_way,
                    mru_correct: hit_way == Some(mru_way as usize),
                }
            }
        }
    }

    /// [`Cache::partial_probe_widths`] expanded to one outcome per width,
    /// checking that its runs tile `0..widths` from the widest down.
    fn all_widths(c: &Cache, addr: u32, widths: usize) -> Vec<PartialOutcome> {
        let mut out = vec![None; widths];
        let mut next_hi = widths;
        c.partial_probe_widths(addr, widths, |run, outcome| {
            assert!(
                !run.is_empty() && run.end == next_hi,
                "{run:?} after {next_hi}"
            );
            next_hi = run.start;
            out[run].fill(Some(outcome));
        });
        assert_eq!(next_hi, 0, "runs must reach width 0");
        out.into_iter()
            .map(|o| o.expect("every width visited"))
            .collect()
    }

    #[test]
    fn first_differing_bit_probes_match_the_masked_reference() {
        let mut rng = SplitMix64::new(0xd1ff);
        for ways in [1, 2, 4, 8, 16] {
            // Two sets of 32 B lines: every access lands in a busy set.
            let cfg = CacheConfig::new(2 * 32 * ways, 32, ways);
            let mut c = Cache::new(cfg);
            // A small pool of tags that differ from one base in a few
            // sparse bits, so probes see partial matches at every width,
            // full matches and multi-way ambiguity.
            let base = rng.next_u32();
            let pool: Vec<u32> = (0..2 * ways + 3)
                .map(|_| {
                    let tag = base ^ (rng.next_u32() & rng.next_u32() & rng.next_u32());
                    (tag << cfg.tag_start_bit()) | (rng.below(2) << cfg.offset_bits())
                })
                .collect();
            let mut seen = [false; 5];
            for _ in 0..3000 {
                let addr = *rng.pick(&pool) | rng.below(32);
                // Widths past the tag (up to 33) must act as a full compare.
                let widths = all_widths(&c, addr, 34);
                for (t, &outcome) in widths.iter().enumerate() {
                    let expect = reference_probe(&c, addr, t as u32);
                    assert_eq!(outcome, expect, "{ways}-way widths, t={t}, addr {addr:#x}");
                    assert_eq!(
                        c.partial_probe(addr, t as u32),
                        expect,
                        "{ways}-way, t={t}, addr {addr:#x}"
                    );
                    seen[match outcome {
                        PartialOutcome::ZeroMatch => 0,
                        PartialOutcome::SingleHit { .. } => 1,
                        PartialOutcome::SingleMiss => 2,
                        PartialOutcome::MultiMatch {
                            mru_correct: true, ..
                        } => 3,
                        PartialOutcome::MultiMatch { .. } => 4,
                    }] = true;
                }
                c.access(addr);
            }
            // A direct-mapped set never holds two candidates.
            let kinds = if ways == 1 { 3 } else { 5 };
            assert!(seen[..kinds].iter().all(|&s| s), "{ways}-way: {seen:?}");
        }
    }

    #[test]
    fn max_ways_set_fills_and_evicts() {
        let cfg = CacheConfig::new(MAX_WAYS * 16, 16, MAX_WAYS);
        let mut c = Cache::new(cfg);
        let line = |i: u32| i << cfg.tag_start_bit();
        for i in 0..=MAX_WAYS {
            assert!(!c.access(line(i)).hit);
        }
        // The 257th line evicted the least recently used, the first.
        assert!(!c.probe(line(0)));
        assert!((1..=MAX_WAYS).all(|i| c.probe(line(i))));
        assert_eq!(c.mru_way(line(0)), c.access(line(MAX_WAYS)).way);
    }

    #[test]
    #[should_panic(expected = "associativity 512")]
    fn rejects_more_ways_than_recency_ranks_hold() {
        let _ = Cache::new(CacheConfig::new(512 * 16, 16, 512));
    }

    #[test]
    fn more_than_64_matching_ways_classify() {
        // One set of 128 ways: fill every way, then a zero-width probe
        // matches all 128 of them.
        let cfg = CacheConfig::new(128 * 16, 16, 128);
        assert_eq!(cfg.sets(), 1);
        let mut c = Cache::new(cfg);
        let line = |i: u32| i << cfg.tag_start_bit();
        for i in 0..128 {
            c.access(line(i));
        }
        // Line 127 went in last, so it is the MRU way.
        let last = c.access(line(127)).way;
        assert_eq!(
            c.partial_probe(line(127), 0),
            PartialOutcome::MultiMatch {
                mru_way: last,
                mru_correct: true
            }
        );
        assert_eq!(
            c.partial_probe(line(0), 0),
            PartialOutcome::MultiMatch {
                mru_way: last,
                mru_correct: false
            }
        );
        let widths = all_widths(&c, line(5), cfg.tag_bits() as usize + 1);
        for (t, &outcome) in widths.iter().enumerate() {
            assert_eq!(outcome, reference_probe(&c, line(5), t as u32), "t={t}");
        }
        assert_eq!(widths[0], c.partial_probe(line(5), 0));
        assert!(matches!(
            widths[cfg.tag_bits() as usize],
            PartialOutcome::SingleHit { .. }
        ));
    }
}
