//! Partial tag matching in set-associative caches (Fig. 4).
//!
//! Replays the data-reference stream through a cache of the configured
//! geometry. Before each access, the probe is classified for every
//! partial-tag width `t` (0 ..= full); then the access proceeds normally
//! (LRU fill). The figure plots, per absolute address bit position, the
//! share of accesses in each of four categories.
//!
//! All widths come from one pass over the set
//! ([`Cache::partial_probe_widths`]): a way stops matching at the first
//! tag bit where it differs from the probe, so that one bit per way
//! decides the category at every width.

use crate::TraceSink;
use popk_cache::{Cache, CacheConfig, PartialOutcome};
use popk_emu::TraceRecord;

/// The four Fig. 4 categories.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagCategory {
    /// A unique partial match that the full tag confirms.
    SingleHit,
    /// A unique partial match that the full tag refutes (a miss).
    SingleMiss,
    /// No way matches: a provable early miss.
    ZeroMatch,
    /// Multiple ways match the partial tag.
    MultMatch,
}

impl TagCategory {
    /// All categories in legend order.
    pub const ALL: [TagCategory; 4] = [
        TagCategory::SingleHit,
        TagCategory::SingleMiss,
        TagCategory::ZeroMatch,
        TagCategory::MultMatch,
    ];

    /// Index into count arrays (the position in [`TagCategory::ALL`],
    /// which lists the variants in declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Legend label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            TagCategory::SingleHit => "single entry - hit",
            TagCategory::SingleMiss => "single entry - miss",
            TagCategory::ZeroMatch => "zero match",
            TagCategory::MultMatch => "mult match",
        }
    }

    fn of(outcome: PartialOutcome) -> TagCategory {
        match outcome {
            PartialOutcome::SingleHit { .. } => TagCategory::SingleHit,
            PartialOutcome::SingleMiss => TagCategory::SingleMiss,
            PartialOutcome::ZeroMatch => TagCategory::ZeroMatch,
            PartialOutcome::MultiMatch { .. } => TagCategory::MultMatch,
        }
    }
}

/// Aggregated Fig. 4 data for one cache geometry.
#[derive(Clone, Debug)]
pub struct TagMatchReport {
    /// Geometry studied.
    pub config: CacheConfig,
    /// `counts[t][c]`: accesses in category `c` with `t` known tag bits
    /// (`t` ranges `0 ..= tag_bits`).
    pub counts: Vec<[u64; 4]>,
    /// Total data accesses.
    pub accesses: u64,
    /// Conventional hit count (for the convergence check: as `t` grows,
    /// SingleHit → hit rate and ZeroMatch+SingleMiss → miss rate).
    pub hits: u64,
    /// Accesses where the MRU way-prediction among multiple partial
    /// matchers chose the correct way, per tag-bit count.
    pub mru_correct: Vec<u64>,
}

impl TagMatchReport {
    /// Percentages for `t` known tag bits, in [`TagCategory::ALL`] order.
    pub fn percent_with_tag_bits(&self, t: u32) -> [f64; 4] {
        let row = &self.counts[t as usize];
        let mut out = [0.0; 4];
        for (o, &c) in out.iter_mut().zip(row.iter()) {
            *o = 100.0 * c as f64 / self.accesses.max(1) as f64;
        }
        out
    }

    /// The absolute address bit index of the `t`-th tag bit (the figure's
    /// x-axis; `t >= 1`).
    pub fn bit_position(&self, t: u32) -> u32 {
        self.config.tag_start_bit() + t - 1
    }

    /// Way-prediction accuracy among accesses that would speculate (a way
    /// was selected: unique match or MRU among several) with `t` known tag
    /// bits: fraction of those where the selected way is the hit way.
    pub fn speculation_accuracy(&self, t: u32) -> f64 {
        let row = &self.counts[t as usize];
        let single_hit = row[TagCategory::SingleHit.index()];
        let single_miss = row[TagCategory::SingleMiss.index()];
        let mult = row[TagCategory::MultMatch.index()];
        let speculated = single_hit + single_miss + mult;
        if speculated == 0 {
            return 1.0;
        }
        (single_hit + self.mru_correct[t as usize]) as f64 / speculated as f64
    }
}

/// The Fig. 4 study.
pub struct TagMatchStudy {
    cache: Cache,
    counts: Vec<[u64; 4]>,
    mru_correct: Vec<u64>,
    accesses: u64,
    hits: u64,
}

impl TagMatchStudy {
    /// Study a cache of geometry `cfg`.
    pub fn new(cfg: CacheConfig) -> TagMatchStudy {
        let n = cfg.tag_bits() as usize + 1;
        TagMatchStudy {
            cache: Cache::new(cfg),
            counts: vec![[0; 4]; n],
            mru_correct: vec![0; n],
            accesses: 0,
            hits: 0,
        }
    }

    /// Finish and report.
    pub fn report(&self) -> TagMatchReport {
        TagMatchReport {
            config: *self.cache.config(),
            counts: self.counts.clone(),
            accesses: self.accesses,
            hits: self.hits,
            mru_correct: self.mru_correct.clone(),
        }
    }

    /// Classify an access to `addr` at every tag width, count it, then
    /// perform it.
    fn access(&mut self, addr: u32) {
        let (counts, mru_correct) = (&mut self.counts, &mut self.mru_correct);
        self.cache
            .partial_probe_widths(addr, counts.len(), |widths, outcome| {
                let cat = TagCategory::of(outcome).index();
                for row in &mut counts[widths.clone()] {
                    row[cat] += 1;
                }
                if let PartialOutcome::MultiMatch {
                    mru_correct: true, ..
                } = outcome
                {
                    for n in &mut mru_correct[widths] {
                        *n += 1;
                    }
                }
            });
        self.accesses += 1;
        if self.cache.access(addr).hit {
            self.hits += 1;
        }
    }
}

impl TraceSink for TagMatchStudy {
    fn observe(&mut self, rec: &TraceRecord) {
        if rec.is_mem() {
            self.access(rec.ea);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popk_emu::Machine;
    use popk_isa::rng::SplitMix64;

    /// Reference for the one-pass kernel: one [`Cache::partial_probe`]
    /// per tag width.
    struct Reference {
        cache: Cache,
        counts: Vec<[u64; 4]>,
        mru_correct: Vec<u64>,
        hits: u64,
    }

    impl Reference {
        fn new(cfg: CacheConfig) -> Reference {
            let n = cfg.tag_bits() as usize + 1;
            Reference {
                cache: Cache::new(cfg),
                counts: vec![[0; 4]; n],
                mru_correct: vec![0; n],
                hits: 0,
            }
        }

        fn access(&mut self, addr: u32) {
            let tag_bits = self.cache.config().tag_bits();
            for t in 0..=tag_bits {
                let outcome = self.cache.partial_probe(addr, t);
                self.counts[t as usize][TagCategory::of(outcome).index()] += 1;
                if let PartialOutcome::MultiMatch {
                    mru_correct: true, ..
                } = outcome
                {
                    self.mru_correct[t as usize] += 1;
                }
            }
            if self.cache.access(addr).hit {
                self.hits += 1;
            }
        }
    }

    #[test]
    fn category_index_is_its_position_in_all() {
        for (i, c) in TagCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn one_pass_kernel_matches_the_per_width_reference() {
        let mut rng = SplitMix64::new(0xf164);
        let mut seen = [0u64; 4];
        let mut mru_correct = 0;
        for ways in [1, 2, 4, 8, 16] {
            // Four sets of 32 B lines.
            let cfg = CacheConfig::new(4 * 32 * ways, 32, ways);
            let mut study = TagMatchStudy::new(cfg);
            let mut reference = Reference::new(cfg);
            // A small pool of tags that differ from one base in a few
            // sparse bits, so partial matches at every width, full
            // matches and multi-way ambiguity are all common.
            let base = rng.next_u32();
            let pool: Vec<u32> = (0..3 * ways + 4)
                .map(|_| {
                    let tag = base ^ (rng.next_u32() & rng.next_u32() & rng.next_u32());
                    (tag << cfg.tag_start_bit()) | (rng.below(4) << cfg.offset_bits())
                })
                .collect();
            for _ in 0..3000 {
                let addr = *rng.pick(&pool) | rng.below(32);
                study.access(addr);
                reference.access(addr);
                assert_eq!(study.counts, reference.counts, "{ways}-way, {addr:#x}");
                assert_eq!(study.mru_correct, reference.mru_correct, "{ways}-way");
                assert_eq!(study.hits, reference.hits, "{ways}-way");
            }
            for row in &study.counts {
                for (s, c) in seen.iter_mut().zip(row) {
                    *s += c;
                }
            }
            mru_correct += study.mru_correct.iter().sum::<u64>();
        }
        assert!(seen.iter().all(|&n| n > 0), "categories seen: {seen:?}");
        assert!(mru_correct > 0);
    }

    fn feed(study: &mut TagMatchStudy, src: &str) {
        let p = popk_isa::asm::assemble(src).unwrap();
        let mut m = Machine::new(&p);
        for rec in m.trace(100_000) {
            study.observe(&rec.unwrap());
        }
    }

    #[test]
    fn repeated_access_converges_to_single_hit() {
        let mut s = TagMatchStudy::new(CacheConfig::l1d_table2());
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                lw r9, 0(r8)    # cold miss (zero match at full width)
                lw r9, 0(r8)    # hit
                lw r9, 0(r8)    # hit
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        assert_eq!(r.accesses, 3);
        assert_eq!(r.hits, 2);
        let full = r.config.tag_bits();
        let row = r.counts[full as usize];
        assert_eq!(row[TagCategory::ZeroMatch.index()], 1);
        assert_eq!(row[TagCategory::SingleHit.index()], 2);
        // With zero tag bits known, the resident line still matches: the
        // two warm accesses are unique matches even with t = 0 (only one
        // way valid in the set).
        let row0 = r.counts[0];
        assert_eq!(row0[TagCategory::SingleHit.index()], 2);
    }

    #[test]
    fn full_width_matches_conventional_hit_rate() {
        let mut s = TagMatchStudy::new(CacheConfig::small_8k(4));
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                li r10, 64          # 64 lines x 32B = beyond one set
            loop:
                lw r9, 0(r8)
                addiu r8, r8, 32
                addiu r10, r10, -1
                bne r10, r0, loop
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        let full = r.config.tag_bits() as usize;
        let hits_at_full = r.counts[full][TagCategory::SingleHit.index()];
        assert_eq!(hits_at_full, r.hits);
        let misses_at_full = r.counts[full][TagCategory::ZeroMatch.index()]
            + r.counts[full][TagCategory::SingleMiss.index()];
        assert_eq!(misses_at_full, r.accesses - r.hits);
        assert_eq!(
            r.counts[full][TagCategory::MultMatch.index()],
            0,
            "full tags cannot leave ambiguity"
        );
    }

    #[test]
    fn bit_positions_follow_geometry() {
        let s = TagMatchStudy::new(CacheConfig::small_8k(8));
        let r = s.report();
        // 8KB 8-way 32B: offset 5, 32 sets → index 5, tag starts at bit 10.
        assert_eq!(r.bit_position(1), 10);
        assert_eq!(r.bit_position(6), 15);
    }
}
