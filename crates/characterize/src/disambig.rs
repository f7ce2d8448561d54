//! Early load-store disambiguation (Fig. 2).
//!
//! For every dynamic load, compare its data address against the addresses
//! of the prior stores resident in a unified load/store queue, using only
//! address bits `[2, 2+k)` for each cumulative bit count `k`. Each (load,
//! bit-count) pair falls into one of the paper's seven categories; the
//! figure plots category shares against the highest bit index used.
//!
//! The paper's comparator chain examines bits 2, 3, 4, … in turn, and a
//! store drops out of the match at its *first differing bit*. So one
//! number per store — the lowest bit above bit 1 at which it differs
//! from the load — decides its match at every width, and each load is
//! classified at all 30 bit positions in one pass over the queue.

use crate::TraceSink;
use popk_emu::TraceRecord;
use std::collections::VecDeque;
use std::ops::Range;

/// The seven Fig. 2 categories.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DisambigCategory {
    /// The LSQ holds no prior stores at all.
    NoStores,
    /// Stores exist but none matches the partial address.
    ZeroMatch,
    /// Exactly one store matches partially, and its full address differs.
    SingleNonMatch,
    /// Exactly one store matches partially and fully, and it is the only
    /// store in the queue.
    SingleMatchOneStore,
    /// Exactly one store matches partially and fully, disambiguated from
    /// other (non-matching) stores.
    SingleMatchMultStores,
    /// Multiple stores match partially, but all share one full address
    /// (forward from the youngest).
    MultMatchSameAddr,
    /// Multiple stores match partially with differing full addresses.
    MultMatchDiffAddr,
}

impl DisambigCategory {
    /// All categories, in the paper's legend order.
    pub const ALL: [DisambigCategory; 7] = [
        DisambigCategory::NoStores,
        DisambigCategory::ZeroMatch,
        DisambigCategory::SingleNonMatch,
        DisambigCategory::SingleMatchOneStore,
        DisambigCategory::SingleMatchMultStores,
        DisambigCategory::MultMatchSameAddr,
        DisambigCategory::MultMatchDiffAddr,
    ];

    /// Index into per-category count arrays (the position in
    /// [`DisambigCategory::ALL`], which lists the variants in
    /// declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Legend label matching the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            DisambigCategory::NoStores => "no stores in queue",
            DisambigCategory::ZeroMatch => "zero entries match",
            DisambigCategory::SingleNonMatch => "single entry - non-match",
            DisambigCategory::SingleMatchOneStore => "single entry - match (one store)",
            DisambigCategory::SingleMatchMultStores => "single entry - match (mult stores)",
            DisambigCategory::MultMatchSameAddr => "mult entries match - same addr",
            DisambigCategory::MultMatchDiffAddr => "mult entries match - diff addr",
        }
    }
}

/// Comparison starts at address bit 2 (word-aligned low bits carry no
/// disambiguation information for word traffic).
pub const FIRST_BIT: u32 = 2;
/// Highest address bit (inclusive); using bits `[2, 31]` is the full
/// conventional comparison.
pub const LAST_BIT: u32 = 31;

const NBITS: usize = (LAST_BIT - FIRST_BIT + 1) as usize;
const NCAT: usize = 7;

/// Aggregated Fig. 2 data.
#[derive(Clone, Debug)]
pub struct DisambigReport {
    /// `counts[b][c]`: loads classified into category `c` when bits
    /// `[2, 2+b]` of the address are compared.
    pub counts: Vec<[u64; NCAT]>,
    /// Total loads observed.
    pub loads: u64,
}

impl DisambigReport {
    /// Percentage table row for cumulative bit index `bit` (2..=31).
    pub fn percent_at_bit(&self, bit: u32) -> [f64; NCAT] {
        let row = &self.counts[(bit - FIRST_BIT) as usize];
        let mut out = [0.0; NCAT];
        for (o, &c) in out.iter_mut().zip(row.iter()) {
            *o = 100.0 * c as f64 / self.loads.max(1) as f64;
        }
        out
    }

    /// The paper's §5.1 headline: share of loads fully resolved (all
    /// stores ruled out, or a unique — ultimately correct — forwarding
    /// candidate identified) after examining bits `[2, 2+k)`, i.e. `k`
    /// compared bits.
    pub fn resolved_after_bits(&self, bits: u32) -> f64 {
        let bit = (FIRST_BIT + bits - 1).min(LAST_BIT);
        let row = self.percent_at_bit(bit);
        // Resolved = no stores + zero match + unique full match (either
        // flavour) + multi-match-same-address.
        row[DisambigCategory::NoStores.index()]
            + row[DisambigCategory::ZeroMatch.index()]
            + row[DisambigCategory::SingleMatchOneStore.index()]
            + row[DisambigCategory::SingleMatchMultStores.index()]
            + row[DisambigCategory::MultMatchSameAddr.index()]
    }
}

#[derive(Clone, Copy)]
enum QueueEntry {
    Load,
    Store { addr: u32 },
}

/// Stores grouped for the one-pass classification: how many, the word
/// address (bits 2–31) of one of them, and whether all share it.
#[derive(Clone, Copy)]
struct StoreGroup {
    count: u32,
    addr: u32,
    same_addr: bool,
}

impl StoreGroup {
    const EMPTY: StoreGroup = StoreGroup {
        count: 0,
        addr: 0,
        same_addr: true,
    };

    fn add(&mut self, addr: u32) {
        if self.count == 0 {
            self.addr = addr;
        }
        self.same_addr &= addr == self.addr;
        self.count += 1;
    }

    fn merge(&mut self, other: StoreGroup) {
        if self.count == 0 {
            *self = other;
        } else if other.count > 0 {
            self.same_addr &= other.same_addr && other.addr == self.addr;
            self.count += other.count;
        }
    }
}

/// The Fig. 2 study: a sliding unified LSQ window over the dynamic trace.
pub struct DisambigStudy {
    lsq_size: usize,
    queue: VecDeque<QueueEntry>,
    counts: Vec<[u64; NCAT]>,
    loads: u64,
}

impl DisambigStudy {
    /// With the paper's 32-entry unified queue, use `DisambigStudy::new(32)`.
    pub fn new(lsq_size: usize) -> DisambigStudy {
        assert!(lsq_size > 0);
        DisambigStudy {
            lsq_size,
            queue: VecDeque::with_capacity(lsq_size),
            counts: vec![[0; NCAT]; NBITS],
            loads: 0,
        }
    }

    /// Finish and report.
    pub fn report(&self) -> DisambigReport {
        DisambigReport {
            counts: self.counts.clone(),
            loads: self.loads,
        }
    }

    /// Classify a load at `load_addr` against the queued stores at every
    /// bit position, count it, and queue it.
    fn load(&mut self, load_addr: u32) {
        self.loads += 1;
        // by_diff[d]: the stores whose first differing bit from the load
        // is d (32 = they agree on bits 2–31). Bit d of `present` marks
        // the non-empty groups.
        let mut by_diff = [StoreGroup::EMPTY; 33];
        let mut present = 0u64;
        let mut stores = 0u32;
        for e in &self.queue {
            if let QueueEntry::Store { addr } = *e {
                stores += 1;
                let addr = addr & !0b11;
                let d = ((addr ^ load_addr) & !0b11).trailing_zeros();
                by_diff[d as usize].add(addr);
                present |= 1 << d;
            }
        }
        let full_match = by_diff[32].count > 0;
        let category = |matching: &StoreGroup| match matching.count {
            _ if stores == 0 => DisambigCategory::NoStores,
            0 => DisambigCategory::ZeroMatch,
            // The lone matcher is the full match, if there is one.
            1 if !full_match => DisambigCategory::SingleNonMatch,
            1 if stores == 1 => DisambigCategory::SingleMatchOneStore,
            1 => DisambigCategory::SingleMatchMultStores,
            _ if matching.same_addr => DisambigCategory::MultMatchSameAddr,
            _ => DisambigCategory::MultMatchDiffAddr,
        };
        // A store matches on bits [2, b] exactly when it first differs
        // above b, so group d joins the matching set from bit d - 1 down.
        // Walk the groups from the highest; rows `hi..=31` are counted.
        let mut matching = StoreGroup::EMPTY;
        let mut hi = LAST_BIT + 1;
        while present != 0 {
            let d = 63 - present.leading_zeros();
            present &= !(1 << d);
            let lo = d.max(FIRST_BIT);
            if lo < hi {
                self.count_bits(lo..hi, category(&matching));
                hi = lo;
            }
            matching.merge(by_diff[d as usize]);
        }
        self.count_bits(FIRST_BIT..hi, category(&matching));
        self.push(QueueEntry::Load);
    }

    /// Count one load in category `cat` at each bit position in `bits`.
    fn count_bits(&mut self, bits: Range<u32>, cat: DisambigCategory) {
        let rows = (bits.start - FIRST_BIT) as usize..(bits.end - FIRST_BIT) as usize;
        for row in &mut self.counts[rows] {
            row[cat.index()] += 1;
        }
    }

    fn push(&mut self, entry: QueueEntry) {
        if self.queue.len() == self.lsq_size {
            self.queue.pop_front();
        }
        self.queue.push_back(entry);
    }
}

impl TraceSink for DisambigStudy {
    fn observe(&mut self, rec: &TraceRecord) {
        let op = rec.insn.op();
        if op.is_load() {
            self.load(rec.ea);
        } else if op.is_store() {
            self.push(QueueEntry::Store { addr: rec.ea });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popk_emu::Machine;
    use popk_isa::rng::SplitMix64;

    /// Reference for the one-pass kernel: one bit position at a time,
    /// rescan the queue with bits `[2, bits_through]` masked.
    fn reference_classify(
        queue: &VecDeque<QueueEntry>,
        load_addr: u32,
        bits_through: u32,
    ) -> DisambigCategory {
        // Compare bits [2, bits_through] inclusive.
        let width = bits_through + 1; // bits [0, bits_through]
        let mask = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        } & !0b11;
        let mut store_count = 0usize;
        let mut partial = Vec::new();
        for e in queue {
            if let QueueEntry::Store { addr } = *e {
                store_count += 1;
                if (addr ^ load_addr) & mask == 0 {
                    partial.push(addr);
                }
            }
        }
        if store_count == 0 {
            return DisambigCategory::NoStores;
        }
        match partial.len() {
            0 => DisambigCategory::ZeroMatch,
            1 => {
                if (partial[0] ^ load_addr) & !0b11 == 0 {
                    if store_count == 1 {
                        DisambigCategory::SingleMatchOneStore
                    } else {
                        DisambigCategory::SingleMatchMultStores
                    }
                } else {
                    DisambigCategory::SingleNonMatch
                }
            }
            _ => {
                let first = partial[0] & !0b11;
                if partial.iter().all(|&a| a & !0b11 == first) {
                    DisambigCategory::MultMatchSameAddr
                } else {
                    DisambigCategory::MultMatchDiffAddr
                }
            }
        }
    }

    #[test]
    fn category_index_is_its_position_in_all() {
        for (i, c) in DisambigCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn one_pass_kernel_matches_the_per_bit_reference() {
        let mut rng = SplitMix64::new(0xf162);
        let mut seen = [0u64; NCAT];
        for lsq in [1, 2, 8, 32, 64] {
            let mut study = DisambigStudy::new(lsq);
            let mut expect = vec![[0u64; NCAT]; NBITS];
            // A small pool of word addresses that differ from one base in
            // a few sparse bits: partial matches at every bit position,
            // repeated stores to one address, and full matches are all
            // common. Byte offsets vary below bit 2.
            let base = rng.next_u32();
            let pool: Vec<u32> = (0..lsq / 2 + 3)
                .map(|_| base ^ (rng.next_u32() & rng.next_u32() & rng.next_u32()))
                .collect();
            for _ in 0..4000 {
                let addr = (*rng.pick(&pool) & !0b11) | rng.below(4);
                if rng.flip() {
                    for bit in FIRST_BIT..=LAST_BIT {
                        let cat = reference_classify(&study.queue, addr, bit);
                        expect[(bit - FIRST_BIT) as usize][cat.index()] += 1;
                    }
                    study.load(addr);
                    assert_eq!(study.counts, expect, "lsq {lsq}, load {addr:#x}");
                } else {
                    study.push(QueueEntry::Store { addr });
                }
            }
            for row in &expect {
                for (s, c) in seen.iter_mut().zip(row) {
                    *s += c;
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "categories seen: {seen:?}");
    }

    #[test]
    fn more_than_64_matching_stores_are_all_compared() {
        let a = 0x1000_0000;
        let b = a | 1 << 16; // agrees with `a` on bits 2–15
        let mut s = DisambigStudy::new(128);
        for _ in 0..64 {
            s.push(QueueEntry::Store { addr: a });
        }
        s.push(QueueEntry::Store { addr: b });
        s.load(a);
        let row = |bit: u32| s.counts[(bit - FIRST_BIT) as usize];
        // Through bit 15 all 65 stores match, and the 65th differs.
        assert_eq!(row(15)[DisambigCategory::MultMatchDiffAddr.index()], 1);
        assert_eq!(row(2)[DisambigCategory::MultMatchDiffAddr.index()], 1);
        // Bit 16 rules out `b`; the 64 stores to `a` remain.
        assert_eq!(row(16)[DisambigCategory::MultMatchSameAddr.index()], 1);
        assert_eq!(row(31)[DisambigCategory::MultMatchSameAddr.index()], 1);
    }

    fn feed(study: &mut DisambigStudy, src: &str) {
        let p = popk_isa::asm::assemble(src).unwrap();
        let mut m = Machine::new(&p);
        for rec in m.trace(100_000) {
            study.observe(&rec.unwrap());
        }
    }

    #[test]
    fn no_stores_case() {
        let mut s = DisambigStudy::new(32);
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                lw r9, 0(r8)
                lw r9, 4(r8)
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        assert_eq!(r.loads, 2);
        // Every bit position: both loads see an empty store queue.
        assert_eq!(r.counts[0][DisambigCategory::NoStores.index()], 2);
        assert_eq!(r.counts[NBITS - 1][DisambigCategory::NoStores.index()], 2);
    }

    #[test]
    fn exact_forward_case() {
        let mut s = DisambigStudy::new(32);
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                sw r8, 0(r8)
                lw r9, 0(r8)     # same address: unique match, one store
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        assert_eq!(r.loads, 1);
        for b in 0..NBITS {
            assert_eq!(
                r.counts[b][DisambigCategory::SingleMatchOneStore.index()],
                1,
                "bit {b}"
            );
        }
        assert_eq!(r.resolved_after_bits(9), 100.0);
    }

    #[test]
    fn low_bits_distinguish_disjoint_addresses() {
        let mut s = DisambigStudy::new(32);
        // Store at +4, load at +8: differ at bit 2/3 → zero match from the
        // very first compared bit span that includes bit 2.
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                sw r8, 4(r8)
                lw r9, 8(r8)
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        assert_eq!(r.counts[1][DisambigCategory::ZeroMatch.index()], 1); // bits 2..=3
        assert_eq!(r.resolved_after_bits(2), 100.0);
    }

    #[test]
    fn high_bit_alias_stays_ambiguous_until_late() {
        let mut s = DisambigStudy::new(32);
        // Store at 0x10000000, load at 0x10010000: identical low 16 bits.
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                li r10, 0x10010000
                sw r8, 0(r8)
                lw r9, 0(r10)
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        // At bit 15 (14 bits compared) still a single partial match that
        // will NOT match fully.
        assert_eq!(r.counts[13][DisambigCategory::SingleNonMatch.index()], 1);
        // Once bit 16 is included the store is ruled out.
        assert_eq!(r.counts[14][DisambigCategory::ZeroMatch.index()], 1);
    }

    #[test]
    fn queue_is_bounded() {
        let mut s = DisambigStudy::new(2);
        feed(
            &mut s,
            r#"
            .text
            main:
                li r8, 0x10000000
                sw r8, 0(r8)
                sw r8, 4(r8)
                sw r8, 8(r8)     # evicts the first store from the window
                lw r9, 0(r8)     # oldest store no longer visible
                li r2, 0
                syscall
            "#,
        );
        let r = s.report();
        // The matching store (offset 0) fell out of the 2-entry window, so
        // full comparison finds zero matches.
        assert_eq!(r.counts[NBITS - 1][DisambigCategory::ZeroMatch.index()], 1);
    }
}
