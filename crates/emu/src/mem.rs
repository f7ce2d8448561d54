//! Sparse paged memory.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Page-number sentinel for an empty translation cache: no valid page
/// number reaches it (32-bit addresses leave only 20 page bits).
const NO_PAGE: u32 = u32::MAX;

/// Multiplicative hasher for page numbers. Page-number keys are single
/// `u32`s with well-distributed low bits, so one Fibonacci multiply
/// replaces SipHash on the emulator's per-access path.
#[derive(Default)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A sparse, little-endian, byte-addressable 32-bit memory.
///
/// Pages are allocated on first touch (reads of untouched memory return
/// zero without allocating), so a 2 GiB address space costs only what the
/// program actually uses. All multi-byte accesses require natural
/// alignment, matching the ISA's load/store semantics.
///
/// Page frames live in a flat vector; the page-number → frame index map
/// is consulted only on a translation-cache miss (accesses cluster on
/// one page, so the common case is a single compare).
#[derive(Clone)]
pub struct Memory {
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    index: HashMap<u32, u32, BuildHasherDefault<PageHasher>>,
    /// Last translation: (page number, frame index).
    last: Cell<(u32, u32)>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            frames: Vec::new(),
            index: HashMap::default(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched-by-write) pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Frame index of page `pn`, if resident (refreshes the cache).
    #[inline]
    fn frame_of(&self, pn: u32) -> Option<u32> {
        let (cached_pn, cached_fi) = self.last.get();
        if cached_pn == pn {
            return Some(cached_fi);
        }
        let fi = *self.index.get(&pn)?;
        self.last.set((pn, fi));
        Some(fi)
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let fi = self.frame_of(addr >> PAGE_SHIFT)?;
        Some(&self.frames[fi as usize])
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let pn = addr >> PAGE_SHIFT;
        let fi = match self.frame_of(pn) {
            Some(fi) => fi,
            None => {
                let fi = self.frames.len() as u32;
                self.frames.push(Box::new([0; PAGE_SIZE]));
                self.index.insert(pn, fi);
                self.last.set((pn, fi));
                fi
            }
        };
        &mut self.frames[fi as usize]
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Read a little-endian halfword. The address must be 2-aligned (the
    /// machine validates before calling; this is a debug assertion here).
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        debug_assert_eq!(addr % 2, 0);
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)])
    }

    /// Write a little-endian halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        debug_assert_eq!(addr % 2, 0);
        let [a, b] = value.to_le_bytes();
        self.write_u8(addr, a);
        self.write_u8(addr + 1, b);
    }

    /// Read a little-endian word. A word never straddles a page (pages are
    /// 4 KiB and the address is 4-aligned), so this is a single page probe.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        debug_assert_eq!(addr % 4, 0);
        match self.page(addr) {
            Some(p) => {
                let off = (addr & PAGE_MASK) as usize;
                u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
            }
            None => 0,
        }
    }

    /// Write a little-endian word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        debug_assert_eq!(addr % 4, 0);
        let off = (addr & PAGE_MASK) as usize;
        self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Bulk-load `bytes` at `addr` (used for program images).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u32, b);
        }
    }

    /// Copy `len` bytes starting at `addr` into a fresh vector.
    pub fn dump(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_roundtrip() {
        let mut m = Memory::new();
        assert_eq!(m.read_u32(0x1000_0000), 0);
        assert_eq!(m.resident_pages(), 0); // reads don't allocate
        m.write_u32(0x1000_0000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000_0000), 0xdead_beef);
        assert_eq!(m.read_u8(0x1000_0000), 0xef); // little-endian
        assert_eq!(m.read_u8(0x1000_0003), 0xde);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn page_boundaries() {
        let mut m = Memory::new();
        m.write_u16(0x0fff_fffe, 0xabcd); // crosses into next page via bytes
        assert_eq!(m.read_u8(0x0fff_fffe), 0xcd);
        assert_eq!(m.read_u8(0x0fff_ffff), 0xab);
        assert_eq!(m.read_u16(0x0fff_fffe), 0xabcd);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn bulk_load_dump() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load(0x2000_0ff0, &data); // spans a page boundary
        assert_eq!(m.dump(0x2000_0ff0, 256), data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn distant_addresses_are_independent() {
        let mut m = Memory::new();
        m.write_u32(0x0040_0000, 1);
        m.write_u32(0x7fff_fff0, 2);
        assert_eq!(m.read_u32(0x0040_0000), 1);
        assert_eq!(m.read_u32(0x7fff_fff0), 2);
    }
}
