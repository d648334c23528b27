//! Sparse paged big-endian memory.

use dtsvliw_isa::encode::decode;
use dtsvliw_isa::Instr;
use dtsvliw_json::{FromJson, Json};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
const PAGE_WORDS: usize = PAGE_SIZE / 4;

/// The page table splits a 20-bit page number into a 12-bit directory
/// index and an 8-bit leaf index: one leaf maps 1 MB of address space.
const LEAF_BITS: u32 = 8;
const LEAF_SLOTS: usize = 1 << LEAF_BITS;
const DIR_SHIFT: u32 = PAGE_SHIFT + LEAF_BITS;

/// One leaf of the page table: for each page it covers, `1 +` the
/// page's index into `Memory::pages`, or 0 when the page is absent.
type Leaf = [u32; LEAF_SLOTS];

/// One resident page: its bytes plus, once code has been fetched from
/// it, the decoded form of each word (`None` until that word is fetched,
/// and again after any write to it). The decoded form is derived state:
/// never serialised and never compared.
#[derive(Debug, Clone)]
struct Page {
    bytes: [u8; PAGE_SIZE],
    decoded: Vec<Option<Instr>>,
}

/// A sparse 32-bit byte-addressable memory. Unwritten bytes read as 0.
/// Multi-byte accesses are big-endian, as on SPARC.
///
/// Pages are found through a two-level page table. The directory grows
/// only as far as the highest megabyte written, and each leaf is
/// allocated the first time a page under it is written. A lookup is
/// two indexed loads; nothing is hashed.
///
/// Instruction fetch goes through [`Memory::fetch`], which decodes each
/// static instruction word once and keeps it beside the page's bytes
/// until a write to that word drops it.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page-table directory, indexed by the top bits of the page number.
    dir: Vec<Option<Box<Leaf>>>,
    /// Resident pages in creation order. Pages are never removed, so an
    /// index stays valid for the memory's lifetime (and in its clones).
    pages: Vec<Page>,
    /// Page number of each entry of `pages`, for walks in page order.
    nums: Vec<u32>,
    /// The page the last fetch hit, as `(page number, index)`; the page
    /// number is `u32::MAX` (never a real page) until the first fetch.
    fetch_page: (u32, u32),
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            dir: Vec::new(),
            pages: Vec::new(),
            nums: Vec::new(),
            fetch_page: (u32::MAX, 0),
        }
    }
}

impl Memory {
    /// First byte address at which two memories differ, if any. An
    /// all-zero page is equivalent to an absent one.
    pub fn first_difference(&self, other: &Memory) -> Option<u32> {
        let mut pages: Vec<u32> = self.nums.iter().chain(&other.nums).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        for p in pages {
            let a = self.page(p << PAGE_SHIFT).unwrap_or(&ZERO);
            let b = other.page(p << PAGE_SHIFT).unwrap_or(&ZERO);
            if a != b {
                let off = a.iter().zip(b).position(|(x, y)| x != y).unwrap();
                return Some((p << PAGE_SHIFT) + off as u32);
            }
        }
        None
    }
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Index into `pages` of the page holding `addr`, if resident.
    #[inline]
    fn page_index(&self, addr: u32) -> Option<usize> {
        let leaf = self.dir.get((addr >> DIR_SHIFT) as usize)?.as_deref()?;
        let slot = leaf[(addr >> PAGE_SHIFT) as usize & (LEAF_SLOTS - 1)];
        (slot as usize).checked_sub(1)
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.page_index(addr).map(|i| &self.pages[i].bytes)
    }

    /// Create the zero-filled page holding `addr` (and its page-table
    /// leaf, if absent) and return its index.
    #[cold]
    fn insert_page(&mut self, addr: u32) -> usize {
        let d = (addr >> DIR_SHIFT) as usize;
        if self.dir.len() <= d {
            self.dir.resize_with(d + 1, || None);
        }
        let leaf = self.dir[d].get_or_insert_with(|| Box::new([0; LEAF_SLOTS]));
        self.pages.push(Page {
            bytes: [0; PAGE_SIZE],
            decoded: Vec::new(),
        });
        self.nums.push(addr >> PAGE_SHIFT);
        let i = self.pages.len() - 1;
        leaf[(addr >> PAGE_SHIFT) as usize & (LEAF_SLOTS - 1)] = i as u32 + 1;
        i
    }

    /// The single write path: the `len` bytes at `addr`, which must lie
    /// in one page, created zero-filled if absent. Drops the decoded form
    /// of every word those bytes overlap, so a store to code takes effect
    /// on the next fetch.
    #[inline]
    fn page_mut(&mut self, addr: u32, len: usize) -> &mut [u8] {
        let i = match self.page_index(addr) {
            Some(i) => i,
            None => self.insert_page(addr),
        };
        let page = &mut self.pages[i];
        let off = (addr & PAGE_MASK) as usize;
        if !page.decoded.is_empty() {
            page.decoded[off / 4..(off + len).div_ceil(4)].fill(None);
        }
        &mut page.bytes[off..off + len]
    }

    /// Copy `src` to `addr`, split at page boundaries (wrapping at the
    /// top of the address space).
    #[inline]
    fn write_bytes(&mut self, mut addr: u32, mut src: &[u8]) {
        while !src.is_empty() {
            let n = src.len().min(PAGE_SIZE - (addr & PAGE_MASK) as usize);
            self.page_mut(addr, n).copy_from_slice(&src[..n]);
            addr = addr.wrapping_add(n as u32);
            src = &src[n..];
        }
    }

    /// Fetch the instruction at `pc`, decoded. Each word is decoded once
    /// and reused until a write to it; the page of the previous fetch is
    /// remembered, so straight-line code skips the page lookup. A fetch
    /// from an unmapped address decodes the zero word and maps nothing.
    #[inline]
    pub fn fetch(&mut self, pc: u32) -> Instr {
        let instr = self.fetch_cached(pc);
        debug_assert_eq!(
            instr,
            decode(self.read_u32(pc)),
            "stale decoded word at {pc:#x}"
        );
        instr
    }

    #[inline]
    fn fetch_cached(&mut self, pc: u32) -> Instr {
        let num = pc >> PAGE_SHIFT;
        if num != self.fetch_page.0 {
            match self.page_index(pc) {
                Some(i) => self.fetch_page = (num, i as u32),
                None => return decode(0),
            }
        }
        if pc & 3 != 0 {
            // No legal control flow reaches an unaligned pc; read the
            // straddling word as before rather than cache it.
            return decode(self.read_u32(pc));
        }
        let page = &mut self.pages[self.fetch_page.1 as usize];
        let w = (pc & PAGE_MASK) as usize / 4;
        if let Some(Some(instr)) = page.decoded.get(w) {
            return *instr;
        }
        Self::decode_into(page, w)
    }

    #[cold]
    fn decode_into(page: &mut Page, w: usize) -> Instr {
        if page.decoded.is_empty() {
            page.decoded = vec![None; PAGE_WORDS];
        }
        let b = &page.bytes[4 * w..4 * w + 4];
        let instr = decode(u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
        page.decoded[w] = Some(instr);
        instr
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
        self.page_mut(addr, 1)[0] = value;
    }

    /// Read a big-endian halfword. `addr` must be 2-aligned (the caller
    /// enforces alignment traps).
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        if addr & PAGE_MASK < PAGE_MASK {
            let o = (addr & PAGE_MASK) as usize;
            return self
                .page(addr)
                .map_or(0, |p| u16::from_be_bytes([p[o], p[o + 1]]));
        }
        (self.read_u8(addr) as u16) << 8 | self.read_u8(addr.wrapping_add(1)) as u16
    }

    /// Write a big-endian halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, &value.to_be_bytes());
    }

    /// Read a big-endian word.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        if addr & PAGE_MASK <= PAGE_MASK - 3 {
            if let Some(p) = self.page(addr) {
                let o = (addr & PAGE_MASK) as usize;
                return u32::from_be_bytes([p[o], p[o + 1], p[o + 2], p[o + 3]]);
            }
            return 0;
        }
        (self.read_u16(addr) as u32) << 16 | self.read_u16(addr.wrapping_add(2)) as u32
    }

    /// Write a big-endian word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, &value.to_be_bytes());
    }

    /// Read `size` bytes (1, 2 or 4) zero-extended.
    #[inline]
    pub fn read(&self, addr: u32, size: u8) -> u32 {
        match size {
            1 => self.read_u8(addr) as u32,
            2 => self.read_u16(addr) as u32,
            _ => self.read_u32(addr),
        }
    }

    /// Write the low `size` bytes (1, 2 or 4) of `value`.
    #[inline]
    pub fn write(&mut self, addr: u32, size: u8, value: u32) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            _ => self.write_u32(addr, value),
        }
    }

    /// Copy a byte slice into memory at `base`, a page at a time.
    pub fn load(&mut self, base: u32, bytes: &[u8]) {
        self.write_bytes(base, bytes);
    }

    /// Number of resident pages (diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Serialise the memory image for a machine snapshot: a sorted array
    /// of `[page_number, hex_bytes]` pairs. All-zero pages are skipped —
    /// they are semantically absent (see [`Memory::first_difference`]) —
    /// so the encoding is canonical regardless of write history.
    pub fn snapshot_json(&self) -> Json {
        let mut nums = self.nums.clone();
        nums.sort_unstable();
        let pages = nums
            .into_iter()
            .filter_map(|n| {
                let p = self.page(n << PAGE_SHIFT)?;
                if p.iter().all(|&b| b == 0) {
                    return None;
                }
                let mut hex = String::with_capacity(2 * PAGE_SIZE);
                for &b in p.iter() {
                    hex.push(char::from_digit((b >> 4) as u32, 16).unwrap());
                    hex.push(char::from_digit((b & 15) as u32, 16).unwrap());
                }
                Some(Json::arr([Json::U64(n as u64), Json::Str(hex)]))
            })
            .collect();
        Json::Arr(pages)
    }

    /// Rebuild a memory from [`Memory::snapshot_json`] output; `None` on
    /// any structural mismatch.
    pub fn from_snapshot_json(j: &Json) -> Option<Memory> {
        let mut m = Memory::new();
        for entry in j.as_arr()? {
            let (n, hex) = <(u32, String)>::from_json(entry)?;
            if n > u32::MAX >> PAGE_SHIFT || hex.len() != 2 * PAGE_SIZE || !hex.is_ascii() {
                return None;
            }
            let mut page = [0u8; PAGE_SIZE];
            let bytes = hex.as_bytes();
            for (i, slot) in page.iter_mut().enumerate() {
                let hi = (bytes[2 * i] as char).to_digit(16)?;
                let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
                *slot = (hi << 4 | lo) as u8;
            }
            m.load(n << PAGE_SHIFT, &page);
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0x1234), 0);
        assert_eq!(m.read_u8(u32::MAX), 0);
    }

    #[test]
    fn big_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x1122_3344);
        assert_eq!(m.read_u8(0x100), 0x11);
        assert_eq!(m.read_u8(0x103), 0x44);
        assert_eq!(m.read_u16(0x100), 0x1122);
        assert_eq!(m.read_u16(0x102), 0x3344);
    }

    #[test]
    fn cross_page_word() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u32 - 2;
        m.write_u32(addr, 0xdead_beef);
        assert_eq!(m.read_u32(addr), 0xdead_beef);
        assert_eq!(m.read_u16(addr), 0xdead);
        assert_eq!(m.read_u16(addr + 2), 0xbeef);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sized_access_round_trip() {
        let mut m = Memory::new();
        m.write(0x40, 1, 0xabcd_12ef);
        assert_eq!(m.read(0x40, 1), 0xef);
        m.write(0x50, 2, 0x12_3456);
        assert_eq!(m.read(0x50, 2), 0x3456);
        m.write(0x60, 4, 0x789a_bcde);
        assert_eq!(m.read(0x60, 4), 0x789a_bcde);
    }

    #[test]
    fn load_slice() {
        let mut m = Memory::new();
        m.load(0x2000, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_u32(0x2000), 0x0102_0304);
        assert_eq!(m.read_u8(0x2004), 5);
    }

    #[test]
    fn snapshot_round_trip_skips_zero_pages() {
        let mut m = Memory::new();
        m.write_u32(0x1000, 0xdead_beef);
        m.write_u8(0xffff_fffe, 7);
        m.write_u8(0x5000, 1);
        m.write_u8(0x5000, 0); // page becomes all-zero again
        let j = m.snapshot_json();
        assert_eq!(j.as_arr().unwrap().len(), 2, "zero page dropped");
        let back = Memory::from_snapshot_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(m.first_difference(&back), None);
        assert_eq!(back.read_u32(0x1000), 0xdead_beef);
        assert_eq!(back.read_u8(0xffff_fffe), 7);
    }

    /// Page numbers a snapshot lists, in its order.
    fn snapshot_pages(m: &Memory) -> Vec<u64> {
        let j = m.snapshot_json();
        j.as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_arr().unwrap()[0].as_u64().unwrap())
            .collect()
    }

    #[test]
    fn first_and_last_pages_map_like_any_other() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0102_0304);
        m.write_u32(0xffff_fffc, 0xa1b2_c3d4);
        assert_eq!(m.read_u32(0), 0x0102_0304);
        assert_eq!(m.read_u16(2), 0x0304);
        assert_eq!(m.read_u32(0xffff_fffc), 0xa1b2_c3d4);
        assert_eq!(m.read_u16(0xffff_fffe), 0xc3d4);
        assert_eq!(m.read_u8(0xffff_ffff), 0xd4);
        assert_eq!(m.read_u32(0xffe0_0000), 0, "a sibling page stays absent");
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(snapshot_pages(&m), [0, 0xfffff]);
    }

    #[test]
    fn a_word_write_wraps_from_the_top_of_memory_to_page_zero() {
        let mut m = Memory::new();
        m.write_u32(0xffff_fffe, 0x1122_3344);
        assert_eq!(m.read_u32(0xffff_fffe), 0x1122_3344);
        assert_eq!(m.read_u16(0xffff_ffff), 0x2233, "halfword across the wrap");
        assert_eq!(m.read_u16(0xffff_fffe), 0x1122);
        assert_eq!(m.read_u16(0), 0x3344);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(snapshot_pages(&m), [0, 0xfffff]);
    }

    #[test]
    fn snapshots_list_pages_in_address_order_whatever_the_creation_order() {
        let mut m = Memory::new();
        for addr in [0x0050_0000, 0xfff0_0000, 0x1000, 0x0040_3000, 0x0050_1000] {
            m.write_u8(addr, 1);
        }
        assert_eq!(snapshot_pages(&m), [0x1, 0x403, 0x500, 0x501, 0xfff00]);
        let back = Memory::from_snapshot_json(&m.snapshot_json()).unwrap();
        assert_eq!(back.snapshot_json(), m.snapshot_json());
        assert_eq!(back.first_difference(&m), None);
    }

    #[test]
    fn first_difference_spans_disjoint_page_sets() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u8(0x0090_0010, 1);
        b.write_u8(0x0010_0020, 2);
        b.write_u8(0x00a0_0000, 3);
        assert_eq!(a.first_difference(&b), Some(0x0010_0020));
        assert_eq!(b.first_difference(&a), Some(0x0010_0020));
        // Only all-zero pages on either side: no difference.
        let mut c = Memory::new();
        let mut d = Memory::new();
        c.write_u32(0x1000, 0);
        d.write_u32(0xffff_f000, 0);
        assert_eq!(c.first_difference(&d), None);
        assert_eq!(c.first_difference(&Memory::new()), None);
        d.write_u8(0xffff_f003, 9);
        assert_eq!(c.first_difference(&d), Some(0xffff_f003));
    }

    // Decoded-fetch invalidation. `A` and `B` decode to different
    // instructions; every write below must make the next fetch see it.
    const A: u32 = 0x0100_0005; // sethi 5, %g0
    const B: u32 = 0x8210_2001; // or %g0, 1, %g1

    fn code_at(addr: u32) -> Memory {
        let mut m = Memory::new();
        m.write_u32(addr, A);
        assert_eq!(m.fetch(addr), decode(A));
        m
    }

    #[test]
    fn fetch_decodes_the_word() {
        assert_ne!(decode(A), decode(B));
        let mut m = code_at(0x1000);
        assert_eq!(m.fetch(0x1000), decode(A), "second fetch reuses the decode");
        assert_eq!(m.fetch(0x1004), decode(0));
    }

    #[test]
    fn byte_and_halfword_writes_invalidate() {
        let mut m = code_at(0x1000);
        m.write_u8(0x1003, 0x01);
        assert_eq!(m.fetch(0x1000), decode(0x0100_0001));
        m.write_u16(0x1000, 0x8210);
        assert_eq!(m.fetch(0x1000), decode(0x8210_0001));
    }

    #[test]
    fn aligned_word_write_invalidates() {
        let mut m = code_at(0x1000);
        m.write_u32(0x1000, B);
        assert_eq!(m.fetch(0x1000), decode(B));
    }

    #[test]
    fn unaligned_word_write_invalidates_both_words() {
        let mut m = code_at(0x1000);
        m.write_u32(0x1004, A);
        assert_eq!(m.fetch(0x1004), decode(A));
        m.write_u32(0x1002, 0x2001_8210);
        assert_eq!(m.fetch(0x1000), decode(0x0100_2001));
        assert_eq!(m.fetch(0x1004), decode(0x8210_0005));
    }

    #[test]
    fn cross_page_word_write_invalidates_both_pages() {
        let end = PAGE_SIZE as u32 - 4;
        let mut m = code_at(end);
        m.write_u32(end + 4, A);
        assert_eq!(m.fetch(end + 4), decode(A));
        m.write_u32(end + 2, 0x2001_8210);
        assert_eq!(m.fetch(end), decode(0x0100_2001));
        assert_eq!(m.fetch(end + 4), decode(0x8210_0005));
    }

    #[test]
    fn load_over_decoded_code_invalidates() {
        let mut m = code_at(0x1ffc);
        m.write_u32(0x2000, A);
        assert_eq!(m.fetch(0x2000), decode(A));
        let mut image = vec![0u8; 2 * PAGE_SIZE];
        image[0xffc..0x1000].copy_from_slice(&B.to_be_bytes());
        image[0x1000..0x1004].copy_from_slice(&B.to_be_bytes());
        m.load(0x1000, &image);
        assert_eq!(m.fetch(0x1ffc), decode(B));
        assert_eq!(m.fetch(0x2000), decode(B));
    }

    #[test]
    fn clones_decode_independently() {
        let original = code_at(0x1000);
        let mut copy = original.clone();
        copy.write_u32(0x1000, B);
        assert_eq!(copy.fetch(0x1000), decode(B));
        let mut original = original;
        assert_eq!(original.fetch(0x1000), decode(A));
    }

    #[test]
    fn decode_state_is_never_serialised_or_compared() {
        let mut plain = Memory::new();
        plain.write_u32(0x1000, A);
        let fetched = code_at(0x1000);
        assert_eq!(fetched.snapshot_json(), plain.snapshot_json());
        assert_eq!(fetched.first_difference(&plain), None);
        let mut back = Memory::from_snapshot_json(&fetched.snapshot_json()).unwrap();
        assert_eq!(back.fetch(0x1000), decode(A));
        back.write_u32(0x1000, B);
        assert_eq!(back.fetch(0x1000), decode(B));
    }

    #[test]
    fn unmapped_fetch_maps_nothing() {
        let mut m = code_at(0x1000);
        let before = m.snapshot_json();
        assert_eq!(m.fetch(0x9000), decode(0));
        assert_eq!(m.fetch(0x1000), decode(A));
        assert_eq!(m.fetch(0x9000), decode(0), "cached page does not leak");
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.snapshot_json(), before);
    }

    #[test]
    fn snapshot_rejects_malformed() {
        assert!(Memory::from_snapshot_json(&Json::U64(3)).is_none());
        let bad = Json::arr([Json::arr([Json::U64(1), Json::Str("zz".into())])]);
        assert!(Memory::from_snapshot_json(&bad).is_none());
    }
}
