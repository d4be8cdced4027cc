//! Slab arena backing the cache payloads.
//!
//! The seed caches stored every payload as its own `Vec` and returned
//! clones on hit — one allocation per insert and one per hit. The arena
//! keeps all payloads of a cache in a single growable buffer and hands out
//! `(start, len)` ranges instead. Hits borrow straight out of the buffer
//! (zero copies, zero allocations); evicted ranges go onto a free list and
//! are reused by later inserts, so a cache in steady-state churn stops
//! allocating entirely.
//!
//! Free ranges are **eagerly coalesced** — freeing a range merges it with
//! its free neighbours — and allocation takes the *best fit* (a smallest
//! free range that is large enough), splitting off the remainder. This is
//! what bounds resident memory under mixed-size churn: freed payload space
//! is fungible across size classes, so the gap between [`SlabArena::len`]
//! and [`SlabArena::live_len`] stays a small fragmentation slack.
//! `CacheStats::{resident_bytes, live_bytes}` expose that slack per cache.
//!
//! # Free-list structure
//!
//! Every operation is O(1) for the ranges a row cache produces (a live
//! cache holds thousands of fragments, and one fill frees and allocates):
//!
//! * **Segregated fit.** A free range shorter than [`BIN_LIMIT`] sits in
//!   `bins[len]`, an unordered list of the starts of the free ranges of
//!   exactly that length. `nonempty` has bit `len` set iff `bins[len]` is
//!   non-empty, so best fit is "first set bit at or above the requested
//!   length" — at most `BIN_LIMIT / 64` words. Among equally long ranges
//!   the most recently freed one is taken.
//! * **Oversized ranges** (`len >= BIN_LIMIT`: a freshly cleared region,
//!   pooled vectors of a very wide table) stay in an ordered set by
//!   `(len, start)`, searched only when no bin fits.
//! * **Boundary maps.** `by_start` maps the start of every free range to
//!   its length and its position in its bin (so removal is a
//!   `swap_remove`); `by_end` maps its exclusive end back to its start.
//!   Freeing `[s, s + n)` finds the free predecessor as `by_end[s]` and the
//!   free successor as `by_start[s + n]` — two probes on the integer
//!   hasher instead of an ordered-map range query.
//!
//! # Invariants
//!
//! * Free ranges are disjoint and never adjacent (adjacent ranges are
//!   merged on free), and none overlaps a live range.
//! * A range is in `by_start` iff it is in `by_end` iff it is in exactly
//!   one of `bins[len]` (at the recorded position) or `oversized`.
//! * `live` is the total length of ranges allocated and not yet freed.

use sdm_metrics::IntMap;
use std::collections::BTreeSet;

/// Free ranges shorter than this are binned by exact length; row caches
/// never produce longer payloads (the memory-optimized engine holds rows of
/// at most 255 bytes), so their whole free list lives in the bins.
const BIN_LIMIT: usize = 1024;

/// Where one free range is filed.
#[derive(Debug, Clone, Copy)]
struct FreeRange {
    len: usize,
    /// Index in `bins[len]`; unused for oversized ranges.
    pos: usize,
}

/// A growable slab of `T` handing out `(start, len)` ranges.
#[derive(Debug, Default, Clone)]
pub struct SlabArena<T> {
    buf: Vec<T>,
    /// `bins[len]`: starts of the free ranges of exactly `len` elements,
    /// grown on demand up to `BIN_LIMIT` lists.
    bins: Vec<Vec<usize>>,
    /// Bit `len` (word `len / 64`) is set iff `bins[len]` is non-empty.
    nonempty: Vec<u64>,
    /// Free ranges of `BIN_LIMIT` elements or more, as `(len, start)`.
    oversized: BTreeSet<(usize, usize)>,
    /// Start of every free range → its length and bin position.
    by_start: IntMap<usize, FreeRange>,
    /// Exclusive end of every free range → its start.
    by_end: IntMap<usize, usize>,
    /// Elements currently live (allocated and not yet freed).
    live: usize,
}

impl<T: Copy + Default> SlabArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SlabArena {
            buf: Vec::new(),
            bins: Vec::new(),
            nonempty: Vec::new(),
            oversized: BTreeSet::new(),
            by_start: IntMap::default(),
            by_end: IntMap::default(),
            live: 0,
        }
    }

    /// Unfiles the free range starting at `start`.
    fn take_free(&mut self, start: usize) -> usize {
        let Some(FreeRange { len, pos }) = self.by_start.remove(&start) else {
            return 0;
        };
        self.by_end.remove(&(start + len));
        if len < BIN_LIMIT {
            let bin = &mut self.bins[len];
            bin.swap_remove(pos);
            if let Some(&moved) = bin.get(pos) {
                if let Some(range) = self.by_start.get_mut(&moved) {
                    range.pos = pos;
                }
            } else if bin.is_empty() {
                self.nonempty[len / 64] &= !(1 << (len % 64));
            }
        } else {
            self.oversized.remove(&(len, start));
        }
        len
    }

    /// Files `[start, start + len)` as a free range. The caller has already
    /// merged it with any free neighbour.
    fn put_free(&mut self, start: usize, len: usize) {
        let pos = if len < BIN_LIMIT {
            if self.bins.len() <= len {
                self.bins.resize_with(len + 1, Vec::new);
                self.nonempty.resize(self.bins.len().div_ceil(64), 0);
            }
            self.nonempty[len / 64] |= 1 << (len % 64);
            self.bins[len].push(start);
            self.bins[len].len() - 1
        } else {
            self.oversized.insert((len, start));
            0
        };
        self.by_start.insert(start, FreeRange { len, pos });
        self.by_end.insert(start + len, start);
    }

    /// Start of a smallest free range of at least `len` elements.
    fn best_fit(&self, len: usize) -> Option<usize> {
        if len < self.bins.len() {
            let mut index = len / 64;
            let mut word = self.nonempty[index] & (!0u64 << (len % 64));
            loop {
                if word != 0 {
                    let fit = index * 64 + word.trailing_zeros() as usize;
                    return self.bins[fit].last().copied();
                }
                index += 1;
                if index == self.nonempty.len() {
                    break;
                }
                word = self.nonempty[index];
            }
        }
        self.oversized
            .range((len, 0)..)
            .next()
            .map(|&(_, start)| start)
    }

    /// Copies `data` into the arena, reusing the best-fitting free range
    /// when one exists (splitting off any remainder), and returns the start
    /// offset. Only grows the buffer when no free range is large enough.
    pub fn alloc(&mut self, data: &[T]) -> usize {
        if data.is_empty() {
            return self.buf.len();
        }
        self.live += data.len();
        if let Some(start) = self.best_fit(data.len()) {
            let free_len = self.take_free(start);
            if free_len > data.len() {
                // The remainder cannot touch another free range: the range
                // it was split from was maximal (free neighbours are merged
                // eagerly), so re-filing it needs no merge pass.
                self.put_free(start + data.len(), free_len - data.len());
            }
            self.buf[start..start + data.len()].copy_from_slice(data);
            return start;
        }
        let start = self.buf.len();
        self.buf.extend_from_slice(data);
        start
    }

    /// Returns a range to the free list for reuse, merging it with any free
    /// neighbour. The caller must not use the range afterwards (ranges are
    /// plain offsets, not guarded).
    pub fn free(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.live = self.live.saturating_sub(len);
        let mut start = start;
        let mut len = len;
        // Merge with the free predecessor that ends where this range starts.
        if let Some(&prev) = self.by_end.get(&start) {
            len += self.take_free(prev);
            start = prev;
        }
        // Merge with the free successor that starts where this range ends.
        if self.by_start.contains_key(&(start + len)) {
            len += self.take_free(start + len);
        }
        self.put_free(start, len);
    }

    /// Borrows a previously allocated range.
    #[inline]
    pub fn slice(&self, start: usize, len: usize) -> &[T] {
        &self.buf[start..start + len]
    }

    /// Overwrites a previously allocated range in place (same length).
    pub fn write(&mut self, start: usize, data: &[T]) {
        self.buf[start..start + data.len()].copy_from_slice(data);
    }

    /// Drops every allocation and free range. Buffer and free-list capacity
    /// is kept so a refill after `clear` does not re-allocate.
    pub fn clear(&mut self) {
        self.buf.clear();
        for bin in &mut self.bins {
            bin.clear();
        }
        self.nonempty.fill(0);
        self.oversized.clear();
        self.by_start.clear();
        self.by_end.clear();
        self.live = 0;
    }

    /// Elements currently backing the arena (live + freed).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Elements currently live (allocated and not yet freed). The gap
    /// between [`SlabArena::len`] and this is free-list slack: with
    /// coalescing it is bounded by fragmentation rather than by per-size
    /// peak usage, and `CacheStats` tracks it per cache.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// True when nothing has been allocated since the last clear.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_slice_roundtrip() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[1u8, 2, 3]);
        let y = a.alloc(&[4u8, 5]);
        assert_eq!(a.slice(x, 3), &[1, 2, 3]);
        assert_eq!(a.slice(y, 2), &[4, 5]);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn freed_ranges_are_reused_for_same_size() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[1u8, 2, 3, 4]);
        a.free(x, 4);
        let y = a.alloc(&[9u8, 9, 9, 9]);
        assert_eq!(y, x, "same-size alloc should reuse the freed range");
        assert_eq!(a.len(), 4, "no growth after reuse");
        assert_eq!(a.slice(y, 4), &[9, 9, 9, 9]);
    }

    #[test]
    fn smaller_alloc_splits_a_larger_free_range() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[0u8; 10]);
        a.free(x, 10);
        // A 6-element alloc takes the head of the freed 10-range...
        let y = a.alloc(&[7u8; 6]);
        assert_eq!(y, x);
        assert_eq!(a.len(), 10, "split must not grow the buffer");
        // ...and the 4-element remainder serves the next alloc.
        let z = a.alloc(&[8u8; 4]);
        assert_eq!(z, x + 6);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn adjacent_frees_coalesce_and_serve_larger_allocs() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[1u8; 6]);
        let y = a.alloc(&[2u8; 6]);
        a.free(x, 6);
        a.free(y, 6);
        // Two adjacent 6-ranges merged into 12: a 10-element alloc fits
        // without growing the buffer (impossible under exact-size lists).
        let z = a.alloc(&[9u8; 10]);
        assert_eq!(z, x);
        assert_eq!(a.len(), 12, "coalesced range was not reused");
    }

    #[test]
    fn too_small_free_ranges_do_not_serve_larger_allocs() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[1u8, 2]);
        let _hold = a.alloc(&[3u8; 4]); // keeps the freed range from merging with the tail
        a.free(x, 2);
        let y = a.alloc(&[1u8, 2, 3]);
        assert_ne!(y, x, "a 2-range cannot serve a 3-alloc");
        assert_eq!(a.len(), 9);
    }

    #[test]
    fn live_len_tracks_allocations_and_frees() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[1u8, 2, 3]);
        let y = a.alloc(&[4u8, 5]);
        assert_eq!(a.live_len(), 5);
        a.free(x, 3);
        assert_eq!(a.live_len(), 2);
        assert_eq!(a.len(), 5, "freed ranges stay resident");
        // A larger alloc cannot reuse the freed 3-range: resident grows
        // past live (the fragmentation gap the stats expose).
        let z = a.alloc(&[9u8; 4]);
        assert_eq!(a.live_len(), 6);
        assert_eq!(a.len(), 9);
        assert!(a.len() > a.live_len());
        a.free(y, 2);
        a.free(z, 4);
        assert_eq!(a.live_len(), 0);
        a.clear();
        assert_eq!(a.live_len(), 0);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn mixed_size_churn_residency_is_bounded() {
        // Alternate two size classes through a bounded live set, the
        // pattern that used to retain `distinct sizes × peak` bytes under
        // exact-size free lists. With coalescing, the buffer stops growing
        // once it covers one phase's working set plus fragmentation slack.
        let mut a = SlabArena::new();
        let mut live: Vec<(usize, usize)> = Vec::new();
        for round in 0..64 {
            let size = if round % 2 == 0 { 96 } else { 160 };
            for _ in 0..16 {
                while live.len() >= 16 {
                    let (start, len) = live.remove(0);
                    a.free(start, len);
                }
                live.push((a.alloc(&vec![round as u8; size]), size));
            }
        }
        let peak_live = 16 * 160;
        assert!(
            a.len() <= peak_live * 3 / 2,
            "resident {} exceeds 1.5x the peak live set {}",
            a.len(),
            peak_live
        );
    }

    /// xorshift64*: a seeded stream for the model check.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
        }
    }

    impl SlabArena<u8> {
        /// Every free range as `(start, len)`, ascending, after checking
        /// that the bins, the bitmap, the oversized set and the two
        /// boundary maps all describe the same set of ranges.
        fn checked_free_ranges(&self) -> Vec<(usize, usize)> {
            assert_eq!(self.by_start.len(), self.by_end.len());
            let mut filed = self.oversized.len();
            for (len, bin) in self.bins.iter().enumerate() {
                let bit = self.nonempty[len / 64] >> (len % 64) & 1 == 1;
                assert_eq!(bit, !bin.is_empty(), "bitmap bit of bin {len}");
                filed += bin.len();
            }
            assert_eq!(
                filed,
                self.by_start.len(),
                "a range is filed twice or not at all"
            );
            let mut ranges = Vec::new();
            for (&start, &FreeRange { len, pos }) in &self.by_start {
                assert_eq!(self.by_end.get(&(start + len)), Some(&start));
                if len < BIN_LIMIT {
                    assert_eq!(self.bins[len][pos], start, "bin position of {start}");
                } else {
                    assert!(self.oversized.contains(&(len, start)));
                }
                ranges.push((start, len));
            }
            ranges.sort_unstable();
            ranges
        }
    }

    /// The naive reference: a plain list of free ranges, searched and
    /// merged by scanning, plus the live ranges with their fill bytes.
    #[derive(Default)]
    struct Model {
        free: Vec<(usize, usize)>,
        live: Vec<(usize, usize, u8)>,
        buf_len: usize,
    }

    impl Model {
        fn alloc(&mut self, arena: &mut SlabArena<u8>, len: usize, fill: u8) {
            let start = arena.alloc(&vec![fill; len]);
            // Best fit: the arena may pick any free range of the smallest
            // sufficient length, and must grow only when none suffices.
            match self.free.iter().map(|r| r.1).filter(|l| *l >= len).min() {
                Some(best) => {
                    let at = self
                        .free
                        .iter()
                        .position(|r| *r == (start, best))
                        .unwrap_or_else(|| panic!("alloc({len}) at {start} is not a best fit"));
                    self.free.swap_remove(at);
                    if best > len {
                        self.free.push((start + len, best - len));
                    }
                }
                None => {
                    assert_eq!(start, self.buf_len, "grew although nothing fit?");
                    self.buf_len += len;
                }
            }
            self.live.push((start, len, fill));
        }

        fn free(&mut self, arena: &mut SlabArena<u8>, index: usize) {
            let (mut start, mut len, _) = self.live.swap_remove(index);
            arena.free(start, len);
            if let Some(at) = self.free.iter().position(|r| r.0 + r.1 == start) {
                let (prev, prev_len) = self.free.swap_remove(at);
                start = prev;
                len += prev_len;
            }
            if let Some(at) = self.free.iter().position(|r| r.0 == start + len) {
                len += self.free.swap_remove(at).1;
            }
            self.free.push((start, len));
        }

        fn check(&mut self, arena: &SlabArena<u8>) {
            assert_eq!(arena.len(), self.buf_len);
            assert_eq!(
                arena.live_len(),
                self.live.iter().map(|r| r.1).sum::<usize>()
            );
            self.free.sort_unstable();
            assert_eq!(arena.checked_free_ranges(), self.free);
            // Live and free ranges tile the buffer exactly: nothing
            // overlaps, nothing is lost, and no two free ranges touch.
            let mut all: Vec<(usize, usize, bool)> = self
                .free
                .iter()
                .map(|r| (r.0, r.1, true))
                .chain(self.live.iter().map(|r| (r.0, r.1, false)))
                .collect();
            all.sort_unstable();
            let mut cursor = 0;
            let mut previous_free = false;
            for (start, len, free) in all {
                assert_eq!(start, cursor, "gap or overlap at {start}");
                assert!(!(free && previous_free), "adjacent free ranges at {start}");
                cursor = start + len;
                previous_free = free;
            }
            assert_eq!(cursor, self.buf_len);
            for &(start, len, fill) in &self.live {
                assert!(
                    arena.slice(start, len).iter().all(|b| *b == fill),
                    "payload at {start} was overwritten"
                );
            }
        }
    }

    #[test]
    fn model_check_against_a_naive_best_fit_free_list() {
        // Row-like sizes (so bins are shared and split), a few odd ones,
        // and some at or past BIN_LIMIT for the oversized set.
        const SIZES: [usize; 10] = [16, 64, 96, 100, 128, 160, 255, 700, BIN_LIMIT, 1500];
        for seed in 1..=6u64 {
            let mut stream = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut arena = SlabArena::new();
            let mut model = Model::default();
            for step in 0..3000usize {
                let roll = stream.below(100);
                if roll == 0 {
                    arena.clear();
                    model = Model::default();
                } else if model.live.is_empty() || (roll < 52 && model.live.len() < 48) {
                    let len = if stream.below(8) == 0 {
                        1 + stream.below(2 * BIN_LIMIT)
                    } else {
                        SIZES[stream.below(SIZES.len())]
                    };
                    model.alloc(&mut arena, len, step as u8);
                } else {
                    let index = stream.below(model.live.len());
                    model.free(&mut arena, index);
                }
                model.check(&arena);
            }
        }
    }

    #[test]
    fn mixed_size_churn_residency_is_bounded_for_every_phase_order() {
        // The bound `mixed_size_churn_residency_is_bounded` pins for one
        // alternation, over seeded random phase lengths and size pairs.
        for seed in 1..=8u64 {
            let mut stream = Stream(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let sizes = [64 + 32 * stream.below(3), 160 + 32 * stream.below(3)];
            let mut a = SlabArena::new();
            let mut live: Vec<(usize, usize)> = Vec::new();
            for round in 0..64 {
                let size = sizes[round % 2];
                for _ in 0..8 + stream.below(16) {
                    while live.len() >= 16 {
                        let (start, len) = live.remove(0);
                        a.free(start, len);
                    }
                    live.push((a.alloc(&vec![round as u8; size]), size));
                }
            }
            let peak_live = 16 * sizes[1];
            assert!(
                a.len() <= peak_live * 3 / 2,
                "seed {seed}: resident {} exceeds 1.5x the peak live set {peak_live}",
                a.len()
            );
        }
    }

    #[test]
    fn write_in_place_and_clear() {
        let mut a = SlabArena::new();
        let x = a.alloc(&[0.0f32; 4]);
        a.write(x, &[1.0f32, 2.0, 3.0, 4.0]);
        assert_eq!(a.slice(x, 4), &[1.0, 2.0, 3.0, 4.0]);
        a.clear();
        assert!(a.is_empty());
    }
}
