//! The generic arena-LRU engine core.
//!
//! Four caches in this workspace want the identical organisation: a hash
//! index over slot records, payloads in a [`SlabArena`], exact LRU recency,
//! byte accounting against a budget, and [`CacheStats`]. They used to
//! hand-mirror the same eviction/accounting bodies
//! ([`crate::CpuOptimizedCache`], [`crate::PooledEmbeddingCache`] and
//! every [`crate::SharedRowTier`] stripe each carried a copy), which
//! meant every policy change cost parallel edits — and let a bug hide in
//! one copy while the others' tests stayed green. [`ArenaLru`] is that
//! engine, once; the engines above are thin typed wrappers that add only
//! their keying/semantic layer.
//!
//! # Type parameters
//!
//! * `K` — the entry key (a row key, a pooled-sequence key, …).
//! * `T` — a small per-entry tag carried alongside the payload: the shared
//!   tier stores the promoting shard, the pooled cache its sequence length,
//!   the row caches nothing (`()`).
//! * `E` — the payload element (`u8` rows, `f32` pooled vectors). Entry
//!   cost is `len × size_of::<E>() + entry_overhead`.
//!
//! # Contract (frozen by `tests/refactor_identity.rs`)
//!
//! The insert body preserves the exact observable behaviour the wrappers
//! had before the extraction: oversize rejection first; same-length
//! replacement in place (no allocator traffic); differently-sized
//! replacement as remove + reinsert; LRU eviction until the entry fits;
//! post-eviction rejection when it still cannot; counters updated at the
//! same points.
//!
//! # Recency is a stamp, not a list position
//!
//! Every slot record carries the value of a per-engine counter at its last
//! touch (`get`, insert, in-place replace; 0 marks a free slot), so a hit
//! writes one word in the record the lookup already reads — no list to
//! relink, which is what keeps a [`crate::SharedRowTier`] hit from passing
//! five cache lines between cores. Eviction still removes the entry with
//! the smallest stamp, found off the hit path: when a victim is needed and
//! the candidate queue is empty, one scan of the slots keeps the oldest
//! eighth (at least 32), sorted by stamp; each eviction pops candidates
//! until one's slot still carries the queued stamp. That entry is the true
//! LRU: (1) everything outside the queue had a larger stamp than everything
//! inside it at scan time; (2) stamps only grow, so an entry touched,
//! replaced or inserted since is newer than every queued stamp; (3) the
//! still-valid candidates kept their scan-time stamps and pop in ascending
//! order.

use crate::arena::SlabArena;
use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;
use std::collections::HashMap;
use std::hash::Hash;

/// One entry's record: its key (for reverse lookup at eviction), payload
/// range, per-entry tag and recency stamp.
#[derive(Debug, Clone, Copy)]
struct EngineSlot<K, T> {
    key: K,
    start: usize,
    len: usize,
    tag: T,
    /// Engine tick at the last touch; 0 while the slot is on the free list.
    stamp: u64,
}

/// Smallest share of the resident entries one victim scan queues.
const MIN_VICTIM_QUEUE: usize = 32;

/// The generic arena-backed exact-LRU cache engine.
///
/// See the [module docs](self) for the role of `K`, `T` and `E`.
#[derive(Debug)]
pub struct ArenaLru<K, T = (), E = u8> {
    // Default (SipHash) hasher on purpose: the row engines key this map by
    // `(table, row index)`, and row indices are query input — the case the
    // default hasher's collision resistance exists for.
    // sdm-analyze: allow(default-hasher-on-serving-path)
    map: HashMap<K, usize>,
    slots: Vec<EngineSlot<K, T>>,
    free_slots: Vec<usize>,
    /// Last stamp handed out (stamps start at 1).
    tick: u64,
    /// Eviction candidates `(stamp, slot)` from the last scan, oldest last;
    /// an entry is stale once its slot's stamp has moved on.
    victims: Vec<(u64, usize)>,
    arena: SlabArena<E>,
    budget: u64,
    used: u64,
    entry_overhead: usize,
    stats: CacheStats,
}

impl<K, T, E> ArenaLru<K, T, E>
where
    K: Eq + Hash + Copy,
    T: Copy,
    E: Copy + Default,
{
    /// Creates an engine with the given byte budget and per-entry metadata
    /// overhead (hash node, slot record with its recency stamp, victim-queue
    /// share — each wrapper's published `ENTRY_OVERHEAD`).
    pub fn new(budget: Bytes, entry_overhead: usize) -> Self {
        ArenaLru {
            map: HashMap::new(), // sdm-analyze: allow(default-hasher-on-serving-path)
            slots: Vec::new(),
            free_slots: Vec::new(),
            tick: 0,
            victims: Vec::new(),
            arena: SlabArena::new(),
            budget: budget.as_u64(),
            used: 0,
            entry_overhead,
            stats: CacheStats::new(),
        }
    }

    fn entry_cost(&self, payload_len: usize) -> u64 {
        (payload_len * std::mem::size_of::<E>() + self.entry_overhead) as u64
    }

    /// Refreshes the residency gauges from the arena after any mutation
    /// that allocates or frees payload ranges.
    fn note_residency(&mut self) {
        let element = std::mem::size_of::<E>();
        self.stats.resident_bytes = (self.arena.len() * element) as u64;
        self.stats.live_bytes = (self.arena.live_len() * element) as u64;
    }

    fn remove_slot(&mut self, slot: usize) {
        let s = self.slots[slot];
        self.map.remove(&s.key);
        self.slots[slot].stamp = 0;
        self.arena.free(s.start, s.len);
        self.free_slots.push(slot);
        self.used -= self.entry_cost(s.len);
    }

    /// Marks `slot` as the most recently used entry.
    fn stamp(&mut self, slot: usize) {
        self.tick += 1;
        self.slots[slot].stamp = self.tick;
    }

    /// The least recently used slot (see the module docs for why the first
    /// still-valid candidate is exactly that).
    fn lru_slot(&mut self) -> Option<usize> {
        loop {
            while let Some((stamp, slot)) = self.victims.pop() {
                if self.slots[slot].stamp == stamp {
                    return Some(slot);
                }
            }
            if self.map.is_empty() {
                return None;
            }
            let live = self.slots.iter().enumerate().filter(|(_, s)| s.stamp != 0);
            self.victims.extend(live.map(|(slot, s)| (s.stamp, slot)));
            let keep = (self.victims.len() / 8).max(MIN_VICTIM_QUEUE);
            if keep < self.victims.len() {
                self.victims.select_nth_unstable(keep);
                self.victims.truncate(keep);
            }
            self.victims.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Index half of [`ArenaLru::get`]: refreshes the entry's recency and
    /// the hit/miss counters and returns its slot for [`ArenaLru::entry`].
    /// Batched callers touch several keys back to back before reading any
    /// payload, so the index probes' cache misses overlap.
    pub(crate) fn touch(&mut self, key: &K) -> Option<usize> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.stamp(slot);
                self.stats.record_hit();
                Some(slot)
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Payload (borrowed from the engine's arena) and tag of a slot returned
    /// by [`ArenaLru::touch`] since the engine was last mutated.
    ///
    /// # Panics
    ///
    /// Panics when `slot` was never handed out by this engine.
    pub(crate) fn entry(&self, slot: usize) -> (&[E], &T) {
        let s = &self.slots[slot];
        (self.arena.slice(s.start, s.len), &s.tag)
    }

    /// Looks an entry up, refreshing its recency and the hit/miss counters.
    /// Returns the payload slice (borrowed from the engine's arena) and the
    /// entry's tag.
    pub fn get(&mut self, key: &K) -> Option<(&[E], &T)> {
        let slot = self.touch(key)?;
        Some(self.entry(slot))
    }

    /// Makes `key` the most recently used entry without counting a hit;
    /// returns whether it is resident.
    pub(crate) fn restamp(&mut self, key: &K) -> bool {
        let slot = self.map.get(key).copied();
        if let Some(slot) = slot {
            self.stamp(slot);
        }
        slot.is_some()
    }

    /// Side-effect-free probe: returns the payload without touching the LRU
    /// order or the hit/miss statistics. Prefetch probes and routing layers
    /// must not perturb eviction order or hit rates.
    pub(crate) fn peek(&self, key: &K) -> Option<&[E]> {
        self.map.get(key).map(|&slot| {
            let s = &self.slots[slot];
            self.arena.slice(s.start, s.len)
        })
    }

    /// Inserts (or replaces) an entry, evicting LRU entries as needed to
    /// stay within the byte budget. Returns whether the entry is resident
    /// afterwards (`false` when it cannot fit even after evicting
    /// everything, counted in `CacheStats::rejected`).
    pub fn insert(&mut self, key: K, value: &[E], tag: T) -> bool {
        let cost = self.entry_cost(value.len());
        if cost > self.budget {
            self.stats.rejected += 1;
            return false;
        }
        // Replace in place when the payload length is unchanged (the
        // overwhelmingly common case — rows of one table never change
        // size), so a steady-state refresh touches no free list and no
        // eviction can be needed.
        if let Some(slot) = self.map.get(&key).copied() {
            let s = self.slots[slot];
            if s.len == value.len() {
                self.arena.write(s.start, value);
                self.slots[slot].tag = tag;
                self.stamp(slot);
                self.stats.insertions += 1;
                return true;
            }
            // Remove the differently-sized entry so accounting stays exact.
            self.remove_slot(slot);
        }
        while self.used + cost > self.budget {
            let Some(victim) = self.lru_slot() else {
                break;
            };
            self.remove_slot(victim);
            self.stats.evictions += 1;
        }
        if self.used + cost > self.budget {
            self.stats.rejected += 1;
            self.note_residency();
            return false;
        }
        self.used += cost;
        self.stats.insertions += 1;
        let start = self.arena.alloc(value);
        self.tick += 1;
        let record = EngineSlot {
            key,
            start,
            len: value.len(),
            tag,
            stamp: self.tick,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot] = record;
                slot
            }
            None => {
                self.slots.push(record);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.note_residency();
        true
    }

    /// Appends `(stamp, key)` of every resident entry to `out`, in slot
    /// order. Stamps are unique and grow with every touch, so sorting what
    /// was appended orders the entries least recently used first.
    pub(crate) fn append_resident(&self, out: &mut Vec<(u64, K)>) {
        let live = self.slots.iter().filter(|s| s.stamp != 0);
        out.extend(live.map(|s| (s.stamp, s.key)));
    }

    /// Returns true when the key is resident (without touching recency).
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently consumed (payload + per-entry overhead).
    pub(crate) fn memory_used(&self) -> Bytes {
        Bytes(self.used)
    }

    /// Configured byte budget.
    pub(crate) fn budget(&self) -> Bytes {
        Bytes(self.budget)
    }

    /// Cache statistics.
    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Slot records ever grown (resident + free-listed) — an introspection
    /// hook for slot-recycling tests.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Elements currently backing the payload arena (live + freed) — an
    /// introspection hook for arena-recycling tests.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Drops every resident entry and resets usage (statistics are kept).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.victims.clear();
        self.arena.clear();
        self.used = 0;
        self.note_residency();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Engine = ArenaLru<u64, (), u8>;

    /// Side-effect-free probe of an entry's tag.
    fn peek_tag<'a, K: Eq + Hash, T, E>(engine: &'a ArenaLru<K, T, E>, key: &K) -> Option<&'a T> {
        engine.map.get(key).map(|&slot| &engine.slots[slot].tag)
    }

    #[test]
    fn get_insert_roundtrip_with_stats() {
        let mut e: Engine = ArenaLru::new(Bytes::from_kib(4), 64);
        assert!(e.get(&7).is_none());
        assert!(e.insert(7, &[3u8; 100], ()));
        assert_eq!(e.get(&7).unwrap().0, &[3u8; 100]);
        assert_eq!(e.stats().hits, 1);
        assert_eq!(e.stats().misses, 1);
        assert_eq!(e.stats().insertions, 1);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn lru_eviction_order_is_exact() {
        // Budget fits exactly two 100-byte entries (2 × 164 = 328).
        let mut e: Engine = ArenaLru::new(Bytes(330), 64);
        e.insert(1, &[0u8; 100], ());
        e.insert(2, &[0u8; 100], ());
        e.get(&1); // 2 becomes LRU
        e.insert(3, &[0u8; 100], ());
        assert!(e.contains(&1));
        assert!(!e.contains(&2));
        assert!(e.contains(&3));
        assert_eq!(e.stats().evictions, 1);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut e: Engine = ArenaLru::new(Bytes(330), 64);
        e.insert(1, &[1u8; 100], ());
        e.insert(2, &[2u8; 100], ());
        // Peeking the LRU entry must not rescue it from eviction...
        assert_eq!(e.peek(&1).unwrap(), &[1u8; 100]);
        let (hits, misses) = (e.stats().hits, e.stats().misses);
        e.insert(3, &[3u8; 100], ());
        assert!(!e.contains(&1), "peek refreshed recency");
        // ...and must not move the hit/miss counters.
        assert_eq!((e.stats().hits, e.stats().misses), (hits, misses));
    }

    #[test]
    fn resident_walk_skips_freed_slots_and_sorts_into_lru_order() {
        // Budget for three 100-byte entries: inserting a fourth evicts key 2
        // (key 1 was touched), whose slot record stays behind, free-listed.
        let mut e: Engine = ArenaLru::new(Bytes(3 * 164), 64);
        for key in 1..=3 {
            e.insert(key, &[0u8; 100], ());
        }
        e.get(&1);
        e.insert(4, &[0u8; 100], ());
        e.insert(5, &[0u8; 50], ()); // evicts 3; reuses a freed slot
        let mut out = Vec::new();
        e.append_resident(&mut out);
        assert_eq!(out.len(), e.len());
        out.sort_unstable();
        let keys: Vec<u64> = out.iter().map(|(_, key)| *key).collect();
        assert_eq!(keys, [1, 4, 5]);
    }

    #[test]
    fn tags_ride_along_and_update_in_place() {
        let mut e: ArenaLru<u64, u32, u8> = ArenaLru::new(Bytes::from_kib(1), 64);
        e.insert(5, &[1u8; 16], 7);
        assert_eq!(*e.get(&5).unwrap().1, 7);
        e.insert(5, &[2u8; 16], 9); // same length: in-place, tag refreshed
        assert_eq!(*peek_tag(&e, &5).unwrap(), 9);
        assert_eq!(e.peek(&5).unwrap(), &[2u8; 16]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn f32_payloads_cost_four_bytes_per_element() {
        let mut e: ArenaLru<u64, (), f32> = ArenaLru::new(Bytes(128 + 64), 64);
        // 32 floats × 4 + 64 overhead = 192 = budget: exactly one entry fits.
        assert!(e.insert(1, &[0.5f32; 32], ()));
        assert!(!e.insert(2, &[0.5f32; 33], ()));
        assert_eq!(e.stats().rejected, 1);
        assert_eq!(e.memory_used(), Bytes(192));
    }

    #[test]
    fn usage_never_exceeds_budget_under_mixed_churn() {
        let mut e: Engine = ArenaLru::new(Bytes::from_kib(8), 64);
        for i in 0..1000u64 {
            e.insert(i % 96, &vec![0u8; (i % 256) as usize + 1], ());
            assert!(e.memory_used() <= e.budget(), "over budget at i={i}");
        }
    }

    #[test]
    fn fixed_size_churn_recycles_slots_and_arena() {
        let mut e: Engine = ArenaLru::new(Bytes(1000), 64);
        for i in 0..500u64 {
            e.insert(i, &[0u8; 100], ());
        }
        // ~6 entries fit; churn must recycle slots/ranges, not grow them.
        assert!(e.slot_count() <= 8, "{} slots", e.slot_count());
        assert!(e.arena_len() <= 8 * 100, "{} arena bytes", e.arena_len());
    }

    /// The obviously-right LRU the engine is checked against: entries in
    /// recency order (front = least recent), move-to-back on touch, evict
    /// from the front.
    struct NaiveLru {
        entries: Vec<(u64, Vec<u8>, u32)>,
        budget: u64,
        stats: CacheStats,
    }

    const OVERHEAD: usize = 64;

    impl NaiveLru {
        fn new(budget: u64) -> Self {
            NaiveLru {
                entries: Vec::new(),
                budget,
                stats: CacheStats::new(),
            }
        }

        fn used(&self) -> u64 {
            let cost = |e: &(u64, Vec<u8>, u32)| (e.1.len() + OVERHEAD) as u64;
            self.entries.iter().map(cost).sum()
        }

        fn position(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn get(&mut self, key: u64) -> Option<(Vec<u8>, u32)> {
            match self.position(key) {
                Some(at) => {
                    let entry = self.entries.remove(at);
                    self.entries.push(entry.clone());
                    self.stats.hits += 1;
                    Some((entry.1, entry.2))
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: u64, value: &[u8], tag: u32) -> bool {
            let cost = (value.len() + OVERHEAD) as u64;
            if cost > self.budget {
                self.stats.rejected += 1;
                return false;
            }
            if let Some(at) = self.position(key) {
                self.entries.remove(at);
            }
            while self.used() + cost > self.budget {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
            self.entries.push((key, value.to_vec(), tag));
            self.stats.insertions += 1;
            true
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u64),
        Insert(u64, usize, u32),
        Peek(u64),
        Clear,
    }

    /// Drives the engine and the model through `ops` and compares every
    /// return value and, after every step, the counters, `len`,
    /// `memory_used` and — whenever an eviction could have happened — the
    /// whole resident set with its bytes and tags, which pins the victim of
    /// every eviction.
    fn check_against_model(budget: u64, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut engine: ArenaLru<u64, u32, u8> = ArenaLru::new(Bytes(budget), OVERHEAD);
        let mut model = NaiveLru::new(budget);
        for (step, &op) in ops.iter().enumerate() {
            let evictions = model.stats.evictions;
            match op {
                Op::Get(key) => {
                    let got = engine.get(&key).map(|(bytes, &tag)| (bytes.to_vec(), tag));
                    prop_assert_eq!(got, model.get(key), "step {}: {:?}", step, op);
                }
                Op::Insert(key, len, tag) => {
                    let value = vec![(key as u8) ^ (tag as u8); len];
                    let resident = engine.insert(key, &value, tag);
                    prop_assert_eq!(resident, model.insert(key, &value, tag), "step {}", step);
                }
                Op::Peek(key) => {
                    let want = model.position(key).map(|at| &model.entries[at]);
                    prop_assert_eq!(engine.peek(&key), want.map(|e| e.1.as_slice()));
                    prop_assert_eq!(peek_tag(&engine, &key), want.map(|e| &e.2));
                }
                Op::Clear => {
                    engine.clear();
                    model.entries.clear();
                }
            }
            let stats = engine.stats();
            model.stats.live_bytes = model.entries.iter().map(|e| e.1.len() as u64).sum();
            model.stats.resident_bytes = stats.resident_bytes; // arena-internal
            prop_assert_eq!(stats, &model.stats, "step {}: {:?}", step, op);
            prop_assert_eq!(engine.len(), model.entries.len(), "step {}", step);
            prop_assert_eq!(engine.memory_used(), Bytes(model.used()), "step {}", step);
            if model.stats.evictions != evictions || step + 1 == ops.len() {
                // Equal lengths (above) plus every model entry resident with
                // its bytes and tag: the resident sets are the same.
                for (key, bytes, tag) in &model.entries {
                    let wrong = format!("step {step}: {op:?} left key {key} wrong");
                    prop_assert_eq!(engine.peek(key), Some(bytes.as_slice()), "{}", wrong);
                    prop_assert_eq!(peek_tag(&engine, key), Some(tag), "{}", wrong);
                }
            }
        }
        Ok(())
    }

    /// Decodes one generated tuple into an operation. Lengths come from a
    /// small set so that same-length and different-length replacement both
    /// happen; `budget` as a length is the oversize case.
    fn decode((kind, key, len, tag): (u8, u64, usize, u32), budget: u64) -> Op {
        const LENS: [usize; 4] = [8, 16, 24, 40];
        match kind {
            0..=39 => Op::Get(key),
            40..=89 => Op::Insert(key, LENS[len % LENS.len()], tag),
            90..=92 => Op::Insert(key, budget as usize, tag),
            93..=98 => Op::Peek(key),
            _ => Op::Clear,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 48 }))]

        /// A dozen resident entries: every insert of a new key evicts, and
        /// every victim scan queues the whole cache.
        #[test]
        fn small_cache_matches_the_naive_lru(
            raw in prop::collection::vec((0u8..100, 0u64..40, 0usize..4, 0u32..1000), 100..500)
        ) {
            let ops: Vec<Op> = raw.into_iter().map(|t| decode(t, 1000)).collect();
            check_against_model(1000, &ops)?;
        }

        /// Several hundred resident entries: the victim queue is a strict
        /// subset (an eighth) of the cache, refilled many times, with hits
        /// invalidating queued candidates in between.
        #[test]
        fn large_cache_matches_the_naive_lru(
            raw in prop::collection::vec((0u8..99, 0u64..900, 0usize..4, 0u32..1000), 2500..3500)
        ) {
            let ops: Vec<Op> = raw.into_iter().map(|t| decode(t, 40_000)).collect();
            check_against_model(40_000, &ops)?;
        }
    }

    /// 40 resident 16-byte entries (more than the queue's floor of 32, so a
    /// scan queues only keys 0..32), then one more insert that scans and
    /// evicts key 0.
    fn filled_and_scanned() -> Vec<Op> {
        let mut ops: Vec<Op> = (0..40).map(|key| Op::Insert(key, 16, 7)).collect();
        ops.push(Op::Insert(100, 16, 7));
        ops
    }

    #[test]
    fn touching_every_queued_candidate_forces_a_rescan() {
        let mut ops = filled_and_scanned();
        // Keys 1..32 are the whole remaining queue: touch them all, so the
        // next eviction finds no valid candidate and must rescan — and the
        // LRU is then key 32, not anything that was queued.
        ops.extend((1..32).map(Op::Get));
        ops.extend((101..110).map(|key| Op::Insert(key, 16, 7)));
        check_against_model(40 * 80, &ops).unwrap();
    }

    #[test]
    fn a_slot_reused_between_scan_and_eviction_is_not_a_victim() {
        let mut ops = filled_and_scanned();
        // Key 5 is queued. A shorter replacement frees its slot and — no
        // eviction being needed in between — takes the same slot straight
        // back with a fresh stamp. The stale queue entry still names that
        // slot; it must be skipped, not evict the new occupant.
        ops.push(Op::Insert(5, 8, 9));
        ops.extend((101..108).map(|key| Op::Insert(key, 16, 7)));
        ops.extend([Op::Get(5), Op::Get(101), Op::Peek(6)]);
        ops.extend((108..140).map(|key| Op::Insert(key, 16, 7)));
        check_against_model(40 * 80, &ops).unwrap();
    }
}
