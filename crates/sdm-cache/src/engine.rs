//! The generic arena-LRU engine core and the admission-policy seam.
//!
//! Four caches in this workspace want the identical organisation: a hash
//! index over slot records, payloads in a [`SlabArena`], an intrusive
//! [`LruList`] for exact recency, byte accounting against a budget, and
//! [`CacheStats`]. They used to hand-mirror the same eviction/accounting
//! bodies ([`crate::CpuOptimizedCache`], [`crate::PooledEmbeddingCache`]
//! and every [`crate::SharedRowTier`] stripe each carried a copy), which
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
//! # Admission
//!
//! [`AdmissionPolicy`] decides whether a **not-yet-resident** key may enter
//! a cache at all (resident refreshes are always allowed — denying them
//! would drop data already paid for). [`AlwaysAdmit`] is the bit-identical
//! default; [`SecondTouch`] is a bounded doorkeeper that admits a key only
//! on its second touch within the doorkeeper's memory, which keeps
//! single-touch tail rows from churning the shared tier's stripes. The
//! policy sees only a mixed 64-bit key hash, so one implementation serves
//! every key type.

use crate::arena::SlabArena;
use crate::lru::LruList;
use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;
use std::collections::HashMap;
use std::hash::Hash;

/// One entry's record: its key (for reverse lookup at eviction), payload
/// range and per-entry tag.
#[derive(Debug, Clone, Copy)]
struct EngineSlot<K, T> {
    key: K,
    start: usize,
    len: usize,
    tag: T,
}

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
    lru: LruList,
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
    /// overhead (hash node, LRU links, slot record — each wrapper's
    /// published `ENTRY_OVERHEAD`).
    pub fn new(budget: Bytes, entry_overhead: usize) -> Self {
        ArenaLru {
            map: HashMap::new(), // sdm-analyze: allow(default-hasher-on-serving-path)
            slots: Vec::new(),
            free_slots: Vec::new(),
            lru: LruList::new(),
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
        self.lru.unlink(slot);
        self.arena.free(s.start, s.len);
        self.free_slots.push(slot);
        self.used -= self.entry_cost(s.len);
    }

    /// Looks an entry up, refreshing its recency and the hit/miss counters.
    /// Returns the payload slice (borrowed from the engine's arena) and the
    /// entry's tag.
    pub fn get(&mut self, key: &K) -> Option<(&[E], &T)> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.lru.touch(slot);
                self.stats.record_hit();
                let s = &self.slots[slot];
                Some((self.arena.slice(s.start, s.len), &s.tag))
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Side-effect-free probe: returns the payload without touching the LRU
    /// order or the hit/miss statistics. Prefetch probes and routing layers
    /// must not perturb eviction order or hit rates.
    pub fn peek(&self, key: &K) -> Option<&[E]> {
        self.map.get(key).map(|&slot| {
            let s = &self.slots[slot];
            self.arena.slice(s.start, s.len)
        })
    }

    /// Side-effect-free probe of an entry's tag.
    pub fn peek_tag(&self, key: &K) -> Option<&T> {
        self.map.get(key).map(|&slot| &self.slots[slot].tag)
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
                self.lru.touch(slot);
                self.stats.insertions += 1;
                return true;
            }
            // Remove the differently-sized entry so accounting stays exact.
            self.remove_slot(slot);
        }
        while self.used + cost > self.budget {
            let Some(victim) = self.lru.lru() else {
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
        let record = EngineSlot {
            key,
            start,
            len: value.len(),
            tag,
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
        self.lru.push_front(slot);
        self.map.insert(key, slot);
        self.note_residency();
        true
    }

    /// Returns true when the key is resident (without touching recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently consumed (payload + per-entry overhead).
    pub fn memory_used(&self) -> Bytes {
        Bytes(self.used)
    }

    /// Configured byte budget.
    pub fn budget(&self) -> Bytes {
        Bytes(self.budget)
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Slot records ever grown (resident + free-listed) — an introspection
    /// hook for slot-recycling tests.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Elements currently backing the payload arena (live + freed) — an
    /// introspection hook for arena-recycling tests.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Drops every resident entry and resets usage (statistics are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.lru.clear();
        self.arena.clear();
        self.used = 0;
        self.note_residency();
    }
}

/// Decides whether a not-yet-resident key may be inserted into a cache.
///
/// The policy sees a mixed 64-bit hash of the key (e.g.
/// [`crate::RowKey::mix`]) rather than the key itself, so one policy
/// implementation serves every engine. Implementations may be stateful —
/// `admit` both decides and records the touch.
pub trait AdmissionPolicy: std::fmt::Debug + Send {
    /// Returns whether the key may enter, recording the touch for stateful
    /// policies.
    fn admit(&mut self, key_hash: u64) -> bool;

    /// Forgets all recorded touches (cache clear / model update).
    fn reset(&mut self);

    /// Short policy name for reporting.
    fn name(&self) -> &'static str;
}

/// The default policy: every key is admitted on first touch. Bit-identical
/// to pre-policy behaviour by construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn admit(&mut self, _key_hash: u64) -> bool {
        true
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "always_admit"
    }
}

/// Promote-on-second-touch doorkeeper: a key is admitted only when it was
/// already touched while still in the doorkeeper's bounded memory.
///
/// The memory is a direct-mapped table of key hashes — O(1), allocation-free
/// after construction, and deliberately lossy: a colliding key overwrites
/// the previous occupant, which makes the doorkeeper behave like a recency
/// window rather than an ever-growing set. Single-touch tail keys (the bulk
/// of a power-law stream) are recorded and denied once, never entering the
/// cache; genuinely warm keys come back while still remembered and are
/// admitted on the second touch.
#[derive(Debug, Clone)]
pub struct SecondTouch {
    seen: Vec<u64>,
}

impl SecondTouch {
    /// Creates a doorkeeper remembering roughly `capacity` recent key
    /// hashes (rounded up to a power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        SecondTouch {
            seen: vec![0; capacity.next_power_of_two().max(64)],
        }
    }
}

impl AdmissionPolicy for SecondTouch {
    fn admit(&mut self, key_hash: u64) -> bool {
        let idx = (key_hash as usize) & (self.seen.len() - 1);
        if self.seen[idx] == key_hash {
            true
        } else {
            self.seen[idx] = key_hash;
            false
        }
    }

    fn reset(&mut self) {
        self.seen.fill(0);
    }

    fn name(&self) -> &'static str {
        "second_touch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Engine = ArenaLru<u64, (), u8>;

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
    fn tags_ride_along_and_update_in_place() {
        let mut e: ArenaLru<u64, u32, u8> = ArenaLru::new(Bytes::from_kib(1), 64);
        e.insert(5, &[1u8; 16], 7);
        assert_eq!(*e.get(&5).unwrap().1, 7);
        e.insert(5, &[2u8; 16], 9); // same length: in-place, tag refreshed
        assert_eq!(*e.peek_tag(&5).unwrap(), 9);
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

    #[test]
    fn always_admit_admits_and_second_touch_needs_two() {
        let mut always = AlwaysAdmit;
        assert!(always.admit(42));
        assert_eq!(always.name(), "always_admit");

        let mut st = SecondTouch::new(256);
        assert!(!st.admit(42), "first touch must be denied");
        assert!(st.admit(42), "second touch must be admitted");
        assert!(st.admit(42), "later touches stay admitted while remembered");
        st.reset();
        assert!(!st.admit(42), "reset must forget touches");
        assert_eq!(st.name(), "second_touch");
    }

    #[test]
    fn second_touch_collisions_overwrite_the_doorkeeper_slot() {
        let mut st = SecondTouch::new(64); // table size 64: hashes 1 and 65 collide
        assert!(!st.admit(1));
        assert!(!st.admit(65), "collision must evict the previous hash");
        assert!(!st.admit(1), "evicted hash is a first touch again");
        assert!(st.admit(1));
    }
}
