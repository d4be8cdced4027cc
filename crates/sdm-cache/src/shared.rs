//! The host-shared second cache tier (paper §3, §4.2).
//!
//! The paper keeps *one* DRAM cache tier per host in front of the SM
//! devices precisely because hot rows under power-law access are shared
//! across the whole request stream: a row made hot by one serving stream
//! serves every stream. The sharded `ServingHost` gives each shard a fully
//! private [`crate::DualRowCache`], which is ideal for user-sticky locality
//! but loses exactly that cross-shard reuse — a row hot on every shard is
//! cached N times, and a miss on shard A cannot be served by shard B's
//! earlier SM read.
//!
//! [`SharedRowTier`] recovers the reuse without a global lock: keys hash to
//! one of K independent stripes, each a mutex-guarded [`ArenaLru`] — the
//! same engine core as the private caches, tagged with the promoting shard.
//! All operations take `&self`, so shards on `std::thread::scope` workers
//! share one tier through an `Arc` — the tier is `Send + Sync` by
//! construction (asserted by the `send_assertions` suite).
//!
//! The serving loop probes a whole operator at once
//! ([`SharedRowTier::lookup_many`]): the probes are ordered by stripe, each
//! stripe is locked **once**, its index probes run back to back (each one
//! a hash lookup plus one recency-stamp store into the entry's own slot
//! record — see [`ArenaLru`]), and each hit's bytes are *copied* (≈ 100 B)
//! into the caller's staging buffer, the hit's range recorded on its
//! [`TierProbe`]. The copy is what buys one lock acquisition per
//! (operator, stripe) instead of one per row while the caller still pools
//! in index order, and it means no caller code runs under a stripe lock.
//! Every stripe sees its own probes in the operator's order, so its
//! counters, recency and later evictions are exactly those of one
//! [`SharedRowTier::lookup_with`] (the one-row form) per row. Fills happen
//! only at IO completion ([`SharedRowTier::insert`]), so no stripe lock is
//! ever held across an SM read.
//!
//! Every entry records the shard that promoted it, which is what makes the
//! tier's effect measurable: a hit whose origin differs from the probing
//! shard is a *cross-shard* hit — one SM read amortised across streams.
//!
//! Every promotion that fits is admitted: the tier has no admission policy.

use crate::engine::ArenaLru;
use crate::row_cache::RowKey;
use crate::stats::CacheStats;
use sdm_metrics::units::{split_share, Bytes};
use sdm_metrics::SimDuration;
use std::ops::Range;
use std::sync::{MutexGuard, PoisonError};

/// Metadata overhead per shared-tier entry (hash node, slot record with
/// recency stamp and origin tag, victim-queue share).
pub(crate) const ENTRY_OVERHEAD: usize = 64;

/// Outcome of a shared-tier hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedHit {
    /// True when the entry was promoted by a *different* shard than the one
    /// probing — the cross-shard reuse the tier exists to recover.
    pub cross_shard: bool,
}

/// One row of a batched lookup ([`SharedRowTier::lookup_many`]): the key
/// plus the caller's handle for it, and after the lookup where a hit's
/// bytes were staged.
#[derive(Debug, Clone, Copy)]
pub struct TierProbe {
    key: RowKey,
    tag: u32,
    stripe: u32,
    /// Engine slot of a hit; meaningful only under the stripe lock.
    slot: Option<usize>,
    /// A hit's `(start, len)` in the staging buffer, and its origin.
    hit: Option<(usize, usize, SharedHit)>,
}

impl TierProbe {
    /// A probe for `key`. Tags must ascend along the probe list: a stripe
    /// serves its probes in tag order.
    pub fn new(key: RowKey, tag: u32) -> Self {
        TierProbe {
            key,
            tag,
            stripe: 0,
            slot: None,
            hit: None,
        }
    }

    /// The caller's handle given to [`TierProbe::new`].
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// After [`SharedRowTier::lookup_many`]: on a hit, where its bytes lie
    /// in the staging buffer and whether another shard promoted it.
    pub fn hit(&self) -> Option<(Range<usize>, SharedHit)> {
        self.hit.map(|(start, len, hit)| (start..start + len, hit))
    }
}

/// One lock-striped partition: the shared [`ArenaLru`] engine core tagged
/// with the promoting shard. DRAM per-entry overhead is paid once per
/// *host* here rather than once per shard, so the indexed (CPU-optimized)
/// organisation is the right one.
type Stripe = ArenaLru<RowKey, u32, u8>;

/// The host-shared row-cache tier: K lock-striped arena-backed LRU
/// partitions behind a `&self` API, shared across shards via `Arc`.
#[derive(Debug)]
pub struct SharedRowTier {
    #[expect(
        clippy::disallowed_types,
        reason = "the stripe locks: held for index work and byte copies only, never across an SM read"
    )]
    stripes: Vec<std::sync::Mutex<Stripe>>,
    budget: Bytes,
}

impl SharedRowTier {
    /// Builds a tier of `stripes` lock-striped partitions sharing `budget`
    /// bytes. The budget is split losslessly across stripes (remainder
    /// bytes go to the first stripes); a zero stripe count clamps to one.
    pub fn new(budget: Bytes, stripes: usize) -> Self {
        let n = stripes.max(1);
        let stripes = (0..n)
            .map(|i| {
                ArenaLru::new(
                    Bytes(split_share(budget.as_u64(), n as u64, i as u64)),
                    ENTRY_OVERHEAD,
                )
                .into()
            })
            .collect();
        SharedRowTier { stripes, budget }
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Configured byte budget across all stripes.
    pub fn budget(&self) -> Bytes {
        self.budget
    }

    /// Host CPU time of one tier probe (hash, stripe lock, index lookup).
    /// Costlier than a private-cache probe — the stripe lock is shared
    /// state — which is why the tier sits *behind* the private caches.
    pub fn lookup_cost(&self) -> SimDuration {
        SimDuration::from_nanos(300)
    }

    fn stripe_index(&self, key: &RowKey) -> usize {
        // Use the high half of the mixed key so stripe choice stays
        // decorrelated from the private caches' bucket choice (which uses
        // the low bits via `mix() % buckets`).
        (key.mix() >> 32) as usize % self.stripes.len()
    }

    /// Locks stripe `i`. A stripe can only be poisoned by a panic in a
    /// [`SharedRowTier::lookup_with`] closure — the engine completes every
    /// mutation before it hands bytes out — so its data is still
    /// consistent and serving continues.
    fn stripe_lock(&self, i: usize) -> MutexGuard<'_, Stripe> {
        self.stripes[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks a whole operator's rows up with one lock acquisition per stripe
    /// touched: reorders `probes` by `(stripe, tag)` in place, then per
    /// stripe refreshes recency and the hit/miss counters for every probe
    /// and, still under the lock, appends each hit's bytes to `staged` and
    /// records where on the probe ([`TierProbe::hit`]). Equivalent to one
    /// [`SharedRowTier::lookup_with`] per probe in tag order.
    pub fn lookup_many(&self, probes: &mut [TierProbe], source: u32, staged: &mut Vec<u8>) {
        for p in probes.iter_mut() {
            p.stripe = self.stripe_index(&p.key) as u32;
        }
        probes.sort_unstable_by_key(|p| (p.stripe, p.tag));
        for group in probes.chunk_by_mut(|a, b| a.stripe == b.stripe) {
            let mut stripe = self.stripe_lock(group[0].stripe as usize);
            // Index probes first, payload reads after: the probes are
            // independent of one another, so their cache misses overlap.
            for p in group.iter_mut() {
                p.slot = stripe.touch(&p.key);
            }
            for p in group.iter_mut() {
                p.hit = p.slot.map(|slot| {
                    let (bytes, &origin) = stripe.entry(slot);
                    let start = staged.len();
                    staged.extend_from_slice(bytes);
                    let cross_shard = origin != source;
                    (start, bytes.len(), SharedHit { cross_shard })
                });
            }
        }
    }

    /// Looks a row up and, on a hit, hands its bytes to `f` (recency
    /// refreshed). Returns whether the hit was promoted by a different
    /// shard than `source`. The closure runs under the stripe lock: it
    /// must not submit IO nor call back into the same tier (a stripe lock
    /// is not re-entrant).
    pub fn lookup_with<F: FnOnce(&[u8])>(
        &self,
        key: &RowKey,
        source: u32,
        f: F,
    ) -> Option<SharedHit> {
        let mut stripe = self.stripe_lock(self.stripe_index(key));
        match stripe.get(key) {
            Some((bytes, &origin)) => {
                f(bytes);
                Some(SharedHit {
                    cross_shard: origin != source,
                })
            }
            None => None,
        }
    }

    /// Promotes a row read from SM into the tier, tagged with the shard
    /// that read it. Returns true when the row was stored (false when a
    /// single entry exceeds the stripe budget). Called at IO completion
    /// only, so no stripe lock is ever held across an SM read.
    pub fn insert(&self, key: RowKey, value: &[u8], source: u32) -> bool {
        self.stripe_lock(self.stripe_index(&key))
            .insert(key, value, source)
    }

    /// Number of resident rows across all stripes.
    pub fn len(&self) -> usize {
        (0..self.stripes.len())
            .map(|i| self.stripe_lock(i).len())
            .sum()
    }

    /// Returns true when the key is resident (without touching recency).
    #[cfg(test)]
    fn contains(&self, key: &RowKey) -> bool {
        self.stripe_lock(self.stripe_index(key)).contains(key)
    }

    /// True when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently consumed (payload + per-entry overhead) across all
    /// stripes.
    pub fn memory_used(&self) -> Bytes {
        Bytes(
            (0..self.stripes.len())
                .map(|i| self.stripe_lock(i).memory_used().as_u64())
                .sum(),
        )
    }

    /// Aggregated statistics across all stripes (hits/misses recorded under
    /// the stripe locks; residency gauges sum).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for i in 0..self.stripes.len() {
            total.merge(self.stripe_lock(i).stats());
        }
        total
    }

    /// Drops every resident row in every stripe (statistics are kept).
    /// Model updates call this once, host-wide.
    pub fn clear(&self) {
        for i in 0..self.stripes.len() {
            self.stripe_lock(i).clear();
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests the one-row form against the batched lookup"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Arc, Barrier};

    fn tier(budget: Bytes, stripes: usize) -> SharedRowTier {
        SharedRowTier::new(budget, stripes)
    }

    #[test]
    fn insert_lookup_roundtrip_with_origin_tracking() {
        let t = tier(Bytes::from_kib(64), 4);
        let key = RowKey::new(1, 42);
        assert!(t.lookup_with(&key, 0, |_| {}).is_none());
        assert!(t.insert(key, &[7u8; 96], 0));
        // Same shard: hit, not cross-shard.
        let mut seen = Vec::new();
        let hit = t.lookup_with(&key, 0, |bytes| seen.extend_from_slice(bytes));
        assert_eq!(hit, Some(SharedHit { cross_shard: false }));
        assert_eq!(seen, vec![7u8; 96]);
        // Another shard: the same entry is a cross-shard hit.
        let hit = t.lookup_with(&key, 3, |_| {});
        assert_eq!(hit, Some(SharedHit { cross_shard: true }));
        let stats = t.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(t.len(), 1);
        assert!(t.contains(&key));
        assert!(t.memory_used() > Bytes::ZERO);
    }

    #[test]
    fn stripe_budgets_split_losslessly_and_evict_lru() {
        // 1000 bytes over 3 stripes: 334 + 333 + 333.
        let t = tier(Bytes(1000), 3);
        let per_stripe: u64 = (0..3).map(|i| t.stripe_lock(i).budget().as_u64()).sum();
        assert_eq!(per_stripe, 1000);
        // Fill well past the budget; usage stays bounded and evictions run.
        for i in 0..64u64 {
            t.insert(RowKey::new(0, i), &[0u8; 100], 0);
        }
        assert!(t.memory_used() <= t.budget());
        assert!(t.stats().evictions > 0);
        assert!(!t.is_empty());
    }

    #[test]
    fn oversized_rows_are_rejected_per_stripe() {
        let t = tier(Bytes(256), 2);
        assert!(!t.insert(RowKey::new(0, 0), &[0u8; 1024], 0));
        assert!(t.is_empty());
        assert_eq!(t.stats().rejected, 1);
    }

    #[test]
    fn same_size_repromotion_overwrites_in_place() {
        let t = tier(Bytes::from_kib(4), 1);
        let key = RowKey::new(2, 7);
        assert!(t.insert(key, &[1u8; 64], 0));
        let resident = t.stats().resident_bytes;
        // Shard 1 re-promotes the same row: value and origin update without
        // growing the arena.
        assert!(t.insert(key, &[2u8; 64], 1));
        assert_eq!(t.stats().resident_bytes, resident);
        let hit = t.lookup_with(&key, 0, |bytes| assert_eq!(bytes, &[2u8; 64]));
        assert_eq!(hit, Some(SharedHit { cross_shard: true }));
    }

    #[test]
    fn mixed_size_churn_never_serves_wrong_row() {
        // Regression: `Stripe` used to build its `LruList` via the derived
        // `Default`, whose zeroed head/tail claimed slot 0 was already
        // linked — the first insert then created a self-cycle and eviction
        // churn aliased map entries onto freed slots, so lookups handed
        // back a *different key's* bytes. Uniform-row tests never caught
        // it; a capacity-constrained mixed-size churn does within a few
        // hundred operations.
        let t = tier(Bytes::from_kib(32), 1);
        let sizes = [90usize, 104, 113, 145, 151, 172];
        let len_for = |key: &RowKey| sizes[(key.mix() % sizes.len() as u64) as usize];
        let mut rng = 0x5d_2022u64;
        for i in 0..50_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = RowKey::new((rng % 7) as u32, (rng >> 8) % 400);
            let len = len_for(&key);
            if rng.is_multiple_of(3) {
                t.insert(key, &vec![(rng & 0xff) as u8; len], (rng % 2) as u32);
            } else {
                let mut got = None;
                t.lookup_with(&key, 0, |bytes| got = Some(bytes.len()));
                if let Some(got) = got {
                    assert_eq!(got, len, "op {i}: {key:?} returned another row's bytes");
                }
            }
        }
        assert!(
            t.stats().evictions > 0,
            "churn never evicted — test is inert"
        );
    }

    /// Mixed row sizes, fixed per key, so that a wrong row shows as a wrong
    /// length or a wrong fill byte.
    fn row_for(key: &RowKey) -> Vec<u8> {
        const SIZES: [usize; 6] = [90, 104, 113, 145, 151, 172];
        let mix = key.mix();
        vec![(mix >> 8) as u8; SIZES[(mix % SIZES.len() as u64) as usize]]
    }

    /// One generated round: an operator's rows, the probing shard, and the
    /// rows promoted afterwards.
    type Round = (Vec<u64>, u32, Vec<u64>);

    /// Serves every round through `lookup_many` on one tier and through one
    /// `lookup_with` per row on its twin; everything observable must agree.
    fn check_twins(stripes: usize, rounds: &[Round]) -> Result<(), TestCaseError> {
        // ~100 of the 300 keys fit: inserts evict, so recency matters.
        let build = || tier(Bytes::from_kib(20), stripes);
        let (batched, per_row) = (build(), build());
        for (rows, source, promoted) in rounds {
            let keys: Vec<RowKey> = rows.iter().map(|&r| RowKey::new(0, r)).collect();
            let mut probes: Vec<TierProbe> = keys
                .iter()
                .enumerate()
                .map(|(pos, key)| TierProbe::new(*key, pos as u32))
                .collect();
            let mut staged = Vec::new();
            batched.lookup_many(&mut probes, *source, &mut staged);
            let mut got = vec![None; keys.len()];
            for p in &probes {
                got[p.tag() as usize] = p
                    .hit()
                    .map(|(bytes, hit)| (staged[bytes].to_vec(), hit.cross_shard));
            }
            for (pos, key) in keys.iter().enumerate() {
                let mut bytes = Vec::new();
                let want = per_row
                    .lookup_with(key, *source, |b| bytes.extend_from_slice(b))
                    .map(|hit| (bytes, hit.cross_shard));
                prop_assert_eq!(&got[pos], &want, "position {} ({:?})", pos, key);
            }
            for &r in promoted {
                let key = RowKey::new(0, r);
                let admitted = batched.insert(key, &row_for(&key), *source);
                prop_assert_eq!(admitted, per_row.insert(key, &row_for(&key), *source));
            }
            prop_assert_eq!(batched.stats(), per_row.stats());
            prop_assert_eq!(batched.len(), per_row.len());
            // The promotions above evicted by recency: the same rows survive
            // only if both tiers recorded the lookups' recency identically.
            for r in 0..300 {
                let key = RowKey::new(0, r);
                prop_assert_eq!(batched.contains(&key), per_row.contains(&key), "{:?}", key);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 24 }))]

        #[test]
        fn lookup_many_equals_one_lookup_with_per_row(
            rounds in prop::collection::vec(
                (
                    prop::collection::vec(0u64..300, 1..81),
                    0u32..3,
                    prop::collection::vec(0u64..300, 0..40),
                ),
                8..24,
            )
        ) {
            for stripes in [1, 3, 8] {
                check_twins(stripes, &rounds)?;
            }
        }
    }

    #[test]
    fn concurrent_lookup_many_never_serves_a_wrong_row() {
        // `mixed_size_churn_never_serves_wrong_row`'s shape, from two
        // threads at once and through the batched lookup: whatever the
        // interleaving, a hit carries its own key's bytes and every probe
        // is counted exactly once.
        let t = Arc::new(tier(Bytes::from_kib(32), 3));
        let start = Barrier::new(2);
        let (mut hits, mut probed) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u32)
                .map(|shard| {
                    let (t, start) = (&t, &start);
                    scope.spawn(move || {
                        let mut rng = 0x5d_2022u64 + u64::from(shard);
                        let mut next = move || {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng
                        };
                        let (mut hits, mut probed) = (0u64, 0u64);
                        let (mut probes, mut staged) = (Vec::new(), Vec::new());
                        start.wait();
                        for _ in 0..4_000 {
                            let r = next();
                            let key = RowKey::new((r % 7) as u32, (r >> 8) % 400);
                            if r.is_multiple_of(3) {
                                t.insert(key, &row_for(&key), shard);
                                continue;
                            }
                            probes.clear();
                            for tag in 0..(r >> 20) % 40 + 1 {
                                let r = next();
                                let key = RowKey::new((r % 7) as u32, (r >> 8) % 400);
                                probes.push(TierProbe::new(key, tag as u32));
                            }
                            let keys: Vec<RowKey> = probes.iter().map(|p| p.key).collect();
                            probed += probes.len() as u64;
                            staged.clear();
                            t.lookup_many(&mut probes, shard, &mut staged);
                            for p in &probes {
                                if let Some((bytes, _)) = p.hit() {
                                    let want = row_for(&keys[p.tag() as usize]);
                                    assert_eq!(staged[bytes], want, "wrong row");
                                    hits += 1;
                                }
                            }
                        }
                        (hits, probed)
                    })
                })
                .collect();
            for w in workers {
                let (h, p) = w.join().unwrap();
                hits += h;
                probed += p;
            }
        });
        let stats = t.stats();
        assert!(hits > 0 && stats.evictions > 0, "churn is inert");
        assert_eq!(stats.hits, hits);
        assert_eq!(stats.hits + stats.misses, probed);
    }

    #[test]
    fn clear_empties_every_stripe() {
        let t = tier(Bytes::from_kib(16), 8);
        for i in 0..32u64 {
            t.insert(RowKey::new(0, i), &[1u8; 32], 0);
        }
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.memory_used(), Bytes::ZERO);
    }

    #[test]
    fn zero_stripes_clamp_to_one() {
        let t = tier(Bytes::from_kib(1), 0);
        assert_eq!(t.stripe_count(), 1);
        assert!(t.insert(RowKey::new(0, 0), &[0u8; 16], 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn concurrent_shards_share_one_tier() {
        // Four worker "shards" hammer one tier through an Arc: every row
        // promoted by shard 0 must be visible (as a cross-shard hit) to the
        // others, and the stripe locks must serialise without deadlock.
        let t = Arc::new(tier(Bytes::from_kib(256), 8));
        let rows: Vec<RowKey> = (0..64).map(|i| RowKey::new(0, i)).collect();
        for key in &rows {
            t.insert(*key, &[9u8; 64], 0);
        }
        std::thread::scope(|scope| {
            for shard in 1u32..5 {
                let t = Arc::clone(&t);
                let rows = &rows;
                scope.spawn(move || {
                    let mut cross = 0u64;
                    for _ in 0..50 {
                        for key in rows {
                            if let Some(hit) = t.lookup_with(key, shard, |bytes| {
                                assert_eq!(bytes[0], 9);
                            }) {
                                cross += u64::from(hit.cross_shard);
                            }
                        }
                    }
                    assert_eq!(cross, 50 * rows.len() as u64);
                });
            }
        });
        let stats = t.stats();
        assert_eq!(stats.hits, 4 * 50 * rows.len() as u64);
        assert_eq!(stats.misses, 0);
    }
}
