//! Deterministic fault injection for simulated devices.
//!
//! A [`FaultPlan`] attaches to one [`crate::ScmDevice`] and perturbs its
//! read path with the failure modes production SCM deployments see:
//! transient (retryable) read errors, latency-spike storms over virtual-time
//! windows, stuck IOs that hang far past the normal service time, and
//! bit-flip payload corruption. Every decision is drawn from a pinned
//! xoshiro256** stream seeded at construction, and latency storms are keyed
//! off the *virtual* issue instant — so a given `(seed, IO sequence)` pair
//! replays the identical fault sequence on every run, which is what lets
//! the resilience tests and the `fault_resilience` bench section gate on
//! bit-identical replay.
//!
//! An empty plan (all rates zero, no storm windows) injects nothing and
//! leaves the device's behaviour bit-identical to having no plan attached.
//!
//! Corruption is paired with end-to-end data protection: the device stamps
//! every [`crate::ReadOutcome`] with a [`checksum64`] of the payload *as
//! read from the media*, then flips a payload bit afterwards when the plan
//! says so — exactly the shape of NVMe end-to-end protection, where the
//! guard tag travels with the data and the host verifies it on completion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdm_metrics::{SimDuration, SimInstant};

/// Odd multiplier of the guard checksum (the 64-bit FNV prime).
const CHECKSUM_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit guard checksum of a byte slice: FNV-style xor-multiply over
/// little-endian 8-byte words, the zero-padded tail word and the length.
///
/// Used as the per-row guard tag of the end-to-end data protection path.
/// Every step is `state = (state ^ word) * odd`, a bijection of the state
/// for a fixed word and of the word for a fixed state — so two payloads of
/// one length that differ in a single word (a flipped bit, in the body or in
/// the tail bytes) leave that step in different states and every later step
/// keeps them apart: a single-bit flip *always* changes the digest, and
/// every injected corruption is detectable at IO completion. One multiply
/// covers eight bytes; the device stamps and the engine verifies this on
/// every read attempt.
///
/// # Example
///
/// ```
/// use scm_device::checksum64;
///
/// let mut row = vec![7u8; 67];
/// let guard = checksum64(&row);
/// row[66] ^= 0x10; // single bit flip in the 3-byte tail
/// assert_ne!(checksum64(&row), guard);
/// ```
pub fn checksum64(bytes: &[u8]) -> u64 {
    let step = |hash: u64, word: u64| (hash ^ word).wrapping_mul(CHECKSUM_PRIME);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        hash = step(hash, u64::from_le_bytes(le));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut le = [0u8; 8];
        le[..tail.len()].copy_from_slice(tail);
        hash = step(hash, u64::from_le_bytes(le));
    }
    step(hash, bytes.len() as u64)
}

/// A latency-storm window: reads issued at a virtual instant inside
/// `[start, end)` have their device latency multiplied.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultWindow {
    /// First instant of the storm (inclusive).
    pub start: SimInstant,
    /// End of the storm (exclusive).
    pub end: SimInstant,
    /// Multiplier applied to the device latency of reads issued inside the
    /// window. Values ≤ 1 leave the latency unchanged.
    pub latency_multiplier: f64,
}

impl FaultWindow {
    /// Whether the window covers the given instant.
    pub(crate) fn contains(&self, t: SimInstant) -> bool {
        self.start <= t && t < self.end
    }
}

/// Cumulative injection counters of one [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads failed with a transient (retryable) error.
    pub transient_errors: u64,
    /// Reads whose payload had a bit flipped after the guard checksum was
    /// taken.
    pub corruptions: u64,
    /// Reads stuck far past the normal service time.
    pub stuck: u64,
    /// Reads issued inside a latency-storm window.
    pub storm_reads: u64,
}

impl FaultStats {
    /// Total faults injected across all modes.
    pub fn total(&self) -> u64 {
        self.transient_errors + self.corruptions + self.stuck + self.storm_reads
    }

    /// Folds another plan's counters into this one (host-level reporting).
    pub fn merge(&mut self, other: &FaultStats) {
        self.transient_errors += other.transient_errors;
        self.corruptions += other.corruptions;
        self.stuck += other.stuck;
        self.storm_reads += other.storm_reads;
    }
}

/// What the plan decided for one read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultDecision {
    /// Fail the read with a transient error (preempts everything else).
    pub transient_error: bool,
    /// Pin the read's latency to at least the plan's stuck latency.
    pub stuck: bool,
    /// Flip one payload bit after the guard checksum is taken.
    pub corrupt: bool,
    /// Latency multiplier from the active storm window (1.0 outside).
    pub storm_multiplier: f64,
}

/// A seeded, deterministic per-device fault schedule.
///
/// Rates are per-read probabilities in `[0, 1]`; out-of-range values are
/// clamped. The probability draws happen in a fixed order on every read, so
/// the fault sequence depends only on the seed and the IO sequence — not on
/// which faults actually fired.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    transient_error_rate: f64,
    corrupt_rate: f64,
    stuck_rate: f64,
    stuck_latency: SimDuration,
    storms: Vec<FaultWindow>,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultPlan {
    /// Creates an empty plan (injects nothing) with a pinned RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            transient_error_rate: 0.0,
            corrupt_rate: 0.0,
            stuck_rate: 0.0,
            stuck_latency: SimDuration::from_millis(50),
            storms: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: FaultStats::default(),
        }
    }

    /// Sets the per-read probability of a transient (retryable) error.
    #[must_use]
    pub fn with_transient_errors(mut self, rate: f64) -> Self {
        self.transient_error_rate = clamp_rate(rate);
        self
    }

    /// Sets the per-read probability of a single-bit payload corruption.
    #[must_use]
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = clamp_rate(rate);
        self
    }

    /// Sets the per-read probability of a stuck IO and the latency such an
    /// IO hangs for (the read completes, but only after `latency` — far
    /// past any per-IO deadline the engine enforces).
    #[must_use]
    pub fn with_stuck(mut self, rate: f64, latency: SimDuration) -> Self {
        self.stuck_rate = clamp_rate(rate);
        self.stuck_latency = latency;
        self
    }

    /// Adds a latency-storm window: reads issued in `[start, end)` have
    /// their latency multiplied by `latency_multiplier`.
    #[must_use]
    pub fn with_storm(
        mut self,
        start: SimInstant,
        end: SimInstant,
        latency_multiplier: f64,
    ) -> Self {
        self.storms.push(FaultWindow {
            start,
            end,
            latency_multiplier,
        });
        self
    }

    /// Cumulative injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The latency a stuck IO hangs for.
    pub(crate) fn stuck_latency(&self) -> SimDuration {
        self.stuck_latency
    }

    /// Decides the fate of one read issued at virtual instant `now`.
    ///
    /// Always draws the same number of probability samples so the RNG
    /// stream stays aligned with the IO sequence regardless of outcomes.
    pub(crate) fn decide(&mut self, now: SimInstant) -> FaultDecision {
        let transient_error = self.rng.gen_bool(self.transient_error_rate);
        let stuck = self.rng.gen_bool(self.stuck_rate);
        let corrupt = self.rng.gen_bool(self.corrupt_rate);
        let storm_multiplier = self
            .storms
            .iter()
            .find(|w| w.contains(now))
            .map_or(1.0, |w| w.latency_multiplier);
        if transient_error {
            self.stats.transient_errors += 1;
            return FaultDecision {
                transient_error: true,
                stuck: false,
                corrupt: false,
                storm_multiplier: 1.0,
            };
        }
        if storm_multiplier > 1.0 {
            self.stats.storm_reads += 1;
        }
        if stuck {
            self.stats.stuck += 1;
        }
        if corrupt {
            self.stats.corruptions += 1;
        }
        FaultDecision {
            transient_error: false,
            stuck,
            corrupt,
            storm_multiplier,
        }
    }

    /// Picks the payload bit to flip for a corrupted read of `len` bytes.
    pub(crate) fn corrupt_bit(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "corrupting an empty payload");
        self.rng.gen_range(0..len.max(1) * 8)
    }
}

fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data: Vec<u8> = (0..255u8).collect();
        let guard = checksum64(&data);
        for byte in [0usize, 17, 254] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), guard, "flip {byte}:{bit} missed");
            }
        }
        assert_eq!(checksum64(&data), guard);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_at_every_length() {
        // Exhaustive over every bit of every payload length 1..=40, which
        // covers empty/partial/full tail words and multi-word bodies.
        for len in 1..=40usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let guard = checksum64(&data);
            for bit in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), guard, "len {len}: flip {bit} missed");
            }
            assert_eq!(checksum64(&data), guard);
        }
        // Zero padding of the tail must not alias a longer payload.
        assert_ne!(checksum64(&[1, 2, 3]), checksum64(&[1, 2, 3, 0]));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut plan = FaultPlan::new(7);
        for i in 0..1_000u64 {
            let d = plan.decide(SimInstant::from_nanos(i));
            assert!(!d.transient_error && !d.stuck && !d.corrupt);
            assert_eq!(d.storm_multiplier, 1.0);
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn identical_seeds_replay_identical_decisions() {
        let build = || {
            FaultPlan::new(42)
                .with_transient_errors(0.1)
                .with_corruption(0.05)
                .with_stuck(0.02, SimDuration::from_millis(10))
                .with_storm(
                    SimInstant::from_nanos(100),
                    SimInstant::from_nanos(500),
                    4.0,
                )
        };
        let mut a = build();
        let mut b = build();
        for i in 0..2_000u64 {
            assert_eq!(
                a.decide(SimInstant::from_nanos(i)),
                b.decide(SimInstant::from_nanos(i))
            );
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "rates this high must fire");
    }

    #[test]
    fn storm_windows_cover_only_their_interval() {
        let mut plan = FaultPlan::new(1).with_storm(
            SimInstant::from_nanos(10),
            SimInstant::from_nanos(20),
            8.0,
        );
        assert_eq!(plan.decide(SimInstant::from_nanos(9)).storm_multiplier, 1.0);
        assert_eq!(
            plan.decide(SimInstant::from_nanos(10)).storm_multiplier,
            8.0
        );
        assert_eq!(
            plan.decide(SimInstant::from_nanos(19)).storm_multiplier,
            8.0
        );
        assert_eq!(
            plan.decide(SimInstant::from_nanos(20)).storm_multiplier,
            1.0
        );
        assert_eq!(plan.stats().storm_reads, 2);
    }

    #[test]
    fn rates_are_clamped() {
        let plan = FaultPlan::new(3)
            .with_transient_errors(7.0)
            .with_corruption(-2.0)
            .with_stuck(f64::NAN, SimDuration::from_millis(1));
        assert_eq!(plan.transient_error_rate, 1.0);
        assert_eq!(plan.corrupt_rate, 0.0);
        assert_eq!(plan.stuck_rate, 0.0);
    }

    #[test]
    fn corrupt_bit_stays_in_payload() {
        let mut plan = FaultPlan::new(9).with_corruption(1.0);
        for _ in 0..100 {
            assert!(plan.corrupt_bit(16) < 128);
        }
    }
}
