//! Serving-path statistics for the SDM memory manager.

use sdm_metrics::units::Bytes;
use sdm_metrics::{LatencyHistogram, SimDuration};

/// Cumulative statistics of the SDM serving path.
#[derive(Debug, Clone, Default)]
pub struct SdmStats {
    /// Pooled vectors served: one per segment of a table-batched
    /// operator (one per embedding request).
    pub pooled_ops: u64,
    /// Pooled vectors answered entirely from the pooled-embedding cache.
    pub pooled_cache_hits: u64,
    /// Row lookups served from fast memory directly (FM-placed tables).
    pub fm_direct_lookups: u64,
    /// Row lookups that hit the FM row cache.
    pub row_cache_hits: u64,
    /// Row lookups that missed the private cache but hit the host-shared
    /// tier (served from another shard's — or an earlier — SM read).
    pub shared_tier_hits: u64,
    /// Shared-tier probes that missed (private miss and shared miss, so the
    /// row went to SM).
    pub shared_tier_misses: u64,
    /// Shared-tier hits whose entry was promoted by a *different* shard:
    /// the cross-shard reuse the tier exists to recover.
    pub shared_tier_cross_hits: u64,
    /// Rows promoted into the shared tier at IO completion.
    pub shared_tier_promotions: u64,
    /// Row lookups that missed the cache and went to SM.
    pub sm_reads: u64,
    /// Row lookups resolved to pruned (zero) rows without any access.
    pub pruned_zero_rows: u64,
    /// Payload bytes read from SM.
    pub sm_bytes_read: Bytes,
    /// Bytes that crossed the device links (includes read amplification).
    pub sm_bus_bytes: Bytes,
    /// Latency distribution of pooled vectors on SM-resident tables, one
    /// value per vector.
    pub sm_op_latency: LatencyHistogram,
    /// Latency distribution of pooled vectors on FM-resident tables, one
    /// value per vector.
    pub fm_op_latency: LatencyHistogram,
    /// Total simulated time spent in dequantisation + pooling.
    pub pooling_time: SimDuration,
    /// Total simulated time SM operators' cores waited on reads: for each
    /// completion, how far it landed after the core had pooled everything
    /// before it (zero when it landed while the core was still walking or
    /// pooling). Read time that overlaps the walk or pooling is not in it.
    pub io_time: SimDuration,
    /// Row lookups whose SM read exhausted every retry and were served
    /// degraded: the row pools as zero, like `pruned_zero_rows`, instead
    /// of failing the query. Always zero without injected faults.
    pub degraded_rows: u64,
    /// IO attempts re-issued by the engine's retry layer.
    pub io_retries: u64,
    /// IO attempts failed by transient device errors (all recovered or
    /// degraded; never surfaced as query failures).
    pub io_transient_errors: u64,
    /// IO attempts whose payload failed end-to-end checksum verification.
    /// Every detected corruption is retried or degraded — corrupted bytes
    /// are never pooled.
    pub io_checksum_failures: u64,
    /// IO attempts abandoned at the per-IO deadline.
    pub io_deadline_timeouts: u64,
    /// Hedged (duplicate) reads issued against slow primaries.
    pub io_hedges: u64,
    /// Hedged reads that won (completed cleanly before the primary).
    pub io_hedge_wins: u64,
    /// Batch partitions redirected away from an unhealthy shard by the
    /// host's failover routing.
    pub shard_failovers: u64,
}

impl SdmStats {
    /// Creates zeroed statistics.
    pub(crate) fn new() -> Self {
        SdmStats::default()
    }

    /// Folds another statistics block into this one: counters and byte
    /// totals add, histograms merge, simulated-time totals add.
    ///
    /// This is how a multi-shard host aggregates its per-shard serving
    /// statistics after the worker threads have joined — every shard owns
    /// its stats exclusively while serving, so aggregation needs no
    /// serving-path synchronisation.
    pub(crate) fn merge(&mut self, other: &SdmStats) {
        self.pooled_ops += other.pooled_ops;
        self.pooled_cache_hits += other.pooled_cache_hits;
        self.fm_direct_lookups += other.fm_direct_lookups;
        self.row_cache_hits += other.row_cache_hits;
        self.shared_tier_hits += other.shared_tier_hits;
        self.shared_tier_misses += other.shared_tier_misses;
        self.shared_tier_cross_hits += other.shared_tier_cross_hits;
        self.shared_tier_promotions += other.shared_tier_promotions;
        self.sm_reads += other.sm_reads;
        self.pruned_zero_rows += other.pruned_zero_rows;
        self.sm_bytes_read += other.sm_bytes_read;
        self.sm_bus_bytes += other.sm_bus_bytes;
        self.sm_op_latency.merge(&other.sm_op_latency);
        self.fm_op_latency.merge(&other.fm_op_latency);
        self.pooling_time += other.pooling_time;
        self.io_time += other.io_time;
        self.degraded_rows += other.degraded_rows;
        self.io_retries += other.io_retries;
        self.io_transient_errors += other.io_transient_errors;
        self.io_checksum_failures += other.io_checksum_failures;
        self.io_deadline_timeouts += other.io_deadline_timeouts;
        self.io_hedges += other.io_hedges;
        self.io_hedge_wins += other.io_hedge_wins;
        self.shard_failovers += other.shard_failovers;
    }

    /// Row-cache hit rate over SM-resident lookups.
    pub fn row_cache_hit_rate(&self) -> f64 {
        let lookups = self.row_cache_hits + self.shared_tier_hits + self.sm_reads;
        if lookups == 0 {
            0.0
        } else {
            self.row_cache_hits as f64 / lookups as f64
        }
    }

    /// Shared-tier hit rate over shared-tier probes (private-cache misses
    /// with the tier attached); zero before any probe.
    pub fn shared_tier_hit_rate(&self) -> f64 {
        let probes = self.shared_tier_hits + self.shared_tier_misses;
        if probes == 0 {
            0.0
        } else {
            self.shared_tier_hits as f64 / probes as f64
        }
    }

    /// Cross-shard share of shared-tier probes: hits served by a row
    /// another shard promoted. This is the reuse fully private per-shard
    /// caches cannot express; zero before any probe.
    pub fn shared_tier_cross_hit_rate(&self) -> f64 {
        let probes = self.shared_tier_hits + self.shared_tier_misses;
        if probes == 0 {
            0.0
        } else {
            self.shared_tier_cross_hits as f64 / probes as f64
        }
    }

    /// Pooled-embedding-cache hit rate over pooled vectors.
    pub fn pooled_cache_hit_rate(&self) -> f64 {
        if self.pooled_ops == 0 {
            0.0
        } else {
            self.pooled_cache_hits as f64 / self.pooled_ops as f64
        }
    }

    /// Read amplification observed on the SM path.
    pub fn read_amplification(&self) -> f64 {
        if self.sm_bytes_read.is_zero() {
            1.0
        } else {
            self.sm_bus_bytes.as_u64() as f64 / self.sm_bytes_read.as_u64() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = SdmStats::new();
        a.pooled_ops = 3;
        a.row_cache_hits = 5;
        a.sm_bytes_read = Bytes(100);
        a.io_time = SimDuration::from_micros(7);
        a.sm_op_latency.record(SimDuration::from_micros(10));
        let mut b = SdmStats::new();
        b.pooled_ops = 2;
        b.sm_reads = 4;
        b.sm_bytes_read = Bytes(50);
        b.io_time = SimDuration::from_micros(3);
        b.sm_op_latency.record(SimDuration::from_micros(20));
        b.sm_op_latency.record(SimDuration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.pooled_ops, 5);
        assert_eq!(a.row_cache_hits, 5);
        assert_eq!(a.sm_reads, 4);
        assert_eq!(a.sm_bytes_read, Bytes(150));
        assert_eq!(a.io_time, SimDuration::from_micros(10));
        assert_eq!(a.sm_op_latency.count(), 3);
        // `b` is unchanged.
        assert_eq!(b.pooled_ops, 2);
    }

    #[test]
    fn rates_handle_empty_and_populated() {
        let mut s = SdmStats::new();
        assert_eq!(s.row_cache_hit_rate(), 0.0);
        assert_eq!(s.pooled_cache_hit_rate(), 0.0);
        assert_eq!(s.read_amplification(), 1.0);

        s.row_cache_hits = 90;
        s.sm_reads = 10;
        s.pooled_ops = 20;
        s.pooled_cache_hits = 1;
        s.sm_bytes_read = Bytes(100);
        s.sm_bus_bytes = Bytes(400);
        assert!((s.row_cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.pooled_cache_hit_rate() - 0.05).abs() < 1e-12);
        assert!((s.read_amplification() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn resilience_counters_merge() {
        let mut s = SdmStats::new();
        s.row_cache_hits = 6;
        s.sm_reads = 2;
        s.pruned_zero_rows = 1;
        s.degraded_rows = 1;
        s.io_retries = 4;
        s.io_transient_errors = 3;
        s.io_checksum_failures = 2;
        s.io_deadline_timeouts = 1;
        s.io_hedges = 5;
        s.io_hedge_wins = 2;
        s.shard_failovers = 1;
        let mut merged = SdmStats::new();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.degraded_rows, 2);
        assert_eq!(merged.io_retries, 8);
        assert_eq!(merged.io_transient_errors, 6);
        assert_eq!(merged.io_checksum_failures, 4);
        assert_eq!(merged.io_deadline_timeouts, 2);
        assert_eq!(merged.io_hedges, 10);
        assert_eq!(merged.io_hedge_wins, 4);
        assert_eq!(merged.shard_failovers, 2);
    }

    #[test]
    fn shared_tier_rates_and_merge() {
        let mut s = SdmStats::new();
        assert_eq!(s.shared_tier_hit_rate(), 0.0);
        assert_eq!(s.shared_tier_cross_hit_rate(), 0.0);
        s.shared_tier_hits = 6;
        s.shared_tier_misses = 4;
        s.shared_tier_cross_hits = 3;
        s.shared_tier_promotions = 4;
        assert!((s.shared_tier_hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.shared_tier_cross_hit_rate() - 0.3).abs() < 1e-12);
        // Shared-tier hits count toward the row-lookup denominator.
        s.row_cache_hits = 10;
        s.sm_reads = 4;
        assert!((s.row_cache_hit_rate() - 0.5).abs() < 1e-12);
        let mut merged = SdmStats::new();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.shared_tier_hits, 12);
        assert_eq!(merged.shared_tier_misses, 8);
        assert_eq!(merged.shared_tier_cross_hits, 6);
        assert_eq!(merged.shared_tier_promotions, 8);
    }
}
