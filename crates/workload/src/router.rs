//! Query routing across serving hosts.
//!
//! Inference queries pass through a scheduler/aggregator that picks a host
//! for ranking. The paper observes (Figure 4c) that the temporal locality
//! seen *by one host* is higher than the global trace, and that a
//! user-to-host sticky policy increases the per-host cache hit rate further,
//! because each user's (repeating) index sequences always land on the same
//! host.

use crate::query::Query;
use crate::trace::AccessTrace;
use serde::{Deserialize, Serialize};

/// How the scheduler assigns queries to hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RoutingPolicy {
    /// Spread queries evenly regardless of the user.
    RoundRobin,
    /// Hash the user id to a host, so a user always lands on the same host.
    #[default]
    UserSticky,
}

/// The query scheduler / aggregator in front of a pool of serving hosts.
#[derive(Debug, Clone)]
pub struct Scheduler {
    hosts: usize,
    policy: RoutingPolicy,
    next_rr: u64,
}

impl Scheduler {
    /// Creates a scheduler over `hosts` serving hosts (minimum 1).
    pub fn new(hosts: usize, policy: RoutingPolicy) -> Self {
        Scheduler {
            hosts: hosts.max(1),
            policy,
            next_rr: 0,
        }
    }

    /// Number of hosts behind the scheduler.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The routing policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Picks the host for a query.
    pub fn route(&mut self, query: &Query) -> usize {
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let host = (self.next_rr % self.hosts as u64) as usize;
                self.next_rr += 1;
                host
            }
            RoutingPolicy::UserSticky => {
                let mut x = query.user_id ^ 0x243f_6a88_85a3_08d3;
                x ^= x >> 31;
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x >> 29;
                (x % self.hosts as u64) as usize
            }
        }
    }

    /// Partitions a stream of queries into per-host access traces.
    pub fn per_host_traces(&mut self, queries: &[Query]) -> Vec<AccessTrace> {
        let mut traces = vec![AccessTrace::new(); self.hosts];
        for q in queries {
            let host = self.route(q);
            traces[host].record_query(q);
        }
        traces
    }

    /// Partitions a *selection* of queries — `picks` holds positions within
    /// `queries` — into per-host lists, reusing inner `Vec` capacity.
    ///
    /// Two parallel outputs are filled per host: `exec_parts` holds the
    /// global positions within `queries` (what a shard executes) and
    /// `pick_parts` the positions within `picks` (where the caller merges
    /// each result back). Picks are visited in order, so each host's lists
    /// keep selection order. Sharded serving partitions every batch this
    /// way — a whole stream is the identity selection — and stays
    /// allocation-free once the buffers are warmed.
    pub fn partition_picks_into(
        &mut self,
        queries: &[Query],
        picks: &[usize],
        exec_parts: &mut Vec<Vec<usize>>,
        pick_parts: &mut Vec<Vec<usize>>,
    ) {
        exec_parts.resize_with(self.hosts, Vec::new);
        pick_parts.resize_with(self.hosts, Vec::new);
        for p in exec_parts.iter_mut().chain(pick_parts.iter_mut()) {
            p.clear();
        }
        for (pos, &qi) in picks.iter().enumerate() {
            let host = self.route(&queries[qi]);
            exec_parts[host].push(qi);
            pick_parts[host].push(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::locality_report;
    use crate::query::{QueryGenerator, WorkloadConfig};
    use embedding::{TableDescriptor, TableKind};

    fn tables() -> Vec<TableDescriptor> {
        vec![
            TableDescriptor::new(0, "u", TableKind::User, 20_000, 16)
                .with_pooling_factor(10)
                .with_zipf_exponent(0.7),
            TableDescriptor::new(1, "i", TableKind::Item, 20_000, 16)
                .with_pooling_factor(4)
                .with_zipf_exponent(1.0),
        ]
    }

    /// The reference partition, straight from [`Scheduler::route`]: each
    /// query's position lands in its host's list, in stream order.
    fn reference_partition(sched: &mut Scheduler, queries: &[Query]) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); sched.hosts()];
        for (i, q) in queries.iter().enumerate() {
            parts[sched.route(q)].push(i);
        }
        parts
    }

    /// Partitions the identity selection of `queries`.
    fn partition_all(sched: &mut Scheduler, queries: &[Query]) -> Vec<Vec<usize>> {
        let identity: Vec<usize> = (0..queries.len()).collect();
        let (mut exec, mut pos) = (Vec::new(), Vec::new());
        sched.partition_picks_into(queries, &identity, &mut exec, &mut pos);
        // On the identity selection, pick positions equal global positions.
        assert_eq!(pos, exec);
        exec
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 1).unwrap();
        let queries = gen.generate(100);
        let mut sched = Scheduler::new(4, RoutingPolicy::RoundRobin);
        let parts = partition_all(&mut sched, &queries);
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.len(), 25);
        }
    }

    #[test]
    fn sticky_routing_sends_a_user_to_one_host() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 2).unwrap();
        let queries = gen.generate(200);
        let mut sched = Scheduler::new(8, RoutingPolicy::UserSticky);
        let mut user_to_host: std::collections::HashMap<u64, usize> = Default::default();
        for q in &queries {
            let host = sched.route(q);
            if let Some(&prev) = user_to_host.get(&q.user_id) {
                assert_eq!(prev, host, "user {} moved hosts", q.user_id);
            }
            user_to_host.insert(q.user_id, host);
        }
        assert_eq!(sched.hosts(), 8);
        assert_eq!(sched.policy(), RoutingPolicy::UserSticky);
    }

    #[test]
    fn per_host_traces_cover_every_access() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 3).unwrap();
        let queries = gen.generate(60);
        let total: u64 = queries.iter().map(|q| q.total_lookups() as u64).sum();
        let mut sched = Scheduler::new(3, RoutingPolicy::UserSticky);
        let traces = sched.per_host_traces(&queries);
        let sum: u64 = traces.iter().map(|t| t.len()).sum();
        assert_eq!(sum, total);
    }

    #[test]
    fn sticky_routing_raises_per_host_user_table_locality() {
        // Reproduces the Figure 4c observation qualitatively: with a
        // user-sticky policy all of a user's (identical, repeating) index
        // sequences land on the same host, so the per-host re-reference rate
        // on user tables is higher than with user-oblivious round-robin
        // routing.
        let cfg = WorkloadConfig {
            user_population: 2_000,
            user_zipf_exponent: 0.9,
            item_batch: 10,
            inference_eval: false,
        };
        let mut gen = QueryGenerator::new(&tables(), cfg, 7).unwrap();
        let queries = gen.generate(2_000);

        let reuse_rate = |trace: &AccessTrace| -> f64 {
            let accesses = trace.table_accesses(0);
            if accesses.is_empty() {
                return 0.0;
            }
            let unique: std::collections::HashSet<u64> = accesses.iter().copied().collect();
            1.0 - unique.len() as f64 / accesses.len() as f64
        };
        let mean_reuse = |traces: &[AccessTrace]| -> f64 {
            let rates: Vec<f64> = traces
                .iter()
                .filter(|t| !t.table_accesses(0).is_empty())
                .map(reuse_rate)
                .collect();
            rates.iter().sum::<f64>() / rates.len() as f64
        };

        let sticky = Scheduler::new(16, RoutingPolicy::UserSticky).per_host_traces(&queries);
        let rr = Scheduler::new(16, RoutingPolicy::RoundRobin).per_host_traces(&queries);
        let sticky_reuse = mean_reuse(&sticky);
        let rr_reuse = mean_reuse(&rr);
        assert!(
            sticky_reuse > rr_reuse,
            "sticky {sticky_reuse} <= round-robin {rr_reuse}"
        );

        // The global trace is still skewed (power-law users and rows).
        let global = AccessTrace::from_queries(&queries);
        assert!(locality_report(global.table_accesses(0)).is_skewed());
    }

    #[test]
    fn zero_hosts_clamped_to_one() {
        let sched = Scheduler::new(0, RoutingPolicy::RoundRobin);
        assert_eq!(sched.hosts(), 1);
    }

    #[test]
    fn partition_picks_match_the_reference_and_reuse_buffers() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 7).unwrap();
        let queries = gen.generate(80);
        let expected =
            reference_partition(&mut Scheduler::new(5, RoutingPolicy::UserSticky), &queries);
        let identity: Vec<usize> = (0..queries.len()).collect();
        let (mut exec, mut pos) = (Vec::new(), Vec::new());
        // Two rounds over the same stream: the second must refill the same
        // buffers (same results, no extra inner vectors).
        for _ in 0..2 {
            Scheduler::new(5, RoutingPolicy::UserSticky)
                .partition_picks_into(&queries, &identity, &mut exec, &mut pos);
            assert_eq!(exec, expected);
            assert_eq!(pos, expected);
        }
    }

    #[test]
    fn partition_picks_preserve_stream_order_and_cover_all() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 6).unwrap();
        let queries = gen.generate(100);
        for policy in [RoutingPolicy::RoundRobin, RoutingPolicy::UserSticky] {
            let parts = partition_all(&mut Scheduler::new(3, policy), &queries);
            assert_eq!(parts.len(), 3);
            // Every query appears exactly once, and each part is sorted
            // (queries are visited in stream order).
            let mut seen = vec![false; queries.len()];
            for part in &parts {
                assert!(part.windows(2).all(|w| w[0] < w[1]));
                for &i in part {
                    assert!(!seen[i], "query {i} assigned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn partition_picks_cover_a_strict_subset_once() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 9).unwrap();
        let queries = gen.generate(90);
        let picks: Vec<usize> = (0..queries.len()).step_by(3).collect();
        let (mut exec, mut pos) = (Vec::new(), Vec::new());
        Scheduler::new(4, RoutingPolicy::UserSticky)
            .partition_picks_into(&queries, &picks, &mut exec, &mut pos);
        let mut seen = vec![false; picks.len()];
        for (exec_part, pos_part) in exec.iter().zip(&pos) {
            assert_eq!(exec_part.len(), pos_part.len());
            for (&qi, &p) in exec_part.iter().zip(pos_part) {
                assert_eq!(picks[p], qi);
                assert!(!seen[p], "pick {p} assigned twice");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
