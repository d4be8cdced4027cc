//! Query generation: user/item embedding requests per inference query.

use crate::error::WorkloadError;
use crate::zipf::ZipfSampler;
use embedding::{TableDescriptor, TableId, TableKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One pooled-embedding lookup: a table plus the index sequence to pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbeddingRequest {
    /// The table to read.
    pub table: TableId,
    /// The row indices to pool (length ≈ the table's pooling factor).
    pub indices: Vec<u64>,
}

impl EmbeddingRequest {
    /// Number of row lookups in this request.
    pub fn lookups(&self) -> usize {
        self.indices.len()
    }
}

/// One inference query: the user-side requests (batch 1) and the item-side
/// requests (one per table per ranked item).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Monotonically increasing query id.
    pub id: u64,
    /// The user issuing the query (drives sticky routing and sequence
    /// repetition).
    pub user_id: u64,
    /// User-side embedding requests, one per user table.
    pub user_requests: Vec<EmbeddingRequest>,
    /// Item-side embedding requests, one per item table per ranked item.
    pub item_requests: Vec<EmbeddingRequest>,
    /// Number of items ranked by this query.
    pub item_batch: u32,
}

impl Query {
    /// Total row lookups across user and item requests.
    pub fn total_lookups(&self) -> usize {
        self.user_requests
            .iter()
            .chain(self.item_requests.iter())
            .map(|r| r.lookups())
            .sum()
    }
}

/// Parameters of the synthetic query stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of ranked items per query (`B_I`, tens to thousands).
    pub item_batch: u32,
    /// Number of distinct users in the population.
    pub user_population: u64,
    /// Zipf exponent of user popularity (how often the same user reappears;
    /// this is what makes full index sequences repeat).
    pub user_zipf_exponent: f64,
    /// Use-case flavour: inference (user batch 1) vs inference-eval
    /// (user batch == item batch), paper Table 2.
    pub inference_eval: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            item_batch: 50,
            user_population: 100_000,
            user_zipf_exponent: 0.8,
            inference_eval: false,
        }
    }
}

impl WorkloadConfig {
    /// A heavily skewed stream: a small user population under a steep Zipf
    /// exponent, so a compact set of hot users (and through them hot
    /// per-table index sequences) dominates the stream. This is the
    /// workload shape under which cross-shard row reuse shows up — the
    /// same hot rows are requested on *every* shard no matter how queries
    /// are routed — making it the standard stream for shared-tier
    /// measurements and tests.
    pub fn skewed(user_population: u64, user_zipf_exponent: f64) -> Self {
        WorkloadConfig {
            user_population,
            user_zipf_exponent,
            ..WorkloadConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for zero batches or
    /// populations.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.item_batch == 0 {
            return Err(WorkloadError::InvalidConfig {
                reason: "item_batch must be at least 1".into(),
            });
        }
        if self.user_population == 0 {
            return Err(WorkloadError::InvalidConfig {
                reason: "user_population must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Deterministic query generator over a set of table descriptors.
///
/// User-table index sequences are a pure function of `(user_id, table)`, so
/// repeated users repeat their full sequences — the behaviour the
/// pooled-embedding cache exploits. Item-table sequences are drawn fresh per
/// ranked item from the table's Zipf popularity distribution.
#[derive(Debug)]
pub struct QueryGenerator {
    user_tables: Vec<TableDescriptor>,
    item_tables: Vec<TableDescriptor>,
    user_samplers: Vec<ZipfSampler>,
    item_samplers: Vec<ZipfSampler>,
    user_popularity: ZipfSampler,
    config: WorkloadConfig,
    rng: StdRng,
    next_id: u64,
}

impl QueryGenerator {
    /// Creates a generator for the given tables.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::NoTables`] when `tables` is empty and
    /// propagates configuration errors.
    pub fn new(
        tables: &[TableDescriptor],
        config: WorkloadConfig,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        if tables.is_empty() {
            return Err(WorkloadError::NoTables);
        }
        config.validate()?;
        let user_tables: Vec<TableDescriptor> = tables
            .iter()
            .filter(|t| t.kind == TableKind::User)
            .cloned()
            .collect();
        let item_tables: Vec<TableDescriptor> = tables
            .iter()
            .filter(|t| t.kind == TableKind::Item)
            .cloned()
            .collect();
        let make_samplers = |ts: &[TableDescriptor]| -> Result<Vec<ZipfSampler>, WorkloadError> {
            ts.iter()
                .map(|t| ZipfSampler::new(t.num_rows, t.zipf_exponent, seed ^ t.id as u64))
                .collect()
        };
        let user_samplers = make_samplers(&user_tables)?;
        let item_samplers = make_samplers(&item_tables)?;
        let user_popularity = ZipfSampler::new(
            config.user_population,
            config.user_zipf_exponent,
            seed ^ 0xabcd,
        )?;
        Ok(QueryGenerator {
            user_tables,
            item_tables,
            user_samplers,
            item_samplers,
            user_popularity,
            config,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        })
    }

    /// The user-side table descriptors.
    pub fn user_tables(&self) -> &[TableDescriptor] {
        &self.user_tables
    }

    /// The item-side table descriptors.
    pub fn item_tables(&self) -> &[TableDescriptor] {
        &self.item_tables
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Index sequence a given user produces for a given user table. This is
    /// a pure function: the same `(user, table)` pair always produces the
    /// same sequence.
    fn user_sequence(&self, user_id: u64, table_pos: usize) -> Vec<u64> {
        let table = &self.user_tables[table_pos];
        let sampler = &self.user_samplers[table_pos];
        let mut user_rng = StdRng::seed_from_u64(user_id ^ ((table.id as u64) << 32) ^ 0x51ab);
        sampler.sample_many(&mut user_rng, table.pooling_factor as usize)
    }

    /// Generates the next query.
    pub fn next_query(&mut self) -> Query {
        let id = self.next_id;
        self.next_id += 1;
        let user_id = self.user_popularity.sample(&mut self.rng);

        let user_batch = if self.config.inference_eval {
            self.config.item_batch
        } else {
            1
        };
        let mut user_requests = Vec::with_capacity(self.user_tables.len() * user_batch as usize);
        for _ in 0..user_batch {
            for pos in 0..self.user_tables.len() {
                user_requests.push(EmbeddingRequest {
                    table: self.user_tables[pos].id,
                    indices: self.user_sequence(user_id, pos),
                });
            }
        }

        let mut item_requests =
            Vec::with_capacity(self.item_tables.len() * self.config.item_batch as usize);
        for _ in 0..self.config.item_batch {
            for (pos, table) in self.item_tables.iter().enumerate() {
                let indices = self.item_samplers[pos]
                    .sample_many(&mut self.rng, table.pooling_factor as usize);
                item_requests.push(EmbeddingRequest {
                    table: table.id,
                    indices,
                });
            }
        }

        Query {
            id,
            user_id,
            user_requests,
            item_requests,
            item_batch: self.config.item_batch,
        }
    }

    /// Generates a batch of queries.
    pub fn generate(&mut self, count: usize) -> Vec<Query> {
        (0..count).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> Vec<TableDescriptor> {
        vec![
            TableDescriptor::new(0, "user_a", TableKind::User, 5_000, 32).with_pooling_factor(20),
            TableDescriptor::new(1, "user_b", TableKind::User, 2_000, 16).with_pooling_factor(10),
            TableDescriptor::new(2, "item_a", TableKind::Item, 8_000, 32).with_pooling_factor(5),
        ]
    }

    #[test]
    fn skewed_config_concentrates_users() {
        let cfg = WorkloadConfig::skewed(32, 1.2);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.user_population, 32);
        assert!((cfg.user_zipf_exponent - 1.2).abs() < 1e-12);
        // A skewed stream repeats its hot users far more often than the
        // default stream: count distinct users over a short window.
        let mut gen = QueryGenerator::new(&tables(), cfg, 7).unwrap();
        let queries = gen.generate(200);
        let distinct: std::collections::HashSet<u64> = queries.iter().map(|q| q.user_id).collect();
        assert!(
            distinct.len() < 33,
            "{} distinct users from a population of 32",
            distinct.len()
        );
    }

    #[test]
    fn empty_tables_rejected() {
        assert!(matches!(
            QueryGenerator::new(&[], WorkloadConfig::default(), 0),
            Err(WorkloadError::NoTables)
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = WorkloadConfig {
            item_batch: 0,
            ..Default::default()
        };
        assert!(QueryGenerator::new(&tables(), cfg, 0).is_err());
        let cfg = WorkloadConfig {
            user_population: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn query_shape_matches_batching_rules() {
        let cfg = WorkloadConfig {
            item_batch: 7,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&tables(), cfg, 1).unwrap();
        let q = gen.next_query();
        // 2 user tables, user batch 1.
        assert_eq!(q.user_requests.len(), 2);
        // 1 item table * 7 items.
        assert_eq!(q.item_requests.len(), 7);
        assert_eq!(q.item_batch, 7);
        assert_eq!(q.user_requests[0].lookups(), 20);
        assert_eq!(q.user_requests[1].lookups(), 10);
        assert_eq!(q.item_requests[0].lookups(), 5);
        assert_eq!(q.total_lookups(), 20 + 10 + 7 * 5);
    }

    #[test]
    fn inference_eval_uses_matching_user_batch() {
        let cfg = WorkloadConfig {
            item_batch: 4,
            inference_eval: true,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&tables(), cfg, 1).unwrap();
        let q = gen.next_query();
        assert_eq!(q.user_requests.len(), 2 * 4);
    }

    #[test]
    fn same_user_repeats_identical_sequences() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 3).unwrap();
        // Find two queries from the same user.
        let queries = gen.generate(300);
        let mut by_user: std::collections::HashMap<u64, Vec<&Query>> = Default::default();
        for q in &queries {
            by_user.entry(q.user_id).or_default().push(q);
        }
        let repeated = by_user
            .values()
            .find(|v| v.len() >= 2)
            .expect("no repeated user");
        assert_eq!(
            repeated[0].user_requests[0].indices,
            repeated[1].user_requests[0].indices
        );
        // Item sequences are not repeated.
        assert_ne!(
            repeated[0].item_requests[0].indices,
            repeated[1].item_requests[0].indices
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = QueryGenerator::new(&tables(), WorkloadConfig::default(), 9).unwrap();
        let mut b = QueryGenerator::new(&tables(), WorkloadConfig::default(), 9).unwrap();
        let mut c = QueryGenerator::new(&tables(), WorkloadConfig::default(), 10).unwrap();
        assert_eq!(a.generate(5), b.generate(5));
        assert_ne!(a.generate(5), c.generate(5));
    }

    #[test]
    fn indices_stay_within_tables() {
        let mut gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 2).unwrap();
        for q in gen.generate(50) {
            for r in q.user_requests.iter().chain(q.item_requests.iter()) {
                let table = tables().iter().find(|t| t.id == r.table).unwrap().clone();
                assert!(r.indices.iter().all(|&i| i < table.num_rows));
            }
        }
    }

    #[test]
    fn accessors_expose_partitioned_tables() {
        let gen = QueryGenerator::new(&tables(), WorkloadConfig::default(), 2).unwrap();
        assert_eq!(gen.user_tables().len(), 2);
        assert_eq!(gen.item_tables().len(), 1);
        assert_eq!(gen.config().item_batch, 50);
    }
}
