//! Access traces: flat per-table streams of row accesses derived from
//! queries, used by the locality analysis.

use crate::query::Query;
use embedding::TableId;
use std::collections::HashMap;

/// A recorded stream of row accesses, grouped by table, in arrival order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    accesses: HashMap<TableId, Vec<u64>>,
    total: u64,
}

impl AccessTrace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        AccessTrace::default()
    }

    /// Records one row access.
    pub(crate) fn record(&mut self, table: TableId, row: u64) {
        self.accesses.entry(table).or_default().push(row);
        self.total += 1;
    }

    /// Records every lookup of a query.
    pub(crate) fn record_query(&mut self, query: &Query) {
        for req in query.user_requests.iter().chain(query.item_requests.iter()) {
            for &idx in &req.indices {
                self.record(req.table, idx);
            }
        }
    }

    /// Builds a trace from a set of queries.
    pub fn from_queries<'a>(queries: impl IntoIterator<Item = &'a Query>) -> Self {
        let mut trace = AccessTrace::new();
        for q in queries {
            trace.record_query(q);
        }
        trace
    }

    /// The access stream of one table (empty slice when absent).
    pub fn table_accesses(&self, table: TableId) -> &[u64] {
        self.accesses
            .get(&table)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total accesses across all tables.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryGenerator, WorkloadConfig};
    use embedding::{TableDescriptor, TableKind};

    #[test]
    fn record_and_lookup() {
        let mut t = AccessTrace::new();
        assert!(t.is_empty());
        t.record(3, 10);
        t.record(3, 11);
        t.record(5, 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.table_accesses(5), &[2]);
        assert_eq!(t.table_accesses(3), &[10, 11]);
        assert!(t.table_accesses(99).is_empty());
    }

    #[test]
    fn from_queries_counts_every_lookup() {
        let tables = vec![
            TableDescriptor::new(0, "u", TableKind::User, 100, 8).with_pooling_factor(4),
            TableDescriptor::new(1, "i", TableKind::Item, 100, 8).with_pooling_factor(2),
        ];
        let cfg = WorkloadConfig {
            item_batch: 3,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&tables, cfg, 0).unwrap();
        let queries = gen.generate(10);
        let trace = AccessTrace::from_queries(&queries);
        let expected: usize = queries.iter().map(|q| q.total_lookups()).sum();
        assert_eq!(trace.len(), expected as u64);
    }
}
