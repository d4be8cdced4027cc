//! Capacity, bandwidth and IOPS analysis (paper §2.2, Equations 1–2 and 8,
//! Figure 1).

use crate::config::ModelConfig;
use embedding::{TableDescriptor, TableId, TableKind};
use sdm_metrics::units::Bytes;

/// Capacity split between user-side and item-side embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySummary {
    /// Bytes held by user tables.
    pub user: Bytes,
    /// Bytes held by item tables.
    pub item: Bytes,
}

impl CapacitySummary {
    /// Total embedding capacity.
    pub(crate) fn total(&self) -> Bytes {
        self.user + self.item
    }

    /// Fraction of the capacity held by user tables (0 when empty).
    pub fn user_fraction(&self) -> f64 {
        let total = self.total().as_u64();
        if total == 0 {
            0.0
        } else {
            self.user.as_u64() as f64 / total as f64
        }
    }
}

/// Computes the user/item capacity split of a table set.
pub fn capacity_summary(tables: &[TableDescriptor]) -> CapacitySummary {
    let mut user = Bytes::ZERO;
    let mut item = Bytes::ZERO;
    for t in tables {
        match t.kind {
            TableKind::User => user += t.capacity(),
            TableKind::Item => item += t.capacity(),
        }
    }
    CapacitySummary { user, item }
}

/// One point of the Figure 1 scatter plot: a table's capacity against the
/// bytes it contributes to each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDemand {
    /// The table.
    pub table: TableId,
    /// Whether it is a user or item table.
    pub kind: TableKind,
    /// Table capacity (Figure 1 x-axis).
    pub capacity: Bytes,
    /// Bytes read from this table per query (Figure 1 y-axis).
    pub bytes_per_query: Bytes,
}

/// Computes the Figure 1 scatter data for a model.
pub fn table_demands(model: &ModelConfig) -> Vec<TableDemand> {
    model
        .tables
        .iter()
        .map(|t| TableDemand {
            table: t.id,
            kind: t.kind,
            capacity: t.capacity(),
            bytes_per_query: t.bytes_per_query(model.item_batch),
        })
        .collect()
}

/// Fraction of the model capacity that needs at most `bytes_per_query`
/// bandwidth — the "majority of capacity requires low BW" observation under
/// Figure 1.
pub fn capacity_fraction_below_demand(model: &ModelConfig, bytes_per_query: Bytes) -> f64 {
    let total = model.embedding_capacity().as_u64();
    if total == 0 {
        return 0.0;
    }
    let low: u64 = table_demands(model)
        .iter()
        .filter(|d| d.bytes_per_query <= bytes_per_query)
        .map(|d| d.capacity.as_u64())
        .sum();
    low as f64 / total as f64
}

/// IOPS demanded from slow memory when the given tables live there
/// (Equation 8): `QPS * Σ p_i` over the SM-resident tables, scaled by each
/// table's per-query batch.
pub fn iops_requirement<'a>(
    tables: impl IntoIterator<Item = &'a TableDescriptor>,
    qps: f64,
    item_batch: u32,
) -> f64 {
    let lookups: u64 = tables
        .into_iter()
        .map(|t| t.lookups_per_query(item_batch))
        .sum();
    qps * lookups as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_zoo;

    #[test]
    fn user_tables_dominate_capacity() {
        let m = model_zoo::m1();
        let s = capacity_summary(&m.tables);
        assert!(s.user_fraction() > 0.6);
        assert_eq!(s.total(), m.embedding_capacity());
        assert_eq!(capacity_summary(&[]).user_fraction(), 0.0);
    }

    #[test]
    fn figure1_majority_of_capacity_needs_low_bandwidth() {
        // Paper Figure 1: most of the capacity (user tables) contributes few
        // bytes per query compared to the worst (item) tables.
        let m = model_zoo::figure1_model();
        let demands = table_demands(&m);
        assert_eq!(demands.len(), m.tables.len());
        let max_demand = demands.iter().map(|d| d.bytes_per_query).max().unwrap();
        let threshold = Bytes(max_demand.as_u64() / 10);
        let low_bw_capacity = capacity_fraction_below_demand(&m, threshold);
        assert!(
            low_bw_capacity > 0.5,
            "only {low_bw_capacity} of capacity is low-BW"
        );
    }

    #[test]
    fn item_tables_need_more_bytes_per_query_than_user_tables() {
        let m = model_zoo::m2();
        let demands = table_demands(&m);
        let avg = |kind: TableKind| {
            let ds: Vec<&TableDemand> = demands.iter().filter(|d| d.kind == kind).collect();
            ds.iter().map(|d| d.bytes_per_query.as_u64()).sum::<u64>() as f64 / ds.len() as f64
        };
        assert!(avg(TableKind::Item) > 3.0 * avg(TableKind::User));
    }

    #[test]
    fn m1_iops_matches_paper_sizing() {
        // Paper §5.1: 120 QPS × ~50 user tables × avg PF 42 ≈ 246K IOPS.
        let m = model_zoo::m1();
        let user_tables = m.user_tables();
        let raw = iops_requirement(user_tables.iter().copied(), 120.0, m.item_batch);
        assert!(raw > 150_000.0 && raw < 450_000.0, "raw = {raw}");
    }

    #[test]
    fn m2_iops_matches_paper_sizing() {
        // Paper §5.2: 450 QPS × 450 tables × avg PF 25 ≈ 4.8M IOPS raw.
        let m = model_zoo::m2();
        let raw = iops_requirement(m.user_tables().iter().copied(), 450.0, m.item_batch);
        assert!(raw > 3.0e6 && raw < 7.0e6, "raw = {raw}");
    }
}
