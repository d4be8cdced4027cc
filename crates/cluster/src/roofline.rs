//! Roofline throughput and fleet sizing (paper Equations 5 and 7).

use crate::error::ClusterError;

/// Per-query resource demand of a model on a given host type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDemand {
    /// Memory bandwidth per query, bytes.
    pub bytes_per_query: f64,
    /// Compute per query, FLOPs.
    pub flops_per_query: f64,
}

/// Resource supply of one host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSupply {
    /// Usable memory bandwidth, bytes/s.
    pub memory_bandwidth: f64,
    /// Usable compute, FLOP/s.
    pub compute: f64,
}

/// Equation 5: the QPS a host sustains is limited by whichever of bandwidth
/// and compute runs out first.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] when demand or supply is not
/// positive.
pub fn qps_per_host(demand: QueryDemand, supply: HostSupply) -> Result<f64, ClusterError> {
    if demand.bytes_per_query <= 0.0 || demand.flops_per_query <= 0.0 {
        return Err(ClusterError::InvalidParameter {
            name: "demand",
            reason: "bytes_per_query and flops_per_query must be positive".into(),
        });
    }
    if supply.memory_bandwidth <= 0.0 || supply.compute <= 0.0 {
        return Err(ClusterError::InvalidParameter {
            name: "supply",
            reason: "memory_bandwidth and compute must be positive".into(),
        });
    }
    Ok((supply.memory_bandwidth / demand.bytes_per_query)
        .min(supply.compute / demand.flops_per_query))
}

/// Equation 7: hosts needed to serve a total QPS with a per-host QPS.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] when `qps_per_host` is not
/// positive or `total_qps` is negative.
pub fn hosts_needed(total_qps: f64, qps_per_host: f64) -> Result<u64, ClusterError> {
    if qps_per_host <= 0.0 {
        return Err(ClusterError::InvalidParameter {
            name: "qps_per_host",
            reason: "must be positive".into(),
        });
    }
    if total_qps < 0.0 {
        return Err(ClusterError::InvalidParameter {
            name: "total_qps",
            reason: "must be non-negative".into(),
        });
    }
    Ok((total_qps / qps_per_host).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMAND: QueryDemand = QueryDemand {
        bytes_per_query: 10.0e6,
        flops_per_query: 2.0e9,
    };

    #[test]
    fn qps_takes_the_binding_constraint() {
        // Memory-bound host.
        let memory_bound = HostSupply {
            memory_bandwidth: 100.0e9,
            compute: 1.0e15,
        };
        assert!((qps_per_host(DEMAND, memory_bound).unwrap() - 10_000.0).abs() < 1.0);
        // Compute-bound host.
        let compute_bound = HostSupply {
            memory_bandwidth: 1.0e12,
            compute: 2.0e12,
        };
        assert!((qps_per_host(DEMAND, compute_bound).unwrap() - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn hosts_needed_rounds_up() {
        assert_eq!(hosts_needed(1000.0, 240.0).unwrap(), 5);
        assert_eq!(hosts_needed(0.0, 100.0).unwrap(), 0);
        assert!(hosts_needed(100.0, 0.0).is_err());
        assert!(hosts_needed(-1.0, 10.0).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let bad_supply = HostSupply {
            memory_bandwidth: 0.0,
            compute: 1.0,
        };
        assert!(qps_per_host(DEMAND, bad_supply).is_err());
        let bad_demand = QueryDemand {
            bytes_per_query: 0.0,
            flops_per_query: 1.0,
        };
        let ok_supply = HostSupply {
            memory_bandwidth: 1.0,
            compute: 1.0,
        };
        assert!(qps_per_host(bad_demand, ok_supply).is_err());
    }
}
