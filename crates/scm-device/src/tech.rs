//! SCM technology profiles (paper Table 1).

use sdm_metrics::units::{Bytes, RelativeCost};
use sdm_metrics::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which underlying memory/storage technology a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TechnologyKind {
    /// PCIe Nand Flash SSD.
    NandFlash,
    /// PCIe 3DXP (Optane) SSD.
    OptaneSsd,
    /// PCIe ZSSD (low-latency SLC Nand).
    Zssd,
    /// 3DXP on the DDR bus (Optane DIMM / App Direct).
    Dimm3dxp,
    /// 3DXP behind a CXL link.
    Cxl3dxp,
    /// Plain DRAM, used as the fast-memory reference point.
    Dram,
}

impl fmt::Display for TechnologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TechnologyKind::NandFlash => "PCIe Nand Flash",
            TechnologyKind::OptaneSsd => "PCIe 3DXP (Optane) SSD",
            TechnologyKind::Zssd => "PCIe ZSSD",
            TechnologyKind::Dimm3dxp => "DIMM 3DXP (Optane)",
            TechnologyKind::Cxl3dxp => "CXL 3DXP",
            TechnologyKind::Dram => "DDR4 DRAM",
        };
        f.write_str(name)
    }
}

/// How many vendors offer a given technology (paper Table 1 "Sourcing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sourcing {
    /// Only one vendor ships the part.
    Single,
    /// Multiple vendors ship compatible parts.
    Multi,
}

impl fmt::Display for Sourcing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sourcing::Single => f.write_str("single"),
            Sourcing::Multi => f.write_str("multi"),
        }
    }
}

/// The performance/cost envelope of one slow-memory technology.
///
/// Field values for the presets come from the paper's Table 1 plus the
/// loaded-latency behaviour shown in Figure 3. All presets describe a single
/// device (one SSD, one DIMM, one CXL device).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechnologyProfile {
    /// Technology family.
    pub kind: TechnologyKind,
    /// Random-read IOPS ceiling for the device.
    pub max_read_iops: f64,
    /// Unloaded (low queue depth) read latency for one access.
    pub base_read_latency: SimDuration,
    /// Smallest unit the media can transfer; smaller requests are amplified
    /// to this size internally (read amplification).
    pub access_granularity: Bytes,
    /// Whether the device supports NVMe SGL bit-bucket reads, i.e. shipping
    /// only the requested sub-ranges of a block over the bus (§4.1.1).
    pub supports_sgl_bit_bucket: bool,
    /// Sustained write bandwidth in bytes per second (model updates, §A.3).
    pub write_bandwidth: f64,
    /// Unloaded write latency for one access.
    pub base_write_latency: SimDuration,
    /// Rated endurance in physical drive writes per day over a 5 year life.
    pub endurance_dwpd: f64,
    /// Host-visible link bandwidth in bytes per second (PCIe/DDR/CXL).
    pub link_bandwidth: f64,
    /// Relative cost per GB (DRAM = 1.0).
    pub cost_per_gb: RelativeCost,
    /// Vendor availability.
    pub sourcing: Sourcing,
    /// Probability that a read lands in the device's slow tail (garbage
    /// collection, media retries). Nand Flash has a visible tail; Optane's is
    /// negligible.
    pub tail_probability: f64,
    /// Multiplier applied to the base latency for tail reads.
    pub tail_multiplier: f64,
    /// Utilisation (fraction of `max_read_iops`) above which latency starts
    /// inflating steeply. Nand controllers saturate early (§4.1: bursts must
    /// be smoothed), Optane stays flat almost to the ceiling.
    pub knee_utilisation: f64,
}

impl TechnologyProfile {
    /// PCIe Nand Flash SSD: 0.5 M IOPS, O(100 µs), 4 KiB granularity,
    /// 1/30 DRAM cost, multi-sourced (Table 1 row 1).
    pub fn nand_flash() -> Self {
        TechnologyProfile {
            kind: TechnologyKind::NandFlash,
            max_read_iops: 500_000.0,
            base_read_latency: SimDuration::from_micros(90),
            access_granularity: Bytes::from_kib(4),
            supports_sgl_bit_bucket: true,
            write_bandwidth: 1.8e9,
            base_write_latency: SimDuration::from_micros(25),
            endurance_dwpd: 5.0,
            link_bandwidth: 3.2e9,
            cost_per_gb: RelativeCost(1.0 / 30.0),
            sourcing: Sourcing::Multi,
            tail_probability: 0.01,
            tail_multiplier: 20.0,
            knee_utilisation: 0.5,
        }
    }

    /// PCIe 3DXP (Optane) SSD: 4 M IOPS at 512 B, O(10 µs), high endurance,
    /// 1/5 DRAM cost, single-sourced (Table 1 row 2).
    pub fn optane_ssd() -> Self {
        TechnologyProfile {
            kind: TechnologyKind::OptaneSsd,
            max_read_iops: 4_000_000.0,
            base_read_latency: SimDuration::from_micros(10),
            access_granularity: Bytes(512),
            supports_sgl_bit_bucket: true,
            write_bandwidth: 2.2e9,
            base_write_latency: SimDuration::from_micros(10),
            endurance_dwpd: 100.0,
            link_bandwidth: 3.2e9,
            cost_per_gb: RelativeCost(1.0 / 5.0),
            sourcing: Sourcing::Single,
            tail_probability: 0.0005,
            tail_multiplier: 4.0,
            knee_utilisation: 0.85,
        }
    }

    /// PCIe ZSSD: 1 M IOPS, O(100 µs) loaded, 4 KiB granularity,
    /// 1/10 DRAM cost (Table 1 row 3).
    fn zssd() -> Self {
        TechnologyProfile {
            kind: TechnologyKind::Zssd,
            max_read_iops: 1_000_000.0,
            base_read_latency: SimDuration::from_micros(20),
            access_granularity: Bytes::from_kib(4),
            supports_sgl_bit_bucket: true,
            write_bandwidth: 2.0e9,
            base_write_latency: SimDuration::from_micros(20),
            endurance_dwpd: 5.0,
            link_bandwidth: 3.2e9,
            cost_per_gb: RelativeCost(1.0 / 10.0),
            sourcing: Sourcing::Single,
            tail_probability: 0.005,
            tail_multiplier: 10.0,
            knee_utilisation: 0.6,
        }
    }

    /// DIMM 3DXP (Optane persistent memory): sub-microsecond latency, 64 B
    /// granularity, 1/3 DRAM cost; shares the DDR bus with DRAM (Table 1
    /// row 4).
    pub fn dimm_3dxp() -> Self {
        TechnologyProfile {
            kind: TechnologyKind::Dimm3dxp,
            max_read_iops: 60_000_000.0,
            base_read_latency: SimDuration::from_nanos(300),
            access_granularity: Bytes(64),
            supports_sgl_bit_bucket: false,
            write_bandwidth: 8.0e9,
            base_write_latency: SimDuration::from_nanos(400),
            endurance_dwpd: 300.0,
            link_bandwidth: 20.0e9,
            cost_per_gb: RelativeCost(1.0 / 3.0),
            sourcing: Sourcing::Single,
            tail_probability: 0.0,
            tail_multiplier: 1.0,
            knee_utilisation: 0.9,
        }
    }

    /// CXL-attached 3DXP: >10 M IOPS, ~0.5 µs, 64–128 B granularity
    /// (Table 1 row 5).
    fn cxl_3dxp() -> Self {
        TechnologyProfile {
            kind: TechnologyKind::Cxl3dxp,
            max_read_iops: 12_000_000.0,
            base_read_latency: SimDuration::from_nanos(500),
            access_granularity: Bytes(128),
            supports_sgl_bit_bucket: false,
            write_bandwidth: 10.0e9,
            base_write_latency: SimDuration::from_nanos(600),
            endurance_dwpd: 300.0,
            link_bandwidth: 25.0e9,
            cost_per_gb: RelativeCost(0.25),
            sourcing: Sourcing::Single,
            tail_probability: 0.0,
            tail_multiplier: 1.0,
            knee_utilisation: 0.9,
        }
    }

    /// DDR4 DRAM reference point used for the fast-memory side of the
    /// comparison (not an SCM; granularity is one cache line).
    pub fn dram() -> Self {
        TechnologyProfile {
            kind: TechnologyKind::Dram,
            max_read_iops: 500_000_000.0,
            base_read_latency: SimDuration::from_nanos(90),
            access_granularity: Bytes(64),
            supports_sgl_bit_bucket: false,
            write_bandwidth: 20.0e9,
            base_write_latency: SimDuration::from_nanos(90),
            endurance_dwpd: f64::INFINITY,
            link_bandwidth: 25.0e9,
            cost_per_gb: RelativeCost::DRAM,
            sourcing: Sourcing::Multi,
            tail_probability: 0.0,
            tail_multiplier: 1.0,
            knee_utilisation: 0.95,
        }
    }

    /// All the slow-memory candidates of paper Table 1, in table order.
    pub fn table1() -> Vec<TechnologyProfile> {
        vec![
            Self::nand_flash(),
            Self::optane_ssd(),
            Self::zssd(),
            Self::dimm_3dxp(),
            Self::cxl_3dxp(),
        ]
    }

    /// Expected interval between full-model updates, in days, before the
    /// device exceeds its rated endurance:
    /// `UpdateInterval = 365 * ModelSize / (DWPD * Capacity)` inverted to a
    /// per-update interval (paper §3).
    ///
    /// Returns `f64::INFINITY` when either the model is empty or endurance is
    /// unbounded.
    pub fn min_update_interval_days(&self, model_size: Bytes, device_capacity: Bytes) -> f64 {
        if model_size.is_zero() || !self.endurance_dwpd.is_finite() {
            return if model_size.is_zero() {
                f64::INFINITY
            } else {
                0.0
            };
        }
        if device_capacity.is_zero() {
            return f64::INFINITY;
        }
        // Writes per day the device tolerates, expressed in model refreshes.
        let refreshes_per_day =
            self.endurance_dwpd * device_capacity.as_gib_f64() / model_size.as_gib_f64();
        if refreshes_per_day <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / refreshes_per_day
        }
    }

    /// Bus transfer time for `bytes` at the profile's link bandwidth.
    pub fn transfer_time(&self, bytes: Bytes) -> SimDuration {
        if self.link_bandwidth <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes.as_u64() as f64 / self.link_bandwidth)
    }

    /// Human-readable one-line summary (used by the Table 1 experiment).
    pub fn summary(&self) -> String {
        format!(
            "{:<26} IOPS={:>5.1}M latency={:>9} granularity={:>8} endurance={:>6} DWPD cost={:>6.3} sourcing={}",
            self.kind.to_string(),
            self.max_read_iops / 1.0e6,
            self.base_read_latency.to_string(),
            self.access_granularity.to_string(),
            if self.endurance_dwpd.is_finite() {
                format!("{:.0}", self.endurance_dwpd)
            } else {
                "inf".to_string()
            },
            self.cost_per_gb.as_f64(),
            self.sourcing,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ordering_matches_paper() {
        let rows = TechnologyProfile::table1();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].kind, TechnologyKind::NandFlash);
        assert_eq!(rows[1].kind, TechnologyKind::OptaneSsd);
        assert_eq!(rows[2].kind, TechnologyKind::Zssd);
        assert_eq!(rows[3].kind, TechnologyKind::Dimm3dxp);
        assert_eq!(rows[4].kind, TechnologyKind::Cxl3dxp);
    }

    #[test]
    fn optane_beats_nand_on_iops_and_latency() {
        let nand = TechnologyProfile::nand_flash();
        let optane = TechnologyProfile::optane_ssd();
        assert!(optane.max_read_iops > 4.0 * nand.max_read_iops);
        assert!(optane.base_read_latency < nand.base_read_latency);
        assert!(optane.access_granularity < nand.access_granularity);
        assert!(optane.endurance_dwpd > nand.endurance_dwpd);
        // but nand is cheaper per GB
        assert!(nand.cost_per_gb.as_f64() < optane.cost_per_gb.as_f64());
    }

    #[test]
    fn cost_ordering_matches_table1() {
        // nand < zssd < optane ssd < dimm < dram
        let nand = TechnologyProfile::nand_flash().cost_per_gb.as_f64();
        let zssd = TechnologyProfile::zssd().cost_per_gb.as_f64();
        let optane = TechnologyProfile::optane_ssd().cost_per_gb.as_f64();
        let dimm = TechnologyProfile::dimm_3dxp().cost_per_gb.as_f64();
        let dram = TechnologyProfile::dram().cost_per_gb.as_f64();
        assert!(nand < zssd && zssd < optane && optane < dimm && dimm < dram);
    }

    #[test]
    fn update_interval_scales_with_model_size() {
        let nand = TechnologyProfile::nand_flash();
        let cap = Bytes::from_tib(2);
        let small = nand.min_update_interval_days(Bytes::from_gib(100), cap);
        let large = nand.min_update_interval_days(Bytes::from_gib(1000), cap);
        assert!(large > small);
        assert!(small > 0.0);
        // empty model can be "updated" at any frequency
        assert!(nand
            .min_update_interval_days(Bytes::ZERO, cap)
            .is_infinite());
    }

    #[test]
    fn transfer_time_proportional_to_bytes() {
        let optane = TechnologyProfile::optane_ssd();
        let t512 = optane.transfer_time(Bytes(512));
        let t4k = optane.transfer_time(Bytes::from_kib(4));
        assert!(t4k > t512 * 7);
        assert!(t4k < t512 * 9);
    }

    #[test]
    fn summary_mentions_kind() {
        let s = TechnologyProfile::nand_flash().summary();
        assert!(s.contains("Nand"));
        assert!(s.contains("IOPS"));
    }

    #[test]
    fn display_impls() {
        assert_eq!(Sourcing::Multi.to_string(), "multi");
        assert!(TechnologyKind::Cxl3dxp.to_string().contains("CXL"));
    }
}
