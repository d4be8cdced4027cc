//! Hardware platforms (paper Table 7).

use sdm_metrics::units::Bytes;
use serde::{Deserialize, Serialize};

/// SSD technology attached to a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SsdKind {
    /// PCIe Nand Flash.
    NandFlash,
    /// PCIe Optane (3DXP).
    Optane,
}

/// A set of identical SSDs on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsdSpec {
    /// Technology.
    pub kind: SsdKind,
    /// Capacity per device.
    pub capacity: Bytes,
    /// Number of devices.
    pub count: usize,
}

/// Inference accelerator attached to a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceleratorSpec {
    /// Number of accelerator cards.
    pub count: usize,
    /// On-card memory per accelerator.
    pub memory: Bytes,
}

/// One host platform (a row of paper Table 7).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Platform name.
    pub name: String,
    /// Number of CPU sockets.
    pub cpu_sockets: usize,
    /// Host DRAM.
    pub dram: Bytes,
    /// Attached SSDs, if any.
    pub ssd: Option<SsdSpec>,
    /// Attached accelerators, if any.
    pub accelerator: Option<AcceleratorSpec>,
}

impl HostConfig {
    /// HW-L: dual-socket, 256 GB DRAM, no SSD, no accelerator.
    pub fn hw_l() -> Self {
        HostConfig {
            name: "HW-L".into(),
            cpu_sockets: 2,
            dram: Bytes::from_gib(256),
            ssd: None,
            accelerator: None,
        }
    }

    /// HW-S: single-socket, 64 GB DRAM.
    pub fn hw_s() -> Self {
        HostConfig {
            name: "HW-S".into(),
            cpu_sockets: 1,
            dram: Bytes::from_gib(64),
            ssd: None,
            accelerator: None,
        }
    }

    /// HW-SS: single-socket, 64 GB DRAM, 2 × 2 TB Nand Flash.
    pub fn hw_ss() -> Self {
        HostConfig {
            name: "HW-SS".into(),
            cpu_sockets: 1,
            dram: Bytes::from_gib(64),
            ssd: Some(SsdSpec {
                kind: SsdKind::NandFlash,
                capacity: Bytes::from_tib(2),
                count: 2,
            }),
            accelerator: None,
        }
    }

    /// HW-AN: single-socket, 64 GB DRAM, 2 × 1 TB Nand Flash, accelerator.
    pub fn hw_an() -> Self {
        HostConfig {
            name: "HW-AN".into(),
            cpu_sockets: 1,
            dram: Bytes::from_gib(64),
            ssd: Some(SsdSpec {
                kind: SsdKind::NandFlash,
                capacity: Bytes::from_tib(1),
                count: 2,
            }),
            accelerator: Some(AcceleratorSpec {
                count: 1,
                memory: Bytes::from_gib(64),
            }),
        }
    }

    /// HW-AO: single-socket, 64 GB DRAM, 2 × 0.4 TB Optane, accelerator.
    pub fn hw_ao() -> Self {
        HostConfig {
            name: "HW-AO".into(),
            cpu_sockets: 1,
            dram: Bytes::from_gib(64),
            ssd: Some(SsdSpec {
                kind: SsdKind::Optane,
                capacity: Bytes::from_gib(400),
                count: 2,
            }),
            accelerator: Some(AcceleratorSpec {
                count: 1,
                memory: Bytes::from_gib(64),
            }),
        }
    }

    /// HW-FA: the future multi-accelerator platform of §5.3 without SDM —
    /// same chassis as [`HostConfig::hw_fao`] but no SSDs, so the embedding
    /// capacity per host is bounded by the 256 GB of DRAM.
    pub fn hw_fa() -> Self {
        HostConfig {
            name: "HW-FA".into(),
            cpu_sockets: 2,
            dram: Bytes::from_gib(256),
            ssd: None,
            accelerator: Some(AcceleratorSpec {
                count: 8,
                memory: Bytes::from_gib(128),
            }),
        }
    }

    /// HW-FAO: the future platform with Optane SSDs sized for M3
    /// (9 devices, Table 10).
    pub fn hw_fao() -> Self {
        HostConfig {
            name: "HW-FAO".into(),
            cpu_sockets: 2,
            dram: Bytes::from_gib(256),
            ssd: Some(SsdSpec {
                kind: SsdKind::Optane,
                capacity: Bytes::from_gib(400),
                count: 9,
            }),
            accelerator: Some(AcceleratorSpec {
                count: 8,
                memory: Bytes::from_gib(128),
            }),
        }
    }

    /// All Table 7 platforms in table order.
    pub fn table7() -> Vec<HostConfig> {
        vec![
            Self::hw_l(),
            Self::hw_s(),
            Self::hw_ss(),
            Self::hw_an(),
            Self::hw_ao(),
        ]
    }

    /// Total SSD capacity on the host.
    pub fn ssd_capacity(&self) -> Bytes {
        self.ssd
            .map(|s| s.capacity * s.count as u64)
            .unwrap_or(Bytes::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_matches_paper() {
        let hosts = HostConfig::table7();
        assert_eq!(hosts.len(), 5);
        assert_eq!(hosts[0].cpu_sockets, 2);
        assert_eq!(hosts[0].dram, Bytes::from_gib(256));
        assert!(hosts[0].ssd.is_none());
        assert_eq!(hosts[2].ssd_capacity(), Bytes::from_tib(4));
        assert!(hosts[3].accelerator.is_some());
        assert_eq!(hosts[4].ssd.unwrap().kind, SsdKind::Optane);
    }
}
