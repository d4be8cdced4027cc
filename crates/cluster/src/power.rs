//! Component-level host power model.

use crate::hardware::{HostConfig, SsdKind};
use sdm_metrics::units::Watts;

/// Estimates host power from its components.
///
/// The absolute numbers are typical component TDP-class figures; what the
/// experiments rely on is the *ratio* between platforms, which is what the
/// paper reports (normalized power). With the defaults, HW-SS comes out at
/// roughly half of HW-L (the paper measures 0.4×, Table 8).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Power per CPU socket (package + VRs) under serving load.
    pub cpu_socket: Watts,
    /// DRAM power per GiB (device + refresh + IO).
    pub dram_per_gib: Watts,
    /// Power per Nand Flash SSD.
    pub nand_ssd: Watts,
    /// Power per Optane SSD.
    pub optane_ssd: Watts,
    /// Power per accelerator card.
    pub accelerator: Watts,
    /// Fans, NIC, board, PSU losses, accounted per CPU socket (dual-socket
    /// chassis carry roughly twice the fan/VR/PSU overhead).
    pub platform_overhead_per_socket: Watts,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            cpu_socket: Watts(165.0),
            dram_per_gib: Watts(0.4),
            nand_ssd: Watts(12.0),
            optane_ssd: Watts(18.0),
            accelerator: Watts(150.0),
            platform_overhead_per_socket: Watts(60.0),
        }
    }
}

impl PowerModel {
    /// Estimated power of one host.
    pub fn host_power(&self, host: &HostConfig) -> Watts {
        let mut total = self.platform_overhead_per_socket * host.cpu_sockets as f64;
        total += self.cpu_socket * host.cpu_sockets as f64;
        total += self.dram_per_gib * host.dram.as_gib_f64();
        if let Some(ssd) = host.ssd {
            let per = match ssd.kind {
                SsdKind::NandFlash => self.nand_ssd,
                SsdKind::Optane => self.optane_ssd,
            };
            total += per * ssd.count as f64;
        }
        if let Some(acc) = host.accelerator {
            total += self.accelerator * acc.count as f64;
        }
        total
    }

    /// Power of one host normalized to a baseline host.
    pub fn normalized_host_power(&self, host: &HostConfig, baseline: &HostConfig) -> f64 {
        self.host_power(host)
            .normalized_to(self.host_power(baseline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_ss_is_roughly_half_of_hw_l() {
        // Table 8 normalizes HW-SS power to 0.4 of HW-L; the component model
        // lands in the same regime (well under half plus margin), and the
        // Table 8 experiment uses the paper's own normalized figures.
        let m = PowerModel::default();
        let ratio = m.normalized_host_power(&HostConfig::hw_ss(), &HostConfig::hw_l());
        assert!((0.30..=0.55).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn optane_host_close_to_nand_host_power() {
        // Table 9 treats HW-AN and HW-AO as the same normalized power (1.0);
        // the SSD swap changes host power by only a few percent.
        let m = PowerModel::default();
        let an = m.host_power(&HostConfig::hw_an()).as_f64();
        let ao = m.host_power(&HostConfig::hw_ao()).as_f64();
        assert!((ao - an).abs() / an < 0.05, "an={an} ao={ao}");
    }

    #[test]
    fn accelerators_and_ssds_add_power() {
        let m = PowerModel::default();
        assert!(m.host_power(&HostConfig::hw_an()) > m.host_power(&HostConfig::hw_s()));
        assert!(m.host_power(&HostConfig::hw_fao()) > m.host_power(&HostConfig::hw_fa()));
    }
}
