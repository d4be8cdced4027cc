//! The rejected alternative: mmap-based access through a page cache.
//!
//! Paper §4.1: because embedding rows are 64–512 B and show almost no
//! spatial locality, mapping the SM image with `mmap` means every miss pulls
//! a whole 4 KiB page into fast memory, wasting FM space and roughly
//! tripling access latency compared to DIRECT-IO with an application-level
//! row cache. [`MmapIo`] models that path so the trade-off can be measured.

use crate::error::IoError;
use scm_device::{DeviceArray, DeviceId, ReadCommand};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use std::collections::HashMap;

/// Page size used by the simulated page cache (x86 base pages).
const PAGE_SIZE: u64 = 4096;

/// Statistics for the mmap path.
#[derive(Debug, Clone, Default)]
pub(crate) struct MmapStats {
    /// Row reads served.
    pub reads: u64,
    /// Page faults (device reads) incurred.
    pub faults: u64,
    /// Bytes shipped from the device (always whole pages).
    pub bus_bytes: Bytes,
    /// Payload bytes actually requested by callers.
    pub requested_bytes: Bytes,
}

/// Simulated `mmap` of one device with an LRU page cache bounded by a fast
/// memory budget.
#[derive(Debug)]
pub struct MmapIo {
    device: DeviceId,
    fm_budget_pages: usize,
    /// page index -> LRU stamp
    // Default hasher on purpose: pages are named by caller-supplied offsets
    // (row indices from queries, once scaled by the row size).
    // sdm-analyze: allow(default-hasher-on-serving-path)
    resident: HashMap<u64, u64>,
    lru_clock: u64,
    dram_hit_latency: SimDuration,
    page_fault_overhead: SimDuration,
    stats: MmapStats,
}

impl MmapIo {
    /// Maps `device` with a fast-memory budget for resident pages.
    pub fn new(device: DeviceId, fm_budget: Bytes) -> Self {
        MmapIo {
            device,
            fm_budget_pages: (fm_budget.as_u64() / PAGE_SIZE).max(1) as usize,
            resident: HashMap::new(), // sdm-analyze: allow(default-hasher-on-serving-path)
            lru_clock: 0,
            // A DRAM access plus kernel page-table walk cost.
            dram_hit_latency: SimDuration::from_nanos(300),
            // Fault entry/exit, page allocation and page-cache bookkeeping.
            page_fault_overhead: SimDuration::from_micros(3),
            stats: MmapStats::default(),
        }
    }

    /// Reads `len` bytes at `offset` through the mapped region.
    ///
    /// Returns the data and the access latency (page-cache hit or fault).
    ///
    /// # Errors
    ///
    /// Propagates device errors for out-of-range accesses.
    pub fn read(
        &mut self,
        array: &mut DeviceArray,
        offset: u64,
        len: u32,
        _now: SimInstant,
    ) -> Result<(Vec<u8>, SimDuration), IoError> {
        let first_page = offset / PAGE_SIZE;
        let last_page = (offset + len as u64 - 1) / PAGE_SIZE;
        let mut latency = SimDuration::ZERO;
        self.lru_clock += 1;
        for page in first_page..=last_page {
            if self.resident.contains_key(&page) {
                latency += self.dram_hit_latency;
                self.resident.insert(page, self.lru_clock);
            } else {
                // Page fault: whole-page block read from the device.
                let cmd = ReadCommand::block(page * PAGE_SIZE, PAGE_SIZE as u32);
                let outcome = array.read(self.device, &cmd, 1)?;
                latency += self.page_fault_overhead + outcome.device_latency;
                self.stats.faults += 1;
                self.stats.bus_bytes += outcome.bus_bytes;
                self.evict_if_needed();
                self.resident.insert(page, self.lru_clock);
            }
        }
        // The payload itself is read from the (now resident) pages; fetch it
        // directly from the device store for simplicity — the timing has
        // already been accounted for above.
        let data = array
            .device_mut(self.device)?
            .read(&ReadCommand::sgl(offset, len), 1)
            .map(|o| o.data)?;

        self.stats.reads += 1;
        self.stats.requested_bytes += Bytes(len as u64);
        Ok((data, latency))
    }

    fn evict_if_needed(&mut self) {
        while self.resident.len() >= self.fm_budget_pages {
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, stamp)| **stamp) {
                self.resident.remove(&victim);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scm_device::TechnologyProfile;

    fn array() -> DeviceArray {
        DeviceArray::homogeneous(TechnologyProfile::nand_flash(), Bytes::from_mib(4), 1).unwrap()
    }

    #[test]
    fn first_access_faults_second_hits() {
        let mut arr = array();
        arr.write(DeviceId(0), 0, &[3u8; 256]).unwrap();
        let mut mmap = MmapIo::new(DeviceId(0), Bytes::from_kib(64));
        let now = SimInstant::EPOCH;
        let (data, fault_latency) = mmap.read(&mut arr, 0, 128, now).unwrap();
        assert_eq!(data, vec![3u8; 128]);
        let (_, hit_latency) = mmap.read(&mut arr, 128, 128, now).unwrap();
        assert!(fault_latency > hit_latency * 10);
        assert_eq!(mmap.stats.faults, 1);
        assert_eq!(mmap.stats.reads, 2);
    }

    #[test]
    fn page_cache_evicts_under_budget_pressure() {
        let mut arr = array();
        // Budget of 2 pages.
        let mut mmap = MmapIo::new(DeviceId(0), Bytes::from_kib(8));
        let now = SimInstant::EPOCH;
        for i in 0..8u64 {
            mmap.read(&mut arr, i * PAGE_SIZE, 64, now).unwrap();
        }
        assert!(mmap.resident.len() <= 2);
        assert_eq!(mmap.stats.faults, 8);
        // Re-reading an evicted page faults again.
        mmap.read(&mut arr, 0, 64, now).unwrap();
        assert_eq!(mmap.stats.faults, 9);
    }

    #[test]
    fn read_amplification_is_page_sized() {
        let mut arr = array();
        let mut mmap = MmapIo::new(DeviceId(0), Bytes::from_mib(1));
        let now = SimInstant::EPOCH;
        for i in 0..16u64 {
            mmap.read(&mut arr, i * PAGE_SIZE, 128, now).unwrap();
        }
        // 4096/128 = 32x amplification
        let s = &mmap.stats;
        assert!(s.bus_bytes.as_u64() as f64 / s.requested_bytes.as_u64() as f64 > 30.0);
    }

    #[test]
    fn straddling_read_touches_two_pages() {
        let mut arr = array();
        let mut mmap = MmapIo::new(DeviceId(0), Bytes::from_mib(1));
        let now = SimInstant::EPOCH;
        mmap.read(&mut arr, PAGE_SIZE - 64, 128, now).unwrap();
        assert_eq!(mmap.stats.faults, 2);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut arr = array();
        let mut mmap = MmapIo::new(DeviceId(0), Bytes::from_mib(1));
        let err = mmap
            .read(&mut arr, Bytes::from_mib(4).as_u64(), 64, SimInstant::EPOCH)
            .unwrap_err();
        assert!(matches!(err, IoError::Device(_)));
    }
}
