//! A single simulated SCM device.

use crate::block::PageStore;
use crate::error::DeviceError;
use crate::fault::{checksum64, FaultPlan};
use crate::latency::LoadedLatencyModel;
use crate::nvme::ReadCommand;
use crate::tech::TechnologyProfile;
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};

/// Outcome of one read command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The requested payload bytes, concatenated in range order.
    pub data: Vec<u8>,
    /// Time the device and link needed to serve this command.
    pub device_latency: SimDuration,
    /// Bytes that crossed the host link (includes read amplification).
    pub bus_bytes: Bytes,
    /// Bytes the caller actually asked for.
    pub requested_bytes: Bytes,
    /// Device blocks touched on the media.
    pub blocks_touched: u64,
    /// End-to-end protection guard: [`checksum64`] of the payload as read
    /// from the media, stamped *before* any injected corruption. The host
    /// verifies it at IO completion (NVMe end-to-end data protection).
    pub checksum: u64,
}

/// Everything [`ScmDevice::read_into`] reports about one read besides the
/// payload, which it leaves in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadInfo {
    /// Time the device and link needed to serve this command.
    pub device_latency: SimDuration,
    /// Bytes that crossed the host link (includes read amplification).
    pub bus_bytes: Bytes,
    /// Bytes the caller actually asked for.
    pub requested_bytes: Bytes,
    /// Device blocks touched on the media.
    pub blocks_touched: u64,
    /// Guard tag of the payload; see [`ReadOutcome::checksum`].
    pub checksum: u64,
}

/// Outcome of one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Time the device needed to persist the write.
    pub device_latency: SimDuration,
    /// Bytes written.
    pub written: Bytes,
}

/// Cumulative statistics for one device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Read commands served.
    pub reads: u64,
    /// Write calls served.
    pub writes: u64,
    /// Payload bytes requested by readers.
    pub bytes_requested: Bytes,
    /// Bytes shipped over the link for reads.
    pub bytes_on_bus: Bytes,
    /// Bytes written over the device lifetime.
    pub bytes_written: Bytes,
    /// Total simulated device time spent on reads.
    pub read_time: SimDuration,
}

/// One simulated SCM drive: a sparse byte store plus the technology's
/// performance envelope.
///
/// The device is *passive*: callers (normally the `io-engine` crate) tell it
/// the current queue depth, and the device answers with the data and the
/// simulated latency of the access. This keeps the device deterministic and
/// lets the IO engine own all queueing policy, matching the paper's split
/// between the NVMe device and the io_uring-based software stack.
#[derive(Debug)]
pub struct ScmDevice {
    name: String,
    profile: TechnologyProfile,
    store: PageStore,
    latency: LoadedLatencyModel,
    stats: DeviceStats,
    fault: Option<FaultPlan>,
}

impl ScmDevice {
    /// Creates a device with the given profile and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ZeroCapacity`] when `capacity` is zero.
    pub fn new(
        name: impl Into<String>,
        profile: TechnologyProfile,
        capacity: Bytes,
    ) -> Result<Self, DeviceError> {
        let store = PageStore::new(capacity)?;
        let latency = LoadedLatencyModel::new(&profile);
        Ok(ScmDevice {
            name: name.into(),
            profile,
            store,
            latency,
            stats: DeviceStats::default(),
            fault: None,
        })
    }

    /// The technology profile backing this device.
    pub fn profile(&self) -> &TechnologyProfile {
        &self.profile
    }

    /// Logical capacity.
    pub fn capacity(&self) -> Bytes {
        self.store.capacity()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Attaches (or with `None`, detaches) a deterministic fault plan. Reads
    /// issued through [`ScmDevice::read_into`] consult the plan; an empty plan
    /// or no plan leaves the device's behaviour bit-identical.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The attached fault plan, if any (for reading injection counters).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Writes `data` at `offset` (model load / model update path).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] for writes past the capacity.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        self.store.write_at(offset, data)?;
        let written = Bytes(data.len() as u64);
        self.stats.writes += 1;
        self.stats.bytes_written += written;
        let latency = self.profile.base_write_latency
            + SimDuration::from_secs_f64(
                written.as_u64() as f64 / self.profile.write_bandwidth.max(1.0),
            );
        Ok(WriteOutcome {
            device_latency: latency,
            written,
        })
    }

    /// Serves a read command at the given queue depth (number of IOs
    /// outstanding against this device, including this one).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if any range is outside the
    /// device, [`DeviceError::SglUnsupported`] if SGL mode is requested on a
    /// technology without bit-bucket support and [`DeviceError::EmptyCommand`]
    /// for commands with no payload.
    pub fn read(
        &mut self,
        cmd: &ReadCommand,
        queue_depth: usize,
    ) -> Result<ReadOutcome, DeviceError> {
        self.read_at(cmd, queue_depth, SimInstant::EPOCH)
    }

    /// Serves a read command issued at virtual instant `now`.
    ///
    /// Identical to [`ScmDevice::read`] except that an attached
    /// [`FaultPlan`] is consulted: the issue instant selects latency-storm
    /// windows, and the plan's pinned RNG decides transient errors, stuck
    /// IOs and payload corruption. With no plan attached the instant is
    /// ignored and the behaviour is bit-identical to `read`.
    ///
    /// # Errors
    ///
    /// Everything [`ScmDevice::read`] returns, plus
    /// [`DeviceError::TransientRead`] when the fault plan injects a
    /// retryable failure.
    pub(crate) fn read_at(
        &mut self,
        cmd: &ReadCommand,
        queue_depth: usize,
        now: SimInstant,
    ) -> Result<ReadOutcome, DeviceError> {
        let mut data = Vec::new();
        let info = self.read_into(cmd, queue_depth, now, &mut data)?;
        Ok(ReadOutcome {
            data,
            device_latency: info.device_latency,
            bus_bytes: info.bus_bytes,
            requested_bytes: info.requested_bytes,
            blocks_touched: info.blocks_touched,
            checksum: info.checksum,
        })
    }

    /// `ScmDevice::read_at` into a caller-owned buffer: `data` is resized
    /// to the requested length and filled straight from the page store, so a
    /// caller that recycles its buffers (the IO engine) reads without
    /// touching the allocator. On error the buffer's contents are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Same as `ScmDevice::read_at`.
    pub fn read_into(
        &mut self,
        cmd: &ReadCommand,
        queue_depth: usize,
        now: SimInstant,
        data: &mut Vec<u8>,
    ) -> Result<ReadInfo, DeviceError> {
        let requested_bytes = cmd.requested_bytes();
        if requested_bytes.is_zero() {
            return Err(DeviceError::EmptyCommand);
        }
        let bus_bytes = cmd.bus_bytes(&self.profile)?;
        let blocks = cmd.blocks_touched(self.profile.access_granularity);

        data.clear();
        data.resize(requested_bytes.as_u64() as usize, 0);
        let mut filled = 0usize;
        for range in cmd.ranges() {
            let end = filled + range.len as usize;
            self.store.read_into(range.offset, &mut data[filled..end])?;
            filled = end;
        }
        // Guard tag over the payload as the media holds it; injected
        // corruption below happens after, so the host can always detect it.
        let checksum = checksum64(data);

        // Media latency at the current load plus the link transfer time for
        // the bytes that actually cross the bus. Multi-block commands pay the
        // media time once per extra block (they are sequential inside the
        // controller).
        let service = self.latency.base_latency().as_secs_f64().max(1e-9);
        let utilisation =
            queue_depth.max(1) as f64 / (service * self.profile.max_read_iops).max(1.0);
        let media = self.latency.next_read_latency(utilisation);
        let extra_blocks = blocks.saturating_sub(1);
        let media_total = media + (media / 4) * extra_blocks;
        let transfer = self.profile.transfer_time(bus_bytes);
        // At saturation the device retires at most `max_read_iops` commands
        // per second, so with `queue_depth` outstanding the observed latency
        // cannot drop below the Little's-law bound.
        let queueing_floor =
            SimDuration::from_secs_f64(queue_depth as f64 / self.profile.max_read_iops.max(1.0));
        let mut latency = (media_total + transfer).max(queueing_floor);

        if let Some(plan) = self.fault.as_mut() {
            let decision = plan.decide(now);
            if decision.transient_error {
                // A failed command consumes no stats: the engine re-issues
                // it and the retry is accounted like any other read.
                return Err(DeviceError::TransientRead {
                    device: self.name.clone(),
                });
            }
            if decision.storm_multiplier > 1.0 {
                latency = SimDuration::from_nanos(
                    (latency.as_nanos() as f64 * decision.storm_multiplier).round() as u64,
                );
            }
            if decision.stuck {
                latency = latency.max(plan.stuck_latency());
            }
            if decision.corrupt {
                let bit = plan.corrupt_bit(data.len());
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }

        self.stats.reads += 1;
        self.stats.bytes_requested += requested_bytes;
        self.stats.bytes_on_bus += bus_bytes;
        self.stats.read_time += latency;

        Ok(ReadInfo {
            device_latency: latency,
            bus_bytes,
            requested_bytes,
            blocks_touched: blocks,
            checksum,
        })
    }

    /// Effective IOPS this device can sustain while staying under the given
    /// per-IO latency target (used for host sizing, paper Table 10).
    pub fn iops_at_latency_target(&self, target: SimDuration) -> f64 {
        self.latency.iops_at_latency_target(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::{AccessMode, SglRange};

    fn small_optane() -> ScmDevice {
        ScmDevice::new(
            "test-optane",
            TechnologyProfile::optane_ssd(),
            Bytes::from_mib(4),
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut dev = small_optane();
        let payload: Vec<u8> = (0..200u16).map(|x| (x % 251) as u8).collect();
        dev.write_at(4096, &payload).unwrap();
        let out = dev.read(&ReadCommand::sgl(4096, 200), 1).unwrap();
        assert_eq!(out.data, payload);
        assert_eq!(out.requested_bytes, Bytes(200));
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().writes, 1);
    }

    #[test]
    fn block_mode_reports_amplification() {
        let mut dev =
            ScmDevice::new("nand", TechnologyProfile::nand_flash(), Bytes::from_mib(4)).unwrap();
        dev.write_at(0, &[1u8; 256]).unwrap();
        let out = dev.read(&ReadCommand::block(0, 128), 1).unwrap();
        assert_eq!(out.bus_bytes, Bytes::from_kib(4));
        assert_eq!(out.blocks_touched, 1);
        let stats = dev.stats();
        assert_eq!(
            stats.bytes_on_bus.as_u64(),
            32 * stats.bytes_requested.as_u64()
        );
    }

    #[test]
    fn sgl_latency_not_larger_than_block_latency() {
        let mut dev_a = ScmDevice::new(
            "nand-a",
            TechnologyProfile::nand_flash(),
            Bytes::from_mib(4),
        )
        .unwrap();
        let mut dev_b = ScmDevice::new(
            "nand-b",
            TechnologyProfile::nand_flash(),
            Bytes::from_mib(4),
        )
        .unwrap();
        let block = dev_a.read(&ReadCommand::block(0, 128), 1).unwrap();
        let sgl = dev_b.read(&ReadCommand::sgl(0, 128), 1).unwrap();
        assert!(sgl.device_latency <= block.device_latency);
        // The saving comes from the transfer component, a few percent of the
        // total (paper §4.1.1 reports 3-5%).
        let saving = 1.0
            - sgl.device_latency.as_micros_f64() / block.device_latency.as_micros_f64().max(1e-9);
        assert!(saving > 0.0 && saving < 0.25, "saving = {saving}");
    }

    #[test]
    fn loaded_reads_are_slower_than_unloaded() {
        let mut dev =
            ScmDevice::new("nand", TechnologyProfile::nand_flash(), Bytes::from_mib(4)).unwrap();
        let light = dev.read(&ReadCommand::sgl(0, 128), 1).unwrap();
        let heavy = dev.read(&ReadCommand::sgl(0, 128), 200).unwrap();
        assert!(heavy.device_latency > light.device_latency);
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let mut dev = small_optane();
        let err = dev
            .read(&ReadCommand::sgl(Bytes::from_mib(4).as_u64(), 8), 1)
            .unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBounds { .. }));
    }

    #[test]
    fn multi_range_read_concatenates_in_order() {
        let mut dev = small_optane();
        dev.write_at(0, &[1u8; 64]).unwrap();
        dev.write_at(1024, &[2u8; 64]).unwrap();
        let cmd = ReadCommand::with_ranges(
            vec![SglRange::new(0, 64), SglRange::new(1024, 64)],
            AccessMode::Sgl,
        )
        .unwrap();
        let out = dev.read(&cmd, 1).unwrap();
        assert_eq!(&out.data[..64], &[1u8; 64]);
        assert_eq!(&out.data[64..], &[2u8; 64]);
    }

    #[test]
    fn read_outcome_checksum_matches_payload() {
        let mut dev = small_optane();
        dev.write_at(0, &[5u8; 128]).unwrap();
        let out = dev.read(&ReadCommand::sgl(0, 128), 1).unwrap();
        assert_eq!(out.checksum, checksum64(&out.data));
    }

    #[test]
    fn read_into_reuses_the_buffer_and_matches_read_at() {
        let mut a = small_optane();
        let mut b = small_optane();
        let image: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        a.write_at(0, &image).unwrap();
        b.write_at(0, &image).unwrap();
        let mut buf = Vec::new();
        // Shrinking, growing and chunk-straddling reads through one buffer.
        for (offset, len) in [(0u64, 300u32), (4000, 200), (17, 5), (100, 4096)] {
            let cmd = ReadCommand::sgl(offset, len);
            let owned = a.read_at(&cmd, 2, SimInstant::EPOCH).unwrap();
            let info = b.read_into(&cmd, 2, SimInstant::EPOCH, &mut buf).unwrap();
            assert_eq!(buf, owned.data);
            assert_eq!(buf, image[offset as usize..offset as usize + len as usize]);
            assert_eq!(info.checksum, owned.checksum);
            assert_eq!(info.device_latency, owned.device_latency);
            assert_eq!(info.bus_bytes, owned.bus_bytes);
            assert_eq!(info.blocks_touched, owned.blocks_touched);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn attached_empty_plan_is_bit_identical() {
        let mut plain = small_optane();
        let mut faulted = small_optane();
        faulted.set_fault_plan(Some(FaultPlan::new(11)));
        for i in 0..20u64 {
            let a = plain.read(&ReadCommand::sgl(i * 512, 128), 3).unwrap();
            let b = faulted
                .read_at(
                    &ReadCommand::sgl(i * 512, 128),
                    3,
                    SimInstant::from_nanos(i * 1_000),
                )
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(faulted.fault_plan().unwrap().stats().total(), 0);
    }

    #[test]
    fn injected_corruption_breaks_the_guard_checksum() {
        let mut dev = small_optane();
        dev.write_at(0, &[3u8; 256]).unwrap();
        dev.set_fault_plan(Some(FaultPlan::new(2).with_corruption(1.0)));
        let out = dev
            .read_at(&ReadCommand::sgl(0, 256), 1, SimInstant::EPOCH)
            .unwrap();
        assert_ne!(
            checksum64(&out.data),
            out.checksum,
            "corrupted payload must fail guard verification"
        );
        assert_eq!(dev.fault_plan().unwrap().stats().corruptions, 1);
    }

    #[test]
    fn injected_transient_error_is_retryable_and_unaccounted() {
        let mut dev = small_optane();
        dev.set_fault_plan(Some(FaultPlan::new(4).with_transient_errors(1.0)));
        let err = dev
            .read_at(&ReadCommand::sgl(0, 64), 1, SimInstant::EPOCH)
            .unwrap_err();
        assert!(err.is_transient());
        assert_eq!(dev.stats().reads, 0, "failed reads do not count as served");
    }

    #[test]
    fn storm_and_stuck_inflate_latency() {
        let baseline = small_optane()
            .read(&ReadCommand::sgl(0, 128), 1)
            .unwrap()
            .device_latency;

        let mut stormy = small_optane();
        stormy.set_fault_plan(Some(FaultPlan::new(0).with_storm(
            SimInstant::EPOCH,
            SimInstant::from_nanos(u64::MAX),
            8.0,
        )));
        let storm_latency = stormy
            .read_at(&ReadCommand::sgl(0, 128), 1, SimInstant::from_nanos(5))
            .unwrap()
            .device_latency;
        assert!(storm_latency >= baseline * 7, "storm must inflate latency");

        let mut sticky = small_optane();
        let hang = SimDuration::from_millis(80);
        sticky.set_fault_plan(Some(FaultPlan::new(0).with_stuck(1.0, hang)));
        let stuck_latency = sticky
            .read_at(&ReadCommand::sgl(0, 128), 1, SimInstant::EPOCH)
            .unwrap()
            .device_latency;
        assert_eq!(stuck_latency, hang);
    }

    #[test]
    fn stats_accumulate() {
        let mut dev = small_optane();
        for i in 0..10 {
            dev.read(&ReadCommand::sgl(i * 512, 128), 4).unwrap();
        }
        assert_eq!(dev.stats().reads, 10);
        assert_eq!(dev.stats().bytes_requested, Bytes(1280));
    }
}
