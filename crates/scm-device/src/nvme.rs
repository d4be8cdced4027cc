//! NVMe-style read commands, including SGL bit-bucket sub-block reads.
//!
//! Paper §4.1.1: standard block devices only read in multiples of the block
//! size (4 KiB for Nand), which for 128–512 B embedding rows wastes ~75 % of
//! the bus bandwidth and forces an extra memcpy on the host. The paper's
//! kernel/NVMe-driver extension uses the Scatter Gather List *bit bucket*
//! descriptor so the device discards the uninteresting parts of a block and
//! ships only the requested byte ranges (down to DWORD granularity).
//!
//! [`ReadCommand`] models both paths: [`AccessMode::Block`] reads whole
//! device blocks (read amplification), [`AccessMode::Sgl`] reads exact byte
//! ranges rounded up to 4-byte DWORDs.

use crate::error::DeviceError;
use crate::tech::TechnologyProfile;
use sdm_metrics::units::Bytes;

/// DWORD granularity required by the SGL path.
const DWORD: u64 = 4;

/// One contiguous byte range requested from the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SglRange {
    /// Byte offset on the device.
    pub offset: u64,
    /// Number of bytes requested.
    pub len: u32,
}

impl SglRange {
    /// Creates a range.
    pub fn new(offset: u64, len: u32) -> Self {
        SglRange { offset, len }
    }

    /// End offset (exclusive).
    pub(crate) fn end(&self) -> u64 {
        self.offset + self.len as u64
    }

    /// The range aligned outward to DWORD boundaries, as the SGL transport
    /// actually transfers it.
    fn dword_aligned(&self) -> SglRange {
        let start = self.offset - (self.offset % DWORD);
        let end = self.end().div_ceil(DWORD) * DWORD;
        SglRange {
            offset: start,
            len: (end - start) as u32,
        }
    }
}

/// Whether a read uses whole-block transfers or SGL bit-bucket sub-block
/// transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Conventional block IO: every touched device block is shipped over
    /// the bus in full (read amplification).
    Block,
    /// SGL bit-bucket IO: only the requested ranges (DWORD aligned) cross
    /// the bus. Requires [`TechnologyProfile::supports_sgl_bit_bucket`].
    Sgl,
}

/// The ranges of one command. Nearly every command in this stack reads a
/// single embedding row, so that range lives inline and building a command
/// touches no allocator; gathers keep their list, sorted by offset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ranges {
    One(SglRange),
    Many(Vec<SglRange>),
}

/// A read command against one device.
///
/// A command may carry several ranges (one NVMe command can gather multiple
/// rows that live in the same block neighbourhood), although the common case
/// in this stack is a single embedding row per command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadCommand {
    ranges: Ranges,
    mode: AccessMode,
}

impl ReadCommand {
    /// Creates a single-range command using whole-block IO.
    pub fn block(offset: u64, len: u32) -> Self {
        ReadCommand {
            ranges: Ranges::One(SglRange::new(offset, len)),
            mode: AccessMode::Block,
        }
    }

    /// Creates a single-range command using SGL bit-bucket IO.
    pub fn sgl(offset: u64, len: u32) -> Self {
        ReadCommand {
            ranges: Ranges::One(SglRange::new(offset, len)),
            mode: AccessMode::Sgl,
        }
    }

    /// Creates a multi-range command. The ranges are sorted by offset (the
    /// sort is stable), and the payload a read returns follows that order.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyCommand`] when `ranges` is empty or all
    /// ranges have zero length.
    pub fn with_ranges(mut ranges: Vec<SglRange>, mode: AccessMode) -> Result<Self, DeviceError> {
        if ranges.is_empty() || ranges.iter().all(|r| r.len == 0) {
            return Err(DeviceError::EmptyCommand);
        }
        ranges.sort_by_key(|r| r.offset);
        let ranges = match ranges[..] {
            [single] => Ranges::One(single),
            _ => Ranges::Many(ranges),
        };
        Ok(ReadCommand { ranges, mode })
    }

    /// The requested ranges, in offset order.
    pub(crate) fn ranges(&self) -> &[SglRange] {
        match &self.ranges {
            Ranges::One(range) => std::slice::from_ref(range),
            Ranges::Many(ranges) => ranges,
        }
    }

    /// Total payload bytes the caller asked for.
    pub(crate) fn requested_bytes(&self) -> Bytes {
        Bytes(self.ranges().iter().map(|r| r.len as u64).sum())
    }

    /// Number of device blocks (of `granularity`) this command touches.
    ///
    /// This is the media-side work regardless of the access mode: the device
    /// always senses whole blocks internally.
    pub(crate) fn blocks_touched(&self, granularity: Bytes) -> u64 {
        let g = granularity.as_u64().max(1);
        let ranges = match &self.ranges {
            // One range covers one contiguous run of blocks.
            Ranges::One(r) if r.len == 0 => return 0,
            Ranges::One(r) => return (r.end() - 1) / g - r.offset / g + 1,
            Ranges::Many(ranges) => ranges,
        };
        // The ranges are sorted by offset, so their first blocks never
        // decrease: of this range's blocks, the ones already counted are
        // exactly those up to the last block counted.
        let mut count = 0u64;
        let mut last_counted: Option<u64> = None;
        for r in ranges.iter().filter(|r| r.len > 0) {
            let (start, end) = (r.offset / g, (r.end() - 1) / g);
            let from = match last_counted {
                Some(l) if l >= start => l + 1,
                _ => start,
            };
            if from <= end {
                count += end - from + 1;
                last_counted = Some(end);
            }
        }
        count
    }

    /// Bytes that cross the host link for this command under the given
    /// technology, i.e. including read amplification for block mode and
    /// DWORD rounding for SGL mode.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::SglUnsupported`] when SGL mode is requested on
    /// a technology without bit-bucket support.
    pub(crate) fn bus_bytes(&self, profile: &TechnologyProfile) -> Result<Bytes, DeviceError> {
        match self.mode {
            AccessMode::Block => Ok(Bytes(
                self.blocks_touched(profile.access_granularity)
                    * profile.access_granularity.as_u64(),
            )),
            AccessMode::Sgl => {
                if !profile.supports_sgl_bit_bucket {
                    return Err(DeviceError::SglUnsupported {
                        technology: profile.kind.to_string(),
                    });
                }
                Ok(Bytes(
                    self.ranges()
                        .iter()
                        .map(|r| r.dword_aligned().len as u64)
                        .sum(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dword_alignment_rounds_outward() {
        let r = SglRange::new(10, 7); // [10, 17)
        let a = r.dword_aligned(); // [8, 20)
        assert_eq!(a.offset, 8);
        assert_eq!(a.len, 12);

        let aligned = SglRange::new(8, 16);
        assert_eq!(aligned.dword_aligned(), aligned);
    }

    #[test]
    fn empty_command_rejected() {
        assert_eq!(
            ReadCommand::with_ranges(vec![], AccessMode::Sgl),
            Err(DeviceError::EmptyCommand)
        );
        assert_eq!(
            ReadCommand::with_ranges(vec![SglRange::new(0, 0)], AccessMode::Block),
            Err(DeviceError::EmptyCommand)
        );
    }

    #[test]
    fn block_mode_amplifies_small_reads() {
        let nand = TechnologyProfile::nand_flash();
        let cmd = ReadCommand::block(100, 128);
        assert_eq!(cmd.blocks_touched(nand.access_granularity), 1);
        assert_eq!(cmd.bus_bytes(&nand).unwrap(), Bytes::from_kib(4));
        assert_eq!(cmd.requested_bytes(), Bytes(128));
    }

    #[test]
    fn sgl_mode_saves_bus_bandwidth() {
        let nand = TechnologyProfile::nand_flash();
        let cmd = ReadCommand::sgl(100, 128);
        assert_eq!(cmd.bus_bytes(&nand).unwrap(), Bytes(128));
        // Paper: only reading the needed parts saves ~75% of bus bandwidth
        // for 128B rows on 512B-granularity Optane.
        let optane = TechnologyProfile::optane_ssd();
        let block = ReadCommand::block(100, 128).bus_bytes(&optane).unwrap();
        let sgl = ReadCommand::sgl(100, 128).bus_bytes(&optane).unwrap();
        let saving = 1.0 - sgl.as_u64() as f64 / block.as_u64() as f64;
        assert!(saving >= 0.70, "saving = {saving}");
    }

    #[test]
    fn sgl_rejected_without_support() {
        let dimm = TechnologyProfile::dimm_3dxp();
        let cmd = ReadCommand::sgl(0, 64);
        assert!(matches!(
            cmd.bus_bytes(&dimm),
            Err(DeviceError::SglUnsupported { .. })
        ));
    }

    #[test]
    fn request_spanning_two_blocks_touches_two() {
        let nand = TechnologyProfile::nand_flash();
        let cmd = ReadCommand::block(4000, 200); // crosses the 4096 boundary
        assert_eq!(cmd.blocks_touched(nand.access_granularity), 2);
        assert_eq!(cmd.bus_bytes(&nand).unwrap(), Bytes::from_kib(8));
    }

    #[test]
    fn multi_range_in_same_block_counts_once() {
        let nand = TechnologyProfile::nand_flash();
        let cmd = ReadCommand::with_ranges(
            vec![SglRange::new(0, 128), SglRange::new(512, 128)],
            AccessMode::Block,
        )
        .unwrap();
        assert_eq!(cmd.blocks_touched(nand.access_granularity), 1);
        assert_eq!(cmd.requested_bytes(), Bytes(256));
    }

    #[test]
    fn single_range_closed_form_matches_the_interval_merge() {
        for g in [512u64, 4096] {
            for offset in [0u64, 1, 511, 512, 4000, 4095, 4096, 8191] {
                for len in [0u32, 1, 96, 512, 513, 4096, 9000] {
                    let one = ReadCommand::block(offset, len);
                    // Two copies of the range take the general merge path.
                    let twice = ReadCommand {
                        ranges: Ranges::Many(vec![SglRange::new(offset, len); 2]),
                        mode: AccessMode::Block,
                    };
                    assert_eq!(
                        one.blocks_touched(Bytes(g)),
                        twice.blocks_touched(Bytes(g)),
                        "g={g} offset={offset} len={len}"
                    );
                }
            }
        }
        // A one-element list is stored inline, so equality stays structural.
        let listed = ReadCommand::with_ranges(vec![SglRange::new(8, 64)], AccessMode::Sgl);
        assert_eq!(listed, Ok(ReadCommand::sgl(8, 64)));
    }

    #[test]
    fn multi_range_across_blocks_merges_correctly() {
        let g = Bytes::from_kib(4);
        let cmd = ReadCommand::with_ranges(
            vec![
                SglRange::new(0, 128),
                SglRange::new(8192, 128),
                SglRange::new(8300, 64),
            ],
            AccessMode::Block,
        )
        .unwrap();
        assert_eq!(cmd.blocks_touched(g), 2);
    }

    /// Reference count: every range's block interval, sorted and merged.
    fn merged_block_count(ranges: &[SglRange], g: u64) -> u64 {
        let mut blocks: Vec<(u64, u64)> = ranges
            .iter()
            .filter(|r| r.len > 0)
            .map(|r| (r.offset / g, (r.end() - 1) / g))
            .collect();
        blocks.sort_unstable();
        let mut count = 0u64;
        let mut last_counted: Option<u64> = None;
        for (start, end) in blocks {
            let from = match last_counted {
                Some(l) if l >= start => l + 1,
                _ => start,
            };
            if from <= end {
                count += end - from + 1;
                last_counted = Some(end);
            }
        }
        count
    }

    #[test]
    fn one_pass_count_matches_the_sort_and_merge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5d);
        for case in 0..2_000 {
            let n = rng.gen_range(2..12usize);
            // Offsets inside a few blocks, so ranges overlap and nest.
            let ranges: Vec<SglRange> = (0..n)
                .map(|_| SglRange::new(rng.gen_range(0..20_000u64), rng.gen_range(0..6_000u32)))
                .collect();
            let Ok(cmd) = ReadCommand::with_ranges(ranges.clone(), AccessMode::Block) else {
                continue;
            };
            assert!(cmd.ranges().windows(2).all(|w| w[0].offset <= w[1].offset));
            for g in [512u64, 4096] {
                assert_eq!(
                    cmd.blocks_touched(Bytes(g)),
                    merged_block_count(&ranges, g),
                    "case {case}, g={g}: {ranges:?}"
                );
            }
        }
    }
}
