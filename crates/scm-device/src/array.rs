//! A host's set of SCM devices.

use crate::device::{ReadInfo, ReadOutcome, ScmDevice, WriteOutcome};
use crate::error::DeviceError;
use crate::nvme::ReadCommand;
use crate::tech::TechnologyProfile;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimInstant;
use std::fmt;

/// Identifies one device within a [`DeviceArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// The set of SCM drives attached to one host (e.g. the paper's HW-SS has
/// two 2 TB Nand drives, HW-AO two 0.4 TB Optane drives).
///
/// The array exposes a flat logical address space; the `sdm-core` crate
/// decides which device a table lives on and addresses it as
/// `(DeviceId, offset)`. Aggregate statistics (total IOPS capability,
/// capacity) are available for host sizing.
#[derive(Debug)]
pub struct DeviceArray {
    devices: Vec<ScmDevice>,
}

impl DeviceArray {
    /// Creates an array from already-constructed devices.
    pub fn new(devices: Vec<ScmDevice>) -> Self {
        DeviceArray { devices }
    }

    /// Creates `count` identical devices of the given profile and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ZeroCapacity`] when `capacity_each` is zero.
    pub fn homogeneous(
        profile: TechnologyProfile,
        capacity_each: Bytes,
        count: usize,
    ) -> Result<Self, DeviceError> {
        let mut devices = Vec::with_capacity(count);
        for i in 0..count {
            devices.push(ScmDevice::new(
                format!("{}-{}", profile.kind, i),
                profile.clone(),
                capacity_each,
            )?);
        }
        Ok(DeviceArray { devices })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the array holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Borrow a device.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownDevice`] for an out-of-range id.
    pub fn device(&self, id: DeviceId) -> Result<&ScmDevice, DeviceError> {
        self.devices.get(id.0).ok_or(DeviceError::UnknownDevice {
            index: id.0,
            len: self.devices.len(),
        })
    }

    /// Mutably borrow a device.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownDevice`] for an out-of-range id.
    pub fn device_mut(&mut self, id: DeviceId) -> Result<&mut ScmDevice, DeviceError> {
        let len = self.devices.len();
        self.devices
            .get_mut(id.0)
            .ok_or(DeviceError::UnknownDevice { index: id.0, len })
    }

    /// Iterates over `(DeviceId, &ScmDevice)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &ScmDevice)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i), d))
    }

    /// Issues a read against a specific device at the given queue depth.
    ///
    /// # Errors
    ///
    /// Propagates device errors; see [`ScmDevice::read`].
    pub fn read(
        &mut self,
        id: DeviceId,
        cmd: &ReadCommand,
        queue_depth: usize,
    ) -> Result<ReadOutcome, DeviceError> {
        self.device_mut(id)?.read(cmd, queue_depth)
    }

    /// Issues a read against a specific device at virtual instant `now`,
    /// consulting any attached fault plan (see [`ScmDevice::read_at`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors, including injected
    /// [`DeviceError::TransientRead`] failures.
    pub fn read_at(
        &mut self,
        id: DeviceId,
        cmd: &ReadCommand,
        queue_depth: usize,
        now: SimInstant,
    ) -> Result<ReadOutcome, DeviceError> {
        self.device_mut(id)?.read_at(cmd, queue_depth, now)
    }

    /// [`DeviceArray::read_at`] into a caller-owned buffer (see
    /// [`ScmDevice::read_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`DeviceArray::read_at`].
    pub fn read_into(
        &mut self,
        id: DeviceId,
        cmd: &ReadCommand,
        queue_depth: usize,
        now: SimInstant,
        data: &mut Vec<u8>,
    ) -> Result<ReadInfo, DeviceError> {
        self.device_mut(id)?.read_into(cmd, queue_depth, now, data)
    }

    /// Writes to a specific device.
    ///
    /// # Errors
    ///
    /// Propagates device errors; see [`ScmDevice::write_at`].
    pub fn write(
        &mut self,
        id: DeviceId,
        offset: u64,
        data: &[u8],
    ) -> Result<WriteOutcome, DeviceError> {
        self.device_mut(id)?.write_at(offset, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_array_has_the_requested_devices() {
        let arr = DeviceArray::homogeneous(TechnologyProfile::optane_ssd(), Bytes::from_mib(8), 2)
            .unwrap();
        assert_eq!(arr.len(), 2);
        assert!(!arr.is_empty());
        assert!(DeviceArray::new(vec![]).is_empty());
    }

    #[test]
    fn unknown_device_is_an_error() {
        let mut arr =
            DeviceArray::homogeneous(TechnologyProfile::nand_flash(), Bytes::from_mib(1), 1)
                .unwrap();
        assert!(matches!(
            arr.read(DeviceId(5), &ReadCommand::sgl(0, 8), 1),
            Err(DeviceError::UnknownDevice { index: 5, len: 1 })
        ));
        assert!(arr.device(DeviceId(0)).is_ok());
    }

    #[test]
    fn reads_and_writes_route_to_the_right_device() {
        let mut arr =
            DeviceArray::homogeneous(TechnologyProfile::optane_ssd(), Bytes::from_mib(1), 2)
                .unwrap();
        arr.write(DeviceId(1), 0, &[9u8; 64]).unwrap();
        let out0 = arr.read(DeviceId(0), &ReadCommand::sgl(0, 64), 1).unwrap();
        let out1 = arr.read(DeviceId(1), &ReadCommand::sgl(0, 64), 1).unwrap();
        assert_eq!(out0.data, vec![0u8; 64]);
        assert_eq!(out1.data, vec![9u8; 64]);
        assert_eq!(arr.device(DeviceId(1)).unwrap().stats().writes, 1);
    }
}
