//! Error type for the simulated device layer.

use sdm_metrics::units::Bytes;
use std::error::Error;
use std::fmt;

/// Errors returned by the simulated SCM devices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// A read or write referenced a byte range outside the device capacity.
    OutOfBounds {
        /// First byte of the offending access.
        offset: u64,
        /// Length of the offending access.
        len: u64,
        /// Device capacity.
        capacity: Bytes,
    },
    /// A device was created with zero capacity.
    ZeroCapacity,
    /// A read command carried no ranges / zero length.
    EmptyCommand,
    /// The command requested SGL (sub-block) access on a technology that
    /// does not support the bit-bucket extension.
    SglUnsupported {
        /// Human-readable technology name.
        technology: String,
    },
    /// The addressed device does not exist in the [`crate::DeviceArray`].
    UnknownDevice {
        /// Index that was requested.
        index: usize,
        /// Number of devices in the array.
        len: usize,
    },
    /// A read failed transiently (injected by a [`crate::FaultPlan`] or, in
    /// a real deployment, a media/link hiccup). Safe to retry.
    TransientRead {
        /// Name of the device that failed the read.
        device: String,
    },
}

impl DeviceError {
    /// Whether re-issuing the same command can reasonably succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DeviceError::TransientRead { .. })
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) is outside device capacity {capacity}"
            ),
            DeviceError::ZeroCapacity => write!(f, "device capacity must be non-zero"),
            DeviceError::EmptyCommand => write!(f, "read command carries no bytes"),
            DeviceError::SglUnsupported { technology } => {
                write!(
                    f,
                    "technology {technology} does not support SGL bit-bucket reads"
                )
            }
            DeviceError::UnknownDevice { index, len } => {
                write!(
                    f,
                    "device index {index} out of range (array has {len} devices)"
                )
            }
            DeviceError::TransientRead { device } => {
                write!(f, "transient read failure on device {device} (retryable)")
            }
        }
    }
}

impl Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DeviceError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: Bytes::from_kib(1),
        };
        let msg = e.to_string();
        assert!(msg.contains("10"));
        assert!(msg.contains("capacity"));

        assert!(DeviceError::ZeroCapacity.to_string().contains("non-zero"));
        assert!(DeviceError::EmptyCommand.to_string().contains("no bytes"));
        assert!(DeviceError::SglUnsupported {
            technology: "PCIe Nand Flash".into()
        }
        .to_string()
        .contains("bit-bucket"));
        assert!(DeviceError::UnknownDevice { index: 3, len: 2 }
            .to_string()
            .contains("3"));
        let transient = DeviceError::TransientRead {
            device: "ssd0".into(),
        };
        assert!(transient.to_string().contains("ssd0"));
        assert!(transient.is_transient());
        assert!(!DeviceError::EmptyCommand.is_transient());
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<DeviceError>();
    }
}
