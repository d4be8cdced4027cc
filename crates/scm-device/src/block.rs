//! Sparse byte-addressable backing store for simulated devices.

use crate::error::DeviceError;
use sdm_metrics::units::Bytes;
use sdm_metrics::IntMap;

/// Chunk size used for the sparse store. This is an implementation detail
/// independent of the device's access granularity.
const CHUNK: usize = 4096;

/// A sparse page store holding the bytes written to a simulated device.
///
/// Unwritten regions read back as zeroes, like a freshly formatted drive.
/// The store allocates 4 KiB chunks lazily so terabyte-scale *logical*
/// devices can be simulated while only the touched capacity is resident.
///
/// # Example
///
/// ```
/// use scm_device::PageStore;
/// use sdm_metrics::units::Bytes;
///
/// # fn main() -> Result<(), scm_device::DeviceError> {
/// let mut store = PageStore::new(Bytes::from_mib(1))?;
/// store.write_at(10, &[1, 2, 3])?;
/// assert_eq!(store.read_at(9, 5)?, vec![0, 1, 2, 3, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PageStore {
    capacity: Bytes,
    /// Resident chunks by chunk index (`offset / CHUNK`). Indices are
    /// program-generated, so the map runs on the cheap integer hasher:
    /// every device read looks one up.
    chunks: IntMap<u64, Box<[u8; CHUNK]>>,
}

impl PageStore {
    /// Creates an empty store of the given logical capacity.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ZeroCapacity`] for a zero-sized store.
    pub fn new(capacity: Bytes) -> Result<Self, DeviceError> {
        if capacity.is_zero() {
            return Err(DeviceError::ZeroCapacity);
        }
        Ok(PageStore {
            capacity,
            chunks: IntMap::default(),
        })
    }

    /// Logical capacity of the store.
    pub(crate) fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<(), DeviceError> {
        let end = offset.checked_add(len);
        match end {
            Some(end) if end <= self.capacity.as_u64() => Ok(()),
            _ => Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            }),
        }
    }

    /// Writes `data` starting at byte `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the write extends past the
    /// device capacity.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.check_range(offset, data.len() as u64)?;
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let chunk_idx = pos / CHUNK as u64;
            let within = (pos % CHUNK as u64) as usize;
            let n = (CHUNK - within).min(data.len() - written);
            let chunk = self
                .chunks
                .entry(chunk_idx)
                .or_insert_with(|| Box::new([0u8; CHUNK]));
            chunk[within..within + n].copy_from_slice(&data[written..written + n]);
            written += n;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at byte `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the read extends past the
    /// device capacity.
    pub fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>, DeviceError> {
        self.check_range(offset, len)?;
        let mut out = vec![0u8; len as usize];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// Reads into a caller-provided buffer (avoids allocation on hot paths).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the read extends past the
    /// device capacity.
    pub(crate) fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.check_range(offset, buf.len() as u64)?;
        let mut read = 0usize;
        while read < buf.len() {
            let pos = offset + read as u64;
            let chunk_idx = pos / CHUNK as u64;
            let within = (pos % CHUNK as u64) as usize;
            let n = (CHUNK - within).min(buf.len() - read);
            match self.chunks.get(&chunk_idx) {
                Some(chunk) => buf[read..read + n].copy_from_slice(&chunk[within..within + n]),
                None => buf[read..read + n].fill(0),
            }
            read += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            PageStore::new(Bytes::ZERO),
            Err(DeviceError::ZeroCapacity)
        ));
    }

    #[test]
    fn unwritten_reads_are_zero() {
        let store = PageStore::new(Bytes::from_kib(64)).unwrap();
        assert_eq!(store.read_at(100, 16).unwrap(), vec![0u8; 16]);
        assert!(store.chunks.is_empty());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut store = PageStore::new(Bytes::from_kib(64)).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        store.write_at(1000, &data).unwrap();
        assert_eq!(store.read_at(1000, 256).unwrap(), data);
    }

    #[test]
    fn write_spanning_chunk_boundary() {
        let mut store = PageStore::new(Bytes::from_kib(64)).unwrap();
        let data = vec![0xAB; 1000];
        store.write_at((CHUNK - 500) as u64, &data).unwrap();
        let back = store.read_at((CHUNK - 500) as u64, 1000).unwrap();
        assert_eq!(back, data);
        assert_eq!(store.chunks.len(), 2);
    }

    #[test]
    fn out_of_bounds_accesses_rejected() {
        let mut store = PageStore::new(Bytes::from_kib(4)).unwrap();
        assert!(matches!(
            store.write_at(4096, &[1]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(matches!(
            store.read_at(4000, 200),
            Err(DeviceError::OutOfBounds { .. })
        ));
        // exactly at the boundary is fine
        assert!(store.write_at(4095, &[1]).is_ok());
    }

    #[test]
    fn overflowing_offset_is_rejected() {
        let store = PageStore::new(Bytes::from_kib(4)).unwrap();
        assert!(matches!(
            store.read_at(u64::MAX - 2, 10),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_into_partial_overlap_with_written_chunk() {
        let mut store = PageStore::new(Bytes::from_kib(16)).unwrap();
        store.write_at(0, &[9u8; 8]).unwrap();
        let mut buf = [1u8; 16];
        store.read_into(4, &mut buf).unwrap();
        assert_eq!(&buf[..4], &[9, 9, 9, 9]);
        assert_eq!(&buf[4..], &[0u8; 12]);
    }
}
