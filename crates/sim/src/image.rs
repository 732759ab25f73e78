//! Post-crash NVM images.
//!
//! An [`NvmImage`] is what the paper's crash emulator outputs: "the values
//! of data in ... main memory" at the moment of the crash. Recovery logic
//! reads the image (or boots a fresh [`crate::system::MemorySystem`] from
//! it, so that detection work is charged on the simulated clock).
//!
//! An image stores only the pool's *written prefix* plus its logical
//! length, exactly like [`crate::backing::Backing`]: every byte past the
//! prefix reads as zero. A simulated pool is typically far larger than the
//! data living in it, so taking, copying and booting from an image costs
//! O(live data) instead of O(pool capacity). Two images are equal when
//! their logical contents are ([`NvmImage::first_difference`]), whatever
//! their prefixes.
//!
//! A [`DeltaImage`] is the copy-on-write form a crash-injection campaign
//! harvests at scale: an immutable base image shared via [`Arc`] plus
//! only the NVM lines that changed since the base was taken, so storing a
//! crash state costs O(dirty lines). Recovery lazily
//! [`DeltaImage::materialize`]s a standalone image when it needs one, at
//! O(base prefix + delta) cost.

use std::sync::Arc;

use crate::line::{line_of, offset_in_line, LINE_SHIFT, LINE_SIZE};
use crate::parray::{PArray, Pod};

/// Largest [`Pod`] the typed image reads decode.
const MAX_POD: usize = 16;

/// The NVM region at crash time: its written prefix plus its logical size.
#[derive(Clone)]
pub struct NvmImage {
    /// The written prefix; offsets from `prefix.len()` up to `len` read as
    /// zero. Never longer than `len`.
    prefix: Vec<u8>,
    /// Logical image size in bytes (the NVM pool capacity).
    len: usize,
    /// Distinct dirty NVM-homed cache lines resident in volatile levels at
    /// the crash instant (telemetry metadata; zero when not recorded).
    dirty_lines: u64,
}

impl NvmImage {
    /// An image of `len` logical bytes whose first `prefix.len()` bytes are
    /// `prefix` and whose remainder is zero (no dirty-residency metadata
    /// attached).
    pub fn from_prefix(prefix: Vec<u8>, len: usize) -> Self {
        assert!(
            prefix.len() <= len,
            "image prefix of {} bytes exceeds its length {len}",
            prefix.len()
        );
        NvmImage {
            prefix,
            len,
            dirty_lines: 0,
        }
    }

    /// Attach the number of dirty NVM-homed cache lines that were resident
    /// in the volatile hierarchy when this image was taken — the paper's
    /// "dirty data in the cache hierarchy" residency metric. Recorded by
    /// [`crate::system::MemorySystem::crash`] and
    /// [`crate::system::MemorySystem::crash_fork`].
    pub fn with_dirty_lines(mut self, lines: u64) -> Self {
        self.dirty_lines = lines;
        self
    }

    /// Dirty NVM-homed cache lines resident in volatile levels at crash
    /// time (zero when the image was built without residency metadata).
    ///
    /// With battery-backed caches ([`crate::system::SystemConfig::persistent_caches`])
    /// this still reports the pre-drain residency: it measures how much data
    /// *would* have been exposed, not how much was lost.
    pub fn dirty_lines_at_crash(&self) -> u64 {
        self.dirty_lines
    }

    /// [`NvmImage::dirty_lines_at_crash`] converted to bytes.
    pub fn dirty_bytes_at_crash(&self) -> u64 {
        crate::line::lines_to_bytes(self.dirty_lines)
    }

    /// The stored written prefix (NVM addresses index directly). Bytes
    /// from `written_prefix().len()` up to [`NvmImage::len`] are zero and
    /// not stored.
    pub fn written_prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Bytes the image actually holds (the written prefix).
    pub fn stored_len(&self) -> usize {
        self.prefix.len()
    }

    /// Logical image size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical image holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy `buf.len()` bytes starting at NVM address `addr` out of the
    /// image; the part past the written prefix reads as zero.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        assert!(
            a + buf.len() <= self.len,
            "image read at {addr:#x}+{} out of range {}",
            buf.len(),
            self.len
        );
        let stored = self.prefix.get(a..).unwrap_or_default();
        let have = stored.len().min(buf.len());
        buf[..have].copy_from_slice(&stored[..have]);
        buf[have..].fill(0);
    }

    /// Overwrite `data.len()` bytes at offset `off`, growing the stored
    /// prefix (zero-filled) when the write lands past it.
    pub(crate) fn write_bytes(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        assert!(end <= self.len, "image write past its length {}", self.len);
        if end > self.prefix.len() {
            self.prefix.resize(end, 0);
        }
        self.prefix[off..end].copy_from_slice(data);
    }

    /// The lowest address at which the logical contents of `self` and
    /// `other` differ, or `None` when they are equal. Images of different
    /// lengths differ at the shorter length. Every byte is compared; the
    /// stored prefixes may differ in length (trailing zeros are not part
    /// of an image's contents).
    pub fn first_difference(&self, other: &NvmImage) -> Option<u64> {
        let common = self.prefix.len().min(other.prefix.len());
        if let Some(i) = self.prefix[..common]
            .iter()
            .zip(&other.prefix[..common])
            .position(|(a, b)| a != b)
        {
            return Some(i as u64);
        }
        let longer = if self.prefix.len() > common {
            &self.prefix
        } else {
            &other.prefix
        };
        if let Some(i) = longer[common..].iter().position(|&b| b != 0) {
            let at = common + i;
            if at < self.len.min(other.len) {
                return Some(at as u64);
            }
        }
        (self.len != other.len).then_some(self.len.min(other.len) as u64)
    }

    /// Read a typed value at an NVM address.
    pub fn read<T: Pod>(&self, addr: u64) -> T {
        let mut buf = [0u8; MAX_POD];
        assert!(T::SIZE <= MAX_POD, "oversized Pod read");
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// Read one byte at an NVM address.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read(addr)
    }

    /// Read a little-endian `u64` at an NVM address.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr)
    }

    /// Read an `f64` at an NVM address.
    pub fn read_f64(&self, addr: u64) -> f64 {
        self.read(addr)
    }

    /// Read a whole typed array (by its simulated-memory handle).
    pub fn read_array<T: Pod>(&self, arr: &PArray<T>) -> Vec<T> {
        (0..arr.len()).map(|i| self.read(arr.addr(i))).collect()
    }

    /// Convenience alias for the common f64 case.
    pub fn read_f64_array(&self, arr: &PArray<f64>) -> Vec<f64> {
        self.read_array(arr)
    }
}

impl std::fmt::Debug for NvmImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NvmImage({} bytes, {} stored)",
            self.len,
            self.prefix.len()
        )
    }
}

/// A copy-on-write crash image: a shared base snapshot plus the NVM lines
/// that differ from it at crash time.
///
/// Built by [`crate::system::MemorySystem::crash_fork_delta`] against a
/// [`crate::system::DeltaBase`]. Reads see exactly the bytes a
/// [`crate::system::MemorySystem::crash_fork`] image taken at the same
/// instant would hold; [`DeltaImage::materialize`] proves it by producing
/// an [`NvmImage`] with the same logical contents.
#[derive(Clone)]
pub struct DeltaImage {
    base: Arc<NvmImage>,
    /// Sorted line numbers present in the delta.
    lines: Vec<u64>,
    /// Concatenated payload: `lines[i]`'s bytes live at `i * LINE_SIZE`.
    data: Vec<u8>,
    dirty_lines: u64,
}

impl DeltaImage {
    /// Assemble a delta over `base`. `lines` must be sorted, distinct line
    /// numbers; `data` holds one [`LINE_SIZE`] payload per line.
    pub(crate) fn new(base: Arc<NvmImage>, lines: Vec<u64>, data: Vec<u8>) -> Self {
        debug_assert_eq!(lines.len() * LINE_SIZE, data.len());
        debug_assert!(lines.windows(2).all(|w| w[0] < w[1]), "lines unsorted");
        DeltaImage {
            base,
            lines,
            data,
            dirty_lines: 0,
        }
    }

    /// Attach dirty-residency metadata (see [`NvmImage::with_dirty_lines`]).
    pub fn with_dirty_lines(mut self, lines: u64) -> Self {
        self.dirty_lines = lines;
        self
    }

    /// Dirty NVM-homed cache lines resident in volatile levels at crash
    /// time (the same residency metric [`NvmImage::dirty_lines_at_crash`]
    /// carries; it survives materialization).
    pub fn dirty_lines_at_crash(&self) -> u64 {
        self.dirty_lines
    }

    /// [`DeltaImage::dirty_lines_at_crash`] converted to bytes.
    pub fn dirty_bytes_at_crash(&self) -> u64 {
        crate::line::lines_to_bytes(self.dirty_lines)
    }

    /// The shared base snapshot this delta applies to.
    pub fn base(&self) -> &Arc<NvmImage> {
        &self.base
    }

    /// Number of lines stored in the delta.
    pub fn delta_line_count(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Bytes of delta payload this crash state owns (excludes the shared
    /// base). This is the per-state memory cost campaigns report.
    pub fn delta_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Logical size of the image in bytes (same as the base snapshot).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the logical image holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Copy `buf.len()` bytes starting at NVM address `addr` out of the
    /// logical image (delta lines shadow the base; the base reads as zero
    /// past its written prefix).
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        assert!(
            addr as usize + buf.len() <= self.base.len(),
            "image read at {addr:#x}+{} out of range {}",
            buf.len(),
            self.base.len()
        );
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let off = offset_in_line(a);
            let take = (LINE_SIZE - off).min(buf.len() - done);
            let dst = &mut buf[done..done + take];
            match self.lines.binary_search(&line_of(a)) {
                Ok(i) => {
                    dst.copy_from_slice(&self.data[i * LINE_SIZE + off..i * LINE_SIZE + off + take])
                }
                Err(_) => self.base.read_bytes(a, dst),
            }
            done += take;
        }
    }

    /// Read a typed value at an NVM address.
    pub fn read<T: Pod>(&self, addr: u64) -> T {
        let mut buf = [0u8; MAX_POD];
        assert!(T::SIZE <= MAX_POD, "oversized Pod read");
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// Read one byte at an NVM address.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read(addr)
    }

    /// Read a little-endian `u64` at an NVM address.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr)
    }

    /// Read an `f64` at an NVM address.
    pub fn read_f64(&self, addr: u64) -> f64 {
        self.read(addr)
    }

    /// Read a whole typed array (by its simulated-memory handle).
    pub fn read_array<T: Pod>(&self, arr: &PArray<T>) -> Vec<T> {
        (0..arr.len()).map(|i| self.read(arr.addr(i))).collect()
    }

    /// Bytes [`DeltaImage::materialize`] stores: the base prefix, grown to
    /// the end of the last delta line when that lies past it.
    pub fn materialized_len(&self) -> usize {
        let delta_end = self
            .lines
            .last()
            .map_or(0, |&line| ((line + 1) << LINE_SHIFT) as usize);
        self.base.stored_len().max(delta_end)
    }

    /// Expand to a standalone [`NvmImage`]: the base prefix, grown to the
    /// last delta line, with the delta lines applied and dirty-residency
    /// metadata carried over. O(base prefix + delta), never O(pool); its
    /// logical contents equal the crash image taken at the same instant.
    pub fn materialize(&self) -> NvmImage {
        let mut prefix = Vec::with_capacity(self.materialized_len());
        prefix.extend_from_slice(self.base.written_prefix());
        let mut image = NvmImage::from_prefix(prefix, self.base.len());
        for (line, payload) in self.lines.iter().zip(self.data.chunks_exact(LINE_SIZE)) {
            image.write_bytes((line << LINE_SHIFT) as usize, payload);
        }
        image.with_dirty_lines(self.dirty_lines)
    }
}

impl std::fmt::Debug for DeltaImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeltaImage({} lines over {}-byte base)",
            self.lines.len(),
            self.base.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MemorySystem, SystemConfig};

    #[test]
    fn image_reads_typed_values() {
        let mut s = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 16));
        let a = PArray::<f64>::alloc_nvm(&mut s, 4);
        a.store_slice(&mut s, &[1.0, 2.0, 3.0, 4.0]);
        a.persist_all(&mut s);
        let img = s.crash();
        assert_eq!(img.read_f64(a.addr(2)), 3.0);
        assert_eq!(img.read_f64_array(&a), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn image_bounds_checked() {
        let img = NvmImage::from_prefix(vec![0; 8], 8);
        let _ = img.read_u64(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_image_bounds_are_the_logical_length() {
        let img = NvmImage::from_prefix(vec![1; 8], 64);
        assert_eq!(img.read_u64(56), 0, "past the prefix, inside the image");
        let _ = img.read_u64(60);
    }

    #[test]
    fn typed_reads_zero_fill_past_the_prefix() {
        let img = NvmImage::from_prefix(vec![0xFF; 12], 64);
        assert_eq!(img.stored_len(), 12);
        assert_eq!(img.len(), 64);
        assert_eq!(img.read_u64(0), u64::MAX);
        assert_eq!(img.read_u64(8), 0xFFFF_FFFF, "straddles the prefix end");
        assert_eq!(img.read_u64(40), 0);
    }

    #[test]
    fn first_difference_compares_logical_contents() {
        let a = NvmImage::from_prefix(vec![1, 2, 0, 0], 16);
        let b = NvmImage::from_prefix(vec![1, 2], 16);
        assert_eq!(
            a.first_difference(&b),
            None,
            "trailing zeros are not contents"
        );
        assert_eq!(b.first_difference(&a), None);
        let c = NvmImage::from_prefix(vec![1, 2, 0, 5], 16);
        assert_eq!(b.first_difference(&c), Some(3));
        assert_eq!(c.first_difference(&b), Some(3));
        let d = NvmImage::from_prefix(vec![1, 3], 16);
        assert_eq!(a.first_difference(&d), Some(1));
        let short = NvmImage::from_prefix(vec![1, 2], 8);
        assert_eq!(a.first_difference(&short), Some(8), "lengths differ");
    }
}
