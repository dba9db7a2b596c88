//! Memory-mapped snapshot sources: the zero-copy side of the RSNB
//! container contract (`docs/SNAPSHOT_FORMAT.md`, `docs/INGEST.md`).
//!
//! [`MmapSource`] maps a file read-only via a hand-declared `mmap(2)`
//! extern (no libc crate — the workspace builds air-gapped) and hands
//! out the mapping as one `&[u8]`. The binary framer does pointer
//! arithmetic over that slice, so record spans borrow the page cache
//! directly instead of being copied through a chunk reader. Unix only,
//! like the `rela` binary's sockets.
//!
//! This is the only module in the crate allowed to use `unsafe`; the
//! crate root carries `#![deny(unsafe_code)]` and every unsafe block
//! here is scoped to the mapping's pointer/length pair.
#![allow(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::path::Path;

/// The block [`MmapSource::release`] advises in: a whole number of
/// pages for the 4, 16 and 64 KiB page sizes in use.
const RELEASE_ALIGN: usize = 64 << 10;

mod sys {
    use std::ffi::c_void;

    pub(super) const PROT_READ: i32 = 1;
    pub(super) const MAP_PRIVATE: i32 = 2;
    pub(super) const MADV_DONTNEED: i32 = 4;

    // Hand-declared POSIX mmap(2)/munmap(2)/madvise(2); the workspace
    // vendors all dependencies, so there is no libc crate to lean on.
    // Signatures match 64-bit unix (off_t = i64).
    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub(super) fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    pub(super) fn map_failed(ptr: *mut c_void) -> bool {
        ptr as usize == usize::MAX
    }
}

/// A read-only memory mapping of a snapshot file. The whole file is
/// visible as one immutable `&[u8]` for the mapping's lifetime; record
/// spans framed out of it borrow the page cache with no copy.
///
/// Empty files are special-cased without a mapping (`mmap(2)` rejects
/// zero-length maps), so `open` works on any regular file.
pub struct MmapSource {
    /// Base address of the mapping; null for empty files (no mapping).
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its
// whole lifetime, so sharing the pointer across threads is sound.
unsafe impl Send for MmapSource {}
// SAFETY: see the Send impl — the mapping is never written through.
unsafe impl Sync for MmapSource {}

impl MmapSource {
    /// Map `path` read-only. The file handle is released immediately —
    /// a live mapping keeps the pages reachable on its own (which is
    /// also why a spooled file may be unlinked right after mapping).
    pub fn open(path: impl AsRef<Path>) -> io::Result<MmapSource> {
        MmapSource::map(&File::open(path)?)
    }

    /// Map an open regular file read-only, for a caller that had to
    /// open it anyway to look at its head. The mapping does not depend
    /// on the handle staying open.
    pub fn map(file: &File) -> io::Result<MmapSource> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        if len == 0 {
            return Ok(MmapSource {
                ptr: std::ptr::null(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file descriptor for `len` readable
        // bytes; we request a fresh private read-only mapping and check
        // for MAP_FAILED before using the address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::map_failed(ptr) {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapSource {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; it is unmapped only in Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Tell the kernel the bytes in `range` have been consumed and their
    /// pages may leave this process's resident set
    /// (`madvise(MADV_DONTNEED)`). The advice covers the whole 64 KiB
    /// blocks inside `range`, and a range that runs to the end of the
    /// mapping covers its last, partial block too. Returns where the
    /// advice ends: `range.end` rounded down to a block, or the
    /// mapping's length. The mapped framer advises each stretch of a
    /// container about twice as its cursor passes it, so the advice
    /// over a whole container is O(its length).
    ///
    /// Purely advisory and strictly non-destructive: the mapping is
    /// clean and read-only, so the page-cache copy survives and any
    /// later access — a span borrowing the released region, say —
    /// refaults the identical bytes with a minor fault. The pages leave
    /// the process's resident set (what `VmHWM`, `ps` and the OOM score
    /// see), not the page cache. Failures are ignored.
    pub fn release(&self, range: Range<usize>) -> usize {
        let start = range.start.next_multiple_of(RELEASE_ALIGN);
        let end = if range.end >= self.len {
            self.len
        } else {
            range.end & !(RELEASE_ALIGN - 1)
        };
        if start >= end {
            return end;
        }
        // SAFETY: [ptr + start, ptr + end) lies within the live
        // PROT_READ mapping, its start on a block boundary and so on a
        // page boundary, and MADV_DONTNEED on a clean file-backed
        // private mapping only drops residency — observable bytes are
        // unchanged.
        unsafe {
            sys::madvise(
                self.ptr.add(start) as *mut std::ffi::c_void,
                end - start,
                sys::MADV_DONTNEED,
            );
        }
        end
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapped file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for MmapSource {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: ptr/len are the exact values returned by mmap;
            // nothing borrows the mapping once self is dropping (the
            // slice accessor ties borrows to self's lifetime).
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

impl std::ops::Deref for MmapSource {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for MmapSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MmapSource")
            .field("len", &self.len())
            .finish()
    }
}

/// What makes `std::io::Cursor<MmapSource>` a [`std::io::Read`], for the
/// ingest paths that want a stream rather than a slice (JSON content
/// inside a mapped file, the materialized and delta modes).
impl AsRef<[u8]> for MmapSource {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("rela-mmap-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn maps_file_contents_byte_for_byte() {
        let path = temp_path("contents");
        let payload: Vec<u8> = (0..4096u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MmapSource::open(&path).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_files_map_as_empty_slices() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let map = MmapSource::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn released_pages_refault_identical_bytes() {
        let path = temp_path("release");
        // several blocks, and a partial one at the end, so the release
        // drops whole blocks in the middle and the tail at the end
        let payload: Vec<u8> = (0..(5 * RELEASE_ALIGN + 123) as u32)
            .map(|x| x as u8)
            .collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MmapSource::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
        // an unaligned range releases the whole blocks inside it
        let ended = map.release(RELEASE_ALIGN / 2..3 * RELEASE_ALIGN + 7);
        assert_eq!(ended, 3 * RELEASE_ALIGN);
        // the advice must be observably non-destructive, unlink included
        assert_eq!(map.as_slice(), &payload[..]);
        assert_eq!(map.release(2 * RELEASE_ALIGN..usize::MAX), map.len());
        assert_eq!(map.as_slice(), &payload[..]);
        map.release(0..map.len());
        assert_eq!(map.release(7..7), 0); // nothing inside a block
        assert_eq!(map.as_slice(), &payload[..]);
    }

    #[test]
    fn mapping_outlives_an_unlinked_file() {
        let path = temp_path("unlinked");
        std::fs::write(&path, b"still here after unlink").unwrap();
        let map = MmapSource::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(map.as_slice(), b"still here after unlink");
    }

    #[test]
    fn reader_streams_the_mapping() {
        use std::io::Read;
        let path = temp_path("reader");
        std::fs::write(&path, b"0123456789").unwrap();
        let map = MmapSource::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut reader = io::Cursor::new(map);
        let mut buf = [0u8; 4];
        assert_eq!(reader.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"0123");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"456789");
    }
}
