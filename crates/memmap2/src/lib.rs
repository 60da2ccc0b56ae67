//! Offline stand-in for the `memmap2` crate: exactly the API subset this
//! workspace uses — a **read-only**, private, whole-file memory map that
//! derefs to `&[u8]` — behind a safe constructor.
//!
//! The real `memmap2::Mmap::map` is `unsafe` because a mapping's contents
//! can change under you if the underlying file is mutated while mapped
//! (turning safe `&[u8]` reads into undefined behavior). This stand-in
//! keeps the constructor safe and narrows the contract instead:
//!
//! 1. Mappings are always `PROT_READ` + `MAP_PRIVATE`: nothing written
//!    through the map, no sharing of dirty pages.
//! 2. The caller must not mutate the file while the map is alive. The
//!    corpus subsystem upholds this structurally — corpora are
//!    write-once (the writer refuses to touch an existing corpus), and
//!    every mapped byte is checksum-verified before use, so even an
//!    out-of-contract mutation is detected rather than silently read.
//!
//! On non-unix targets (where the raw `mmap` syscall ABI below is not
//! portable) the same API is backed by an ordinary buffered read into an
//! owned buffer — semantically identical, just not zero-copy.

#![warn(missing_docs)]

use std::fs::File;
use std::io;
use std::ops::Deref;

/// A read-only memory map of an entire file (unix), or an owned copy of
/// its contents (elsewhere). Deref to `&[u8]` for zero-copy slicing.
pub struct Mmap {
    inner: Inner,
}

enum Inner {
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    /// Zero-length files (nothing to map) and non-unix targets.
    Owned(Vec<u8>),
}

// SAFETY: the unix variant's mapping is PROT_READ + MAP_PRIVATE and this
// type exposes no mutation, so moving it to another thread is as safe as
// moving a `Vec<u8>`.
unsafe impl Send for Mmap {}
// SAFETY: same invariant as `Send` — the map is read-only and has no
// interior mutability, so concurrent `&[u8]` reads cannot race.
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Maps `len` bytes (> 0) of `file` read-only and private.
    pub fn map_read_only(file: &File, len: usize) -> io::Result<*mut core::ffi::c_void> {
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE map of a valid open fd,
        // addr = null (kernel picks placement), non-zero length; the
        // pointer is only read through and unmapped exactly once in Drop.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr)
    }

    /// Unmaps a region obtained from [`map_read_only`].
    pub fn unmap(ptr: *mut core::ffi::c_void, len: usize) {
        // SAFETY: (ptr, len) came from a successful mmap and is unmapped
        // exactly once; munmap failure here is unrecoverable but harmless
        // to ignore (the address space leaks until process exit).
        unsafe {
            let _ = munmap(ptr, len);
        }
    }
}

impl Mmap {
    /// Maps the whole of `file` read-only.
    ///
    /// Contract (see the crate docs): do not mutate the file while the
    /// returned map is alive.
    ///
    /// # Errors
    ///
    /// Propagates metadata or `mmap(2)` failures.
    pub fn map_read_only(file: &File) -> io::Result<Mmap> {
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        Mmap::map_impl(file, len)
    }

    #[cfg(unix)]
    fn map_impl(file: &File, len: usize) -> io::Result<Mmap> {
        if len == 0 {
            // mmap(2) rejects zero-length maps; an empty buffer is the
            // same observable object.
            return Ok(Mmap {
                inner: Inner::Owned(Vec::new()),
            });
        }
        let ptr = sys::map_read_only(file, len)?;
        Ok(Mmap {
            inner: Inner::Mapped { ptr, len },
        })
    }

    #[cfg(not(unix))]
    fn map_impl(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut file = file.try_clone()?;
        file.read_to_end(&mut buf)?;
        Ok(Mmap {
            inner: Inner::Owned(buf),
        })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: the region is a live PROT_READ mapping of `len`
                // bytes, valid until Drop, and never written through.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Inner::Owned(buf) => buf,
        }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => sys::unmap(*ptr, *len),
            Inner::Owned(_) => {}
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let zero_copy = !matches!(self.inner, Inner::Owned(_));
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("zero_copy", &zero_copy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("memmap2-test-{}-{tag}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        f.sync_all().unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_file("contents", b"hello mapped world");
        let map = Mmap::map_read_only(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, b"hello mapped world");
        assert_eq!(map.len(), 18);
        assert!(!map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_length_file_maps_to_empty_slice() {
        let path = temp_file("empty", b"");
        let map = Mmap::map_read_only(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn map_outlives_the_file_handle_and_a_deleted_path() {
        let path = temp_file("unlinked", b"still readable after unlink");
        let map = {
            let file = File::open(&path).unwrap();
            Mmap::map_read_only(&file).unwrap()
        };
        let _ = std::fs::remove_file(&path);
        assert_eq!(&*map, b"still readable after unlink");
    }

    #[test]
    fn maps_are_sharable_across_threads() {
        let path = temp_file("threads", b"abcdefgh");
        let map = std::sync::Arc::new(Mmap::map_read_only(&File::open(&path).unwrap()).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let map = std::sync::Arc::clone(&map);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "proves Mmap is soundly Send + Sync by reading one map from real threads"
                )]
                std::thread::spawn(move || map[0] + map[7])
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), b'a' + b'h');
        }
        let _ = std::fs::remove_file(&path);
    }
}
