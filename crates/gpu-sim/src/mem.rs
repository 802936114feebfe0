//! Device memory: a first-fit allocator with coalescing over a real byte
//! arena.
//!
//! Device memory is backed by an actual `Vec<u8>` so that every simulated
//! copy moves real bytes — pack/unpack correctness in the upper layers is
//! checked end-to-end, not assumed.

use std::collections::BTreeMap;
use std::fmt;

/// Alignment of all device allocations, matching `cudaMalloc`'s 256-byte
/// guarantee.
pub const DEVICE_ALLOC_ALIGN: usize = 256;

/// An address in one GPU's device memory.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct DevPtr {
    pub(crate) gpu_id: u32,
    pub(crate) offset: usize,
}

impl fmt::Debug for DevPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DevPtr(gpu{}+{:#x})", self.gpu_id, self.offset)
    }
}

impl DevPtr {
    /// The owning GPU's id.
    pub fn gpu_id(&self) -> u32 {
        self.gpu_id
    }

    /// Byte offset within device memory.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// A pointer `bytes` further into device memory. A sum past the end of
    /// the address space is the device fault, not a wrapped pointer.
    pub fn add(&self, bytes: usize) -> DevPtr {
        let Some(offset) = self.offset.checked_add(bytes) else {
            panic!("{self:?} + {bytes} bytes is outside any live allocation")
        };
        DevPtr {
            gpu_id: self.gpu_id,
            offset,
        }
    }

    /// A pointer displaced by a signed byte offset. Panics if the result
    /// would be before the start of device memory.
    pub fn add_signed(&self, bytes: isize) -> DevPtr {
        let abs = self.offset as isize + bytes;
        assert!(
            abs >= 0,
            "device pointer displaced before the start of device memory"
        );
        DevPtr {
            gpu_id: self.gpu_id,
            offset: abs as usize,
        }
    }
}

/// Device out-of-memory error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceOom {
    /// Bytes requested by the failed allocation.
    pub requested: usize,
    /// Bytes currently free (possibly fragmented).
    pub free: usize,
}

impl fmt::Display for DeviceOom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for DeviceOom {}

/// First-fit free-list allocator with neighbor coalescing.
pub(crate) struct DeviceMem {
    pub(crate) arena: Vec<u8>,
    /// offset -> length of each free extent, disjoint and non-adjacent.
    free: BTreeMap<usize, usize>,
    /// offset -> length of each live allocation.
    allocs: BTreeMap<usize, usize>,
}

impl DeviceMem {
    pub fn new(capacity: usize) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        DeviceMem {
            arena: vec![0u8; capacity],
            free,
            allocs: BTreeMap::new(),
        }
    }

    pub fn bytes_free(&self) -> usize {
        self.free.values().sum()
    }

    pub fn bytes_allocated(&self) -> usize {
        self.allocs.values().sum()
    }

    pub fn alloc(&mut self, len: usize) -> Result<usize, DeviceOom> {
        let need = len.max(1).next_multiple_of(DEVICE_ALLOC_ALIGN);
        let found = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= need)
            .map(|(&off, &flen)| (off, flen));
        match found {
            Some((off, flen)) => {
                self.free.remove(&off);
                if flen > need {
                    self.free.insert(off + need, flen - need);
                }
                self.allocs.insert(off, need);
                Ok(off)
            }
            None => Err(DeviceOom {
                requested: len,
                free: self.bytes_free(),
            }),
        }
    }

    pub fn dealloc(&mut self, offset: usize) {
        let len = self
            .allocs
            .remove(&offset)
            .unwrap_or_else(|| panic!("free of unallocated device pointer offset {offset:#x}"));
        // Coalesce with the free extent immediately before, if adjacent.
        let mut start = offset;
        let mut total = len;
        if let Some((&poff, &plen)) = self.free.range(..offset).next_back() {
            if poff + plen == offset {
                self.free.remove(&poff);
                start = poff;
                total += plen;
            }
        }
        // Coalesce with the free extent immediately after, if adjacent.
        if let Some(&nlen) = self.free.get(&(offset + len)) {
            self.free.remove(&(offset + len));
            total += nlen;
        }
        self.free.insert(start, total);
    }

    /// Validate that `[offset, offset+len)` lies within a single live
    /// allocation; panics otherwise. This is the simulator's equivalent of a
    /// device segfault.
    pub fn check_access(&self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let ok = self
            .allocs
            .range(..=offset)
            .next_back()
            .is_some_and(|(&aoff, &alen)| {
                // An end past the address space is past every allocation.
                offset
                    .checked_add(len)
                    .is_some_and(|end| end <= aoff + alen)
            });
        assert!(
            ok,
            "device memory access [{offset:#x}, +{len}) outside any live allocation"
        );
    }

    /// Number of live allocations (for leak tests).
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = DeviceMem::new(4096);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a % DEVICE_ALLOC_ALIGN, 0);
        assert_eq!(b % DEVICE_ALLOC_ALIGN, 0);
        assert_ne!(a, b);
        assert!(b >= a + 256 || a >= b + 256);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = DeviceMem::new(1024);
        let _a = m.alloc(512).unwrap();
        let err = m.alloc(1024).unwrap_err();
        assert_eq!(err.requested, 1024);
        assert_eq!(err.free, 512);
    }

    #[test]
    fn free_coalesces_neighbors() {
        let mut m = DeviceMem::new(4096);
        let a = m.alloc(256).unwrap();
        let b = m.alloc(256).unwrap();
        let c = m.alloc(256).unwrap();
        m.dealloc(a);
        m.dealloc(c);
        m.dealloc(b); // middle block must merge both sides
        assert_eq!(m.bytes_free(), 4096);
        assert_eq!(m.free.len(), 1, "free list must be fully coalesced");
        // After full coalescing a capacity-sized alloc succeeds again.
        assert!(m.alloc(4096).is_ok());
    }

    #[test]
    fn reuse_after_free() {
        let mut m = DeviceMem::new(1024);
        let a = m.alloc(1024).unwrap();
        assert!(m.alloc(1).is_err());
        m.dealloc(a);
        assert!(m.alloc(1024).is_ok());
    }

    #[test]
    #[should_panic(expected = "free of unallocated")]
    fn double_free_panics() {
        let mut m = DeviceMem::new(1024);
        let a = m.alloc(10).unwrap();
        m.dealloc(a);
        m.dealloc(a);
    }

    #[test]
    fn check_access_accepts_interior() {
        let mut m = DeviceMem::new(4096);
        let a = m.alloc(1000).unwrap();
        m.check_access(a, 1000);
        m.check_access(a + 100, 900);
        m.check_access(a, 0);
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn check_access_rejects_overflow() {
        let mut m = DeviceMem::new(4096);
        // 1000 rounds up to 1024, so 1025 bytes must overflow the alloc.
        let a = m.alloc(1000).unwrap();
        m.check_access(a, 1025);
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn check_access_rejects_an_end_that_wraps() {
        let mut m = DeviceMem::new(4096);
        let a = m.alloc(256).unwrap();
        m.check_access(a + 8, usize::MAX - 4);
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn pointer_add_rejects_a_sum_that_wraps() {
        let p = DevPtr {
            gpu_id: 0,
            offset: 256,
        };
        p.add(usize::MAX - 8);
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn check_access_rejects_freed() {
        let mut m = DeviceMem::new(4096);
        let a = m.alloc(256).unwrap();
        m.dealloc(a);
        m.check_access(a, 1);
    }

    #[test]
    fn accounting_adds_up() {
        let mut m = DeviceMem::new(8192);
        let a = m.alloc(300).unwrap(); // rounds to 512
        let _b = m.alloc(256).unwrap();
        assert_eq!(m.bytes_allocated(), 512 + 256);
        assert_eq!(m.bytes_free(), 8192 - 768);
        m.dealloc(a);
        assert_eq!(m.bytes_allocated(), 256);
        assert_eq!(m.live_allocs(), 1);
    }
}
