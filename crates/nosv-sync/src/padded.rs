//! Cache-line padding to prevent false sharing.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes.
///
/// 128 bytes covers the adjacent-line prefetcher on modern x86 parts (which
/// effectively makes the destructive interference granularity two 64-byte
/// lines) and the 128-byte lines on some AArch64 implementations. Every
/// per-CPU slot in the scheduler and the allocator magazine caches is
/// wrapped in `Padded` so that two CPUs never contend on the same line.
#[derive(Default)]
#[repr(C, align(128))]
pub struct Padded<T> {
    value: T,
}

impl<T> Padded<T> {
    /// Wraps `value` in a padded, 128-byte-aligned cell.
    #[inline]
    pub const fn new(value: T) -> Self {
        Padded { value }
    }

    /// Consumes the wrapper, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for Padded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Padded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Padded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Padded").field(&self.value).finish()
    }
}

impl<T: Clone> Clone for Padded<T> {
    fn clone(&self) -> Self {
        Padded::new(self.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, size_of};

    #[test]
    fn alignment_and_size() {
        assert_eq!(align_of::<Padded<u8>>(), 128);
        assert_eq!(size_of::<Padded<u8>>(), 128);
        // A large payload still rounds up to a multiple of the alignment.
        assert_eq!(size_of::<Padded<[u8; 130]>>(), 256);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = Padded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn array_elements_do_not_share_lines() {
        let arr = [Padded::new(0u32), Padded::new(0u32)];
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert!(b - a >= 128);
    }
}
