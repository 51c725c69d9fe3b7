//! Position-independent typed offsets into a shared segment.

use nosv_sync::hint::{AtomicU64, Ordering};
use std::fmt;
use std::marker::PhantomData;

/// A typed byte offset from the base of a shared segment.
///
/// This is the shared-memory analogue of `*mut T`: because the segment may
/// be mapped at a different virtual address in every attached process,
/// pointers stored *inside* the segment must be base-relative. Offset `0`
/// is reserved as the null value (the segment header lives there, so no
/// allocation can ever produce it).
///
/// `Shoff` is `Copy` and 8 bytes regardless of `T`; resolving it to a real
/// pointer requires the segment (see `ShmSegment::resolve`), which is the
/// only place the base address is known.
#[repr(transparent)]
pub struct Shoff<T> {
    raw: u64,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T> Shoff<T> {
    /// The null offset.
    pub const NULL: Shoff<T> = Shoff {
        raw: 0,
        _marker: PhantomData,
    };

    /// Creates an offset from a raw byte distance.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        Shoff {
            raw,
            _marker: PhantomData,
        }
    }

    /// The raw byte distance from the segment base.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.raw
    }

    /// Whether this is the null offset.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.raw == 0
    }

    /// Reinterprets the pointee type without changing the offset.
    #[inline]
    pub const fn cast<U>(self) -> Shoff<U> {
        Shoff::from_raw(self.raw)
    }

    /// Offset displaced by `bytes` (not scaled by `size_of::<T>()`, because
    /// shared structures mix headers and payloads at byte granularity).
    #[inline]
    pub const fn byte_add(self, bytes: u64) -> Shoff<T> {
        Shoff::from_raw(self.raw + bytes)
    }

    /// Views a slice of offsets as their raw `u64` values — the payload
    /// form the submission rings carry — without copying.
    #[inline]
    pub fn slice_as_raw(offsets: &[Shoff<T>]) -> &[u64] {
        // SAFETY: `Shoff<T>` is `#[repr(transparent)]` over its `u64` (the
        // marker is a zero-sized `PhantomData`), so both element types have
        // the same size, alignment and validity; the borrow carries over.
        unsafe { std::slice::from_raw_parts(offsets.as_ptr().cast::<u64>(), offsets.len()) }
    }
}

impl<T> Clone for Shoff<T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shoff<T> {}

impl<T> PartialEq for Shoff<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Shoff<T> {}

impl<T> std::hash::Hash for Shoff<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<T> fmt::Debug for Shoff<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "Shoff<{}>(null)", std::any::type_name::<T>())
        } else {
            write!(f, "Shoff<{}>({:#x})", std::any::type_name::<T>(), self.raw)
        }
    }
}

impl<T> Default for Shoff<T> {
    fn default() -> Self {
        Self::NULL
    }
}

/// An atomic [`Shoff<T>`], for offset-linked structures mutated concurrently
/// from several attached processes (free lists, ready queues).
#[repr(transparent)]
pub struct AtomicShoff<T> {
    raw: AtomicU64,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T> AtomicShoff<T> {
    /// Creates an atomic offset initialized to `value`.
    pub const fn new(value: Shoff<T>) -> Self {
        AtomicShoff {
            raw: AtomicU64::new(value.raw),
            _marker: PhantomData,
        }
    }

    /// Atomically loads the offset.
    #[inline]
    pub fn load(&self, order: Ordering) -> Shoff<T> {
        Shoff::from_raw(self.raw.load(order))
    }

    /// Atomically stores the offset.
    #[inline]
    pub fn store(&self, value: Shoff<T>, order: Ordering) {
        self.raw.store(value.raw, order);
    }

    /// Atomically swaps the offset.
    #[inline]
    pub fn swap(&self, value: Shoff<T>, order: Ordering) -> Shoff<T> {
        Shoff::from_raw(self.raw.swap(value.raw, order))
    }

    /// Atomic compare-exchange on the offset.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Shoff<T>,
        new: Shoff<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shoff<T>, Shoff<T>> {
        self.raw
            .compare_exchange(current.raw, new.raw, success, failure)
            .map(Shoff::from_raw)
            .map_err(Shoff::from_raw)
    }
}

impl<T> Default for AtomicShoff<T> {
    fn default() -> Self {
        Self::new(Shoff::NULL)
    }
}

impl<T> fmt::Debug for AtomicShoff<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.load(Ordering::Relaxed).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_raw_roundtrip() {
        let n = Shoff::<u32>::NULL;
        assert!(n.is_null());
        assert_eq!(n.raw(), 0);
        let o = Shoff::<u32>::from_raw(4096);
        assert!(!o.is_null());
        assert_eq!(o.raw(), 4096);
        assert_eq!(o, o.cast::<u8>().cast::<u32>());
    }

    #[test]
    fn byte_add_displaces() {
        let o = Shoff::<u8>::from_raw(100);
        assert_eq!(o.byte_add(28).raw(), 128);
    }

    #[test]
    fn slice_as_raw_views_the_same_words() {
        let offs = [
            Shoff::<u32>::from_raw(64),
            Shoff::NULL,
            Shoff::from_raw(4096),
        ];
        assert_eq!(Shoff::slice_as_raw(&offs), &[64, 0, 4096]);
        assert!(Shoff::<u32>::slice_as_raw(&[]).is_empty());
    }

    #[test]
    fn shoff_is_always_eight_bytes_and_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        // Even for a !Send pointee, the offset itself is freely shareable:
        // it is just a number until resolved against a segment.
        assert_send_sync::<Shoff<*mut u8>>();
        assert_eq!(std::mem::size_of::<Shoff<[u8; 123]>>(), 8);
        assert_eq!(std::mem::size_of::<AtomicShoff<[u8; 123]>>(), 8);
    }

    #[test]
    fn atomic_ops() {
        let a = AtomicShoff::<u64>::default();
        assert!(a.load(Ordering::Relaxed).is_null());
        a.store(Shoff::from_raw(64), Ordering::Relaxed);
        assert_eq!(a.swap(Shoff::from_raw(128), Ordering::Relaxed).raw(), 64);
        assert!(a
            .compare_exchange(
                Shoff::from_raw(128),
                Shoff::from_raw(256),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok());
        assert_eq!(a.load(Ordering::Relaxed).raw(), 256);
    }

    #[test]
    fn debug_formats_null_specially() {
        let n = format!("{:?}", Shoff::<u32>::NULL);
        assert!(n.contains("null"));
        let o = format!("{:?}", Shoff::<u32>::from_raw(0x40));
        assert!(o.contains("0x40"));
    }
}
