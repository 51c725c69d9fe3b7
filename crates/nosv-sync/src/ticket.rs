//! Classic FIFO ticket spinlock.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

use crate::hint::{AtomicU64, Ordering};
use crate::{Backoff, Padded};

/// A fair FIFO ticket lock.
///
/// Threads take a ticket (`next.fetch_add(1)`) and spin until `serving`
/// reaches their ticket. Fairness is exactly arrival order, which is the
/// property the Delegation Ticket Lock inherits; this type is the
/// no-delegation baseline used in the `dtlock` microbenchmark.
///
/// `next` and `serving` live on separate cache lines so that ticket
/// acquisition (an RMW on `next`) does not invalidate the line every waiter
/// is spinning on (`serving`).
pub struct TicketLock<T: ?Sized> {
    next: Padded<AtomicU64>,
    serving: Padded<AtomicU64>,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides the necessary exclusion; `T: Send` is enough
// because only one thread accesses the value at a time.
unsafe impl<T: ?Sized + Send> Send for TicketLock<T> {}
unsafe impl<T: ?Sized + Send> Sync for TicketLock<T> {}

impl<T> TicketLock<T> {
    /// Creates an unlocked ticket lock holding `value`.
    pub const fn new(value: T) -> Self {
        TicketLock {
            next: Padded::new(AtomicU64::new(0)),
            serving: Padded::new(AtomicU64::new(0)),
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> TicketLock<T> {
    /// Acquires the lock, waiting in FIFO order.
    pub fn lock(&self) -> TicketLockGuard<'_, T> {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        TicketLockGuard { lock: self }
    }

    /// Attempts to acquire the lock only if no one holds or awaits it.
    pub fn try_lock(&self) -> Option<TicketLockGuard<'_, T>> {
        let serving = self.serving.load(Ordering::Acquire);
        // Only take a ticket if it would be served immediately; otherwise we
        // would be committed to waiting (tickets cannot be returned).
        if self
            .next
            .compare_exchange(serving, serving + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            Some(TicketLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Number of threads currently waiting (approximate, racy by nature).
    pub fn queue_len(&self) -> u64 {
        let next = self.next.load(Ordering::Relaxed);
        let serving = self.serving.load(Ordering::Relaxed);
        next.saturating_sub(serving).saturating_sub(1)
    }

    /// Returns a mutable reference to the underlying data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

/// RAII guard for [`TicketLock`]; passes the lock to the next ticket on drop.
pub struct TicketLockGuard<'a, T: ?Sized> {
    lock: &'a TicketLock<T>,
}

impl<T: ?Sized> Deref for TicketLockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: guard implies exclusive access.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for TicketLockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for TicketLockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        let serving = self.lock.serving.load(Ordering::Relaxed);
        self.lock.serving.store(serving + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutual_exclusion_counter() {
        const THREADS: usize = 4;
        const ITERS: usize = if cfg!(miri) { 200 } else { 10_000 };
        let lock = Arc::new(TicketLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), THREADS * ITERS);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = TicketLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn queue_len_is_zero_uncontended() {
        let lock = TicketLock::new(());
        assert_eq!(lock.queue_len(), 0);
        let _g = lock.lock();
        assert_eq!(lock.queue_len(), 0);
    }

    #[test]
    fn fifo_order_single_waiter_chain() {
        // Serially acquire/release many times; serving must advance exactly
        // once per release.
        let lock = TicketLock::new(0u64);
        for i in 0..100 {
            let mut g = lock.lock();
            assert_eq!(*g, i);
            *g += 1;
        }
    }
}
