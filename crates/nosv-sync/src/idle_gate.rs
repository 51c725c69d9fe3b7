//! Event-counted idle gate: sleep exactly until something happens.
//!
//! The classic *eventcount* pattern splits blocking into a wait-free
//! producer side and a three-step consumer side, eliminating both the
//! periodic-poll timeout and the producer-side mutex of a plain
//! mutex/condvar gate:
//!
//! * a consumer (an idle worker) calls [`IdleGate::prepare_wait`] to
//!   capture the current event epoch, re-checks its predicate ("is there
//!   work?"), and only then calls [`IdleGate::wait`] with the captured key;
//! * a producer (a task submitter) makes its work visible and bumps the
//!   epoch with [`IdleGate::notify_one`]/[`IdleGate::notify_all`] — a
//!   single `fetch_add` plus a sleeper check in the common no-sleeper case.
//!
//! [`IdleGate::wait`] blocks only if the epoch still equals the key, so a
//! notification that lands between the predicate check and the sleep is
//! never lost: the epoch has moved and `wait` returns immediately. This is
//! the protocol nOS-V needs for its futex-idle behaviour (paper §5.2's
//! "oversubscription idle" baseline — never busy-wait, never poll).
//!
//! # Layout: two words, anywhere
//!
//! The gate is two 32-bit words — the epoch, which *is* the futex word,
//! and a sleeper count — `#[repr(C)]`, valid all-zero and free of host
//! pointers, and it blocks on a *shared* futex
//! ([`crate::hint::futex_wait`]). It can therefore live inside a
//! shared-memory segment with waiter and waker in different OS processes:
//! the paper's system-wide wake machinery (§3.3–3.4) is this one type, on
//! the heap for a lone runtime and in the segment for co-executing ones.
//!
//! # Memory ordering
//!
//! The lost-wakeup argument is a store-buffer (Dekker) pattern and needs
//! sequential consistency on the epoch and sleeper counters:
//!
//! * consumer: `sleepers += 1`, **then** reads `epoch`;
//! * producer: bumps `epoch`, **then** reads `sleepers`.
//!
//! In any SeqCst total order at least one side observes the other: either
//! the consumer sees the bumped epoch (returns without sleeping), or the
//! producer sees `sleepers > 0` and issues a `FUTEX_WAKE` — *after* its
//! bump. The kernel's `FUTEX_WAIT` compares the epoch against the key and
//! enqueues the consumer under the same lock `FUTEX_WAKE` takes, so that
//! wake either finds the consumer queued, or ran first — and then the bump
//! before it is what the kernel-side compare reads, and the consumer
//! returns at once.
//!
//! The epoch is 32 bits because the futex word is: a waiter would miss a
//! notification only if exactly 2³² of them landed between its
//! `prepare_wait` and its sleep.
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use nosv_sync::IdleGate;
//!
//! let gate = Arc::new(IdleGate::new());
//! let ready = Arc::new(AtomicBool::new(false));
//! let (g, r) = (Arc::clone(&gate), Arc::clone(&ready));
//! let consumer = std::thread::spawn(move || loop {
//!     let key = g.prepare_wait();
//!     if r.load(Ordering::Acquire) {
//!         break; // predicate satisfied, never sleeps
//!     }
//!     g.wait(key);
//! });
//! ready.store(true, Ordering::Release);
//! gate.notify_one();
//! consumer.join().unwrap();
//! ```

use std::time::Duration;

use crate::hint::{futex_wait, futex_wake, AtomicU32, Ordering};

/// An event-counted gate for idle threads; see the module docs for the
/// protocol, the layout contract and the lost-wakeup argument.
#[repr(C)]
pub struct IdleGate {
    /// Event epoch, bumped by every notification — and the futex word
    /// sleepers block on.
    epoch: AtomicU32,
    /// Threads currently committed to sleeping.
    sleepers: AtomicU32,
}

impl IdleGate {
    /// Creates a gate with no pending events and no sleepers (the
    /// all-zero state a fresh segment already holds).
    pub const fn new() -> IdleGate {
        IdleGate {
            epoch: AtomicU32::new(0),
            sleepers: AtomicU32::new(0),
        }
    }

    /// Captures the current event epoch.
    ///
    /// Call this **before** re-checking the wait predicate; pass the
    /// returned key to [`IdleGate::wait`]. Any notification after this
    /// call makes that `wait` return immediately.
    #[inline]
    pub fn prepare_wait(&self) -> u32 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Blocks until a notification arrives after `key` was captured.
    ///
    /// Returns immediately if one already has. Spurious returns are
    /// allowed (callers loop on their predicate anyway).
    pub fn wait(&self, key: u32) {
        self.wait_spin_timeout(key, 0, None);
    }

    /// Like [`IdleGate::wait`], preceded by a bounded adaptive spin: up to
    /// `rounds` backoff steps (escalating from `spin_loop` hints to OS
    /// yields) watching the epoch before committing to the futex sleep. A
    /// notification that lands during the spin is consumed without any
    /// kernel transition on either side — the "standby worker" fast path
    /// that lets a fully idle runtime absorb a serial task stream without
    /// paying one futex wake per task.
    ///
    /// `rounds == 0` is exactly [`IdleGate::wait`]. Callers should elect
    /// at most one spinner at a time (see `CpuGates`), since every
    /// additional spinner burns a core the workload could use.
    pub fn wait_spin(&self, key: u32, rounds: u32) {
        self.wait_spin_timeout(key, rounds, None);
    }

    /// [`IdleGate::wait_spin`] whose sleep also ends after `timeout`
    /// (`None` = unbounded) — for waiters that must look up now and then
    /// whatever happens, e.g. to probe whether the process they wait on
    /// is still alive.
    pub fn wait_spin_timeout(&self, key: u32, rounds: u32, timeout: Option<Duration>) {
        let mut backoff = crate::Backoff::new();
        for _ in 0..rounds {
            if self.epoch.load(Ordering::SeqCst) != key {
                return;
            }
            backoff.snooze();
        }
        // Commit to sleeping *before* the epoch check (see module docs:
        // the producer reads `sleepers` after bumping the epoch, so one
        // side always sees the other).
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == key {
            futex_wait(&self.epoch, key, timeout);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Signals one sleeping thread that an event happened.
    ///
    /// Wait-free when nobody sleeps (one `fetch_add` + one load); enters
    /// the kernel only to hand a `FUTEX_WAKE` to a committed sleeper.
    #[inline]
    pub fn notify_one(&self) {
        self.notify(false);
    }

    /// Signals every sleeping thread (shutdown, topology-constrained work
    /// that only a specific sleeper can take).
    #[inline]
    pub fn notify_all(&self) {
        self.notify(true);
    }

    #[inline]
    fn notify(&self, all: bool) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            futex_wake(&self.epoch, all);
        }
    }

    /// Racy count of threads currently sleeping on the gate (diagnostics).
    pub fn sleepers(&self) -> u32 {
        self.sleepers.load(Ordering::Relaxed)
    }

    /// Zeroes the sleeper count. Only for a gate whose every possible
    /// waiter is known to be gone — a shared-segment gate whose waiting
    /// process was killed mid-sleep leaves its increment behind, and until
    /// it is cleared each notification pays a pointless `FUTEX_WAKE`.
    pub fn forget_sleepers(&self) {
        self.sleepers.store(0, Ordering::SeqCst);
    }
}

impl Default for IdleGate {
    fn default() -> Self {
        IdleGate::new()
    }
}

impl std::fmt::Debug for IdleGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdleGate")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("sleepers", &self.sleepers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hint::AtomicU64;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn stale_key_returns_immediately() {
        let gate = IdleGate::new();
        let key = gate.prepare_wait();
        gate.notify_one();
        // Must not block: the epoch moved after the key was captured.
        gate.wait(key);
    }

    #[test]
    fn timed_wait_returns_without_a_notification() {
        let gate = IdleGate::new();
        let key = gate.prepare_wait();
        let t0 = std::time::Instant::now();
        gate.wait_spin_timeout(key, 0, Some(Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(4), "slept it out");
        assert_eq!(gate.sleepers(), 0, "commitment withdrawn on timeout");
    }

    #[test]
    fn zeroed_memory_is_a_valid_gate() {
        // SAFETY: IdleGate is repr(C), all-atomic and zero-valid — the
        // contract segment-resident instances rely on.
        let gate: IdleGate = unsafe { std::mem::zeroed() };
        assert_eq!(std::mem::size_of::<IdleGate>(), 8);
        let key = gate.prepare_wait();
        gate.notify_all();
        gate.wait(key); // must not block
    }

    #[test]
    fn notification_wakes_a_sleeper() {
        let gate = Arc::new(IdleGate::new());
        let woken = Arc::new(AtomicBool::new(false));
        let (g, w) = (Arc::clone(&gate), Arc::clone(&woken));
        let t = thread::spawn(move || {
            let key = g.prepare_wait();
            g.wait(key);
            w.store(true, Ordering::Release);
        });
        // Wait until the sleeper is committed, then notify.
        while gate.sleepers() == 0 {
            thread::yield_now();
        }
        gate.notify_one();
        t.join().unwrap();
        assert!(woken.load(Ordering::Acquire));
    }

    #[test]
    fn notify_all_wakes_every_sleeper() {
        const N: usize = 4;
        let gate = Arc::new(IdleGate::new());
        let threads: Vec<_> = (0..N)
            .map(|_| {
                let g = Arc::clone(&gate);
                thread::spawn(move || {
                    let key = g.prepare_wait();
                    g.wait(key);
                })
            })
            .collect();
        while gate.sleepers() < N as u32 {
            thread::yield_now();
        }
        gate.notify_all();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(gate.sleepers(), 0);
    }

    /// The lost-wakeup property under fire: producers flip per-slot flags
    /// and notify; a consumer sleeps whenever it sees no flag. Every flag
    /// must be consumed without the consumer hanging — with no timeout to
    /// paper over a lost notification, a single loss deadlocks the test.
    #[test]
    fn no_lost_wakeups_under_contention() {
        const EVENTS: u64 = if cfg!(miri) { 300 } else { 20_000 };
        let gate = Arc::new(IdleGate::new());
        let pending = Arc::new(AtomicU64::new(0));

        let consumer = {
            let gate = Arc::clone(&gate);
            let pending = Arc::clone(&pending);
            thread::spawn(move || {
                let mut consumed = 0u64;
                while consumed < EVENTS {
                    let key = gate.prepare_wait();
                    let avail = pending.swap(0, Ordering::AcqRel);
                    if avail > 0 {
                        consumed += avail;
                        continue;
                    }
                    gate.wait(key);
                }
                consumed
            })
        };
        let producer = {
            let gate = Arc::clone(&gate);
            let pending = Arc::clone(&pending);
            thread::spawn(move || {
                for i in 0..EVENTS {
                    pending.fetch_add(1, Ordering::AcqRel);
                    gate.notify_one();
                    if i % 64 == 0 {
                        // Give the consumer a chance to actually sleep so
                        // both wait paths are exercised.
                        thread::sleep(Duration::from_micros(50));
                    }
                }
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), EVENTS);
    }
}
