//! Idle-CPU claim table: the shared-memory half of direct dispatch.
//!
//! The paper's submission path (§3.4) always queues: push → wake → lock →
//! drain → pick → serve. When a CPU is *already idle and waiting*, all of
//! that is overhead — the submitter knows a task, the CPU wants one, and
//! nothing else is in line. The claim table lets a submission hand its
//! task straight to an idle CPU with **one CAS**, bypassing the rings,
//! the queues and the delegation lock entirely:
//!
//! * each CPU owns one *handoff slot*, a single `u64` word:
//!   `0` = not armed, [`ClaimTable::ARMED`] = the CPU is idle and
//!   claimable, any other value = a deposited task (an offset payload,
//!   always `> ARMED` since segment offsets are nonzero and aligned);
//! * a per-word *armed bitmap* accelerates the submitter's scan — bits
//!   are hints (set on arm, cleared on claim/disarm); the slot CAS is the
//!   authority;
//! * an idle CPU **arms** its slot (`0 → ARMED`) before committing to
//!   sleep and **disarms** with a single swap on wake — the swap either
//!   returns the armed marker (nothing arrived) or a deposited task;
//! * a submitter **claims** with `CAS(ARMED → task)`: success transfers
//!   the task; failure (the CPU woke up, or another submitter won) costs
//!   one failed CAS and the submitter falls back to the ring path.
//!
//! Exactly-once delivery is the CAS's: a slot leaves `ARMED` exactly once
//! per arming, either by the owner's disarm or by one claimer. Blocking
//! and wakeup are the business of the per-CPU gates the runtime places
//! next to this table in the segment (`nosv_sync::CpuGateBlock`): a
//! claimer — of any attached process — follows its deposit with a notify
//! on the claimed CPU's gate.
//!
//! # Memory ordering
//!
//! Arming participates in a store-buffer (Dekker) protocol with the
//! submission path: the idle CPU arms (SeqCst) *then* re-checks the
//! scheduler's ready counters; a submitter publishes its task (SeqCst
//! ready-counter bump) *then* scans the armed bitmap. In any SeqCst total
//! order one side sees the other, so a task is never queued with its only
//! eligible CPU committed to an unnotified sleep.

use nosv_sync::hint::{AtomicU64, Ordering};

/// Most CPUs a claim table covers (matches the scheduler's array bound).
pub const CLAIM_MAX_CPUS: usize = 256;

const MASK_WORDS: usize = CLAIM_MAX_CPUS / 64;

/// The idle-CPU claim table; see the module docs. `repr(C)`, fixed
/// layout, zero-valid (zeroed = no CPU armed).
#[repr(C)]
pub struct ClaimTable {
    /// Armed-CPU hint bits, 64 CPUs per word.
    mask: [AtomicU64; MASK_WORDS],
    /// Per-CPU handoff slots.
    slots: [AtomicU64; CLAIM_MAX_CPUS],
}

impl ClaimTable {
    /// Slot marker for "armed, no task yet". Task payloads must be
    /// greater (segment offsets are nonzero and 8-aligned, so any real
    /// payload is ≥ 8).
    pub const ARMED: u64 = 1;

    /// Arms `cpu`'s slot: the CPU advertises itself claimable.
    ///
    /// Only the CPU's owning worker may call this, and only while its
    /// slot is empty (`0`).
    #[inline]
    pub fn arm(&self, cpu: usize) {
        debug_assert_eq!(
            self.slots[cpu].load(Ordering::Relaxed),
            0,
            "arming a non-empty slot"
        );
        self.slots[cpu].store(Self::ARMED, Ordering::SeqCst);
        self.mask[cpu / 64].fetch_or(1 << (cpu % 64), Ordering::SeqCst);
    }

    /// Disarms `cpu`'s slot, returning a task deposited since the arm.
    ///
    /// Only the CPU's owning worker may call this. Idempotent on an
    /// already-empty slot (returns `None`).
    #[inline]
    pub fn disarm(&self, cpu: usize) -> Option<u64> {
        let prev = self.slots[cpu].swap(0, Ordering::SeqCst);
        self.mask[cpu / 64].fetch_and(!(1 << (cpu % 64)), Ordering::SeqCst);
        if prev > Self::ARMED {
            Some(prev)
        } else {
            None
        }
    }

    /// Attempts to hand `task` to `cpu` (one CAS). `true` = the CPU now
    /// owns the task; the caller must still deliver the wakeup through
    /// that CPU's gate.
    ///
    /// # Panics
    ///
    /// Debug-asserts `task > ARMED` (real payloads always are).
    #[inline]
    pub fn try_claim(&self, cpu: usize, task: u64) -> bool {
        debug_assert!(task > Self::ARMED, "payload collides with the armed marker");
        let won = self.slots[cpu]
            .compare_exchange(Self::ARMED, task, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if won {
            self.mask[cpu / 64].fetch_and(!(1 << (cpu % 64)), Ordering::SeqCst);
        }
        won
    }

    /// One word of the armed-CPU hint bitmap (CPUs `64*w .. 64*w+63`).
    #[inline]
    pub fn armed_word(&self, w: usize) -> u64 {
        self.mask[w].load(Ordering::SeqCst)
    }

    /// Whether any CPU in `[0, cpus)` is currently armed (hint).
    #[inline]
    pub fn any_armed(&self, cpus: usize) -> bool {
        for w in 0..cpus.div_ceil(64) {
            if self.armed_word(w) != 0 {
                return true;
            }
        }
        false
    }

    /// Number of CPUs in `[0, cpus)` currently armed (hint snapshot).
    #[inline]
    pub fn armed_count(&self, cpus: usize) -> usize {
        let mut count = 0;
        for w in 0..cpus.div_ceil(64) {
            let mut word = self.armed_word(w);
            if (w + 1) * 64 > cpus {
                let keep = cpus - w * 64;
                word &= u64::MAX.checked_shr(64 - keep as u32).unwrap_or(0);
            }
            count += word.count_ones() as usize;
        }
        count
    }

    /// Armed CPUs within `[lo, hi)`, lowest first (hint snapshot).
    pub fn armed_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        let hi = hi.min(CLAIM_MAX_CPUS);
        let lo = lo.min(hi);
        (lo / 64..hi.div_ceil(64)).flat_map(move |w| {
            let mut word = self.armed_word(w);
            if w == lo / 64 {
                word &= u64::MAX.checked_shl((lo % 64) as u32).unwrap_or(0);
            }
            if (w + 1) * 64 > hi {
                let keep = hi - w * 64;
                word &= u64::MAX.checked_shr(64 - keep as u32).unwrap_or(0);
            }
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    fn table() -> Box<ClaimTable> {
        // SAFETY: ClaimTable is repr(C), all-atomic, zero-valid.
        unsafe { Box::new(std::mem::zeroed()) }
    }

    #[test]
    fn arm_claim_disarm_roundtrip() {
        let t = table();
        assert!(!t.any_armed(8));
        assert!(!t.try_claim(3, 800), "unarmed CPU cannot be claimed");
        t.arm(3);
        assert!(t.any_armed(8));
        assert_eq!(t.armed_in(0, 8).collect::<Vec<_>>(), vec![3]);
        assert!(t.try_claim(3, 800));
        assert!(!t.any_armed(8), "claim clears the hint bit");
        assert!(!t.try_claim(3, 900), "slot already holds a task");
        assert_eq!(t.disarm(3), Some(800));
        assert_eq!(t.disarm(3), None, "idempotent once emptied");
    }

    #[test]
    fn disarm_without_deposit_returns_none() {
        let t = table();
        t.arm(0);
        assert_eq!(t.disarm(0), None);
        assert!(!t.try_claim(0, 80), "disarmed CPU cannot be claimed");
    }

    #[test]
    fn armed_in_respects_range() {
        let t = table();
        for cpu in [1usize, 5, 64, 70] {
            t.arm(cpu);
        }
        assert_eq!(t.armed_in(0, 64).collect::<Vec<_>>(), vec![1, 5]);
        assert_eq!(t.armed_in(2, 6).collect::<Vec<_>>(), vec![5]);
        assert_eq!(t.armed_in(64, 128).collect::<Vec<_>>(), vec![64, 70]);
        assert_eq!(t.armed_in(0, 71).count(), 4);
    }

    /// Racing claimers: an armed slot is won by exactly one of N CAS
    /// attempts, and the owner's disarm sees exactly that deposit.
    #[test]
    fn exactly_one_claimer_wins() {
        const ROUNDS: usize = if cfg!(miri) { 50 } else { 2_000 };
        const CLAIMERS: usize = 4;
        let t: Arc<ClaimTable> = Arc::from(table());
        let wins = Arc::new(AtomicUsize::new(0));
        for round in 0..ROUNDS {
            t.arm(0);
            let handles: Vec<_> = (0..CLAIMERS)
                .map(|c| {
                    let t = Arc::clone(&t);
                    let wins = Arc::clone(&wins);
                    thread::spawn(move || {
                        if t.try_claim(0, 8 * (c as u64 + 1)) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let deposited = t.disarm(0);
            assert!(deposited.is_some(), "round {round}: no claimer won");
        }
        assert_eq!(wins.load(Ordering::Relaxed), ROUNDS);
    }
}
