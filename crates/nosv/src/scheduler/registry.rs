//! Process-slot life cycle in the scheduler: registration, clean
//! unregistration, and the forced reclaim of a dead (or cancelled)
//! process's queued work.

use nosv_shmem::Shoff;
use nosv_sync::hint::Ordering;

use super::{ReadyTask, Scheduler};
use crate::error::NosvError;

/// What [`Scheduler::reclaim_slot`] took back from a dead (or cancelled)
/// process, split by how it was found (drives the runtime's reclaim
/// counters and the crash-reclaim observability event).
#[derive(Debug, Default)]
pub(crate) struct ReclaimReport {
    /// Every descriptor recovered for the caller to dispose of: purged
    /// queue entries plus ring entries recovered from behind stranded
    /// reservations.
    pub tasks: Vec<ReadyTask>,
    /// Ring reservations the dead producer claimed but never published,
    /// force-retired by the sequence repair.
    pub stranded: u64,
    /// Ready-counter bumps with no ring entry behind them at all (the
    /// producer died between its bump and its push), settled from the
    /// contribution residue.
    pub counter_leak: u64,
}

impl Scheduler {
    pub(crate) fn register_proc(&self, slot: u32, pid: u64) {
        let p = &self.root().procs[slot as usize];
        // Idempotent: a re-registered slot reuses its existing rings. A
        // ring that cannot be set up — the segment is exhausted, or the
        // parity driver asked for capacity 0 to get a lock-ordered
        // reference — stays zeroed, which is not fatal: every push into it
        // bounces and the slot submits through the locked overflow.
        if self.ring_cap != 0 {
            for s in 0..self.shards.len() {
                let _ = p.rings[s].init(&self.seg, self.lanes, self.ring_cap);
            }
        }
        for s in 0..self.shards.len() {
            // A fresh claim starts with no ring contributions (reclaim
            // zeroes the residue; a clean detach leaves none — the store
            // is defensive self-healing for anything that slipped).
            p.contrib[s].store(0, Ordering::SeqCst);
        }
        for lock in self.shards.iter() {
            let mut core = lock.lock();
            core.register_proc(slot as usize, pid);
        }
    }

    /// Unregisters a process slot (§3.3 unregistration).
    ///
    /// Walks the shards in order: drains the slot's submission rings (a
    /// detach must not strand in-flight lock-free submissions), then
    /// refuses with [`NosvError::ProcessBusy`] while ready tasks of the
    /// process are queued **anywhere** — any shard's process queue or the
    /// core/NUMA queues its placed tasks routed to. A recoverable
    /// condition: the slot stays registered and usable. Only once every
    /// shard reports zero does a second pass unregister the slot
    /// everywhere (nothing can requeue between the passes: a submit
    /// racing a detach of its own process is a caller bug).
    pub(crate) fn unregister_proc(&self, slot: u32) -> Result<(), NosvError> {
        let mut queued = 0usize;
        for (s, lock) in self.shards.iter().enumerate() {
            let mut core = lock.lock();
            self.drain_rings_locked(&mut core, s);
            queued += core.proc_ready_count(slot as usize);
            debug_assert!(
                self.root().procs[slot as usize].rings[s].is_empty(),
                "submission ring refilled during detach"
            );
            debug_assert_eq!(
                self.root().procs[slot as usize].contrib[s].load(Ordering::SeqCst),
                0,
                "clean detach with a leftover ring contribution"
            );
        }
        if queued > 0 {
            // The sum over *all* shards, so the caller knows exactly how
            // much work is still outstanding.
            return Err(NosvError::ProcessBusy { queued });
        }
        for lock in self.shards.iter() {
            let mut core = lock.lock();
            core.unregister_proc(slot as usize);
        }
        Ok(())
    }

    /// Forcibly reclaims every queued task of `slot` and unregisters it —
    /// the crash-reclaim path (a guest died without detaching) and the
    /// cancel path (a busy [`crate::ProcessContext`] is dropped). Walks
    /// the shards one lock at a time: drains the slot's rings so no
    /// in-flight lock-free submission is stranded, purges the slot from
    /// every queue the shard owns ([`SchedCore::purge_slot`] — process,
    /// core and NUMA queues alike, preserving the FIFO order of
    /// survivors), settles the ready counters, and unregisters. Returns
    /// the reclaimed descriptors; the caller decides their fate (free
    /// through the SLAB for guest tasks, cancel-and-signal for host
    /// tasks). Tasks already *executing* are not touched — they complete
    /// normally.
    /// On top of the queue purge, each shard pass repairs the slot's
    /// submission rings ([`LaneRing::repair_stranded`] — safe here: the
    /// slot's producers are dead, and the shard lock makes us the sole
    /// consumer) and settles the ready counter from the slot's
    /// contribution residue, which covers all three crash windows at
    /// once: values published behind a stranded reservation (recovered
    /// and returned with the purged tasks), reservations never published
    /// (retired, counted in [`ReclaimReport::stranded`]), and ready bumps
    /// that never reached a ring at all ([`ReclaimReport::counter_leak`]).
    pub(crate) fn reclaim_slot(&self, slot: u32) -> ReclaimReport {
        let root = self.root();
        let mut report = ReclaimReport::default();
        let out = &mut report.tasks;
        for (s, lock) in self.shards.iter().enumerate() {
            let mut core = lock.lock();
            self.drain_rings_locked(&mut core, s);
            let mut recovered = Vec::new();
            let stranded =
                root.procs[slot as usize].rings[s].repair_stranded(&self.seg, &mut recovered);
            // Whatever the drain and the repair did not hand back is the
            // over-count the corpse leaked into `ready`; the recovered
            // and stranded entries are still in here too (never popped).
            let residual = root.procs[slot as usize].contrib[s].swap(0, Ordering::SeqCst);
            debug_assert!(
                residual >= stranded + recovered.len() as u64,
                "contribution residue must cover every unreaped ring entry"
            );
            let before = out.len();
            let mut store = self.store(s);
            core.purge_slot(&mut store, slot as usize, out);
            let taken = (out.len() - before) as u64;
            let settle = taken + residual;
            if settle > 0 {
                root.shard_hot[s].ready.fetch_sub(settle, Ordering::SeqCst);
            }
            report.counter_leak += residual.saturating_sub(stranded + recovered.len() as u64);
            report.stranded += stranded;
            out.extend(recovered.into_iter().map(Shoff::from_raw));
            core.unregister_proc(slot as usize);
        }
        report
    }

    pub(crate) fn set_app_priority(&self, slot: u32, priority: i32) {
        for lock in self.shards.iter() {
            let mut core = lock.lock();
            core.set_app_priority(slot as usize, priority);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::stats::Counters;
    use crate::task::Affinity;

    #[test]
    fn unregister_with_queued_tasks_is_a_recoverable_error() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        // The queued task blocks the detach — recoverably, and the error
        // reports how much work is outstanding.
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 1 })
        );
        // The slot is still registered and schedulable.
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
        // Drained: now the detach succeeds.
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn unregister_counts_placed_tasks_in_other_queues() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        // Placed tasks route to a core queue and a NUMA queue, NOT the
        // process queue — they must still block the detach.
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: true,
            },
        ));
        sched.submit(mk_task(
            &seg,
            2,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        ));
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 2 })
        );
        assert!(sched.get_task(2, 0, &c, &obs()).is_some());
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 1 }),
            "one placed task still queued"
        );
        assert!(sched.get_task(3, 0, &c, &obs()).is_some());
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn reclaim_settles_counter_leaks_and_stranded_slots() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        // A normally queued task of the doomed slot (ring path).
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        let root = sched.root();
        // A producer dying at `sched.guest_submit.counted`: counted, but
        // no ring slot was ever claimed.
        root.procs[0].contrib[0].fetch_add(1, Ordering::SeqCst);
        root.shard_hot[0].ready.fetch_add(1, Ordering::SeqCst);
        // A producer dying at `ring.push.reserved`: counted and claimed,
        // never published — this wedges the producer's lane.
        root.procs[0].contrib[0].fetch_add(1, Ordering::SeqCst);
        root.shard_hot[0].ready.fetch_add(1, Ordering::SeqCst);
        assert!(root.procs[0].rings[0].lane(0).strand_one(&seg));

        let report = sched.reclaim_slot(0);
        let ids: Vec<u64> = report.tasks.iter().map(|&t| id_of(&seg, t)).collect();
        assert_eq!(ids, vec![1], "only the real task has a descriptor");
        assert_eq!(report.stranded, 1, "the unpublished claim is retired");
        assert_eq!(report.counter_leak, 1, "the push-less bump is settled");
        // The counters are exact again: nothing ready, nothing residual.
        assert!(!sched.has_ready());
        assert_eq!(root.procs[0].contrib[0].load(Ordering::SeqCst), 0);
        sched.assert_masks_consistent();
        // The slot — wedged lane included — is fully reusable.
        let c = Counters::default();
        sched.register_proc(0, 30);
        sched.submit(mk_task(&seg, 2, 0, 30, 0, Affinity::None));
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 2);
        assert!(!sched.has_ready());
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn reclaim_recovers_values_published_behind_a_stranded_claim() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        let root = sched.root();
        let lane = root.procs[0].rings[0].lane(0);
        // Dead producer history, oldest first: one drained-normally task,
        // then a stranded claim, then a published-but-unreachable task.
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        root.procs[0].contrib[0].fetch_add(1, Ordering::SeqCst);
        root.shard_hot[0].ready.fetch_add(1, Ordering::SeqCst);
        assert!(lane.strand_one(&seg));
        // This one publishes fine but sits behind the corpse's claim.
        sched.submit_as(mk_task(&seg, 2, 0, 10, 0, Affinity::None), 0);

        let report = sched.reclaim_slot(0);
        let mut ids: Vec<u64> = report.tasks.iter().map(|&t| id_of(&seg, t)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2], "the wedged-in value is recovered");
        assert_eq!(report.stranded, 1);
        assert_eq!(report.counter_leak, 0);
        assert!(!sched.has_ready());
        sched.assert_masks_consistent();
    }

    #[test]
    fn unregister_flushes_the_submission_ring_first() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        // Sits in the lock-free ring until someone drains.
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        // The detach drains the ring into the queue, then refuses.
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 1 })
        );
        sched.assert_masks_consistent();
    }

    #[test]
    fn reclaim_slot_takes_queued_tasks_from_every_queue() {
        // 4 CPUs, 2 nodes, 2 shards: tasks of the doomed slot land in
        // process queues of both shards, a core queue and a NUMA queue —
        // plus one still sitting in a submission ring.
        let (seg, sched) = setup(4, 2, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 2, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(
            &seg,
            3,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: true,
            },
        ));
        sched.submit(mk_task(
            &seg,
            4,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        ));
        // A survivor task of another process must stay queued.
        sched.submit(mk_task(&seg, 100, 1, 20, 0, Affinity::None));

        let report = sched.reclaim_slot(0);
        let mut ids: Vec<u64> = report.tasks.iter().map(|&t| id_of(&seg, t)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.counter_leak, 0);
        sched.assert_masks_consistent();
        // The survivor is still schedulable; nothing else is.
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 100);
        assert!(!sched.has_ready());
        // The slot is gone: re-registering works (fresh state).
        sched.register_proc(0, 30);
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }
}
