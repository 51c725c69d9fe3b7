//! The consumer side of the scheduler shell: draining the submission
//! rings into the shard's queues, the per-CPU pick, DTLock delegation
//! (serving the shard's waiting CPUs under one hold) and cross-shard
//! stealing.

use std::cell::RefCell;

use nosv_core::{Pick, PickSource, SchedCore, STEAL_SCAN_LIMIT};
use nosv_shmem::Shoff;
use nosv_sync::hint::Ordering;
use nosv_sync::{Acquired, DtGuard};

use super::{ReadyTask, Scheduler};
use crate::obs::{ObsCollector, ObsEvent, ObsKind};
use crate::stats::Counters;
use crate::task::TaskId;

thread_local! {
    /// Reusable buffer for observability events produced inside a critical
    /// section: they are deferred and emitted only after the lock is
    /// released (an emit can drain a full worker buffer into the user's
    /// sink, which must never run under a lock CPUs' fetches wait on).
    static DEFERRED: RefCell<Vec<ObsEvent>> = const { RefCell::new(Vec::new()) };
}

impl Scheduler {
    /// Marks the calling worker hungry for the duration of a fetch; see
    /// [`Scheduler::wake_for`]. Called by the worker pull loop around
    /// [`Scheduler::get_task`].
    pub(crate) fn begin_fetch(&self) {
        self.root().hungry.fetch_add(1, Ordering::SeqCst);
    }

    /// Ends the window opened by [`Scheduler::begin_fetch`].
    pub(crate) fn end_fetch(&self) {
        self.root().hungry.fetch_sub(1, Ordering::SeqCst);
    }

    /// Moves every ring entry of `shard` into its destination queue.
    /// Caller holds the shard's lock. One batch per lock hold: this is
    /// the paper's amortization — many lock-free submissions, one
    /// critical-section traversal.
    pub(super) fn drain_rings_locked(&self, core: &mut SchedCore, shard: usize) {
        /// Pops per lock hold between batch enqueues (bounds the stack
        /// buffer; the loop continues until the lane is dry either way).
        const DRAIN_CHUNK: usize = 64;
        let root = self.root();
        let mut store = self.store(shard);
        let hot = &root.shard_hot[shard];
        let mut mask = hot.ring_mask.load(Ordering::Acquire);
        while mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // Clear the dirty bit *before* draining: a producer that pushes
            // while we drain re-sets it, so the entry is either taken by
            // this batch or advertised for the next holder.
            hot.ring_mask.fetch_and(!(1 << slot), Ordering::AcqRel);
            let lanes = &root.procs[slot].rings[shard];
            // Same discipline one level down: take (clear) the dirty-lane
            // bitmap, then drain the lanes it named; racing producers
            // re-mark both levels after their push.
            let mut drained = 0u64;
            let mut dirty = lanes.take_dirty();
            while dirty != 0 {
                let lane = dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let ring = lanes.lane(lane);
                let mut buf = [Shoff::from_raw(0); DRAIN_CHUNK];
                loop {
                    let mut n = 0;
                    while n < DRAIN_CHUNK {
                        match ring.pop(&self.seg) {
                            Some(raw) => {
                                buf[n] = Shoff::from_raw(raw);
                                n += 1;
                            }
                            None => break,
                        }
                    }
                    if n == 0 {
                        break;
                    }
                    drained += n as u64;
                    // The ready counter was bumped at push time; routing
                    // moves the tasks between scheduler-internal homes.
                    core.enqueue_batch(&mut store, &buf[..n]);
                }
            }
            if drained > 0 {
                // Every popped entry's producer made a matching contrib
                // increment happens-before its publish, so this never
                // takes the counter below a concurrent producer's add.
                root.procs[slot].contrib[shard].fetch_sub(drained, Ordering::SeqCst);
            }
        }
    }

    /// Re-inserts a task the scheduler already handed out (a vanished
    /// delegation target). Caller holds `shard`'s lock.
    fn requeue_locked(&self, core: &mut SchedCore, shard: usize, task: ReadyTask) {
        let mut store = self.store(shard);
        core.route(&mut store, task);
        self.root().shard_hot[shard]
            .ready
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Fetches the next task for `cpu`: its home shard first (winning the
    /// shard's DTLock and scheduling — also serving all waiting CPUs — or
    /// being served), then the other shards in rotation via cross-shard
    /// stealing.
    pub(crate) fn get_task(
        &self,
        cpu: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
    ) -> Option<ReadyTask> {
        if !self.has_ready() {
            return None;
        }
        let cpu = cpu % self.wake.cpus;
        let home = self.map.shard_of_cpu(cpu);
        let mine = match self.shards[home].acquire(cpu as u64) {
            Acquired::Served(task) => {
                counters.delegations_served.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
            Acquired::Holder(mut guard) => DEFERRED.with(|cell| {
                let mut deferred = cell.borrow_mut();
                debug_assert!(deferred.is_empty());
                // The server's batch: first move every lock-free
                // submission into the shard's queues, then schedule for
                // ourselves and every waiting CPU under the same hold.
                self.drain_rings_locked(&mut guard, home);
                let mine =
                    self.pick_for_cpu(&mut guard, home, cpu, now_ns, counters, obs, &mut deferred);
                // Serve every waiting CPU we can see while we are the
                // server — the DTLock delegation pattern (§3.4).
                self.serve_waiters(&mut guard, home, now_ns, counters, obs, &mut deferred);
                drop(guard);
                for ev in deferred.drain(..) {
                    obs.emit(ev);
                }
                mine
            }),
        };
        match mine {
            Some(task) => Some(task),
            // Home shard dry: steal from the other shards in rotation.
            None => self.cross_shard_steal(cpu, home, now_ns, counters, obs),
        }
    }

    /// Serves the waiting CPUs of `shard`'s lock while the caller holds
    /// it — the DTLock delegation batch (§3.4). Waiters of this shard get
    /// a full pick; a *foreign* CPU in the queue is a cross-shard stealer
    /// and is served with **steal semantics** ([`SchedCore::
    /// steal_for_remote`]: strictness-aware, no quantum restart, no
    /// policy consult — exactly what it would have taken had it won the
    /// lock itself), so delegation keeps batching across stealers instead
    /// of degrading the shard into a ticket lock. The stealer's own
    /// `Served` arm does the steal accounting; nothing is counted here.
    fn serve_waiters(
        &self,
        guard: &mut DtGuard<'_, SchedCore, ReadyTask>,
        shard: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
        deferred: &mut Vec<ObsEvent>,
    ) {
        while let Some(meta) = guard.next_waiter_meta() {
            let waiter_cpu = meta as usize % self.wake.cpus;
            let task = if self.map.shard_of_cpu(waiter_cpu) == shard {
                self.pick_for_cpu(guard, shard, waiter_cpu, now_ns, counters, obs, deferred)
            } else {
                let mut store = self.store(shard);
                let stealer_numa = guard.numa_of(waiter_cpu);
                guard
                    .steal_for_remote(&mut store, STEAL_SCAN_LIMIT, stealer_numa)
                    .map(|Pick { task, .. }| {
                        self.root().shard_hot[shard]
                            .ready
                            .fetch_sub(1, Ordering::SeqCst);
                        task
                    })
            };
            match task {
                Some(task) => {
                    if let Err(task) = guard.serve_next(task) {
                        // Waiter vanished mid-publication: requeue.
                        self.requeue_locked(guard, shard, task);
                        break;
                    }
                }
                None => break,
            }
        }
    }

    /// The cross-shard half of a fetch: visit the other shards in rotated
    /// order, skip those advertising no ready work, and take one
    /// non-strict task from the first that has any
    /// ([`SchedCore::steal_for_remote`]). One victim lock at a time, and
    /// never while holding another shard's lock.
    ///
    /// The stealer joins the victim's **delegation protocol** (a plain
    /// `acquire`, publishing its CPU like any local waiter): an unslotted
    /// ticket would break the victim server's delegation batch and cost
    /// it a bounded probe spin per steal — exactly the convoy sharding
    /// exists to remove. A served value counts as the steal; a win of the
    /// lock steals directly and then serves the victim's own waiters
    /// while it holds the shard anyway.
    fn cross_shard_steal(
        &self,
        cpu: usize,
        home: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
    ) -> Option<ReadyTask> {
        let root = self.root();
        for victim in self.map.steal_rotation(home) {
            if root.shard_hot[victim].ready.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let stolen = match self.shards[victim].acquire(cpu as u64) {
                // The victim's server handed us a task through our wait
                // slot — with steal semantics, since it recognized our
                // foreign CPU (see serve_waiters). The accounting below
                // is ours.
                Acquired::Served(task) => Some(task),
                Acquired::Holder(mut guard) => {
                    self.drain_rings_locked(&mut guard, victim);
                    let mut store = self.store(victim);
                    let stealer_numa = guard.numa_of(cpu);
                    let picked = guard.steal_for_remote(&mut store, STEAL_SCAN_LIMIT, stealer_numa);
                    let stolen = picked.map(|Pick { task, .. }| {
                        root.shard_hot[victim].ready.fetch_sub(1, Ordering::SeqCst);
                        task
                    });
                    // While we hold the victim shard, serve its waiting
                    // CPUs exactly as its own server would (§3.4) — a
                    // stealer must not degrade the shard it visits into a
                    // plain ticket lock.
                    DEFERRED.with(|cell| {
                        let mut deferred = cell.borrow_mut();
                        self.serve_waiters(
                            &mut guard,
                            victim,
                            now_ns,
                            counters,
                            obs,
                            &mut deferred,
                        );
                        drop(guard);
                        for ev in deferred.drain(..) {
                            obs.emit(ev);
                        }
                    });
                    stolen
                }
            };
            if let Some(task) = stolen {
                counters.shard_steals.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    // SAFETY: a task handed out by the scheduler is alive.
                    let d = unsafe { self.seg.sref(task) };
                    obs.emit(ObsEvent {
                        t_ns: now_ns,
                        cpu: cpu as u32,
                        pid: d.pid.load(Ordering::Relaxed),
                        task: TaskId(d.id.load(Ordering::Relaxed)),
                        kind: ObsKind::Steal,
                    });
                }
                return Some(task);
            }
        }
        None
    }

    /// The scheduling decision for one CPU — one call into the shared
    /// core, plus the live backend's bookkeeping (ready count, counters,
    /// deferred observability). Caller holds `shard`'s lock.
    #[allow(clippy::too_many_arguments)]
    fn pick_for_cpu(
        &self,
        core: &mut SchedCore,
        shard: usize,
        cpu: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
        deferred: &mut Vec<ObsEvent>,
    ) -> Option<ReadyTask> {
        let mut store = self.store(shard);
        let Pick { task, pid, source } = core.pick(&mut store, &*self.policy, cpu, now_ns)?;
        self.root().shard_hot[shard]
            .ready
            .fetch_sub(1, Ordering::SeqCst);
        match source {
            PickSource::Process {
                quantum_expired: true,
            } => {
                counters.quantum_switches.fetch_add(1, Ordering::Relaxed);
            }
            PickSource::Steal => {
                counters.affinity_steals.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    // SAFETY: a task handed out by the scheduler is alive.
                    let d = unsafe { self.seg.sref(task) };
                    deferred.push(ObsEvent {
                        t_ns: now_ns,
                        cpu: (cpu % self.wake.cpus) as u32,
                        pid,
                        task: TaskId(d.id.load(Ordering::Relaxed)),
                        kind: ObsKind::Steal,
                    });
                }
            }
            _ => {}
        }
        Some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::task::Affinity;

    #[test]
    fn single_process_fifo() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        for id in 0..3 {
            sched.submit(mk_task(&seg, id, 0, 10, 0, Affinity::None));
        }
        assert!(sched.has_ready());
        for id in 0..3 {
            let t = sched.get_task(0, 0, &c, &obs()).unwrap();
            assert_eq!(id_of(&seg, t), id);
        }
        assert!(!sched.has_ready());
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
    }

    #[test]
    fn process_preference_sticks_within_quantum() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        // Interleave submissions from two processes.
        for id in 0..4 {
            sched.submit(mk_task(&seg, 100 + id, 0, 10, 0, Affinity::None));
            sched.submit(mk_task(&seg, 200 + id, 1, 20, 0, Affinity::None));
        }
        // Within the quantum the core should drain one process first.
        let first = sched.get_task(0, 0, &c, &obs()).unwrap();
        let first_pid = unsafe { seg.sref(first) }.pid.load(Ordering::Relaxed);
        for _ in 0..3 {
            let t = sched.get_task(0, 10, &c, &obs()).unwrap();
            assert_eq!(
                unsafe { seg.sref(t) }.pid.load(Ordering::Relaxed),
                first_pid,
                "process preference must hold inside the quantum"
            );
        }
        // Only the other process remains.
        let t = sched.get_task(0, 20, &c, &obs()).unwrap();
        assert_ne!(
            unsafe { seg.sref(t) }.pid.load(Ordering::Relaxed),
            first_pid
        );
    }

    #[test]
    fn quantum_expiry_switches_processes() {
        let (seg, sched) = setup(1, 0, 100);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        for id in 0..4 {
            sched.submit(mk_task(&seg, 100 + id, 0, 10, 0, Affinity::None));
            sched.submit(mk_task(&seg, 200 + id, 1, 20, 0, Affinity::None));
        }
        let t0 = sched.get_task(0, 0, &c, &obs()).unwrap();
        let pid0 = unsafe { seg.sref(t0) }.pid.load(Ordering::Relaxed);
        // Past the quantum: the next pick must switch processes.
        let t1 = sched.get_task(0, 500, &c, &obs()).unwrap();
        let pid1 = unsafe { seg.sref(t1) }.pid.load(Ordering::Relaxed);
        assert_ne!(pid0, pid1);
        assert_eq!(c.quantum_switches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn strict_core_affinity_is_never_stolen() {
        let (seg, sched) = setup(4, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
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
        // CPUs 0, 1, 3 must not get it.
        for cpu in [0usize, 1, 3] {
            assert!(
                sched.get_task(cpu, 0, &c, &obs()).is_none(),
                "cpu {cpu} stole"
            );
        }
        let t = sched.get_task(2, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
    }

    #[test]
    fn best_effort_affinity_is_stolen_when_idle() {
        let (seg, sched) = setup(4, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: false,
            },
        ));
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
        assert_eq!(c.affinity_steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn numa_affinity_routes_to_node_cpus() {
        // 4 CPUs, 2 per NUMA node (and so, by default, 2 shards).
        let (seg, sched) = setup(4, 2, 1_000_000);
        assert_eq!(sched.shard_count(), 2, "default: one shard per node");
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        ));
        // Node 0 CPUs see nothing.
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
        assert!(sched.get_task(1, 0, &c, &obs()).is_none());
        // Node 1 CPU gets it.
        let t = sched.get_task(3, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
    }

    #[test]
    fn app_priority_beats_round_robin() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        sched.set_app_priority(1, 5);
        sched.submit(mk_task(&seg, 100, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 200, 1, 20, 0, Affinity::None));
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 200, "high-app-priority process first");
    }

    #[test]
    fn task_priority_orders_within_process() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 2, 0, 10, 9, Affinity::None));
        sched.submit(mk_task(&seg, 3, 0, 10, 4, Affinity::None));
        let order: Vec<u64> = (0..3)
            .map(|_| id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()))
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn sharded_cross_shard_steal_drains_everything() {
        // 4 CPUs, 2 nodes, 2 shards: CPU 0 must be able to drain tasks
        // routed to both shards (its own by pick, the other's by steal).
        let (seg, sched) = setup(4, 2, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        // Distinct submitter tags land the unconstrained tasks in both
        // shards (sticky routing: one thread would stay in one shard).
        for id in 0..6 {
            sched.submit_as(mk_task(&seg, id, 0, 10, 0, Affinity::None), id);
        }
        let mut got: Vec<u64> = (0..6)
            .map(|_| id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()))
            .collect();
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert!(
            c.shard_steals.load(Ordering::Relaxed) > 0,
            "half the tasks live in the foreign shard"
        );
        assert!(!sched.has_ready());
        sched.assert_masks_consistent();
    }

    #[test]
    fn explicit_shard_count_overrides_the_numa_default() {
        let (seg, sched) = setup_full(4, 2, 1_000_000, 256, 1);
        assert_eq!(sched.shard_count(), 1);
        let c = Counters::default();
        sched.register_proc(0, 10);
        for id in 0..4 {
            sched.submit(mk_task(&seg, id, 0, 10, 0, Affinity::None));
        }
        // Single shard: plain FIFO, no cross-shard steals.
        for id in 0..4 {
            assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), id);
        }
        assert_eq!(c.shard_steals.load(Ordering::Relaxed), 0);
    }

    /// Seeded property test: after every random submit / get_task step,
    /// each shard's readiness bitmaps must agree with a naive recount of
    /// the queues it owns. Random affinities exercise core/NUMA/process
    /// routing across shards; random consumers exercise pops, in-shard
    /// steals and cross-shard steals.
    #[test]
    fn readiness_bitmaps_match_naive_recount_under_random_ops() {
        use nosv_sync::SplitMix64;
        for seed in 0..10u64 {
            let mut rng = SplitMix64::new(0x05ee_db17 ^ seed);
            let cpus = 1 + (rng.next_u64() % 6) as usize; // 1..=6
            let per_numa = [0usize, 2][(rng.next_u64() % 2) as usize];
            let shards = 1 + (rng.next_u64() % 3) as usize; // 1..=3
            let shards = shards.min(cpus);
            let (seg, sched) = setup_full(cpus, per_numa, 1_000_000, 4, shards);
            let c = Counters::default();
            let procs = 1 + (rng.next_u64() % 3) as u32;
            for slot in 0..procs {
                sched.register_proc(slot, 10 + slot as u64);
            }
            let numa_nodes = if per_numa == 0 {
                1
            } else {
                cpus.div_ceil(per_numa)
            };
            let mut outstanding = 0u64;
            let mut next_id = 1u64;
            for _ in 0..400 {
                let op = rng.next_u64() % 100;
                if op < 55 || outstanding == 0 {
                    // Submit with a random (valid) affinity. The tiny ring
                    // capacity forces frequent locked-path overflows.
                    let slot = rng.next_u64() % procs as u64;
                    let strict = rng.next_u64().is_multiple_of(2);
                    let affinity = match rng.next_u64() % 3 {
                        0 => Affinity::None,
                        1 => Affinity::Core {
                            index: (rng.next_u64() % cpus as u64) as usize,
                            strict,
                        },
                        _ => Affinity::Numa {
                            index: (rng.next_u64() % numa_nodes as u64) as usize,
                            strict,
                        },
                    };
                    let prio = (rng.next_u64() % 5) as i32;
                    sched.submit(mk_task(
                        &seg,
                        next_id,
                        slot as u32,
                        10 + slot,
                        prio,
                        affinity,
                    ));
                    next_id += 1;
                    outstanding += 1;
                } else {
                    // A random CPU fetches (pop, in-shard steal, or
                    // cross-shard steal, per affinity and shard layout).
                    let cpu = (rng.next_u64() % cpus as u64) as usize;
                    if sched
                        .get_task(cpu, rng.next_u64() % 1_000, &c, &obs())
                        .is_some()
                    {
                        outstanding -= 1;
                    }
                }
                sched.assert_masks_consistent();
            }
            // Drain everything; masks must end all-clear.
            let mut spins = 0;
            while outstanding > 0 {
                let mut progress = false;
                for cpu in 0..cpus {
                    if sched.get_task(cpu, u64::MAX / 2, &c, &obs()).is_some() {
                        outstanding -= 1;
                        progress = true;
                    }
                }
                assert!(progress || outstanding == 0, "undrainable tasks remain");
                spins += 1;
                assert!(spins < 10_000, "drain did not converge");
            }
            sched.assert_masks_consistent();
            assert!(!sched.has_ready(), "seed {seed}: ready count leaked");
        }
    }
}
