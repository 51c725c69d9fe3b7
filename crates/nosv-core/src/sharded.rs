//! [`ShardedCore`]: N independent [`SchedCore`]s behind one façade, for
//! single-threaded drivers.
//!
//! The live runtime cannot use this type directly — each of its shards
//! lives behind its own delegation lock, so it composes [`ShardMap`],
//! [`SchedCore::pick`] and [`SchedCore::steal_for_remote`] itself, taking
//! one lock at a time. Single-threaded drivers (the `simnode` engine, the
//! driver-parity fuzz) hold every shard at once, and this wrapper performs
//! the *same composition in the same order*:
//!
//! * routing: placed tasks to the owner shard, unconstrained tasks
//!   sticky per submitter ([`ShardMap::route_shard`]);
//! * picking: the CPU's home shard first, then the other shards in
//!   rotation via [`SchedCore::steal_for_remote`] (reported as a
//!   [`PickSource::Steal`]).
//!
//! Because the composition is pinned down here (and fuzzed against the
//! live scheduler in `tests/driver_parity.rs`), sharded sim/live parity
//! holds the same way single-core parity does.
//!
//! # Store layout
//!
//! All shards share **one** [`TaskStore`]; per-shard process queues are
//! carved out of it by [`ShardView`], which remaps `QueueId::Proc(slot)`
//! to `Proc(shard * max_procs + slot)`. Construct the store with
//! `procs = max_procs * shards` process queues. Core and NUMA queues are
//! global (each owned by exactly one shard) and pass through unmapped.

use crate::affinity::Affinity;
use crate::policy::SchedPolicy;
use crate::sched::{Pick, QueueId, SchedCore, TaskStore, STEAL_SCAN_LIMIT};
use crate::shard::ShardMap;

/// A [`TaskStore`] view exposing shard `base/max_procs`'s process queues;
/// see the module docs.
pub struct ShardView<'a, S> {
    inner: &'a mut S,
    proc_base: usize,
}

impl<'a, S: TaskStore> ShardView<'a, S> {
    /// Wraps `store`, remapping `Proc(slot)` to `Proc(shard * max_procs +
    /// slot)`.
    pub fn new(store: &'a mut S, shard: usize, max_procs: usize) -> ShardView<'a, S> {
        ShardView {
            inner: store,
            proc_base: shard * max_procs,
        }
    }

    #[inline]
    fn map(&self, q: QueueId) -> QueueId {
        match q {
            QueueId::Proc(slot) => QueueId::Proc(self.proc_base + slot),
            other => other,
        }
    }
}

impl<S: TaskStore> TaskStore for ShardView<'_, S> {
    type Task = S::Task;

    fn push(&mut self, queue: QueueId, task: S::Task) {
        let q = self.map(queue);
        self.inner.push(q, task);
    }

    fn pop(&mut self, queue: QueueId) -> Option<S::Task> {
        let q = self.map(queue);
        self.inner.pop(q)
    }

    fn pop_stealable(&mut self, queue: QueueId, limit: usize) -> Option<S::Task> {
        let q = self.map(queue);
        self.inner.pop_stealable(q, limit)
    }

    fn queue_is_empty(&self, queue: QueueId) -> bool {
        self.inner.queue_is_empty(self.map(queue))
    }

    fn head_priority(&self, queue: QueueId) -> Option<i32> {
        self.inner.head_priority(self.map(queue))
    }

    fn affinity(&self, task: S::Task) -> Affinity {
        self.inner.affinity(task)
    }

    fn pid(&self, task: S::Task) -> u64 {
        self.inner.pid(task)
    }

    fn slot(&self, task: S::Task) -> usize {
        self.inner.slot(task)
    }
}

/// N [`SchedCore`] shards driven as one scheduler (single-threaded
/// drivers); see the module docs.
pub struct ShardedCore {
    shards: Vec<SchedCore>,
    map: ShardMap,
    max_procs: usize,
}

impl ShardedCore {
    /// A sharded core for `cpus` CPUs (`cpus_per_numa` per node, `0` =
    /// one node), `max_procs` process slots and `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics where [`SchedCore::new`] or [`ShardMap::new`] would.
    pub fn new(cpus: usize, cpus_per_numa: usize, max_procs: usize, shards: usize) -> ShardedCore {
        let map = ShardMap::new(cpus, cpus_per_numa, shards);
        ShardedCore {
            shards: (0..shards)
                .map(|_| SchedCore::new(cpus, cpus_per_numa, max_procs))
                .collect(),
            map,
            max_procs,
        }
    }

    /// The CPU/NUMA → shard mapping.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of NUMA nodes implied by the topology.
    pub fn numa_nodes(&self) -> usize {
        self.shards[0].numa_nodes()
    }

    /// One shard's state machine (tests, consistency checks).
    pub fn shard(&self, s: usize) -> &SchedCore {
        &self.shards[s]
    }

    /// Registers (or re-registers) a process slot in every shard.
    pub fn register_proc(&mut self, slot: usize, pid: u64) {
        for core in &mut self.shards {
            core.register_proc(slot, pid);
        }
    }

    /// Unregisters a process slot from every shard.
    ///
    /// The caller must have verified [`ShardedCore::proc_ready_count`] is
    /// zero, as for [`SchedCore::unregister_proc`].
    pub fn unregister_proc(&mut self, slot: usize) {
        for core in &mut self.shards {
            core.unregister_proc(slot);
        }
    }

    /// Sets a process's application priority in every shard.
    pub fn set_app_priority(&mut self, slot: usize, priority: i32) {
        for core in &mut self.shards {
            core.set_app_priority(slot, priority);
        }
    }

    /// Queued (routed, not yet picked) tasks of `slot` across every shard.
    pub fn proc_ready_count(&self, slot: usize) -> usize {
        self.shards.iter().map(|c| c.proc_ready_count(slot)).sum()
    }

    /// Routes a ready task into its destination shard's queues; returns
    /// the shard chosen. `submitter` identifies the producer (application
    /// index in the simulator, producer-thread tag in the live runtime):
    /// unconstrained tasks stick to `submitter % shards`
    /// ([`ShardMap::route_shard`]).
    pub fn route<S: TaskStore>(&mut self, store: &mut S, task: S::Task, submitter: u64) -> usize {
        let shard = self.map.route_shard(store.affinity(task), submitter);
        let mut view = ShardView::new(store, shard, self.max_procs);
        self.shards[shard].route(&mut view, task);
        shard
    }

    /// Routes a whole batch from one submitter in submission order.
    ///
    /// Placed tasks still go to their owner shards; the unconstrained
    /// remainder all shares the submitter's sticky shard, where it is
    /// enqueued through [`SchedCore::enqueue_batch`] — the same
    /// composition the live runtime's batch submission performs, pinned
    /// down here for parity.
    pub fn route_batch<S: TaskStore>(&mut self, store: &mut S, tasks: &[S::Task], submitter: u64) {
        let sticky = self.map.route_shard(Affinity::None, submitter);
        let mut unconstrained = Vec::with_capacity(tasks.len());
        for &task in tasks {
            match self.map.placed_shard(store.affinity(task)) {
                Some(shard) => {
                    let mut view = ShardView::new(store, shard, self.max_procs);
                    self.shards[shard].route(&mut view, task);
                }
                None => unconstrained.push(task),
            }
        }
        if !unconstrained.is_empty() {
            let mut view = ShardView::new(store, sticky, self.max_procs);
            self.shards[sticky].enqueue_batch(&mut view, &unconstrained);
        }
    }

    /// The scheduling decision for one CPU: its home shard's full pick
    /// (core queue, NUMA queue, policy, in-shard steal), then the other
    /// shards in rotation via cross-shard stealing.
    pub fn pick<S: TaskStore>(
        &mut self,
        store: &mut S,
        policy: &dyn SchedPolicy,
        cpu: usize,
        now_ns: u64,
    ) -> Option<Pick<S::Task>> {
        let home = self.map.shard_of_cpu(cpu % self.map.cpus());
        {
            let mut view = ShardView::new(store, home, self.max_procs);
            if let Some(p) = self.shards[home].pick(&mut view, policy, cpu, now_ns) {
                return Some(p);
            }
        }
        let stealer_numa = self.shards[home].numa_of(cpu % self.map.cpus());
        for victim in self.map.steal_rotation(home) {
            let mut view = ShardView::new(store, victim, self.max_procs);
            if let Some(p) =
                self.shards[victim].steal_for_remote(&mut view, STEAL_SCAN_LIMIT, stealer_numa)
            {
                return Some(p);
            }
        }
        None
    }

    /// Asserts every shard's readiness bitmaps agree with a naive recount
    /// of the queues it owns.
    ///
    /// # Panics
    ///
    /// Panics on any disagreement.
    pub fn assert_masks_consistent<S: TaskStore>(&self, store: &mut S) {
        for (s, core) in self.shards.iter().enumerate() {
            let view = ShardView::new(store, s, self.max_procs);
            let map = self.map;
            core.assert_masks_consistent_where(&view, |q| match q {
                QueueId::Proc(_) => true,
                QueueId::Core(c) => map.shard_of_cpu(c) == s,
                QueueId::Numa(n) => map.shard_of_numa(n) == s,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_store::HeapStore;
    use crate::policy::QuantumPolicy;
    use crate::sched::PickSource;

    fn setup(
        cpus: usize,
        per_numa: usize,
        shards: usize,
    ) -> (ShardedCore, HeapStore<u64>, QuantumPolicy) {
        let core = ShardedCore::new(cpus, per_numa, 8, shards);
        let store = HeapStore::new(cpus, core.numa_nodes(), 8 * shards);
        (core, store, QuantumPolicy::new(1_000_000))
    }

    fn submit(
        core: &mut ShardedCore,
        store: &mut HeapStore<u64>,
        id: u64,
        affinity: Affinity,
    ) -> usize {
        submit_as(core, store, id, affinity, 0)
    }

    fn submit_as(
        core: &mut ShardedCore,
        store: &mut HeapStore<u64>,
        id: u64,
        affinity: Affinity,
        submitter: u64,
    ) -> usize {
        let t = store.insert(0, 10, 0, affinity, id);
        core.route(store, t, submitter)
    }

    #[test]
    fn single_shard_matches_unsharded_behaviour() {
        let (mut core, mut store, policy) = setup(2, 0, 1);
        core.register_proc(0, 10);
        for id in 0..3 {
            assert_eq!(submit(&mut core, &mut store, id, Affinity::None), 0);
        }
        for id in 0..3 {
            let p = core.pick(&mut store, &policy, 0, 0).unwrap();
            assert_eq!(store.remove(p.task), id);
        }
        assert!(core.pick(&mut store, &policy, 0, 0).is_none());
    }

    #[test]
    fn unconstrained_tasks_stick_to_their_submitters_shard() {
        let (mut core, mut store, _) = setup(4, 2, 2);
        core.register_proc(0, 10);
        let shards: Vec<usize> = (0..4)
            .map(|id| submit_as(&mut core, &mut store, id, Affinity::None, id))
            .collect();
        assert_eq!(shards, vec![0, 1, 0, 1], "submitter id % shards");
        // One submitter never scatters across shards.
        for id in 4..8 {
            assert_eq!(submit_as(&mut core, &mut store, id, Affinity::None, 1), 1);
        }
        core.assert_masks_consistent(&mut store);
    }

    #[test]
    fn route_batch_matches_per_task_routing() {
        let (mut core, mut store, policy) = setup(4, 2, 2);
        core.register_proc(0, 10);
        // Mixed batch: unconstrained tasks follow submitter 1's sticky
        // shard, the placed task its owner shard — exactly as if routed
        // one by one.
        let placed = Affinity::Core {
            index: 0,
            strict: true,
        };
        let tasks: Vec<_> = [(0u64, Affinity::None), (1, placed), (2, Affinity::None)]
            .iter()
            .map(|&(id, aff)| store.insert(0, 10, 0, aff, id))
            .collect();
        core.route_batch(&mut store, &tasks, 1);
        assert_eq!(core.shard(1).proc_ready_count(0), 2, "unconstrained pair");
        // CPU 0 (shard 0) takes its strict core task locally.
        let p = core.pick(&mut store, &policy, 0, 0).unwrap();
        assert_eq!(store.remove(p.task), 1);
        // CPU 2 (shard 1) drains the sticky pair in FIFO order.
        let p = core.pick(&mut store, &policy, 2, 0).unwrap();
        assert_eq!(store.remove(p.task), 0);
        let p = core.pick(&mut store, &policy, 2, 0).unwrap();
        assert_eq!(store.remove(p.task), 2);
        core.assert_masks_consistent(&mut store);
    }

    #[test]
    fn placed_tasks_route_to_owner_shard() {
        let (mut core, mut store, policy) = setup(4, 2, 2);
        core.register_proc(0, 10);
        let s = submit(
            &mut core,
            &mut store,
            1,
            Affinity::Core {
                index: 3,
                strict: true,
            },
        );
        assert_eq!(s, 1, "core 3 belongs to shard 1");
        // Only CPU 3 may run a strict core task; CPU 0 (shard 0) must not
        // steal it cross-shard.
        assert!(core.pick(&mut store, &policy, 0, 0).is_none());
        let p = core.pick(&mut store, &policy, 3, 0).unwrap();
        assert_eq!(p.source, PickSource::CoreLocal);
        core.assert_masks_consistent(&mut store);
    }

    #[test]
    fn empty_home_shard_steals_cross_shard() {
        let (mut core, mut store, policy) = setup(4, 2, 2);
        core.register_proc(0, 10);
        // Two unconstrained tasks from distinct submitters: task 0 lands
        // in shard 0, task 1 in shard 1. CPU 0 picks its home task, then
        // cross-steals shard 1's.
        submit_as(&mut core, &mut store, 0, Affinity::None, 0);
        submit_as(&mut core, &mut store, 1, Affinity::None, 1);
        let p0 = core.pick(&mut store, &policy, 0, 0).unwrap();
        assert!(matches!(p0.source, PickSource::Process { .. }));
        assert_eq!(store.remove(p0.task), 0);
        let p1 = core.pick(&mut store, &policy, 0, 0).unwrap();
        assert_eq!(p1.source, PickSource::Steal, "cross-shard steal");
        assert_eq!(store.remove(p1.task), 1);
        assert_eq!(core.proc_ready_count(0), 0);
        core.assert_masks_consistent(&mut store);
    }

    #[test]
    fn best_effort_placed_tasks_are_stolen_cross_shard() {
        let (mut core, mut store, policy) = setup(4, 2, 2);
        core.register_proc(0, 10);
        submit(
            &mut core,
            &mut store,
            7,
            Affinity::Core {
                index: 3,
                strict: false,
            },
        );
        // Shard 0's CPU 0 steals the best-effort task parked on core 3.
        let p = core.pick(&mut store, &policy, 0, 0).unwrap();
        assert_eq!(p.source, PickSource::Steal);
        assert_eq!(store.remove(p.task), 7);
        core.assert_masks_consistent(&mut store);
    }

    #[test]
    fn strict_numa_task_owned_by_its_nodes_shard() {
        let (mut core, mut store, policy) = setup(4, 2, 2);
        core.register_proc(0, 10);
        submit(
            &mut core,
            &mut store,
            5,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        );
        // Node 0 CPUs find nothing (strict, not stealable cross-shard).
        assert!(core.pick(&mut store, &policy, 0, 0).is_none());
        assert!(core.pick(&mut store, &policy, 1, 0).is_none());
        let p = core.pick(&mut store, &policy, 2, 0).unwrap();
        assert_eq!(p.source, PickSource::NumaLocal);
        core.assert_masks_consistent(&mut store);
    }

    #[test]
    fn straddling_node_strict_numa_task_reaches_same_node_foreign_shard_cpu() {
        // 6 CPUs, 3 nodes of 2, but only 2 shards: node 1 = CPUs {2, 3}
        // straddles shard 0 = {0,1,2} and shard 1 = {3,4,5}. A strict
        // Numa(1) task routes to node 1's owner shard (shard 0, via CPU
        // 2). CPU 3 is in the other shard but on the right node: it must
        // still be able to take the task — via the same-node cross-shard
        // steal — while CPU 4 (wrong node) must not.
        let (mut core, mut store, policy) = setup(6, 2, 2);
        core.register_proc(0, 10);
        let aff = Affinity::Numa {
            index: 1,
            strict: true,
        };
        assert_eq!(submit(&mut core, &mut store, 11, aff), 0, "owner shard");
        assert!(
            core.pick(&mut store, &policy, 4, 0).is_none(),
            "wrong-node CPU must never see the strict task"
        );
        let p = core.pick(&mut store, &policy, 3, 0).unwrap();
        assert_eq!(p.source, PickSource::Steal, "same-node cross-shard steal");
        assert_eq!(store.remove(p.task), 11);
        core.assert_masks_consistent(&mut store);

        // And the owner shard's own node CPU still picks locally.
        submit(&mut core, &mut store, 12, aff);
        let p = core.pick(&mut store, &policy, 2, 0).unwrap();
        assert_eq!(p.source, PickSource::NumaLocal);
        assert_eq!(store.remove(p.task), 12);
    }

    #[test]
    fn ready_counts_span_shards() {
        let (mut core, mut store, policy) = setup(4, 2, 2);
        core.register_proc(0, 10);
        for id in 0..4 {
            submit_as(&mut core, &mut store, id, Affinity::None, id);
        }
        assert_eq!(core.proc_ready_count(0), 4);
        while let Some(p) = core.pick(&mut store, &policy, 1, 0) {
            store.remove(p.task);
        }
        assert_eq!(core.proc_ready_count(0), 0);
    }
}
