//! The node-wide scheduling state machine (§3.4), backend-agnostic.
//!
//! [`SchedCore`] is the *complete* decision logic of the nOS-V shared
//! scheduler — queue routing by [`Affinity`], priority ordering, readiness
//! bitmaps, candidate collection, per-core quantum accounting,
//! steal-victim rotation, and yield requeueing — with everything a
//! backend differs in abstracted away:
//!
//! * **Storage**: tasks and queues live behind a [`TaskStore`]. The live
//!   runtime stores intrusive descriptor queues in a shared-memory
//!   segment; the simulator stores heap instances ([`crate::HeapStore`]).
//! * **Time**: every decision takes an explicit `now_ns`. The live runtime
//!   passes real monotonic nanoseconds; the simulator passes virtual time.
//! * **Synchronization**: none here. The live runtime wraps the core in
//!   its delegation lock; the single-threaded simulator needs nothing.
//!
//! Because both backends call this exact code, sim/live scheduling parity
//! holds by construction, and a scheduling feature added here is
//! immediately present — and measurable — in both.
//!
//! # Queue model
//!
//! Ready tasks are distributed over three kinds of queues (identified by
//! [`QueueId`]):
//!
//! * a per-process priority queue (tasks without placement constraints);
//! * a per-core queue (tasks with [`Affinity::Core`]);
//! * a per-NUMA-node queue (tasks with [`Affinity::Numa`]).
//!
//! A CPU looks in its own core queue first, then its NUMA queue, then asks
//! the process-selection [`SchedPolicy`] which process queue to pop, and
//! finally tries to *steal* best-effort affinity tasks parked on other
//! cores/nodes — strict tasks are never stolen.
//!
//! # Readiness bitmaps
//!
//! The core maintains a non-empty bit per queue, so every scan — candidate
//! collection, steal victims — jumps between non-empty queues with
//! `trailing_zeros` instead of probing each queue. The driver's mutual
//! exclusion makes them exact, not heuristics. Scratch buffers for
//! candidate collection are preallocated at construction: a decision
//! never touches the allocator (the live runtime calls this inside the
//! one lock every CPU's fetch waits on).

use crate::affinity::Affinity;
use crate::policy::{CandidateProc, CoreQuantum, Decision, SchedPolicy};

/// Scan depth bound for steal scans (keeps the critical section short).
pub const STEAL_SCAN_LIMIT: usize = 8;

/// Identifies one scheduler queue inside a [`TaskStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueId {
    /// The core-affinity queue of a CPU.
    Core(usize),
    /// The queue of a NUMA node.
    Numa(usize),
    /// The queue of a process registry slot.
    Proc(usize),
}

/// Task storage driven by [`SchedCore`].
///
/// Implementations own the queues (one per [`QueueId`]) and the task
/// payloads; the core owns the *decisions* — which queue a task enters,
/// which queue a CPU pops, which victim a steal visits. The contract every
/// implementation must honour (and `HeapStore` / the live runtime's
/// shared-segment store do):
///
/// * queues order by **descending task priority, FIFO within equal
///   priority** — [`TaskStore::push`] inserts behind all equal-priority
///   tasks, [`TaskStore::pop`] removes the head;
/// * [`TaskStore::pop_stealable`] removes the first **non-strict** task
///   within the first `limit` entries from the head;
/// * accessors ([`TaskStore::affinity`], [`TaskStore::pid`],
///   [`TaskStore::slot`]) are stable for a task from push to pop.
pub trait TaskStore {
    /// Handle to a stored task (a shared-segment offset in the live
    /// runtime, an index in the simulator).
    type Task: Copy;

    /// Inserts `task` into `queue` in descending-priority FIFO order.
    fn push(&mut self, queue: QueueId, task: Self::Task);

    /// Removes and returns the head (highest-priority, oldest) task.
    fn pop(&mut self, queue: QueueId) -> Option<Self::Task>;

    /// Removes and returns the first non-strict task among the first
    /// `limit` entries of `queue`, if any.
    fn pop_stealable(&mut self, queue: QueueId, limit: usize) -> Option<Self::Task>;

    /// Whether `queue` holds no tasks.
    fn queue_is_empty(&self, queue: QueueId) -> bool;

    /// Priority of the head task of `queue`, if any.
    fn head_priority(&self, queue: QueueId) -> Option<i32>;

    /// The task's placement affinity.
    fn affinity(&self, task: Self::Task) -> Affinity;

    /// PID of the task's creating process.
    fn pid(&self, task: Self::Task) -> u64;

    /// Process registry slot of the task's creating process.
    fn slot(&self, task: Self::Task) -> usize;
}

/// Where a [`SchedCore::pick`] decision found its task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickSource {
    /// The CPU's own core-affinity queue.
    CoreLocal,
    /// The CPU's NUMA node queue.
    NumaLocal,
    /// A process queue chosen by the [`SchedPolicy`].
    Process {
        /// Whether the policy switched processes because the core's
        /// quantum expired (the paper's quantum-switch accounting).
        quantum_expired: bool,
    },
    /// A best-effort task stolen from another core or NUMA queue.
    Steal,
}

/// Outcome of one scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick<T> {
    /// The task the CPU should execute.
    pub task: T,
    /// PID of the task's process (already read from the store).
    pub pid: u64,
    /// Which path found the task.
    pub source: PickSource,
}

#[derive(Debug, Clone, Copy, Default)]
struct ProcEntry {
    active: bool,
    pid: u64,
    app_priority: i32,
}

/// The complete nOS-V scheduling state machine for one node.
///
/// Holds everything a decision depends on besides the queue contents:
/// topology, readiness bitmaps, the round-robin cursor, per-core quantum
/// accounting, and the process table (pid, activity, application
/// priority). Pure data — drivers provide mutual exclusion and time.
pub struct SchedCore {
    cpus: usize,
    cpus_per_numa: usize,
    /// Bit per process slot with a non-empty process queue.
    proc_mask: u64,
    /// Bit per NUMA node with a non-empty node queue.
    numa_mask: u64,
    /// Bit per core with a non-empty core queue (64 cores per word).
    core_mask: Vec<u64>,
    /// Round-robin rotation cursor shared across cores (policy rule 3).
    rr_cursor: u64,
    procs: Vec<ProcEntry>,
    /// Queued tasks per process slot, counting *every* queue a task of
    /// the slot can sit in (its process queue plus the core/NUMA queues
    /// its placed tasks route to) — the detach-safety count.
    slot_counts: Vec<usize>,
    quanta: Vec<CoreQuantum>,
    /// Preallocated candidate scratch (no allocation per decision).
    cand: Vec<CandidateProc>,
    cand_slots: Vec<u32>,
}

impl SchedCore {
    /// A core for `cpus` CPUs, `cpus_per_numa` cores per NUMA node (`0` =
    /// one node spanning every core), and `max_procs` process slots.
    ///
    /// # Panics
    ///
    /// Panics on an empty topology or more than 64 process slots / NUMA
    /// nodes (the single-word readiness masks).
    pub fn new(cpus: usize, cpus_per_numa: usize, max_procs: usize) -> SchedCore {
        assert!(cpus > 0, "at least one CPU");
        assert!(max_procs <= 64, "process mask is a single word");
        let numa_nodes = numa_count(cpus, cpus_per_numa);
        assert!(numa_nodes <= 64, "NUMA mask is a single word");
        SchedCore {
            cpus,
            cpus_per_numa,
            proc_mask: 0,
            numa_mask: 0,
            core_mask: vec![0; cpus.div_ceil(64)],
            rr_cursor: 0,
            procs: vec![ProcEntry::default(); max_procs],
            slot_counts: vec![0; max_procs],
            quanta: vec![CoreQuantum::default(); cpus],
            cand: Vec::with_capacity(max_procs),
            cand_slots: Vec::with_capacity(max_procs),
        }
    }

    /// Number of CPUs this core schedules.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Number of NUMA nodes implied by the topology.
    pub fn numa_nodes(&self) -> usize {
        numa_count(self.cpus, self.cpus_per_numa)
    }

    /// NUMA node of a CPU.
    pub fn numa_of(&self, cpu: usize) -> usize {
        cpu.checked_div(self.cpus_per_numa).unwrap_or(0)
    }

    /// Registers (or re-registers) a process slot.
    pub fn register_proc(&mut self, slot: usize, pid: u64) {
        let p = &mut self.procs[slot];
        p.pid = pid;
        p.app_priority = 0;
        p.active = true;
    }

    /// Unregisters a process slot.
    ///
    /// The caller must have verified the slot has no queued tasks left —
    /// [`SchedCore::proc_ready_count`] is zero; the live runtime surfaces
    /// `ProcessBusy` otherwise — and that is the internal invariant the
    /// debug assertion guards.
    pub fn unregister_proc(&mut self, slot: usize) {
        debug_assert_eq!(
            self.slot_counts[slot], 0,
            "process unregistered with ready tasks still queued"
        );
        self.procs[slot] = ProcEntry::default();
    }

    /// Sets a process's application priority (§3.4).
    pub fn set_app_priority(&mut self, slot: usize, priority: i32) {
        self.procs[slot].app_priority = priority;
    }

    /// Queued (routed, not yet picked) tasks of `slot`, across **all**
    /// queues — its process queue and any core/NUMA queues its placed
    /// tasks were routed to. This is the count a detach must see at zero.
    pub fn proc_ready_count(&self, slot: usize) -> usize {
        self.slot_counts[slot]
    }

    /// PID a CPU's quantum accounting is currently dedicated to (0 = none
    /// yet).
    pub fn core_pid(&self, cpu: usize) -> u64 {
        self.quanta[cpu].current_pid
    }

    /// Routes a ready task to the queue its affinity designates and
    /// maintains the readiness bitmaps and per-slot counts.
    pub fn route<S: TaskStore>(&mut self, store: &mut S, task: S::Task) {
        self.slot_counts[store.slot(task)] += 1;
        match store.affinity(task) {
            Affinity::Core { index, .. } => {
                // Validated at build/submit time; never wrapped silently.
                debug_assert!(index < self.cpus, "unvalidated core affinity");
                store.push(QueueId::Core(index), task);
                self.core_mask[index / 64] |= 1 << (index % 64);
            }
            Affinity::Numa { index, .. } => {
                debug_assert!(index < self.numa_nodes(), "unvalidated NUMA affinity");
                store.push(QueueId::Numa(index), task);
                self.numa_mask |= 1 << index;
            }
            Affinity::None => {
                let slot = store.slot(task);
                store.push(QueueId::Proc(slot), task);
                self.proc_mask |= 1 << slot;
            }
        }
    }

    /// Routes a whole batch of ready tasks in submission order — the
    /// in-shard half of batch submission ([`crate::ShardedCore`] and the
    /// live runtime both thread batches through here, so a batch lands
    /// identically in both backends). Semantically a plain loop over
    /// [`SchedCore::route`]; the win is at the call site, which pays its
    /// per-enqueue overhead (a delegation-lock acquisition in the live
    /// runtime) once per batch instead of once per task.
    pub fn enqueue_batch<S: TaskStore>(&mut self, store: &mut S, tasks: &[S::Task]) {
        for &task in tasks {
            self.route(store, task);
        }
    }

    /// Requeues a yielding task behind all equal-priority ready work — the
    /// paper's `nosv_yield`. Queues are FIFO within a priority level, so
    /// the requeue is exactly a fresh routing; having it here (once) is
    /// what makes yield behave identically in both backends.
    pub fn yield_task<S: TaskStore>(&mut self, store: &mut S, task: S::Task) {
        self.route(store, task);
    }

    /// The scheduling decision for one CPU at time `now_ns`: core queue,
    /// then NUMA queue, then the policy's process pick, then stealing.
    /// Updates the CPU's quantum accounting to the chosen task's process —
    /// through [`SchedPolicy::apply_decision`] when the policy made the
    /// decision (so custom accounting overrides are honoured in both
    /// backends), directly otherwise.
    pub fn pick<S: TaskStore>(
        &mut self,
        store: &mut S,
        policy: &dyn SchedPolicy,
        cpu: usize,
        now_ns: u64,
    ) -> Option<Pick<S::Task>> {
        let cpu = cpu % self.cpus;
        // The policy's Decision for process picks (None for local-queue
        // and steal picks, which consult no policy).
        let mut decision = None;
        // Local pops are gated on the readiness bit, not just the store:
        // under sharding, the global core/NUMA queue arrays are shared
        // across shards but each queue is *owned* by exactly one shard
        // (the one whose bit can be set), so a foreign shard's core must
        // never pop a queue whose bit it does not hold. Within one shard
        // the bits are exact (the driver serializes us), so this is also
        // a free fast path.
        let (task, source) = if let Some(t) = self.pop_queue_if_ready(store, QueueId::Core(cpu)) {
            (t, PickSource::CoreLocal)
        } else if let Some(t) = self.pop_queue_if_ready(store, QueueId::Numa(self.numa_of(cpu))) {
            (t, PickSource::NumaLocal)
        } else if let Some((t, d)) = self.pick_from_processes(store, policy, cpu, now_ns) {
            decision = Some(d);
            (
                t,
                PickSource::Process {
                    quantum_expired: d.quantum_expired,
                },
            )
        } else if let Some(t) = self.steal(store, cpu) {
            (t, PickSource::Steal)
        } else {
            return None;
        };

        let pid = store.pid(task);
        self.slot_counts[store.slot(task)] -= 1;
        // Update the core's quantum accounting to the chosen process: the
        // policy's own apply_decision when it made the decision (custom
        // accounting overrides are honoured in both backends), otherwise
        // the canonical rule — a pick of a different process (re)starts
        // the quantum clock, no matter which path found the task.
        match decision {
            Some(d) => policy.apply_decision(&mut self.quanta[cpu], &d, now_ns),
            None => {
                let q = &mut self.quanta[cpu];
                if q.current_pid != pid {
                    q.current_pid = pid;
                    q.since_ns = now_ns;
                }
            }
        }
        Some(Pick { task, pid, source })
    }

    /// Pops `queue`'s head and maintains its readiness bit.
    fn pop_queue<S: TaskStore>(&mut self, store: &mut S, queue: QueueId) -> Option<S::Task> {
        let t = store.pop(queue)?;
        if store.queue_is_empty(queue) {
            self.clear_bit(queue);
        }
        Some(t)
    }

    /// [`SchedCore::pop_queue`] gated on the readiness bit (see
    /// [`SchedCore::pick`] for why the bit, not the store, is authoritative
    /// for whether *this* core may pop the queue).
    fn pop_queue_if_ready<S: TaskStore>(
        &mut self,
        store: &mut S,
        queue: QueueId,
    ) -> Option<S::Task> {
        if !self.bit_set(queue) {
            return None;
        }
        self.pop_queue(store, queue)
    }

    fn bit_set(&self, queue: QueueId) -> bool {
        match queue {
            QueueId::Core(i) => self.core_mask[i / 64] >> (i % 64) & 1 == 1,
            QueueId::Numa(i) => self.numa_mask >> i & 1 == 1,
            QueueId::Proc(i) => self.proc_mask >> i & 1 == 1,
        }
    }

    fn clear_bit(&mut self, queue: QueueId) {
        match queue {
            QueueId::Core(i) => self.core_mask[i / 64] &= !(1 << (i % 64)),
            QueueId::Numa(i) => self.numa_mask &= !(1 << i),
            QueueId::Proc(i) => self.proc_mask &= !(1 << i),
        }
    }

    /// Candidate collection + policy consultation. Candidates are the
    /// active processes with non-empty queues, in ascending slot order
    /// (the bitmap jumps straight between them). Returns the popped task
    /// and the policy's decision (for the caller's quantum accounting).
    fn pick_from_processes<S: TaskStore>(
        &mut self,
        store: &mut S,
        policy: &dyn SchedPolicy,
        cpu: usize,
        now_ns: u64,
    ) -> Option<(S::Task, Decision)> {
        self.cand.clear();
        self.cand_slots.clear();
        let mut mask = self.proc_mask;
        while mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let p = self.procs[slot];
            if p.active {
                if let Some(top) = store.head_priority(QueueId::Proc(slot)) {
                    self.cand.push(CandidateProc {
                        pid: p.pid,
                        app_priority: p.app_priority,
                        top_task_priority: top,
                    });
                    self.cand_slots.push(slot as u32);
                }
            }
        }
        let core_state = self.quanta[cpu];
        let decision = policy.pick_process(&core_state, now_ns, &self.cand, &mut self.rr_cursor)?;
        let idx = self.cand.iter().position(|c| c.pid == decision.pid)?;
        let slot = self.cand_slots[idx] as usize;
        let t = self.pop_queue(store, QueueId::Proc(slot))?;
        Some((t, decision))
    }

    /// Steals a best-effort affinity task from another core or NUMA queue.
    ///
    /// Victims are visited in rotated order (`cpu+1, cpu+2, … mod cpus`),
    /// jumping over empty queues via the core bitmap; then the other NUMA
    /// nodes' queues in ascending order. Strict tasks are never taken.
    fn steal<S: TaskStore>(&mut self, store: &mut S, cpu: usize) -> Option<S::Task> {
        for (lo, hi) in [(cpu + 1, self.cpus), (0, cpu)] {
            let mut pos = lo;
            while let Some(victim) = self.next_core_bit(pos, hi) {
                let q = QueueId::Core(victim);
                if let Some(t) = store.pop_stealable(q, STEAL_SCAN_LIMIT) {
                    if store.queue_is_empty(q) {
                        self.clear_bit(q);
                    }
                    return Some(t);
                }
                pos = victim + 1;
            }
        }
        let my_numa = self.numa_of(cpu);
        let mut nmask = self.numa_mask & !(1 << my_numa);
        while nmask != 0 {
            let n = nmask.trailing_zeros() as usize;
            nmask &= nmask - 1;
            let q = QueueId::Numa(n);
            if let Some(t) = store.pop_stealable(q, STEAL_SCAN_LIMIT) {
                if store.queue_is_empty(q) {
                    self.clear_bit(q);
                }
                return Some(t);
            }
        }
        None
    }

    /// Pops one task for a CPU of a **different shard** — the victim side
    /// of bitmap-guided cross-shard stealing. `stealer_numa` is the
    /// stealing CPU's NUMA node.
    ///
    /// The remote CPU has no local claim on any of this core's queues, so
    /// the scan is purely neediness-ordered and strictness-aware:
    ///
    /// 1. the first non-empty *active* process queue in ascending slot
    ///    order (unconstrained tasks, never strict);
    /// 2. the core queues in ascending order via the readiness word-walk,
    ///    taking the first non-strict task ([`TaskStore::pop_stealable`]);
    /// 3. the NUMA queues in ascending order, same filter — except the
    ///    stealer's **own node's** queue, whose head is taken outright:
    ///    a same-node CPU satisfies even a strict NUMA placement, and
    ///    when a node straddles shards (misaligned explicit shard
    ///    counts) this is the only route its foreign-shard CPUs have to
    ///    that work.
    ///
    /// Strict tasks are otherwise never taken. The stolen task's quantum
    /// accounting is the *caller's* shard's concern; this core's quanta
    /// are untouched (a cross-shard steal does not restart anyone's
    /// quantum clock — identical in both backends by construction).
    pub fn steal_for_remote<S: TaskStore>(
        &mut self,
        store: &mut S,
        limit: usize,
        stealer_numa: usize,
    ) -> Option<Pick<S::Task>> {
        let task = self.steal_for_remote_task(store, limit, stealer_numa)?;
        let pid = store.pid(task);
        self.slot_counts[store.slot(task)] -= 1;
        Some(Pick {
            task,
            pid,
            source: PickSource::Steal,
        })
    }

    fn steal_for_remote_task<S: TaskStore>(
        &mut self,
        store: &mut S,
        limit: usize,
        stealer_numa: usize,
    ) -> Option<S::Task> {
        let mut mask = self.proc_mask;
        while mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if !self.procs[slot].active {
                continue;
            }
            if let Some(t) = self.pop_queue(store, QueueId::Proc(slot)) {
                return Some(t);
            }
        }
        let mut pos = 0;
        while let Some(victim) = self.next_core_bit(pos, self.cpus) {
            let q = QueueId::Core(victim);
            if let Some(t) = store.pop_stealable(q, limit) {
                if store.queue_is_empty(q) {
                    self.clear_bit(q);
                }
                return Some(t);
            }
            pos = victim + 1;
        }
        let mut nmask = self.numa_mask;
        while nmask != 0 {
            let n = nmask.trailing_zeros() as usize;
            nmask &= nmask - 1;
            let q = QueueId::Numa(n);
            let t = if n == stealer_numa {
                // The stealer belongs to this node: every task here —
                // strict included — may run on it.
                self.pop_queue(store, q)
            } else {
                store.pop_stealable(q, limit)
            };
            if let Some(t) = t {
                if store.queue_is_empty(q) {
                    self.clear_bit(q);
                }
                return Some(t);
            }
        }
        None
    }

    /// Removes **every** queued task belonging to `slot` from every queue
    /// this core owns and appends them to `out` — the crash-reclaim sweep.
    ///
    /// The slot's own process queue is drained outright (it only ever holds
    /// that slot's tasks). Core and NUMA queues are filtered: each non-empty
    /// queue is popped to a scratch buffer and the surviving tasks are
    /// re-pushed in pop order, which reconstructs the original
    /// descending-priority FIFO order exactly (push inserts behind all
    /// equal-priority tasks). Readiness bitmaps and per-slot counts are
    /// maintained throughout; afterwards [`SchedCore::proc_ready_count`]
    /// for `slot` is zero and [`SchedCore::unregister_proc`] is safe.
    ///
    /// This is a cold path (a process died); it allocates scratch freely.
    /// Under sharding, each shard calls this on its own core and only the
    /// queues whose readiness bits it holds are touched — exactly the
    /// queues it owns.
    pub fn purge_slot<S: TaskStore>(&mut self, store: &mut S, slot: usize, out: &mut Vec<S::Task>) {
        // The slot's process queue: everything in it is the slot's.
        if self.bit_set(QueueId::Proc(slot)) {
            while let Some(t) = store.pop(QueueId::Proc(slot)) {
                self.slot_counts[slot] -= 1;
                out.push(t);
            }
            self.clear_bit(QueueId::Proc(slot));
        }
        // Core and NUMA queues: filter the slot's placed tasks out.
        let mut queues: Vec<QueueId> = Vec::new();
        let mut pos = 0;
        while let Some(cpu) = self.next_core_bit(pos, self.cpus) {
            queues.push(QueueId::Core(cpu));
            pos = cpu + 1;
        }
        let mut nmask = self.numa_mask;
        while nmask != 0 {
            let n = nmask.trailing_zeros() as usize;
            nmask &= nmask - 1;
            queues.push(QueueId::Numa(n));
        }
        let mut survivors: Vec<S::Task> = Vec::new();
        for q in queues {
            survivors.clear();
            while let Some(t) = store.pop(q) {
                if store.slot(t) == slot {
                    self.slot_counts[slot] -= 1;
                    out.push(t);
                } else {
                    survivors.push(t);
                }
            }
            for &t in &survivors {
                store.push(q, t);
            }
            if store.queue_is_empty(q) {
                self.clear_bit(q);
            }
        }
        debug_assert_eq!(
            self.slot_counts[slot], 0,
            "purge left tasks of the slot queued somewhere"
        );
    }

    /// First set bit of the core readiness bitmap in `[lo, hi)`, if any.
    /// Word-at-a-time: empty words cost one load.
    fn next_core_bit(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let hi_word = hi.div_ceil(64).min(self.core_mask.len());
        for w in lo / 64..hi_word {
            let mut word = self.core_mask[w];
            if w == lo / 64 {
                word &= u64::MAX.checked_shl((lo % 64) as u32).unwrap_or(0);
            }
            if (w + 1) * 64 > hi {
                let keep = hi - w * 64;
                word &= u64::MAX.checked_shr(64 - keep as u32).unwrap_or(0);
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Asserts every readiness bitmap agrees with the store's queue
    /// emptiness (test/driver support).
    ///
    /// # Panics
    ///
    /// Panics on any disagreement.
    pub fn assert_masks_consistent<S: TaskStore>(&self, store: &S) {
        self.assert_masks_consistent_where(store, |_| true);
    }

    /// Like [`SchedCore::assert_masks_consistent`], restricted to the
    /// queues `owns` selects. Under sharding, the global core/NUMA queue
    /// arrays are shared between shards but each queue is owned by exactly
    /// one — a shard's bitmaps are only authoritative for the queues it
    /// owns, so the sharded drivers pass their ownership filter here.
    ///
    /// # Panics
    ///
    /// Panics on any disagreement over an owned queue.
    pub fn assert_masks_consistent_where<S: TaskStore>(
        &self,
        store: &S,
        owns: impl Fn(QueueId) -> bool,
    ) {
        for slot in 0..self.procs.len() {
            let q = QueueId::Proc(slot);
            if owns(q) {
                assert_eq!(
                    self.proc_mask >> slot & 1 == 1,
                    !store.queue_is_empty(q),
                    "proc_mask bit {slot} disagrees with queue emptiness"
                );
            }
        }
        for node in 0..self.numa_nodes() {
            let q = QueueId::Numa(node);
            if owns(q) {
                assert_eq!(
                    self.numa_mask >> node & 1 == 1,
                    !store.queue_is_empty(q),
                    "numa_mask bit {node} disagrees with queue emptiness"
                );
            }
        }
        for cpu in 0..self.cpus {
            let q = QueueId::Core(cpu);
            if owns(q) {
                assert_eq!(
                    self.core_mask[cpu / 64] >> (cpu % 64) & 1 == 1,
                    !store.queue_is_empty(q),
                    "core_mask bit {cpu} disagrees with queue emptiness"
                );
            }
        }
    }
}

fn numa_count(cpus: usize, cpus_per_numa: usize) -> usize {
    if cpus_per_numa == 0 {
        1
    } else {
        cpus.div_ceil(cpus_per_numa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_store::HeapStore;
    use crate::policy::QuantumPolicy;

    fn setup(
        cpus: usize,
        per_numa: usize,
        quantum_ns: u64,
    ) -> (SchedCore, HeapStore<()>, QuantumPolicy) {
        let core = SchedCore::new(cpus, per_numa, 8);
        let store = HeapStore::new(cpus, core.numa_nodes(), 8);
        (core, store, QuantumPolicy::new(quantum_ns))
    }

    fn submit(
        core: &mut SchedCore,
        store: &mut HeapStore<()>,
        slot: u32,
        pid: u64,
        prio: i32,
        affinity: Affinity,
    ) -> crate::TaskRef {
        let t = store.insert(slot, pid, prio, affinity, ());
        core.route(store, t);
        t
    }

    #[test]
    fn single_process_fifo() {
        let (mut core, mut store, policy) = setup(2, 0, 1_000_000);
        core.register_proc(0, 10);
        let ids: Vec<_> = (0..3)
            .map(|_| submit(&mut core, &mut store, 0, 10, 0, Affinity::None))
            .collect();
        for expected in ids {
            let p = core.pick(&mut store, &policy, 0, 0).unwrap();
            assert_eq!(p.task, expected);
            assert_eq!(p.pid, 10);
            assert!(matches!(p.source, PickSource::Process { .. }));
        }
        assert!(core.pick(&mut store, &policy, 0, 0).is_none());
    }

    #[test]
    fn quantum_expiry_switches_processes() {
        let (mut core, mut store, policy) = setup(1, 0, 100);
        core.register_proc(0, 10);
        core.register_proc(1, 20);
        for _ in 0..2 {
            submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
            submit(&mut core, &mut store, 1, 20, 0, Affinity::None);
        }
        let p0 = core.pick(&mut store, &policy, 0, 0).unwrap();
        let p1 = core.pick(&mut store, &policy, 0, 500).unwrap();
        assert_ne!(p0.pid, p1.pid);
        assert_eq!(
            p1.source,
            PickSource::Process {
                quantum_expired: true
            }
        );
    }

    #[test]
    fn strict_core_affinity_is_never_stolen() {
        let (mut core, mut store, policy) = setup(4, 0, 1_000_000);
        core.register_proc(0, 10);
        submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: true,
            },
        );
        for cpu in [0usize, 1, 3] {
            assert!(
                core.pick(&mut store, &policy, cpu, 0).is_none(),
                "cpu {cpu} stole"
            );
        }
        let p = core.pick(&mut store, &policy, 2, 0).unwrap();
        assert_eq!(p.source, PickSource::CoreLocal);
    }

    #[test]
    fn best_effort_affinity_is_stolen_when_idle() {
        let (mut core, mut store, policy) = setup(4, 0, 1_000_000);
        core.register_proc(0, 10);
        submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: false,
            },
        );
        let p = core.pick(&mut store, &policy, 0, 0).unwrap();
        assert_eq!(p.source, PickSource::Steal);
        core.assert_masks_consistent(&store);
    }

    #[test]
    fn numa_affinity_routes_to_node_cpus() {
        let (mut core, mut store, policy) = setup(4, 2, 1_000_000);
        core.register_proc(0, 10);
        submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        );
        assert!(core.pick(&mut store, &policy, 0, 0).is_none());
        assert!(core.pick(&mut store, &policy, 1, 0).is_none());
        let p = core.pick(&mut store, &policy, 3, 0).unwrap();
        assert_eq!(p.source, PickSource::NumaLocal);
    }

    #[test]
    fn app_priority_beats_round_robin() {
        let (mut core, mut store, policy) = setup(1, 0, 1_000_000);
        core.register_proc(0, 10);
        core.register_proc(1, 20);
        core.set_app_priority(1, 5);
        submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        submit(&mut core, &mut store, 1, 20, 0, Affinity::None);
        let p = core.pick(&mut store, &policy, 0, 0).unwrap();
        assert_eq!(p.pid, 20, "high-app-priority process first");
    }

    #[test]
    fn task_priority_orders_within_process() {
        let (mut core, mut store, policy) = setup(1, 0, 1_000_000);
        core.register_proc(0, 10);
        let low = submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        let hi = submit(&mut core, &mut store, 0, 10, 9, Affinity::None);
        let mid = submit(&mut core, &mut store, 0, 10, 4, Affinity::None);
        let order: Vec<_> = (0..3)
            .map(|_| core.pick(&mut store, &policy, 0, 0).unwrap().task)
            .collect();
        assert_eq!(order, vec![hi, mid, low]);
    }

    #[test]
    fn yield_requeues_behind_equal_priority_work() {
        let (mut core, mut store, policy) = setup(1, 0, 1_000_000);
        core.register_proc(0, 10);
        let a = submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        let b = submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        let got = core.pick(&mut store, &policy, 0, 0).unwrap().task;
        assert_eq!(got, a);
        // `a` yields: it must requeue *behind* b.
        core.yield_task(&mut store, a);
        assert_eq!(core.pick(&mut store, &policy, 0, 0).unwrap().task, b);
        assert_eq!(core.pick(&mut store, &policy, 0, 0).unwrap().task, a);
    }

    #[test]
    fn proc_ready_count_tracks_placed_tasks_too() {
        let (mut core, mut store, policy) = setup(4, 2, 1_000_000);
        core.register_proc(0, 10);
        submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Core {
                index: 1,
                strict: true,
            },
        );
        submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: false,
            },
        );
        assert_eq!(core.proc_ready_count(0), 3);
        let t = core.pick(&mut store, &policy, 1, 0).unwrap().task;
        store.remove(t);
        assert_eq!(core.proc_ready_count(0), 2);
        while let Some(p) = core.pick(&mut store, &policy, 3, 0) {
            store.remove(p.task);
        }
        assert_eq!(core.proc_ready_count(0), 0, "every pop decrements");
    }

    /// A policy whose apply_decision never restarts the quantum clock:
    /// the core must route quantum accounting through the trait (not a
    /// hard-coded rule) for policy-made decisions.
    #[test]
    fn apply_decision_override_is_honoured() {
        struct FrozenClock;
        impl crate::policy::SchedPolicy for FrozenClock {
            fn quantum_ns(&self) -> u64 {
                1_000
            }
            fn pick_process(
                &self,
                core: &CoreQuantum,
                now_ns: u64,
                candidates: &[CandidateProc],
                rr_cursor: &mut u64,
            ) -> Option<crate::policy::Decision> {
                crate::policy::pick_process(core, 1_000, now_ns, candidates, rr_cursor)
            }
            fn apply_decision(
                &self,
                _core: &mut CoreQuantum,
                _decision: &crate::policy::Decision,
                _now_ns: u64,
            ) {
                // Deliberately no accounting update.
            }
        }
        let mut core = SchedCore::new(1, 0, 2);
        let mut store: HeapStore<()> = HeapStore::new(1, 1, 2);
        core.register_proc(0, 10);
        submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        core.pick(&mut store, &FrozenClock, 0, 0).unwrap();
        assert_eq!(
            core.core_pid(0),
            0,
            "the override suppressed the quantum update"
        );
    }

    #[test]
    fn purge_slot_reclaims_from_every_queue_and_preserves_survivors() {
        let (mut core, mut store, policy) = setup(4, 2, 1_000_000);
        core.register_proc(0, 10);
        core.register_proc(1, 20);
        // Dead slot 0: one unconstrained, one core-placed, one NUMA-placed.
        let d0 = submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        let d1 = submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Core {
                index: 1,
                strict: true,
            },
        );
        let d2 = submit(
            &mut core,
            &mut store,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: false,
            },
        );
        // Survivor slot 1 shares the core and NUMA queues; its two
        // equal-priority core tasks pin the FIFO-order check.
        let s0 = submit(
            &mut core,
            &mut store,
            1,
            20,
            0,
            Affinity::Core {
                index: 1,
                strict: true,
            },
        );
        let s1 = submit(
            &mut core,
            &mut store,
            1,
            20,
            0,
            Affinity::Core {
                index: 1,
                strict: true,
            },
        );
        let s2 = submit(&mut core, &mut store, 1, 20, 0, Affinity::None);

        let mut reclaimed = Vec::new();
        core.purge_slot(&mut store, 0, &mut reclaimed);
        assert_eq!(reclaimed.len(), 3);
        for t in [d0, d1, d2] {
            assert!(
                reclaimed.contains(&t),
                "task of the dead slot not reclaimed"
            );
            store.remove(t);
        }
        assert_eq!(core.proc_ready_count(0), 0, "detach-safe after purge");
        core.unregister_proc(0);
        core.assert_masks_consistent(&store);

        // Survivors still schedule, in their original FIFO order.
        assert_eq!(core.proc_ready_count(1), 3);
        let p = core.pick(&mut store, &policy, 1, 0).unwrap();
        assert_eq!((p.task, p.source), (s0, PickSource::CoreLocal));
        let p = core.pick(&mut store, &policy, 1, 0).unwrap();
        assert_eq!((p.task, p.source), (s1, PickSource::CoreLocal));
        let p = core.pick(&mut store, &policy, 1, 0).unwrap();
        assert_eq!(p.task, s2);
        assert!(core.pick(&mut store, &policy, 1, 0).is_none());
        core.assert_masks_consistent(&store);
    }

    #[test]
    fn purge_slot_on_empty_slot_is_a_noop() {
        let (mut core, mut store, _policy) = setup(2, 0, 1_000_000);
        core.register_proc(0, 10);
        core.register_proc(1, 20);
        let keep = submit(&mut core, &mut store, 1, 20, 0, Affinity::None);
        let mut reclaimed: Vec<crate::TaskRef> = Vec::new();
        core.purge_slot(&mut store, 0, &mut reclaimed);
        assert!(reclaimed.is_empty());
        assert_eq!(core.proc_ready_count(1), 1);
        let _ = keep;
        core.assert_masks_consistent(&store);
    }

    #[test]
    fn inactive_slots_are_not_candidates() {
        let (mut core, mut store, policy) = setup(1, 0, 1_000_000);
        core.register_proc(0, 10);
        submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        let t = core.pick(&mut store, &policy, 0, 0).unwrap().task;
        store.remove(t);
        core.unregister_proc(0);
        // Route a stray task into the now-inactive slot's queue: it must
        // not be offered to the policy.
        submit(&mut core, &mut store, 0, 10, 0, Affinity::None);
        assert!(core.pick(&mut store, &policy, 0, 0).is_none());
    }
}
