//! The shared scheduler (paper §3.4): the live driver of the
//! backend-agnostic scheduling core — sharded, with idle-CPU direct
//! dispatch.
//!
//! One instance per runtime. Since the `nosv-core` extraction, this module
//! contains **no scheduling decisions**: queue routing, priority ordering,
//! readiness bitmaps, candidate collection, quantum accounting, steal
//! rotation, yield requeueing and the shard mapping all live in
//! `nosv-core` ([`SchedCore`], [`ShardMap`]), the exact code the `simnode`
//! discrete-event simulator drives. What remains here is the live
//! backend's *concurrency shell*:
//!
//! * **Per-NUMA shards.** The scheduling state is split into
//!   [`ShardMap`]-mapped shards (one per NUMA node by default,
//!   [`crate::RuntimeBuilder::sched_shards`] to override, `1` = the
//!   original single-lock scheduler). Each shard is its own [`SchedCore`]
//!   behind its own [`DtLock`], with its own per-process submission rings
//!   and queues, so CPUs of different shards schedule concurrently
//!   instead of convoying on one critical section. A CPU whose shard runs
//!   dry steals from the other shards in rotation
//!   ([`SchedCore::steal_for_remote`]), taking one victim lock at a time
//!   and skipping shards whose ready counter is zero.
//! * **Idle-CPU direct dispatch.** When a submission arrives while a CPU
//!   sits idle and armed in the [`ClaimTable`],
//!   [`Scheduler::submit_batch`] CAS-claims that CPU and deposits the
//!   task straight into its per-CPU handoff slot — no ring, no queue, no
//!   lock, no pick: one CAS plus one gate notification (and not even a
//!   futex wake when the standby spinner takes it). A lone unconstrained
//!   task claims only the standby; a lone placed task claims its target
//!   core/node (best-effort ones fall back to the standby, the moral
//!   equivalent of a steal); a batch claims one armed CPU of its window
//!   per leading task. Everything else takes the ring path below.
//! * the [`DtLock`] protecting each shard: workers asking for tasks
//!   either win their shard's lock — becoming a transient *server* that
//!   picks tasks for themselves and every waiting CPU of the shard with a
//!   consistent view — or are served directly through their DTLock wait
//!   slot;
//! * the lock-free submission rings (now per process × shard) and their
//!   amortized batch drains;
//! * counters and deferred observability events.
//!
//! The shell is split along its seams: this file holds the in-segment
//! layout, construction and the idle-CPU arming surface; `submit` the
//! producer side (ring publish, claim pass, [`Scheduler::submit_batch`],
//! wakes); `fetch` the consumer side (ring drain, pick, delegation,
//! cross-shard steal); `registry` the process-slot life cycle (register,
//! unregister, crash reclaim).
//!
//! # The hot path: claim CAS, rings, bitmaps, no allocation
//!
//! Four mechanisms keep scheduling off the serial path:
//!
//! * **Direct dispatch** (above) removes the queue round trip entirely
//!   whenever a CPU is already waiting.
//! * **Lock-free submission.** [`Scheduler::submit_batch`] pushes the
//!   descriptors into the submitting process's ring *for the destination
//!   shard*. Whoever next holds that shard's lock drains all its dirty
//!   rings in one batch before scheduling. A full ring overflows to a
//!   bounded locked enqueue.
//! * **Readiness bitmaps** (in the core) let every scan jump between
//!   non-empty queues with `trailing_zeros`; per-shard ready counters let
//!   cross-shard stealing skip empty shards without touching their locks.
//! * **No allocation in any critical section** — candidate scratch is
//!   preallocated, deferred observability events reuse a thread-local
//!   buffer.

#[cfg(test)]
mod compose;
mod fetch;
mod registry;
mod submit;

use std::sync::Arc;

use nosv_core::{QueueId, SchedCore, SchedPolicy, ShardMap, TaskStore, MAX_SHARDS};
use nosv_shmem::{ClaimTable, LaneRing, ShmSegment, Shoff, MAX_PROCS};
// The shell's own shared words come from the `hint` facade like the
// protocol crates' do, so the composition model suite (`compose`) can
// interleave them; in a normal build these are the `std` types.
use nosv_sync::hint::{AtomicU64, Ordering};
use nosv_sync::{CpuGateBlock, CpuGates, DtLock, IdleGate, Padded};

use crate::config::NosvConfig;
use crate::error::NosvError;
use crate::queue::TaskQueue;
use crate::task::{Affinity, TaskDesc};

pub(crate) use submit::GuestPort;

/// Maximum cores the in-segment scheduler arrays are sized for.
pub(crate) const MAX_CPUS: usize = 256;
/// Maximum NUMA nodes.
pub(crate) const MAX_NUMA: usize = 16;

const _: () = assert!(MAX_PROCS <= 64 && MAX_NUMA <= 64);
const _: () = assert!(MAX_NUMA <= MAX_SHARDS && MAX_SHARDS <= 64);
const _: () = assert!(MAX_CPUS <= nosv_shmem::CLAIM_MAX_CPUS);
const _: () = assert!(MAX_CPUS <= nosv_sync::GATE_MAX_CPUS);

/// Direct-dispatch claim attempts per submission before falling back to
/// the ring path (bounds the CAS traffic a burst of submitters can spend
/// racing each other over the same armed CPUs).
const CLAIM_ATTEMPTS: usize = 4;

/// A ready task travelling from the scheduler to a worker (possibly through
/// a DTLock delegation slot or a direct-dispatch handoff slot).
pub(crate) type ReadyTask = Shoff<TaskDesc>;

/// Process-wide producer-identity allocator; see [`producer_tag`].
static NEXT_PRODUCER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's producer identity, assigned on first use.
    static PRODUCER_TAG: u64 = NEXT_PRODUCER.fetch_add(1, Ordering::Relaxed);
}

/// A stable identity for the calling producer thread, used for both lane
/// selection within a [`LaneRing`] (disjoint producers push on disjoint
/// cache lines) and sticky unconstrained shard routing
/// ([`ShardMap::route_shard`]: one producer's stream stays in one shard).
/// Registration is implicit — the first submission from a thread claims
/// the next id — and ids are never reused, which is fine for hashing.
pub(crate) fn producer_tag() -> u64 {
    PRODUCER_TAG.with(|t| *t)
}

#[repr(C)]
struct ProcSched {
    /// Per-shard process queues (unconstrained tasks of this process that
    /// were routed to each shard).
    queues: [TaskQueue; MAX_SHARDS],
    /// Per-shard laned submission rings (initialized at first
    /// registration of the slot; reused across re-registrations). Each
    /// producer thread pushes into its own lane ([`LaneRing`]), so
    /// concurrent producers of one process stop CAS-contending on a
    /// single ring tail.
    rings: [LaneRing; MAX_SHARDS],
    /// Per-shard count of this slot's ring-path ready-counter bumps not
    /// yet matched by a drain pop. Producers increment *before* the ready
    /// bump; drains decrement by the number of entries they pop; the
    /// host's locked fallback decrements when a push bounces to the lock.
    /// In steady state the counter therefore tracks exactly the slot's
    /// in-ring (or in-flight) contributions to `ShardHot::ready` — and at
    /// crash reclaim, after the rings are drained and repaired, whatever
    /// remains is precisely the ready over-count a producer dying between
    /// its bump and a drainable push leaked (the
    /// `sched.guest_submit.counted` / `ring.push.reserved` windows).
    /// Zero-valid like everything else in the segment.
    contrib: [AtomicU64; MAX_SHARDS],
}

/// Per-shard hot counters, cache-line padded so shards never false-share.
#[repr(C, align(64))]
struct ShardHot {
    /// Ready tasks accounted to this shard (queues + undrained rings).
    ready: AtomicU64,
    /// Bit per process slot whose submission ring for this shard may hold
    /// entries. Set by producers after a push; cleared by the draining
    /// lock holder before it empties the ring.
    ring_mask: AtomicU64,
}

#[repr(C)]
struct SchedRoot {
    shard_hot: [ShardHot; MAX_SHARDS],
    /// Idle-CPU claim table (direct dispatch). With `hungry` and `gates`
    /// below it forms the *wake surface*: everything the wake decisions
    /// ([`WakeSurface::claim_pass`], [`WakeSurface::wake_for`]) read, in
    /// the segment so that every attached process decides — and wakes —
    /// for itself. What a submitter touches of it (the armed bitmap, the
    /// standby's slot and gate, `hungry`, the election word) sits within
    /// a few KB of `shard_hot`, which it writes anyway: a guest maps one
    /// or two more pages for it, not one per field.
    claim: ClaimTable,
    /// Workers currently inside a fetch ([`Scheduler::get_task`], between
    /// tasks). A hungry worker is guaranteed to observe freshly queued
    /// work before it can commit to sleep (the park path re-checks
    /// `has_ready` after arming), so stealable submissions skip their
    /// wake entirely while anyone is hungry — a busy runtime absorbs a
    /// burst with zero wake traffic. Workers executing task bodies do
    /// *not* count (a long body must not suppress wakes of sleepers).
    /// Written by workers only; submitters of any process read it. On a
    /// line of its own: every worker RMWs it twice per fetch, and the wake
    /// surface around it is written only on park transitions.
    hungry: Padded<AtomicU64>,
    /// The per-CPU gates idle workers sleep on, and the standby election.
    /// Workers (host threads) wait; any process notifies.
    gates: CpuGateBlock,
    procs: [ProcSched; MAX_PROCS],
    cores: [TaskQueue; MAX_CPUS],
    numas: [TaskQueue; MAX_NUMA],
}

/// Guest-visible scheduler geometry, allocated in the segment by the host
/// of a *named* segment and published through the header's user-root
/// anchor ([`ShmSegment::init_user_root_once`]). A joining guest rederives
/// everything it needs to submit — where the scheduler root lives, how
/// many shards there are, how to read the wake surface — from this one
/// block; nothing is exchanged out of band.
#[repr(C)]
pub(crate) struct GuestMeta {
    /// Raw `Shoff<SchedRoot>`; 0 until the host publishes it (guests poll).
    pub sched_root: AtomicU64,
    /// Number of scheduler shards.
    pub shards: AtomicU64,
    /// Per-process submission ring capacity (entries).
    pub ring_cap: AtomicU64,
    /// OS pid of the hosting process (diagnostics; lets a guest notice a
    /// dead host).
    pub host_os_pid: AtomicU64,
    /// Host-configured join-handshake timeout in nanoseconds. Guests adopt
    /// it after mapping the block; 0 means "host predates the field" and
    /// falls back to the guest-side default.
    pub join_timeout_ns: AtomicU64,
    /// CPUs the runtime manages: how much of the claim table and the gate
    /// block is in use.
    pub cpus: AtomicU64,
    /// The host's hardware parallelism, the recruiting cap of the wake
    /// decisions (see [`WakeSurface`]).
    pub hw_threads: AtomicU64,
    /// The reactor's doorbell: the reactor sleeps on it between sweeps,
    /// and a guest rings it after a registry transition the reactor must
    /// act on (`Requested`, `Leaving`, a withdrawn join) instead of
    /// leaving it for the next periodic sweep.
    pub doorbell: IdleGate,
}

/// Adapter exposing one shard's view of the shared-segment queues to
/// [`SchedCore`] as a [`TaskStore`]: the shard's own per-process queues,
/// plus the global core/NUMA queue arrays (each of which is owned by
/// exactly one shard — the core's readiness bits gate all access, so a
/// queue is only ever touched under its owner's DTLock).
struct ShmStore<'a> {
    seg: &'a ShmSegment,
    root: &'a SchedRoot,
    shard: usize,
}

impl ShmStore<'_> {
    fn queue(&self, q: QueueId) -> &TaskQueue {
        match q {
            QueueId::Core(i) => &self.root.cores[i],
            QueueId::Numa(i) => &self.root.numas[i],
            QueueId::Proc(i) => &self.root.procs[i].queues[self.shard],
        }
    }

    fn desc(&self, t: ReadyTask) -> &TaskDesc {
        // SAFETY: ready tasks are alive while queued/owned by the scheduler.
        unsafe { self.seg.sref(t) }
    }
}

impl TaskStore for ShmStore<'_> {
    type Task = ReadyTask;

    fn push(&mut self, q: QueueId, t: ReadyTask) {
        self.queue(q).push(self.seg, t);
    }

    fn pop(&mut self, q: QueueId) -> Option<ReadyTask> {
        self.queue(q).pop(self.seg)
    }

    fn pop_stealable(&mut self, q: QueueId, limit: usize) -> Option<ReadyTask> {
        self.queue(q).pop_if(self.seg, limit, |d| {
            !Affinity::decode(d.affinity.load(Ordering::Relaxed)).is_strict()
        })
    }

    fn queue_is_empty(&self, q: QueueId) -> bool {
        self.queue(q).is_empty()
    }

    fn head_priority(&self, q: QueueId) -> Option<i32> {
        self.queue(q).head_priority(self.seg)
    }

    fn affinity(&self, t: ReadyTask) -> Affinity {
        Affinity::decode(self.desc(t).affinity.load(Ordering::Relaxed))
    }

    fn pid(&self, t: ReadyTask) -> u64 {
        self.desc(t).pid.load(Ordering::Relaxed)
    }

    fn slot(&self, t: ReadyTask) -> usize {
        self.desc(t).slot.load(Ordering::Relaxed) as usize
    }
}

/// One process's handle on the wake surface in [`SchedRoot`]: the gates
/// over the in-segment block, plus the published numbers that say how much
/// of the surface is in use. The host's [`Scheduler`] holds one and so
/// does every guest ([`GuestPort`]), built from [`GuestMeta`] — which is
/// what lets both run the same `claim_pass` and `wake_for` (in `submit`).
pub(crate) struct WakeSurface {
    /// Per-CPU wake gates over `SchedRoot::gates`.
    gates: CpuGates,
    cpus: usize,
    /// CPUs per NUMA node (`0` = one node). Guests carry `0`: they submit
    /// only unconstrained work, which never consults it.
    cpus_per_numa: usize,
    /// Host hardware parallelism, the cap on wake recruiting: waking more
    /// workers than the machine can actually run in parallel converts
    /// batched draining into context-switch thrash.
    hw_threads: usize,
}

impl WakeSurface {
    /// A handle on `root`'s wake surface.
    ///
    /// # Safety
    ///
    /// `root` must stay mapped at this address for as long as the handle
    /// is used (its owner keeps a [`ShmSegment`] handle alongside).
    unsafe fn over(
        root: &SchedRoot,
        cpus: usize,
        cpus_per_numa: usize,
        hw_threads: usize,
    ) -> WakeSurface {
        WakeSurface {
            // SAFETY: the gate block is part of `root`; forwarded contract.
            gates: unsafe { CpuGates::over(&root.gates, cpus) },
            cpus,
            cpus_per_numa,
            hw_threads,
        }
    }

    /// The CPU index range of a NUMA node (`cpus_per_numa == 0` = one
    /// node spanning every CPU).
    fn numa_cpu_range(&self, index: usize) -> (usize, usize) {
        if self.cpus_per_numa == 0 {
            (0, self.cpus)
        } else {
            (
                index * self.cpus_per_numa,
                ((index + 1) * self.cpus_per_numa).min(self.cpus),
            )
        }
    }
}

pub(crate) struct Scheduler {
    seg: ShmSegment,
    root: Shoff<SchedRoot>,
    /// One delegation lock per shard, each *protecting its scheduling
    /// core*: decision state (bitmaps, quantum accounting, process table,
    /// rr cursor) is only reachable through a holder's guard.
    shards: Box<[DtLock<SchedCore, ReadyTask>]>,
    /// The CPU/NUMA/submission → shard mapping (shared with the sim).
    map: ShardMap,
    /// This process's handle on the in-segment wake surface.
    wake: WakeSurface,
    /// Per-process, per-lane submission ring capacity (a power of two;
    /// see [`Scheduler::register_proc`] for what `0` does).
    ring_cap: usize,
    /// Lanes per [`LaneRing`] (a power of two).
    lanes: usize,
    /// The process-selection policy, shared with the simulator backend.
    policy: Arc<dyn SchedPolicy>,
}

/// Per-path breakdown of one [`Scheduler::submit_batch`] call (drives the
/// runtime's counters; the parts always sum to the batch size).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchSubmit {
    /// Leading tasks handed straight to armed CPUs (one notify each).
    pub direct: u64,
    /// Tasks placed in the submitter's ring lane.
    pub ring: u64,
    /// Overflow enqueued under the shard lock.
    pub locked: u64,
}

impl Scheduler {
    pub(crate) fn new(
        seg: ShmSegment,
        config: &NosvConfig,
        policy: Arc<dyn SchedPolicy>,
    ) -> Result<Scheduler, NosvError> {
        debug_assert!(config.cpus <= MAX_CPUS, "config validated upstream");
        debug_assert!(config.numa_nodes() <= MAX_NUMA, "config validated upstream");
        let shards_n = config.resolved_shards();
        debug_assert!(shards_n <= MAX_SHARDS, "config validated upstream");
        let root: Shoff<SchedRoot> = seg
            .alloc_zeroed(std::mem::size_of::<SchedRoot>(), 0)?
            .cast();
        // Zeroed SchedRoot is valid: empty queues, uninitialized rings,
        // no armed CPUs, nobody asleep, nobody hungry.
        let hw_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // SAFETY: allocated above and never freed; `seg`, stored next to
        // the handle, keeps the mapping alive.
        let wake = unsafe {
            WakeSurface::over(
                seg.sref(root),
                config.cpus,
                config.cpus_per_numa,
                hw_threads,
            )
        };
        let shards: Box<[DtLock<SchedCore, ReadyTask>]> = (0..shards_n)
            .map(|_| {
                let core = SchedCore::new(config.cpus, config.cpus_per_numa, MAX_PROCS);
                // Waiters are at most one worker per CPU, plus headroom
                // for submitter threads taking the plain lock path.
                DtLock::new(core, config.cpus + 64)
            })
            .collect();
        Ok(Scheduler {
            seg,
            root,
            shards,
            map: ShardMap::new(config.cpus, config.cpus_per_numa, shards_n),
            wake,
            ring_cap: config.submit_ring_cap,
            lanes: config.resolved_lanes(),
            policy,
        })
    }

    fn root(&self) -> &SchedRoot {
        // SAFETY: allocated zeroed at construction, never freed before drop.
        unsafe { self.seg.sref(self.root) }
    }

    fn store(&self, shard: usize) -> ShmStore<'_> {
        ShmStore {
            seg: &self.seg,
            root: self.root(),
            shard,
        }
    }

    /// Number of scheduler shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Fills in the scheduler's part of the geometry block a host
    /// publishes for guests ([`GuestPort::open`] reads it back). The root
    /// offset goes last, with Release: guests poll it, and seeing it
    /// nonzero means seeing everything stored before it.
    pub(crate) fn publish(&self, meta: &GuestMeta) {
        meta.shards
            .store(self.shards.len() as u64, Ordering::Relaxed);
        meta.ring_cap.store(self.ring_cap as u64, Ordering::Relaxed);
        meta.cpus.store(self.wake.cpus as u64, Ordering::Relaxed);
        meta.hw_threads
            .store(self.wake.hw_threads as u64, Ordering::Relaxed);
        meta.sched_root.store(self.root.raw(), Ordering::Release);
    }

    /// The per-CPU wake gates (election statistics, shutdown's wake-all).
    pub(crate) fn gates(&self) -> &CpuGates {
        &self.wake.gates
    }

    /// Dead waiters evicted across all shard delegation locks (feeds
    /// [`crate::RuntimeStats::dead_waiter_evictions`]).
    pub(crate) fn dtlock_evictions(&self) -> u64 {
        self.shards.iter().map(|l| l.evictions()).sum()
    }

    /// Whether any task is ready (fast, lock-free check for idle loops).
    /// Counts tasks still sitting in submission rings. SeqCst loads: this
    /// is the consumer side of the arming Dekker protocol (see
    /// [`ClaimTable`]) — a worker re-checks it *after* arming, pairing
    /// with the submitter's counter-bump-then-scan order.
    pub(crate) fn has_ready(&self) -> bool {
        let root = self.root();
        (0..self.shards.len()).any(|s| root.shard_hot[s].ready.load(Ordering::SeqCst) > 0)
    }

    /// Arms `cpu`'s direct-dispatch slot (the worker is about to commit
    /// to idling). Callers must re-check [`Scheduler::has_ready`] *after*
    /// arming and eventually call [`Scheduler::disarm_idle`].
    pub(crate) fn arm_idle(&self, cpu: usize) {
        self.root().claim.arm(cpu);
    }

    /// Disarms `cpu`'s slot, returning a directly dispatched task if one
    /// was deposited since the arm.
    pub(crate) fn disarm_idle(&self, cpu: usize) -> Option<ReadyTask> {
        self.root().claim.disarm(cpu).map(Shoff::from_raw)
    }

    /// Parks `cpu`'s idle worker until something is addressed to it, and
    /// returns the task a direct dispatch deposited meanwhile, if any. The
    /// park protocol (direct dispatch + lost-wakeup safety):
    ///
    /// 1. capture this CPU's gate epoch *first* — any notification after
    ///    this point (a claim deposit, a queued submission's targeted
    ///    wake, shutdown) makes the eventual wait return immediately;
    /// 2. arm the claim slot — from here on a submission may CAS its task
    ///    straight to us;
    /// 3. re-check `stop` and ready work. Arming and the ready counters
    ///    are SeqCst on both sides (Dekker), so a racing submitter either
    ///    sees us armed (deposits or wakes us) or we see its task here;
    /// 4. sleep; on any return, disarm — the swap atomically tells a
    ///    deposit apart from a plain wake.
    ///
    /// Known limitation (pre-dating the sharded park path): `has_ready` is
    /// global, so while the only queued work is something this CPU can
    /// never take (a strict task for a busy core elsewhere), idle workers
    /// re-loop through fetches instead of committing to sleep. Transient —
    /// it lasts until the unclaimable task is consumed — but a per-CPU
    /// claimability mask would be needed to sleep through it.
    pub(crate) fn park_idle(&self, cpu: usize, stop: impl Fn() -> bool) -> Option<ReadyTask> {
        let key = self.wake.gates.prepare_wait(cpu);
        self.arm_idle(cpu);
        if !stop() && !self.has_ready() {
            self.wake.gates.wait(cpu, key);
        }
        self.disarm_idle(cpu)
    }

    /// Asserts every shard's readiness bitmaps agree with a naive recount
    /// of the queues it owns (test support; takes each shard's lock).
    #[cfg(test)]
    fn assert_masks_consistent(&self) {
        for (s, lock) in self.shards.iter().enumerate() {
            let core = lock.lock();
            let map = self.map;
            core.assert_masks_consistent_where(&self.store(s), |q| match q {
                QueueId::Proc(_) => true,
                QueueId::Core(c) => map.shard_of_cpu(c) == s,
                QueueId::Numa(n) => map.shard_of_numa(n) == s,
            });
        }
    }
}

/// Fixtures shared by the unit tests of this module and its children.
#[cfg(test)]
mod testutil {
    pub(super) use super::*;
    pub(super) use crate::obs::ObsCollector;
    use crate::task::TaskState;
    use nosv_shmem::SegmentConfig;

    /// What [`Scheduler::submit`] reports for a lone task, by path.
    pub(super) const DIRECT: BatchSubmit = BatchSubmit {
        direct: 1,
        ring: 0,
        locked: 0,
    };
    pub(super) const RING: BatchSubmit = BatchSubmit {
        direct: 0,
        ring: 1,
        locked: 0,
    };

    impl Scheduler {
        /// Submits one task as a batch of one, reading its placement and
        /// slot off the descriptor, as the calling thread's producer.
        pub(in crate::scheduler) fn submit(&self, task: ReadyTask) -> BatchSubmit {
            self.submit_as(task, producer_tag())
        }

        /// [`Scheduler::submit`] with the submitter identity pinned down
        /// (lane choice and sticky shard routing follow it).
        pub(in crate::scheduler) fn submit_as(
            &self,
            task: ReadyTask,
            submitter: u64,
        ) -> BatchSubmit {
            // SAFETY: test descriptors are never freed.
            let d = unsafe { self.seg.sref(task) };
            let affinity = Affinity::decode(d.affinity.load(Ordering::Relaxed));
            let slot = d.slot.load(Ordering::Relaxed) as usize;
            self.submit_batch(&[task], affinity, slot, submitter)
        }
    }

    pub(super) fn obs() -> ObsCollector {
        ObsCollector::disabled()
    }

    pub(super) fn setup(
        cpus: usize,
        cpus_per_numa: usize,
        quantum_ns: u64,
    ) -> (ShmSegment, Scheduler) {
        setup_full(cpus, cpus_per_numa, quantum_ns, 256, 0)
    }

    pub(super) fn setup_ring(
        cpus: usize,
        cpus_per_numa: usize,
        quantum_ns: u64,
        ring_cap: usize,
    ) -> (ShmSegment, Scheduler) {
        setup_full(cpus, cpus_per_numa, quantum_ns, ring_cap, 0)
    }

    pub(super) fn setup_full(
        cpus: usize,
        cpus_per_numa: usize,
        quantum_ns: u64,
        ring_cap: usize,
        sched_shards: usize,
    ) -> (ShmSegment, Scheduler) {
        let seg = ShmSegment::create(SegmentConfig {
            size: 8 * 1024 * 1024,
            max_cpus: cpus,
        });
        let cfg = NosvConfig {
            cpus,
            cpus_per_numa,
            quantum_ns,
            submit_ring_cap: ring_cap,
            sched_shards,
            ..Default::default()
        };
        let policy = Arc::new(crate::policy::QuantumPolicy::new(quantum_ns));
        let sched = Scheduler::new(seg.clone(), &cfg, policy).expect("segment fits");
        (seg, sched)
    }

    pub(super) fn mk_task(
        seg: &ShmSegment,
        id: u64,
        slot: u32,
        pid: u64,
        priority: i32,
        affinity: Affinity,
    ) -> ReadyTask {
        let off: Shoff<TaskDesc> = seg
            .alloc_zeroed(std::mem::size_of::<TaskDesc>(), 0)
            .unwrap()
            .cast();
        // SAFETY: fresh zeroed descriptor.
        let d = unsafe { seg.sref(off) };
        d.id.store(id, Ordering::Relaxed);
        d.slot.store(slot, Ordering::Relaxed);
        d.pid.store(pid, Ordering::Relaxed);
        d.priority.store(priority as u32, Ordering::Relaxed);
        d.affinity.store(affinity.encode(), Ordering::Relaxed);
        d.set_state(TaskState::Ready);
        off
    }

    pub(super) fn id_of(seg: &ShmSegment, t: ReadyTask) -> u64 {
        unsafe { seg.sref(t) }.id.load(Ordering::Relaxed)
    }
}
