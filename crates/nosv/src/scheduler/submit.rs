//! The producer side of the scheduler shell: the claim pass that hands
//! tasks straight to idle CPUs, the one ring-publish sequence, and the
//! wake a queued submission owes — one body each, functions of segment
//! state, run by the host's [`Scheduler::submit_batch`] and by guest
//! processes ([`GuestPort`]) alike.

use nosv_shmem::{ShmSegment, Shoff};
use nosv_sync::hint::{crash_point, Ordering};

use super::{
    BatchSubmit, GuestMeta, ReadyTask, SchedRoot, Scheduler, WakeSurface, CLAIM_ATTEMPTS, MAX_CPUS,
};
use crate::task::{Affinity, TaskDesc};

/// Publishes `raws` (raw descriptor offsets, all of process `slot`) into
/// the slot's submission ring for `shard`, on `submitter`'s lane, and
/// returns how many the lane took (a prefix of `raws`). The single home of
/// the producer-side ordering — **contribution before ready before push
/// before dirty-mark** — for host submissions and guest processes alike:
///
/// * *Contribution first, ready second.* A producer dying anywhere after
///   the ready bump leaves its bumps covered by `contrib`, which crash
///   reclaim settles against the counter (see [`super::ProcSched`]).
/// * *Ready before push.* Once the push lands, a concurrent server can
///   drain, pick, and `fetch_sub` the counter — an increment ordered after
///   that would let it transiently wrap below zero, leaving `has_ready()`
///   stuck true until this thread resumes. The pre-increment's own
///   transient (ready count ahead of a not-yet-visible task) is benign: a
///   fetch finds nothing and the worker retries. SeqCst: this is the
///   producer side of the arming Dekker protocol — bump, then scan/wake.
/// * *Dirty-mark after push.* A server that drains on an earlier mark
///   either takes these entries or leaves the re-marking to us, but a mark
///   before the push could be consumed by an empty drain and strand them.
///   (The lane bit inside the `LaneRing` follows the same discipline one
///   level down.)
///
/// A shortfall (`pushed < raws.len()`: full lane, or a slot whose ring was
/// never allocated) is **not** settled here — the rejected suffix is still
/// counted in both `contrib` and `ready`, and what happens to it is the
/// caller's policy: the host moves it under the shard lock
/// ([`Scheduler::submit_batch`]), a guest rolls it back and retries
/// ([`GuestPort::publish`]).
fn ring_publish(
    seg: &ShmSegment,
    root: &SchedRoot,
    shard: usize,
    slot: usize,
    submitter: u64,
    raws: &[u64],
) -> usize {
    let hot = &root.shard_hot[shard];
    let proc = &root.procs[slot];
    let n = raws.len() as u64;
    proc.contrib[shard].fetch_add(n, Ordering::SeqCst);
    hot.ready.fetch_add(n, Ordering::SeqCst);
    // The worst counter-leak window: ready says tasks exist, but no ring
    // slot was ever claimed — invisible to ring repair, caught only by the
    // contribution residue.
    crash_point("sched.guest_submit.counted");
    let pushed = match raws {
        // A lone task takes the per-slot push (no head read, and the
        // `ring.push.reserved` / `ring.lane.unmarked` crash windows the
        // kill matrix steers guests onto); a batch takes one tail
        // reservation for the whole prefix the lane can hold.
        [raw] => usize::from(proc.rings[shard].push(seg, submitter, *raw)),
        _ => proc.rings[shard].push_n(seg, submitter, raws),
    };
    if pushed > 0 {
        hot.ring_mask.fetch_or(1 << slot, Ordering::Release);
    }
    pushed
}

/// A guest process's way into the host's scheduler, rebuilt from the
/// published [`GuestMeta`]: the in-segment root and a [`WakeSurface`] over
/// it. A guest has no [`Scheduler`] — the shard locks and the policy are
/// host-heap state — but submission needs neither: it is the same claim
/// pass → [`ring_publish`] → `wake_for` sequence
/// [`Scheduler::submit_batch`] and its caller run, over the same words.
///
/// What a guest writes on the wake surface is what that sequence writes:
/// a claim-slot deposit (the CAS and its hint-bit clear) and gate
/// notifications. It only *reads* `standby`, `hungry` and the armed bits.
pub(crate) struct GuestPort {
    seg: ShmSegment,
    root: Shoff<SchedRoot>,
    wake: WakeSurface,
    shards: usize,
}

impl GuestPort {
    /// Opens the port over `seg` once the host has published `meta`
    /// (`sched_root != 0`, which the caller has waited for). `None` when
    /// the block describes a scheduler this build cannot drive — numbers
    /// out of range are a host of a different layout, not something to
    /// index arrays with.
    pub(crate) fn open(seg: &ShmSegment, meta: &GuestMeta) -> Option<GuestPort> {
        let root: Shoff<SchedRoot> = Shoff::from_raw(meta.sched_root.load(Ordering::Acquire));
        let cpus = meta.cpus.load(Ordering::Relaxed) as usize;
        let shards = meta.shards.load(Ordering::Relaxed) as usize;
        let hw_threads = meta.hw_threads.load(Ordering::Relaxed) as usize;
        if root.raw() == 0
            || !(1..=MAX_CPUS).contains(&cpus)
            || !(1..=nosv_core::MAX_SHARDS).contains(&shards)
            || hw_threads == 0
        {
            return None;
        }
        // SAFETY: the published root is allocated once and lives until the
        // segment is torn down; the handle stored next to it keeps this
        // mapping alive.
        let wake = unsafe { WakeSurface::over(seg.sref(root), cpus, 0, hw_threads) };
        Some(GuestPort {
            seg: seg.clone(),
            root,
            wake,
            shards,
        })
    }

    fn root(&self) -> &SchedRoot {
        // SAFETY: see `open`.
        unsafe { self.seg.sref(self.root) }
    }

    /// Number of scheduler shards (a guest thread's submissions stick to
    /// the shard its producer tag hashes to).
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The claim pass for one unconstrained task: `true` = an idle CPU
    /// owns it now and has been notified; nothing was queued.
    pub(crate) fn claim(&self, task: Shoff<TaskDesc>) -> bool {
        self.wake.claim_pass(self.root(), Affinity::None, &[task]) == 1
    }

    /// Queues `task` of process `slot` in `shard` on `submitter`'s lane
    /// and issues the wake a queued task owes. Returns `false` on a full
    /// lane **after rolling the counters back** — a guest has no locked
    /// fallback, so the caller retries (next shard, then backoff).
    pub(crate) fn publish(
        &self,
        shard: usize,
        slot: usize,
        submitter: u64,
        task: Shoff<TaskDesc>,
    ) -> bool {
        let root = self.root();
        if ring_publish(&self.seg, root, shard, slot, submitter, &[task.raw()]) == 0 {
            // Roll the optimistic bumps back so has_ready() cannot stick
            // true.
            root.shard_hot[shard].ready.fetch_sub(1, Ordering::SeqCst);
            root.procs[slot].contrib[shard].fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        // Death here leaves a published task nobody was woken for: crash
        // reclaim drains it with the rest of the corpse's ring, and until
        // then the reactor's has_ready sweep gets it executed.
        crash_point("ipc.submit.published");
        self.wake.wake_for(root, Affinity::None);
        true
    }
}

impl Scheduler {
    /// Inserts ready `tasks` (all of one process `slot`, sharing
    /// `affinity`, in submission order) into the scheduler — the only way
    /// in; a single task is a batch of one. The per-submission costs are
    /// paid once per call, whatever the length:
    ///
    /// * **Claim pass** — [`WakeSurface::claim_pass`] hands leading tasks
    ///   straight to armed CPUs (never queued at all), one gate notify
    ///   each.
    /// * **Ring pass** — the remainder takes one [`ring_publish`]: one
    ///   ready-counter add, one lane push (reserve-N for a batch) and one
    ///   dirty mark.
    /// * **Locked pass** — whatever the lane could not hold is enqueued
    ///   under a single lock hold through [`SchedCore::enqueue_batch`]
    ///   (the same composition the simulator's `route_batch` performs),
    ///   after draining the shard's rings, so the overflow also amortizes.
    ///
    /// The returned parts sum to `tasks.len()`. The caller issues one
    /// [`Scheduler::wake_for`] when `ring + locked > 0` — at most one
    /// server wake per call.
    ///
    /// [`SchedCore::enqueue_batch`]: nosv_core::SchedCore::enqueue_batch
    pub(crate) fn submit_batch(
        &self,
        tasks: &[ReadyTask],
        affinity: Affinity,
        slot: usize,
        submitter: u64,
    ) -> BatchSubmit {
        let direct = self.wake.claim_pass(self.root(), affinity, tasks);
        let mut out = BatchSubmit {
            direct: direct as u64,
            ..BatchSubmit::default()
        };
        let rest = &tasks[direct..];
        if rest.is_empty() {
            return out;
        }
        // One routing rule for every backend: ShardMap owns it (a pure
        // function of affinity and submitter, so the sim and the parity
        // fuzz route identically with no shared cursor).
        let shard = self.map.route_shard(affinity, submitter);
        let root = self.root();
        let raws = Shoff::slice_as_raw(rest);
        let pushed = ring_publish(&self.seg, root, shard, slot, submitter, raws);
        out.ring = pushed as u64;
        if pushed < rest.len() {
            let overflow = &rest[pushed..];
            out.locked = overflow.len() as u64;
            // The rejected suffix goes through the lock into the same
            // shard: its ready bumps stay (every counted task does end up
            // drainable there), but it is no longer a ring contribution
            // of `slot`.
            root.procs[slot].contrib[shard].fetch_sub(out.locked, Ordering::SeqCst);
            let mut core = self.shards[shard].lock();
            self.drain_rings_locked(&mut core, shard);
            let mut store = self.store(shard);
            core.enqueue_batch(&mut store, overflow);
        }
        out
    }

    /// The wake a queued (ring/locked path) submission owes; see
    /// [`WakeSurface::wake_for`].
    pub(crate) fn wake_for(&self, affinity: Affinity) {
        self.wake.wake_for(self.root(), affinity);
    }

    /// Wake chaining: the worker pull loop calls this after a
    /// *successful* fetch, **after** closing its hungry window. The
    /// hungry-gated wake suppression means a burst may queue N tasks
    /// with only the workers already awake consuming them; chaining lets
    /// each successful fetch recruit one more parked CPU — a geometric
    /// ramp-up — **capped at the host's hardware parallelism**, beyond
    /// which extra awake workers only thrash an oversubscribed host (the
    /// committed bench records quantify that collapse).
    ///
    /// The ordering closes the suppression race: this runs after
    /// [`Scheduler::end_fetch`]'s SeqCst decrement, and a submitter
    /// skips its wake only if it read the hungry count *before* that
    /// decrement — in which case its SeqCst ready bump precedes this
    /// call's `has_ready` load, which therefore sees the task. Either
    /// the submitter wakes someone, or every fetcher it counted on
    /// re-observes the work here.
    pub(crate) fn chain_wake(&self) {
        let (root, wake) = (self.root(), &self.wake);
        let armed = root.claim.armed_count(wake.cpus).min(wake.cpus);
        if armed == 0 || wake.cpus - armed >= wake.hw_threads || !self.has_ready() {
            return;
        }
        if let Some(cpu) = wake.preferred_armed_cpu(root) {
            wake.gates.notify(cpu);
        }
    }
}

/// The wake decisions. Every input is segment state (`root`: the claim
/// table, the ready counters, `hungry`; the gates behind `self`) or one of
/// the handle's published numbers, so a guest process reaches the same
/// verdict as the host would — and delivers it itself.
impl WakeSurface {
    /// The direct-dispatch attempt: one pass over the armed CPUs of
    /// `affinity`'s placement window, CAS-ing leading tasks into their
    /// claim slots and waking exactly the claimed CPUs. Returns how many
    /// tasks were handed off (the caller queues the rest normally).
    ///
    /// How widely the pass recruits depends on what it is handed:
    ///
    /// * **A lone task** claims its target core, or one of up to
    ///   [`CLAIM_ATTEMPTS`] armed CPUs of its node; failing that — and
    ///   for unconstrained work from the start — only the *standby
    ///   spinner* (a best-effort placed task falling back to it is the
    ///   moral equivalent of a steal; a strict one never leaves its
    ///   window). The standby consumes the deposit without any futex
    ///   transition, stays cache-hot across a serial stream, and —
    ///   crucially — is a single consistent target. Scanning for *any*
    ///   armed CPU here would spread a burst of submissions over every
    ///   parked worker, paying one wakeup and one context switch per task
    ///   where the ring path batches them through one server (measurably
    ///   slower once workers outnumber hardware threads). Bursts
    ///   therefore fall through to the ring after the standby is claimed,
    ///   and `wake_for` keeps notifying the same lowest armed CPU, which
    ///   drains the batch alone.
    /// * **A batch** *wants* its tasks consumed in parallel: every armed
    ///   CPU of the window gets one task to start on while the queued
    ///   remainder is drained — but never more than the host has hardware
    ///   threads (on an oversubscribed host, waking more workers than
    ///   cores converts the batch into context-switch thrash), and never
    ///   outside the window (for strict affinity that is a correctness
    ///   rule; for best-effort the queued remainder batches through one
    ///   server rather than paying one wake per task).
    pub(super) fn claim_pass(
        &self,
        root: &SchedRoot,
        affinity: Affinity,
        tasks: &[ReadyTask],
    ) -> usize {
        let claim = &root.claim;
        let (lo, hi, strict) = match affinity {
            Affinity::Core { index, strict } => (index, index + 1, strict),
            Affinity::Numa { index, strict } => {
                let (lo, hi) = self.numa_cpu_range(index);
                (lo, hi, strict)
            }
            Affinity::None => (0, self.cpus, false),
        };
        let deposit = |cpu: usize, task: ReadyTask| {
            if !claim.try_claim(cpu, task.raw()) {
                return false;
            }
            // Death here strands a task in the slot of a CPU nobody
            // woke: crash reclaim of the depositor notifies every gate,
            // and the woken owner's disarm consumes it.
            crash_point("claim.deposit.unnotified");
            self.gates.notify(cpu);
            true
        };
        let lone = tasks.len() == 1;
        let mut handed = 0usize;
        if !(lone && affinity == Affinity::None) {
            let (budget, attempts) = if lone {
                (1, CLAIM_ATTEMPTS)
            } else {
                (tasks.len().min(self.hw_threads), usize::MAX)
            };
            for cpu in claim.armed_in(lo, hi).take(attempts) {
                if handed == budget {
                    break;
                }
                if deposit(cpu, tasks[handed]) {
                    handed += 1;
                }
            }
        }
        if lone && handed == 0 && !strict {
            // `standby()` only ever names a CPU below `self.cpus`.
            if let Some(cpu) = self.gates.standby() {
                if deposit(cpu, tasks[0]) {
                    handed = 1;
                }
            }
        }
        handed
    }

    /// Wakes the sleeper(s) a freshly queued (ring/locked path) task
    /// needs: the target core for a placed task, and for anything a
    /// steal can deliver, one CPU — but **only when every CPU is armed**.
    /// An un-armed CPU has a worker that is provably awake-or-arming, and
    /// the Dekker protocol (our SeqCst ready-counter bump precedes the
    /// mask scan; its SeqCst arm precedes its `has_ready` re-check)
    /// guarantees that worker observes this task before committing to
    /// sleep — so a busy runtime absorbs queued submissions with **zero**
    /// wake cost. No armed CPUs at all means nobody is committed to
    /// sleeping either.
    pub(super) fn wake_for(&self, root: &SchedRoot, affinity: Affinity) {
        let claim = &root.claim;
        let wake_any_unless_hungry = || {
            // Cheapest verdict first: the armed bitmap is written only on
            // park transitions, so a saturated submitter reads a line it
            // already shares — and with nobody armed there is nobody to
            // notify, whatever `hungry` says. Only then the hungry count,
            // a line every worker RMWs twice per fetch.
            let armed = claim.armed_count(self.cpus).min(self.cpus);
            if armed == 0 || root.hungry.load(Ordering::SeqCst) > 0 {
                return;
            }
            // Recruiting cap, same rule as [`Scheduler::chain_wake`]: once `hw_threads`
            // workers are already awake the hardware is saturated and an
            // extra wake only adds preemption — on an oversubscribed host
            // the un-capped wake made every submission futex-ping-pong
            // between two workers (each wake targeting the one currently
            // armed), collapsing single-producer throughput at `cpus`
            // slightly above the core count. Liveness is preserved by the
            // same Dekker argument as the all-armed suppression above: an
            // awake worker only commits to sleep after arming *and*
            // re-checking `has_ready`, which observes our SeqCst ready
            // bump.
            if self.cpus - armed >= self.hw_threads {
                return;
            }
            if let Some(cpu) = self.preferred_armed_cpu(root) {
                self.gates.notify(cpu);
            }
        };
        match affinity {
            Affinity::None => wake_any_unless_hungry(),
            Affinity::Core { index, strict } => {
                // Cheap unconditional notify: only the target core may
                // run a strict task, and it may be mid-arm.
                self.gates.notify(index);
                if !strict {
                    wake_any_unless_hungry();
                }
            }
            Affinity::Numa { index, strict } => {
                let (lo, hi) = self.numa_cpu_range(index);
                // Only a node CPU can run a strict task, and which armed
                // node CPU will reach it first cannot be told apart here:
                // wake every armed one.
                let mut any = false;
                for cpu in claim.armed_in(lo, hi) {
                    self.gates.notify(cpu);
                    any = true;
                }
                if !strict && !any {
                    wake_any_unless_hungry();
                }
            }
        }
    }

    /// The best CPU to wake for can-run-anywhere work: the standby (its
    /// gate wake is futex-free while it spins), else the lowest armed.
    fn preferred_armed_cpu(&self, root: &SchedRoot) -> Option<usize> {
        self.gates
            .standby()
            .or_else(|| root.claim.armed_in(0, self.cpus).next())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::stats::Counters;

    #[test]
    fn submission_goes_through_the_ring() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None)),
            RING
        );
        // The task is ready (counted) but still in the ring, not a queue.
        assert!(sched.has_ready());
        let snap = sched.snapshot();
        assert_eq!(snap.per_process, vec![(10, 1)], "ring contents count");
        // The server drains the ring and picks the task in one hold.
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
        assert!(!sched.has_ready());
    }

    #[test]
    fn full_ring_overflows_to_locked_path_and_loses_nothing() {
        let (seg, sched) = setup_ring(1, 0, 1_000_000, 2);
        let c = Counters::default();
        sched.register_proc(0, 10);
        let mut ring = 0;
        let mut locked = 0;
        for id in 0..5 {
            let path = sched.submit(mk_task(&seg, id, 0, 10, 0, Affinity::None));
            assert_eq!(path.direct, 0, "no CPU is armed");
            ring += path.ring;
            locked += path.locked;
        }
        // Submissions 1–2 fill the ring; 3 overflows to the locked path,
        // whose drain empties the ring again, so 4–5 ride the ring.
        assert_eq!(ring, 4, "drain-on-overflow reopens the ring");
        assert_eq!(locked, 1, "only the overflow takes the locked path");
        let mut got: Vec<u64> = (0..5)
            .map(|_| id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(!sched.has_ready());
    }

    #[test]
    fn claim_pass_deposits_into_the_armed_target_cpu() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        // CPU 1 goes idle and arms its claim slot; a task placed on it
        // bypasses every queue and lands straight in the slot.
        sched.arm_idle(1);
        assert_eq!(
            sched.submit(mk_task(
                &seg,
                7,
                0,
                10,
                0,
                Affinity::Core {
                    index: 1,
                    strict: true,
                },
            )),
            DIRECT
        );
        assert!(!sched.has_ready(), "the task was never queued");
        let t = sched.disarm_idle(1).expect("deposited");
        assert_eq!(id_of(&seg, t), 7);
        // Nothing left for anyone else.
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
    }

    #[test]
    fn unconstrained_tasks_only_claim_the_standby_cpu() {
        // Without a parked worker holding the standby role, unconstrained
        // submissions must NOT scatter over armed CPUs (that spreads a
        // burst over every parked worker — one wake per task); they take
        // the ring. The standby fast path itself is exercised end-to-end
        // in tests/direct_dispatch.rs, where real workers hold the role.
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.arm_idle(1);
        assert_eq!(
            sched.submit(mk_task(&seg, 7, 0, 10, 0, Affinity::None)),
            RING
        );
        assert!(sched.disarm_idle(1).is_none(), "slot must stay empty");
        assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), 7);
    }

    #[test]
    fn strict_placed_tasks_only_claim_their_target() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        sched.arm_idle(0); // wrong core
        let strict_core = Affinity::Core {
            index: 2,
            strict: true,
        };
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, strict_core)),
            RING,
            "armed CPU 0 must not receive a strict core-2 task"
        );
        assert!(sched.disarm_idle(0).is_none());
        // Now arm the target: the next strict task goes direct.
        sched.arm_idle(2);
        assert_eq!(
            sched.submit(mk_task(&seg, 2, 0, 10, 0, strict_core)),
            DIRECT
        );
        let t = sched.disarm_idle(2).expect("deposited on the target");
        assert_eq!(id_of(&seg, t), 2);
    }

    #[test]
    fn best_effort_placed_tasks_claim_their_armed_target() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        sched.arm_idle(2); // the preferred core is idle
        assert_eq!(
            sched.submit(mk_task(
                &seg,
                3,
                0,
                10,
                0,
                Affinity::Core {
                    index: 2,
                    strict: false,
                },
            )),
            DIRECT
        );
        assert_eq!(id_of(&seg, sched.disarm_idle(2).unwrap()), 3);
    }

    #[test]
    fn numa_tasks_claim_an_armed_cpu_of_their_node() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        sched.arm_idle(0); // node 0 — wrong node for the task below
        sched.arm_idle(3); // node 1 — eligible
        assert_eq!(
            sched.submit(mk_task(
                &seg,
                9,
                0,
                10,
                0,
                Affinity::Numa {
                    index: 1,
                    strict: true,
                },
            )),
            DIRECT
        );
        assert!(sched.disarm_idle(0).is_none(), "wrong node never claimed");
        assert_eq!(id_of(&seg, sched.disarm_idle(3).unwrap()), 9);
    }

    #[test]
    fn a_batch_claims_one_armed_cpu_per_task_inside_its_window() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        for cpu in 0..4 {
            sched.arm_idle(cpu);
        }
        // Best-effort, so leaving the window would be *legal* — a batch
        // still never does (its remainder batches through one server).
        let node1 = Affinity::Numa {
            index: 1,
            strict: false,
        };
        let tasks: Vec<ReadyTask> = (0..3)
            .map(|id| mk_task(&seg, id, 0, 10, 0, node1))
            .collect();
        let paths = sched.submit_batch(&tasks, node1, 0, 0);
        // Node 1 has two armed CPUs; recruiting is capped at the host's
        // hardware threads.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(paths.direct, 2.min(hw) as u64);
        assert_eq!(paths.direct + paths.ring, 3, "the rest is queued");
        assert!(sched.disarm_idle(0).is_none(), "outside the window");
        assert!(sched.disarm_idle(1).is_none(), "outside the window");
        // Leading tasks go to the lowest armed CPUs of the window, in order.
        assert_eq!(id_of(&seg, sched.disarm_idle(2).unwrap()), 0);
        assert_eq!(sched.disarm_idle(3).is_some(), hw >= 2);
    }

    #[test]
    fn disarmed_cpu_is_never_claimed() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::default();
        sched.register_proc(0, 10);
        sched.arm_idle(0);
        assert!(sched.disarm_idle(0).is_none(), "nothing deposited yet");
        // The claim window closed: submissions queue normally.
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None)),
            RING
        );
        assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), 1);
    }
}
