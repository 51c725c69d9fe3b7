//! Guest-process side of cross-OS-process co-execution (§3.1).
//!
//! A *host* runtime built with [`crate::RuntimeBuilder::segment_name`]
//! backs its segment with a named OS shared-memory object
//! (`memfd_create`, falling back to `shm_open`) and runs a reactor
//! thread. A foreign OS process calls [`Runtime::join`] with the same
//! name and receives a [`GuestProcess`]: an attached registry slot plus
//! the published geometry block it needs to drive the host's scheduler
//! from outside.
//!
//! What a guest can and cannot do follows from what lives where:
//!
//! * The segment itself — rings, queues, descriptors, registry, SLAB, and
//!   the whole *wake surface* (claim table, per-CPU futex gates, standby
//!   election, hungry count) — is shared. A guest allocates descriptors
//!   and submits them through exactly the sequence host submissions run:
//!   claim pass → ring publish → wake. A lone task CASes straight into an
//!   idle worker's claim slot and notifies that worker's gate — no
//!   syscall while the standby spins, one `FUTEX_WAKE` when it is parked.
//! * The way back is the same primitive: the guest's registry slot embeds
//!   a gate, every completion (and every host-side change of the slot)
//!   ends by notifying it, and the guest's waits — join ack,
//!   [`GuestProcess::wait_idle`], detach — sleep on it.
//! * Worker *threads*, shard delegation locks and the scheduling policy
//!   live in the host. A guest cannot drain a ring or run a task: the
//!   host lends guests its kernels, not its wakes. The reactor keeps the
//!   handshakes (woken through a doorbell gate in the geometry block, not
//!   by its tick), liveness, and a periodic `has_ready` sweep that only
//!   matters when a guest is killed between publishing and waking.
//! * Closures cannot cross the process boundary, so guest tasks are
//!   *data-described*: a kernel id (resolved against the host's
//!   [`Runtime::register_kernel`] table) plus one `u64` argument.
//!
//! The join handshake (`Requested → Active`), the liveness heartbeat,
//! clean detach (`Active → Leaving`) and crash reclaim (`Active → Dead`)
//! are described in `DESIGN.md` at the repository root.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nosv_shmem::{process_alive, JoinState, ProcessId, ShmSegment, Shoff, CAP_GUEST_JOIN};
use nosv_sync::hint::crash_point;

use crate::error::NosvError;
use crate::runtime::Runtime;
use crate::scheduler::{producer_tag, GuestMeta, GuestPort};
use crate::task::{Affinity, TaskDesc, TaskState};

/// Guest-side default for every IPC timeout: what the full-ring submit
/// retry and the clean detach wait without an environment override, and
/// what the join handshake waits when the host's published value
/// ([`GuestMeta`], set through [`crate::RuntimeBuilder::join_timeout`]) is
/// unavailable too — a host predating the field, or a wait that happens
/// before the geometry block is mapped.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest a blocked guest sleeps before it looks up to probe the host's
/// pid: a guest whose host was killed learns it within this, however long
/// its own timeout.
const PROBE_PERIOD: Duration = Duration::from_millis(2);

/// Backoff rounds a waiting guest spins on its slot gate before the futex
/// sleep (the same budget the host's standby worker gets): a round trip
/// whose kernel is short completes inside the spin, with no kernel
/// transition on either side.
const WAIT_SPIN_ROUNDS: u32 = 64;

/// Reads a guest-side `NOSV_IPC_*_TIMEOUT_MS` override (milliseconds).
/// Unset, empty, unparsable or zero values are ignored. Overrides beat
/// the host-published join timeout: the guest knows its own latency
/// budget better than the host does, and the chaos harness shrinks them
/// to keep kill-matrix wall-clock bounded.
fn env_timeout_ms(var: &str) -> Option<Duration> {
    let raw = std::env::var(var).ok()?;
    let ms: u64 = raw.trim().parse().ok()?;
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Resolves the join timeout: environment override, then the
/// host-published value (`0` = host never set it), then the default.
fn resolve_timeout(var: &str, published_ns: u64) -> Duration {
    env_timeout_ms(var).unwrap_or(if published_ns > 0 {
        Duration::from_nanos(published_ns)
    } else {
        DEFAULT_TIMEOUT
    })
}

/// Polls `ready` once a millisecond until it holds or `deadline` passes —
/// for the two words a joining guest reads before it owns a slot (and
/// with it a gate to sleep on). The host publishes both right after
/// creating the segment, so this almost never sleeps at all.
fn poll_until(deadline: Instant, mut ready: impl FnMut() -> bool) -> bool {
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// The one blocking loop of the guest side — join ack, full-ring retry,
/// [`GuestProcess::wait_idle`] and detach all wait through it: sleep on
/// slot `me`'s gate until `check` yields a value. The eventcount
/// discipline (`prepare_wait`, *then* `check`, then wait on the captured
/// key) means a change the host makes after `check` looked cannot be
/// slept through, because every such change ends by notifying the gate.
///
/// Each sleep is bounded by [`PROBE_PERIOD`], after which the loop bumps
/// the heartbeat, probes the host's pid ([`NosvError::HostDead`]) and
/// checks `deadline` ([`NosvError::WaitTimeout`]).
pub(crate) fn wait_on_slot<T>(
    seg: &ShmSegment,
    me: ProcessId,
    host_os_pid: u64,
    deadline: Instant,
    mut check: impl FnMut() -> Option<T>,
) -> Result<T, NosvError> {
    let gate = seg.slot_gate(me.slot);
    loop {
        let key = gate.prepare_wait();
        if let Some(value) = check() {
            return Ok(value);
        }
        if !process_alive(host_os_pid as u32) {
            return Err(NosvError::HostDead);
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(NosvError::WaitTimeout);
        }
        seg.bump_heartbeat(me);
        let nap = PROBE_PERIOD.min(deadline - now);
        gate.wait_spin_timeout(key, WAIT_SPIN_ROUNDS, Some(nap));
    }
}

impl Runtime {
    /// Joins a host runtime's named segment from a foreign OS process —
    /// the guest-side constructor of cross-process co-execution. The host
    /// must have been built with [`crate::RuntimeBuilder::segment_name`]
    /// using the same `name`, and must have at least one process
    /// [`Runtime::attach`]ed (attaching starts the workers that will
    /// execute the guest's tasks).
    ///
    /// Blocks until the host's reactor acknowledges the attach handshake.
    /// The request rings the reactor's doorbell and the ack wakes this
    /// thread, so the wait is a pair of thread wakes (tens of
    /// microseconds), not a reactor tick. Errors:
    ///
    /// * [`NosvError::Segment`] — no such segment, geometry/version
    ///   mismatch, the segment was not created for guest joins, or the
    ///   host never published its scheduler;
    /// * [`NosvError::TooManyProcesses`] — the registry is full;
    /// * [`NosvError::HostDead`] — the host process died before
    ///   acknowledging (the join request is withdrawn);
    /// * [`NosvError::WaitTimeout`] — the host did not acknowledge in
    ///   time (the join request is withdrawn).
    ///
    /// The handshake timeout defaults to the value the host configured
    /// ([`crate::RuntimeBuilder::join_timeout`], published through the
    /// segment's geometry block); the submit-retry and detach timeouts
    /// default to 5 s. The environment variables
    /// `NOSV_IPC_JOIN_TIMEOUT_MS`, `NOSV_IPC_SUBMIT_TIMEOUT_MS` and
    /// `NOSV_IPC_DETACH_TIMEOUT_MS` override them on the guest side
    /// (milliseconds, zero ignored).
    pub fn join(name: &str) -> Result<GuestProcess, NosvError> {
        GuestProcess::join(name)
    }
}

/// A process attached to *another OS process's* runtime over a named
/// shared segment. Created by [`Runtime::join`].
///
/// The guest submits data-described tasks ([`GuestProcess::submit`])
/// which host workers execute, waits for them with
/// [`GuestProcess::wait_idle`], and leaves with [`GuestProcess::detach`]
/// (also performed best-effort on drop). If the guest process dies
/// instead, the host's reactor detects the dead pid, reclaims everything
/// it left queued, and frees its slot — see
/// [`crate::RuntimeStats::crash_reclaims`].
pub struct GuestProcess {
    seg: ShmSegment,
    me: ProcessId,
    meta: Shoff<GuestMeta>,
    /// The submission path into the host's scheduler, rebuilt from
    /// [`GuestMeta`]: claim pass, ring publish and wake, the sequence host
    /// submissions run.
    port: GuestPort,
    /// OS pid of the host, from [`GuestMeta`]: every blocking guest path
    /// probes it so a dead host turns into [`NosvError::HostDead`]
    /// instead of a full timeout wait.
    host_os_pid: u64,
    /// Resolved IPC timeouts (environment override, else the 5 s default).
    submit_timeout: Duration,
    detach_timeout: Duration,
    next_seq: AtomicU64,
    detached: AtomicBool,
}

impl GuestProcess {
    fn join(name: &str) -> Result<GuestProcess, NosvError> {
        let seg = ShmSegment::attach_named(name)?;
        if seg.capabilities() & CAP_GUEST_JOIN == 0 {
            return Err(NosvError::Segment {
                reason: format!("segment '{name}' was not created for guest joins"),
            });
        }
        let start = Instant::now();
        // Until the geometry block is mapped the host's published timeout
        // is unreadable, so the pre-meta deadline uses the override/default.
        let mut deadline = start + resolve_timeout("NOSV_IPC_JOIN_TIMEOUT_MS", 0);
        // The host publishes its geometry block — and then the scheduler
        // root inside it — right after creating the segment; both polls
        // resolve almost immediately unless the host died mid-setup.
        if !poll_until(deadline, || seg.user_root::<GuestMeta>().raw() != 0) {
            return Err(NosvError::Segment {
                reason: format!("segment '{name}': host never published its geometry"),
            });
        }
        let meta: Shoff<GuestMeta> = seg.user_root();
        // SAFETY: published once, lives as long as the segment itself.
        let m = unsafe { seg.sref(meta) };
        if !poll_until(deadline, || m.sched_root.load(Ordering::Acquire) != 0) {
            return Err(NosvError::Segment {
                reason: format!("segment '{name}': host never published its scheduler"),
            });
        }
        // The whole geometry block is visible now: adopt the host's
        // configured join timeout (the deadline still counts from entry,
        // so a published value cannot extend a wait already under way by
        // more than its own length).
        let host_os_pid = m.host_os_pid.load(Ordering::Acquire);
        deadline = start
            + resolve_timeout(
                "NOSV_IPC_JOIN_TIMEOUT_MS",
                m.join_timeout_ns.load(Ordering::Acquire),
            );
        let submit_timeout =
            env_timeout_ms("NOSV_IPC_SUBMIT_TIMEOUT_MS").unwrap_or(DEFAULT_TIMEOUT);
        let detach_timeout =
            env_timeout_ms("NOSV_IPC_DETACH_TIMEOUT_MS").unwrap_or(DEFAULT_TIMEOUT);
        let port = GuestPort::open(&seg, m).ok_or_else(|| NosvError::Segment {
            reason: format!("segment '{name}': published scheduler geometry is out of range"),
        })?;
        let me = seg.attach_guest()?;
        // Death here leaves the slot in Requested with a valid record:
        // the reactor's Requested-arm pid probe reclaims it.
        crash_point("ipc.join.requested");
        // Handshake: the host reactor registers the slot with its
        // scheduler and acknowledges Requested → Active. Submitting
        // before the ack would race slot registration, so we wait.
        m.doorbell.notify_all();
        loop {
            let acked = wait_on_slot(&seg, me, host_os_pid, deadline, || {
                match seg.join_state(me) {
                    Some(JoinState::Active) => Some(true),
                    Some(JoinState::Requested) => None,
                    // Freed, reused, or declared dead under us: the host
                    // rejected or tore down the slot.
                    _ => Some(false),
                }
            });
            match acked {
                Ok(true) => break,
                Ok(false) => {
                    return Err(NosvError::Segment {
                        reason: format!("segment '{name}': join request was torn down"),
                    })
                }
                // A dead host will never acknowledge, an overdue one
                // might: either way withdraw the request. If the CAS
                // loses, the host acked concurrently — look again and
                // succeed; if it wins, the host's reactor (if it ever
                // comes back) reclaims the Dead slot.
                Err(e) => {
                    if seg.set_join_state(me, JoinState::Requested, JoinState::Dead) {
                        m.doorbell.notify_all();
                        return Err(e);
                    }
                }
            }
        }
        Ok(GuestProcess {
            seg,
            me,
            meta,
            port,
            host_os_pid,
            submit_timeout,
            detach_timeout,
            next_seq: AtomicU64::new(1),
            detached: AtomicBool::new(false),
        })
    }

    /// This guest's logical process id in the host runtime.
    pub fn pid(&self) -> u64 {
        self.me.pid
    }

    /// Tasks submitted but not yet completed by the host.
    pub fn pending(&self) -> u64 {
        match self.seg.slot_view(self.me.slot) {
            Some(v) if v.pid == self.me.pid => v.submitted.saturating_sub(v.completed),
            _ => 0,
        }
    }

    /// Submits one data-described task: host workers run the kernel
    /// registered under `kernel_id` ([`Runtime::register_kernel`]) with
    /// `arg`. Tasks naming an unregistered kernel complete as no-ops.
    ///
    /// The submission is lock-free (the same ring protocol host
    /// submissions use); full rings are retried across shards with
    /// backoff. Errors:
    ///
    /// * [`NosvError::OutOfSharedMemory`] — the segment cannot hold
    ///   another descriptor;
    /// * [`NosvError::ProcessDetached`] — this guest detached, or the
    ///   host declared it dead;
    /// * [`NosvError::HostDead`] — the host process died (nobody will
    ///   drain the rings again);
    /// * [`NosvError::WaitTimeout`] — every ring stayed full (the host
    ///   stopped draining).
    pub fn submit(&self, kernel_id: u64, arg: u64) -> Result<(), NosvError> {
        if self.detached.load(Ordering::Acquire) {
            return Err(NosvError::ProcessDetached);
        }
        if kernel_id == u64::MAX {
            // The descriptor stores kernel_id + 1 (0 marks host tasks).
            return Err(NosvError::Segment {
                reason: "kernel id u64::MAX is reserved".to_string(),
            });
        }
        let desc: Shoff<TaskDesc> = self
            .seg
            .alloc_zeroed(std::mem::size_of::<TaskDesc>(), 0)?
            .cast();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // SAFETY: freshly allocated zeroed descriptor, exclusively ours
        // until the ring push publishes it.
        let d = unsafe { self.seg.sref(desc) };
        d.id.store((self.me.pid << 32) | (seq & 0xffff_ffff), Ordering::Relaxed);
        d.slot.store(self.me.slot, Ordering::Relaxed);
        d.pid.store(self.me.pid, Ordering::Relaxed);
        d.affinity.store(Affinity::None.encode(), Ordering::Relaxed);
        d.metadata.store(arg, Ordering::Relaxed);
        d.submits.store(1, Ordering::Relaxed);
        d.kernel.store(kernel_id + 1, Ordering::Release);
        d.set_state(TaskState::Ready);
        // The sequence `Scheduler::submit_batch` and its caller run, over
        // the same segment words: claim pass (an idle worker takes the
        // task straight from its claim slot), else ring publish + wake.
        // Sticky shard routing, same rule as the host's: this thread's
        // whole stream lands in one shard (and one lane within it),
        // spilling to the next shard only when its lane is full.
        let tag = producer_tag();
        let shards = self.port.shards();
        let start = (tag % shards as u64) as usize;
        let slot = self.me.slot as usize;
        let publish =
            || (0..shards).any(|k| self.port.publish((start + k) % shards, slot, tag, desc));
        if !self.port.claim(desc) && !publish() {
            // Every ring full: the host is behind. Each task of ours it
            // completes notifies our slot gate, and a completed task is a
            // drained ring entry — sleep there between retries, while we
            // are still welcome and the host still breathes.
            let deadline = Instant::now() + self.submit_timeout;
            let queued = self.wait_on_slot(deadline, || {
                if publish() {
                    Some(Ok(()))
                } else if self.seg.join_state(self.me) != Some(JoinState::Active) {
                    Some(Err(NosvError::ProcessDetached))
                } else {
                    None
                }
            });
            if let Err(e) = queued.and_then(|published| published) {
                self.seg.free_t(desc, 0);
                return Err(e);
            }
        }
        self.seg.add_submitted(self.me, 1);
        self.seg.bump_heartbeat(self.me);
        Ok(())
    }

    /// [`wait_on_slot`] on this guest's own slot.
    fn wait_on_slot<T>(
        &self,
        deadline: Instant,
        check: impl FnMut() -> Option<T>,
    ) -> Result<T, NosvError> {
        wait_on_slot(&self.seg, self.me, self.host_os_pid, deadline, check)
    }

    /// Waits until every task this guest submitted has completed.
    ///
    /// Sleeps on the slot's gate, which every completion notifies —
    /// returning at once when nothing is pending — and looks up every
    /// couple of milliseconds to bump the liveness heartbeat and probe the
    /// host. Returns [`NosvError::WaitTimeout`] when `timeout` elapses
    /// first, [`NosvError::ProcessDetached`] if the slot was torn down
    /// (e.g. the host declared this guest dead), and
    /// [`NosvError::HostDead`] if the host process died with tasks still
    /// pending (they will never complete).
    pub fn wait_idle(&self, timeout: Duration) -> Result<(), NosvError> {
        self.wait_on_slot(Instant::now() + timeout, || {
            match self
                .seg
                .slot_view(self.me.slot)
                .filter(|v| v.pid == self.me.pid)
            {
                None => Some(Err(NosvError::ProcessDetached)),
                Some(v) if v.completed >= v.submitted => Some(Ok(())),
                Some(_) => None,
            }
        })?
    }

    /// Detaches cleanly: asks the host to flush this guest's submission
    /// rings into the queues, waits until its remaining tasks are
    /// drained, and returns once the host has released the registry slot
    /// (§3.3 unregistration). Idempotent; also attempted on drop.
    ///
    /// Returns [`NosvError::WaitTimeout`] if the host neither released
    /// the slot in time nor died (a dead host ends the wait early — the
    /// segment outlives it only as this process's private mapping).
    pub fn detach(&self) -> Result<(), NosvError> {
        if self.detached.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        if !self
            .seg
            .set_join_state(self.me, JoinState::Active, JoinState::Leaving)
        {
            // Not Active anymore: the host tore the slot down already.
            return Ok(());
        }
        // SAFETY: the meta block is published-once host state.
        unsafe { self.seg.sref(self.meta) }.doorbell.notify_all();
        let deadline = Instant::now() + self.detach_timeout;
        // join_state() goes None once the host frees the slot.
        match self.wait_on_slot(deadline, || {
            self.seg.join_state(self.me).is_none().then_some(())
        }) {
            // A dead host can no longer drain or release anything; the
            // segment lives on only as this process's private mapping, so
            // leaving now is as clean as it gets.
            Ok(()) | Err(NosvError::HostDead) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

impl Drop for GuestProcess {
    fn drop(&mut self) {
        // Best-effort clean exit; if it fails (host gone, timeout), the
        // host-side crash reclaim is the backstop.
        let _ = self.detach();
    }
}

impl std::fmt::Debug for GuestProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestProcess")
            .field("pid", &self.me.pid)
            .field("slot", &self.me.slot)
            .field("detached", &self.detached.load(Ordering::Relaxed))
            .finish()
    }
}
