//! Process registry: attach/detach life cycle (paper §3.3).
//!
//! Every process using the segment registers itself in a fixed table of
//! [`crate::MAX_PROCS`] slots. The registry backs two behaviours from the
//! paper: the runtime knows which logical processes are attached (the
//! scheduler iterates them for fairness), and "the last process to
//! unregister will delete the whole shared memory segment" — surfaced here
//! as the remaining-count return of [`ShmSegment::detach`].

use nosv_sync::hint::{crash_point, AtomicU32, AtomicU64, Ordering};
use nosv_sync::IdleGate;

use crate::layout::{MAX_PROCS, PROC_SLOT_BYTES};
use crate::offset::Shoff;
use crate::segment::ShmSegment;

/// Identity of an attached logical process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId {
    /// Unique id (never reused within a segment's lifetime).
    pub pid: u64,
    /// Registry slot index occupied by this process.
    pub slot: u32,
}

/// Failure to attach to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// All [`MAX_PROCS`] registry slots are occupied.
    Full,
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Full => write!(f, "registry full: {MAX_PROCS} processes attached"),
        }
    }
}

impl std::error::Error for AttachError {}

const SLOT_FREE: u32 = 0;
const SLOT_CLAIMED: u32 = 1;

/// Join-handshake state of an attached process (the `join_state` word of
/// its registry slot). Plain host attachments stay at [`JoinState::None`];
/// foreign-process guests walk `Requested → Active → (Leaving | Dead)`
/// under the handshake protocol in `nosv::ipc`.
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinState {
    /// Not a guest (host attachment), the zero-valid default.
    None = 0,
    /// Guest has claimed the slot and awaits the host's acknowledgement.
    Requested = 1,
    /// Host acknowledged: submission rings are live, the guest may submit.
    Active = 2,
    /// Guest asked for a clean detach; the host unregisters it once its
    /// queues drain.
    Leaving = 3,
    /// Host declared the guest dead (crash-reclaim in progress).
    Dead = 4,
}

impl JoinState {
    /// Decodes a raw `join_state` word; unknown values read as `Dead`
    /// (the conservative interpretation for a shared word a buggy or
    /// hostile peer could scribble).
    pub fn from_u32(raw: u32) -> JoinState {
        match raw {
            0 => JoinState::None,
            1 => JoinState::Requested,
            2 => JoinState::Active,
            3 => JoinState::Leaving,
            _ => JoinState::Dead,
        }
    }
}

/// One registry slot, padded to [`PROC_SLOT_BYTES`]. Zero == free.
///
/// Beyond the claim state and logical pid, a slot carries the attach
/// record the cross-process handshake and the crash-reclaim sweeper work
/// from: the OS pid (liveness probe target), a heartbeat epoch the guest
/// bumps while healthy, the join state, submitted/completed counters
/// through which a guest (which owns no workers) observes its tasks'
/// progress, and the gate the guest sleeps on while it waits for that
/// progress: every host-side change a guest can be waiting for — a
/// completion, a join-state transition, the slot's release — ends with a
/// notification on it.
#[repr(C)]
struct ProcSlot {
    state: AtomicU32,
    join_state: AtomicU32,
    pid: AtomicU64,
    os_pid: AtomicU64,
    heartbeat: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    gate: IdleGate,
}

const _: () = assert!(std::mem::size_of::<ProcSlot>() <= PROC_SLOT_BYTES);

/// Snapshot of one registry slot's attach record (racy, for sweepers and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Logical process id.
    pub pid: u64,
    /// OS pid recorded at attach (0 for pre-IPC attachments).
    pub os_pid: u64,
    /// Join-handshake state.
    pub join_state: JoinState,
    /// Liveness heartbeat epoch.
    pub heartbeat: u64,
    /// Tasks the process has submitted.
    pub submitted: u64,
    /// Tasks of the process the runtime has completed.
    pub completed: u64,
}

fn slot(seg: &ShmSegment, i: usize) -> &ProcSlot {
    debug_assert!(i < MAX_PROCS);
    let off =
        Shoff::<ProcSlot>::from_raw((seg.geometry().registry_off + i * PROC_SLOT_BYTES) as u64);
    // SAFETY: region reserved by the geometry; zeroed state is a free slot.
    unsafe { seg.sref(off) }
}

impl ShmSegment {
    /// Registers a logical process with the segment and returns its identity.
    pub fn attach(&self) -> Result<ProcessId, AttachError> {
        self.attach_with(JoinState::None)
    }

    /// Registers a *foreign-process guest*: claims a slot like
    /// [`ShmSegment::attach`] but records the caller's OS pid, seeds the
    /// heartbeat, and enters [`JoinState::Requested`] so the host's
    /// reactor can acknowledge the join (flipping it to
    /// [`JoinState::Active`]).
    pub fn attach_guest(&self) -> Result<ProcessId, AttachError> {
        self.attach_with(JoinState::Requested)
    }

    fn attach_with(&self, join: JoinState) -> Result<ProcessId, AttachError> {
        for i in 0..MAX_PROCS {
            let s = slot(self, i);
            if s.state.load(Ordering::Relaxed) == SLOT_FREE
                && s.state
                    .compare_exchange(SLOT_FREE, SLOT_CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                let pid = self.next_pid();
                // Death here leaves the worst half-open shape: the slot is
                // CLAIMED but carries no os_pid to probe — only the
                // reactor's time bound can free it (`reclaim_half_open`).
                crash_point("registry.claim.won");
                s.os_pid.store(std::process::id() as u64, Ordering::Relaxed);
                // Death here is the probeable half-open shape: os_pid is
                // recorded, so a sweeper can test liveness and free the
                // slot as soon as the process is gone.
                crash_point("registry.record.published");
                s.heartbeat.store(1, Ordering::Relaxed);
                s.submitted.store(0, Ordering::Relaxed);
                s.completed.store(0, Ordering::Relaxed);
                // The join state is published after the record is complete;
                // its Release pairs with the reactor's Acquire scan.
                s.join_state.store(join as u32, Ordering::Release);
                s.pid.store(pid, Ordering::Release);
                return Ok(ProcessId {
                    pid,
                    slot: i as u32,
                });
            }
        }
        Err(AttachError::Full)
    }

    /// Unregisters a process; returns how many processes remain attached.
    ///
    /// A return of `0` means the caller was the last process out and is
    /// responsible for tearing the runtime state down (in the real system,
    /// `shm_unlink`; here, dropping the last [`ShmSegment`] handle).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not match an attached process (double detach).
    pub fn detach(&self, id: ProcessId) -> usize {
        let s = slot(self, id.slot as usize);
        assert_eq!(
            s.pid.load(Ordering::Acquire),
            id.pid,
            "detach of a process that is not attached (slot {})",
            id.slot
        );
        assert_eq!(s.state.load(Ordering::Relaxed), SLOT_CLAIMED);
        s.pid.store(0, Ordering::Relaxed);
        s.os_pid.store(0, Ordering::Relaxed);
        s.heartbeat.store(0, Ordering::Relaxed);
        s.submitted.store(0, Ordering::Relaxed);
        s.completed.store(0, Ordering::Relaxed);
        s.join_state
            .store(JoinState::None as u32, Ordering::Relaxed);
        s.state.store(SLOT_FREE, Ordering::Release);
        // A guest in its clean-detach wait sleeps until the slot is gone.
        s.gate.notify_all();
        self.attached_count()
    }

    /// Frees a *half-open* registry slot: one whose attacher claimed the
    /// state word but died before publishing its pid (the window between
    /// the claim CAS and the `pid` Release store in `attach_with`).
    /// Without repair such a slot is leaked forever — no [`ProcessId`]
    /// names it, so neither [`ShmSegment::detach`] nor the join-state
    /// machinery can ever touch it.
    ///
    /// Returns `true` when the slot matched the half-open shape
    /// (`CLAIMED`, `pid == 0`, join state [`JoinState::None`] or
    /// [`JoinState::Requested`]) and was freed.
    ///
    /// # Contract
    ///
    /// The half-open shape is also what every *live* attacher exhibits
    /// for the few instructions between its claim CAS and its pid
    /// publish, and nothing in the record can distinguish the two — so
    /// the caller must first establish the attacher is really gone:
    /// either the recorded `os_pid` is nonzero and its process is dead,
    /// or the slot has held the shape for a time bound generous next to
    /// an attach's instruction count (the reactor uses the join
    /// timeout). Calling this against a live mid-attach process loses
    /// its slot record and corrupts the registry.
    pub fn reclaim_half_open(&self, i: u32) -> bool {
        if i as usize >= MAX_PROCS {
            return false;
        }
        let s = slot(self, i as usize);
        if s.state.load(Ordering::Acquire) != SLOT_CLAIMED || s.pid.load(Ordering::Acquire) != 0 {
            return false;
        }
        match JoinState::from_u32(s.join_state.load(Ordering::Acquire)) {
            JoinState::None | JoinState::Requested => {}
            // A published join state with pid == 0 is not a shape
            // attach_with can leave; treat it as not ours to free.
            _ => return false,
        }
        s.os_pid.store(0, Ordering::Relaxed);
        s.heartbeat.store(0, Ordering::Relaxed);
        s.submitted.store(0, Ordering::Relaxed);
        s.completed.store(0, Ordering::Relaxed);
        s.join_state
            .store(JoinState::None as u32, Ordering::Relaxed);
        s.state.store(SLOT_FREE, Ordering::Release);
        true
    }

    /// Snapshot of slot `i`'s attach record, or `None` when the slot is
    /// free. Racy by nature (the sweep re-validates through
    /// [`ShmSegment::set_join_state`]'s CAS before acting).
    pub fn slot_view(&self, i: u32) -> Option<SlotView> {
        if i as usize >= MAX_PROCS {
            return None;
        }
        let s = slot(self, i as usize);
        if s.state.load(Ordering::Acquire) != SLOT_CLAIMED {
            return None;
        }
        Some(SlotView {
            pid: s.pid.load(Ordering::Acquire),
            os_pid: s.os_pid.load(Ordering::Relaxed),
            join_state: JoinState::from_u32(s.join_state.load(Ordering::Acquire)),
            heartbeat: s.heartbeat.load(Ordering::Relaxed),
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Acquire),
        })
    }

    /// Transitions `id`'s join state `from → to` by CAS; `false` when the
    /// slot is no longer `id`'s or the state has moved on. This is what
    /// makes handshake/sweeper decisions race-safe over the racy
    /// [`ShmSegment::slot_view`] snapshots.
    ///
    /// A transition that lands notifies the slot's gate
    /// ([`ShmSegment::slot_gate`]): the guest may be asleep waiting for
    /// exactly this (the join ack, a death verdict).
    pub fn set_join_state(&self, id: ProcessId, from: JoinState, to: JoinState) -> bool {
        let s = slot(self, id.slot as usize);
        if s.pid.load(Ordering::Acquire) != id.pid {
            return false;
        }
        let won = s
            .join_state
            .compare_exchange(from as u32, to as u32, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            s.gate.notify_all();
        }
        won
    }

    /// The gate a guest sleeps on while it waits for slot `i` to change:
    /// [`ShmSegment::add_completed`], a landed
    /// [`ShmSegment::set_join_state`] and [`ShmSegment::detach`] all end
    /// by notifying it. Waiters follow the eventcount discipline —
    /// `prepare_wait`, re-read the slot, then wait on the captured key.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a registry slot index.
    pub fn slot_gate(&self, i: u32) -> &IdleGate {
        assert!((i as usize) < MAX_PROCS, "slot {i} outside the registry");
        &slot(self, i as usize).gate
    }

    /// Current join state of `id`, or `None` when the slot is no longer
    /// `id`'s (freed or reused).
    pub fn join_state(&self, id: ProcessId) -> Option<JoinState> {
        let s = slot(self, id.slot as usize);
        if s.state.load(Ordering::Acquire) != SLOT_CLAIMED
            || s.pid.load(Ordering::Acquire) != id.pid
        {
            return None;
        }
        Some(JoinState::from_u32(s.join_state.load(Ordering::Acquire)))
    }

    /// Bumps `id`'s liveness heartbeat epoch (a no-op if the slot has been
    /// reclaimed from under the caller).
    pub fn bump_heartbeat(&self, id: ProcessId) {
        let s = slot(self, id.slot as usize);
        if s.pid.load(Ordering::Acquire) == id.pid {
            s.heartbeat.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` to `id`'s submitted-task counter (no-op on a reclaimed
    /// slot).
    pub fn add_submitted(&self, id: ProcessId, n: u64) {
        let s = slot(self, id.slot as usize);
        if s.pid.load(Ordering::Acquire) == id.pid {
            s.submitted.fetch_add(n, Ordering::Release);
        }
    }

    /// Adds `n` to `id`'s completed-task counter and notifies the slot's
    /// gate (no-op on a reclaimed slot). The Release pairs with a waiting
    /// guest's Acquire read in [`ShmSegment::slot_view`], so a guest that
    /// observes `completed == submitted` also observes its tasks' side
    /// effects; the notification after it is what lets that guest sleep
    /// instead of polling (one `fetch_add` and one load while it is
    /// awake).
    pub fn add_completed(&self, id: ProcessId, n: u64) {
        let s = slot(self, id.slot as usize);
        if s.pid.load(Ordering::Acquire) == id.pid {
            s.completed.fetch_add(n, Ordering::Release);
            s.gate.notify_all();
        }
    }

    /// Number of processes currently attached (racy snapshot).
    pub fn attached_count(&self) -> usize {
        (0..MAX_PROCS)
            .filter(|&i| slot(self, i).state.load(Ordering::Relaxed) == SLOT_CLAIMED)
            .count()
    }

    /// Pids of all attached processes (racy snapshot, ascending slot order).
    pub fn attached_pids(&self) -> Vec<u64> {
        (0..MAX_PROCS)
            .filter_map(|i| {
                let s = slot(self, i);
                if s.state.load(Ordering::Relaxed) == SLOT_CLAIMED {
                    Some(s.pid.load(Ordering::Relaxed))
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentConfig;

    fn seg() -> ShmSegment {
        ShmSegment::create(SegmentConfig {
            size: 4 * 1024 * 1024,
            max_cpus: 2,
        })
    }

    #[test]
    fn attach_detach_lifecycle() {
        let s = seg();
        assert_eq!(s.attached_count(), 0);
        let a = s.attach().unwrap();
        let b = s.attach().unwrap();
        assert_ne!(a.pid, b.pid);
        assert_eq!(s.attached_count(), 2);
        assert_eq!(s.detach(a), 1);
        assert_eq!(s.detach(b), 0, "last detacher sees zero remaining");
    }

    #[test]
    fn pids_visible_to_other_mappings() {
        let s = seg();
        let s2 = s.clone();
        let a = s.attach().unwrap();
        assert_eq!(s2.attached_pids(), vec![a.pid]);
        s2.detach(a);
        assert!(s.attached_pids().is_empty());
    }

    #[test]
    fn registry_fills_up() {
        let s = seg();
        let ids: Vec<_> = (0..MAX_PROCS).map(|_| s.attach().unwrap()).collect();
        assert_eq!(s.attach().unwrap_err(), AttachError::Full);
        for id in ids {
            s.detach(id);
        }
        assert!(s.attach().is_ok());
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn double_detach_panics() {
        let s = seg();
        let a = s.attach().unwrap();
        s.detach(a);
        s.detach(a);
    }

    #[test]
    fn guest_attach_record_and_join_lifecycle() {
        let s = seg();
        let g = s.attach_guest().unwrap();
        let view = s.slot_view(g.slot).unwrap();
        assert_eq!(view.pid, g.pid);
        assert_eq!(view.os_pid, std::process::id() as u64);
        assert_eq!(view.join_state, JoinState::Requested);
        assert_eq!(view.heartbeat, 1);
        assert_eq!((view.submitted, view.completed), (0, 0));
        // Handshake: host acknowledges, guest progresses, host completes.
        assert!(s.set_join_state(g, JoinState::Requested, JoinState::Active));
        assert!(!s.set_join_state(g, JoinState::Requested, JoinState::Active));
        s.bump_heartbeat(g);
        s.add_submitted(g, 3);
        s.add_completed(g, 2);
        let view = s.slot_view(g.slot).unwrap();
        assert_eq!(view.heartbeat, 2);
        assert_eq!((view.submitted, view.completed), (3, 2));
        assert_eq!(s.join_state(g), Some(JoinState::Active));
        // Detach zeroes the whole record.
        s.detach(g);
        assert_eq!(s.slot_view(g.slot), None);
        assert_eq!(s.join_state(g), None);
        assert!(!s.set_join_state(g, JoinState::Active, JoinState::Dead));
        // Stale-id mutators are no-ops, not corruption.
        s.bump_heartbeat(g);
        s.add_submitted(g, 1);
        let h = s.attach().unwrap();
        assert_eq!(s.slot_view(h.slot).unwrap().submitted, 0);
        s.detach(h);
    }

    /// Everything a guest can be waiting for moves its slot's gate: a
    /// key captured before the change no longer blocks.
    #[test]
    fn slot_changes_notify_the_slot_gate() {
        let s = seg();
        let g = s.attach_guest().unwrap();
        let gate = s.slot_gate(g.slot);
        let changes: [&dyn Fn(); 3] = [
            &|| assert!(s.set_join_state(g, JoinState::Requested, JoinState::Active)),
            &|| s.add_completed(g, 1),
            &|| {
                s.detach(g);
            },
        ];
        for change in changes {
            let key = gate.prepare_wait();
            change();
            assert_ne!(gate.prepare_wait(), key, "change did not notify");
            gate.wait(key); // stale key: must not block
        }
        // A transition that loses its CAS changed nothing and says nothing.
        let h = s.attach_guest().unwrap();
        let key = s.slot_gate(h.slot).prepare_wait();
        assert!(!s.set_join_state(h, JoinState::Active, JoinState::Leaving));
        assert_eq!(s.slot_gate(h.slot).prepare_wait(), key);
        s.detach(h);
    }

    /// Satellite: the attach/detach life cycle — including last-exit
    /// teardown and re-attach after detach — over a *named* OS-shared
    /// backing, where a second mapping is a genuinely distinct address
    /// range rather than a cloned handle.
    #[test]
    fn named_backing_last_exit_teardown_and_reattach() {
        if !crate::os_backing_available() {
            eprintln!("skipping: no OS backing available");
            return;
        }
        let name = format!("reg-test-{}", std::process::id());
        let cfg = SegmentConfig {
            size: 4 * 1024 * 1024,
            max_cpus: 2,
        };
        let owner = ShmSegment::create_named(&name, cfg, 0).unwrap();
        let peer = ShmSegment::attach_named(&name).unwrap();
        let a = owner.attach().unwrap();
        let b = peer.attach_guest().unwrap();
        assert_ne!(a.pid, b.pid);
        // Both mappings agree on the registry contents.
        assert_eq!(owner.attached_pids(), peer.attached_pids());
        assert_eq!(
            owner.slot_view(b.slot).unwrap().join_state,
            JoinState::Requested
        );
        // Detach through the *other* mapping than the one that attached.
        assert_eq!(peer.detach(a), 1);
        assert_eq!(owner.detach(b), 0, "last detacher sees zero remaining");
        // Re-attach after detach over the same named backing: slots are
        // reusable and pids never repeat.
        let c = peer.attach().unwrap();
        assert_ne!(c.pid, a.pid);
        assert_ne!(c.pid, b.pid);
        assert_eq!(owner.attached_count(), 1);
        assert_eq!(peer.detach(c), 0);
        // Last mapping out tears the name down (owner drop unpublishes).
        drop(peer);
        drop(owner);
        assert!(ShmSegment::attach_named(&name).is_err());
    }

    /// Crash-point fixture: covers `registry.claim.won` and
    /// `registry.record.published` — an attacher dying between the claim
    /// CAS and the pid publish leaves a half-open slot that only
    /// `reclaim_half_open` can free.
    #[test]
    fn half_open_slot_repair() {
        let s = seg();
        // Emulate a death at registry.claim.won: state claimed, record
        // untouched (pid == 0, os_pid == 0).
        let dead = slot(&s, 0);
        dead.state
            .compare_exchange(SLOT_FREE, SLOT_CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
            .unwrap();
        // The half-open slot is invisible to attach (claimed) yet counted.
        assert_eq!(s.attached_count(), 1);
        let live = s.attach().unwrap();
        assert_ne!(live.slot, 0, "attach must skip the half-open slot");
        // Repair refuses live slots and out-of-range indices…
        assert!(!s.reclaim_half_open(live.slot));
        assert!(!s.reclaim_half_open(MAX_PROCS as u32));
        assert!(!s.reclaim_half_open(5), "free slot is not half-open");
        // …frees the half-open one…
        assert!(s.reclaim_half_open(0));
        assert!(!s.reclaim_half_open(0), "already freed");
        assert_eq!(s.attached_count(), 1);
        // …and the slot is fully reusable afterwards.
        let reused = s.attach_guest().unwrap();
        assert_eq!(reused.slot, 0);
        assert_eq!(
            s.slot_view(0).unwrap().join_state,
            JoinState::Requested,
            "reused slot carries a fresh record"
        );
        // Emulate the later window (registry.record.published): os_pid
        // stored, join state possibly Requested, pid still unpublished.
        s.detach(reused);
        let dead = slot(&s, 0);
        dead.state
            .compare_exchange(SLOT_FREE, SLOT_CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
            .unwrap();
        dead.os_pid.store(999_999, Ordering::Relaxed);
        dead.join_state
            .store(JoinState::Requested as u32, Ordering::Release);
        assert!(s.reclaim_half_open(0));
        assert_eq!(s.slot_view(0), None);
        s.detach(live);
        assert_eq!(s.attached_count(), 0);
    }

    #[test]
    fn concurrent_attach_yields_unique_slots() {
        use std::thread;
        let s = seg();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = s.clone();
                thread::spawn(move || s.attach().unwrap())
            })
            .collect();
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut slots: Vec<_> = ids.iter().map(|i| i.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 8, "slots must be unique");
        for id in ids {
            s.detach(id);
        }
    }
}
