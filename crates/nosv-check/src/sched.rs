//! The virtual-thread executor: baton-passing scheduler, exploration
//! strategies, and the schedule-exploration driver.

use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::rng::{mix, SplitMix64};

/// Hard cap on virtual threads per execution; protocols under test use a
/// handful, and the cap bounds the scheduler's per-decision work.
const MAX_THREADS: usize = 32;

/// FNV-1a offset basis, used to hash decision sequences for the distinct
/// schedule count.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_mix(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Panic payload used to unwind virtual threads when an execution aborts
/// (failure found or exploration torn down). Never reported as a failure.
struct ModelAbort;

// ---------------------------------------------------------------------------
// Per-thread baton cells
// ---------------------------------------------------------------------------

struct Cell {
    run: StdMutex<bool>,
    cv: StdCondvar,
}

impl Cell {
    fn new() -> Self {
        Self {
            run: StdMutex::new(false),
            cv: StdCondvar::new(),
        }
    }

    /// Hand the baton to this cell's thread.
    fn signal(&self) {
        let mut g = self.run.lock().unwrap();
        *g = true;
        self.cv.notify_one();
    }

    /// Block until the baton arrives, then consume it.
    fn wait_turn(&self) {
        let mut g = self.run.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
        *g = false;
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Descheduled until `unblock_*` is called with the same key.
    Blocked(u64),
    Finished,
}

struct ExecState {
    statuses: Vec<Status>,
    cells: Vec<Arc<Cell>>,
    /// Threads not yet `Finished`.
    live: usize,
    steps: u64,
    max_steps: u64,
    /// FNV hash over the decision sequence; identifies the schedule.
    decisions: u64,
    abort: bool,
    failure: Option<String>,
    /// The exploration strategy, loaned to the execution for one schedule
    /// and taken back by the driver afterwards.
    sched: Option<Box<dyn Sched + Send>>,
}

impl ExecState {
    fn runnable(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Runnable))
            .map(|(i, _)| i)
            .collect()
    }
}

/// One schedule's worth of virtual-thread execution.
pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    done: StdMutex<bool>,
    done_cv: StdCondvar,
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// True when the calling OS thread is a virtual thread of an active
/// exploration. The `hint` shims fall through to plain `std` behavior when
/// this is false, so enabling the `model` feature never breaks code that
/// happens to run outside `explore`.
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn with_current<R>(f: impl FnOnce(&Arc<Execution>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let b = c.borrow();
        b.as_ref().map(|(exec, tid)| f(exec, *tid))
    })
}

impl Execution {
    /// Record a failure (first one wins), flag the abort, and wake every
    /// unfinished thread so it can unwind via `ModelAbort`.
    ///
    /// Lock order: `state` is held; `Cell.run` nests inside it everywhere.
    fn fail_locked(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.abort = true;
        for (i, s) in st.statuses.iter().enumerate() {
            if !matches!(s, Status::Finished) {
                st.cells[i].signal();
            }
        }
    }

    fn panic_if_aborted(self: &Arc<Self>) {
        let aborted = self.state.lock().unwrap().abort;
        if aborted {
            panic::panic_any(ModelAbort);
        }
    }

    /// The heart of the checker: a preemption point. Consults the strategy,
    /// hands the baton over if a different thread is chosen, and returns
    /// when this thread is scheduled again.
    fn preempt(self: &Arc<Self>, me: usize, yielding: bool) {
        let (next_cell, my_cell);
        {
            let mut st = self.state.lock().unwrap();
            if st.abort {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            st.steps += 1;
            if st.steps > st.max_steps {
                let msg = format!(
                    "step bound of {} exceeded: livelock or unbounded spin (thread {me} running)",
                    st.max_steps
                );
                self.fail_locked(&mut st, msg);
                drop(st);
                panic::panic_any(ModelAbort);
            }
            let runnable = st.runnable();
            debug_assert!(runnable.contains(&me));
            let chosen = st
                .sched
                .as_mut()
                .expect("strategy present")
                .choose(&runnable, me, yielding);
            debug_assert!(runnable.contains(&chosen));
            st.decisions = fnv_mix(st.decisions, chosen as u64);
            if chosen == me {
                return;
            }
            next_cell = st.cells[chosen].clone();
            my_cell = st.cells[me].clone();
        }
        next_cell.signal();
        my_cell.wait_turn();
        self.panic_if_aborted();
    }

    /// Deschedule `me` until `key` is unblocked. Atomic with respect to the
    /// virtual schedule: no other thread runs between the caller's last
    /// operation and the block taking effect.
    fn block(self: &Arc<Self>, me: usize, key: u64) {
        let (next_cell, my_cell);
        {
            let mut st = self.state.lock().unwrap();
            if st.abort {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            st.steps += 1;
            if st.steps > st.max_steps {
                let msg = format!("step bound of {} exceeded while blocking", st.max_steps);
                self.fail_locked(&mut st, msg);
                drop(st);
                panic::panic_any(ModelAbort);
            }
            st.statuses[me] = Status::Blocked(key);
            let runnable = st.runnable();
            if runnable.is_empty() {
                let states: Vec<String> = st
                    .statuses
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("t{i}:{s:?}"))
                    .collect();
                let msg = format!(
                    "deadlock: every live thread is blocked [{}] — lost wakeup?",
                    states.join(", ")
                );
                self.fail_locked(&mut st, msg);
                drop(st);
                panic::panic_any(ModelAbort);
            }
            let chosen = st
                .sched
                .as_mut()
                .expect("strategy present")
                .choose(&runnable, me, true);
            st.decisions = fnv_mix(st.decisions, chosen as u64);
            next_cell = st.cells[chosen].clone();
            my_cell = st.cells[me].clone();
        }
        next_cell.signal();
        my_cell.wait_turn();
        self.panic_if_aborted();
    }

    /// Make every thread blocked on `key` runnable again. The waker keeps
    /// running; woken threads get the baton at a later preemption point.
    fn unblock_all(&self, key: u64) {
        let mut st = self.state.lock().unwrap();
        for s in st.statuses.iter_mut() {
            if *s == Status::Blocked(key) {
                *s = Status::Runnable;
            }
        }
    }

    /// Wake the lowest-id thread blocked on `key`, if any.
    fn unblock_one(&self, key: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        for s in st.statuses.iter_mut() {
            if *s == Status::Blocked(key) {
                *s = Status::Runnable;
                return true;
            }
        }
        false
    }

    /// Mark `me` finished, wake joiners, and pass the baton on (or complete
    /// the schedule when this was the last live thread).
    fn finish(self: &Arc<Self>, me: usize) {
        let mut next_cell = None;
        {
            let mut st = self.state.lock().unwrap();
            st.statuses[me] = Status::Finished;
            st.live -= 1;
            // Wake joiners of this thread.
            let jk = join_key(me);
            for s in st.statuses.iter_mut() {
                if *s == Status::Blocked(jk) {
                    *s = Status::Runnable;
                }
            }
            if st.live > 0 && !st.abort {
                let runnable = st.runnable();
                if runnable.is_empty() {
                    let msg = format!(
                        "deadlock: thread {me} finished but all remaining threads are blocked"
                    );
                    self.fail_locked(&mut st, msg);
                } else {
                    let chosen = st
                        .sched
                        .as_mut()
                        .expect("strategy present")
                        .choose(&runnable, me, true);
                    st.decisions = fnv_mix(st.decisions, chosen as u64);
                    next_cell = Some(st.cells[chosen].clone());
                }
            }
            if st.live == 0 {
                let mut g = self.done.lock().unwrap();
                *g = true;
                self.done_cv.notify_all();
            }
        }
        if let Some(cell) = next_cell {
            cell.signal();
        }
    }
}

fn join_key(tid: usize) -> u64 {
    0x8000_0000_0000_0000u64 | tid as u64
}

// ---------------------------------------------------------------------------
// Shim entry points (used by sync.rs / thread.rs)
// ---------------------------------------------------------------------------

/// Preemption point before an atomic (or other shared-memory) operation.
pub(crate) fn yield_op() {
    with_current(|exec, me| exec.preempt(me, false));
}

/// Preemption point that also deprioritizes the caller: used for
/// `yield_now`/`spin_loop`, so spin loops hand the CPU to peers instead of
/// monopolizing the schedule.
pub(crate) fn yield_explicit() {
    with_current(|exec, me| exec.preempt(me, true));
}

/// Deschedule the current thread until [`unblock_all`]/[`unblock_one`] is
/// called with the same key. Must only be called from inside a model run.
pub(crate) fn block_on(key: u64) {
    with_current(|exec, me| exec.block(me, key))
        .expect("nosv-check: block_on outside a model execution");
}

/// Wake all threads blocked on `key`.
pub(crate) fn unblock_all(key: u64) {
    with_current(|exec, _| exec.unblock_all(key));
}

/// Wake one thread blocked on `key`.
pub(crate) fn unblock_one(key: u64) {
    with_current(|exec, _| {
        exec.unblock_one(key);
    });
}

/// Spawn a new virtual thread running `f`; returns its virtual thread id.
pub(crate) fn spawn_thread(f: impl FnOnce() + Send + 'static) -> usize {
    with_current(|exec, _me| {
        let tid = {
            let mut st = exec.state.lock().unwrap();
            assert!(
                st.statuses.len() < MAX_THREADS,
                "nosv-check: more than {MAX_THREADS} virtual threads"
            );
            let tid = st.statuses.len();
            st.statuses.push(Status::Runnable);
            st.cells.push(Arc::new(Cell::new()));
            st.live += 1;
            tid
        };
        let exec2 = exec.clone();
        let handle = std::thread::Builder::new()
            .name(format!("nosv-check-{tid}"))
            .spawn(move || run_vthread(exec2, tid, f))
            .expect("nosv-check: OS thread spawn failed");
        exec.os_handles.lock().unwrap().push(handle);
        tid
    })
    .expect("nosv-check: spawn_thread outside a model execution")
}

/// True once virtual thread `tid` has finished.
pub(crate) fn is_finished(tid: usize) -> bool {
    with_current(|exec, _| matches!(exec.state.lock().unwrap().statuses[tid], Status::Finished))
        .expect("nosv-check: is_finished outside a model execution")
}

/// Block until virtual thread `tid` finishes.
pub(crate) fn join_thread(tid: usize) {
    loop {
        yield_op();
        if is_finished(tid) {
            return;
        }
        block_on(join_key(tid));
    }
}

fn run_vthread(exec: Arc<Execution>, tid: usize, f: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec.clone(), tid)));
    // Wait to be scheduled for the first time.
    let my_cell = exec.state.lock().unwrap().cells[tid].clone();
    my_cell.wait_turn();
    let aborted = exec.state.lock().unwrap().abort;
    if !aborted {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            if !payload.is::<ModelAbort>() {
                let msg = payload_message(payload.as_ref());
                let mut st = exec.state.lock().unwrap();
                exec.fail_locked(&mut st, msg);
            }
        }
    }
    exec.finish(tid);
    CURRENT.with(|c| *c.borrow_mut() = None);
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Scheduling strategy state shared across the schedules of one exploration.
trait Sched {
    /// Prepare schedule number `index`; `false` ends the exploration.
    fn begin(&mut self, index: usize) -> bool;
    /// Pick the next thread to run from `runnable` (never empty).
    /// `yielding` marks decisions where `current` explicitly yielded (or
    /// blocked) and should not be rescheduled if an alternative exists.
    fn choose(&mut self, runnable: &[usize], current: usize, yielding: bool) -> usize;
    /// Called after each schedule with the number of steps it took.
    fn end(&mut self, steps: u64);
    /// DFS only: true when the whole space was enumerated.
    fn complete(&self) -> bool {
        false
    }
}

fn filter_yield(runnable: &[usize], current: usize, yielding: bool) -> Vec<usize> {
    if yielding && runnable.len() > 1 {
        runnable.iter().copied().filter(|&t| t != current).collect()
    } else {
        runnable.to_vec()
    }
}

/// Exhaustive depth-first enumeration with chronological backtracking.
struct DfsSched {
    /// `(choice_index, options)` per decision of the current path prefix.
    path: Vec<(usize, Vec<usize>)>,
    depth: usize,
    exhausted: bool,
    max_schedules: usize,
}

impl Sched for DfsSched {
    fn begin(&mut self, index: usize) -> bool {
        self.depth = 0;
        !self.exhausted && index < self.max_schedules
    }

    fn choose(&mut self, runnable: &[usize], current: usize, yielding: bool) -> usize {
        let options = filter_yield(runnable, current, yielding);
        if self.depth < self.path.len() {
            // Replaying the committed prefix. Execution is deterministic, so
            // the recorded option set must reappear verbatim.
            let (idx, recorded) = &self.path[self.depth];
            debug_assert_eq!(
                recorded, &options,
                "nondeterministic execution under DFS (decision {})",
                self.depth
            );
            let chosen = recorded[*idx];
            self.depth += 1;
            chosen
        } else {
            let chosen = options[0];
            self.path.push((0, options));
            self.depth += 1;
            chosen
        }
    }

    fn end(&mut self, _steps: u64) {
        // Backtrack: drop fully-explored suffixes, advance the deepest
        // decision that still has untried options.
        while let Some((idx, options)) = self.path.last_mut() {
            if *idx + 1 < options.len() {
                *idx += 1;
                return;
            }
            self.path.pop();
        }
        self.exhausted = true;
    }

    fn complete(&self) -> bool {
        self.exhausted
    }
}

/// Uniformly random decisions from a per-schedule seed.
struct RandomSched {
    base_seed: u64,
    schedules: usize,
    only: Option<usize>,
    rng: SplitMix64,
}

impl Sched for RandomSched {
    fn begin(&mut self, index: usize) -> bool {
        let actual = match self.only {
            Some(one) => {
                if index > 0 {
                    return false;
                }
                one
            }
            None => {
                if index >= self.schedules {
                    return false;
                }
                index
            }
        };
        self.rng = SplitMix64::new(mix(self.base_seed, actual as u64));
        true
    }

    fn choose(&mut self, runnable: &[usize], current: usize, yielding: bool) -> usize {
        let options = filter_yield(runnable, current, yielding);
        options[self.rng.next_below(options.len())]
    }

    fn end(&mut self, _steps: u64) {}
}

/// PCT-style randomized priorities (Burckhardt et al.): random static
/// priorities plus `depth - 1` random change points that demote the running
/// thread, with explicit yields also demoting the yielder.
struct PctSched {
    base_seed: u64,
    schedules: usize,
    depth: usize,
    only: Option<usize>,
    rng: SplitMix64,
    priorities: Vec<i64>,
    next_low: i64,
    change_steps: Vec<u64>,
    step: u64,
    last_len: u64,
}

impl Sched for PctSched {
    fn begin(&mut self, index: usize) -> bool {
        let actual = match self.only {
            Some(one) => {
                if index > 0 {
                    return false;
                }
                one
            }
            None => {
                if index >= self.schedules {
                    return false;
                }
                index
            }
        };
        self.rng = SplitMix64::new(mix(self.base_seed ^ 0x5043_5421, actual as u64));
        self.priorities = (0..MAX_THREADS)
            .map(|_| (self.rng.next_u64() >> 1) as i64)
            .collect();
        self.next_low = -1;
        self.step = 0;
        let horizon = self.last_len.max(64);
        self.change_steps = (0..self.depth.saturating_sub(1))
            .map(|_| self.rng.next_u64() % horizon)
            .collect();
        true
    }

    fn choose(&mut self, runnable: &[usize], current: usize, yielding: bool) -> usize {
        self.step += 1;
        if self.change_steps.contains(&self.step) {
            self.priorities[current] = self.next_low;
            self.next_low -= 1;
        }
        if yielding {
            self.priorities[current] = self.next_low;
            self.next_low -= 1;
        }
        *runnable
            .iter()
            .max_by_key(|&&t| (self.priorities[t], std::cmp::Reverse(t)))
            .expect("runnable is never empty")
    }

    fn end(&mut self, steps: u64) {
        self.last_len = steps.max(1);
    }
}

// ---------------------------------------------------------------------------
// Public configuration / driver
// ---------------------------------------------------------------------------

/// Which schedule-exploration strategy to run, and how many schedules.
#[derive(Clone, Copy, Debug)]
pub enum Strategy {
    /// Exhaustive DFS over all interleavings, capped at `max_schedules`.
    Dfs {
        /// Upper bound on enumerated schedules (safety valve; DFS reports
        /// [`Report::complete`] when it finished below the cap).
        max_schedules: usize,
    },
    /// Uniformly random scheduling decisions, `schedules` independent runs.
    Random {
        /// Number of randomized schedules to run.
        schedules: usize,
    },
    /// PCT-style randomized priorities with `depth - 1` change points.
    Pct {
        /// Number of randomized schedules to run.
        schedules: usize,
        /// PCT depth `d`: detects bugs requiring `d` ordered events with
        /// probability `1/(n * k^(d-1))` per schedule.
        depth: usize,
    },
}

/// Exploration configuration. Construct with [`Config::new`] (or
/// [`Config::from_env`] to honor replay environment variables) and pass to
/// [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Base seed for randomized strategies; every schedule derives its own
    /// stream from (seed, index), so a (seed, index) pair replays exactly.
    pub seed: u64,
    /// Per-schedule step budget; exceeding it fails the schedule as a
    /// livelock (unbounded spin) finding.
    pub max_steps: u64,
    /// Stop at the first failing schedule instead of exploring on.
    pub stop_at_first_failure: bool,
    /// Replay exactly one schedule index (randomized strategies only).
    pub replay_schedule: Option<usize>,
}

/// Default base seed: arbitrary odd constant so CI runs are reproducible
/// without any environment setup.
pub const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Config {
    /// A configuration with the given strategy and the defaults:
    /// deterministic seed, 100k step budget, keep exploring after failures.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            seed: DEFAULT_SEED,
            max_steps: 100_000,
            stop_at_first_failure: false,
            replay_schedule: None,
        }
    }

    /// Like [`Config::new`], then apply replay overrides from the
    /// environment: `NOSV_CHECK_SEED` (decimal or `0x` hex),
    /// `NOSV_CHECK_SCHEDULES` (randomized schedule count) and
    /// `NOSV_CHECK_SCHEDULE` (replay one index).
    pub fn from_env(strategy: Strategy) -> Self {
        let mut cfg = Self::new(strategy);
        if let Some(seed) = env_u64("NOSV_CHECK_SEED") {
            cfg.seed = seed;
        }
        if let Some(n) = env_u64("NOSV_CHECK_SCHEDULES") {
            cfg.strategy = match cfg.strategy {
                Strategy::Dfs { .. } => Strategy::Dfs {
                    max_schedules: n as usize,
                },
                Strategy::Random { .. } => Strategy::Random {
                    schedules: n as usize,
                },
                Strategy::Pct { depth, .. } => Strategy::Pct {
                    schedules: n as usize,
                    depth,
                },
            };
        }
        if let Some(i) = env_u64("NOSV_CHECK_SCHEDULE") {
            cfg.replay_schedule = Some(i as usize);
            cfg.stop_at_first_failure = true;
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// One failing schedule.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Index of the failing schedule within the exploration.
    pub schedule: usize,
    /// Base seed of the exploration (replay key, with `schedule`).
    pub seed: u64,
    /// Human-readable description: the panic message, deadlock or livelock
    /// diagnosis.
    pub message: String,
}

/// Outcome of an exploration.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct decision sequences among them.
    pub distinct_schedules: usize,
    /// Failing schedules, in discovery order.
    pub failures: Vec<Failure>,
    /// True when DFS proved the whole interleaving space was covered.
    pub complete: bool,
}

impl Report {
    /// Panic (with every failure listed) unless the exploration was clean.
    /// Returns `self` so assertions on counts can chain.
    pub fn assert_ok(self) -> Self {
        assert!(
            self.failures.is_empty(),
            "nosv-check: {} of {} schedules failed; first: {} \
             (replay: NOSV_CHECK_SEED={:#x} NOSV_CHECK_SCHEDULE={})",
            self.failures.len(),
            self.schedules,
            self.failures[0].message,
            self.failures[0].seed,
            self.failures[0].schedule,
        );
        self
    }
}

type TestFn = Arc<dyn Fn() + Send + Sync>;

fn make_sched(cfg: &Config) -> Box<dyn Sched + Send> {
    match cfg.strategy {
        Strategy::Dfs { max_schedules } => Box::new(DfsSched {
            path: Vec::new(),
            depth: 0,
            exhausted: false,
            max_schedules,
        }),
        Strategy::Random { schedules } => Box::new(RandomSched {
            base_seed: cfg.seed,
            schedules,
            only: cfg.replay_schedule,
            rng: SplitMix64::new(0),
        }),
        Strategy::Pct { schedules, depth } => Box::new(PctSched {
            base_seed: cfg.seed,
            schedules,
            depth: depth.max(1),
            only: cfg.replay_schedule,
            rng: SplitMix64::new(0),
            priorities: Vec::new(),
            next_low: -1,
            change_steps: Vec::new(),
            step: 0,
            last_len: 0,
        }),
    }
}

struct ScheduleOutcome {
    steps: u64,
    decisions: u64,
    failure: Option<String>,
}

/// Run one schedule to completion and hand the strategy back.
fn run_one(
    f: TestFn,
    sched: Box<dyn Sched + Send>,
    max_steps: u64,
) -> (ScheduleOutcome, Box<dyn Sched + Send>) {
    let exec = Arc::new(Execution {
        state: StdMutex::new(ExecState {
            statuses: vec![Status::Runnable],
            cells: vec![Arc::new(Cell::new())],
            live: 1,
            steps: 0,
            max_steps,
            decisions: FNV_OFFSET,
            abort: false,
            failure: None,
            sched: Some(sched),
        }),
        done: StdMutex::new(false),
        done_cv: StdCondvar::new(),
        os_handles: StdMutex::new(Vec::new()),
    });
    let exec2 = exec.clone();
    let root = std::thread::Builder::new()
        .name("nosv-check-0".to_string())
        .spawn(move || run_vthread(exec2, 0, move || f()))
        .expect("nosv-check: OS thread spawn failed");
    // Hand the baton to virtual thread 0.
    let cell0 = exec.state.lock().unwrap().cells[0].clone();
    cell0.signal();
    // Wait for the schedule to finish (live == 0).
    {
        let mut g = exec.done.lock().unwrap();
        while !*g {
            g = exec.done_cv.wait(g).unwrap();
        }
    }
    root.join().expect("nosv-check: virtual thread 0 OS join");
    for h in exec.os_handles.lock().unwrap().drain(..) {
        h.join().expect("nosv-check: virtual thread OS join");
    }
    let mut st = exec.state.lock().unwrap();
    let outcome = ScheduleOutcome {
        steps: st.steps,
        decisions: st.decisions,
        failure: st.failure.take(),
    };
    let sched = st.sched.take().expect("strategy present");
    (outcome, sched)
}

/// Explore interleavings of `f` under `config` and report the outcome.
///
/// `f` is run once per schedule; it must set up its own state each time
/// (capture immutable config by value, build shared state inside).
pub fn explore<F>(config: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: TestFn = Arc::new(f);
    let mut sched = make_sched(&config);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut report = Report::default();
    let mut index = 0usize;
    loop {
        if !sched.begin(index) {
            report.complete = sched.complete();
            break;
        }
        let (outcome, back) = run_one(f.clone(), sched, config.max_steps);
        sched = back;
        sched.end(outcome.steps);
        seen.insert(outcome.decisions);
        report.schedules += 1;
        if let Some(message) = outcome.failure {
            let shown = config.replay_schedule.unwrap_or(index);
            eprintln!("nosv-check: schedule #{shown} FAILED: {message}");
            eprintln!(
                "nosv-check: replay with NOSV_CHECK_SEED={:#x} NOSV_CHECK_SCHEDULE={shown} \
                 (DFS runs replay deterministically without env)",
                config.seed
            );
            report.failures.push(Failure {
                schedule: shown,
                seed: config.seed,
                message,
            });
            if config.stop_at_first_failure {
                break;
            }
        }
        index += 1;
    }
    report.distinct_schedules = seen.len();
    report
}

/// Convenience wrapper: explore `f` with [`Config::from_env`] and panic on
/// any failure. Default strategy: 1000 random schedules.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    explore(Config::from_env(Strategy::Random { schedules: 1000 }), f).assert_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicU64, Mutex};
    use crate::thread;
    use std::sync::atomic::Ordering;

    #[test]
    fn dfs_finds_lost_update() {
        // Classic non-atomic increment: load, then store load+1. Two
        // threads racing must be able to lose one update.
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 10_000,
            }),
            || {
                let c = Arc::new(AtomicU64::new(0));
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let c = c.clone();
                        thread::spawn(move || {
                            let v = c.load(Ordering::SeqCst);
                            c.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
                assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
            },
        );
        assert!(!report.failures.is_empty(), "DFS must find the lost update");
        assert!(report.complete, "space is tiny; DFS must finish it");
    }

    #[test]
    fn dfs_passes_atomic_increment() {
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 20_000,
            }),
            || {
                let c = Arc::new(AtomicU64::new(0));
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let c = c.clone();
                        thread::spawn(move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
                assert_eq!(c.load(Ordering::SeqCst), 2);
            },
        );
        assert!(report.failures.is_empty());
        assert!(report.complete);
        assert!(report.distinct_schedules > 1);
    }

    #[test]
    fn dfs_finds_abba_deadlock() {
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 50_000,
            }),
            || {
                let a = Arc::new(Mutex::new(0u32));
                let b = Arc::new(Mutex::new(0u32));
                let (a2, b2) = (a.clone(), b.clone());
                let h1 = thread::spawn(move || {
                    let _ga = a2.lock();
                    let _gb = b2.lock();
                });
                let (a3, b3) = (a.clone(), b.clone());
                let h2 = thread::spawn(move || {
                    let _gb = b3.lock();
                    let _ga = a3.lock();
                });
                h1.join().unwrap();
                h2.join().unwrap();
            },
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.message.contains("deadlock")),
            "ABBA lock order must deadlock under some schedule: {report:?}"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        fn run(seed: u64) -> (usize, usize) {
            let mut cfg = Config::new(Strategy::Random { schedules: 50 });
            cfg.seed = seed;
            let report = explore(cfg, || {
                let c = Arc::new(AtomicU64::new(0));
                let hs: Vec<_> = (0..3)
                    .map(|_| {
                        let c = c.clone();
                        thread::spawn(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
            });
            (report.schedules, report.distinct_schedules)
        }
        assert_eq!(run(42), run(42));
        assert_eq!(run(42).0, 50);
    }

    #[test]
    fn pct_finds_lost_update() {
        let report = explore(
            Config::new(Strategy::Pct {
                schedules: 200,
                depth: 3,
            }),
            || {
                let c = Arc::new(AtomicU64::new(0));
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let c = c.clone();
                        thread::spawn(move || {
                            let v = c.load(Ordering::SeqCst);
                            c.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
                assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
            },
        );
        assert!(!report.failures.is_empty(), "PCT must find the depth-2 bug");
    }

    #[test]
    fn condvar_wakeups_are_modeled() {
        // Correct handoff: predicate loop under the mutex. Must never
        // deadlock, under full DFS.
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 50_000,
            }),
            || {
                let m = Arc::new(Mutex::new(false));
                let cv = Arc::new(crate::sync::Condvar::new());
                let (m2, cv2) = (m.clone(), cv.clone());
                let h = thread::spawn(move || {
                    let mut g = m2.lock();
                    while !*g {
                        cv2.wait(&mut g);
                    }
                });
                {
                    let mut g = m.lock();
                    *g = true;
                    cv.notify_one();
                }
                h.join().unwrap();
            },
        );
        assert!(report.failures.is_empty(), "{:?}", report.failures.first());
        assert!(report.complete);
    }

    #[test]
    fn naive_wait_without_recheck_deadlocks() {
        // Broken protocol: waiter checks the flag *before* taking the lock,
        // then waits unconditionally — the notify can land in between.
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 50_000,
            }),
            || {
                let m = Arc::new(Mutex::new(false));
                let cv = Arc::new(crate::sync::Condvar::new());
                let (m2, cv2) = (m.clone(), cv.clone());
                let h = thread::spawn(move || {
                    let ready = { *m2.lock() };
                    if !ready {
                        let mut g = m2.lock();
                        // BUG (intentional): no re-check of *g before waiting.
                        cv2.wait(&mut g);
                    }
                });
                {
                    let mut g = m.lock();
                    *g = true;
                    cv.notify_one();
                }
                h.join().unwrap();
            },
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.message.contains("deadlock")),
            "lost wakeup must surface as a deadlock: {report:?}"
        );
    }
    #[test]
    fn futex_compare_and_block_is_atomic() {
        // The futex contract: bump the word, then wake. The waiter's
        // compare-and-block is one step, so the wake either finds it
        // queued or the compare sees the bump. Never deadlocks, full DFS.
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 50_000,
            }),
            || {
                let word = Arc::new(crate::sync::AtomicU32::new(0));
                let w = word.clone();
                let h = thread::spawn(move || {
                    while w.load(Ordering::SeqCst) == 0 {
                        crate::sync::futex_wait(&w, 0, None);
                    }
                });
                word.fetch_add(1, Ordering::SeqCst);
                crate::sync::futex_wake(&word, false);
                h.join().unwrap();
            },
        );
        assert!(report.failures.is_empty(), "{:?}", report.failures.first());
        assert!(report.complete);
    }

    #[test]
    fn futex_wake_before_the_bump_deadlocks() {
        // Broken protocol: the wake is issued *before* the word moves, so
        // it can find nobody queued and the waiter then sleeps on the old
        // value for good. The model must not paper over it — in
        // particular not with the timeout, which it ignores.
        let report = explore(
            Config::new(Strategy::Dfs {
                max_schedules: 50_000,
            }),
            || {
                let word = Arc::new(crate::sync::AtomicU32::new(0));
                let w = word.clone();
                let h = thread::spawn(move || {
                    let nap = Some(std::time::Duration::from_millis(1));
                    while w.load(Ordering::SeqCst) == 0 {
                        crate::sync::futex_wait(&w, 0, nap);
                    }
                });
                // BUG (intentional): wake first, bump second.
                crate::sync::futex_wake(&word, false);
                word.fetch_add(1, Ordering::SeqCst);
                h.join().unwrap();
            },
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.message.contains("deadlock")),
            "lost wakeup must surface as a deadlock: {report:?}"
        );
    }
}
