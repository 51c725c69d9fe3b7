//! Region-based data-flow dependency tracking (the Nanos6 dependency
//! subsystem the paper's runtime keeps, §4: only scheduling and CPU
//! management move into nOS-V — dependency management stays in the runtime).
//!
//! Semantics are the OmpSs-2 / OpenMP `depend` rules:
//!
//! * `in` after a writer waits for that writer;
//! * `out`/`inout` after readers waits for all of them (and the last writer);
//! * accesses over *partially* overlapping regions fragment the tracked
//!   intervals so each byte range maintains its own reader/writer history.
//!
//! The tracker is a `BTreeMap` keyed by interval start; registration splits
//! intervals at access boundaries, collects predecessor task ids, and
//! installs the new access. Everything runs under one mutex per runtime —
//! Nanos6 also serializes dependency registration per task-creating thread;
//! contention here is not what the paper measures.

use std::collections::BTreeMap;

use crate::region::Region;

/// How a task accesses a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only access (`in`): orders after the last writer.
    In,
    /// Write access ignoring previous content (`out`): orders after the
    /// last writer *and* all readers since.
    Out,
    /// Read-write access (`inout`): same ordering as `Out`.
    InOut,
}

/// Per-interval access history.
#[derive(Debug, Clone, Default, PartialEq)]
struct IntervalState {
    /// Task that last wrote this interval.
    last_writer: Option<u64>,
    /// Tasks that read it since the last write.
    readers: Vec<u64>,
}

/// Interval map with fragmentation: key = start, value = (end, state).
#[derive(Debug, Default)]
pub struct DepTracker {
    intervals: BTreeMap<u64, (u64, IntervalState)>,
}

impl DepTracker {
    /// Creates an empty tracker.
    pub fn new() -> DepTracker {
        DepTracker::default()
    }

    /// Number of tracked intervals (diagnostics; grows with fragmentation).
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// Registers that task `task` performs `mode` on `region`.
    ///
    /// Returns the de-duplicated list of predecessor tasks that must
    /// complete before `task` may run.
    pub fn register(&mut self, task: u64, region: Region, mode: AccessMode) -> Vec<u64> {
        assert!(region.len > 0, "zero-length dependency region");
        self.split_at(region.start);
        self.split_at(region.end());

        let mut preds: Vec<u64> = Vec::new();
        let mut cursor = region.start;

        // Walk covered intervals, collecting predecessors and updating
        // state; create fresh intervals over uncovered gaps.
        while cursor < region.end() {
            // The next existing interval at or after the cursor.
            let next_start = self
                .intervals
                .range(cursor..region.end())
                .next()
                .map(|(&s, _)| s);
            match next_start {
                Some(s) if s == cursor => {
                    let (end, state) = self.intervals.get_mut(&s).expect("interval vanished");
                    debug_assert!(*end <= region.end(), "split_at must have fragmented");
                    match mode {
                        AccessMode::In => {
                            if let Some(w) = state.last_writer {
                                preds.push(w);
                            }
                            if !state.readers.contains(&task) {
                                state.readers.push(task);
                            }
                        }
                        AccessMode::Out | AccessMode::InOut => {
                            if let Some(w) = state.last_writer {
                                preds.push(w);
                            }
                            preds.extend(state.readers.iter().copied());
                            state.last_writer = Some(task);
                            state.readers.clear();
                        }
                    }
                    cursor = *end;
                }
                other => {
                    // Gap from cursor to the next interval (or region end):
                    // first access to these bytes.
                    let gap_end = other.unwrap_or(region.end());
                    let state = match mode {
                        AccessMode::In => IntervalState {
                            last_writer: None,
                            readers: vec![task],
                        },
                        _ => IntervalState {
                            last_writer: Some(task),
                            readers: Vec::new(),
                        },
                    };
                    self.intervals.insert(cursor, (gap_end, state));
                    cursor = gap_end;
                }
            }
        }

        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != task);
        preds
    }

    /// Splits the interval containing `point` (if any) so that `point`
    /// becomes an interval boundary.
    fn split_at(&mut self, point: u64) {
        if let Some((&start, &(end, ref state))) = self.intervals.range(..point).next_back() {
            if start < point && point < end {
                let state = state.clone();
                self.intervals.get_mut(&start).expect("present").0 = point;
                self.intervals.insert(point, (end, state));
            }
        }
    }

    /// Drops history intervals that reference only tasks in `completed`
    /// (compaction; optional, keeps long-running programs bounded).
    pub fn compact(&mut self, completed: &dyn Fn(u64) -> bool) {
        self.intervals.retain(|_, (_, state)| {
            let writer_done = state.last_writer.is_none_or(completed);
            if writer_done {
                state.readers.retain(|&r| !completed(r));
                state.last_writer = state.last_writer.filter(|&w| !completed(w));
            }
            state.last_writer.is_some() || !state.readers.is_empty()
        });
        // Merge adjacent identical intervals to undo fragmentation.
        let keys: Vec<u64> = self.intervals.keys().copied().collect();
        for key in keys {
            let Some(&(end, ref state)) = self.intervals.get(&key) else {
                continue;
            };
            let state = state.clone();
            if let Some(&(next_end, ref next_state)) = self.intervals.get(&end) {
                if *next_state == state {
                    self.intervals.remove(&end);
                    self.intervals.get_mut(&key).expect("present").0 = next_end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> Region {
        Region::new(start, len)
    }

    #[test]
    fn raw_after_write() {
        let mut d = DepTracker::new();
        assert!(d.register(1, r(0, 10), AccessMode::Out).is_empty());
        assert_eq!(d.register(2, r(0, 10), AccessMode::In), vec![1]);
    }

    #[test]
    fn war_after_readers() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::Out);
        d.register(2, r(0, 10), AccessMode::In);
        d.register(3, r(0, 10), AccessMode::In);
        // The next writer waits on both readers (writer 1 already shadowed:
        // readers read after it, but it is still the last writer).
        let preds = d.register(4, r(0, 10), AccessMode::Out);
        assert_eq!(preds, vec![1, 2, 3]);
    }

    #[test]
    fn waw_chains_writers() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::Out);
        assert_eq!(d.register(2, r(0, 10), AccessMode::Out), vec![1]);
        assert_eq!(d.register(3, r(0, 10), AccessMode::InOut), vec![2]);
    }

    #[test]
    fn independent_readers_share() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::In);
        assert!(d.register(2, r(0, 10), AccessMode::In).is_empty());
    }

    #[test]
    fn disjoint_regions_are_independent() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::Out);
        assert!(d.register(2, r(10, 10), AccessMode::Out).is_empty());
        assert!(d.register(3, r(20, 5), AccessMode::In).is_empty());
    }

    #[test]
    fn partial_overlap_fragments() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::Out); // writes [0,10)
        d.register(2, r(10, 10), AccessMode::Out); // writes [10,20)
                                                   // Reads [5,15): must wait on both writers.
        let preds = d.register(3, r(5, 10), AccessMode::In);
        assert_eq!(preds, vec![1, 2]);
        // Writes [0,5): only writer 1 wrote there; reader 3 did not touch it.
        let preds = d.register(4, r(0, 5), AccessMode::Out);
        assert_eq!(preds, vec![1]);
        // Writes [5,8): writer 1 and reader 3 both touched it.
        let preds = d.register(5, r(5, 3), AccessMode::Out);
        assert_eq!(preds, vec![1, 3]);
    }

    #[test]
    fn repeated_reader_not_duplicated() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 4), AccessMode::Out);
        d.register(2, r(0, 4), AccessMode::In);
        d.register(2, r(0, 4), AccessMode::In);
        let preds = d.register(3, r(0, 4), AccessMode::Out);
        assert_eq!(preds, vec![1, 2]);
    }

    #[test]
    fn self_dependency_filtered() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 4), AccessMode::Out);
        // Same task registering a second access to the same region must not
        // depend on itself.
        assert!(d.register(1, r(0, 4), AccessMode::InOut).is_empty());
    }

    #[test]
    fn gauss_seidel_stencil_pattern() {
        // Row-block wavefront: task (t, i) inout row i, in rows i-1, i+1 of
        // iteration t. Verify the diagonal wavefront dependencies arise.
        let mut d = DepTracker::new();
        let row = |i: u64| r(i * 100, 100);
        // Iteration 0: tasks 10, 11, 12 write rows 0..3.
        for (task, i) in [(10u64, 0u64), (11, 1), (12, 2)] {
            let mut preds = d.register(task, row(i), AccessMode::InOut);
            if i > 0 {
                preds.extend(d.register(task, row(i - 1), AccessMode::In));
            }
            preds.extend(d.register(task, row(i + 1), AccessMode::In));
            let _ = preds;
        }
        // Iteration 1, row 0 (task 20): depends on writer of row 0 (10) and
        // the readers of rows 0 and 1.
        let p0 = d.register(20, row(0), AccessMode::InOut);
        assert!(p0.contains(&10), "WAW with iteration-0 row 0: {p0:?}");
        assert!(
            p0.contains(&11),
            "WAR with row-1 task reading row 0: {p0:?}"
        );
    }

    #[test]
    fn compact_drops_finished_history() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::Out);
        d.register(2, r(5, 10), AccessMode::In);
        assert!(d.interval_count() >= 2);
        d.compact(&|t| t == 1 || t == 2);
        assert_eq!(d.interval_count(), 0);
        // Fresh accesses start clean.
        assert!(d.register(3, r(0, 20), AccessMode::Out).is_empty());
    }

    #[test]
    fn compact_keeps_live_tasks() {
        let mut d = DepTracker::new();
        d.register(1, r(0, 10), AccessMode::Out);
        d.compact(&|_| false);
        assert_eq!(d.register(2, r(0, 10), AccessMode::In), vec![1]);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_region_rejected() {
        DepTracker::new().register(1, r(0, 0), AccessMode::In);
    }
}
