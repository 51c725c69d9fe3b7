//! Spans recorded by the benchmark's own code around each call into a
//! layer (the traced run). Kept in memory, written out when the workload
//! ends. Spans inside the program are a later issue; these see a layer
//! only as the duration of its public call.
//!
//! One `Tracer` belongs to one thread — the workload's generator — so
//! recording is a `Vec` push with no synchronisation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;
use crate::stats;

/// Index of a recorded span; `DROPPED` once the span file is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const DROPPED: SpanId = SpanId(u32::MAX);
}

struct Span {
    name: &'static str,
    /// Shared by the spans of one task, batch, window or repetition.
    id: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans kept for the file; durations below are kept beyond it.
    span_cap: usize,
    dropped: u64,
    /// Duration of every timed call by span name, ns.
    durations: BTreeMap<&'static str, Vec<u32>>,
    /// What two back-to-back clock reads cost: the part of every timed
    /// call's duration that is the timing itself.
    clock_ns: f64,
}

/// Durations kept per span name (4 bytes each).
const DURATION_CAP: usize = 400_000;

impl Tracer {
    pub fn new(span_cap: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(span_cap.min(1 << 16)),
            span_cap,
            dropped: 0,
            durations: BTreeMap::new(),
            clock_ns: clock_overhead_ns(),
        }
    }

    /// Lets the span file keep `more` further spans.
    pub fn raise_span_cap(&mut self, more: usize) {
        self.span_cap += more;
    }

    pub fn clock_overhead_ns(&self) -> f64 {
        self.clock_ns
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that `close` ends later (a window, a task's lifetime).
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        if self.spans.len() >= self.span_cap {
            self.dropped += 1;
            return SpanId::DROPPED;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.filter(|p| *p != SpanId::DROPPED).map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: SpanId) {
        if span != SpanId::DROPPED {
            self.spans[span.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Times one call into a layer: a span under `parent`, and a duration
    /// under `name` whether or not the span file still has room.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        call: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        let durs = self.durations.entry(name).or_default();
        if durs.len() < DURATION_CAP {
            durs.push((end_ns - start_ns).min(u32::MAX as u64) as u32);
        }
        if self.spans.len() < self.span_cap {
            self.spans.push(Span {
                name,
                id,
                parent: parent.filter(|p| *p != SpanId::DROPPED).map(|p| p.0),
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Number of calls timed under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }

    /// Median duration of the calls timed under `name`, ns, less the
    /// clock's own share; `None` when nothing was timed.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let durs = self.durations.get(name).filter(|d| !d.is_empty())?;
        let mut sorted = durs.clone();
        sorted.sort_unstable();
        let med = stats::percentile_sorted(&sorted, 50.0) as f64;
        Some((med - self.clock_ns).max(0.0))
    }

    /// Writes the span file: every kept span with its self time (its
    /// duration minus the part of it its child spans cover).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"clock_overhead_ns\": {}, \
             \"spans_dropped\": {}, \"spans\": [",
            json::quote(workload),
            json::number(self.clock_ns),
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"i\": {i}, \"name\": {}, \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                json::quote(s.name),
                s.id,
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Self time per span. Children of one parent may overlap each other
    /// (tasks in flight together inside a window), so what is subtracted
    /// is the length of the union of their intervals, clipped to the
    /// parent.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }
}

/// Median cost of an empty timed section (two clock reads), ns.
fn clock_overhead_ns() -> f64 {
    let origin = Instant::now();
    let mut deltas = Vec::with_capacity(2001);
    for _ in 0..2001 {
        let a = origin.elapsed().as_nanos() as u64;
        let b = origin.elapsed().as_nanos() as u64;
        deltas.push(b - a);
    }
    deltas.sort_unstable();
    stats::percentile_sorted(&deltas, 50.0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(16);
        let root = t.open("root", 0, None);
        t.time("child", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", 2, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let selfs = t.self_times();
        let root_dur = t.spans[0].end_ns - t.spans[0].start_ns;
        let kids: u64 = t.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(selfs[0], root_dur - kids);
        assert_eq!(selfs[1], t.spans[1].end_ns - t.spans[1].start_ns);
        assert_eq!(t.count("child"), 2);
        assert!(t.median_ns("child").unwrap() > 1_000_000.0);
    }

    #[test]
    fn full_span_file_still_collects_durations() {
        let mut t = Tracer::new(1);
        t.time("x", 0, None, || {});
        t.time("x", 1, None, || {});
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.count("x"), 2);
        assert_eq!(t.open("y", 0, None), SpanId::DROPPED);
    }
}
