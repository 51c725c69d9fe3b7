//! The generator-side probe of the traced run: a span per timed call,
//! under a span per sampled unit (task or batch), under a span per
//! window. The untraced run uses `NoProbe`, which compiles to the bare
//! calls, so one generator loop serves both runs.

use std::collections::VecDeque;

use crate::span::{SpanId, Tracer};

/// The traced run times every 16th unit's calls.
pub const TRACE_EVERY: u64 = 16;

/// Times the generator's calls into the runtime. The untraced run uses
/// `NoProbe`, which compiles to the bare calls.
pub trait Probe {
    /// Marks a window boundary (`index` 0 is the end of warm-up).
    fn boundary(&mut self, index: usize);
    /// Runs `call`, timing it when unit `seq` is one the probe samples.
    fn time<R>(&mut self, name: &'static str, seq: u64, call: impl FnOnce() -> R) -> R;
    /// Unit `seq` left the loop (destroyed, or its batch waited for).
    fn retire(&mut self, seq: u64);
    /// Lets the span file keep `more` further spans, for a later phase
    /// that would otherwise find it full.
    fn raise_span_cap(&mut self, more: usize);
}

pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn boundary(&mut self, _index: usize) {}
    #[inline(always)]
    fn time<R>(&mut self, _name: &'static str, _seq: u64, call: impl FnOnce() -> R) -> R {
        call()
    }
    #[inline(always)]
    fn retire(&mut self, _seq: u64) {}
    fn raise_span_cap(&mut self, _more: usize) {}
}

/// Records a span per timed call, under a span per sampled unit, under a
/// span per window.
pub struct SpanProbe<'a> {
    pub tracer: &'a mut Tracer,
    root: SpanId,
    window: Option<SpanId>,
    /// Open unit spans, oldest first (units retire in order).
    open: VecDeque<(u64, SpanId)>,
    unit_name: &'static str,
}

impl<'a> SpanProbe<'a> {
    pub fn new(tracer: &'a mut Tracer, workload: &'static str, unit_name: &'static str) -> Self {
        let root = tracer.open(workload, 0, None);
        SpanProbe {
            tracer,
            root,
            window: None,
            open: VecDeque::new(),
            unit_name,
        }
    }

    pub fn finish(self) {
        if let Some(w) = self.window {
            self.tracer.close(w);
        }
        self.tracer.close(self.root);
    }

    fn unit_span(&mut self, seq: u64) -> SpanId {
        if let Some(&(_, span)) = self.open.iter().find(|(s, _)| *s == seq) {
            return span;
        }
        let parent = self.window.unwrap_or(self.root);
        let span = self.tracer.open(self.unit_name, seq, Some(parent));
        self.open.push_back((seq, span));
        span
    }
}

impl Probe for SpanProbe<'_> {
    fn boundary(&mut self, index: usize) {
        if let Some(w) = self.window.take() {
            self.tracer.close(w);
        }
        self.window = Some(self.tracer.open("window", index as u64, Some(self.root)));
    }

    #[inline]
    fn time<R>(&mut self, name: &'static str, seq: u64, call: impl FnOnce() -> R) -> R {
        if !seq.is_multiple_of(TRACE_EVERY) {
            return call();
        }
        let unit = self.unit_span(seq);
        self.tracer.time(name, seq, Some(unit), call)
    }

    #[inline]
    fn retire(&mut self, seq: u64) {
        if seq.is_multiple_of(TRACE_EVERY) {
            if let Some(pos) = self.open.iter().position(|(s, _)| *s == seq) {
                let (_, span) = self.open.remove(pos).expect("position is in range");
                self.tracer.close(span);
            }
        }
    }

    fn raise_span_cap(&mut self, more: usize) {
        self.tracer.raise_span_cap(more);
    }
}

/// Where the spans of one repetition go (the repetition-shaped workloads
/// trace without a `Probe`): the tracer, the repetition's own span and
/// its number.
pub type RepTrace<'a> = (&'a mut Tracer, SpanId, u64);

/// Runs `call`, as a span of the repetition when it is traced.
pub fn timed<R>(trace: &mut Option<RepTrace>, name: &'static str, call: impl FnOnce() -> R) -> R {
    match trace {
        Some((tracer, parent, id)) => tracer.time(name, *id, Some(*parent), call),
        None => call(),
    }
}

/// Runs repetition `id` inside a `repetition` span under `root` when the
/// section is traced, untraced otherwise.
pub fn in_repetition<R>(
    tracer: &mut Option<(&mut Tracer, SpanId)>,
    id: u64,
    body: impl FnOnce(Option<RepTrace>) -> R,
) -> R {
    match tracer {
        Some((tracer, root)) => {
            let span = tracer.open("repetition", id, Some(*root));
            let out = body(Some((&mut **tracer, span, id)));
            tracer.close(span);
            out
        }
        None => body(None),
    }
}
