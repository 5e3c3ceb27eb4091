//! Execution tracing for the loop-lifted StandOff MergeJoin.
//!
//! Figure 4 of the paper walks through the Listing 1 algorithm on a small
//! context/candidate input, step by step, with the pseudo-code line
//! numbers of each action. The merge join accepts an optional
//! [`TraceSink`] and reports exactly those actions, so the figure can be
//! regenerated (and asserted) verbatim — see `tests/figure4_trace.rs`.

/// One algorithm action, tagged with the Listing 1 line numbers it
/// corresponds to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A context item was appended to the active-items list.
    /// `line` is 8 (initial item) or 41 (subsequent items).
    AddActive { ctx: u32, line: u8 },
    /// A context item was skipped because an active item of the same
    /// iteration already covers it (lines 11–18).
    SkipContext { ctx: u32 },
    /// An active context item was removed: its end lies before the
    /// current candidate's start (line 31).
    RemoveActive { ctx: u32 },
    /// A candidate was skipped by the "non-possible" fast-forward —
    /// it starts before the current context item (lines 21–24).
    SkipCandidateBefore { cand: u32 },
    /// A candidate was analyzed but no active item contains it
    /// (lines 32–35 without emission).
    SkipCandidateNoMatch { cand: u32 },
    /// A result `(iter, candidate)` was produced (lines 32–34).
    Emit { iter: u32, cand: u32 },
    /// All candidates consumed — the join exits (line 38).
    Exit,
}

/// Receiver of trace events. The join calls this synchronously; sinks
/// should be cheap (the benchmarks never enable tracing).
pub trait TraceSink {
    fn event(&mut self, event: TraceEvent);

    /// Does this sink observe events? When `false` the merge join may
    /// replace per-event stepping with bulk skips (e.g. galloping over
    /// non-possible candidates) — the Figure 4 trace stays verbatim only
    /// for enabled sinks.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn event(&mut self, event: TraceEvent) {
        (**self).event(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// The disabled sink: a zero-sized type whose `event` is a no-op, so the
/// monomorphized merge join carries no tracing cost at all.
#[derive(Default, Clone, Copy, Debug)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn event(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// A sink that records all events into a vector.
#[derive(Default, Debug)]
pub struct VecTrace {
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecTrace {
    fn event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_trace_records_in_order() {
        let mut t = VecTrace::default();
        t.event(TraceEvent::AddActive { ctx: 0, line: 8 });
        t.event(TraceEvent::Exit);
        assert_eq!(
            t.events,
            vec![TraceEvent::AddActive { ctx: 0, line: 8 }, TraceEvent::Exit]
        );
    }
}
