//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! Spans are kept in memory as per-name aggregates (calls, total time,
//! time covered by child spans, and a log2 histogram), because the
//! envelope workload makes millions of scheduler calls. A span's self
//! time is its total minus its children's. Scheduler calls are reached by
//! wrapping the scheduler the engine is given ([`TimedScheduler`]); trace
//! records by giving the engine a [`CountingSink`]. Nothing inside the
//! simulator is instrumented.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tapesim::sched::{ArrivalOutcome, JukeboxView, PendingList, Scheduler, ServiceList, SweepPlan};
use tapesim::sim::{TraceEvent, TraceRecord, TraceSink};
use tapesim::workload::Request;

use crate::stats::Log2Hist;

/// The host clock. Every timing in the benchmark reads it here.
pub fn now() -> Instant {
    // simlint: allow(wall-clock, the benchmark measures host time by design; no simulated quantity depends on it)
    Instant::now()
}

/// The layer boundaries the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Building the placement (catalog) during set-up.
    Layout,
    /// A call that advances simulated time (`step`, `step_until`,
    /// `run_until`).
    Advance,
    /// An external submission (`submit_at`, `JukeboxService::submit`).
    Submit,
    /// Closing the run (`finish`, `drain`), which sorts the delay samples.
    Finish,
    /// `Scheduler::major_reschedule`.
    Major,
    /// `Scheduler::on_arrival`.
    Arrival,
}

impl Span {
    pub const ALL: [Span; 6] = [
        Span::Layout,
        Span::Advance,
        Span::Submit,
        Span::Finish,
        Span::Major,
        Span::Arrival,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Layout => "layout.build",
            Span::Advance => "core.advance",
            Span::Submit => "core.submit",
            Span::Finish => "core.finish",
            Span::Major => "sched.major",
            Span::Arrival => "sched.arrival",
        }
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub calls: u64,
    pub total_ns: u64,
    /// Time covered by spans opened inside this one.
    pub child_ns: u64,
    pub hist: Log2Hist,
}

impl SpanStats {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Outcome counts of the scheduler calls, gathered by [`TimedScheduler`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedCounts {
    /// Major reschedules that found nothing to schedule.
    pub empty_plans: u64,
    /// Requests across the plans the major rescheduler returned.
    pub planned_requests: u64,
    /// Arrivals the incremental scheduler inserted into a running sweep.
    pub inserted: u64,
}

#[derive(Default)]
struct Profile {
    spans: [SpanStats; 6],
    /// Start and child time so far of each open span, innermost last.
    open: Vec<(Instant, u64)>,
    sched: SchedCounts,
}

/// A handle on the span aggregates, or nothing: a disabled probe runs the
/// timed closure and records nothing, so untraced runs share the code.
#[derive(Clone, Default)]
pub struct Probe(Option<Rc<RefCell<Profile>>>);

impl Probe {
    pub fn off() -> Probe {
        Probe(None)
    }

    pub fn on() -> Probe {
        Probe(Some(Rc::default()))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` inside span `s`.
    #[inline]
    pub fn span<R>(&self, s: Span, f: impl FnOnce() -> R) -> R {
        let Some(p) = &self.0 else {
            return f();
        };
        p.borrow_mut().open.push((now(), 0));
        let r = f();
        let end = now();
        let mut p = p.borrow_mut();
        let (start, child_ns) = p.open.pop().expect("spans close in the order they open");
        let ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        let st = &mut p.spans[s as usize];
        st.calls += 1;
        st.total_ns += ns;
        st.child_ns += child_ns;
        st.hist.record(ns);
        if let Some(parent) = p.open.last_mut() {
            parent.1 += ns;
        }
        r
    }

    fn count(&self, f: impl FnOnce(&mut SchedCounts)) {
        if let Some(p) = &self.0 {
            f(&mut p.borrow_mut().sched);
        }
    }

    /// The aggregate of span `s` so far.
    pub fn stats(&self, s: Span) -> SpanStats {
        self.0
            .as_ref()
            .map(|p| p.borrow().spans[s as usize].clone())
            .unwrap_or_default()
    }

    pub fn sched_counts(&self) -> SchedCounts {
        self.0
            .as_ref()
            .map(|p| p.borrow().sched)
            .unwrap_or_default()
    }
}

/// Forwards every call to the wrapped scheduler, timing the two that the
/// engine makes on its hot path.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    probe: Probe,
}

impl<'a> TimedScheduler<'a> {
    pub fn new(inner: &'a mut dyn Scheduler, probe: Probe) -> Self {
        TimedScheduler { inner, probe }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan> {
        let plan = self
            .probe
            .span(Span::Major, || self.inner.major_reschedule(view, pending));
        let requests = plan.as_ref().map(|p| p.list.requests() as u64);
        self.probe.count(|c| match requests {
            Some(n) => c.planned_requests += n,
            None => c.empty_plans += 1,
        });
        plan
    }

    fn on_arrival(
        &mut self,
        view: &JukeboxView<'_>,
        sweep_tape: tapesim::model::TapeId,
        sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        let outcome = self.probe.span(Span::Arrival, || {
            self.inner
                .on_arrival(view, sweep_tape, sweep, request, pending)
        });
        if outcome == ArrivalOutcome::Inserted {
            self.probe.count(|c| c.inserted += 1);
        }
        outcome
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), &'static str> {
        self.inner.restore_state(state)
    }
}

/// An enabled trace sink that keeps counts instead of records.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub records: u64,
    pub completions: u64,
    pub robot_exchanges: u64,
    /// Sum of robot-arm busy time over all exchange legs, in µs.
    pub robot_busy_us: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: TraceRecord) {
        self.records += 1;
        match rec.event {
            TraceEvent::Complete { .. } => self.completions += 1,
            TraceEvent::RobotExchange { dur, .. } => {
                self.robot_exchanges += 1;
                self.robot_busy_us += dur.as_micros();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        let probe = Probe::on();
        probe.span(Span::Advance, || {
            probe.span(Span::Major, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            probe.span(Span::Major, || {});
        });
        let adv = probe.stats(Span::Advance);
        let major = probe.stats(Span::Major);
        assert_eq!((adv.calls, major.calls), (1, 2));
        assert_eq!(adv.child_ns, major.total_ns);
        assert_eq!(adv.self_ns(), adv.total_ns - major.total_ns);
        assert!(major.total_ns >= 2_000_000);
        assert_eq!(major.hist.count(), 2);
    }

    #[test]
    fn a_disabled_probe_records_nothing() {
        let probe = Probe::off();
        assert_eq!(probe.span(Span::Submit, || 7), 7);
        assert_eq!(probe.stats(Span::Submit).calls, 0);
        assert!(!probe.is_on());
    }
}
