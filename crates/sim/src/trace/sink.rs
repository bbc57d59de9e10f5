//! Trace sinks: where recorded events go.

use std::io::{self, Write};

use super::TraceRecord;

/// A consumer of trace records.
///
/// The engines call [`TraceSink::enabled`] once per run; when it returns
/// false no events are constructed at all, making the null sink free.
pub trait TraceSink {
    /// Whether this sink wants events. Defaults to true.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record. Only called when [`TraceSink::enabled`]
    /// returned true at run start.
    fn record(&mut self, rec: TraceRecord);
}

/// Discards everything; the engines skip event construction entirely.
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _rec: TraceRecord) {}
}

/// Collects every record in memory. The workhorse of the test suites.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The records collected so far.
    pub fn events(&self) -> &[TraceRecord] {
        &self.events
    }

    /// Consumes the sink, returning the collected records.
    pub fn into_events(self) -> Vec<TraceRecord> {
        self.events
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: TraceRecord) {
        self.events.push(rec);
    }
}

/// Streams records as JSON Lines to any writer (see [`super::jsonl`] for
/// the schema). IO errors are sticky: the first failure is remembered and
/// subsequent records are dropped, so a full disk cannot panic a
/// simulation mid-run.
pub struct JsonlSink<W: Write> {
    w: W,
    err: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, err: None }
    }

    /// Flushes and returns the writer, or the first IO error encountered
    /// while recording.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: TraceRecord) {
        if self.err.is_some() {
            return;
        }
        let line = super::jsonl::to_jsonl(&rec);
        if let Err(e) = self
            .w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
        {
            self.err = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::TraceEvent;
    use super::*;
    use tapesim_model::{Micros, SimTime};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            at: SimTime::from_micros(seq * 10),
            drive: 0,
            event: TraceEvent::Idle {
                dur: Micros::from_micros(10),
            },
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(rec(0));
        s.record(rec(1));
        let out = String::from_utf8(s.finish().unwrap()).unwrap();
        assert_eq!(out.lines().count(), 2);
        assert!(out.starts_with('{'));
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut s = MemorySink::new();
        s.record(rec(0));
        s.record(rec(1));
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.into_events()[1].seq, 1);
    }
}
