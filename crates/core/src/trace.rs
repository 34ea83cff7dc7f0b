//! Execution traces in Chrome trace-event format.
//!
//! The machine can record every task execution, DMA transfer and status
//! poll as a timeline event; [`Trace::to_chrome_json`] serializes the
//! recording in the `chrome://tracing` / Perfetto JSON array format, with
//! one process row per hierarchy level and one thread row per accelerator
//! instance — the GAM schedule, visible.
//!
//! The serializer is hand-rolled (the format is a flat JSON array of small
//! objects) so the workspace keeps its minimal dependency set.

use reach_sim::{SimDuration, SimTime};

/// What kind of activity an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A task executing on an accelerator.
    Task,
    /// A GAM-initiated DMA transfer.
    Dma,
    /// A status-poll round trip.
    Poll,
}

impl TraceKind {
    fn category(self) -> &'static str {
        match self {
            TraceKind::Task => "task",
            TraceKind::Dma => "dma",
            TraceKind::Poll => "poll",
        }
    }
}

/// One complete-duration event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Display name (stage or transfer description).
    pub name: String,
    /// Activity kind.
    pub kind: TraceKind,
    /// Row group (hierarchy level name).
    pub track: String,
    /// Lane within the group (accelerator index; 0 for transfers).
    pub lane: usize,
    /// Start instant.
    pub start: SimTime,
    /// Duration.
    pub duration: SimDuration,
}

/// A recorded timeline.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Recorded events in insertion order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes to the Chrome trace-event JSON array format (micro-second
    /// timestamps, `X` complete events). Load the output in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":\"{}\",\"tid\":{}}}",
                escape(&e.name),
                e.kind.category(),
                e.start.as_us_f64(),
                e.duration.as_us_f64(),
                escape(&e.track),
                e.lane
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(TraceEvent {
            name: "feature-extraction".into(),
            kind: TraceKind::Task,
            track: "on-chip".into(),
            lane: 0,
            start: SimTime::from_ps(1_000_000),
            duration: SimDuration::from_us(100),
        });
        t.record(TraceEvent {
            name: "db \"stage\"".into(),
            kind: TraceKind::Dma,
            track: "transfers".into(),
            lane: 0,
            start: SimTime::ZERO,
            duration: SimDuration::from_ns(500),
        });
        t
    }

    #[test]
    fn chrome_json_shape() {
        let json = sample().to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"task\""));
        assert!(json.contains("\"cat\":\"dma\""));
        // 1 us start, 100 us duration.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":100.000"));
        // Exactly two objects.
        assert_eq!(json.matches("{\"name\"").count(), 2);
    }

    #[test]
    fn strings_are_escaped() {
        let json = sample().to_chrome_json();
        assert!(json.contains("db \\\"stage\\\""));
        assert_eq!(escape("a\\b\"c\n"), "a\\\\b\\\"c\\u000a");
    }

    #[test]
    fn rows_group_by_level_and_instance() {
        // The machine uses the level name as pid and the instance index as
        // tid, so the viewer shows one process row per hierarchy level and
        // one thread row per accelerator instance.
        let mut t = Trace::new();
        for (track, lane) in [("on-chip", 0), ("near-storage", 0), ("near-storage", 1)] {
            t.record(TraceEvent {
                name: "task".into(),
                kind: TraceKind::Task,
                track: track.into(),
                lane,
                start: SimTime::ZERO,
                duration: SimDuration::from_ns(1),
            });
        }
        let json = t.to_chrome_json();
        assert_eq!(json.matches("\"pid\":\"near-storage\"").count(), 2);
        assert_eq!(json.matches("\"pid\":\"on-chip\"").count(), 1);
        assert!(json.contains("\"pid\":\"near-storage\",\"tid\":0}"));
        assert!(json.contains("\"pid\":\"near-storage\",\"tid\":1}"));
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.events()[0].lane, 0);
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(Trace::new().to_chrome_json(), "[\n\n]\n");
    }

    #[test]
    fn poll_event_serializes_exactly() {
        let mut t = Trace::new();
        t.record(TraceEvent {
            name: "poll".into(),
            kind: TraceKind::Poll,
            track: "gam".into(),
            lane: 2,
            start: SimTime::ZERO + SimDuration::from_us(3),
            duration: SimDuration::from_ns(1),
        });
        assert_eq!(
            t.to_chrome_json(),
            "[\n  {\"name\":\"poll\",\"cat\":\"poll\",\"ph\":\"X\",\"ts\":3.000,\"dur\":0.001,\"pid\":\"gam\",\"tid\":2}\n]\n"
        );
    }

    #[test]
    fn non_ascii_text_passes_through() {
        assert_eq!(escape("rerank→top-k é"), "rerank→top-k é");
        assert_eq!(escape("tab\there"), "tab\\u0009here");
    }
}
