//! Structured JSONL progress streaming for sweeps.
//!
//! [`Sweep::stream`](crate::sweep::Sweep::stream) is the sweep's live
//! progress channel: one [`ProgressEvent`] per sweep point,
//! serialized as a single JSON line, emitted in **enumeration order** (the
//! sweep buffers out-of-order completions from parallel workers), followed
//! by one `sweep_end` event carrying the final
//! [`MetricsSnapshot`](charllm_telemetry::MetricsSnapshot). The line
//! protocol is what [`SimServer`](crate::server::SimServer) serves at
//! `GET /jobs/{id}/stream`: a consumer needs nothing but a line-buffered
//! reader and a JSON parser — see `examples/live_dashboard.rs` for a
//! terminal renderer built on it.
//!
//! When the sweep also carries a
//! [`MetricsHub`](charllm_telemetry::MetricsHub), each
//! point event embeds the hub's snapshot *delta* since the previous event;
//! deltas are exact (integer counters, fixed-point histogram sums), so
//! summing every delta reproduces the final snapshot bit-for-bit.

use std::fmt;
use std::io::Write;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::sweep::SweepOutcome;

/// One line of the sweep progress stream.
///
/// Every field is always present (the vendored serde derives have no
/// `skip_serializing_if`), with sentinel values where a field does not
/// apply: empty strings, `0.0` metrics for non-completed points, and JSON
/// `null` for `metrics` when no hub is attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// `"point"` (one sweep point finished) or `"sweep_end"` (terminal
    /// event; `metrics` holds the full final snapshot).
    pub event: String,
    /// Emission sequence number, 0-based, dense: `seq` of `sweep_end`
    /// equals the number of points.
    pub seq: u64,
    /// The point's enumeration index (== `total` on `sweep_end`). Events
    /// are emitted in ascending `index` order regardless of worker
    /// scheduling.
    pub index: usize,
    /// Total points in the sweep.
    pub total: usize,
    /// Points finished so far with a report, at emission time.
    pub completed: usize,
    /// Points skipped so far (infeasible geometry in skip mode).
    pub skipped: usize,
    /// Points failed so far (strict mode).
    pub failed: usize,
    /// `"completed"`, `"skipped"` or `"failed"`; empty on `sweep_end`.
    pub outcome: String,
    /// Display label of the point (`"TP2-PP2 Base mb1"`); empty on
    /// `sweep_end`.
    pub point: String,
    /// Skip/fail reason; empty for completed points and `sweep_end`.
    pub reason: String,
    /// Mean step time of the point's report (0.0 unless completed).
    pub step_time_s: f64,
    /// Throughput of the point's report (0.0 unless completed).
    pub tokens_per_s: f64,
    /// Energy per step of the point's report (0.0 unless completed).
    pub energy_per_step_j: f64,
    /// Wall seconds since the sweep started.
    pub elapsed_s: f64,
    /// Estimated wall seconds to finish (linear extrapolation over
    /// finished points); `0.0` on `sweep_end`.
    pub eta_s: f64,
    /// Metrics-hub snapshot delta since the previous event (full snapshot
    /// on `sweep_end`), in [`MetricsSnapshot::to_json`] shape; `null`
    /// when the sweep has no hub attached.
    ///
    /// [`MetricsSnapshot::to_json`]: charllm_telemetry::MetricsSnapshot::to_json
    pub metrics: Value,
}

impl ProgressEvent {
    /// Serialize to one JSON line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Never panics: every field is serializable.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("progress event serializes")
    }

    /// Parse one line of the stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed lines.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// One finished point as the stream and the server's result document both
/// report it: a `point` event takes these fields, and the result
/// document's `points[i]` entry is this record serialized.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct PointSummary {
    pub(crate) index: usize,
    pub(crate) point: String,
    pub(crate) outcome: &'static str,
    pub(crate) reason: String,
    pub(crate) step_time_s: f64,
    pub(crate) tokens_per_s: f64,
    pub(crate) energy_per_step_j: f64,
}

impl PointSummary {
    /// Summarize an outcome: the report's figures when it completed, the
    /// skip or failure reason and zero figures otherwise.
    pub(crate) fn of(outcome: &SweepOutcome) -> Self {
        let (label, reason) = match outcome {
            SweepOutcome::Completed { .. } => ("completed", String::new()),
            SweepOutcome::Skipped { reason, .. } => ("skipped", reason.clone()),
            SweepOutcome::Failed { error, .. } => ("failed", error.to_string()),
        };
        let report = outcome.report();
        PointSummary {
            index: outcome.point().index,
            point: outcome.point().to_string(),
            outcome: label,
            reason,
            step_time_s: report.map_or(0.0, |r| r.step_time_s),
            tokens_per_s: report.map_or(0.0, |r| r.tokens_per_s),
            energy_per_step_j: report.map_or(0.0, |r| r.energy_per_step_j),
        }
    }
}

/// A line-oriented sink for [`ProgressEvent`]s: each event is written as
/// one JSON line and flushed, so a consumer tailing the stream sees points
/// as they finish. Writes from parallel sweep workers are serialized by an
/// internal mutex (and further ordered by the sweep's emission buffer, so
/// lines arrive in point order).
pub struct ProgressStream {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for ProgressStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressStream").finish_non_exhaustive()
    }
}

impl ProgressStream {
    /// Stream into any writer (a file, a pipe, a `Vec<u8>` in tests).
    pub fn new(out: impl Write + Send + 'static) -> Self {
        ProgressStream {
            out: Mutex::new(Box::new(out)),
        }
    }

    /// Stream to standard output.
    pub fn stdout() -> Self {
        ProgressStream::new(std::io::stdout())
    }

    /// Write one event as a JSON line and flush. I/O errors are ignored:
    /// a torn-down consumer (closed pipe) must not abort the sweep.
    pub fn emit(&self, event: &ProgressEvent) {
        let mut out = self.out.lock().expect("stream writer poisoned");
        let _ = writeln!(out, "{}", event.to_json_line());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn event(seq: u64) -> ProgressEvent {
        ProgressEvent {
            event: "point".into(),
            seq,
            index: seq as usize,
            total: 4,
            completed: seq as usize + 1,
            skipped: 0,
            failed: 0,
            outcome: "completed".into(),
            point: "TP2-PP2 Base mb1".into(),
            reason: String::new(),
            step_time_s: 0.5,
            tokens_per_s: 1000.0,
            energy_per_step_j: 42.0,
            elapsed_s: 1.0,
            eta_s: 3.0,
            metrics: Value::Null,
        }
    }

    #[test]
    fn events_roundtrip_through_json_lines() {
        let e = event(2);
        let line = e.to_json_line();
        assert!(!line.contains('\n'), "one event, one line");
        let back = ProgressEvent::from_json_line(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn stream_writes_one_line_per_event_and_flushes() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Shared::default();
        let stream = ProgressStream::new(sink.clone());
        stream.emit(&event(0));
        stream.emit(&event(1));
        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(ProgressEvent::from_json_line(lines[1]).unwrap().seq, 1);
    }
}
