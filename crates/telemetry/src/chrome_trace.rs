//! Chrome `traceEvents` export of a recorded run, loadable in Perfetto.
//!
//! Layout follows the Trace Event Format: one *process* per node, one
//! *thread* per rank (so Perfetto renders a track per rank grouped by
//! node), `"X"` complete events for spans, `"s"`/`"f"` flow arrows for the
//! network flows of each collective, and `"C"` counter tracks for per-GPU
//! board power. Timestamps are microseconds of simulated time.

use serde::{ObjectWriter, Serialize};

use crate::spans::SpanRecorder;

const US_PER_S: f64 = 1e6;

/// The thread id of the "faults" pseudo-thread on a node's process.
const FAULT_TID: u32 = 1_000_000;

/// A recorder's streams as a Chrome `traceEvents` document: a view that
/// writes each event straight into the output text when serialized.
#[derive(Debug, Clone, Copy)]
pub struct ChromeTrace<'a> {
    rec: &'a SpanRecorder,
    node_of_gpu: &'a [usize],
}

/// Export a recorder's streams as a Chrome `traceEvents` JSON document.
///
/// `node_of_gpu[g]` maps a GPU index to its node (process). Ranks whose GPU
/// falls outside the map land on a catch-all process `0`. Serialize the
/// returned view with `serde_json::to_string` and load the file at
/// <https://ui.perfetto.dev>.
pub fn export<'a>(rec: &'a SpanRecorder, node_of_gpu: &'a [usize]) -> ChromeTrace<'a> {
    ChromeTrace { rec, node_of_gpu }
}

/// `{"key":value}`, an event's `args`.
struct Arg<T>(&'static str, T);

impl<T: Serialize> Serialize for Arg<T> {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out).field(self.0, &self.1).end();
    }
}

/// The `traceEvents` array being written: opens each event after a comma
/// but the first.
struct Events<'o> {
    out: &'o mut String,
    any: bool,
}

impl Events<'_> {
    /// Open the next event, with its `ph` and `name`.
    fn event(&mut self, ph: &str, name: impl Serialize) -> ObjectWriter<'_> {
        if std::mem::replace(&mut self.any, true) {
            self.out.push(',');
        }
        ObjectWriter::new(self.out)
            .field("ph", ph)
            .field("name", name)
    }
}

impl ChromeTrace<'_> {
    fn node_of(&self, gpu: u32) -> usize {
        self.node_of_gpu.get(gpu as usize).copied().unwrap_or(0)
    }

    fn write_events(&self, ev: &mut Events<'_>) {
        let rec = self.rec;

        // Process (node) and thread (rank) naming metadata.
        let mut nodes: Vec<usize> = (0..rec.world())
            .filter_map(|r| rec.gpu_of_rank(r))
            .map(|gpu| self.node_of(gpu))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            ev.event("M", "process_name")
                .field("pid", node)
                .field("tid", 0)
                .field("args", Arg("name", format!("node{node}")))
                .end();
        }
        // gpu -> rank, for pointing flow arrows at rank tracks.
        let mut rank_of_gpu: Vec<Option<(usize, u32)>> = vec![None; self.node_of_gpu.len().max(1)];
        for rank in 0..rec.world() {
            let Some(gpu) = rec.gpu_of_rank(rank) else {
                continue;
            };
            let node = self.node_of(gpu);
            if let Some(slot) = rank_of_gpu.get_mut(gpu as usize) {
                slot.get_or_insert((node, rank as u32));
            }
            ev.event("M", "thread_name")
                .field("pid", node)
                .field("tid", rank)
                .field("args", Arg("name", format!("rank{rank} (gpu{gpu})")))
                .end();
            ev.event("M", "thread_sort_index")
                .field("pid", node)
                .field("tid", rank)
                .field("args", Arg("sort_index", rank))
                .end();
        }

        // Spans: "X" complete events on the rank's track.
        for rank in 0..rec.world() {
            let Some(gpu) = rec.gpu_of_rank(rank) else {
                continue;
            };
            let node = self.node_of(gpu);
            for span in rec.spans(rank) {
                let cat = if span.kind.is_collective() {
                    "collective"
                } else {
                    "compute"
                };
                ev.event("X", span.kind.label())
                    .field("cat", cat)
                    .field("pid", node)
                    .field("tid", rank)
                    .field("ts", span.t0_s * US_PER_S)
                    .field("dur", span.dur_s() * US_PER_S)
                    .field("args", Arg("iteration", span.iteration))
                    .end();
            }
        }

        // Flow arrows: "s" on the source rank's track at launch, "f" on the
        // destination rank's track at retirement. Ids are unique per flow.
        let lookup =
            |gpu: u32| -> Option<(usize, u32)> { rank_of_gpu.get(gpu as usize).copied().flatten() };
        for (id, flow) in rec.flows().iter().enumerate() {
            let (Some((src_node, src_rank)), Some((dst_node, dst_rank))) =
                (lookup(flow.src_gpu), lookup(flow.dst_gpu))
            else {
                continue;
            };
            let name = format!("c{}.i{}", flow.coll, flow.iteration);
            ev.event("s", &name)
                .field("cat", "flow")
                .field("id", id)
                .field("pid", src_node)
                .field("tid", src_rank)
                .field("ts", flow.t0_s * US_PER_S)
                .end();
            ev.event("f", &name)
                .field("cat", "flow")
                .field("id", id)
                .field("bp", "e")
                .field("pid", dst_node)
                .field("tid", dst_rank)
                .field("ts", flow.t1_s * US_PER_S)
                .end();
        }

        // Injected faults: "X" events on a dedicated "faults" pseudo-thread
        // of the target GPU's node (cluster-wide faults land on node 0), so
        // outages render as shaded windows above the rank tracks.
        let mut fault_nodes: Vec<usize> = Vec::new();
        for fs in rec.fault_spans() {
            let node = if fs.target == u32::MAX {
                0
            } else {
                self.node_of(fs.target)
            };
            if !fault_nodes.contains(&node) {
                fault_nodes.push(node);
                ev.event("M", "thread_name")
                    .field("pid", node)
                    .field("tid", FAULT_TID)
                    .field("args", Arg("name", "faults"))
                    .end();
            }
            let dur = (fs.t1_s - fs.t0_s).max(0.0);
            ev.event("X", format!("{} #{}", fs.label, fs.fault))
                .field("cat", "fault")
                .field("pid", node)
                .field("tid", FAULT_TID)
                .field("ts", fs.t0_s * US_PER_S)
                .field("dur", dur * US_PER_S)
                .field("args", Arg("target", fs.target))
                .end();
        }

        // Per-GPU board power as counter tracks on the GPU's node.
        for tick in rec.power_ticks() {
            ev.event("C", format!("power gpu{}", tick.gpu))
                .field("pid", self.node_of(tick.gpu))
                .field("tid", 0)
                .field("ts", tick.t_s * US_PER_S)
                .field("args", Arg("watts", tick.power_w))
                .end();
        }
    }
}

/// `{"traceEvents":[..],"displayTimeUnit":"ms"}`, each event written in
/// place: no event is built as a value first.
impl Serialize for ChromeTrace<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"traceEvents":["#);
        self.write_events(&mut Events { out, any: false });
        out.push_str(r#"],"displayTimeUnit":"ms"}"#);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanKind;
    use charllm_trace::ComputeKind;
    use serde_json::Value;

    #[test]
    fn export_names_processes_and_threads() {
        let mut r = SpanRecorder::new();
        r.begin_task(
            0,
            0,
            0,
            SpanKind::Compute {
                kind: ComputeKind::Gemm,
            },
            0.0,
        );
        r.end_task(0, 1.0);
        r.begin_task(
            1,
            1,
            0,
            SpanKind::Compute {
                kind: ComputeKind::Gemm,
            },
            0.5,
        );
        r.end_task(1, 2.0);
        let v = serde_json::to_value(export(&r, &[0, 1])).unwrap();
        let events = v
            .as_object()
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap();
        let count = |ph: &str, name: &str| {
            events
                .iter()
                .filter(|e| {
                    let o = e.as_object().unwrap();
                    o.get("ph").unwrap().as_str() == Some(ph)
                        && o.get("name").unwrap().as_str() == Some(name)
                })
                .count()
        };
        assert_eq!(count("M", "process_name"), 2);
        assert_eq!(count("M", "thread_name"), 2);
        assert_eq!(count("X", "Gemm"), 2);
    }

    #[test]
    fn fault_windows_export_under_fault_category() {
        let mut r = SpanRecorder::new();
        r.begin_task(
            0,
            0,
            0,
            SpanKind::Compute {
                kind: ComputeKind::Gemm,
            },
            0.0,
        );
        r.end_task(0, 1.0);
        r.fault_begin(0, "link-degrade", 1, 0.2);
        r.fault_end(0, 0.8);
        let v = serde_json::to_value(export(&r, &[0, 0])).unwrap();
        let events = v
            .as_object()
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap();
        let faults: Vec<_> = events
            .iter()
            .filter(|e| e.as_object().unwrap().get("cat").and_then(Value::as_str) == Some("fault"))
            .collect();
        assert_eq!(faults.len(), 1);
        let f = faults[0].as_object().unwrap();
        assert_eq!(f.get("name").unwrap().as_str(), Some("link-degrade #0"));
        assert_eq!(f.get("ph").unwrap().as_str(), Some("X"));
    }

    #[test]
    fn flow_arrows_pair_source_and_finish() {
        let mut r = SpanRecorder::new();
        r.begin_task(
            0,
            0,
            0,
            SpanKind::Compute {
                kind: ComputeKind::Gemm,
            },
            0.0,
        );
        r.end_task(0, 1.0);
        r.begin_task(
            1,
            1,
            0,
            SpanKind::Compute {
                kind: ComputeKind::Gemm,
            },
            0.0,
        );
        r.end_task(1, 1.0);
        r.flow_launch(0, 9, 0, 0, 1, 0.25);
        r.flow_retire(0, 0.75);
        let v = serde_json::to_value(export(&r, &[0, 0])).unwrap();
        let events = v
            .as_object()
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.as_object().unwrap().get("ph").unwrap().as_str())
            .filter(|p| *p == "s" || *p == "f")
            .collect();
        assert_eq!(phases, vec!["s", "f"]);
    }

    /// FNV-1a, 64-bit.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A recorder with every event kind the export writes: ranks on two
    /// nodes (process and thread metadata), compute and collective spans,
    /// flow arrows (one to a GPU with no rank, which is skipped), a fault
    /// window on a GPU and a cluster-wide one, and power counters.
    fn every_event_kind() -> SpanRecorder {
        let mut r = SpanRecorder::new();
        let gemm = SpanKind::Compute {
            kind: ComputeKind::Gemm,
        };
        let attention = SpanKind::Compute {
            kind: ComputeKind::Attention,
        };
        let allreduce = SpanKind::Collective {
            coll: 3,
            class: charllm_trace::KernelClass::AllReduce,
        };
        for (rank, gpu) in [(0, 0), (1, 1), (2, 2)] {
            let t = 0.1 * rank as f64;
            r.begin_task(rank, gpu, 0, gemm, t);
            r.end_task(rank, t + 1.0 / 3.0);
            r.begin_task(rank, gpu, 0, allreduce, t + 0.4);
            r.end_task(rank, 0.75);
            r.begin_task(rank, gpu, 1, attention, 1.0 + 1e-9 * rank as f64);
            r.end_task(rank, 1.25e-3 + 1.5);
        }
        r.flow_launch(0, 3, 0, 0, 2, 0.4);
        r.flow_launch(1, 3, 0, 2, 1, 0.41);
        r.flow_launch(2, 3, 0, 1, 7, 0.42);
        r.flow_retire(1, 0.7 + 0.2);
        r.flow_retire(0, 0.125);
        r.flow_retire(2, 0.5);
        r.fault_begin(0, "link-degrade", 1, 0.3);
        r.fault_end(0, 0.6);
        r.fault_begin(1, "node-power", u32::MAX, 0.9);
        r.fault_end(1, 0.8);
        for (i, gpu) in [0, 2, 1].into_iter().enumerate() {
            r.power_tick(gpu, 0.1 * i as f64, 412.5 + 0.1 * i as f64, 0.1, i > 0);
        }
        r
    }

    #[test]
    fn export_text_is_pinned() {
        let text = serde_json::to_string(&export(&every_event_kind(), &[0, 0, 1])).unwrap();
        for ph in ["M", "X", "s", "f", "C"] {
            assert!(text.contains(&format!("{{\"ph\":\"{ph}\"")), "{ph}");
        }
        assert_eq!(
            (text.len(), format!("{:016x}", fnv(text.as_bytes()))),
            (2610, "ec8cf330302c8105".to_string()),
            "{text}"
        );
    }

    #[test]
    fn a_one_span_export_reads_as_written() {
        let mut r = SpanRecorder::new();
        r.begin_task(
            0,
            0,
            2,
            SpanKind::Compute {
                kind: ComputeKind::Gemm,
            },
            0.5,
        );
        r.end_task(0, 0.75);
        r.power_tick(0, 0.1, 300.5, 0.1, true);
        assert_eq!(
            serde_json::to_string(&export(&r, &[3])).unwrap(),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"ph":"M","name":"process_name","pid":3,"tid":0,"args":{"name":"node3"}},"#,
                r#"{"ph":"M","name":"thread_name","pid":3,"tid":0,"args":{"name":"rank0 (gpu0)"}},"#,
                r#"{"ph":"M","name":"thread_sort_index","pid":3,"tid":0,"args":{"sort_index":0}},"#,
                r#"{"ph":"X","name":"Gemm","cat":"compute","pid":3,"tid":0,"ts":500000,"dur":250000,"#,
                r#""args":{"iteration":2}},"#,
                r#"{"ph":"C","name":"power gpu0","pid":3,"tid":0,"ts":100000,"args":{"watts":300.5}}"#,
                r#"],"displayTimeUnit":"ms"}"#,
            )
        );
    }
}
