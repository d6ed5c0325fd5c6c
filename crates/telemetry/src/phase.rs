//! Phase attribution: where each rank's wall time and joules went.
//!
//! Folds a [`SpanRecorder`]'s span streams into the paper's per-phase
//! taxonomy (Figs. 4, 6–7): every instant of every rank's timeline lands in
//! exactly one [`Phase`] bucket, so per-rank phase seconds sum to the run's
//! makespan, and each GPU's measured energy is split across the same
//! buckets by integrating the control-period power windows over the phase
//! intervals — so per-rank phase joules sum to that GPU's measured energy.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::spans::{PowerTick, SpanKind, SpanRecorder};
use charllm_trace::KernelClass;

/// Wall-time/energy attribution buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Running a compute kernel with no communication touching the GPU.
    Compute,
    /// Running a compute kernel while flows touch the GPU: communication
    /// hidden under compute (the overlap the paper's Fig. 11 elongates).
    OverlappedComm,
    /// Blocked on a non-P2P collective (TP/DP/EP exposed communication).
    ExposedComm,
    /// Blocked on pipeline P2P traffic (bubble in the 1F1B schedule).
    PipelineBubble,
    /// Timeline not covered by any span: before the collective a rank was
    /// woken from is rescheduled, or after the rank finished while others
    /// still run.
    Stall,
}

impl Phase {
    /// All phases in display order.
    pub fn all() -> [Phase; 5] {
        [
            Phase::Compute,
            Phase::OverlappedComm,
            Phase::ExposedComm,
            Phase::PipelineBubble,
            Phase::Stall,
        ]
    }

    fn idx(self) -> usize {
        match self {
            Phase::Compute => 0,
            Phase::OverlappedComm => 1,
            Phase::ExposedComm => 2,
            Phase::PipelineBubble => 3,
            Phase::Stall => 4,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Compute => "compute",
            Phase::OverlappedComm => "overlapped-comm",
            Phase::ExposedComm => "exposed-comm",
            Phase::PipelineBubble => "pipeline-bubble",
            Phase::Stall => "stall",
        };
        f.write_str(s)
    }
}

/// Seconds and joules per [`Phase`] for one rank (or aggregated).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    seconds: [f64; 5],
    energy_j: [f64; 5],
}

impl PhaseBreakdown {
    /// Add wall time to a phase.
    pub fn add_seconds(&mut self, phase: Phase, s: f64) {
        self.seconds[phase.idx()] += s;
    }

    /// Add energy to a phase.
    pub fn add_energy(&mut self, phase: Phase, j: f64) {
        self.energy_j[phase.idx()] += j;
    }

    /// Wall time of a phase, seconds.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.seconds[phase.idx()]
    }

    /// Energy of a phase, joules.
    pub fn energy_j(&self, phase: Phase) -> f64 {
        self.energy_j[phase.idx()]
    }

    /// Total wall time across phases, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Total energy across phases, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j.iter().sum()
    }

    /// Element-wise sum.
    #[must_use]
    pub fn merged(&self, other: &PhaseBreakdown) -> PhaseBreakdown {
        let mut out = self.clone();
        for i in 0..5 {
            out.seconds[i] += other.seconds[i];
            out.energy_j[i] += other.energy_j[i];
        }
        out
    }
}

/// Aggregate busy time of one span label (kernel kind or collective).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTotal {
    /// Label (`"Gemm"`, `"AllReduce[c12]"`, ...).
    pub label: String,
    /// Total busy seconds across all ranks.
    pub seconds: f64,
    /// Number of spans.
    pub count: u64,
}

/// The folded observability output attached to a profiled `SimResult`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Per-rank phase breakdown over the whole run (seconds tile
    /// `[0, makespan]`; joules tile the GPU's measured energy).
    pub rank_phases: Vec<PhaseBreakdown>,
    /// Per-iteration, per-rank phase breakdown (`[iteration][rank]`).
    pub iteration_phases: Vec<Vec<PhaseBreakdown>>,
    /// Span totals sorted by descending busy time (report takes top-k).
    pub top_spans: Vec<SpanTotal>,
    /// Run makespan the per-rank seconds tile, seconds.
    pub makespan_s: f64,
}

impl Profile {
    /// Sum of all ranks' breakdowns.
    pub fn cluster_total(&self) -> PhaseBreakdown {
        self.rank_phases
            .iter()
            .fold(PhaseBreakdown::default(), |acc, b| acc.merged(b))
    }

    /// Number of ranks profiled.
    pub fn world(&self) -> usize {
        self.rank_phases.len()
    }
}

/// One attributed interval on a rank's timeline.
#[derive(Debug, Clone, Copy)]
struct Interval {
    t0: f64,
    t1: f64,
    iteration: u32,
    phase: Phase,
}

/// Fold a recorder's streams into a [`Profile`].
///
/// `end_time_s` is the run makespan (`SimResult::sim_time_s`); every rank's
/// timeline is tiled over `[0, end_time_s]`. `iterations` sizes the
/// per-iteration tables (span iterations are clamped into range).
pub fn attribute(rec: &SpanRecorder, end_time_s: f64, iterations: usize) -> Profile {
    let world = rec.world();
    let iterations = iterations.max(1);
    let busy = comm_busy_by_gpu(rec, end_time_s);
    let ticks = measuring_ticks_by_gpu(rec);

    let mut rank_phases = vec![PhaseBreakdown::default(); world];
    let mut iteration_phases = vec![vec![PhaseBreakdown::default(); world]; iterations];
    // Keyed by a compact packed id rather than the label String so the
    // per-span hot loop allocates nothing; one representative `SpanKind` is
    // kept per key and its label materialized once at the end.
    let mut totals: HashMap<u64, (f64, u64, SpanKind)> = HashMap::new();

    for rank in 0..world {
        let empty = Vec::new();
        let gpu_busy = rec
            .gpu_of_rank(rank)
            .and_then(|g| busy.get(&g))
            .unwrap_or(&empty);
        let intervals = rank_intervals(rec, rank, end_time_s, gpu_busy, iterations);

        for span in rec.spans(rank) {
            let key = match span.kind {
                SpanKind::Compute { kind } => kind as u64,
                SpanKind::Collective { coll, .. } => (1 << 32) | u64::from(coll),
            };
            let e = totals.entry(key).or_insert((0.0, 0, span.kind));
            e.0 += span.dur_s();
            e.1 += 1;
        }
        for iv in &intervals {
            let dur = iv.t1 - iv.t0;
            rank_phases[rank].add_seconds(iv.phase, dur);
            iteration_phases[iv.iteration as usize][rank].add_seconds(iv.phase, dur);
        }
        let gpu_ticks = rec
            .gpu_of_rank(rank)
            .and_then(|g| ticks.get(&g))
            .map_or(&[][..], Vec::as_slice);
        attribute_energy(
            gpu_ticks,
            rank,
            &intervals,
            &mut rank_phases,
            &mut iteration_phases,
        );
    }

    let mut top_spans: Vec<SpanTotal> = totals
        .into_values()
        .map(|(seconds, count, kind)| SpanTotal {
            label: kind.label(),
            seconds,
            count,
        })
        .collect();
    top_spans.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.label.cmp(&b.label)));

    Profile {
        rank_phases,
        iteration_phases,
        top_spans,
        makespan_s: end_time_s,
    }
}

/// Merged intervals during which ≥1 flow touches each GPU (as src or dst).
fn comm_busy_by_gpu(rec: &SpanRecorder, end_time_s: f64) -> HashMap<u32, Vec<(f64, f64)>> {
    let mut events: HashMap<u32, Vec<(f64, i32)>> = HashMap::new();
    let mut push = |gpu: u32, t0: f64, t1: f64| {
        let e = events.entry(gpu).or_default();
        e.push((t0, 1));
        e.push((t1, -1));
    };
    for f in rec.flows() {
        push(f.src_gpu, f.t0_s, f.t1_s);
        if f.dst_gpu != f.src_gpu {
            push(f.dst_gpu, f.t0_s, f.t1_s);
        }
    }
    for f in rec.open_flows() {
        push(f.src_gpu, f.t0_s, end_time_s);
        if f.dst_gpu != f.src_gpu {
            push(f.dst_gpu, f.t0_s, end_time_s);
        }
    }
    let mut busy = HashMap::new();
    for (gpu, mut ev) in events {
        ev.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut depth = 0i32;
        let mut start = 0.0f64;
        for (t, d) in ev {
            if depth == 0 && d > 0 {
                start = t;
            }
            depth += d;
            if depth == 0 && d < 0 && t > start {
                match out.last_mut() {
                    // Merge abutting intervals so the list stays minimal.
                    Some(last) if start <= last.1 => last.1 = last.1.max(t),
                    _ => out.push((start, t)),
                }
            }
        }
        busy.insert(gpu, out);
    }
    busy
}

/// Tile one rank's `[0, end_time_s]` with phase intervals: spans become
/// compute/comm phases (compute split against the GPU's comm-busy windows),
/// uncovered time becomes [`Phase::Stall`].
fn rank_intervals(
    rec: &SpanRecorder,
    rank: usize,
    end_time_s: f64,
    gpu_busy: &[(f64, f64)],
    iterations: usize,
) -> Vec<Interval> {
    let max_iter = (iterations - 1) as u32;
    let mut out = Vec::new();
    let mut cursor = 0.0f64;
    let mut busy_ptr = 0usize;
    let mut last_iter = 0u32;
    for span in rec.spans(rank) {
        let iter = span.iteration.min(max_iter);
        last_iter = iter;
        let t0 = span.t0_s.max(cursor);
        let t1 = span.t1_s.max(t0);
        if t0 > cursor {
            out.push(Interval {
                t0: cursor,
                t1: t0,
                iteration: iter,
                phase: Phase::Stall,
            });
        }
        match span.kind {
            SpanKind::Collective { class, .. } => {
                let phase = if class == KernelClass::SendRecv {
                    Phase::PipelineBubble
                } else {
                    Phase::ExposedComm
                };
                out.push(Interval {
                    t0,
                    t1,
                    iteration: iter,
                    phase,
                });
            }
            SpanKind::Compute { .. } => {
                split_compute(t0, t1, iter, gpu_busy, &mut busy_ptr, &mut out);
            }
        }
        cursor = t1;
    }
    if end_time_s > cursor {
        out.push(Interval {
            t0: cursor,
            t1: end_time_s,
            iteration: last_iter,
            phase: Phase::Stall,
        });
    }
    out
}

/// Split a compute span `[a, b]` into [`Phase::Compute`] and
/// [`Phase::OverlappedComm`] parts against the GPU's comm-busy intervals.
/// `busy_ptr` advances monotonically across a rank's (time-ordered) spans.
fn split_compute(
    a: f64,
    b: f64,
    iteration: u32,
    busy: &[(f64, f64)],
    busy_ptr: &mut usize,
    out: &mut Vec<Interval>,
) {
    while *busy_ptr < busy.len() && busy[*busy_ptr].1 <= a {
        *busy_ptr += 1;
    }
    let mut cursor = a;
    let mut j = *busy_ptr;
    while j < busy.len() && busy[j].0 < b {
        let (b0, b1) = busy[j];
        let o0 = b0.max(cursor);
        let o1 = b1.min(b);
        if o0 > cursor {
            out.push(Interval {
                t0: cursor,
                t1: o0,
                iteration,
                phase: Phase::Compute,
            });
        }
        if o1 > o0 {
            out.push(Interval {
                t0: o0,
                t1: o1,
                iteration,
                phase: Phase::OverlappedComm,
            });
            cursor = o1;
        }
        if b1 >= b {
            break;
        }
        j += 1;
    }
    if b > cursor {
        out.push(Interval {
            t0: cursor,
            t1: b,
            iteration,
            phase: Phase::Compute,
        });
    }
}

/// Each GPU's measuring power ticks, in recorded order.
fn measuring_ticks_by_gpu(rec: &SpanRecorder) -> HashMap<u32, Vec<&PowerTick>> {
    let mut ticks: HashMap<u32, Vec<&PowerTick>> = HashMap::new();
    for tick in rec.power_ticks().iter().filter(|t| t.measuring) {
        ticks.entry(tick.gpu).or_default().push(tick);
    }
    ticks
}

/// Split each measuring power window of the rank's GPU (`ticks`, in
/// recorded order) across the rank's phase intervals by time overlap.
/// Because the intervals tile `[0, end]`, the split conserves
/// `power × period` per window exactly.
fn attribute_energy(
    ticks: &[&PowerTick],
    rank: usize,
    intervals: &[Interval],
    rank_phases: &mut [PhaseBreakdown],
    iteration_phases: &mut [Vec<PhaseBreakdown>],
) {
    let mut ptr = 0usize;
    for tick in ticks {
        let w0 = (tick.t_s - tick.period_s).max(0.0);
        let w1 = tick.t_s;
        while ptr < intervals.len() && intervals[ptr].t1 <= w0 {
            ptr += 1;
        }
        let mut j = ptr;
        while j < intervals.len() && intervals[j].t0 < w1 {
            let iv = intervals[j];
            let ov = iv.t1.min(w1) - iv.t0.max(w0);
            if ov > 0.0 {
                let e = tick.power_w * ov;
                rank_phases[rank].add_energy(iv.phase, e);
                iteration_phases[iv.iteration as usize][rank].add_energy(iv.phase, e);
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_trace::ComputeKind;

    fn compute(kind: ComputeKind) -> SpanKind {
        SpanKind::Compute { kind }
    }

    #[test]
    fn phases_tile_the_makespan() {
        let mut r = SpanRecorder::new();
        r.begin_task(0, 0, 0, compute(ComputeKind::Gemm), 0.0);
        r.end_task(0, 4.0);
        r.begin_task(
            0,
            0,
            0,
            SpanKind::Collective {
                coll: 0,
                class: KernelClass::AllReduce,
            },
            4.0,
        );
        r.end_task(0, 6.0);
        let p = attribute(&r, 10.0, 1);
        let b = &p.rank_phases[0];
        assert!((b.seconds(Phase::Compute) - 4.0).abs() < 1e-12);
        assert!((b.seconds(Phase::ExposedComm) - 2.0).abs() < 1e-12);
        assert!((b.seconds(Phase::Stall) - 4.0).abs() < 1e-12);
        assert!((b.total_seconds() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn compute_splits_against_comm_busy_windows() {
        let mut r = SpanRecorder::new();
        r.begin_task(0, 0, 0, compute(ComputeKind::Gemm), 0.0);
        r.end_task(0, 10.0);
        // Flow touches gpu 0 during [2, 5].
        r.flow_launch(0, 0, 0, 0, 1, 2.0);
        r.flow_retire(0, 5.0);
        let p = attribute(&r, 10.0, 1);
        let b = &p.rank_phases[0];
        assert!((b.seconds(Phase::OverlappedComm) - 3.0).abs() < 1e-12);
        assert!((b.seconds(Phase::Compute) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn sendrecv_waits_count_as_pipeline_bubble() {
        let mut r = SpanRecorder::new();
        r.begin_task(
            0,
            0,
            1,
            SpanKind::Collective {
                coll: 3,
                class: KernelClass::SendRecv,
            },
            0.0,
        );
        r.end_task(0, 2.0);
        let p = attribute(&r, 2.0, 2);
        assert!((p.rank_phases[0].seconds(Phase::PipelineBubble) - 2.0).abs() < 1e-12);
        // Attributed to iteration 1.
        assert!((p.iteration_phases[1][0].seconds(Phase::PipelineBubble) - 2.0).abs() < 1e-12);
        assert_eq!(p.iteration_phases[0][0].total_seconds(), 0.0);
    }

    #[test]
    fn energy_conserves_measured_windows() {
        let mut r = SpanRecorder::new();
        r.begin_task(0, 0, 0, compute(ComputeKind::Gemm), 0.0);
        r.end_task(0, 6.0);
        // Three 2-second windows at 100 W; the middle one not measuring.
        r.power_tick(0, 2.0, 100.0, 2.0, true);
        r.power_tick(0, 4.0, 100.0, 2.0, false);
        r.power_tick(0, 6.0, 100.0, 2.0, true);
        let p = attribute(&r, 6.0, 1);
        let b = &p.rank_phases[0];
        assert!((b.total_energy_j() - 400.0).abs() < 1e-9);
        assert!((b.energy_j(Phase::Compute) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_gpu_ticks_split_into_exact_phase_energies() {
        // Rank 0 on GPU 0 computes over [0, 3] and stalls to 4; rank 1 on
        // GPU 1 computes over [0, 1] and is in an AllReduce to 4. Their
        // 2-second power windows are recorded interleaved, plus one
        // non-measuring GPU 1 window that must not count.
        let mut r = SpanRecorder::new();
        r.begin_task(0, 0, 0, compute(ComputeKind::Gemm), 0.0);
        r.end_task(0, 3.0);
        r.begin_task(1, 1, 0, compute(ComputeKind::Gemm), 0.0);
        r.end_task(1, 1.0);
        let all_reduce = SpanKind::Collective {
            coll: 0,
            class: KernelClass::AllReduce,
        };
        r.begin_task(1, 1, 0, all_reduce, 1.0);
        r.end_task(1, 4.0);
        r.power_tick(1, 2.0, 999.0, 2.0, false);
        r.power_tick(0, 2.0, 100.0, 2.0, true);
        r.power_tick(1, 2.0, 50.0, 2.0, true);
        r.power_tick(0, 4.0, 200.0, 2.0, true);
        r.power_tick(1, 4.0, 70.0, 2.0, true);
        let p = attribute(&r, 4.0, 1);
        let energies = |b: &PhaseBreakdown| {
            [Phase::Compute, Phase::ExposedComm, Phase::Stall].map(|ph| b.energy_j(ph))
        };
        assert_eq!(energies(&p.rank_phases[0]), [400.0, 0.0, 200.0]);
        assert_eq!(energies(&p.rank_phases[1]), [50.0, 190.0, 0.0]);
        assert_eq!(energies(&p.iteration_phases[0][0]), [400.0, 0.0, 200.0]);
        assert_eq!(energies(&p.iteration_phases[0][1]), [50.0, 190.0, 0.0]);
    }

    #[test]
    fn top_spans_sorted_by_busy_time() {
        let mut r = SpanRecorder::new();
        r.begin_task(0, 0, 0, compute(ComputeKind::Gemm), 0.0);
        r.end_task(0, 5.0);
        r.begin_task(0, 0, 0, compute(ComputeKind::Attention), 5.0);
        r.end_task(0, 6.0);
        r.begin_task(0, 0, 0, compute(ComputeKind::Gemm), 6.0);
        r.end_task(0, 7.0);
        let p = attribute(&r, 7.0, 1);
        assert_eq!(p.top_spans[0].label, "Gemm");
        assert_eq!(p.top_spans[0].count, 2);
        assert!((p.top_spans[0].seconds - 6.0).abs() < 1e-12);
        assert_eq!(p.top_spans[1].label, "Attention");
    }
}
