//! Segment-based lazy accrual of accounting *and* progress, shared by
//! both engines.
//!
//! Between the instants where one of its inputs changes, a rank or a flow
//! evolves linearly: a computing rank burns flops at a fixed rate and
//! charges fixed kernel/activity/occupancy coefficients, and a flow moves
//! bytes at its cached bottleneck rate. So neither engine steps state per
//! event. Each rank and flow remembers the time its state was last
//! brought current (`acc_since`, the segment start) together with the
//! work left *at that instant*; the work left at any later time `T` is
//! [`left_after`]`(remaining, rate, T - acc_since)`, evaluated on demand.
//!
//! A segment is closed — its accounting accrued and its `remaining`
//! materialized — only where an input changes or an accumulator is read:
//!
//! - rank mode transitions (compute start/end, wait block/wake);
//! - a GPU's flow count crossing 0 ↔ 1 (the overlap-activity bonus, the
//!   idle-comm accrual and the compute overlap slowdown key off flow
//!   *presence*), and a straggler fault changing a rank's speed;
//! - a flow's cached rate changing **bit-wise** ([`bank_flow_segment`]
//!   takes the segment's movement out of `remaining`), and the start of a
//!   fail-stop outage (a plain segment close for every live flow);
//! - the **rank flush** at every control tick (the thermal step reads the
//!   activity accumulators, and it is also where frequency steps land).
//!
//! Flows need no flush. A flow's traffic is charged once, when it
//! retires: its whole lowered payload, `work × payload_ratio`. Its PCIe
//! telemetry is a per-GPU payload *rate* in [`PcieWindow`], which changes
//! only where the flow's rate changes bit-wise and where it retires; a
//! telemetry sample accrues each sampled GPU's window to the sample time,
//! so its cost scales with the GPUs, not with the live flows.
//!
//! Completion predicates read the lazy form: an entity completes in an
//! event of length `dt` when
//! `left_after(remaining, rate, (t - acc_since) + dt) <= 1.0`. Both
//! engines evaluate the same expressions at the same instants and close
//! segments at identically ordered sites, which keeps their results
//! byte-identical; the production engine just evaluates them for far
//! fewer entities (only the completion-calendar candidates).

use charllm_trace::{ComputeKind, KernelClass};

use crate::engine::kernel_pressure;
use crate::result::KernelBreakdown;

/// Accrue one computing segment of length `len` for a rank: measured
/// kernel time, GPU activity (with the comm-overlap bonus when flows are
/// present), utilization, and occupancy pressure.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn accrue_computing(
    len: f64,
    kind: ComputeKind,
    flows_present: bool,
    measured: bool,
    kernel: &mut KernelBreakdown,
    activity: &mut f64,
    util: &mut f64,
    occ: &mut (f64, f64, f64),
) {
    if measured {
        kernel.add(KernelClass::of_compute(kind), len);
    }
    let act = kind.activity() + if flows_present { 0.25 } else { 0.0 };
    *activity += act.min(1.0) * len;
    *util += len;
    let (w, tb) = kernel_pressure(kind);
    let comm = if flows_present { 1.0 } else { 0.0 };
    occ.0 += len;
    occ.1 += (w + 0.2 * comm) * len;
    occ.2 += (tb + 0.1 * comm) * len;
}

/// Accrue one collective-wait segment: communication kernels keep the SMs
/// occupied at low pressure (the paper's "prolonged communication kernels"
/// sustaining occupancy).
#[inline]
pub(crate) fn accrue_waiting(
    len: f64,
    class: KernelClass,
    measured: bool,
    kernel: &mut KernelBreakdown,
    activity: &mut f64,
    util: &mut f64,
    occ: &mut (f64, f64, f64),
) {
    if measured {
        kernel.add(class, len);
    }
    *activity += 0.38 * len;
    *util += len;
    occ.0 += len;
    occ.1 += 0.2 * len;
    occ.2 += 0.1 * len;
}

/// Accrue one idle-with-flows segment: eager-send flows may still be
/// flying over an otherwise idle GPU; count comm presence lightly.
#[inline]
pub(crate) fn accrue_idle(len: f64, activity: &mut f64) {
    *activity += 0.38 * len;
}

/// Work left `elapsed` seconds into a segment that started with
/// `remaining` units at `rate` units/s. The one progress formula both
/// engines use for time-step candidates, completion tests and
/// materialization.
#[inline]
pub(crate) fn left_after(remaining: f64, rate: f64, elapsed: f64) -> f64 {
    remaining - rate * elapsed
}

/// Close a flow's open segment at its *current* rate: its movement comes
/// out of `remaining`, and the segment restarts at `now`. Called exactly
/// when the cached rate is about to change bit-wise — both engines compare
/// bits, so they bank at the same instants — and at a fail-stop outage
/// start.
#[inline]
pub(crate) fn bank_flow_segment(rate: f64, now: f64, acc_since: &mut f64, remaining: &mut f64) {
    *remaining -= rate * (now - *acc_since);
    *acc_since = now;
}

/// One GPU's PCIe telemetry window (see [`PcieWindow`]).
#[derive(Debug, Clone, Copy, Default)]
struct GpuPcie {
    /// Payload rate of the GPU's live PCIe flows, whole bytes/s.
    rate: u64,
    /// Time `bytes` was last accrued to.
    since: f64,
    /// Payload bytes accrued since the last sample took them.
    bytes: f64,
}

impl GpuPcie {
    #[inline]
    fn accrue(&mut self, now: f64) {
        self.bytes += self.rate as f64 * (now - self.since);
        self.since = now;
    }
}

/// Per-GPU PCIe payload telemetry: each GPU's payload rate, integrated
/// over the telemetry window. Shared by both engines.
///
/// A live flow whose route crosses a GPU's PCIe link adds
/// [`PcieWindow::contribution`] of its current rate to that GPU's rate.
/// The rate is an integer, so a sum of contributions does not depend on
/// the order they are added or removed in: the engine's dirty-link
/// re-rate order and the reference's dense order give the same bits, and
/// a GPU's rate is exactly 0 again once its last flow leaves. A change
/// first accrues the window at the rate that held until it; a sample
/// accrues it to the sample time and takes its bytes.
#[derive(Debug)]
pub(crate) struct PcieWindow {
    gpus: Vec<GpuPcie>,
}

impl PcieWindow {
    /// Empty windows for `num_gpus` GPUs, starting at time 0.
    pub(crate) fn new(num_gpus: usize) -> Self {
        PcieWindow {
            gpus: vec![GpuPcie::default(); num_gpus],
        }
    }

    /// A flow's contribution to its PCIe owners' payload rate: its rate in
    /// route-work units/s times its payload ratio, truncated to whole
    /// bytes/s (a cast, not a libm `round`).
    #[inline]
    pub(crate) fn contribution(rate: f64, payload_ratio: f64) -> u64 {
        (rate * payload_ratio) as u64
    }

    /// Replace a flow's contribution `old` to `gpu`'s rate with `new` at
    /// `now` (a flow joins with `old == 0` and leaves with `new == 0`).
    #[inline]
    pub(crate) fn shift(&mut self, gpu: usize, now: f64, old: u64, new: u64) {
        let w = &mut self.gpus[gpu];
        w.accrue(now);
        w.rate = w.rate - old + new;
    }

    /// Accrue every GPU's window to `now`: the start of an outage, whose
    /// span must move no byte.
    pub(crate) fn accrue_all(&mut self, now: f64) {
        for w in &mut self.gpus {
            w.accrue(now);
        }
    }

    /// `gpu`'s window bytes accrued to `now`; the next window starts empty.
    #[inline]
    pub(crate) fn take(&mut self, gpu: usize, now: f64) -> f64 {
        let w = &mut self.gpus[gpu];
        w.accrue(now);
        std::mem::take(&mut w.bytes)
    }

    /// `gpu`'s window bytes during an outage: what accrued before it, with
    /// nothing accrued since.
    #[inline]
    pub(crate) fn take_frozen(&mut self, gpu: usize) -> f64 {
        std::mem::take(&mut self.gpus[gpu].bytes)
    }

    /// Restart every window's accrual at `now` without accruing: the end
    /// of an outage.
    pub(crate) fn rebase(&mut self, now: f64) {
        for w in &mut self.gpus {
            w.since = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATIO: f64 = 0.75;

    /// Flow rates (route-work units/s) joining and leaving GPU 0, each a
    /// `(old, new)` contribution change at the given time.
    fn changes() -> Vec<(f64, u64, u64)> {
        let c = |rate| PcieWindow::contribution(rate, RATIO);
        vec![
            (0.1, 0, c(12.5e9)),
            (0.1, 0, c(3.3e9)),
            (0.1, 0, c(7.123_456_789e9)),
            (0.25, c(12.5e9), c(6.25e9)),
            (0.25, c(3.3e9), c(1.1e9)),
            (0.25, 0, c(2.0e9 / 3.0)),
        ]
    }

    #[test]
    fn change_order_does_not_move_window_bytes() {
        let run = |order: &[usize]| {
            let mut w = PcieWindow::new(1);
            let all = changes();
            // Changes at one instant apply in `order`; instants stay
            // ascending.
            for t in [0.1, 0.25] {
                for &i in order {
                    let (at, old, new) = all[i];
                    if at == t {
                        w.shift(0, at, old, new);
                    }
                }
            }
            (w.take(0, 0.3).to_bits(), w.gpus[0].rate)
        };
        let forward = run(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(forward, run(&[5, 2, 4, 1, 3, 0]));
        assert_eq!(forward, run(&[2, 0, 1, 5, 4, 3]));
        assert!(f64::from_bits(forward.0) > 0.0);
    }

    #[test]
    fn rate_returns_to_zero_when_the_last_flow_leaves() {
        let mut w = PcieWindow::new(2);
        let (a, b) = (
            PcieWindow::contribution(9.87e9, RATIO),
            PcieWindow::contribution(1.234_567e9, RATIO),
        );
        w.shift(1, 0.0, 0, a);
        w.shift(1, 0.01, 0, b);
        w.shift(1, 0.02, a, 0);
        w.shift(1, 0.03, b, 0);
        assert_eq!(w.gpus[1].rate, 0);
        assert!(w.take(1, 0.05) > 0.0);
        assert_eq!(w.take(1, 0.1).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.take(1, 0.15).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.take(0, 0.15).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn frozen_take_accrues_nothing() {
        let mut w = PcieWindow::new(1);
        w.shift(0, 0.0, 0, 1_000);
        assert_eq!(w.take_frozen(0), 0.0);
        assert_eq!(w.take_frozen(0), 0.0);
        // The clock never moved for the window: a live take still sees the
        // whole span since the shift.
        assert_eq!(w.take(0, 2.0), 2_000.0);
    }

    #[test]
    fn outage_span_is_dropped() {
        let mut w = PcieWindow::new(1);
        w.shift(0, 0.0, 0, 1_000);
        // An outage from 1 s to 31 s, sampled every 5 s inside it.
        w.accrue_all(1.0);
        assert_eq!(w.take_frozen(0), 1_000.0, "the window's pre-outage bytes");
        for _ in 0..5 {
            assert_eq!(w.take_frozen(0), 0.0);
        }
        w.rebase(31.0);
        assert_eq!(w.take(0, 33.0), 2_000.0, "only the 2 s after the outage");
    }
}
