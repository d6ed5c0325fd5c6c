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
//!   moves the segment's movement into `moved_acc` and out of
//!   `remaining`, so traffic charges stay a pure per-flow function);
//! - the **rank flush** at every control tick (the thermal step reads the
//!   activity accumulators, and it is also where frequency steps land);
//! - the **flow flush** ([`take_flow_pending`]) only where flow traffic is
//!   read: the telemetry sample boundary (`pcie_window_bytes`), the start
//!   of a fail-stop outage, and run end;
//! - completions: a retiring flow charges `moved_acc + remaining`, the
//!   whole of its unflushed movement including the sub-unit residual.
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

/// Close a flow's open segment at its *current* rate: its movement goes
/// into `moved_acc` and out of `remaining`, and the segment restarts at
/// `now`. Called exactly when the cached rate is about to change bit-wise
/// — both engines compare bits, so they bank at the same instants and the
/// banked sums match.
#[inline]
pub(crate) fn bank_flow_segment(
    rate: f64,
    now: f64,
    acc_since: &mut f64,
    moved_acc: &mut f64,
    remaining: &mut f64,
) {
    let seg = rate * (now - *acc_since);
    *moved_acc += seg;
    *remaining -= seg;
    *acc_since = now;
}

/// Close a flow's open segment at `now` and drain its accumulated
/// movement (banked + the open segment). The caller converts the returned
/// work units into payload charges.
#[inline]
pub(crate) fn take_flow_pending(
    rate: f64,
    now: f64,
    acc_since: &mut f64,
    moved_acc: &mut f64,
    remaining: &mut f64,
) -> f64 {
    bank_flow_segment(rate, now, acc_since, moved_acc, remaining);
    std::mem::take(moved_acc)
}
