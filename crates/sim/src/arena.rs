//! Structure-of-arrays arena for in-flight flow state.
//!
//! The unfolded engine used to keep live flows in a dense
//! `Vec<FlowState>` of ~280-byte structs, compacted with `swap_remove` on
//! every retirement. That layout drags five cache lines per flow through
//! the two hot loops (re-rate and advance) even though each loop touches
//! only a couple of fields, and the compaction forces back-pointer fixups
//! in every link membership list and calendar entry whenever an unrelated
//! flow retires.
//!
//! [`FlowArena`] flips the layout: one parallel array per field, indexed by
//! a **stable slot**. Slots are recycled through a LIFO free list and each
//! slot carries a generation stamp that is bumped on free, so any stale
//! reference (most importantly: lazily-deleted calendar entries keyed by
//! `(slot, gen)`) can be detected and dropped instead of resurrecting a
//! dead flow's successor. At steady state the flow lifecycle performs no
//! allocation: launching pops a slot, retiring pushes it back.
//!
//! Iteration order is owned by the engine (a separate dense `flow_order`
//! list replicating the reference simulator's `swap_remove` order), not by
//! the arena — the arena only owns storage and slot lifetime.

/// Maximum links in a single flow route (fixed-capacity inline arrays).
pub const MAX_ROUTE_LINKS: usize = 8;

/// Sentinel for "no calendar location" (mirrors the engine's `LOC_NONE`).
const LOC_NONE: u64 = u64::MAX;

/// Structure-of-arrays storage for live flows, indexed by stable slot.
///
/// All field vectors share the same length (`num_slots`). The engine
/// accesses fields directly so disjoint borrows stay visible to the borrow
/// checker (a rate change banks into `acc_since` and `moved_acc` through
/// two simultaneous `&mut` borrows).
#[derive(Debug, Default)]
pub struct FlowArena {
    /// Work remaining as of `acc_since`, in route-work units (bytes ×
    /// multiplier); see `crate::accrual::left_after` for the current value.
    pub remaining: Vec<f64>,
    /// Last computed bottleneck rate (units/s).
    pub rate: Vec<f64>,
    /// Time the flow's progress and traffic accounting were last brought
    /// current (segment start for lazy accrual).
    pub acc_since: Vec<f64>,
    /// Movement banked at superseded rates since the last traffic flush,
    /// in route-work units (see `crate::accrual::bank_flow_segment`).
    pub moved_acc: Vec<f64>,
    /// `load_epoch` at which `rate` was computed (staleness check).
    pub rate_epoch: Vec<u64>,
    /// Predicted completion time key currently in the calendar.
    pub cal_key: Vec<f64>,
    /// Packed calendar location of this flow's entry (`LOC_NONE` if absent).
    pub cal_loc: Vec<u64>,
    /// Position of this flow in each route link's membership list.
    pub link_pos: Vec<[u32; MAX_ROUTE_LINKS]>,
    /// Owning collective slab index.
    pub coll: Vec<u32>,
    /// Iteration the owning collective belongs to.
    pub iteration: Vec<u32>,
    /// Whether traffic from this flow counts toward measured statistics.
    pub measured: Vec<bool>,
    /// Index of this flow's interned plan entry (`PlanFlowRef`).
    pub pf: Vec<u32>,
    /// Position of this flow in the engine's `flow_order`.
    pub order_pos: Vec<u32>,
    /// Generation stamp; bumped when the slot is freed.
    pub gen: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    slot_reuses: u64,
}

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlowArena::default()
    }

    /// Allocate a slot, reusing a freed one when available. Field values
    /// are stale until the caller writes them; `gen` is already advanced
    /// past every generation the slot has previously held.
    pub fn alloc(&mut self) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            self.slot_reuses += 1;
            return slot;
        }
        let slot = u32::try_from(self.remaining.len()).expect("flow arena exceeds u32 slots");
        self.remaining.push(0.0);
        self.rate.push(0.0);
        self.acc_since.push(0.0);
        self.moved_acc.push(0.0);
        self.rate_epoch.push(0);
        self.cal_key.push(f64::INFINITY);
        self.cal_loc.push(LOC_NONE);
        self.link_pos.push([0; MAX_ROUTE_LINKS]);
        self.coll.push(0);
        self.iteration.push(0);
        self.measured.push(false);
        self.pf.push(0);
        self.order_pos.push(0);
        self.gen.push(0);
        slot
    }

    /// Release a slot back to the free list, invalidating its generation.
    /// Stale `(slot, gen)` references held elsewhere (calendar entries)
    /// will no longer match [`FlowArena::gen`].
    pub fn free(&mut self, slot: u32) {
        self.gen[slot as usize] = self.gen[slot as usize].wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    /// Current generation of `slot`.
    #[inline]
    pub fn generation(&self, slot: u32) -> u32 {
        self.gen[slot as usize]
    }

    /// Number of live (allocated) flows.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + free).
    pub fn num_slots(&self) -> usize {
        self.remaining.len()
    }

    /// How many allocations were served from the free list.
    pub fn slot_reuses(&self) -> u64 {
        self.slot_reuses
    }

    /// Drop every slot and stamp. Used when the engine rebuilds from
    /// scratch; counters are preserved.
    pub fn clear(&mut self) {
        self.remaining.clear();
        self.rate.clear();
        self.acc_since.clear();
        self.moved_acc.clear();
        self.rate_epoch.clear();
        self.cal_key.clear();
        self.cal_loc.clear();
        self.link_pos.clear();
        self.coll.clear();
        self.iteration.clear();
        self.measured.clear();
        self.pf.clear();
        self.order_pos.clear();
        self.gen.clear();
        self.free.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_grows_then_reuses_lifo() {
        let mut fa = FlowArena::new();
        let a = fa.alloc();
        let b = fa.alloc();
        assert_eq!((a, b), (0, 1));
        assert_eq!(fa.live(), 2);
        fa.free(a);
        let c = fa.alloc();
        assert_eq!(c, a, "freed slot is recycled");
        assert_eq!(fa.slot_reuses(), 1);
        assert_eq!(fa.num_slots(), 2);
    }

    #[test]
    fn generation_advances_on_every_free() {
        let mut fa = FlowArena::new();
        let s = fa.alloc();
        let g0 = fa.generation(s);
        fa.free(s);
        assert_ne!(fa.generation(s), g0);
        let s2 = fa.alloc();
        assert_eq!(s2, s);
        let g1 = fa.generation(s2);
        assert_ne!(g1, g0, "stale (slot, gen) refs never match the reused slot");
        fa.free(s2);
        assert_ne!(fa.generation(s), g1);
    }
}
