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
//! a **stable slot**. Slots are recycled through a LIFO free list. Nothing
//! outside the engine refers to a freed slot: retirement removes the
//! flow's completion-calendar entry (the calendar keeps one entry per
//! owner, keyed by slot) before the slot is freed, so a recycled slot
//! starts clean. At steady state the flow lifecycle performs no
//! allocation: launching pops a slot, retiring pushes it back.
//!
//! Iteration order is owned by the engine (a separate dense `flow_order`
//! list replicating the reference simulator's `swap_remove` order), not by
//! the arena — the arena only owns storage and slot lifetime.

/// Maximum links in a single flow route: the capacity of
/// [`FlowArena::link_pos`], checked where the engine resolves a route.
pub const MAX_ROUTE_LINKS: usize = 8;

/// Structure-of-arrays storage for live flows, indexed by stable slot.
///
/// All field vectors share the same length (`num_slots`). The engine
/// accesses fields directly so disjoint borrows stay visible to the borrow
/// checker (a rate change banks into `acc_since` and `remaining` through
/// two simultaneous `&mut` borrows).
#[derive(Debug, Default)]
pub struct FlowArena {
    /// Work remaining as of `acc_since`, in route-work units (bytes ×
    /// multiplier); see `crate::accrual::left_after` for the current value.
    pub remaining: Vec<f64>,
    /// Last computed bottleneck rate (units/s).
    pub rate: Vec<f64>,
    /// Time the flow's progress was last brought current (segment start
    /// for lazy accrual; see `crate::accrual::bank_flow_segment`).
    pub acc_since: Vec<f64>,
    /// The engine's `next_dt` pass in which `rate` was last computed. A
    /// stamp left by a recycled slot's previous flow is from an earlier
    /// pass than any the new flow meets.
    pub rated_pass: Vec<u64>,
    /// Position of this flow in each route link's membership list.
    pub link_pos: Vec<[u32; MAX_ROUTE_LINKS]>,
    /// Owning collective slab index.
    pub coll: Vec<u32>,
    /// Iteration the owning collective belongs to.
    pub iteration: Vec<u32>,
    /// Index of this flow's interned plan entry (`PlanFlowRef`).
    pub pf: Vec<u32>,
    /// Position of this flow in the engine's `flow_order`.
    pub order_pos: Vec<u32>,
    free: Vec<u32>,
    slot_reuses: u64,
}

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlowArena::default()
    }

    /// Allocate a slot, reusing a freed one when available. Field values
    /// are stale until the caller writes them.
    pub fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slot_reuses += 1;
            return slot;
        }
        let slot = u32::try_from(self.remaining.len()).expect("flow arena exceeds u32 slots");
        self.remaining.push(0.0);
        self.rate.push(0.0);
        self.acc_since.push(0.0);
        self.rated_pass.push(0);
        self.link_pos.push([0; MAX_ROUTE_LINKS]);
        self.coll.push(0);
        self.iteration.push(0);
        self.pf.push(0);
        self.order_pos.push(0);
        slot
    }

    /// Release a slot back to the free list.
    pub fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Total slots ever created (live + free).
    pub fn num_slots(&self) -> usize {
        self.remaining.len()
    }

    /// How many allocations were served from the free list.
    pub fn slot_reuses(&self) -> u64 {
        self.slot_reuses
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
        fa.free(a);
        let c = fa.alloc();
        assert_eq!(c, a, "freed slot is recycled");
        assert_eq!(fa.slot_reuses(), 1);
        assert_eq!(fa.num_slots(), 2);
    }
}
