//! Property-based tests for the flow arena's slot reuse.
//!
//! The engine keys per-flow state, its completion-calendar entry included,
//! by stable arena slot, and recycles a slot only after retirement has
//! removed everything that refers to it. The property below drives
//! `FlowArena` through arbitrary alloc/free schedules and checks the
//! liveness bookkeeping the engine's retire path depends on.

use proptest::prelude::*;

use charllm_sim::FlowArena;

/// A random interleaving of allocations and frees. `true` allocates;
/// `false` frees the newest live slot (when one exists).
fn arb_schedule() -> impl Strategy<Value = Vec<bool>> {
    collection::vec(any::<bool>(), 1..200)
}

proptest! {
    /// Liveness and slot-reuse accounting stay consistent under arbitrary
    /// schedules: no slot is handed out while it is live, and the arena
    /// only grows when the free list is empty.
    #[test]
    fn live_count_and_reuse_accounting_are_exact(schedule in arb_schedule()) {
        let mut fa = FlowArena::new();
        let mut live: Vec<u32> = Vec::new();
        let mut frees = 0u64;
        let mut allocs = 0u64;
        for alloc in schedule {
            if alloc {
                let slot = fa.alloc();
                allocs += 1;
                prop_assert!((slot as usize) < fa.num_slots());
                prop_assert!(!live.contains(&slot), "slot {} handed out while live", slot);
                live.push(slot);
            } else if !live.is_empty() {
                fa.free(live.pop().unwrap());
                frees += 1;
            }
        }
        // Every allocation either grew the arena or reused a freed slot.
        prop_assert_eq!(fa.num_slots() as u64 + fa.slot_reuses(), allocs);
        // LIFO reuse can never exceed the number of frees.
        prop_assert!(fa.slot_reuses() <= frees);
    }
}
