//! Rank-to-parallel-coordinate mapping in the NeMo/Megatron order.
//!
//! Both frameworks assign ranks in the order **TP → EP → DP → PP** (§3.1):
//! tensor-parallel neighbours get consecutive ranks (and therefore land in
//! the same node under the default placement), while pipeline stages are the
//! slowest-varying dimension (and therefore span nodes). This ordering is
//! what makes TP communication node-local and PP communication cross-node in
//! the paper's measurements.

use serde::{Deserialize, Serialize};

use crate::spec::ParallelismSpec;

/// The coordinates of a rank in the 4-D parallelism grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RankCoords {
    /// Tensor-parallel index (fastest-varying).
    pub tp: usize,
    /// Expert-parallel index.
    pub ep: usize,
    /// Data-parallel index.
    pub dp: usize,
    /// Pipeline stage (slowest-varying).
    pub pp: usize,
}

/// Bidirectional rank ↔ coordinate mapping plus communication-group queries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankGrid {
    spec: ParallelismSpec,
}

impl RankGrid {
    /// Build the grid for a spec.
    pub fn new(spec: ParallelismSpec) -> Self {
        RankGrid { spec }
    }

    /// The spec this grid was built from.
    pub fn spec(&self) -> &ParallelismSpec {
        &self.spec
    }

    /// Total ranks.
    pub fn world(&self) -> usize {
        self.spec.world()
    }

    /// Coordinates of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world()`.
    pub fn coords(&self, rank: usize) -> RankCoords {
        assert!(rank < self.world(), "rank {rank} out of range");
        let s = &self.spec;
        let tp = rank % s.tp;
        let ep = (rank / s.tp) % s.ep;
        let dp = (rank / (s.tp * s.ep)) % s.dp;
        let pp = rank / (s.tp * s.ep * s.dp);
        RankCoords { tp, ep, dp, pp }
    }

    /// Rank of a coordinate tuple.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate exceeds its width.
    pub fn rank(&self, c: RankCoords) -> usize {
        let s = &self.spec;
        assert!(
            c.tp < s.tp && c.ep < s.ep && c.dp < s.dp && c.pp < s.pp,
            "coords out of range"
        );
        c.tp + s.tp * (c.ep + s.ep * (c.dp + s.dp * c.pp))
    }

    /// The tensor-parallel group of a rank (all ranks differing only in tp).
    pub fn tp_group(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        (0..self.spec.tp)
            .map(|tp| self.rank(RankCoords { tp, ..c }))
            .collect()
    }

    /// The expert-parallel group of a rank.
    pub fn ep_group(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        (0..self.spec.ep)
            .map(|ep| self.rank(RankCoords { ep, ..c }))
            .collect()
    }

    /// The data-parallel group of a rank (gradient AllReduce / FSDP group).
    pub fn dp_group(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        (0..self.spec.dp)
            .map(|dp| self.rank(RankCoords { dp, ..c }))
            .collect()
    }

    /// The pipeline group of a rank, ordered by stage.
    pub fn pp_group(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        (0..self.spec.pp)
            .map(|pp| self.rank(RankCoords { pp, ..c }))
            .collect()
    }

    /// The rank holding the next pipeline stage for this rank's (tp, ep, dp)
    /// column, or `None` at the last stage.
    pub fn pp_next(&self, rank: usize) -> Option<usize> {
        let c = self.coords(rank);
        (c.pp + 1 < self.spec.pp).then(|| self.rank(RankCoords { pp: c.pp + 1, ..c }))
    }

    /// The rank holding the previous pipeline stage, or `None` at stage 0.
    pub fn pp_prev(&self, rank: usize) -> Option<usize> {
        let c = self.coords(rank);
        (c.pp > 0).then(|| self.rank(RankCoords { pp: c.pp - 1, ..c }))
    }

    /// All ranks at a given pipeline stage.
    pub fn ranks_at_stage(&self, stage: usize) -> Vec<usize> {
        (0..self.world())
            .filter(|&r| self.coords(r).pp == stage)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(tp: usize, pp: usize, ep: usize, dp: usize) -> RankGrid {
        RankGrid::new(ParallelismSpec::new(tp, pp, ep, dp, false).unwrap())
    }

    #[test]
    fn roundtrip_all_ranks() {
        let g = grid(2, 4, 2, 2);
        for r in 0..g.world() {
            assert_eq!(g.rank(g.coords(r)), r);
        }
    }

    #[test]
    fn tp_is_fastest_varying() {
        // Consecutive ranks should differ only in tp index: this is what
        // keeps TP groups inside a node under the default placement.
        let g = grid(4, 4, 1, 2);
        let c0 = g.coords(0);
        let c1 = g.coords(1);
        assert_eq!(c1.tp, c0.tp + 1);
        assert_eq!((c1.ep, c1.dp, c1.pp), (c0.ep, c0.dp, c0.pp));
    }

    #[test]
    fn pp_is_slowest_varying() {
        let g = grid(4, 4, 1, 2);
        // Ranks 0..8 are stage 0; ranks 8..16 stage 1, etc.
        for r in 0..8 {
            assert_eq!(g.coords(r).pp, 0);
        }
        for r in 8..16 {
            assert_eq!(g.coords(r).pp, 1);
        }
    }

    #[test]
    fn ep_between_tp_and_dp() {
        // NeMo/Megatron order TP -> EP -> DP -> PP: with tp=2, ep=4, ranks
        // 0..2 share ep=0, ranks 2..4 have ep=1, ...
        let g = grid(2, 2, 4, 1);
        assert_eq!(g.coords(0).ep, 0);
        assert_eq!(g.coords(2).ep, 1);
        assert_eq!(g.coords(6).ep, 3);
    }

    #[test]
    fn tp_group_is_consecutive() {
        let g = grid(4, 2, 1, 4);
        assert_eq!(g.tp_group(5), vec![4, 5, 6, 7]);
        assert!(g.tp_group(5).contains(&5));
    }

    #[test]
    fn dp_group_strides_by_tp_times_ep() {
        let g = grid(2, 2, 2, 4);
        // stride between dp neighbours = tp*ep = 4.
        let group = g.dp_group(0);
        assert_eq!(group, vec![0, 4, 8, 12]);
    }

    #[test]
    fn pp_group_ordered_by_stage() {
        let g = grid(2, 4, 1, 2);
        let group = g.pp_group(1);
        assert_eq!(group.len(), 4);
        for (stage, &r) in group.iter().enumerate() {
            assert_eq!(g.coords(r).pp, stage);
        }
    }

    #[test]
    fn pp_neighbours() {
        let g = grid(2, 4, 1, 2);
        let r = 1; // stage 0
        let next = g.pp_next(r).unwrap();
        assert_eq!(g.coords(next).pp, 1);
        assert_eq!(g.pp_prev(next), Some(r));
        assert_eq!(g.pp_prev(r), None);
        let last = g.pp_group(r)[3];
        assert_eq!(g.pp_next(last), None);
    }

    #[test]
    fn stage_membership() {
        let g = grid(2, 4, 1, 2);
        let stage0 = g.ranks_at_stage(0);
        assert_eq!(stage0.len(), 4);
        for r in stage0 {
            assert_eq!(g.coords(r).pp, 0);
        }
        assert_eq!(g.ranks_at_stage(3).len(), 4);
    }

    #[test]
    fn group_sizes_match_widths() {
        let g = grid(2, 4, 2, 2);
        assert_eq!(g.tp_group(0).len(), 2);
        assert_eq!(g.ep_group(0).len(), 2);
        assert_eq!(g.dp_group(0).len(), 2);
        assert_eq!(g.pp_group(0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        grid(2, 2, 1, 1).coords(4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_spec() -> impl Strategy<Value = ParallelismSpec> {
        (1usize..=8, 1usize..=8, 1usize..=4, 1usize..=4).prop_map(|(tp, pp, ep, dp)| {
            ParallelismSpec::new(tp, pp, ep, dp, false).expect("non-zero widths")
        })
    }

    proptest! {
        #[test]
        fn rank_coords_roundtrip(spec in arb_spec()) {
            let g = RankGrid::new(spec);
            for rank in 0..g.world() {
                prop_assert_eq!(g.rank(g.coords(rank)), rank);
            }
        }

        #[test]
        fn groups_partition_the_world(spec in arb_spec()) {
            let g = RankGrid::new(spec);
            // Every rank appears in exactly one TP group; groups are disjoint
            // and cover the world.
            let mut seen = vec![false; g.world()];
            for rank in 0..g.world() {
                if g.tp_group(rank)[0] == rank {
                    for r in g.tp_group(rank) {
                        prop_assert!(!seen[r], "rank {} in two tp groups", r);
                        seen[r] = true;
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        #[test]
        fn every_group_contains_self(spec in arb_spec(), seed in 0usize..1000) {
            let g = RankGrid::new(spec);
            let rank = seed % g.world();
            prop_assert!(g.tp_group(rank).contains(&rank));
            prop_assert!(g.ep_group(rank).contains(&rank));
            prop_assert!(g.dp_group(rank).contains(&rank));
            prop_assert!(g.pp_group(rank).contains(&rank));
        }

        #[test]
        fn pp_chain_is_consistent(spec in arb_spec(), seed in 0usize..1000) {
            let g = RankGrid::new(spec);
            let rank = seed % g.world();
            if let Some(next) = g.pp_next(rank) {
                prop_assert_eq!(g.pp_prev(next), Some(rank));
            }
        }
    }
}
