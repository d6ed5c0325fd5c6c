//! Placement-congruence helpers for symmetry folding.
//!
//! Symmetry folding simulates one data-parallel replica and multiplies its
//! load onto shared fabric. It is only sound when every replica is placed
//! *congruently*: the same node-local slots, with a consistent node-to-node
//! translation per replica. The checks here are topology-level (GPU slot
//! and node identity); the simulator layers its own workload-level checks
//! on top.

use std::collections::BTreeMap;

use charllm_hw::{Cluster, GpuId, NodeId};

/// Whether `b` is a translated copy of `a`: same length, pairwise equal
/// node-local slots, and a consistent *injective* node mapping (two GPUs on
/// one node in `a` land on one common node in `b`, and distinct `a`-nodes
/// land on distinct `b`-nodes).
///
/// This is the congruence test between a representative replica's GPUs and
/// another replica's: a translated copy sees identical intra-node fabric,
/// identical NIC/PCIe attachment, and an identically-shaped inter-node
/// route set.
pub fn translated_copy(a: &[GpuId], b: &[GpuId], cluster: &Cluster) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fwd: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut rev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for (&ga, &gb) in a.iter().zip(b) {
        if cluster.slot_of(ga) != cluster.slot_of(gb) {
            return false;
        }
        let (na, nb) = (cluster.node_of(ga), cluster.node_of(gb));
        if *fwd.entry(na).or_insert(nb) != nb || *rev.entry(nb).or_insert(na) != na {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::presets;

    #[test]
    fn translated_copy_accepts_shifted_replica() {
        let c = presets::hgx_h100_cluster(); // 8 nodes x 8
        let a: Vec<GpuId> = (0..8).map(GpuId).collect();
        let b: Vec<GpuId> = (8..16).map(GpuId).collect();
        assert!(translated_copy(&a, &b, &c));
        // Identity is a translation too.
        assert!(translated_copy(&a, &a, &c));
    }

    #[test]
    fn translated_copy_rejects_slot_mismatch() {
        let c = presets::hgx_h100_cluster();
        let a: Vec<GpuId> = (0..4).map(GpuId).collect();
        // Slots 1..5 instead of 0..4: misaligned within the node.
        let b: Vec<GpuId> = (9..13).map(GpuId).collect();
        assert!(!translated_copy(&a, &b, &c));
    }

    #[test]
    fn translated_copy_rejects_node_split_and_merge() {
        let c = presets::hgx_h100_cluster();
        // a: both on node 0; b: split across nodes 1 and 2 (same slots).
        let a = vec![GpuId(0), GpuId(1)];
        let split = vec![GpuId(8), GpuId(17)];
        assert!(!translated_copy(&a, &split, &c));
        // a: two nodes; b: merged onto one node — rejected by injectivity.
        let two = vec![GpuId(0), GpuId(9)];
        let merged = vec![GpuId(16), GpuId(17)];
        assert!(!translated_copy(&two, &merged, &c));
    }

    #[test]
    fn translated_copy_rejects_length_mismatch() {
        let c = presets::hgx_h100_cluster();
        assert!(!translated_copy(&[GpuId(0)], &[GpuId(8), GpuId(9)], &c));
    }
}
