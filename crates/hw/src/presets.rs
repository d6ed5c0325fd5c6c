//! The evaluated cluster configurations (Table 3) plus ablation variants.

use crate::cluster::Cluster;
use crate::gpu::GpuModel;
use crate::link::{LinkClass, LinkSpec};
use crate::node::NodeLayout;

/// The paper's HGX H200 scale-up cluster: 4 nodes x 8 H200 (32 GPUs).
pub fn hgx_h200_cluster() -> Cluster {
    hgx_h200_with_nodes(4)
}

/// An HGX H200 cluster with an arbitrary node count (scaling studies).
pub fn hgx_h200_with_nodes(nodes: usize) -> Cluster {
    Cluster::new(
        format!("{}xH200", nodes * 8),
        GpuModel::H200.spec(),
        NodeLayout::hgx(),
        nodes,
    )
    .expect("preset cluster is statically valid")
}

/// The paper's HGX H100 scale-out cluster: 8 nodes x 8 H100 (64 GPUs).
pub fn hgx_h100_cluster() -> Cluster {
    hgx_h100_with_nodes(8)
}

/// An HGX H100 cluster with an arbitrary node count (scaling studies).
pub fn hgx_h100_with_nodes(nodes: usize) -> Cluster {
    Cluster::new(
        format!("{}xH100", nodes * 8),
        GpuModel::H100.spec(),
        NodeLayout::hgx(),
        nodes,
    )
    .expect("preset cluster is statically valid")
}

/// The paper's AMD cluster: 4 nodes x 4 MI250 packages = 32 logical GCDs.
pub fn mi250_cluster() -> Cluster {
    Cluster::new(
        "32xMI250-GCD",
        GpuModel::Mi250Gcd.spec(),
        NodeLayout::mi250(),
        4,
    )
    .expect("preset cluster is statically valid")
}

/// The balanced-interconnect ablation of Fig. 8: four nodes with a single
/// H200 each, removing PCIe/NIC sharing between GPUs.
pub fn single_gpu_per_node_cluster(nodes: usize) -> Cluster {
    Cluster::new(
        format!("{nodes}x1xH200"),
        GpuModel::H200.spec(),
        NodeLayout::single_gpu_hgx(),
        nodes,
    )
    .expect("preset cluster is statically valid")
}

/// An HGX H100 SuperPOD-style cluster: `nodes` HGX nodes under a two-tier
/// rail-optimized switch fabric with `rails` leaf switches (rails must
/// divide the 8 GPUs per node; 8 is the DGX SuperPOD layout, one rail per
/// HCA slot).
///
/// Each tier is a non-blocking aggregate: leaf bandwidth scales with the
/// attached node count and spine bandwidth with the full leaf uplink count,
/// so contention stays at the per-node NICs (the paper's bottleneck) and
/// switch hops contribute latency. Because tier capacity scales linearly
/// with node count, a symmetry-folded sub-cluster of `nodes/k` nodes
/// presents bit-identical per-flow rates — the property the folded engine's
/// golden tests pin.
pub fn hgx_h100_superpod(nodes: usize, rails: usize) -> Cluster {
    let base = Cluster::new(
        format!("{}xH100-superpod-{rails}rail", nodes * 8),
        GpuModel::H100.spec(),
        NodeLayout::hgx(),
        nodes,
    )
    .expect("preset cluster is statically valid");
    let nic_bw = base.node_layout().nic.bw_gbps;
    let leaf = LinkSpec::new(LinkClass::Switch, nic_bw * nodes as f64, 0.3, 0.2);
    let spine = LinkSpec::new(LinkClass::Switch, nic_bw * (nodes * rails) as f64, 0.5, 0.2);
    base.with_rail_fabric(rails, leaf, spine)
        .expect("preset rail fabric is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;

    #[test]
    fn table3_cluster_sizes() {
        assert_eq!(hgx_h200_cluster().num_gpus(), 32);
        assert_eq!(hgx_h200_cluster().num_nodes(), 4);
        assert_eq!(hgx_h100_cluster().num_gpus(), 64);
        assert_eq!(hgx_h100_cluster().num_nodes(), 8);
        assert_eq!(mi250_cluster().num_gpus(), 32);
        assert_eq!(mi250_cluster().num_nodes(), 4);
    }

    #[test]
    fn clusters_have_similar_total_memory() {
        // Paper: "two NVIDIA-based clusters with similar total memory".
        let h200 = hgx_h200_cluster();
        let h100 = hgx_h100_cluster();
        let m200 = h200.num_gpus() as u64 * h200.gpu().memory_bytes;
        let m100 = h100.num_gpus() as u64 * h100.gpu().memory_bytes;
        let ratio = m200 as f64 / m100 as f64;
        assert!((0.7..=1.3).contains(&ratio), "total memory ratio {ratio}");
    }

    #[test]
    fn h100_cluster_has_double_aggregate_compute() {
        let h200 = hgx_h200_cluster();
        let h100 = hgx_h100_cluster();
        let f200 = h200.num_gpus() as f64 * h200.gpu().peak_fp16_flops;
        let f100 = h100.num_gpus() as f64 * h100.gpu().peak_fp16_flops;
        assert!((f100 / f200 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_gpu_per_node_has_no_fabric_sharing() {
        let c = single_gpu_per_node_cluster(4);
        assert_eq!(c.num_gpus(), 4);
        assert_eq!(c.gpus_per_node(), 1);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(hgx_h200_cluster().name(), "32xH200");
        assert_eq!(hgx_h100_cluster().name(), "64xH100");
    }

    #[test]
    fn superpod_routes_same_rail_through_one_leaf() {
        use crate::cluster::GpuId;
        let c = hgx_h100_superpod(4, 8);
        // Same slot on two nodes: same rail, leaf turnaround, no spine.
        let route = c.route(GpuId(0), GpuId(8)).unwrap();
        let classes: Vec<_> = route.iter().map(|id| c.link(*id).class).collect();
        assert_eq!(
            classes,
            vec![
                LinkClass::Pcie,
                LinkClass::Nic,
                LinkClass::Switch,
                LinkClass::Nic,
                LinkClass::Pcie,
            ]
        );
        // Different slots: cross-rail, leaf -> spine -> leaf.
        let route = c.route(GpuId(0), GpuId(9)).unwrap();
        let switches = route
            .iter()
            .filter(|id| c.link(**id).class == LinkClass::Switch)
            .count();
        assert_eq!(route.len(), 7);
        assert_eq!(switches, 3);
    }

    #[test]
    fn superpod_intra_node_routes_unchanged() {
        use crate::cluster::GpuId;
        let c = hgx_h100_superpod(4, 8);
        let flat = hgx_h100_with_nodes(4);
        assert_eq!(
            c.route(GpuId(0), GpuId(3)).unwrap().len(),
            flat.route(GpuId(0), GpuId(3)).unwrap().len(),
        );
    }

    #[test]
    fn superpod_tier_capacity_scales_with_nodes() {
        use crate::cluster::GpuId;
        let small = hgx_h100_superpod(4, 8);
        let large = hgx_h100_superpod(16, 8);
        let leaf_bw = |c: &Cluster| {
            let route = c.route(GpuId(0), GpuId(8)).unwrap();
            c.link(route[2]).bw_gbps
        };
        assert_eq!(leaf_bw(&large), 4.0 * leaf_bw(&small));
        // NIC remains the per-route bottleneck.
        let route = large.route(GpuId(0), GpuId(8)).unwrap();
        assert_eq!(large.route_bottleneck_gbps(&route), 12.5);
    }

    #[test]
    fn superpod_tier_shape_changes_fingerprint() {
        let flat = hgx_h100_with_nodes(4);
        let pod8 = hgx_h100_superpod(4, 8);
        let pod4 = hgx_h100_superpod(4, 4);
        assert_ne!(flat.fingerprint(), pod8.fingerprint());
        assert_ne!(pod8.fingerprint(), pod4.fingerprint());
        assert_eq!(pod8.fingerprint(), hgx_h100_superpod(4, 8).fingerprint());
    }

    #[test]
    fn rail_fabric_rejects_uneven_rails() {
        let c = hgx_h100_with_nodes(2);
        let sw = |bw: f64| LinkSpec::new(LinkClass::Switch, bw, 0.3, 0.2);
        assert!(c.clone().with_rail_fabric(3, sw(100.0), sw(800.0)).is_err());
        assert!(c.clone().with_rail_fabric(0, sw(100.0), sw(800.0)).is_err());
        // Non-switch tier specs are rejected.
        assert!(c
            .with_rail_fabric(8, LinkSpec::ib_100g(), sw(800.0))
            .is_err());
    }
}
