//! NCCL channel planning: rings over NVLink, PCIe fallback, double-binary
//! trees for small messages on switch fabrics.

use blink_graph::dbtree::{double_binary_tree, DoubleBinaryTree};
use blink_graph::{find_rings, DiGraph, Ring, RingSearch};
use blink_topology::{GpuId, LinkKind, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Options controlling the planner.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PlannerOptions {
    /// Per-lane NVLink bandwidth used to convert merged edge capacities back
    /// into lane counts during ring discovery (GB/s). When `None`, the
    /// smallest NVLink capacity in the topology is used.
    pub lane_gbps: Option<f64>,
    /// Below this many bytes, AllReduce on a switch fabric (DGX-2) uses
    /// double-binary trees instead of rings, mirroring NCCL 2.4's protocol
    /// switch for latency-bound sizes.
    pub tree_threshold_bytes: u64,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            lane_gbps: None,
            // NCCL's tree/ring switchover for collectives on NVSwitch systems
            // happens at small sizes; the paper quotes "< 16KB" for trees but
            // observes tree-like latency behaviour through the KB range.
            tree_threshold_bytes: 64 * 1024,
        }
    }
}

/// Which protocol NCCL would run for one collective call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NcclAlgorithm {
    /// NVLink rings: the allocation admits at least one NVLink-only ring.
    NvLinkRings(RingSearch),
    /// No NVLink ring exists: fall back to a single ring over PCIe.
    PcieRing(Ring),
    /// Double-binary trees (small messages on a switch fabric).
    DoubleBinaryTrees(Box<DoubleBinaryTreePlan>),
}

/// A double-binary-tree plan (kept behind a `Box` because it is much larger
/// than the ring variants).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DoubleBinaryTreePlan {
    /// GPU membership in rank order.
    pub gpus: Vec<GpuId>,
    /// Tree A edges (parent → child) and root.
    pub tree_a_root: GpuId,
    /// Tree A parent → child edges.
    pub tree_a_edges: Vec<(GpuId, GpuId)>,
    /// Tree B root.
    pub tree_b_root: GpuId,
    /// Tree B parent → child edges.
    pub tree_b_edges: Vec<(GpuId, GpuId)>,
}

impl DoubleBinaryTreePlan {
    fn from_trees(gpus: Vec<GpuId>, dbt: &DoubleBinaryTree) -> Self {
        DoubleBinaryTreePlan {
            gpus,
            tree_a_root: dbt.tree_a.root,
            tree_a_edges: dbt.tree_a.edges.clone(),
            tree_b_root: dbt.tree_b.root,
            tree_b_edges: dbt.tree_b.edges.clone(),
        }
    }
}

/// A complete NCCL plan for one allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NcclPlan {
    /// The GPUs participating, in allocation order.
    pub gpus: Vec<GpuId>,
    /// The protocol selected.
    pub algorithm: NcclAlgorithm,
    /// Per-lane NVLink bandwidth the plan assumed (GB/s).
    pub lane_gbps: f64,
    /// Effective PCIe bandwidth available for the fallback path (GB/s).
    pub pcie_gbps: f64,
}

impl NcclPlan {
    /// Number of directed channels the plan provides.
    pub fn num_channels(&self) -> usize {
        match &self.algorithm {
            NcclAlgorithm::NvLinkRings(search) => search.directed_channels(),
            NcclAlgorithm::PcieRing(_) => 1,
            NcclAlgorithm::DoubleBinaryTrees(_) => 2,
        }
    }

    /// Whether the plan had to fall back to PCIe.
    pub fn uses_pcie(&self) -> bool {
        matches!(self.algorithm, NcclAlgorithm::PcieRing(_))
    }
}

impl fmt::Display for NcclPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.algorithm {
            NcclAlgorithm::NvLinkRings(s) => write!(
                f,
                "NCCL plan: {} NVLink ring pair(s) over {} GPUs",
                s.rings.len(),
                self.gpus.len()
            ),
            NcclAlgorithm::PcieRing(_) => {
                write!(
                    f,
                    "NCCL plan: PCIe fallback ring over {} GPUs",
                    self.gpus.len()
                )
            }
            NcclAlgorithm::DoubleBinaryTrees(_) => {
                write!(
                    f,
                    "NCCL plan: double binary trees over {} GPUs",
                    self.gpus.len()
                )
            }
        }
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Fewer than two GPUs — nothing to communicate.
    TooFewGpus,
    /// The allocation references a GPU missing from the topology.
    UnknownGpu(GpuId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooFewGpus => write!(f, "a collective needs at least two GPUs"),
            PlanError::UnknownGpu(g) => write!(f, "GPU {g} is not in the topology"),
        }
    }
}

impl std::error::Error for PlanError {}

/// What planning derives from an allocation alone, whatever the byte count.
#[derive(Debug, Clone)]
struct Channels {
    lane_gbps: f64,
    pcie_gbps: f64,
    switch_fabric: bool,
    /// NVLink ring discovery, run by the first plan that takes the ring path.
    rings: Option<RingSearch>,
}

/// Plans NCCL channels for allocations on a machine.
///
/// Like NCCL, which builds its channels once at communicator init, the
/// planner discovers an allocation's rings once: the first plan over an
/// allocation (given in the same order) memoises them, and every later plan
/// over it reuses them, so repeated plans are bit-identical to the first
/// and cost no ring search.
#[derive(Debug)]
pub struct NcclPlanner {
    topology: Topology,
    options: PlannerOptions,
    /// Per allocation, in the order given.
    channels: Mutex<HashMap<Vec<GpuId>, Channels>>,
}

impl Clone for NcclPlanner {
    fn clone(&self) -> Self {
        NcclPlanner {
            topology: self.topology.clone(),
            options: self.options,
            channels: Mutex::new(self.memo().clone()),
        }
    }
}

impl NcclPlanner {
    /// Creates a planner over a machine (or cluster) topology.
    pub fn new(topology: Topology, options: PlannerOptions) -> Self {
        NcclPlanner {
            topology,
            options,
            channels: Mutex::new(HashMap::new()),
        }
    }

    /// The channel memo. A panic while it was held leaves at worst an
    /// allocation without memoised rings, which the next plan discovers.
    fn memo(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<GpuId>, Channels>> {
        self.channels.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a planner with default options.
    pub fn with_defaults(topology: Topology) -> Self {
        Self::new(topology, PlannerOptions::default())
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn lane_gbps(&self, nvlink: &DiGraph) -> f64 {
        self.options
            .lane_gbps
            .or_else(|| nvlink.min_capacity())
            .unwrap_or(LinkKind::NvLinkGen2.nominal_bandwidth_gbps())
    }

    fn pcie_gbps(&self, sub: &Topology, gpus: &[GpuId]) -> f64 {
        // the fallback ring is limited by the slowest PCIe hop among the GPUs
        let mut min = f64::INFINITY;
        for (i, &a) in gpus.iter().enumerate() {
            let b = gpus[(i + 1) % gpus.len()];
            let cap = sub
                .links_between(a, b)
                .filter(|l| l.kind == LinkKind::Pcie)
                .map(|l| l.capacity_gbps())
                .sum::<f64>();
            if cap > 0.0 {
                min = min.min(cap);
            }
        }
        if min.is_finite() {
            min
        } else {
            LinkKind::Pcie.nominal_bandwidth_gbps()
        }
    }

    /// Whether every GPU pair in the allocation is NVLink-connected (a switch
    /// fabric such as the DGX-2, where NCCL's tree/ring protocol switch
    /// applies).
    fn is_switch_fabric(&self, sub: &Topology, gpus: &[GpuId]) -> bool {
        gpus.iter()
            .all(|&a| gpus.iter().all(|&b| a == b || sub.has_nvlink(a, b)))
            && gpus.iter().all(|&g| self.topology.gpu_cap(g).is_some())
    }

    /// The NVLink graph of a validated allocation.
    fn nvlink_graph(&self, allocation: &[GpuId]) -> (Topology, DiGraph) {
        let sub = self
            .topology
            .induced(allocation)
            .expect("allocation validated by plan");
        let nvlink = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        (sub, nvlink)
    }

    /// Plans the channels NCCL would use for a collective over `allocation`
    /// moving `bytes` bytes. Ring discovery is memoised per allocation (see
    /// [`NcclPlanner`]).
    ///
    /// # Errors
    /// Fails if fewer than two GPUs are given or a GPU is unknown.
    pub fn plan(&self, allocation: &[GpuId], bytes: u64) -> Result<NcclPlan, PlanError> {
        if allocation.len() < 2 {
            return Err(PlanError::TooFewGpus);
        }
        for &g in allocation {
            if !self.topology.contains(g) {
                return Err(PlanError::UnknownGpu(g));
            }
        }
        let mut memo = self.memo();
        if !memo.contains_key(allocation) {
            let (sub, nvlink) = self.nvlink_graph(allocation);
            let channels = Channels {
                lane_gbps: self.lane_gbps(&nvlink),
                pcie_gbps: self.pcie_gbps(&sub, allocation),
                switch_fabric: self.is_switch_fabric(&sub, allocation),
                rings: None,
            };
            memo.insert(allocation.to_vec(), channels);
        }
        let channels = memo.get_mut(allocation).expect("memoised above");
        let (lane, pcie) = (channels.lane_gbps, channels.pcie_gbps);

        if channels.switch_fabric && bytes < self.options.tree_threshold_bytes {
            let dbt = double_binary_tree(allocation);
            return Ok(NcclPlan {
                gpus: allocation.to_vec(),
                algorithm: NcclAlgorithm::DoubleBinaryTrees(Box::new(
                    DoubleBinaryTreePlan::from_trees(allocation.to_vec(), &dbt),
                )),
                lane_gbps: lane,
                pcie_gbps: pcie,
            });
        }

        let search = channels
            .rings
            .get_or_insert_with(|| find_rings(&self.nvlink_graph(allocation).1, lane))
            .clone();
        let algorithm = if search.requires_pcie_fallback() {
            NcclAlgorithm::PcieRing(Ring {
                order: allocation.to_vec(),
            })
        } else {
            NcclAlgorithm::NvLinkRings(search)
        };
        Ok(NcclPlan {
            gpus: allocation.to_vec(),
            algorithm,
            lane_gbps: lane,
            pcie_gbps: pcie,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1p, dgx1v, dgx2};

    #[test]
    fn full_dgx1v_plans_nvlink_rings() {
        let planner = NcclPlanner::with_defaults(dgx1v());
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let plan = planner.plan(&alloc, 500 << 20).unwrap();
        assert!(matches!(plan.algorithm, NcclAlgorithm::NvLinkRings(_)));
        assert_eq!(plan.num_channels(), 6);
        assert!(!plan.uses_pcie());
        assert!(plan.to_string().contains("ring pair"));
    }

    #[test]
    fn disconnected_triple_falls_back_to_pcie() {
        let planner = NcclPlanner::with_defaults(dgx1p());
        let plan = planner
            .plan(&[GpuId(0), GpuId(1), GpuId(4)], 500 << 20)
            .unwrap();
        assert!(plan.uses_pcie());
        assert_eq!(plan.num_channels(), 1);
        assert!(plan.pcie_gbps > 0.0 && plan.pcie_gbps <= 6.0);
    }

    #[test]
    fn figure4_six_gpu_case_gets_one_ring_pair() {
        let planner = NcclPlanner::with_defaults(dgx1p());
        let alloc = [GpuId(0), GpuId(1), GpuId(3), GpuId(4), GpuId(5), GpuId(7)];
        let plan = planner.plan(&alloc, 500 << 20).unwrap();
        match &plan.algorithm {
            NcclAlgorithm::NvLinkRings(s) => assert_eq!(s.rings.len(), 1),
            other => panic!("expected rings, got {other:?}"),
        }
    }

    #[test]
    fn dgx2_small_messages_use_double_binary_trees() {
        let planner = NcclPlanner::with_defaults(dgx2());
        let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let small = planner.plan(&alloc, 4 * 1024).unwrap();
        assert!(matches!(
            small.algorithm,
            NcclAlgorithm::DoubleBinaryTrees(_)
        ));
        assert_eq!(small.num_channels(), 2);
        let large = planner.plan(&alloc, 256 << 20).unwrap();
        assert!(matches!(large.algorithm, NcclAlgorithm::NvLinkRings(_)));
    }

    #[test]
    fn dgx1_small_messages_do_not_use_trees() {
        // the tree/ring switch only applies to switch fabrics with per-GPU
        // injection caps (the DGX-2); a DGX-1 allocation keeps using rings
        let planner = NcclPlanner::with_defaults(dgx1v());
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let plan = planner.plan(&alloc, 4 * 1024).unwrap();
        assert!(!matches!(
            plan.algorithm,
            NcclAlgorithm::DoubleBinaryTrees(_)
        ));
    }

    #[test]
    fn ring_discovery_is_memoised_per_allocation() {
        let fresh_plan = |alloc: &[GpuId], bytes: u64| {
            let plan = NcclPlanner::with_defaults(dgx2())
                .plan(alloc, bytes)
                .unwrap();
            format!("{plan:?}")
        };
        let planner = NcclPlanner::with_defaults(dgx2());
        let all16: Vec<GpuId> = (0..16).map(GpuId).collect();
        let quad = [GpuId(3), GpuId(0), GpuId(9), GpuId(12)];
        // a tree-sized call first must not change the ring plans after it
        for (alloc, bytes) in [
            (&all16[..], 4 * 1024),
            (&all16[..], 256 << 20),
            (&quad[..], 1 << 20),
            (&all16[..], 4 << 20),
            (&quad[..], 1 << 20),
            (&all16[..], 256 << 20),
        ] {
            let plan = planner.plan(alloc, bytes).unwrap();
            assert_eq!(format!("{plan:?}"), fresh_plan(alloc, bytes));
        }
        assert_eq!(planner.memo().len(), 2);
        assert!(planner.memo().values().all(|c| c.rings.is_some()));
        // a clone carries the memo and plans the same
        let clone = planner.clone();
        assert_eq!(
            format!("{:?}", clone.plan(&quad, 1 << 20).unwrap()),
            fresh_plan(&quad, 1 << 20)
        );
    }

    #[test]
    fn planning_errors() {
        let planner = NcclPlanner::with_defaults(dgx1v());
        assert_eq!(
            planner.plan(&[GpuId(0)], 1024).unwrap_err(),
            PlanError::TooFewGpus
        );
        assert_eq!(
            planner.plan(&[GpuId(0), GpuId(99)], 1024).unwrap_err(),
            PlanError::UnknownGpu(GpuId(99))
        );
    }
}
