//! Automatic chunk-size selection (Section 4.2.1, Figure 12) and plan reuse
//! for the tuning loop.
//!
//! The optimal chunk size trades pipeline latency (smaller chunks let a node
//! start forwarding earlier) against per-chunk CUDA launch overhead (each
//! chunk costs at least three CUDA commands). Because training jobs run the
//! same collective thousands of times, Blink tunes the chunk size online with
//! a multiplicative-increase / additive-decrease (MIAD) controller: grow the
//! chunk size geometrically while throughput keeps improving, back off
//! additively once it regresses, and settle into a steady state.
//!
//! The tuning loop re-issues the same collective over and over while only the
//! chunk size changes — the tree set does not. [`PlanCache`] keeps the MWU
//! packing out of that loop entirely: it memoises [`TreePlan`]s per
//! `(root, link class)` and funnels every cache miss through one
//! [`ScratchPool`], so even misses reuse the packing buffers
//! (and plan concurrently when several roots miss at once, see
//! [`PlanCache::plan_many`]).
//!
//! [`SharedPlanCache`] extends the memoisation *across* communicators: the
//! scheduler slices in `blink-sched` hand many jobs identical allocations,
//! and every one of those communicators would otherwise re-pack the same
//! trees. The shared cache keys whole plans under
//! `(`[`plan_fingerprint`]`, root, link class)` — the fingerprint covers the
//! induced topology and the link-class-normalised options, so equal job
//! shapes hit and anything else misses.
//!
//! # Delta invalidation and warm seeds
//!
//! When the hardware churns (a flaky NVLink disabled, a GPU cordoned off, a
//! job grown by a server), [`PlanCache::note_delta`] takes the
//! [`TopologyDelta`] and, instead of flushing wholesale, demotes exactly the
//! plans the delta can touch: a cached plan survives a pure removal intact
//! when none of its trees' edges and none of its link class's capacity
//! groups intersect the removed links/GPUs, while any intersecting (or
//! additively changed) plan is demoted to a *warm seed*. The next
//! [`PlanCache::plan_for`]/[`PlanCache::plan_many`] miss for that key hands
//! the seed to [`TreeGen::plan_warm`], whose repair-and-seed pass
//! (`blink-graph`'s warm-start contract) typically reaches the packing
//! certificate with zero MWU iterations. The cache never serves a demoted
//! plan directly — warm seeds only ever enter through the packer, so every
//! plan handed out has been re-certified against the current topology.

use crate::treegen::{parallel_map, LinkSelection, ScratchPool, TreeGen, TreeGenOptions, TreePlan};
use crate::{new_shared_scratch, Result};
use blink_graph::{optimal_broadcast_rate, Arborescence, DiGraph, WeightedTree};
use blink_topology::enumerate::canonical_labeling;
use blink_topology::{GpuId, Topology, TopologyDelta};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// A 64-bit fingerprint of everything (besides the root and link class) a
/// cached [`TreePlan`] depends on: the induced topology's GPUs, links and
/// per-GPU fabric caps, plus the [`TreeGenOptions`] with the link class
/// normalised away (it is part of the cache key instead, so option sets that
/// differ only in link class — the hybrid planner's NVLink/PCIe pair — share
/// one fingerprint).
///
/// Two communicators over topology-identical allocations with equivalent
/// options therefore compute the same fingerprint, which is what lets
/// [`SharedPlanCache`] hand one communicator's plans to the next.
pub fn plan_fingerprint(induced: &Topology, options: &TreeGenOptions) -> u64 {
    let mut h = DefaultHasher::new();
    for g in induced.gpus() {
        g.id.0.hash(&mut h);
        g.server.0.hash(&mut h);
        g.local_index.hash(&mut h);
        induced.gpu_cap(g.id).map(f64::to_bits).hash(&mut h);
    }
    for l in induced.links() {
        l.src.0.hash(&mut h);
        l.dst.0.hash(&mut h);
        l.kind.hash(&mut h);
        l.lanes.hash(&mut h);
        l.bandwidth_gbps.to_bits().hash(&mut h);
    }
    options.packing.epsilon.to_bits().hash(&mut h);
    options.packing.max_iterations.hash(&mut h);
    options.minimize.threshold.to_bits().hash(&mut h);
    options.minimize.unit_gbps.map(f64::to_bits).hash(&mut h);
    options.minimize.max_bb_nodes.hash(&mut h);
    options
        .minimize
        .known_optimum
        .map(f64::to_bits)
        .hash(&mut h);
    options.skip_minimize.hash(&mut h);
    h.finish()
}

/// Largest allocation the canonical plan-sharing tier will label. The
/// canonical form is computed by brute force over all `n!` labellings
/// (`blink_topology::enumerate::canonical_form`), which is instantaneous up
/// to one server's 8 GPUs and infeasible at a DGX-2's 16 — larger
/// allocations simply skip the canonical tier and rely on exact
/// fingerprints.
pub const CANONICAL_MAX_GPUS: usize = 8;

/// A 64-bit fingerprint of the [`TreeGenOptions`] alone (link class
/// normalised away, exactly as in [`plan_fingerprint`]). The canonical tier
/// keys on `(canonical form, options fingerprint, canonical root)` — the
/// canonical form already captures the topology, so only the options need
/// hashing separately.
fn options_fingerprint(options: &TreeGenOptions) -> u64 {
    let mut h = DefaultHasher::new();
    options.packing.epsilon.to_bits().hash(&mut h);
    options.packing.max_iterations.hash(&mut h);
    options.minimize.threshold.to_bits().hash(&mut h);
    options.minimize.unit_gbps.map(f64::to_bits).hash(&mut h);
    options.minimize.max_bb_nodes.hash(&mut h);
    options
        .minimize
        .known_optimum
        .map(f64::to_bits)
        .hash(&mut h);
    options.skip_minimize.hash(&mut h);
    h.finish()
}

/// Rewrites every GPU id in `plan` through `map` (a bijection over the
/// plan's GPUs). Weights, rates and diagnostics are untouched: a relabelled
/// plan packs the isomorphic image of the original trees at identical rates,
/// which is exactly why canonical-tier hits are valid for any allocation
/// that realises the canonical shape.
fn relabel_plan(plan: &TreePlan, map: &BTreeMap<GpuId, GpuId>) -> TreePlan {
    let m = |g: GpuId| map[&g];
    let mut gpus: Vec<GpuId> = plan.gpus.iter().map(|&g| m(g)).collect();
    gpus.sort();
    let trees = plan
        .trees
        .iter()
        .map(|t| WeightedTree {
            tree: Arborescence::new(
                m(t.tree.root),
                t.tree.edges.iter().map(|&(a, b)| (m(a), m(b))).collect(),
            ),
            weight: t.weight,
        })
        .collect();
    TreePlan {
        root: m(plan.root),
        gpus,
        trees,
        optimal_rate_gbps: plan.optimal_rate_gbps,
        trees_before_minimize: plan.trees_before_minimize,
        links: plan.links,
        mwu: plan.mwu,
    }
}

/// A plan cache shared across communicators (and across the per-server
/// TreeGens of the three-phase multi-server AllReduce): whole [`TreePlan`]s
/// memoised under `(`[`plan_fingerprint`]`, root, link class)`.
///
/// Unlike [`PlanCache`], which keeps plans for exactly one fingerprint at a
/// time (one communicator plans over one induced topology), the shared cache
/// holds plans for any number of job shapes at once — that is what lets the
/// many identical allocations a `blink-sched` workload produces reuse each
/// other's packing work instead of re-running MWU per communicator.
///
/// Cloning the handle shares the cache. All methods are `&self` and
/// thread-safe: concurrent workers of a parallel root sweep consult and fill
/// the cache directly. Plans are stored behind [`Arc`], so a hit clones tree
/// vectors only when the caller materialises the plan, never re-packs.
///
/// The cache is **bounded**: it holds at most `capacity` plans (default
/// [`SharedPlanCache::DEFAULT_CAPACITY`]) and evicts the least-recently-used
/// entry when an insert would exceed the cap — a long-running scheduler whose
/// workload mix turns over no longer grows one entry per job shape forever.
/// A hit refreshes an entry's recency. Eviction only ever costs a re-pack:
/// lookups are keyed by the caller's current fingerprint, so correctness is
/// never at stake.
///
/// # The canonical tier
///
/// Besides the exact tier above, the cache carries a second, **opt-in**
/// tier keyed by `(`[`canonical form`]`, options fingerprint, canonical
/// root)`. Where the exact tier only serves topology-*identical*
/// allocations, the canonical tier serves topology-*isomorphic* ones: the
/// mirror halves of a DGX-1V, every 3-GPU clique of an NVSwitch fabric, the
/// stride subgroups of a process-group split. Plans are stored relabelled
/// into canonical ids `0..n` and relabelled back through the looking-up
/// allocation's [`canonical_labeling`] witness on a hit, so a hit is an
/// isomorphic image of the published plan — same weights, same certified
/// rate, valid for the new allocation, but *not* bit-identical to what a
/// cold pack on that allocation would produce (the MWU trajectory depends
/// on labels).
///
/// The tier is restricted to NVLink-only plans of at most
/// [`CANONICAL_MAX_GPUS`] GPUs: the canonical form covers exactly the
/// NVLink capacity matrix (NVLink packing reads nothing else), and the
/// brute-force labelling is infeasible past one server. Canonical entries
/// are shape-intrinsic — a looking-up communicator just *recomputed* the
/// canonical form from its live induced topology, proving its hardware
/// realises the shape — so unlike the exact tier they are never flushed by
/// fingerprint invalidation or deltas. [`PlanCache`]s opt in via
/// [`PlanCache::with_canonical_sharing`].
///
/// [`canonical form`]: blink_topology::enumerate::canonical_form
#[derive(Debug, Clone, Default)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<SharedPlanCacheInner>>,
}

#[derive(Debug)]
struct SharedPlanCacheInner {
    /// Key -> (plan, last-touched tick). The tick drives LRU eviction.
    plans: BTreeMap<(u64, GpuId, LinkSelection), (Arc<TreePlan>, u64)>,
    /// The canonical tier: `(canonical form, options fingerprint, canonical
    /// root index)` -> (plan relabelled into canonical ids, tick). Bounded
    /// by the same `capacity`, evicted LRU independently of the exact tier.
    canonical: BTreeMap<(String, u64, usize), (Arc<TreePlan>, u64)>,
    /// Monotonic access counter feeding the recency ticks.
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    canonical_hits: u64,
    canonical_misses: u64,
    evictions: u64,
}

impl Default for SharedPlanCacheInner {
    fn default() -> Self {
        SharedPlanCacheInner {
            plans: BTreeMap::new(),
            canonical: BTreeMap::new(),
            tick: 0,
            capacity: SharedPlanCache::DEFAULT_CAPACITY,
            hits: 0,
            misses: 0,
            canonical_hits: 0,
            canonical_misses: 0,
            evictions: 0,
        }
    }
}

impl SharedPlanCache {
    /// Default maximum number of memoised plans. Sized for a scheduler fleet:
    /// a job shape costs one entry per (root, link class) it plans, so this
    /// comfortably holds hundreds of distinct shapes while bounding a
    /// pathological churn workload to a few thousand small tree sets.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty shared cache with [`SharedPlanCache::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty shared cache bounded to `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = Self::default();
        cache.set_capacity(capacity);
        cache
    }

    /// Changes the LRU bound, evicting the least-recently-used entries
    /// immediately if the cache currently exceeds it.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.capacity = capacity.max(1);
        inner.evict_to_capacity();
    }

    /// The current LRU bound.
    pub fn capacity(&self) -> usize {
        self.inner
            .lock()
            .expect("shared plan cache poisoned")
            .capacity
    }

    /// Looks a plan up, counting a hit or a miss. A hit refreshes the
    /// entry's LRU recency.
    pub fn get(
        &self,
        fingerprint: u64,
        root: GpuId,
        links: LinkSelection,
    ) -> Option<Arc<TreePlan>> {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.plans.get_mut(&(fingerprint, root, links)) {
            Some((plan, last_used)) => {
                *last_used = tick;
                let plan = plan.clone();
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly packed plan, evicting the least-recently-used entry
    /// if the cache is at capacity. Two workers racing to plan the same key
    /// simply overwrite each other with bit-identical plans (planning is a
    /// pure function of the fingerprinted inputs), so no coordination beyond
    /// the lock is needed.
    pub fn insert(&self, fingerprint: u64, root: GpuId, links: LinkSelection, plan: Arc<TreePlan>) {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.plans.insert((fingerprint, root, links), (plan, tick));
        inner.evict_to_capacity();
    }

    /// Looks up the canonical tier: a plan published for any allocation
    /// isomorphic to the one `canon` describes, rooted at the GPU playing
    /// canonical role `root_index`. Counts a canonical hit or miss and
    /// refreshes LRU recency. The returned plan is labelled in canonical ids
    /// `0..n` — callers relabel it through their own
    /// [`canonical_labeling`] witness.
    pub fn get_canonical(
        &self,
        canon: &str,
        options_fp: u64,
        root_index: usize,
    ) -> Option<Arc<TreePlan>> {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner
            .canonical
            .get_mut(&(canon.to_string(), options_fp, root_index))
        {
            Some((plan, last_used)) => {
                *last_used = tick;
                let plan = plan.clone();
                inner.canonical_hits += 1;
                Some(plan)
            }
            None => {
                inner.canonical_misses += 1;
                None
            }
        }
    }

    /// Publishes a plan to the canonical tier. `plan` must already be
    /// relabelled into canonical ids `0..n` (role `i` of `canon` is
    /// `GpuId(i)`), rooted at `GpuId(root_index)`. Racing writers overwrite
    /// each other with equivalent plans, exactly as in the exact tier.
    pub fn insert_canonical(
        &self,
        canon: String,
        options_fp: u64,
        root_index: usize,
        plan: Arc<TreePlan>,
    ) {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner
            .canonical
            .insert((canon, options_fp, root_index), (plan, tick));
        inner.evict_to_capacity();
    }

    /// `(hits, misses)` counters of the canonical tier since creation (or
    /// the last [`SharedPlanCache::invalidate`]).
    pub fn canonical_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("shared plan cache poisoned");
        (inner.canonical_hits, inner.canonical_misses)
    }

    /// Number of plans memoised in the canonical tier.
    pub fn canonical_len(&self) -> usize {
        self.inner
            .lock()
            .expect("shared plan cache poisoned")
            .canonical
            .len()
    }

    /// Number of memoised plans (across all fingerprints).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("shared plan cache poisoned")
            .plans
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters since creation (or the last
    /// [`SharedPlanCache::invalidate`]).
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("shared plan cache poisoned");
        (inner.hits, inner.misses)
    }

    /// How many plans the LRU bound has evicted since creation (or the last
    /// [`SharedPlanCache::invalidate`]). Explicit invalidation does not
    /// count: evictions measure capacity pressure, not policy flushes.
    pub fn evictions(&self) -> u64 {
        self.inner
            .lock()
            .expect("shared plan cache poisoned")
            .evictions
    }

    /// Drops every memoised plan and resets the hit/miss/eviction counters
    /// (the capacity is kept). Useful to force a flush when a scheduler's
    /// workload mix turns over faster than LRU pressure would notice.
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.plans.clear();
        inner.canonical.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.canonical_hits = 0;
        inner.canonical_misses = 0;
        inner.evictions = 0;
    }

    /// Drops every plan memoised under `fingerprint`, leaving other job
    /// shapes (and the hit/miss counters) untouched. [`PlanCache`] calls this
    /// automatically when a communicator's topology/options fingerprint
    /// *changes* — a changed fingerprint usually means that shape's hardware
    /// no longer exists as recorded (link failure, elastic re-allocation),
    /// so its plans are dead weight.
    ///
    /// The flush is process-wide and deliberately conservative: if *other*
    /// communicators still run the old shape, their next miss simply
    /// re-packs and re-publishes — correctness is never at stake (lookups
    /// are always keyed by the caller's current fingerprint), this only
    /// trades a possible re-pack against unbounded retention of plans for
    /// shapes that may never recur.
    pub fn invalidate_fingerprint(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        inner.plans.retain(|&(fp, _, _), _| fp != fingerprint);
    }

    /// Applies a topology-change event to the plans memoised under
    /// `old_fingerprint` — the shared-tier half of [`PlanCache::note_delta`].
    ///
    /// Under a pure-growth delta ([`TopologyDelta::is_pure_growth`]) nothing
    /// is touched at all: the pre-event shape persists verbatim as a subgraph
    /// of the grown machine, so every plan memoised under `old_fingerprint`
    /// still describes live hardware exactly and every certificate proved
    /// against that shape still holds. Lookups keyed by the old shape keep
    /// hitting — in particular, when a job grows by a server, the three-phase
    /// planner's per-server lookups for the *original* servers re-hit the
    /// plans published before the growth (their server-induced fingerprints
    /// are unchanged).
    ///
    /// Under a pure-removal delta ([`TopologyDelta::is_pure_removal`]) a plan
    /// whose trees avoid every removed link and GPU is still *exact* for the
    /// post-event topology: removing capacity can only lower the broadcast
    /// min-cut, so a plan within `(1 − ε)` of the old certificate is within
    /// `(1 − ε)` of the new one, and its trees remain feasible. Those
    /// survivors are re-keyed to `new_fingerprint` so lookups over the
    /// post-event shape keep hitting. Every other plan — touched by a
    /// removal, or any plan under a mixed add+remove delta that also adds
    /// GPUs (the old shape is gone *and* the plan no longer spans the new
    /// one) — is dropped; the observing communicator's local tier keeps its
    /// own copies as warm-start seeds instead.
    pub fn apply_delta(&self, old_fingerprint: u64, new_fingerprint: u64, delta: &TopologyDelta) {
        if old_fingerprint == new_fingerprint || delta.is_pure_growth() {
            return;
        }
        let mut inner = self.inner.lock().expect("shared plan cache poisoned");
        let stale: Vec<(u64, GpuId, LinkSelection)> = inner
            .plans
            .keys()
            .filter(|(fp, _, _)| *fp == old_fingerprint)
            .copied()
            .collect();
        for key in stale {
            let (plan, tick) = inner.plans.remove(&key).expect("key just enumerated");
            if plan_survives_delta(&plan, delta) {
                inner
                    .plans
                    .insert((new_fingerprint, key.1, key.2), (plan, tick));
            }
        }
    }
}

/// Whether `plan` still *serves its cache key* after `delta` — feasible over
/// the post-event topology and still spanning the job's allocation — judged
/// per the plan's own link class:
///
/// * **additions never invalidate a certificate.** The pre-event topology
///   persists as a subgraph of the grown one, so the plan's trees stay
///   feasible at their packed rates and the packed-rate-vs-certificate bound
///   (proved against the old shape) still holds. Added links of the plan's
///   class can raise the *grown* shape's broadcast min-cut, so the plan may
///   no longer be near-optimal for the new hardware — this function still
///   reports it as surviving (exactness of what was proved is not voided),
///   and [`PlanCache::note_delta`] separately *re-certifies* survivors
///   against the grown cut, demoting to a warm seed any plan whose rate no
///   longer meets the `(1 − ε)` guarantee so the next lookup re-packs
///   through the new capacity;
/// * added GPUs do stop a plan serving a *grown allocation* — it no longer
///   spans the job — so it cannot answer lookups under the post-event
///   fingerprint. [`PlanCache::note_delta`] demotes it to a warm-start seed
///   for the lookup shape that replaced it, while an attached
///   [`SharedPlanCache`] keeps it published under the old shape's
///   fingerprint, where it remains exact
///   ([`SharedPlanCache::apply_delta`]);
/// * a removed GPU the plan spans, or a removed link of the plan's class on
///   a GPU pair some tree routes over (even one lane of several — the
///   pair's capacity shrank under the plan's rate), breaks feasibility;
/// * anything else (dead links of *other* classes, dead links the trees
///   avoid, added links of any class) leaves the plan's rate intact — the
///   plan survives.
fn plan_survives_delta(plan: &TreePlan, delta: &TopologyDelta) -> bool {
    if !delta.added_gpus.is_empty() {
        return false;
    }
    if delta.removed_gpus.iter().any(|g| plan.gpus.contains(g)) {
        return false;
    }
    let dead: BTreeSet<(GpuId, GpuId)> = delta
        .removed_links
        .iter()
        .filter(|l| plan.links.matches(l))
        .map(|l| (l.src, l.dst))
        .collect();
    dead.is_empty()
        || plan
            .trees
            .iter()
            .all(|t| t.tree.edges.iter().all(|e| !dead.contains(e)))
}

/// The process-wide [`SharedPlanCache`] that [`crate::Communicator`]s attach
/// to by default, so identically shaped jobs in one process reuse each
/// other's plans with no opt-in plumbing. Communicators that need isolation
/// (e.g. a benchmark measuring cold packing) opt out via
/// [`crate::CommunicatorOptions::isolated_plan_cache`]; callers wanting a
/// *different* shared tier still pass one explicitly through
/// [`crate::Communicator::with_shared_plans`].
///
/// The handle is cloned out of a process-global [`OnceLock`]; all clones
/// share the same LRU store.
pub fn global_plan_cache() -> SharedPlanCache {
    static GLOBAL: OnceLock<SharedPlanCache> = OnceLock::new();
    GLOBAL.get_or_init(SharedPlanCache::new).clone()
}

impl SharedPlanCacheInner {
    /// Evicts least-recently-used entries until each tier fits the capacity.
    /// An O(n) scan per eviction is deliberate: capacities are small (plans
    /// are megabyte-scale, not millions of entries) and eviction only
    /// happens on inserts past the cap. The tiers are bounded independently
    /// so canonical churn cannot evict exact-tier plans or vice versa.
    fn evict_to_capacity(&mut self) {
        while self.plans.len() > self.capacity {
            let oldest = self
                .plans
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache over capacity");
            self.plans.remove(&oldest);
            self.evictions += 1;
        }
        while self.canonical.len() > self.capacity {
            let oldest = self
                .canonical
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty canonical tier over capacity");
            self.canonical.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// Memoises [`TreePlan`]s per `(root, link class)`, sharing a single
/// [`ScratchPool`] across misses.
///
/// Every lookup carries a fingerprint of the induced topology and the
/// (link-class-normalised) options; when it differs from the fingerprint the
/// memoised plans were built under, the cache transparently drops them and
/// rebuilds. A caller that swaps the topology (link failure, elastic
/// re-allocation) or retunes the options therefore gets a fresh plan, never a
/// stale one — and never the fixed-options panic the old debug assertion
/// raised. [`PlanCache::invalidate`] remains available for explicit flushes.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    scratch: ScratchPool,
    plans: BTreeMap<(GpuId, LinkSelection), TreePlan>,
    /// Warm-start seeds: stale plans demoted by [`PlanCache::note_delta`],
    /// each consumed by the next miss on its key to drive
    /// [`TreeGen::plan_warm`] instead of a cold pack.
    seeds: BTreeMap<(GpuId, LinkSelection), TreePlan>,
    /// Fingerprint of the (topology, normalised options) the memoised plans
    /// were built under; `None` while the cache is empty.
    built_under: Option<u64>,
    /// Optional cross-communicator tier: local misses consult it before
    /// packing and publish what they pack.
    shared: Option<SharedPlanCache>,
    /// Whether misses may also consult/feed the shared tier's *canonical*
    /// map (isomorphism-level sharing). Opt-in: canonical hits are valid
    /// relabelled plans but not bit-identical to a cold pack.
    canonical: bool,
    /// Memoised canonical labelling of the current induced topology, keyed
    /// by the fingerprint it was computed under (the labelling is a pure
    /// function of the topology, and brute-force labelling costs `n!`).
    canon: Option<(u64, String, Vec<GpuId>)>,
}

impl PlanCache {
    /// Creates an empty cache with its own scratch.
    pub fn new() -> Self {
        Self::with_scratch(new_shared_scratch())
    }

    /// Creates an empty cache that packs over caller-provided scratch buffers.
    pub fn with_scratch(scratch: ScratchPool) -> Self {
        PlanCache {
            scratch,
            plans: BTreeMap::new(),
            seeds: BTreeMap::new(),
            built_under: None,
            shared: None,
            canonical: false,
            canon: None,
        }
    }

    /// Attaches a cross-communicator [`SharedPlanCache`]: local misses
    /// consult it before packing, and freshly packed plans are published to
    /// it. Returns `self` for builder-style chaining.
    pub fn with_shared(mut self, shared: SharedPlanCache) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Additionally opts in to the attached shared tier's **canonical** map:
    /// when an exact-fingerprint lookup misses, NVLink-only plans over at
    /// most [`CANONICAL_MAX_GPUS`] GPUs are looked up (and published) under
    /// the allocation's canonical form, so topology-*isomorphic* allocations
    /// — mirror halves, NVSwitch cliques, process-group subgroups — reuse
    /// each other's packing work. A canonical hit is relabelled through this
    /// allocation's [`canonical_labeling`] witness: same weights and
    /// certified rate, but not bit-identical to a cold pack. No-op without
    /// an attached shared cache.
    pub fn with_canonical_sharing(mut self) -> Self {
        self.canonical = true;
        self
    }

    /// Whether the canonical tier is consulted on misses.
    pub fn canonical_sharing_enabled(&self) -> bool {
        self.canonical
    }

    /// The cross-communicator cache tier, if one is attached.
    pub fn shared_cache(&self) -> Option<&SharedPlanCache> {
        self.shared.as_ref()
    }

    /// The scratch handle cache misses pack with (clone it to share buffers
    /// with planners that bypass the cache, e.g. the hybrid planner).
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Rekeys the local tier to `fp`, dropping plans built under a different
    /// fingerprint. When the fingerprint *changes* (as opposed to being set
    /// for the first time), the old shape's plans in an attached
    /// [`SharedPlanCache`] are flushed too: the communicator just observed
    /// that the shape they were built for no longer exists (topology mutation,
    /// retuned options), so serving them to a later communicator would hand
    /// out plans for dead hardware.
    fn rekey(&mut self, fp: u64) {
        if self.built_under != Some(fp) {
            self.plans.clear();
            // an *unannounced* fingerprint change (no note_delta) means the
            // topology mutated in an unknown way — seeds from it could be
            // arbitrarily wrong as warm starts, so drop them too
            self.seeds.clear();
            if let (Some(old), Some(shared)) = (self.built_under, &self.shared) {
                shared.invalidate_fingerprint(old);
            }
            self.built_under = Some(fp);
        }
    }

    /// Whether this lookup shape may use the canonical tier: opted in, a
    /// shared cache attached, NVLink-only (the canonical form covers exactly
    /// the NVLink capacity matrix — and NVLink packing reads nothing else)
    /// and small enough to label.
    fn canonical_eligible(&self, induced: &Topology, options: &TreeGenOptions) -> bool {
        self.canonical
            && self.shared.is_some()
            && options.links == LinkSelection::NvLinkOnly
            && (2..=CANONICAL_MAX_GPUS).contains(&induced.gpus().len())
    }

    /// The memoised canonical labelling of `induced`, recomputed when the
    /// fingerprint changed since it was cached.
    fn ensure_canon(&mut self, induced: &Topology, fp: u64) -> Option<(String, Vec<GpuId>)> {
        if self.canon.as_ref().map(|(f, _, _)| *f) != Some(fp) {
            let ids = induced.gpu_ids();
            let (canon, order) = canonical_labeling(induced, &ids).ok()?;
            self.canon = Some((fp, canon, order));
        }
        self.canon.as_ref().map(|(_, c, o)| (c.clone(), o.clone()))
    }

    /// Tries the canonical tier for `root`, relabelling a hit through this
    /// allocation's labelling witness (`GpuId(i) → order[i]`).
    fn canonical_hit(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        root: GpuId,
        fp: u64,
    ) -> Option<TreePlan> {
        if !self.canonical_eligible(induced, options) {
            return None;
        }
        let (canon, order) = self.ensure_canon(induced, fp)?;
        let root_index = order.iter().position(|&g| g == root)?;
        let hit = self.shared.as_ref()?.get_canonical(
            &canon,
            options_fingerprint(options),
            root_index,
        )?;
        let map: BTreeMap<GpuId, GpuId> = order
            .iter()
            .enumerate()
            .map(|(i, &g)| (GpuId(i), g))
            .collect();
        Some(relabel_plan(&hit, &map))
    }

    /// Publishes a freshly packed plan to the canonical tier, relabelled
    /// into canonical ids (`order[i] → GpuId(i)`).
    fn publish_canonical(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        root: GpuId,
        fp: u64,
        plan: &TreePlan,
    ) {
        if !self.canonical_eligible(induced, options) {
            return;
        }
        let Some((canon, order)) = self.ensure_canon(induced, fp) else {
            return;
        };
        let Some(root_index) = order.iter().position(|&g| g == root) else {
            return;
        };
        let map: BTreeMap<GpuId, GpuId> = order
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, GpuId(i)))
            .collect();
        if let Some(shared) = &self.shared {
            shared.insert_canonical(
                canon,
                options_fingerprint(options),
                root_index,
                Arc::new(relabel_plan(plan, &map)),
            );
        }
    }

    /// Applies a topology-change event (delta invalidation): re-keys the
    /// cache to the post-event fingerprint, keeps plans the delta provably
    /// did not touch — untouched by removals, or any addition short of new
    /// GPUs; additions never invalidate a certificate (see
    /// [`plan_survives_delta`]) — and demotes every other plan to a
    /// *warm-start seed*: the next miss on that key packs via
    /// [`TreeGen::plan_warm`], seeded from the stale plan, instead of cold.
    /// An attached [`SharedPlanCache`] is re-keyed the same way, except that
    /// pure-growth deltas leave it entirely untouched — the old shape still
    /// exists as a subgraph, so its entries keep serving lookups under the
    /// old fingerprint ([`SharedPlanCache::apply_delta`]).
    ///
    /// **Opportunistic re-pack on growth:** a plan that survives an additive
    /// delta never *uses* the added links, so when the delta adds links of a
    /// surviving plan's class, the plan is re-certified against the grown
    /// topology's broadcast min-cut. If the certificate rose past the plan's
    /// packed rate (the `(1 − ε)`-of-certificate guarantee no longer holds
    /// on the new hardware), the plan is demoted to a warm seed like any
    /// stale plan — the next lookup re-packs through the added capacity and
    /// recovers the rate growth left on the table. Growth that does not
    /// raise the relevant cut keeps plans live and bit-identical.
    ///
    /// `induced` and `options` must describe the **post-event** planning
    /// inputs — the same values the next [`PlanCache::plan_for`] /
    /// [`PlanCache::plan_many`] call will pass; a later call with different
    /// inputs simply rekeys again (dropping the seeds).
    pub fn note_delta(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        delta: &TopologyDelta,
    ) {
        let new_fp = plan_fingerprint(induced, options);
        if self.built_under == Some(new_fp) {
            return;
        }
        // Lazily built per link class: one graph + one Dinic certificate per
        // re-certified root, only on deltas that actually add links.
        let mut cert_graphs: BTreeMap<LinkSelection, DiGraph> = BTreeMap::new();
        for (key, plan) in std::mem::take(&mut self.plans) {
            let survives = plan_survives_delta(&plan, delta);
            let outgrown = survives
                && plan.gpus.len() >= 2
                && delta.added_links.iter().any(|l| plan.links.matches(l))
                && {
                    let links = plan.links;
                    let g = cert_graphs.entry(links).or_insert_with(|| {
                        DiGraph::from_topology_filtered(induced, |l| links.matches(l))
                    });
                    match g.node(plan.root) {
                        Some(root) => {
                            let cert = optimal_broadcast_rate(g, root);
                            plan.rate_gbps() + 1e-9 < (1.0 - options.packing.epsilon) * cert
                        }
                        None => false,
                    }
                };
            if survives && !outgrown {
                self.plans.insert(key, plan);
            } else {
                self.seeds.insert(key, plan);
            }
        }
        if let (Some(old), Some(shared)) = (self.built_under, &self.shared) {
            shared.apply_delta(old, new_fp, delta);
        }
        self.built_under = Some(new_fp);
    }

    /// Returns the cached plan for `(root, options.links)`, computing and
    /// memoising it on first request. A changed topology or option set (as
    /// judged by their fingerprint) invalidates all memoised plans first, so
    /// the caller always receives a plan consistent with its inputs. When a
    /// [`SharedPlanCache`] is attached, local misses try it before packing —
    /// a fingerprint hit from another communicator is cloned in instead of
    /// re-packed — and local packs are published to it.
    ///
    /// # Errors
    /// Propagates planning failures (unknown root, unspannable link class);
    /// failures are not cached.
    pub fn plan_for(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        root: GpuId,
    ) -> Result<&TreePlan> {
        let fp = plan_fingerprint(induced, options);
        self.rekey(fp);
        let key = (root, options.links);
        if !self.plans.contains_key(&key) {
            let shared_hit = self
                .shared
                .as_ref()
                .and_then(|s| s.get(fp, root, options.links));
            let plan = match shared_hit {
                Some(plan) => (*plan).clone(),
                None => match self.canonical_hit(induced, options, root, fp) {
                    Some(plan) => plan,
                    None => {
                        let tg =
                            TreeGen::with_scratch(induced.clone(), *options, self.scratch.clone());
                        let plan = match self.seeds.remove(&key) {
                            Some(seed) => tg.plan_warm(root, &seed)?,
                            None => tg.plan(root)?,
                        };
                        if let Some(shared) = &self.shared {
                            shared.insert(fp, root, options.links, Arc::new(plan.clone()));
                        }
                        self.publish_canonical(induced, options, root, fp, &plan);
                        plan
                    }
                },
            };
            self.plans.insert(key, plan);
        }
        Ok(&self.plans[&key])
    }

    /// Memoised plans for several roots at once: roots already cached (local
    /// or shared tier) are served, and the remaining misses are packed
    /// **concurrently** on the scratch pool's workers. Plans come back in
    /// `roots` order, bit-identical to calling [`PlanCache::plan_for`] per
    /// root sequentially.
    ///
    /// # Errors
    /// The first failing root (in `roots` order) wins; nothing is cached for
    /// failing roots.
    pub fn plan_many(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        roots: &[GpuId],
    ) -> Result<Vec<&TreePlan>> {
        let fp = plan_fingerprint(induced, options);
        self.rekey(fp);
        let links = options.links;
        let mut missing: Vec<GpuId> = Vec::new();
        for &root in roots {
            if self.plans.contains_key(&(root, links)) || missing.contains(&root) {
                continue;
            }
            if let Some(hit) = self.shared.as_ref().and_then(|s| s.get(fp, root, links)) {
                self.plans.insert((root, links), (*hit).clone());
            } else if let Some(plan) = self.canonical_hit(induced, options, root, fp) {
                self.plans.insert((root, links), plan);
            } else {
                missing.push(root);
            }
        }
        if !missing.is_empty() {
            let tg = TreeGen::with_scratch(induced.clone(), *options, self.scratch.clone());
            let tasks: Vec<(GpuId, Option<TreePlan>)> = missing
                .iter()
                .map(|&root| (root, self.seeds.remove(&(root, links))))
                .collect();
            let planned = parallel_map(tasks, self.scratch.workers(), |(root, seed)| match seed {
                Some(seed) => tg.plan_warm(root, &seed),
                None => tg.plan(root),
            });
            for (root, plan) in missing.into_iter().zip(planned) {
                let plan = plan?;
                if let Some(shared) = &self.shared {
                    shared.insert(fp, root, links, Arc::new(plan.clone()));
                }
                self.publish_canonical(induced, options, root, fp, &plan);
                self.plans.insert((root, links), plan);
            }
        }
        Ok(roots
            .iter()
            .map(|root| &self.plans[&(*root, links)])
            .collect())
    }

    /// Whether a plan for `(root, links)` is already memoised.
    pub fn contains(&self, root: GpuId, links: LinkSelection) -> bool {
        self.plans.contains_key(&(root, links))
    }

    /// Number of warm-start seeds awaiting consumption (stale plans demoted
    /// by [`PlanCache::note_delta`], not yet re-planned).
    pub fn seeded(&self) -> usize {
        self.seeds.len()
    }

    /// Number of memoised plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Drops every memoised plan in the local tier (keeps the scratch buffers
    /// and leaves an attached [`SharedPlanCache`] untouched — flush that
    /// explicitly with [`SharedPlanCache::invalidate`]). Rarely needed —
    /// [`PlanCache::plan_for`] already rekeys on topology/options changes —
    /// but useful to bound memory or force a rebuild.
    pub fn invalidate(&mut self) {
        self.plans.clear();
        self.seeds.clear();
        self.built_under = None;
        self.canon = None;
    }
}

/// MIAD chunk-size controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChunkAutotuner {
    current: u64,
    best_throughput: f64,
    growth_factor: f64,
    decrease_bytes: u64,
    min_chunk: u64,
    max_chunk: u64,
    settled: bool,
    history: Vec<(u64, f64)>,
}

impl ChunkAutotuner {
    /// Creates a tuner starting from `initial_chunk` bytes.
    ///
    /// The paper's example (Figure 12) starts at 1 MB and doubles each
    /// iteration until throughput stops improving.
    pub fn new(initial_chunk: u64) -> Self {
        ChunkAutotuner {
            current: initial_chunk.max(64 * 1024),
            best_throughput: 0.0,
            growth_factor: 2.0,
            decrease_bytes: 512 * 1024,
            min_chunk: 64 * 1024,
            max_chunk: 64 << 20,
            settled: false,
            history: Vec::new(),
        }
    }

    /// Creates a tuner with the paper's defaults (1 MB initial chunk, 2×
    /// growth).
    pub fn with_defaults() -> Self {
        Self::new(1 << 20)
    }

    /// The chunk size to use for the next iteration.
    pub fn chunk_bytes(&self) -> u64 {
        self.current
    }

    /// Whether the controller has reached steady state.
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    /// The `(chunk size, throughput)` trace so far — this is exactly the data
    /// plotted in Figure 12.
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }

    /// Reports the throughput (GB/s) observed with the current chunk size and
    /// advances the controller.
    pub fn observe(&mut self, throughput_gbps: f64) {
        self.history.push((self.current, throughput_gbps));
        if self.settled {
            return;
        }
        if throughput_gbps > self.best_throughput * 1.01 {
            // still improving: multiplicative increase
            self.best_throughput = throughput_gbps;
            self.current = ((self.current as f64 * self.growth_factor) as u64).min(self.max_chunk);
            if self.current == self.max_chunk {
                self.settled = true;
            }
        } else if throughput_gbps < self.best_throughput * 0.99 {
            // regression: additive decrease, then settle
            self.current = self
                .current
                .saturating_sub(self.decrease_bytes)
                .max(self.min_chunk);
            self.settled = true;
        } else {
            // within noise of the best: stop here
            self.settled = true;
        }
    }

    /// Resets the controller (e.g. when the buffer size changes drastically).
    pub fn reset(&mut self, initial_chunk: u64) {
        *self = ChunkAutotuner::new(initial_chunk);
    }
}

impl Default for ChunkAutotuner {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::dgx1v;

    #[test]
    fn plan_cache_memoises_per_root_and_link_class() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let induced = topo.induced(&alloc).unwrap();
        let opts = TreeGenOptions::default();
        let mut cache = PlanCache::new();
        assert!(cache.is_empty());
        let rate = cache
            .plan_for(&induced, &opts, GpuId(0))
            .unwrap()
            .rate_gbps();
        assert_eq!(cache.len(), 1);
        // repeat hit: same plan object, no recomputation observable via len
        let again = cache
            .plan_for(&induced, &opts, GpuId(0))
            .unwrap()
            .rate_gbps();
        assert_eq!(cache.len(), 1);
        assert_eq!(rate.to_bits(), again.to_bits());
        // a different root and a different link class are distinct entries
        cache.plan_for(&induced, &opts, GpuId(1)).unwrap();
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..opts
        };
        cache.plan_for(&induced, &pcie, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 3);
        cache.invalidate();
        assert!(cache.is_empty());
    }

    #[test]
    fn plan_cache_rekeys_on_changed_options_instead_of_panicking() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let induced = topo.induced(&alloc).unwrap();
        let mut cache = PlanCache::new();
        let opts = TreeGenOptions::default();
        cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 1);
        // same options, different link class: both entries coexist
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..opts
        };
        cache.plan_for(&induced, &pcie, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 2);
        // materially different options: the cache rebuilds instead of
        // debug-panicking or serving a plan computed under the old options
        let retuned = TreeGenOptions {
            skip_minimize: true,
            ..opts
        };
        let raw = cache.plan_for(&induced, &retuned, GpuId(0)).unwrap();
        assert!(raw.num_trees() > 6, "skip_minimize must take effect");
        assert_eq!(cache.len(), 1, "old-option plans were dropped");
    }

    #[test]
    fn plan_cache_rekeys_on_changed_topology() {
        let topo = dgx1v();
        let opts = TreeGenOptions::default();
        let mut cache = PlanCache::new();
        let full = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let full_rate = cache.plan_for(&full, &opts, GpuId(0)).unwrap().rate_gbps();
        // shrink the allocation: the cache must not serve the 8-GPU plan
        let half = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let half_plan = cache.plan_for(&half, &opts, GpuId(0)).unwrap();
        assert_eq!(half_plan.gpus.len(), 4);
        assert!(half_plan.rate_gbps() < full_rate);
        assert_eq!(cache.len(), 1);
        // and going back re-plans (correctness over reuse across epochs)
        let again = cache.plan_for(&full, &opts, GpuId(0)).unwrap();
        assert_eq!(again.rate_gbps().to_bits(), full_rate.to_bits());
    }

    #[test]
    fn plan_cache_does_not_cache_failures() {
        let topo = blink_topology::presets::dgx1p();
        // GPUs 1 and 4 share no NVLink: NvLinkOnly planning fails
        let induced = topo.induced(&[GpuId(1), GpuId(4)]).unwrap();
        let mut cache = PlanCache::new();
        assert!(cache
            .plan_for(&induced, &TreeGenOptions::default(), GpuId(1))
            .is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprint_normalises_the_link_class_away() {
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let nvlink = TreeGenOptions::default();
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..nvlink
        };
        // equivalent options (differing only in link class) share a
        // fingerprint — the link class lives in the cache key instead
        assert_eq!(
            plan_fingerprint(&induced, &nvlink),
            plan_fingerprint(&induced, &pcie)
        );
        // anything material diverges: options...
        let retuned = TreeGenOptions {
            skip_minimize: true,
            ..nvlink
        };
        assert_ne!(
            plan_fingerprint(&induced, &nvlink),
            plan_fingerprint(&induced, &retuned)
        );
        // ...and topology
        let half = topo
            .induced(&(0..3).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        assert_ne!(
            plan_fingerprint(&induced, &nvlink),
            plan_fingerprint(&half, &nvlink)
        );
    }

    #[test]
    fn shared_cache_hands_plans_across_communicator_caches() {
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        // "communicator" A packs and publishes
        let mut a = PlanCache::new().with_shared(shared.clone());
        let plan_a = a.plan_for(&induced, &opts, GpuId(0)).unwrap().clone();
        assert_eq!(shared.stats(), (0, 1), "first pack is a shared miss");
        assert_eq!(shared.len(), 1);
        // "communicator" B of the same job shape reuses A's plan bit-for-bit
        let mut b = PlanCache::new().with_shared(shared.clone());
        let plan_b = b.plan_for(&induced, &opts, GpuId(0)).unwrap().clone();
        assert_eq!(shared.stats(), (1, 1), "same shape must hit");
        assert!(plan_a.bit_eq(&plan_b), "shared plan must be bit-identical");
        // a *local* repeat hit never touches the shared tier
        b.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (1, 1));
    }

    #[test]
    fn shared_cache_misses_on_changed_topology_or_options() {
        let topo = dgx1v();
        let full = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let mut a = PlanCache::new().with_shared(shared.clone());
        a.plan_for(&full, &opts, GpuId(0)).unwrap();
        // different allocation shape: miss, packed fresh
        let half = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let mut b = PlanCache::new().with_shared(shared.clone());
        b.plan_for(&half, &opts, GpuId(0)).unwrap();
        // different options on the original shape: miss again
        let retuned = TreeGenOptions {
            skip_minimize: true,
            ..opts
        };
        let mut c = PlanCache::new().with_shared(shared.clone());
        c.plan_for(&full, &retuned, GpuId(0)).unwrap();
        let (hits, misses) = shared.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 3);
        // unlike the local tier, the shared tier keeps all three shapes
        assert_eq!(shared.len(), 3);
    }

    #[test]
    fn a_changed_topology_fingerprint_auto_invalidates_the_shared_tier() {
        let topo = dgx1v();
        let full = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let half = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        // a second communicator keeps the full-shape plan alive in the
        // shared tier
        let mut other = PlanCache::new().with_shared(shared.clone());
        other.plan_for(&full, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.len(), 1);
        // communicator A observes its topology change full -> half: the
        // full-shape plans are dropped from the shared tier automatically
        // (the hardware they were built for no longer exists as recorded)
        let mut a = PlanCache::new().with_shared(shared.clone());
        a.plan_for(&full, &opts, GpuId(0)).unwrap();
        a.plan_for(&half, &opts, GpuId(0)).unwrap();
        assert_eq!(
            shared.len(),
            1,
            "only the half-shape plan survives the fingerprint change"
        );
        let fp_half = plan_fingerprint(&half, &opts);
        assert!(
            shared.get(fp_half, GpuId(0), opts.links).is_some(),
            "the new shape's plan is the survivor"
        );
        // explicit per-fingerprint invalidation is also available directly
        shared.invalidate_fingerprint(fp_half);
        assert_eq!(shared.len(), 0);
    }

    #[test]
    fn shared_cache_invalidation_forces_a_repack() {
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let mut a = PlanCache::new().with_shared(shared.clone());
        a.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.len(), 1);
        shared.invalidate();
        assert!(shared.is_empty());
        assert_eq!(shared.stats(), (0, 0), "counters reset too");
        // a fresh communicator re-packs and re-publishes
        let mut b = PlanCache::new().with_shared(shared.clone());
        b.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (0, 1));
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn shared_cache_evicts_least_recently_used_past_capacity() {
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let fp = plan_fingerprint(&induced, &opts);
        let shared = SharedPlanCache::with_capacity(2);
        assert_eq!(shared.capacity(), 2);
        let plan = {
            let mut c = PlanCache::new();
            Arc::new(c.plan_for(&induced, &opts, GpuId(0)).unwrap().clone())
        };
        // fill to capacity: roots 0 and 1
        shared.insert(fp, GpuId(0), opts.links, plan.clone());
        shared.insert(fp, GpuId(1), opts.links, plan.clone());
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.evictions(), 0);
        // touch root 0 so root 1 becomes the LRU entry
        assert!(shared.get(fp, GpuId(0), opts.links).is_some());
        // a third insert evicts root 1, not root 0
        shared.insert(fp, GpuId(2), opts.links, plan.clone());
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.evictions(), 1);
        assert!(shared.get(fp, GpuId(0), opts.links).is_some());
        assert!(shared.get(fp, GpuId(2), opts.links).is_some());
        assert!(
            shared.get(fp, GpuId(1), opts.links).is_none(),
            "the least-recently-used entry must be the one evicted"
        );
        // shrinking the capacity evicts immediately
        shared.set_capacity(1);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.evictions(), 2);
        // an evicted shape simply re-packs on its next miss — correctness
        // is untouched, only the memoisation is
        let mut c = PlanCache::new().with_shared(shared.clone());
        let replanned = c.plan_for(&induced, &opts, GpuId(1)).unwrap().clone();
        let fresh = PlanCache::new()
            .plan_for(&induced, &opts, GpuId(1))
            .unwrap()
            .clone();
        assert!(replanned.bit_eq(&fresh), "re-pack is bit-identical");
        // invalidate resets the eviction counter with the others
        shared.invalidate();
        assert_eq!(shared.evictions(), 0);
    }

    #[test]
    fn default_capacity_is_effectively_unbounded_for_tests() {
        // the default cap must be far above anything the existing suites
        // create, so bounding the cache changed no observable behaviour
        const { assert!(SharedPlanCache::DEFAULT_CAPACITY >= 1024) };
        assert_eq!(
            SharedPlanCache::new().capacity(),
            SharedPlanCache::DEFAULT_CAPACITY
        );
    }

    #[test]
    fn plan_many_matches_per_root_plan_for_bitwise() {
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let roots: Vec<GpuId> = (0..8).map(GpuId).collect();
        // reference: sequential plan_for on a single-worker cache
        let mut seq = PlanCache::with_scratch(ScratchPool::with_workers(1));
        let reference: Vec<TreePlan> = roots
            .iter()
            .map(|&r| seq.plan_for(&induced, &opts, r).unwrap().clone())
            .collect();
        // parallel misses through plan_many
        let mut par = PlanCache::with_scratch(ScratchPool::with_workers(4));
        let plans = par.plan_many(&induced, &opts, &roots).unwrap();
        assert_eq!(plans.len(), roots.len());
        for (a, b) in reference.iter().zip(plans) {
            assert!(a.bit_eq(b), "plan_many diverged for root {}", a.root);
        }
        assert_eq!(par.len(), 8);
        // repeated and duplicate roots are served from the local tier
        let again = par
            .plan_many(&induced, &opts, &[GpuId(0), GpuId(0), GpuId(7)])
            .unwrap();
        assert_eq!(again.len(), 3);
        assert_eq!(
            again[0].rate_gbps().to_bits(),
            again[1].rate_gbps().to_bits()
        );
    }

    #[test]
    fn note_delta_demotes_touched_plans_to_seeds_and_replans_warm() {
        use blink_topology::TopologyDelta;
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let induced = topo.induced(&alloc).unwrap();
        let opts = TreeGenOptions::default();
        let mut cache = PlanCache::new();
        cache.plan_many(&induced, &opts, &alloc).unwrap();
        assert_eq!(cache.len(), 8);
        // a physical NVLink connection dies
        let delta = TopologyDelta::kill_link(&induced, GpuId(0), GpuId(1));
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        // every plan either survived (untouched by the dead pair) or became
        // a warm-start seed — none were thrown away
        assert_eq!(cache.len() + cache.seeded(), 8);
        assert!(cache.seeded() >= 1, "some plan used the killed link");
        // replanning consumes the seeds and yields plans that avoid the
        // dead pair and are never worse than a cold re-plan
        let dead = delta.removed_pairs();
        let warm: Vec<TreePlan> = cache
            .plan_many(&after, &opts, &alloc)
            .unwrap()
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(cache.seeded(), 0, "seeds are consumed on use");
        let mut cold_cache = PlanCache::new();
        for (plan, &root) in warm.iter().zip(&alloc) {
            assert!(plan
                .trees
                .iter()
                .all(|t| t.tree.edges.iter().all(|e| !dead.contains(e))));
            let cold = cold_cache.plan_for(&after, &opts, root).unwrap();
            assert!(
                plan.rate_gbps() >= cold.rate_gbps() - 1e-9,
                "warm replan for root {root} must not be worse than cold"
            );
        }
    }

    #[test]
    fn pure_removal_delta_keeps_unaffected_plans_live_across_tiers() {
        use blink_topology::{LinkKind, TopologyDelta};
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default(); // NvLinkOnly
        let shared = SharedPlanCache::new();
        let mut cache = PlanCache::new().with_shared(shared.clone());
        let before = cache.plan_for(&induced, &opts, GpuId(0)).unwrap().clone();
        // a PCIe link dies; the NVLink plan never touched it
        let pcie = *induced
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::Pcie)
            .unwrap();
        let delta = TopologyDelta {
            removed_links: vec![pcie],
            ..Default::default()
        };
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        assert_eq!(cache.len(), 1, "untouched plan stays live locally");
        assert_eq!(cache.seeded(), 0);
        // the shared tier re-keyed the survivor to the new fingerprint
        let fp_after = plan_fingerprint(&after, &opts);
        assert!(shared.get(fp_after, GpuId(0), opts.links).is_some());
        // and the next lookup serves it bit-identically without re-packing
        let again = cache.plan_for(&after, &opts, GpuId(0)).unwrap();
        assert!(before.bit_eq(again));
    }

    #[test]
    fn growth_delta_demotes_every_plan_to_a_seed() {
        use blink_topology::TopologyDelta;
        let topo = dgx1v();
        let small = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let big = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let mut cache = PlanCache::new();
        cache.plan_for(&small, &opts, GpuId(0)).unwrap();
        let delta = TopologyDelta::between(&small, &big);
        assert!(!delta.is_pure_removal());
        cache.note_delta(&big, &opts, &delta);
        // the 4-GPU plan no longer spans the grown 8-GPU allocation, so it
        // cannot serve lookups over the new shape — but its certificate was
        // never voided, so it is demoted to a warm seed, not dropped
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.seeded(), 1);
        let grown = cache.plan_for(&big, &opts, GpuId(0)).unwrap().clone();
        assert_eq!(grown.gpus.len(), 8);
        // growth replans carry the same near-optimality guarantee as cold
        // plans (the pointwise warm ≥ cold bound is only promised for pure
        // removals — added capacity reshapes the whole MWU trajectory)
        assert!(grown.rate_gbps() >= (1.0 - opts.packing.epsilon) * grown.optimal_rate_gbps - 1e-9);
    }

    #[test]
    fn growth_below_the_certificate_keeps_a_plan_live() {
        use blink_topology::{Link, LinkKind, TopologyDelta};
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let mut cache = PlanCache::new().with_shared(shared.clone());
        let before = cache.plan_for(&induced, &opts, GpuId(0)).unwrap().clone();
        let fp_before = plan_fingerprint(&induced, &opts);
        // a fresh NVLink lane appears between GPUs 0 and 3: pure growth. On
        // this quad the broadcast min-cut from root 0 is pinned by the
        // capacity *into* GPU 1, which the new lane does not touch — the
        // certificate does not rise, so re-certification keeps the plan.
        let delta = TopologyDelta {
            added_links: vec![
                Link::new(GpuId(0), GpuId(3), LinkKind::NvLinkGen2),
                Link::new(GpuId(3), GpuId(0), LinkKind::NvLinkGen2),
            ],
            ..Default::default()
        };
        assert!(delta.is_pure_growth() && !delta.is_pure_removal());
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        assert_eq!(
            cache.len(),
            1,
            "growth that leaves the certificate must not demote the plan"
        );
        assert_eq!(cache.seeded(), 0);
        let again = cache.plan_for(&after, &opts, GpuId(0)).unwrap();
        assert!(
            before.bit_eq(again),
            "retained plan is served bit-identical"
        );
        // the shared tier keeps the old shape's entry: that shape persists as
        // a subgraph of the grown one, so its fingerprint is still meaningful
        assert!(shared.get(fp_before, GpuId(0), opts.links).is_some());
    }

    #[test]
    fn growth_of_another_link_class_never_triggers_recertification() {
        use blink_topology::{Link, LinkKind, TopologyDelta};
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default(); // NvLinkOnly
        let mut cache = PlanCache::new();
        let before = cache.plan_for(&induced, &opts, GpuId(0)).unwrap().clone();
        // extra PCIe capacity appears: invisible to an NVLink plan
        let delta = TopologyDelta {
            added_links: vec![
                Link::new(GpuId(0), GpuId(1), LinkKind::Pcie).with_bandwidth(5.0),
                Link::new(GpuId(1), GpuId(0), LinkKind::Pcie).with_bandwidth(5.0),
            ],
            ..Default::default()
        };
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.seeded(), 0);
        let again = cache.plan_for(&after, &opts, GpuId(0)).unwrap();
        assert!(before.bit_eq(again));
    }

    #[test]
    fn growth_that_raises_the_certificate_repacks_and_recovers_the_rate() {
        use blink_topology::TopologyDelta;
        let topo = dgx1v();
        let full = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        // plan over a damaged quad (the 0-1 NVLink pair is down)...
        let kill = TopologyDelta::kill_link(&full, GpuId(0), GpuId(1));
        let damaged = full.apply_delta(&kill).unwrap();
        let mut cache = PlanCache::new();
        let degraded = cache.plan_for(&damaged, &opts, GpuId(0)).unwrap().clone();
        // ...then the link comes back: a pure-growth delta that raises the
        // broadcast min-cut from root 0
        let grow = TopologyDelta::between(&damaged, &full);
        assert!(grow.is_pure_growth() && !grow.added_links.is_empty());
        cache.note_delta(&full, &opts, &grow);
        assert_eq!(
            cache.len(),
            0,
            "certificate rose: the surviving plan must be demoted for re-pack"
        );
        assert_eq!(cache.seeded(), 1);
        // the re-pack consumes the seed and recovers the full-topology rate
        let recovered = cache.plan_for(&full, &opts, GpuId(0)).unwrap().clone();
        assert_eq!(cache.seeded(), 0, "warm seed consumed");
        let mut cold_cache = PlanCache::new();
        let cold = cold_cache.plan_for(&full, &opts, GpuId(0)).unwrap().clone();
        assert!(
            recovered.rate_gbps() >= cold.rate_gbps() - 1e-9,
            "re-packed rate {} must recover the cold full-topology rate {}",
            recovered.rate_gbps(),
            cold.rate_gbps()
        );
        assert!(
            recovered.rate_gbps() > degraded.rate_gbps() + 1e-9,
            "re-pack must actually use the restored link ({} vs degraded {})",
            recovered.rate_gbps(),
            degraded.rate_gbps()
        );
        assert!(
            recovered.rate_gbps()
                >= (1.0 - opts.packing.epsilon) * recovered.optimal_rate_gbps - 1e-9
        );
    }

    #[test]
    fn growing_by_a_server_retains_shared_plans_for_the_old_shape() {
        use blink_topology::presets::{multi_server, ServerKind};
        use blink_topology::TopologyDelta;
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let small_alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let induced8 = machine.induced(&small_alloc).unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let mut cache = PlanCache::new().with_shared(shared.clone());
        // a single-server 8-GPU job plans all roots and publishes them under
        // the server-induced fingerprint
        cache.plan_many(&induced8, &opts, &small_alloc).unwrap();
        let f0 = plan_fingerprint(&induced8, &opts);
        assert!(shared.get(f0, GpuId(0), opts.links).is_some());

        // the job grows by a server: a pure-growth delta over its induced
        // topology (new GPUs, their links, the second server's NIC)
        let big_alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let induced16 = machine.induced(&big_alloc).unwrap();
        let delta = TopologyDelta::between(&induced8, &induced16);
        assert!(delta.is_pure_growth() && !delta.is_pure_removal());
        cache.note_delta(&induced16, &opts, &delta);
        // locally the old plans no longer span the grown job — seeds now —
        // but the shared tier keeps the old shape's plans published verbatim
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.seeded(), 8);
        assert!(
            shared.get(f0, GpuId(0), opts.links).is_some(),
            "growth must not flush the old shape from the shared tier"
        );

        // and the three-phase planner's per-server lookups for server 0
        // (whose induced shape IS the old job shape) re-hit those plans
        let (hits_before, _) = shared.stats();
        let scratch = new_shared_scratch();
        let (program, _info) = crate::multiserver::three_phase_allreduce_cached(
            &machine,
            &big_alloc,
            8 << 20,
            &opts,
            &crate::CodeGenOptions::default(),
            &scratch,
            Some(&shared),
        )
        .unwrap();
        let (hits_after, _) = shared.stats();
        assert!(
            hits_after > hits_before,
            "per-server lookups must reuse the retained plans"
        );
        assert!(!program.ops().is_empty());
    }

    #[test]
    fn global_plan_cache_is_one_process_wide_store() {
        let a = global_plan_cache();
        let b = global_plan_cache();
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..2).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let plan = Arc::new(
            PlanCache::new()
                .plan_for(&induced, &opts, GpuId(0))
                .unwrap()
                .clone(),
        );
        // a synthetic fingerprint no real communicator can collide with
        let fp = u64::MAX - 12345;
        a.insert(fp, GpuId(999), opts.links, plan.clone());
        let via_b = b.get(fp, GpuId(999), opts.links).unwrap();
        assert!(via_b.bit_eq(&plan));
        b.invalidate_fingerprint(fp);
        assert!(a.get(fp, GpuId(999), opts.links).is_none());
    }

    #[test]
    fn canonical_tier_shares_plans_across_isomorphic_allocations() {
        let topo = dgx1v();
        let quad_a: Vec<GpuId> = (0..4).map(GpuId).collect();
        let quad_b: Vec<GpuId> = (4..8).map(GpuId).collect();
        let ind_a = topo.induced(&quad_a).unwrap();
        let ind_b = topo.induced(&quad_b).unwrap();
        let opts = TreeGenOptions::default(); // NvLinkOnly
        let shared = SharedPlanCache::new();
        // communicator A packs every root of its quad and publishes both the
        // exact entries and the canonical images
        let mut a = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        let plans_a: Vec<TreePlan> = a
            .plan_many(&ind_a, &opts, &quad_a)
            .unwrap()
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(shared.canonical_stats(), (0, 4), "4 cold packs, all missed");
        assert_eq!(shared.canonical_len(), 4, "every canonical role published");
        // communicator B holds the *mirror* quad: exact fingerprints differ,
        // so the exact tier can never serve it — the canonical tier does,
        // for every root
        let mut b = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        let plans_b: Vec<TreePlan> = b
            .plan_many(&ind_b, &opts, &quad_b)
            .unwrap()
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(
            shared.canonical_stats(),
            (4, 4),
            "all of B's roots reuse A's packing work"
        );
        let (exact_hits, _) = shared.stats();
        assert_eq!(exact_hits, 0, "the exact tier never fired across quads");
        // the relabelled plans are real plans for B's GPUs: right root, right
        // span, edges inside the allocation, certified near-optimal rate
        for (plan, &root) in plans_b.iter().zip(&quad_b) {
            assert_eq!(plan.root, root);
            assert_eq!(plan.gpus, quad_b);
            assert!(plan.trees.iter().all(|t| {
                t.tree.root == root
                    && t.tree
                        .edges
                        .iter()
                        .all(|&(p, c)| quad_b.contains(&p) && quad_b.contains(&c))
            }));
            assert!(
                plan.rate_gbps() >= (1.0 - opts.packing.epsilon) * plan.optimal_rate_gbps - 1e-9
            );
        }
        // isomorphic images carry the original rates exactly (weights are
        // copied, only labels move) — compare the sorted rate multisets
        let mut rates_a: Vec<u64> = plans_a.iter().map(|p| p.rate_gbps().to_bits()).collect();
        let mut rates_b: Vec<u64> = plans_b.iter().map(|p| p.rate_gbps().to_bits()).collect();
        rates_a.sort_unstable();
        rates_b.sort_unstable();
        assert_eq!(rates_a, rates_b);
        // plan_for goes through the same tier
        let mut c = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        c.plan_for(&ind_b, &opts, GpuId(5)).unwrap();
        assert_eq!(shared.canonical_stats(), (5, 4));
        // invalidate flushes the canonical tier with everything else
        shared.invalidate();
        assert_eq!(shared.canonical_len(), 0);
        assert_eq!(shared.canonical_stats(), (0, 0));
    }

    #[test]
    fn canonical_tier_is_strictly_opt_in_and_gated() {
        let topo = dgx1v();
        let induced = topo
            .induced(&(0..4).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        // no opt-in: the canonical tier is never touched
        let mut plain = PlanCache::new().with_shared(shared.clone());
        plain.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.canonical_stats(), (0, 0));
        assert_eq!(shared.canonical_len(), 0);
        // opted in but PCIe-only: the canonical form only covers NVLink
        // capacities, so non-NVLink plans bypass the tier
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..opts
        };
        let mut p = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        p.plan_for(&induced, &pcie, GpuId(0)).unwrap();
        assert_eq!(shared.canonical_stats(), (0, 0));
        // opted in but past the labelling bound: a 9-GPU NVSwitch clique
        // skips the tier (9! labellings would be fine, 16! would not — the
        // gate is the documented constant, not luck)
        let dgx2 = blink_topology::presets::dgx2();
        let big = dgx2
            .induced(&(0..(CANONICAL_MAX_GPUS + 1)).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let mut q = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        q.plan_for(&big, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.canonical_stats(), (0, 0));
        // at the bound the tier engages
        let eight = dgx2
            .induced(&(0..CANONICAL_MAX_GPUS).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let mut r = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        r.plan_for(&eight, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.canonical_stats(), (0, 1));
        assert_eq!(shared.canonical_len(), 1);
        // exact-tier stats were never polluted by canonical traffic: the
        // counters above saw exactly the four packs' exact misses
        assert_eq!(shared.stats().0, 0);
    }

    #[test]
    fn canonical_hits_on_nvswitch_cliques_of_equal_size() {
        // on a DGX-2 every m-subset induces the same complete graph, so one
        // pack serves *any* same-size allocation — the partial-allocation
        // scenario of Figure 3 at its most extreme
        let dgx2 = blink_topology::presets::dgx2();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let tri_a: Vec<GpuId> = vec![GpuId(0), GpuId(1), GpuId(2)];
        let tri_b: Vec<GpuId> = vec![GpuId(5), GpuId(9), GpuId(14)];
        let mut a = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        let rate_a = {
            let ind = dgx2.induced(&tri_a).unwrap();
            a.plan_for(&ind, &opts, GpuId(0)).unwrap().rate_gbps()
        };
        let mut b = PlanCache::new()
            .with_shared(shared.clone())
            .with_canonical_sharing();
        let ind_b = dgx2.induced(&tri_b).unwrap();
        let plan_b = b.plan_for(&ind_b, &opts, GpuId(5)).unwrap().clone();
        assert_eq!(shared.canonical_stats(), (1, 1));
        assert_eq!(plan_b.rate_gbps().to_bits(), rate_a.to_bits());
        assert_eq!(plan_b.gpus, tri_b);
    }

    #[test]
    fn grows_while_throughput_improves() {
        let mut t = ChunkAutotuner::new(1 << 20);
        assert_eq!(t.chunk_bytes(), 1 << 20);
        t.observe(40.0);
        assert_eq!(t.chunk_bytes(), 2 << 20);
        t.observe(60.0);
        assert_eq!(t.chunk_bytes(), 4 << 20);
        assert!(!t.is_settled());
        assert_eq!(t.history().len(), 2);
    }

    #[test]
    fn backs_off_additively_on_regression() {
        let mut t = ChunkAutotuner::new(1 << 20);
        t.observe(40.0); // -> 2 MB
        t.observe(80.0); // -> 4 MB
        t.observe(60.0); // regression: back off and settle
        assert!(t.is_settled());
        assert_eq!(t.chunk_bytes(), (4 << 20) - (512 * 1024));
        let before = t.chunk_bytes();
        t.observe(100.0); // settled: no change
        assert_eq!(t.chunk_bytes(), before);
    }

    #[test]
    fn settles_when_throughput_plateaus() {
        let mut t = ChunkAutotuner::new(1 << 20);
        t.observe(40.0);
        t.observe(40.1); // within 1% of the best -> settle
        assert!(t.is_settled());
    }

    #[test]
    fn respects_bounds_and_reset() {
        let mut t = ChunkAutotuner::new(1);
        assert!(t.chunk_bytes() >= 64 * 1024);
        for gbps in [
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
        ] {
            t.observe(gbps);
        }
        assert!(t.chunk_bytes() <= 64 << 20);
        assert!(t.is_settled());
        t.reset(1 << 20);
        assert!(!t.is_settled());
        assert_eq!(t.chunk_bytes(), 1 << 20);
        assert!(t.history().is_empty());
    }
}
