//! What every workload shares: the pass record, the run budget, seeding and
//! the lower-layer re-invocations the traced run attributes to a call.

use crate::stats::{geomean, mean, median, ratio, summarize, Summary, MIN_SAMPLES_FOR_P99};
use blink_core::onehop::{is_switch_fabric, one_hop_broadcast_tree, one_hop_trees};
use blink_core::{
    CodeGen, CodeGenOptions, CollectiveKind, Communicator, LinkSelection, TreeGen, TreeGenOptions,
};
use blink_graph::WeightedTree;
use blink_sim::{EngineScratch, LinkClass, Program, RunReport, SimParams, Simulator};
use blink_topology::GpuId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Longest a timed loop may run while it still lacks samples for its p99.
const HARD_CAP_S: f64 = 60.0;

/// Runs of the reference kernel per calibration; the fastest one counts.
const REFERENCE_RUNS: usize = 2;

/// What one pass (untraced or traced) of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Each set-up repetition in seconds of the reference host.
    pub setup_s: Vec<f64>,
    /// Wall time of each set-up repetition (s).
    pub setup_wall_s: Vec<f64>,
    /// Wall time of every timed operation (µs).
    pub op_us: Vec<f64>,
    /// Every timed operation's wall time divided by the reference kernel's
    /// wall time measured around it (ref).
    pub op_ref: Vec<f64>,
    /// Batches of operations (a `fleet` episode, a `paper` or `train` round,
    /// a `churn` cycle): their operation counts and wall times (s).
    pub batches: Vec<(usize, f64)>,
    /// The batches' summed wall time in reference units (ref).
    pub batch_ref_total: f64,
    /// Every calibration's reference-kernel wall time (µs).
    pub ref_us: Vec<f64>,
    /// The kernel times the operations of the open batch were divided by.
    batch_refs: Vec<f64>,
    /// Operations attempted and failed (collective calls, replans, placed
    /// jobs; a failure is an `Err`, an oracle violation, a non-finite or zero
    /// simulated rate, or a determinism mismatch).
    pub attempted: u64,
    pub failed: u64,
    /// Simulated Blink AllReduce algorithmic bandwidths (GB/s).
    pub allreduce_gbps: Vec<f64>,
    /// Simulated Blink-over-NCCL ratios (higher is better for Blink).
    pub speedups: Vec<f64>,
    /// Bits of every simulated output, in a fixed order: traced and
    /// untraced passes of one seed must agree on them exactly.
    pub digest: Vec<u64>,
    /// Per-layer metrics (traced pass only): name → value.
    pub layers: BTreeMap<&'static str, f64>,
    /// Printed detail metrics: (name, value, unit, samples).
    pub details: Vec<(String, f64, &'static str, usize)>,
    /// Printed workload property shares.
    pub shares: Vec<(String, f64)>,
    /// Printed failure descriptions (at most a few are kept).
    pub failures: Vec<String>,
}

impl Pass {
    /// Counts one attempted operation, failing it when `ok` is false.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure that is not an attempt of its own (a mismatch found
    /// by a cross-check).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Times the reference kernel, off the operations' clock, and expresses
    /// the operations timed since the last calibration in its units. The
    /// host's speed drifts over seconds and minutes as other tenants load
    /// it; the kernel, timed in the same host state as the operations,
    /// drifts with it, and the ratio does not. Operations are divided by
    /// the mean of the kernel times just before and just after them.
    pub fn calibrate(&mut self) {
        let r = reference_us();
        let bracket = self.ref_us.last().map_or(r, |&before| (before + r) / 2.0);
        self.ref_us.push(r);
        self.batch_refs.push(bracket);
        let done = self.op_ref.len();
        self.op_ref
            .extend(self.op_us[done..].iter().map(|us| us / bracket));
    }

    /// Ends a batch of `ops` operations that took `s` in all, calibrating
    /// it: its time is divided by the mean kernel time of its operations.
    pub fn end_batch(&mut self, ops: usize, s: f64) {
        self.calibrate();
        let r = mean(&self.batch_refs);
        self.batch_refs.clear();
        self.batches.push((ops, s));
        self.batch_ref_total += ratio(s * 1e6, r);
    }

    /// Ends a batch made of the operations timed since the last batch, its
    /// time their summed wall time.
    pub fn end_round(&mut self) {
        let done: usize = self.batches.iter().map(|b| b.0).sum();
        let round = &self.op_us[done..];
        let s = round.iter().sum::<f64>() / 1e6;
        self.end_batch(round.len(), s);
    }

    /// The timing summary of the pass.
    pub fn timings(&self) -> Timings {
        let (ops, s) = self
            .batches
            .iter()
            .fold((0, 0.0), |(n, t), &(k, s)| (n + k, t + s));
        Timings {
            op_ref: summarize(&self.op_ref),
            op_gmean_ref: geomean(&self.op_ref),
            ops_per_ref: ratio(ops as f64, self.batch_ref_total),
            op_us: summarize(&self.op_us),
            ops_per_s: ratio(ops as f64, s),
            ref_us: median(&self.ref_us),
            batches: self.batches.len(),
        }
    }

    /// Prints the pass's timings under a workload's own names: `op` names
    /// one operation (`ttfc`), `rate` its throughput (`jobs_per_s`).
    pub fn timing_details(&mut self, op: &str, rate: &str, rate_unit: &'static str) {
        let t = self.timings();
        let n = t.op_us.samples;
        self.detail(&format!("{op}_p50_us"), t.op_us.p50, "us", n);
        self.detail(&format!("{op}_p99_us"), t.op_us.p99, "us", n);
        self.detail(rate, t.ops_per_s, rate_unit, t.batches);
        self.detail(&format!("{op}_gmean_ref"), t.op_gmean_ref, "ref", n);
        self.detail(&format!("{op}_p50_ref"), t.op_ref.p50, "ref", n);
        self.detail(&format!("{op}_p99_ref"), t.op_ref.p99, "ref", n);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.details.push((name.to_string(), value, unit, samples));
    }

    pub fn share(&mut self, name: &str, value: f64) {
        self.shares.push((name.to_string(), value));
    }
}

/// What a pass's timed operations took.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Every operation in units of the reference kernel's time.
    pub op_ref: Summary,
    /// Their geometric mean.
    pub op_gmean_ref: f64,
    /// Operations per reference-kernel time over all batches.
    pub ops_per_ref: f64,
    /// Every operation's wall time (µs).
    pub op_us: Summary,
    /// Operations per second of wall time over all batches.
    pub ops_per_s: f64,
    /// Median wall time of the reference kernel (µs).
    pub ref_us: f64,
    /// Batches timed.
    pub batches: usize,
}

/// A simulated rate is valid when positive and finite.
pub fn valid_rate(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// When the timed loop stops: after `seconds`, once the p99 has enough
/// samples beyond it, and never past a hard cap.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    seconds: f64,
    start: Instant,
}

impl Budget {
    pub fn start(seconds: f64) -> Self {
        Budget {
            seconds,
            start: Instant::now(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether another batch should run given `samples` so far.
    pub fn more(&self, samples: usize) -> bool {
        let t = self.elapsed_s();
        t < HARD_CAP_S && (t < self.seconds || samples < MIN_SAMPLES_FOR_P99)
    }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A seed derived from the workload seed and a stream index.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

pub fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Re-runs `program` on the engine over the communicator's machine.
pub fn rerun_engine(
    comm: &Communicator,
    program: &Program,
    scratch: &mut EngineScratch,
) -> Option<RunReport> {
    Simulator::new(comm.machine_topology().clone(), SimParams::default())
        .run_with_scratch(program, scratch)
        .ok()
}

/// Mean utilisation of the links a run used (busy time over makespan).
pub fn link_util_mean(report: &RunReport) -> f64 {
    if report.total_us <= 0.0 || report.link_busy_us.is_empty() {
        return 0.0;
    }
    let sum: f64 = report
        .link_busy_us
        .values()
        .map(|b| b / report.total_us)
        .sum();
    sum / report.link_busy_us.len() as f64
}

/// Cold per-root tree plans of one communicator, kept so the traced run
/// plans each (root, link class) once.
#[derive(Debug, Default)]
pub struct ColdPlans(BTreeMap<(GpuId, bool), Option<Vec<WeightedTree>>>);

impl ColdPlans {
    fn trees(&mut self, comm: &Communicator, root: GpuId, pcie: bool) -> Option<Vec<WeightedTree>> {
        self.0
            .entry((root, pcie))
            .or_insert_with(|| {
                let links = if pcie {
                    LinkSelection::PcieOnly
                } else {
                    LinkSelection::NvLinkOnly
                };
                let options = TreeGenOptions {
                    links,
                    ..comm.options().treegen
                };
                TreeGen::new(comm.induced_topology().clone(), options)
                    .plan(root)
                    .ok()
                    .map(|p| p.trees)
            })
            .clone()
    }
}

/// Finds the CodeGen inputs that reproduce `program` exactly: one-hop trees
/// on switch fabrics, else packed NVLink or PCIe trees from the collective's
/// root (or, for rootless collectives, the first allocation GPU whose trees
/// reproduce it). `None` for lowerings this does not model, such as
/// three-phase multi-server programs.
pub fn reconstruct_codegen(
    comm: &Communicator,
    cold: &mut ColdPlans,
    kind: CollectiveKind,
    bytes: u64,
    chunk_bytes: u64,
    program: &Program,
) -> Option<(CodeGen, Vec<WeightedTree>)> {
    let alloc = comm.allocation().to_vec();
    let base = CodeGenOptions {
        chunk_bytes,
        stream_reuse: comm.options().stream_reuse,
        ..Default::default()
    };
    let matches = |cg: &CodeGen, trees: &[WeightedTree]| {
        cg.build(trees, kind, bytes)
            .map(|p| &p == program)
            .unwrap_or(false)
    };
    if is_switch_fabric(comm.induced_topology(), &alloc) {
        let cap = comm
            .induced_topology()
            .gpu_cap(alloc[0])
            .unwrap_or(23.0 * 6.0);
        let trees = match kind.root() {
            Some(root) => vec![one_hop_broadcast_tree(&alloc, root, cap)],
            None => one_hop_trees(&alloc, cap / alloc.len() as f64),
        };
        let cg = CodeGen::new(base);
        if matches(&cg, &trees) {
            return Some((cg, trees));
        }
    }
    let roots: Vec<_> = match kind.root() {
        Some(root) => vec![root],
        None => alloc,
    };
    for pcie in [false, true] {
        let cg = CodeGen::new(CodeGenOptions {
            link_class: if pcie {
                LinkClass::Pcie
            } else {
                LinkClass::NvLink
            },
            ..base
        });
        for &root in &roots {
            if let Some(trees) = cold.trees(comm, root, pcie) {
                if matches(&cg, &trees) {
                    return Some((cg, trees));
                }
            }
        }
    }
    None
}

/// Seed of the reference kernel's input: the same work in every run.
const REFERENCE_SEED: u64 = 7;

/// The reference kernel's time on the reference host (µs), about its median
/// on the 2-core cloud VM the benchmark was tuned on. Set-up times are in
/// seconds of that host.
const REFERENCE_HOST_US: f64 = 500.0;

/// Wall time of the reference kernel (µs), best of [`REFERENCE_RUNS`].
pub fn reference_us() -> f64 {
    (0..REFERENCE_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(reference_kernel(std::hint::black_box(REFERENCE_SEED)));
            elapsed_us(t0)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times one set-up. Its wall time is scaled to the reference host by the
/// reference kernel's time around it, as operations are: `setup_s` has to
/// stay in seconds, and the host's drift between runs (up to 40% between
/// two sets of runs a quarter of an hour apart) would otherwise show in it.
pub struct SetupTimer {
    before_us: f64,
    start: Instant,
}

impl SetupTimer {
    pub fn start() -> Self {
        SetupTimer {
            before_us: reference_us(),
            start: Instant::now(),
        }
    }

    /// Ends the set-up and records it in `pass`.
    pub fn stop(self, pass: &mut Pass) {
        let wall_s = self.start.elapsed().as_secs_f64();
        let r = (self.before_us + reference_us()) / 2.0;
        pass.setup_wall_s.push(wall_s);
        pass.setup_s.push(wall_s * REFERENCE_HOST_US / r);
    }
}

/// A fixed piece of host work that calls nothing in the library, so that no
/// change to the library moves it: ordered-map updates, float arithmetic
/// and sorting, like the planner's inner loops. About 0.4 ms on one core of
/// a 2-core cloud VM.
pub fn reference_kernel(seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut map: BTreeMap<u64, f64> = BTreeMap::new();
    let mut v: Vec<f64> = Vec::with_capacity(256);
    let mut acc = 0.0;
    for i in 0..4000u64 {
        let k = rng.next_u64() % 2048;
        let x = (i as f64 + 1.0).sqrt() * 1.000_1;
        *map.entry(k).or_insert(0.0) += x;
        v.push(x * (k as f64));
        if v.len() == 256 {
            v.sort_by(|a, b| b.total_cmp(a));
            acc += v[0] - v[255];
            v.clear();
        }
    }
    acc + map.values().sum::<f64>()
}
