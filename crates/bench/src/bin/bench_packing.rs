//! TreeGen hot-path perf baseline: absolute fast-path throughput plus
//! deterministic quality gates.
//!
//! Measures four stages on the 8-GPU DGX-1V NVLink graph at ε = 0.05 — the
//! paper's headline broadcast configuration — and writes `BENCH_packing.json`
//! so future PRs have a trajectory to compare against:
//!
//! * **packing** — the zero-allocation scratch-reuse MWU packing
//!   ([`blink_graph::pack_spanning_trees_in`]);
//! * **minimize** — the iterative arena branch-and-bound
//!   ([`blink_graph::minimize_trees_in`]) reducing the raw MWU packing;
//! * **certificate** — the build-once/reset-per-sink Dinic
//!   ([`blink_graph::optimal_broadcast_rate_in`]);
//! * **certificate_allsinks** — the Hao–Orlin-style all-sinks pass
//!   ([`blink_graph::broadcast_rate_all_sinks_in`]) vs the per-sink Dinic
//!   reference ([`blink_graph::broadcast_rate_per_sink_dinic_in`]) on a
//!   24-vertex three-server DGX-1V fabric — the regime past
//!   [`blink_graph::CUT_ENUMERATION_MAX_NODES`] where the one-pass
//!   certificate must earn its keep;
//! * **parallel_sweep** — the all-roots TreeGen sweep
//!   ([`blink_core::TreeGen::plan_roots`], the multi-root planning loop of
//!   the three-phase AllReduce) through a multi-worker
//!   [`blink_core::ScratchPool`] vs the single-worker sequential path.
//!
//! The pre-optimisation in-process baselines ([`blink_graph::baseline`]) are
//! retired from this benchmark's measurement path: three PRs of recorded
//! trajectory exist, so the naive solvers survive only where they earn their
//! keep — as the bit-identity/quality oracles the graph crate's unit tests
//! and the workspace property tests pin the fast paths against. The recorded
//! throughput here is consequently
//! **absolute** and machine-dependent; it is written for trajectory context,
//! not gated.
//!
//! Run with `cargo run --release -p blink-bench --bin bench_packing`.
//!
//! `--check` runs a quick-mode measurement and gates only on properties that
//! do not depend on runner hardware:
//!
//! * the packed rate must meet the MWU approximation guarantee
//!   (`rate_over_optimal >= 1 - ε`) and must not drift below the recorded
//!   ratio by more than [`QUALITY_TOLERANCE`];
//! * the MWU iteration count must not inflate past [`WORK_TOLERANCE`]× the
//!   recording (work blow-up with unchanged output quality is still a
//!   regression);
//! * the minimised packing must not use more trees than recorded;
//! * the broadcast-rate certificate must reproduce the recorded value
//!   exactly (it is a deterministic function of the topology);
//! * the all-sinks certificate must agree bit-exactly with the per-sink
//!   Dinic reference on the multi-server fabric graph and, when the graph
//!   has at least [`ALLSINKS_MIN_VERTICES`] vertices, be at least
//!   [`ALLSINKS_SPEEDUP_FLOOR`]× faster (both paths run in-process, so the
//!   ratio cancels runner hardware);
//! * on machines with more than one core, the parallel sweep must not be
//!   slower than the sequential sweep (on a single core the two paths are
//!   identical by construction, so that gate is vacuous there).
//!
//! It does not rewrite the JSON.

use blink_bench::gate::{self, Recorded, Verdict};
use blink_core::{ScratchPool, TreeGen, TreeGenOptions};
use blink_graph::{
    broadcast_rate_all_sinks_in, broadcast_rate_per_sink_dinic_in, minimize_trees_in,
    optimal_broadcast_rate, optimal_broadcast_rate_in, pack_spanning_trees_in, DiGraph,
    MaxFlowScratch, MinimizeOptions, MinimizeScratch, PackingOptions, PackingScratch,
};
use blink_topology::presets::{dgx1v, multi_server, ServerKind, DEFAULT_NIC_GBPS};
use blink_topology::GpuId;
use serde::Serialize;
use std::time::Instant;

const EPSILON: f64 = 0.05;
const ROOT: GpuId = GpuId(0);
/// `--check` fails when `rate_over_optimal` drifts more than this far below
/// the recorded value. The packing is deterministic, so the band only
/// absorbs intentional recalibrations, not runner hardware.
const QUALITY_TOLERANCE: f64 = 0.01;
/// `--check` fails when the MWU iteration count exceeds this factor of the
/// recorded count: producing the same packing with twice the solves is a
/// hot-path regression even though the output is unchanged.
const WORK_TOLERANCE: f64 = 2.0;
/// `--check` fails when the multi-worker parallel sweep is slower than this
/// fraction of the sequential sweep. Strictly "not slower" would be 1.0, but
/// the quick-mode sweep window is tens of milliseconds — a shared CI runner
/// needs a noise band so an unrelated PR is not failed by a background
/// scheduler hiccup. A genuinely serialised pool shows up far below 0.9.
const SWEEP_TOLERANCE: f64 = 0.9;
/// `--check` fails when the all-sinks certificate is not at least this many
/// times faster than the per-sink Dinic reference on the three-server fabric
/// graph. Both sides run in-process on the same graph, so runner hardware
/// cancels out of the ratio; the one-pass structure is worth well over 2×
/// there (a single residual network and label array amortised across all
/// 23 sinks vs 23 independent Dinic runs over NIC-bottlenecked paths).
const ALLSINKS_SPEEDUP_FLOOR: f64 = 2.0;
/// The all-sinks gate is armed only at or above this vertex count: below it
/// the certificate dispatches to the Gray-code cut enumeration anyway and
/// the comparison would measure paths production never takes together.
const ALLSINKS_MIN_VERTICES: usize = 16;

/// Throughput and quality of the MWU packing fast path.
#[derive(Debug, Serialize)]
struct PackingReport {
    /// Complete packings computed per second (absolute, machine-dependent).
    packings_per_sec: f64,
    /// Packed trees produced per second (trees in the final packing divided
    /// by the time one packing takes).
    trees_per_sec: f64,
    /// Mean wall-clock microseconds per packing.
    us_per_packing: f64,
    /// MWU iterations (min-arborescence solves) one packing runs.
    mwu_iterations: usize,
    /// Distinct trees in the resulting packing.
    num_trees: usize,
    /// Total packed rate in GB/s.
    rate_gbps: f64,
    /// Packed rate divided by the Edmonds/Lovász certificate.
    rate_over_optimal: f64,
}

/// Throughput and quality of the tree-count minimisation fast path.
#[derive(Debug, Serialize)]
struct MinimizeReport {
    /// Minimisations per second (absolute, machine-dependent).
    per_sec: f64,
    /// Mean wall-clock microseconds per invocation.
    us_per_call: f64,
    /// Trees in the minimised packing (deterministic; gated).
    num_trees: usize,
    /// Minimised rate divided by the certificate.
    rate_over_optimal: f64,
}

/// Throughput and value of the broadcast-rate certificate fast path.
#[derive(Debug, Serialize)]
struct CertificateReport {
    /// Certificates per second (absolute, machine-dependent).
    per_sec: f64,
    /// Mean wall-clock microseconds per invocation (n − 1 max-flows).
    us_per_call: f64,
    /// The certificate value in GB/s (deterministic; gated exactly).
    rate_gbps: f64,
}

/// The all-sinks (Hao–Orlin-style) certificate vs the per-sink Dinic
/// reference on a 24-vertex three-server DGX-1V fabric.
#[derive(Debug, Serialize)]
struct CertificateAllSinksReport {
    /// Vertices of the benchmark graph (the gate arms at
    /// [`ALLSINKS_MIN_VERTICES`]).
    vertices: usize,
    /// Best-of-windows wall-clock microseconds per all-sinks call.
    allsinks_us_per_call: f64,
    /// Best-of-windows wall-clock microseconds per per-sink-Dinic call.
    per_sink_us_per_call: f64,
    /// `per_sink_us_per_call / allsinks_us_per_call` (in-process ratio;
    /// gated at [`ALLSINKS_SPEEDUP_FLOOR`]).
    speedup: f64,
    /// The certificate value in GB/s — both paths must agree bit-exactly.
    rate_gbps: f64,
}

#[derive(Debug, Serialize)]
struct Config {
    topology: String,
    gpus: usize,
    epsilon: f64,
    root: usize,
    fast_runs: usize,
}

/// One path (sequential or parallel) of the multi-root sweep stage.
#[derive(Debug, Serialize)]
struct SweepPathReport {
    /// Complete all-roots sweeps per second.
    sweeps_per_sec: f64,
    /// Mean wall-clock microseconds per sweep.
    us_per_sweep: f64,
}

/// The multi-root planning sweep: all 8 DGX-1V roots planned through a
/// single-worker pool (sequential) vs the machine-default multi-worker pool.
#[derive(Debug, Serialize)]
struct ParallelSweepReport {
    /// Roots planned per sweep.
    roots: usize,
    /// Workers the parallel path used (1 on a single-core machine, in which
    /// case both paths are the same code and the speedup is ≈ 1).
    workers: usize,
    sequential: SweepPathReport,
    parallel: SweepPathReport,
    /// `parallel.sweeps_per_sec / sequential.sweeps_per_sec`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    config: Config,
    /// The MWU packing fast path (Section 3.1).
    packing: PackingReport,
    /// Tree-count minimisation of the raw MWU packing (Section 3.2.1).
    minimize: MinimizeReport,
    /// The Edmonds/Lovász broadcast-rate certificate (n − 1 max-flows).
    certificate: CertificateReport,
    /// The all-sinks certificate vs per-sink Dinic on the three-server
    /// fabric graph.
    certificate_allsinks: CertificateAllSinksReport,
    /// Multi-root sweep through the scratch pool: parallel vs sequential.
    parallel_sweep: ParallelSweepReport,
}

/// Times `runs` invocations of `f` and returns mean seconds per call.
fn time_calls<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    t0.elapsed().as_secs_f64() / runs as f64
}

/// Best (minimum) of `reps` timing windows of `runs` calls each, in seconds
/// per call. Ratio gates use this: the minimum window is the estimate least
/// contaminated by scheduler noise on a shared runner.
fn best_of_calls<F: FnMut()>(reps: usize, runs: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(time_calls(runs, &mut f));
    }
    best
}

fn measure(quick: bool) -> Report {
    // Per-stage run counts sized so each stage's timing window is well above
    // clock noise; `quick` (the CI `--check` mode) divides the slow ones.
    let fast_runs = if quick { 50 } else { 200 };
    let min_fast_runs = if quick { 100 } else { 500 };
    let cert_fast_runs = if quick { 5000 } else { 20000 };
    let topo = dgx1v();
    let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
    let root_idx = g.node(ROOT).expect("root exists");
    let opt = optimal_broadcast_rate(&g, root_idx);
    let opts = PackingOptions {
        epsilon: EPSILON,
        ..Default::default()
    };

    // ---- packing: iterative solver + reused PackingScratch ----
    let mut scratch = PackingScratch::new();
    let (fast_packing, fast_stats) =
        pack_spanning_trees_in(&g, ROOT, &opts, &mut scratch).expect("dgx1v spans");
    let per_packing = time_calls(fast_runs, || {
        pack_spanning_trees_in(&g, ROOT, &opts, &mut scratch).expect("dgx1v spans");
    });
    let packing = PackingReport {
        packings_per_sec: 1.0 / per_packing,
        trees_per_sec: fast_packing.num_trees() as f64 / per_packing,
        us_per_packing: per_packing * 1e6,
        mwu_iterations: fast_stats.iterations,
        num_trees: fast_packing.num_trees(),
        rate_gbps: fast_packing.rate(),
        rate_over_optimal: fast_packing.rate() / opt,
    };

    // ---- minimize: arena branch-and-bound over the raw MWU packing ----
    let min_opts = MinimizeOptions::default();
    let mut min_scratch = MinimizeScratch::new();
    let minimized = minimize_trees_in(&g, &fast_packing, &min_opts, &mut min_scratch); // warm up
    let per_minimize = time_calls(min_fast_runs, || {
        minimize_trees_in(&g, &fast_packing, &min_opts, &mut min_scratch);
    });
    let minimize = MinimizeReport {
        per_sec: 1.0 / per_minimize,
        us_per_call: per_minimize * 1e6,
        num_trees: minimized.num_trees(),
        rate_over_optimal: minimized.rate() / opt,
    };

    // ---- certificate: n − 1 max-flows per call ----
    let mut mf_scratch = MaxFlowScratch::new();
    let cert_value = optimal_broadcast_rate_in(&g, root_idx, &mut mf_scratch); // warm up
    let per_cert = time_calls(cert_fast_runs, || {
        optimal_broadcast_rate_in(&g, root_idx, &mut mf_scratch);
    });
    let certificate = CertificateReport {
        per_sec: 1.0 / per_cert,
        us_per_call: per_cert * 1e6,
        rate_gbps: cert_value,
    };

    // ---- certificate_allsinks: Hao–Orlin vs per-sink Dinic on a fabric ----
    // A three-server DGX-1V fabric (24 vertices: NVLink + PCIe + NIC links)
    // sits past CUT_ENUMERATION_MAX_NODES, where the production certificate
    // dispatches to the all-sinks pass. The comparison is a hard ratio gate,
    // so each side takes the best of several timing windows — the minimum is
    // the least load-noise-contaminated estimate of the true cost.
    let (allsinks_reps, allsinks_runs) = if quick { (5, 100) } else { (10, 200) };
    let fabric = multi_server(3, ServerKind::Dgx1V, DEFAULT_NIC_GBPS);
    let g24 = DiGraph::from_topology(&fabric);
    let root24 = g24.node(GpuId(0)).expect("fabric root exists");
    let allsinks_value = broadcast_rate_all_sinks_in(&g24, root24, &mut mf_scratch);
    let per_sink_value = broadcast_rate_per_sink_dinic_in(&g24, root24, &mut mf_scratch);
    assert_eq!(
        allsinks_value.to_bits(),
        per_sink_value.to_bits(),
        "the all-sinks certificate must agree bit-exactly with per-sink Dinic"
    );
    let per_allsinks = best_of_calls(allsinks_reps, allsinks_runs, || {
        broadcast_rate_all_sinks_in(&g24, root24, &mut mf_scratch);
    });
    let per_per_sink = best_of_calls(allsinks_reps, allsinks_runs, || {
        broadcast_rate_per_sink_dinic_in(&g24, root24, &mut mf_scratch);
    });
    let certificate_allsinks = CertificateAllSinksReport {
        vertices: g24.num_nodes(),
        allsinks_us_per_call: per_allsinks * 1e6,
        per_sink_us_per_call: per_per_sink * 1e6,
        speedup: per_per_sink / per_allsinks,
        rate_gbps: allsinks_value,
    };

    // ---- parallel_sweep: all 8 roots through the scratch pool ----
    let sweep_runs = if quick { 10 } else { 50 };
    let roots: Vec<GpuId> = (0..8).map(GpuId).collect();
    let sequential_tg = TreeGen::with_scratch(
        topo.clone(),
        TreeGenOptions::default(),
        ScratchPool::with_workers(1),
    );
    sequential_tg.plan_roots(&roots).expect("dgx1v spans"); // warm up
    let per_seq_sweep = time_calls(sweep_runs, || {
        sequential_tg.plan_roots(&roots).expect("dgx1v spans");
    });
    let parallel_pool = ScratchPool::new();
    let workers = parallel_pool.workers();
    let parallel_tg = TreeGen::with_scratch(topo.clone(), TreeGenOptions::default(), parallel_pool);
    parallel_tg.plan_roots(&roots).expect("dgx1v spans"); // warm up
    let per_par_sweep = time_calls(sweep_runs, || {
        parallel_tg.plan_roots(&roots).expect("dgx1v spans");
    });
    let parallel_sweep = ParallelSweepReport {
        roots: roots.len(),
        workers,
        speedup: per_seq_sweep / per_par_sweep,
        sequential: SweepPathReport {
            sweeps_per_sec: 1.0 / per_seq_sweep,
            us_per_sweep: per_seq_sweep * 1e6,
        },
        parallel: SweepPathReport {
            sweeps_per_sec: 1.0 / per_par_sweep,
            us_per_sweep: per_par_sweep * 1e6,
        },
    };

    Report {
        config: Config {
            topology: "dgx1v".to_string(),
            gpus: 8,
            epsilon: EPSILON,
            root: ROOT.0,
            fast_runs,
        },
        packing,
        minimize,
        certificate,
        certificate_allsinks,
        parallel_sweep,
    }
}

/// Compares the deterministic quality metrics against the recorded
/// trajectory; returns human-readable failure descriptions. Wall-clock
/// throughput is deliberately not compared — without an in-process naive
/// side there is no ratio for runner hardware to cancel out of.
fn check_against_recorded(recorded: &Recorded, report: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    if report.packing.rate_over_optimal < 1.0 - EPSILON {
        failures.push(format!(
            "packing rate is {:.4} of the certificate, below the MWU guarantee of 1 - ε = {:.4}",
            report.packing.rate_over_optimal,
            1.0 - EPSILON
        ));
    }
    if let Some(rec) = recorded.at(&["packing", "rate_over_optimal"]) {
        if report.packing.rate_over_optimal < rec - QUALITY_TOLERANCE {
            failures.push(format!(
                "packing rate_over_optimal {:.4} drifted more than {QUALITY_TOLERANCE} below \
                 the recorded {rec:.4}",
                report.packing.rate_over_optimal
            ));
        }
    }
    failures.extend(gate::above(
        "packing MWU iterations",
        report.packing.mwu_iterations as f64,
        recorded.at(&["packing", "mwu_iterations"]),
        WORK_TOLERANCE,
    ));
    if let Some(rec) = recorded.at(&["minimize", "num_trees"]) {
        if report.minimize.num_trees as f64 > rec {
            failures.push(format!(
                "minimised packing uses {} trees, more than the recorded {rec} \
                 (re-record BENCH_packing.json if this is an intentional trade)",
                report.minimize.num_trees
            ));
        }
    }
    if let Some(rec) = recorded.at(&["certificate", "rate_gbps"]) {
        if (report.certificate.rate_gbps - rec).abs() > 1e-6 * rec.max(1.0) {
            failures.push(format!(
                "broadcast-rate certificate is {:.6} GB/s but the recording says {rec:.6} — \
                 the certificate is a deterministic function of the topology",
                report.certificate.rate_gbps
            ));
        }
    }
    if let Some(rec) = recorded.at(&["certificate_allsinks", "rate_gbps"]) {
        if (report.certificate_allsinks.rate_gbps - rec).abs() > 1e-6 * rec.max(1.0) {
            failures.push(format!(
                "all-sinks certificate is {:.6} GB/s but the recording says {rec:.6} — \
                 it is a deterministic function of the topology",
                report.certificate_allsinks.rate_gbps
            ));
        }
    }
    failures
}

fn main() {
    let check_mode = gate::check_mode();
    let out = measure(check_mode);
    eprintln!(
        "packing {:.1} us ({} trees, rate/optimal {:.3}), minimize {:.1} us ({} trees), \
         certificate {:.1} us; all-sinks certificate {:.2}x over per-sink Dinic ({} vertices); \
         parallel sweep {:.2}x over sequential ({} workers)",
        out.packing.us_per_packing,
        out.packing.num_trees,
        out.packing.rate_over_optimal,
        out.minimize.us_per_call,
        out.minimize.num_trees,
        out.certificate.us_per_call,
        out.certificate_allsinks.speedup,
        out.certificate_allsinks.vertices,
        out.parallel_sweep.speedup,
        out.parallel_sweep.workers,
    );
    if !check_mode {
        gate::record("packing", &out);
        return;
    }
    let recorded = Recorded::load("packing");
    let mut verdict = Verdict::default();
    verdict.hard(check_against_recorded(&recorded, &out));
    // In-process ratio gate: on a ≥ 16-vertex graph the one-pass all-sinks
    // certificate must beat per-sink Dinic by the floor. Below that size the
    // production dispatch never takes these paths together (the Gray-code
    // enumeration owns small graphs), so the gate would compare a
    // configuration that cannot occur — skip loudly.
    let allsinks = &out.certificate_allsinks;
    if allsinks.vertices < ALLSINKS_MIN_VERTICES {
        gate::skipped(
            "all-sinks certificate gate",
            &format!(
                "the benchmark graph has only {} vertices (< {ALLSINKS_MIN_VERTICES}), where \
                 the certificate dispatches to the cut enumeration and the {:.2}x \"speedup\" \
                 above compares paths production never runs. Re-run against a \
                 >= {ALLSINKS_MIN_VERTICES}-vertex switch graph to arm this gate.",
                allsinks.vertices, allsinks.speedup
            ),
        );
    } else if allsinks.speedup < ALLSINKS_SPEEDUP_FLOOR {
        verdict.hard(Some(format!(
            "all-sinks certificate at {:.2}x over per-sink Dinic on the {}-vertex switch \
             graph — the one-pass structure must be worth at least {ALLSINKS_SPEEDUP_FLOOR}x there",
            allsinks.speedup, allsinks.vertices
        )));
    }
    // With real parallelism available, the parallel sweep must never lose to
    // the sequential path (beyond measurement noise, see SWEEP_TOLERANCE).
    // With one worker the two paths are the same code.
    let sweep = &out.parallel_sweep;
    if let Some(latency) = verdict.latency(
        sweep.workers,
        "parallel-sweep gate",
        &format!(
            "the parallel and sequential sweeps are the same code path and the {:.2}x \
             \"speedup\" above is two timings of identical work",
            sweep.speedup
        ),
    ) {
        if sweep.speedup < SWEEP_TOLERANCE {
            latency.push(format!(
                "parallel sweep at {:.2}x over sequential with {} workers — the parallel \
                 path must not be slower than sequential (tolerance {SWEEP_TOLERANCE})",
                sweep.speedup, sweep.workers
            ));
        }
    }
    verdict.finish("all packing quality gates hold against the recorded trajectory");
}
