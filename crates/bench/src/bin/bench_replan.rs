//! Warm-vs-cold replan latency across failure and elasticity scenarios.
//!
//! Each scenario applies a [`TopologyDelta`] — kill a link, drop a GPU, grow
//! the job — to a planned communicator and measures how long
//! [`Communicator::replan`] takes when the plan cache warm-starts packing and
//! minimisation from the stale plans (warm) versus when the same delta lands
//! on a communicator with an empty cache and every root packs from scratch
//! (cold). Both paths run the exact same `replan` code; the only difference
//! is whether delta invalidation had stale plans to demote into seeds.
//!
//! Without arguments: measures with full run counts and writes
//! `BENCH_replan.json` to the working directory (repo root under
//! `cargo run -p blink-bench --bin bench_replan --release`).
//!
//! With `--check`: quick re-measurement compared against the recorded file.
//! Result-quality gates are enforced on every runner: every replanned
//! AllReduce passes the value-level oracle, and on pure-removal scenarios the
//! warm rate is never worse than cold and a seeded warm repair takes the
//! `reroute` path with zero MWU iterations. The latency gates (warm-over-cold
//! p50 at least [`WARM_FLOOR`]× on the DGX-1V kill-link and drop-GPU
//! scenarios, and every scenario within [`CHECK_TOLERANCE`]× below its
//! recorded speedup) need a machine with >= 2 workers and are loudly SKIPPED
//! otherwise. Exits non-zero on regression.

use blink_bench::gate::{self, percentile, Recorded, Verdict};
use blink_core::{CollectiveKind, Communicator, CommunicatorOptions, ReplanReport, ScratchPool};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, Topology, TopologyDelta};
use serde::Serialize;
use std::time::Instant;

/// A measured speedup may drift this far below the recorded trajectory before
/// `--check` fails. Ratios of two in-process timings are machine-independent,
/// so the band absorbs noise, not hardware differences.
const CHECK_TOLERANCE: f64 = 4.0;
/// Warm replans must beat cold by at least this factor on the pure-removal
/// failure scenarios (the paper's motivating case: a link dies mid-training
/// and the job must be replanning-bound for as short as possible).
const WARM_FLOOR: f64 = 2.0;
/// Bytes for the post-replan conformance run (small keeps `--check` quick;
/// the value-level oracle is size-exact at any byte count).
const CHECK_BYTES: u64 = 8 << 20;

struct Scenario {
    name: &'static str,
    topology: &'static str,
    machine: Topology,
    allocation: Vec<GpuId>,
    delta: TopologyDelta,
    /// Minimum warm-over-cold p50 speedup enforced by `--check` (None:
    /// recorded for trend only — growth replans mostly pack fresh roots, and
    /// switch fabrics do not pack at all).
    floor: Option<f64>,
    /// Whether warm must match or beat cold's packing rate. True exactly for
    /// pure removals, where the warm seed's certificate still upper-bounds
    /// the new optimum; growth changes the optimum and only the (1-ε)
    /// approximation guarantee applies.
    rate_gated: bool,
}

fn scenarios() -> Vec<Scenario> {
    let alloc8: Vec<GpuId> = (0..8).map(GpuId).collect();
    let alloc4: Vec<GpuId> = (0..4).map(GpuId).collect();
    let v = dgx1v();
    let p = dgx1p();
    let d2 = dgx2();
    let grow = TopologyDelta::between(
        &v.induced(&alloc4).expect("dgx1v induces 4 GPUs"),
        &v.induced(&alloc8).expect("dgx1v induces 8 GPUs"),
    );
    vec![
        Scenario {
            name: "kill_link_dgx1v",
            topology: "dgx1v",
            machine: v.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&v, GpuId(0), GpuId(1)),
            floor: Some(WARM_FLOOR),
            rate_gated: true,
        },
        Scenario {
            name: "drop_gpu_dgx1v",
            topology: "dgx1v",
            machine: v.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::drop_gpu(GpuId(7)),
            floor: Some(WARM_FLOOR),
            rate_gated: true,
        },
        Scenario {
            name: "kill_link_dgx1p",
            topology: "dgx1p",
            machine: p.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&p, GpuId(0), GpuId(1)),
            floor: None,
            rate_gated: true,
        },
        Scenario {
            name: "grow_dgx1v_4_to_8",
            topology: "dgx1v",
            machine: v,
            allocation: alloc4,
            delta: grow,
            floor: None,
            rate_gated: false,
        },
        Scenario {
            name: "drop_gpu_dgx2",
            topology: "dgx2",
            machine: d2,
            allocation: (0..16).map(GpuId).collect(),
            delta: TopologyDelta::drop_gpu(GpuId(15)),
            floor: None,
            rate_gated: false,
        },
    ]
}

#[derive(Serialize)]
struct PathStats {
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    replans_per_sec: f64,
    runs: usize,
}

#[derive(Serialize)]
struct ScenarioReport {
    name: String,
    topology: String,
    gpus_before: usize,
    gpus_after: usize,
    warm: PathStats,
    cold: PathStats,
    /// cold p50 / warm p50 — how much faster the warm replan is.
    speedup_p50: f64,
    plans_kept: usize,
    seeds_demoted: usize,
    warm_seeded_trees: usize,
    /// Corrective MWU iterations the warm replan needed on top of its seeds;
    /// must be 0 on every pure-removal scenario (the unconditional
    /// zero-iteration warm-repair guarantee).
    warm_iterations: usize,
    /// Which repair path the warm replan took (`"reroute"` / `"iterated"` /
    /// `"cold"`).
    repair_path: String,
    warm_rate_gbps: f64,
    cold_rate_gbps: f64,
    /// Warm packing rate matched or beat cold (bit-identical-or-better).
    rate_not_worse: bool,
    rate_gated: bool,
    /// The warm-replanned communicator's AllReduce passed the value-level
    /// conformance oracle.
    conformant: bool,
    floor: Option<f64>,
}

#[derive(Serialize)]
struct Config {
    workers: usize,
    quick: bool,
    warm_runs: usize,
    cold_runs: usize,
    warm_floor: f64,
    check_tolerance: f64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    scenarios: Vec<ScenarioReport>,
}

/// Times `runs` replans, building a fresh communicator per iteration via
/// `setup` (untimed) so each timed call sees the same pre-delta state.
fn time_replans<F>(runs: usize, mut setup: F, delta: &TopologyDelta) -> (PathStats, ReplanReport)
where
    F: FnMut() -> Communicator,
{
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let mut comm = setup();
        let t0 = Instant::now();
        let report = comm.replan(delta).expect("replan succeeds");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(report);
    }
    samples.sort_by(f64::total_cmp);
    let total_us: f64 = samples.iter().sum();
    let stats = PathStats {
        p50_us: percentile(&samples, 0.50),
        p99_us: percentile(&samples, 0.99),
        mean_us: total_us / runs as f64,
        replans_per_sec: runs as f64 / (total_us / 1e6),
        runs,
    };
    (stats, last.expect("at least one run"))
}

fn run_scenario(s: &Scenario, warm_runs: usize, cold_runs: usize) -> ScenarioReport {
    // Isolated caches: the process-wide shared tier would leak one
    // iteration's plans into the next communicator's "cold" path.
    let options = CommunicatorOptions {
        isolated_plan_cache: true,
        ..Default::default()
    };
    let machine = s.machine.clone();
    let allocation = s.allocation.clone();
    let warm_setup = move || {
        let mut comm = Communicator::new(machine.clone(), &allocation, options)
            .expect("pre-delta communicator");
        // Populate the cache: an empty delta runs the root sweep without
        // changing the topology, so the timed replan below starts from a
        // fully planned communicator exactly as a live job would.
        comm.replan(&TopologyDelta::default())
            .expect("initial plan");
        comm
    };
    let machine = s.machine.clone();
    let allocation = s.allocation.clone();
    let cold_setup = move || {
        Communicator::new(machine.clone(), &allocation, options).expect("pre-delta communicator")
    };

    let (warm, warm_rep) = time_replans(warm_runs, warm_setup.clone(), &s.delta);
    let (cold, cold_rep) = time_replans(cold_runs, cold_setup, &s.delta);

    // Conformance: the recovered program must still move every byte to
    // exactly the right place on the post-delta topology.
    let mut comm = warm_setup();
    comm.replan(&s.delta).expect("replan succeeds");
    let (_, check) = comm
        .run_checked(CollectiveKind::AllReduce, CHECK_BYTES)
        .expect("replanned AllReduce runs");

    ScenarioReport {
        name: s.name.to_string(),
        topology: s.topology.to_string(),
        gpus_before: s.allocation.len(),
        gpus_after: warm_rep.num_gpus,
        speedup_p50: cold.p50_us / warm.p50_us,
        warm,
        cold,
        plans_kept: warm_rep.plans_kept,
        seeds_demoted: warm_rep.seeds_demoted,
        warm_seeded_trees: warm_rep.warm_seeded_trees,
        warm_iterations: warm_rep.warm_iterations,
        repair_path: warm_rep.repair_path.to_string(),
        warm_rate_gbps: warm_rep.rate_gbps,
        cold_rate_gbps: cold_rep.rate_gbps,
        rate_not_worse: warm_rep.rate_gbps >= cold_rep.rate_gbps - 1e-9,
        rate_gated: s.rate_gated,
        conformant: check.is_correct(),
        floor: s.floor,
    }
}

fn measure(quick: bool) -> Report {
    let (warm_runs, cold_runs) = if quick { (12, 5) } else { (60, 25) };
    let workers = ScratchPool::new().workers();
    let scenarios = scenarios()
        .iter()
        .map(|s| run_scenario(s, warm_runs, cold_runs))
        .collect();
    Report {
        config: Config {
            workers,
            quick,
            warm_runs,
            cold_runs,
            warm_floor: WARM_FLOOR,
            check_tolerance: CHECK_TOLERANCE,
        },
        scenarios,
    }
}

fn main() {
    let check_mode = gate::check_mode();
    let out = measure(check_mode);

    for sc in &out.scenarios {
        eprintln!(
            "{:<20} warm p50 {:>9.1} us (p99 {:>9.1})  cold p50 {:>9.1} us  \
             {:>5.2}x  kept {} demoted {} seeded {}  conformant {}",
            sc.name,
            sc.warm.p50_us,
            sc.warm.p99_us,
            sc.cold.p50_us,
            sc.speedup_p50,
            sc.plans_kept,
            sc.seeds_demoted,
            sc.warm_seeded_trees,
            sc.conformant,
        );
    }

    if !check_mode {
        gate::record("replan", &out);
        return;
    }
    let recorded = Recorded::load("replan");
    let mut verdict = Verdict::default();
    // Result-quality gates first: these are deterministic properties of the
    // replanned plans, not timings, so they hold on any runner.
    let mut hard_failures = Vec::new();
    for sc in &out.scenarios {
        if !sc.conformant {
            hard_failures.push(format!(
                "{}: replanned AllReduce failed the conformance oracle",
                sc.name
            ));
        }
        if sc.rate_gated && !sc.rate_not_worse {
            hard_failures.push(format!(
                "{}: warm rate {:.3} GB/s below cold rate {:.3} GB/s on a \
                 pure-removal delta (warm must be bit-identical-or-better)",
                sc.name, sc.warm_rate_gbps, sc.cold_rate_gbps
            ));
        }
        // Zero-iteration warm repair: whenever a pure-removal delta consumed
        // warm seeds, the min-cost reroute must have reached the
        // (1-ε)·certificate exit without a single corrective MWU iteration.
        if sc.rate_gated && sc.warm_seeded_trees > 0 {
            if sc.warm_iterations != 0 {
                hard_failures.push(format!(
                    "{}: warm replan needed {} MWU iterations on a \
                     pure-removal delta (zero-iteration guarantee broken)",
                    sc.name, sc.warm_iterations
                ));
            }
            if sc.repair_path != "reroute" {
                hard_failures.push(format!(
                    "{}: warm repair took the '{}' path on a pure-removal \
                     delta, expected 'reroute'",
                    sc.name, sc.repair_path
                ));
            }
        }
    }
    verdict.hard(hard_failures);
    if let Some(latency) = verdict.latency(
        out.config.workers,
        &format!(
            "replan latency gates (warm-over-cold floor {WARM_FLOOR}x, trajectory \
             {CHECK_TOLERANCE}x)"
        ),
        "warm and cold sweeps serialise onto one shared core and the latency ratios above \
         are noise-dominated; the conformance and rate-not-worse gates still ran",
    ) {
        for sc in &out.scenarios {
            if let Some(floor) = sc.floor {
                if sc.speedup_p50 < floor {
                    latency.push(format!(
                        "{}: warm replan only {:.2}x faster than cold (floor {floor}x)",
                        sc.name, sc.speedup_p50
                    ));
                }
            }
            let is_row = |r: &serde::Value| {
                r.get("name").and_then(serde::Value::as_str) == Some(sc.name.as_str())
            };
            latency.extend(gate::below(
                &format!("{} warm-over-cold speedup", sc.name),
                sc.speedup_p50,
                recorded.row("scenarios", is_row, "speedup_p50"),
                CHECK_TOLERANCE,
            ));
        }
    }
    verdict.finish("replan check passed: all scenarios conformant, rates preserved");
}
