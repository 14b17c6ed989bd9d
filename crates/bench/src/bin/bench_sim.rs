//! Simulator hot-path perf baseline: segmented-payload programs vs the
//! per-slot emission shape, both on the interned-resource engine, and the
//! engine itself vs the reference scheduler on a wide program.
//!
//! Three stages, each measured in-process on this machine and written to
//! `BENCH_sim.json` so future PRs have a trajectory to compare against:
//!
//! * **allgather_dgx2** — the 16-GPU DGX-2 one-hop AllGather, the scenario
//!   whose op count exploded under exact ranges (one copy per slot per edge).
//!   The fast side runs the segmented program (one op per edge per chunk)
//!   through [`blink_sim::Simulator::run_with_scratch`]; the naive side runs
//!   the same program expanded back to one op per segment
//!   ([`blink_sim::Program::split_segments`], the pre-aggregation emission
//!   shape) through the **same** interned engine — the ratio isolates what
//!   payload aggregation buys at equal scheduling machinery.
//! * **multiserver_allreduce** — the three-phase AllReduce over a fragmented
//!   2×DGX-1V allocation; its ops are mostly single-segment, so its ratio is
//!   expected near 1x and recorded as a guard that splitting never *helps*.
//! * **wide_ring_dgx2** — the NCCL ring AllReduce over all 16 DGX-2 GPUs,
//!   about 10k ops with far more ready at once than the scheduler's
//!   candidate window holds. The fast side is
//!   [`blink_sim::Simulator::run_with_scratch`]; the naive side is the
//!   allocating reference scheduler (`Simulator::run_reference`) on the same
//!   program, so the ratio is what the engine's persistent candidate window
//!   and per-link table buy on wide programs. Both must produce the same
//!   makespan bit for bit.
//! * **compiled_replay_dgx1v / compiled_replay_dgx2** — a communicator's
//!   steady-state call: the DGX-1V all-8 1 MiB and the DGX-2 all-16 256 MiB
//!   AllReduce programs, each run as compile+run
//!   ([`blink_sim::Simulator::run_with_scratch`], what every call paid before
//!   programs were compiled once) against a replay of the program compiled
//!   once ([`blink_sim::Simulator::run_compiled`]). The ratio is what
//!   compiling once saves per call; both paths' spans must equal
//!   `Simulator::run_reference`'s bit for bit.
//!
//! The two segmented-vs-split stages simulate under a calibration with a
//! non-zero [`SimParams::per_segment_overhead_us`]: a batched multi-range
//! copy pays the driver's per-extra-range cost explicitly, so the segmented
//! program's *simulated* time is honest about batching (and still beats the
//! split shape, which pays a full per-op launch overhead per range instead).
//!
//! Run with `cargo run --release -p blink-bench --bin bench_sim`.
//!
//! `--check` runs a quick-mode measurement and exits non-zero if any
//! stage's speedup regressed more than [`CHECK_TOLERANCE`]× against the
//! recorded `BENCH_sim.json`, or if the `allgather_dgx2` stage falls below
//! [`ALLGATHER_FLOOR`]× outright, or if the segmented program's simulated
//! time stops beating the split shape's, or if the engine's makespan on the
//! wide ring differs from the reference scheduler's, or if either
//! compiled-replay path's spans differ from the reference scheduler's.
//! Both sides of each ratio run in this process, so runner hardware cancels
//! out. It does not rewrite the JSON.

use blink_bench::gate::{self, Recorded, Verdict};
use blink_core::multiserver::three_phase_allreduce;
use blink_core::{
    CodeGenOptions, CollectiveKind, Communicator, CommunicatorOptions, TreeGenOptions,
};
use blink_nccl::schedule::{build_program, NcclCollective, ScheduleOptions};
use blink_nccl::NcclPlanner;
use blink_sim::{EngineScratch, Program, SimParams, Simulator};
use blink_topology::presets::{dgx1v, dgx2, multi_server, ServerKind};
use blink_topology::{GpuId, Topology};
use serde::Serialize;
use std::time::Instant;

/// `--check` fails when a stage's segmented-over-split speedup ratio is more
/// than this factor below the recorded trajectory.
const CHECK_TOLERANCE: f64 = 5.0;
/// `--check` fails outright when the segmented AllGather path is not at
/// least this many times faster than the per-slot shape on the same engine.
const ALLGATHER_FLOOR: f64 = 3.0;
/// Calibrated per-extra-range cost of a batched multi-segment transfer
/// (µs). Small next to [`SimParams::op_launch_overhead_us`] — batching a
/// range is cheap, launching an op is not — which is exactly the asymmetry
/// that makes segment aggregation worthwhile.
const PER_SEGMENT_OVERHEAD_US: f64 = 0.2;

fn mb(n: u64) -> u64 {
    n * 1024 * 1024
}

/// One engine path's measurements over a fixed program.
#[derive(Debug, Serialize)]
struct EnginePathReport {
    /// Ops in the program this path executes.
    ops: usize,
    /// Complete program simulations per second.
    programs_per_sec: f64,
    /// Scheduled ops per second (`ops * programs_per_sec`).
    ops_per_sec: f64,
    /// Mean wall-clock microseconds per simulation.
    us_per_program: f64,
}

/// One fast-vs-naive stage.
#[derive(Debug, Serialize)]
struct SimStageReport {
    /// What the stage simulates.
    scenario: String,
    /// Simulated wall-clock of the fast side's program (for the
    /// segmented-vs-split stages: the segmented program under the calibrated
    /// params, which pays `per_segment_overhead_us` per extra range).
    fast_total_us: f64,
    /// Simulated wall-clock of the naive side (for the segmented-vs-split
    /// stages: the split shape, which pays a full launch overhead per range
    /// and must stay >= `fast_total_us`; for `wide_ring_dgx2`: the reference
    /// scheduler, which must equal `fast_total_us` bit for bit).
    naive_total_us: f64,
    naive: EnginePathReport,
    fast: EnginePathReport,
    /// `fast.programs_per_sec / naive.programs_per_sec`.
    speedup: f64,
}

/// One compile+run-vs-replay stage over a communicator's lowered program.
#[derive(Debug, Serialize)]
struct ReplayStageReport {
    /// What the stage simulates.
    scenario: String,
    /// Simulated wall-clock of the program.
    total_us: f64,
    /// Whether both paths' per-op spans equal `Simulator::run_reference`'s
    /// bit for bit.
    spans_match_reference: bool,
    /// Compile and scan on every run (`Simulator::run_with_scratch`).
    compile_and_run: EnginePathReport,
    /// Scan only, over the program compiled once (`Simulator::run_compiled`).
    replay: EnginePathReport,
    /// `replay.programs_per_sec / compile_and_run.programs_per_sec`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Config {
    fast_runs: usize,
    naive_runs: usize,
    /// Run counts of the `wide_ring_dgx2` stage, whose program is ~20x
    /// larger.
    wide_fast_runs: usize,
    wide_naive_runs: usize,
    /// Run counts of each compiled-replay path (DGX-1V, DGX-2).
    replay_runs_dgx1v: usize,
    replay_runs_dgx2: usize,
}

#[derive(Debug, Serialize)]
struct Report {
    config: Config,
    /// DGX-2 one-hop AllGather: segmented + interned vs per-slot + allocating.
    allgather_dgx2: SimStageReport,
    /// Three-phase multi-server AllReduce: interned vs allocating scheduler
    /// on the identical (single-segment) program.
    multiserver_allreduce: SimStageReport,
    /// DGX-2 all-16 NCCL ring AllReduce: the engine vs the reference
    /// scheduler on the identical program.
    wide_ring_dgx2: SimStageReport,
    /// DGX-1V all-8 1 MiB AllReduce: compile+run vs replay.
    compiled_replay_dgx1v: ReplayStageReport,
    /// DGX-2 all-16 256 MiB AllReduce: compile+run vs replay.
    compiled_replay_dgx2: ReplayStageReport,
}

/// Times `runs` runs of `f` and reports the per-run rate over `ops` ops.
fn time_path<F: FnMut()>(ops: usize, runs: usize, mut f: F) -> EnginePathReport {
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    let per_run = t0.elapsed().as_secs_f64() / runs as f64;
    EnginePathReport {
        ops,
        programs_per_sec: 1.0 / per_run,
        ops_per_sec: ops as f64 / per_run,
        us_per_program: per_run * 1e6,
    }
}

/// Measures segmented vs split emission shapes of the same program, both on
/// the interned engine under the calibrated per-segment overhead.
fn measure_stage(
    scenario: &str,
    machine: &Topology,
    program: &Program,
    fast_runs: usize,
    naive_runs: usize,
) -> SimStageReport {
    let params = SimParams {
        per_segment_overhead_us: PER_SEGMENT_OVERHEAD_US,
        ..SimParams::default()
    };
    let sim = Simulator::new(machine.clone(), params);
    let split = program.split_segments();
    let mut scratch = EngineScratch::new();
    let mut split_scratch = EngineScratch::new();
    let fast_total_us = sim
        .run_with_scratch(program, &mut scratch)
        .unwrap()
        .total_us;
    let naive_total_us = sim
        .run_with_scratch(&split, &mut split_scratch)
        .unwrap()
        .total_us;
    let naive = time_path(split.len(), naive_runs, || {
        sim.run_with_scratch(&split, &mut split_scratch).unwrap();
    });
    let fast = time_path(program.len(), fast_runs, || {
        sim.run_with_scratch(program, &mut scratch).unwrap();
    });
    SimStageReport {
        scenario: scenario.to_string(),
        fast_total_us,
        naive_total_us,
        speedup: fast.programs_per_sec / naive.programs_per_sec,
        naive,
        fast,
    }
}

/// Measures the engine against the reference scheduler on the same
/// program under the default calibration.
fn measure_reference_stage(
    scenario: &str,
    machine: &Topology,
    program: &Program,
    fast_runs: usize,
    naive_runs: usize,
) -> SimStageReport {
    let sim = Simulator::with_defaults(machine.clone());
    let mut scratch = EngineScratch::new();
    let fast_total_us = sim
        .run_with_scratch(program, &mut scratch)
        .unwrap()
        .total_us;
    let naive_total_us = sim.run_reference(program).unwrap().total_us;
    let naive = time_path(program.len(), naive_runs, || {
        sim.run_reference(program).unwrap();
    });
    let fast = time_path(program.len(), fast_runs, || {
        sim.run_with_scratch(program, &mut scratch).unwrap();
    });
    SimStageReport {
        scenario: scenario.to_string(),
        fast_total_us,
        naive_total_us,
        speedup: fast.programs_per_sec / naive.programs_per_sec,
        naive,
        fast,
    }
}

/// Measures compile+run against a replay of the compiled program, for the
/// program a default communicator on `machine`'s first `gpus` GPUs lowers an
/// AllReduce of `bytes` to.
fn measure_replay_stage(
    scenario: &str,
    machine: &Topology,
    gpus: usize,
    bytes: u64,
    runs: usize,
) -> ReplayStageReport {
    let alloc: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let mut comm = Communicator::new(machine.clone(), &alloc, CommunicatorOptions::default())
        .expect("full-machine allocation");
    let (_, program, _) = comm
        .run_traced(CollectiveKind::AllReduce, bytes)
        .expect("AllReduce lowers");
    let sim = Simulator::with_defaults(machine.clone());
    let compiled = sim.compile(&program).expect("the lowered program compiles");
    let mut scratch = EngineScratch::new();
    let reference = sim.run_reference(&program).unwrap();
    let spans_match = |spans: &[(f64, f64)]| {
        spans.len() == reference.op_spans.len()
            && spans
                .iter()
                .zip(&reference.op_spans)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits())
    };
    let fresh = sim.run_with_scratch(&program, &mut scratch).unwrap();
    let replayed = sim.run_compiled(&compiled, &mut scratch).unwrap();
    let spans_match_reference = spans_match(&fresh.op_spans) && spans_match(&replayed.op_spans);
    let compile_and_run = time_path(program.len(), runs, || {
        sim.run_with_scratch(&program, &mut scratch).unwrap();
    });
    let replay = time_path(program.len(), runs, || {
        sim.run_compiled(&compiled, &mut scratch).unwrap();
    });
    ReplayStageReport {
        scenario: scenario.to_string(),
        total_us: reference.total_us,
        spans_match_reference,
        speedup: replay.programs_per_sec / compile_and_run.programs_per_sec,
        compile_and_run,
        replay,
    }
}

fn measure(quick: bool) -> Report {
    let fast_runs = if quick { 200 } else { 1000 };
    let naive_runs = if quick { 20 } else { 100 };
    let wide_fast_runs = if quick { 10 } else { 50 };
    let wide_naive_runs = if quick { 2 } else { 10 };
    let replay_runs_dgx1v = if quick { 400 } else { 2000 };
    let replay_runs_dgx2 = if quick { 20 } else { 100 };

    // ---- DGX-2 one-hop AllGather (the per-slot op-count blow-up case) ----
    let machine = dgx2();
    let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
    let mut comm = Communicator::new(machine.clone(), &alloc, CommunicatorOptions::default())
        .expect("full DGX-2 allocation");
    let (_, allgather_prog, _) = comm
        .run_traced(CollectiveKind::AllGather, mb(64))
        .expect("one-hop AllGather lowers");
    let allgather_dgx2 = measure_stage(
        "dgx2 one-hop allgather, 16 GPUs, 64 MiB",
        &machine,
        &allgather_prog,
        fast_runs,
        naive_runs,
    );

    // ---- three-phase multi-server AllReduce ----
    let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
    let alloc = vec![
        GpuId(0),
        GpuId(1),
        GpuId(2),
        GpuId(8),
        GpuId(9),
        GpuId(10),
        GpuId(11),
        GpuId(12),
    ];
    let (ms_prog, _) = three_phase_allreduce(
        &machine,
        &alloc,
        mb(32),
        &TreeGenOptions::default(),
        &CodeGenOptions::default(),
    )
    .expect("fragmented 2-server slice plans");
    let multiserver_allreduce = measure_stage(
        "three-phase allreduce, 3+5 GPUs over 2 servers, 32 MiB",
        &machine,
        &ms_prog,
        fast_runs,
        naive_runs,
    );

    // ---- DGX-2 all-16 NCCL ring AllReduce (a wide program) ----
    let machine = dgx2();
    let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
    let plan = NcclPlanner::with_defaults(machine.clone())
        .plan(&alloc, mb(256))
        .expect("NCCL plans the full DGX-2");
    let ring_prog = build_program(
        &plan,
        NcclCollective::AllReduce,
        mb(256),
        &ScheduleOptions::default(),
    )
    .expect("ring AllReduce lowers");
    let wide_ring_dgx2 = measure_reference_stage(
        "dgx2 nccl ring allreduce, 16 GPUs, 256 MiB",
        &machine,
        &ring_prog,
        wide_fast_runs,
        wide_naive_runs,
    );

    // ---- a communicator's steady-state call: compile+run vs replay ----
    let compiled_replay_dgx1v = measure_replay_stage(
        "dgx1v allreduce, 8 GPUs, 1 MiB",
        &dgx1v(),
        8,
        mb(1),
        replay_runs_dgx1v,
    );
    let compiled_replay_dgx2 = measure_replay_stage(
        "dgx2 allreduce, 16 GPUs, 256 MiB",
        &dgx2(),
        16,
        mb(256),
        replay_runs_dgx2,
    );

    Report {
        config: Config {
            fast_runs,
            naive_runs,
            wide_fast_runs,
            wide_naive_runs,
            replay_runs_dgx1v,
            replay_runs_dgx2,
        },
        allgather_dgx2,
        multiserver_allreduce,
        wide_ring_dgx2,
        compiled_replay_dgx1v,
        compiled_replay_dgx2,
    }
}

fn main() {
    let check_mode = gate::check_mode();
    let out = measure(check_mode);
    eprintln!(
        "allgather {:.1}x ({} -> {} ops), multiserver {:.1}x over the per-slot shape on the \
         same engine; wide ring {:.1}x over the reference scheduler ({} ops); compiled \
         replay {:.1}x (dgx1v, {} ops) and {:.1}x (dgx2, {} ops) over compile+run",
        out.allgather_dgx2.speedup,
        out.allgather_dgx2.naive.ops,
        out.allgather_dgx2.fast.ops,
        out.multiserver_allreduce.speedup,
        out.wide_ring_dgx2.speedup,
        out.wide_ring_dgx2.fast.ops,
        out.compiled_replay_dgx1v.speedup,
        out.compiled_replay_dgx1v.replay.ops,
        out.compiled_replay_dgx2.speedup,
        out.compiled_replay_dgx2.replay.ops,
    );
    if !check_mode {
        gate::record("sim", &out);
        return;
    }
    let recorded = Recorded::load("sim");
    let mut failures = Vec::new();
    if out.allgather_dgx2.speedup < ALLGATHER_FLOOR {
        failures.push(format!(
            "the segmented one-hop AllGather path is only {:.1}x over the per-slot shape \
             (floor {ALLGATHER_FLOOR}x)",
            out.allgather_dgx2.speedup
        ));
    }
    for stage in [&out.allgather_dgx2, &out.multiserver_allreduce] {
        if stage.fast_total_us > stage.naive_total_us {
            failures.push(format!(
                "{}: segmented program simulates slower ({:.1} us) than the split shape \
                 ({:.1} us) under the calibrated per-segment overhead",
                stage.scenario, stage.fast_total_us, stage.naive_total_us
            ));
        }
    }
    let ring = &out.wide_ring_dgx2;
    if ring.fast_total_us.to_bits() != ring.naive_total_us.to_bits() {
        failures.push(format!(
            "{}: the engine's makespan ({} us) differs from the reference scheduler's ({} us)",
            ring.scenario, ring.fast_total_us, ring.naive_total_us
        ));
    }
    for (name, stage) in [
        ("allgather_dgx2", &out.allgather_dgx2),
        ("multiserver_allreduce", &out.multiserver_allreduce),
        ("wide_ring_dgx2", &out.wide_ring_dgx2),
    ] {
        failures.extend(gate::below(
            &format!("{name} fast-over-naive speedup"),
            stage.speedup,
            recorded.at(&[name, "speedup"]),
            CHECK_TOLERANCE,
        ));
    }
    for (name, stage) in [
        ("compiled_replay_dgx1v", &out.compiled_replay_dgx1v),
        ("compiled_replay_dgx2", &out.compiled_replay_dgx2),
    ] {
        if !stage.spans_match_reference {
            failures.push(format!(
                "{}: compile+run or replay spans differ from the reference scheduler's",
                stage.scenario
            ));
        }
        failures.extend(gate::below(
            &format!("{name} replay-over-compile+run speedup"),
            stage.speedup,
            recorded.at(&[name, "speedup"]),
            CHECK_TOLERANCE,
        ));
    }
    let mut verdict = Verdict::default();
    verdict.hard(failures);
    verdict.finish(&format!(
        "all engine speedups within {CHECK_TOLERANCE}x of the recorded trajectory"
    ));
}
