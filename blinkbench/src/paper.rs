//! `paper`: the paper's Broadcast/AllReduce evaluation matrix in steady
//! state. One long-lived communicator per allocation (the ten Figure 18
//! DGX-1V allocations, DGX-1P all-8 and DGX-2 all-16) is built, warmed and
//! planned in set-up; each round then issues every (allocation, collective,
//! size) cell once, in a seeded order. The timed operation is one
//! `Communicator::run` call whose plan is already cached.

use crate::common::{
    derive_seed, elapsed_us, link_util_mean, reconstruct_codegen, rerun_engine, valid_rate, Budget,
    ColdPlans, Pass, Rng, SetupTimer, SETUP_REPEATS,
};
use crate::stats::{geomean, mean, median, ratio};
use crate::trace::{SpanId, Tracer};
use blink_core::{global_plan_cache, CollectiveKind, Communicator, CommunicatorOptions, TreeGen};
use blink_nccl::schedule::{build_program, NcclCollective, ScheduleOptions};
use blink_nccl::{NcclPlanner, PlannerOptions};
use blink_sim::{check_collective, EngineScratch, Program, SimParams, Simulator};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use std::time::Instant;

/// Calls between two calibrations against the reference kernel, so that
/// one lasts a few tens of milliseconds.
const CALIBRATE_EVERY: usize = 24;

/// Buffer sizes per collective: two latency-bound, two bandwidth-bound.
const SIZES: [u64; 4] = [1 << 20, 4 << 20, 64 << 20, 256 << 20];

/// The evaluation allocations: (label, machine, GPUs).
pub fn allocations() -> Vec<(String, Topology, Vec<GpuId>)> {
    let label = |name: &str, a: &[GpuId]| {
        let ids: Vec<String> = a.iter().map(|g| g.0.to_string()).collect();
        format!("{name}[{}]", ids.join(","))
    };
    let mut out: Vec<(String, Topology, Vec<GpuId>)> = blink_bench::figures::fig18_configurations()
        .into_iter()
        .map(|a| (label("dgx1v", &a), dgx1v(), a))
        .collect();
    let all8: Vec<GpuId> = (0..8).map(GpuId).collect();
    out.push((label("dgx1p", &all8), dgx1p(), all8));
    let all16: Vec<GpuId> = (0..16).map(GpuId).collect();
    out.push((label("dgx2", &all16), dgx2(), all16));
    out
}

struct Cell {
    comm: usize,
    kind: CollectiveKind,
    bytes: u64,
    nccl_gbps: f64,
}

impl Cell {
    fn label(&self, labels: &[String]) -> String {
        format!("{} {} {} B", labels[self.comm], self.kind, self.bytes)
    }
}

struct Setup {
    labels: Vec<String>,
    comms: Vec<Communicator>,
    cells: Vec<Cell>,
}

#[derive(Default)]
struct SetupLayers {
    build_us: Vec<f64>,
    nccl_us: Vec<f64>,
    plan_us: Vec<f64>,
    trees: Vec<f64>,
    mwu_iterations: Vec<f64>,
}

fn nccl_gbps(
    planner: &NcclPlanner,
    sim: &Simulator,
    alloc: &[GpuId],
    kind: CollectiveKind,
    bytes: u64,
) -> Result<f64, String> {
    let plan = planner.plan(alloc, bytes).map_err(|e| e.to_string())?;
    let collective = match kind {
        CollectiveKind::Broadcast { root } => NcclCollective::Broadcast { root },
        _ => NcclCollective::AllReduce,
    };
    let program = build_program(&plan, collective, bytes, &ScheduleOptions::default())
        .map_err(|e| e.to_string())?;
    let report = sim.run(&program).map_err(|e| e.to_string())?;
    Ok(report.algorithmic_bandwidth_gbps(bytes))
}

fn setup(pass: &mut Pass, tracer: &mut Tracer, layers: &mut SetupLayers) -> Option<Setup> {
    // A set-up plans from scratch: communicators attach to the process-wide
    // plan tier, which an earlier set-up in this process has filled.
    global_plan_cache().invalidate();
    let mut s = Setup {
        labels: Vec::new(),
        comms: Vec::new(),
        cells: Vec::new(),
    };
    for (i, (label, machine, alloc)) in allocations().into_iter().enumerate() {
        let span = tracer.begin("comm.build", i as u64);
        let comm = Communicator::new(machine.clone(), &alloc, CommunicatorOptions::default());
        layers.build_us.push(tracer.end(span));
        let mut comm = match comm {
            Ok(c) => c,
            Err(e) => {
                pass.fail(format!("{label}: communicator build failed: {e}"));
                return None;
            }
        };
        if tracer.enabled() {
            // The set-up's planning, replayed cold for the broadcast root.
            let tg = TreeGen::new(comm.induced_topology().clone(), comm.options().treegen);
            let span = tracer.begin("treegen.plan", i as u64);
            let plan = tg.plan(alloc[0]);
            let us = tracer.end(span);
            if let Ok(plan) = plan {
                layers.plan_us.push(us);
                layers.trees.push(plan.num_trees() as f64);
                layers.mwu_iterations.push(plan.mwu.iterations as f64);
            }
        }
        let planner = NcclPlanner::new(machine.clone(), PlannerOptions::default());
        let sim = Simulator::new(machine, SimParams::default());
        for kind in [
            CollectiveKind::Broadcast { root: alloc[0] },
            CollectiveKind::AllReduce,
        ] {
            for bytes in SIZES {
                let span = tracer.begin("comm.warm", i as u64);
                let warm = comm.run(kind, bytes);
                tracer.end(span);
                if let Err(e) = warm {
                    pass.fail(format!("{label} {kind} {bytes} B: warm-up failed: {e}"));
                    return None;
                }
                let span = tracer.begin("nccl.baseline", i as u64);
                let nccl = nccl_gbps(&planner, &sim, &alloc, kind, bytes);
                layers.nccl_us.push(tracer.end(span));
                match nccl {
                    Ok(g) if valid_rate(g) => s.cells.push(Cell {
                        comm: i,
                        kind,
                        bytes,
                        nccl_gbps: g,
                    }),
                    other => {
                        pass.fail(format!("{label} {kind} {bytes} B: NCCL baseline {other:?}"));
                        return None;
                    }
                }
            }
        }
        s.labels.push(label);
        s.comms.push(comm);
    }
    Some(s)
}

/// Round-0 outcome of one cell, plus what the traced pass needs to replay it:
/// the program of the cell's oracle replay and that call's span.
struct CellRecord {
    elapsed_us: f64,
    gbps: f64,
    chunk_bytes: u64,
    call_us: Vec<f64>,
    replay: Option<(Program, SpanId)>,
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut layers = SetupLayers::default();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let timer = SetupTimer::start();
        state = setup(&mut pass, tracer, &mut layers);
        timer.stop(&mut pass);
        if state.is_none() {
            return pass;
        }
    }
    let Setup {
        labels,
        mut comms,
        cells,
    } = state.expect("set-up succeeded");

    let budget = Budget::start(seconds);
    let mut records: Vec<Option<CellRecord>> = (0..cells.len()).map(|_| None).collect();
    let mut round = 0u64;
    while round == 0 || budget.more(pass.op_us.len()) {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        Rng::new(derive_seed(seed, round)).shuffle(&mut order);
        for c in order {
            let cell = &cells[c];
            let comm = &mut comms[cell.comm];
            let span = tracer.begin("comm.run", c as u64);
            let t0 = Instant::now();
            let result = comm.run(cell.kind, cell.bytes);
            let us = elapsed_us(t0);
            tracer.end(span);
            pass.op_us.push(us);
            if pass.op_us.len() % CALIBRATE_EVERY == 0 {
                pass.calibrate();
            }
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    pass.attempt(false, || format!("{}: {e}", cell.label(&labels)));
                    continue;
                }
            };
            let rec = records[c].get_or_insert_with(|| CellRecord {
                elapsed_us: report.elapsed_us,
                gbps: report.algorithmic_bandwidth_gbps,
                chunk_bytes: report.chunk_bytes,
                call_us: Vec::new(),
                replay: None,
            });
            rec.call_us.push(us);
            let same = rec.elapsed_us.to_bits() == report.elapsed_us.to_bits();
            pass.attempt(
                same && valid_rate(report.algorithmic_bandwidth_gbps),
                || {
                    format!(
                        "{}: round {round} took {} us simulated (round 0: {} us)",
                        cell.label(&labels),
                        report.elapsed_us,
                        rec.elapsed_us
                    )
                },
            );
        }
        pass.end_round();
        round += 1;
    }

    // The oracle, once per distinct cell, off the clock.
    let mut check_us = Vec::new();
    let mut violations = 0usize;
    for (c, cell) in cells.iter().enumerate() {
        let comm = &mut comms[cell.comm];
        let call = tracer.begin("comm.run_traced", c as u64);
        let traced = comm.run_traced(cell.kind, cell.bytes);
        tracer.end(call);
        let Ok((report, program, spans)) = traced else {
            pass.attempt(false, || {
                format!("{}: oracle replay failed", cell.label(&labels))
            });
            continue;
        };
        let span = tracer.begin("oracle.check", c as u64);
        let check = check_collective(
            cell.kind.spec(),
            &program,
            &spans,
            comm.allocation(),
            cell.bytes,
        );
        check_us.push(tracer.end(span));
        violations += check.violations.len();
        let same = records[c]
            .as_ref()
            .is_some_and(|r| r.elapsed_us.to_bits() == report.elapsed_us.to_bits());
        if let (Some(rec), true) = (records[c].as_mut(), tracer.enabled()) {
            rec.replay = Some((program, call));
        }
        pass.attempt(check.is_correct() && same, || {
            format!(
                "{}: oracle {} violations, simulated time matches round 0: {same}",
                cell.label(&labels),
                check.violations.len()
            )
        });
    }

    // Simulated outcomes.
    let (mut ar_speedups, mut bc_speedups) = (Vec::new(), Vec::new());
    for (cell, rec) in cells.iter().zip(&records) {
        let Some(rec) = rec else { continue };
        pass.digest.push(rec.elapsed_us.to_bits());
        pass.digest.push(cell.nccl_gbps.to_bits());
        let speedup = rec.gbps / cell.nccl_gbps;
        pass.speedups.push(speedup);
        if cell.kind == CollectiveKind::AllReduce {
            pass.allreduce_gbps.push(rec.gbps);
            ar_speedups.push(speedup);
        } else {
            bc_speedups.push(speedup);
        }
    }
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    pass.timing_details("call", "calls_per_s", "1/s");
    pass.detail(
        "allreduce_gbps_gmean",
        geomean(&pass.allreduce_gbps),
        "GB/s",
        pass.allreduce_gbps.len(),
    );
    pass.detail(
        "allreduce_speedup_min",
        min(&ar_speedups),
        "ratio",
        ar_speedups.len(),
    );
    pass.detail(
        "allreduce_speedup_gmean",
        geomean(&ar_speedups),
        "ratio",
        ar_speedups.len(),
    );
    pass.detail(
        "broadcast_speedup_gmean",
        geomean(&bc_speedups),
        "ratio",
        bc_speedups.len(),
    );
    let slower = pass.speedups.iter().filter(|&&s| s < 1.0).count();
    let slower_share = ratio(slower as f64, pass.speedups.len() as f64);
    pass.share("blink_slower (cells where Blink < NCCL)", slower_share);

    if tracer.enabled() {
        replay_layers(&mut pass, tracer, &cells, &mut comms, &mut records);
        pass.layer("comm.build_us", mean(&layers.build_us));
        pass.layer("nccl.setup_us", mean(&layers.nccl_us));
        pass.layer("treegen.plan_us", mean(&layers.plan_us));
        pass.layer("treegen.trees", mean(&layers.trees));
        pass.layer("graph.mwu_iterations", mean(&layers.mwu_iterations));
        pass.layer("oracle.checks", check_us.len() as f64);
        pass.layer("oracle.check_us", mean(&check_us));
        pass.layer("oracle.violations", violations as f64);
        pass.layer("share.blink_slower", slower_share);
    }
    pass
}

/// Re-invokes CodeGen and the engine on each cell's inputs, attributing them
/// to the cell's oracle-replay call.
fn replay_layers(
    pass: &mut Pass,
    tracer: &mut Tracer,
    cells: &[Cell],
    comms: &mut [Communicator],
    records: &mut [Option<CellRecord>],
) {
    const REPS: usize = 3;
    let mut scratch = EngineScratch::new();
    let mut cold: Vec<ColdPlans> = comms.iter().map(|_| ColdPlans::default()).collect();
    let (mut cg_us, mut cg_ops, mut cg_bytes, mut self_us) = (vec![], vec![], vec![], vec![]);
    let (mut eng_us, mut eng_ops, mut util) = (vec![], 0usize, vec![]);
    for (cell, rec) in cells.iter().zip(records.iter_mut()) {
        let Some(rec) = rec else { continue };
        let Some((program, parent)) = rec.replay.take() else {
            continue;
        };
        let comm = &comms[cell.comm];
        let mut engine = Vec::new();
        for _ in 0..REPS {
            let span = tracer.begin_under("engine.run", cell.comm as u64, parent);
            let report = rerun_engine(comm, &program, &mut scratch);
            engine.push(tracer.end(span));
            let same = report
                .as_ref()
                .is_some_and(|r| r.total_us.to_bits() == rec.elapsed_us.to_bits());
            if !same {
                pass.fail(format!("engine replay of {} differs", cell.kind));
            }
            if let Some(r) = report {
                util.push(link_util_mean(&r));
            }
        }
        let engine_us = median(&engine);
        eng_us.push(engine_us);
        eng_ops += program.len();
        let Some((cg, trees)) = reconstruct_codegen(
            comm,
            &mut cold[cell.comm],
            cell.kind,
            cell.bytes,
            rec.chunk_bytes,
            &program,
        ) else {
            continue;
        };
        let mut build = Vec::new();
        for _ in 0..REPS {
            let span = tracer.begin_under("codegen.build", cell.comm as u64, parent);
            let built = cg.build(&trees, cell.kind, cell.bytes);
            build.push(tracer.end(span));
            drop(built);
        }
        let build_us = median(&build);
        cg_us.push(build_us);
        cg_ops.push(program.len() as f64);
        cg_bytes.push(program.total_copy_bytes() as f64);
        self_us.push(median(&rec.call_us) - build_us - engine_us);
    }
    let reconstructed = ratio(cg_us.len() as f64, eng_us.len() as f64);
    pass.layer("codegen.build_us", mean(&cg_us));
    pass.layer("codegen.ops", mean(&cg_ops));
    pass.layer("codegen.copy_bytes", mean(&cg_bytes));
    pass.layer("codegen.reconstructed_share", reconstructed);
    pass.layer("comm.call_self_us", mean(&self_us));
    pass.layer("engine.run_us", mean(&eng_us));
    pass.layer(
        "engine.ops_per_s",
        ratio(eng_ops as f64, eng_us.iter().sum::<f64>() / 1e6),
    );
    pass.layer("engine.link_util_mean", mean(&util));
}
