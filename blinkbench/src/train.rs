//! `train`: the Figure 18 end-to-end comparison in steady state. Every paper
//! model trains on every evaluation allocation with a long-lived
//! `BlinkBackend`; the NCCL iteration times are computed once in set-up.
//! The timed operation is one overlapped `TrainingSimulator::iteration`,
//! which streams the step's fused gradient AllReduces through the
//! communicator.

use crate::common::{
    derive_seed, elapsed_us, valid_rate, Budget, Pass, Rng, SetupTimer, SETUP_REPEATS,
};
use crate::stats::{geomean, mean, ratio};
use crate::trace::Tracer;
use blink_core::fusion::restrict_to_window;
use blink_core::{global_plan_cache, CollectiveKind, Communicator, CommunicatorOptions};
use blink_sim::{check_collective, EngineScratch, SimParams, Simulator};
use blink_topology::{GpuId, Topology};
use blink_train::{
    BlinkBackend, BucketIssue, DnnModel, GpuGeneration, IterationBreakdown, NcclBackend,
    TrainerConfig, TrainingSimulator,
};
use std::time::Instant;

struct Alloc {
    label: String,
    machine: Topology,
    gpus: Vec<GpuId>,
    config: TrainerConfig,
    blink: BlinkBackend,
    nccl: NcclBackend,
}

struct Pair {
    alloc: usize,
    model: DnnModel,
    nccl: IterationBreakdown,
}

struct Setup {
    allocs: Vec<Alloc>,
    pairs: Vec<Pair>,
}

#[derive(Default)]
struct SetupLayers {
    build_us: Vec<f64>,
    nccl_us: Vec<f64>,
}

fn setup(pass: &mut Pass, tracer: &mut Tracer, layers: &mut SetupLayers) -> Option<Setup> {
    // Plan from scratch: backends attach to the process-wide plan tier.
    global_plan_cache().invalidate();
    let mut s = Setup {
        allocs: Vec::new(),
        pairs: Vec::new(),
    };
    for (i, (label, machine, gpus)) in crate::paper::allocations().into_iter().enumerate() {
        let generation = if label.starts_with("dgx1p") {
            GpuGeneration::P100
        } else {
            GpuGeneration::V100
        };
        let config = TrainerConfig {
            generation,
            ..Default::default()
        };
        let span = tracer.begin("comm.build", i as u64);
        let blink = BlinkBackend::new(machine.clone(), &gpus);
        layers.build_us.push(tracer.end(span));
        let mut blink = match blink {
            Ok(b) => b,
            Err(e) => {
                pass.fail(format!("{label}: Blink backend failed: {e}"));
                return None;
            }
        };
        let span = tracer.begin("nccl.setup", i as u64);
        let mut nccl = NcclBackend::new(machine.clone(), &gpus);
        let mut baselines = Vec::new();
        for model in DnnModel::paper_models() {
            let it =
                TrainingSimulator::new(model.clone(), gpus.len(), config, &mut nccl).iteration();
            baselines.push((model, it));
        }
        layers
            .nccl_us
            .push(tracer.end(span) / baselines.len() as f64);
        for (model, nccl_it) in baselines {
            if !valid_rate(nccl_it.iteration_us) {
                pass.fail(format!(
                    "{label} {}: NCCL iteration {nccl_it:?}",
                    model.name
                ));
                return None;
            }
            // Warm the backend: the first step plans and fills its caches.
            let span = tracer.begin("train.warm", i as u64);
            TrainingSimulator::new(model.clone(), gpus.len(), config, &mut blink).iteration();
            tracer.end(span);
            s.pairs.push(Pair {
                alloc: i,
                model,
                nccl: nccl_it,
            });
        }
        s.allocs.push(Alloc {
            label,
            machine,
            gpus,
            config,
            blink,
            nccl,
        });
    }
    Some(s)
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
    let Setup { mut allocs, pairs } = state.expect("set-up succeeded");

    let budget = Budget::start(seconds);
    let mut first: Vec<Option<IterationBreakdown>> = vec![None; pairs.len()];
    let mut round = 0u64;
    while round == 0 || budget.more(pass.op_us.len()) {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        Rng::new(derive_seed(seed, round)).shuffle(&mut order);
        for p in order {
            let pair = &pairs[p];
            let a = &mut allocs[pair.alloc];
            let n = a.gpus.len();
            let span = tracer.begin("train.iteration", p as u64);
            let t0 = Instant::now();
            let it =
                TrainingSimulator::new(pair.model.clone(), n, a.config, &mut a.blink).iteration();
            pass.op_us.push(elapsed_us(t0));
            tracer.end(span);
            let first_it = *first[p].get_or_insert(it);
            let same = first_it.iteration_us.to_bits() == it.iteration_us.to_bits();
            pass.attempt(same && valid_rate(it.iteration_us), || {
                format!(
                    "{} {}: round {round} iteration {} us (round 0: {} us)",
                    a.label, pair.model.name, it.iteration_us, first_it.iteration_us
                )
            });
        }
        pass.end_round();
        round += 1;
    }

    // Simulated outcomes.
    let mut slower = 0usize;
    let mut exposed = Vec::new();
    for (pair, it) in pairs.iter().zip(&first) {
        let Some(it) = it else { continue };
        pass.digest.push(it.iteration_us.to_bits());
        pass.digest.push(it.comm_us.to_bits());
        pass.allreduce_gbps
            .push(pair.model.gradient_bytes() as f64 / (it.comm_us * 1000.0));
        let speedup = pair.nccl.iteration_us / it.iteration_us;
        pass.speedups.push(speedup);
        slower += usize::from(speedup < 1.0);
        exposed.push(it.comm_fraction());
    }
    pass.timing_details("step", "steps_per_s", "1/s");
    pass.detail(
        "train_speedup_gmean",
        geomean(&pass.speedups),
        "ratio",
        pass.speedups.len(),
    );
    pass.detail(
        "train_speedup_min",
        pass.speedups.iter().copied().fold(f64::INFINITY, f64::min),
        "ratio",
        pass.speedups.len(),
    );
    let slower_share = ratio(slower as f64, pairs.len() as f64);
    pass.share(
        "blink_slower (pairs where the Blink step is slower)",
        slower_share,
    );

    oracle_and_layers(&mut pass, tracer, &mut allocs, &pairs, &first);
    if tracer.enabled() {
        pass.layer("comm.build_us", mean(&layers.build_us));
        pass.layer("nccl.setup_us", mean(&layers.nccl_us));
        pass.layer("train.exposed_comm_share", mean(&exposed));
        pass.layer("share.blink_slower", slower_share);
    }
    pass
}

/// Replays every pair's step through the oracle on a communicator of its
/// own (off the clock) and, when tracing, re-runs the step's session on the
/// engine for the fusion and engine layers.
fn oracle_and_layers(
    pass: &mut Pass,
    tracer: &mut Tracer,
    allocs: &mut [Alloc],
    pairs: &[Pair],
    first: &[Option<IterationBreakdown>],
) {
    let kind = CollectiveKind::AllReduce;
    let mut comms: Vec<Option<Communicator>> = allocs
        .iter()
        .map(|a| Communicator::new(a.machine.clone(), &a.gpus, CommunicatorOptions::default()).ok())
        .collect();
    let mut scratch = EngineScratch::new();
    let (mut checks, mut check_us, mut violations) = (0usize, Vec::new(), 0usize);
    let (mut fused, mut programs, mut queue_us) = (0usize, 0usize, Vec::new());
    let (mut engine_us, mut engine_ops) = (Vec::new(), 0usize);
    for (p, (pair, it)) in pairs.iter().zip(first).enumerate() {
        let (Some(it), Some(comm)) = (it, comms[pair.alloc].as_mut()) else {
            pass.fail(format!("pair {p}: no step or communicator to check"));
            continue;
        };
        let a = &mut allocs[pair.alloc];
        let buckets: Vec<BucketIssue> =
            TrainingSimulator::new(pair.model.clone(), a.gpus.len(), a.config, &mut a.nccl)
                .bucket_issue();
        let requests: Vec<(u64, f64)> = buckets.iter().map(|b| (b.bytes, b.ready_us)).collect();
        let span = tracer.begin("comm.run_streamed", p as u64);
        let run = comm.run_streamed(kind, &requests);
        tracer.end(span);
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                pass.attempt(false, || format!("{} {}: {e}", a.label, pair.model.name));
                continue;
            }
        };
        // The battery of `Communicator::run_streamed_checked`, run here on
        // its own so that the oracle's time can be measured apart from the
        // step's.
        let mut ok = true;
        let span = tracer.begin("oracle.check", p as u64);
        for g in &run.groups {
            let mut one = |program: &blink_sim::Program, bytes: u64| {
                let check = check_collective(kind.spec(), program, &g.op_spans, &a.gpus, bytes);
                checks += 1;
                violations += check.violations.len();
                ok &= check.is_correct();
            };
            one(&g.program, g.group.total_bytes);
            if g.group.is_fused() {
                for k in 0..g.group.members.len() {
                    let window = g.group.window(k);
                    one(&restrict_to_window(&g.program, window), window.bytes);
                }
            }
        }
        check_us.push(tracer.end(span));
        let compute_us = pair.model.compute_us(a.config.generation);
        let same = compute_us.max(run.finish_us).to_bits() == it.iteration_us.to_bits();
        pass.attempt(ok && same, || {
            format!(
                "{} {}: oracle ok {ok}, step matches the timed iteration: {same}",
                a.label, pair.model.name
            )
        });
        if !tracer.enabled() {
            continue;
        }
        fused += run.fused_programs();
        programs += run.groups.len();
        for g in &run.groups {
            let start = g.op_spans.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
            if start.is_finite() {
                queue_us.push(start - g.issue_us);
            }
        }
        let sim = Simulator::new(a.machine.clone(), SimParams::default());
        let mut session = sim.session();
        for g in &run.groups {
            session.admit(g.program.clone(), g.issue_us);
            engine_ops += g.program.len();
        }
        let span = tracer.begin("engine.session", p as u64);
        let replay = session.run_with_scratch(&mut scratch);
        engine_us.push(tracer.end(span));
        let ready_floor = requests.iter().map(|r| r.1).fold(0.0f64, f64::max);
        let same =
            replay.is_ok_and(|r| r.total_us.max(ready_floor).to_bits() == run.finish_us.to_bits());
        if !same {
            pass.fail(format!(
                "{} {}: engine replay differs",
                a.label, pair.model.name
            ));
        }
    }
    if tracer.enabled() {
        pass.layer("fusion.fused_share", ratio(fused as f64, programs as f64));
        pass.layer("engine.queue_delay_us", mean(&queue_us));
        pass.layer("engine.run_us", mean(&engine_us));
        pass.layer(
            "engine.ops_per_s",
            ratio(engine_ops as f64, engine_us.iter().sum::<f64>() / 1e6),
        );
        pass.layer("oracle.checks", checks as f64);
        pass.layer(
            "oracle.check_us",
            ratio(check_us.iter().sum(), checks as f64),
        );
        pass.layer("oracle.violations", violations as f64);
    }
}
