//! `churn`: long-lived communicators receive a seeded stream of topology
//! events, each fault later paired with its heal so the mix stays
//! stationary. The timed operation is a recovery: `Communicator::replan`
//! plus the first oracle-checked AllReduce after it. A run replays a fixed
//! set of event cycles pass after pass, so the mix of events does not
//! depend on how many fit in it.

use crate::common::{
    derive_seed, elapsed_us, link_util_mean, rerun_engine, valid_rate, Budget, Pass, Rng,
    SetupTimer, SETUP_REPEATS,
};
use crate::stats::{mean, ratio};
use crate::trace::{SpanId, Tracer};
use blink_core::{
    global_plan_cache, CollectiveKind, CollectiveReport, Communicator, CommunicatorOptions,
    DegradationLevel, RepairPath, ReplanReport, TreeGen,
};
use blink_sim::{check_collective, EngineScratch, Program, ValueCheck};
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};
use blink_topology::{GpuId, ServerId, Topology, TopologyDelta};
use blink_train::{CollectiveBackend, NcclBackend};
use std::collections::BTreeMap;
use std::time::Instant;

/// Bytes of the AllReduce that verifies each recovery.
const BYTES: u64 = 32 << 20;
/// Distinct cycles of a run, each with its own seed. Every pass replays
/// them all, each on freshly built communicators.
const CYCLES: usize = 32;
/// NIC bandwidth of the two-server slice, and its degraded value (GB/s).
const NIC_GBPS: f64 = 5.0;
const NIC_DEGRADED_GBPS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Kill one NVLink-connected pair of the allocation.
    KillLink,
    /// Drop one GPU.
    DropGpu,
    /// Shrink an 8-GPU job to its first 4 GPUs (healed by growing back).
    Shrink,
    /// A compound burst: a link kill and a GPU drop composed into one delta.
    Burst,
    /// Degrade the second server's NIC.
    NicDegrade,
}

impl Fault {
    fn tag(self) -> &'static str {
        match self {
            Fault::KillLink => "kill-link",
            Fault::DropGpu => "drop-gpu",
            Fault::Shrink => "shrink-to-4",
            Fault::Burst => "burst",
            Fault::NicDegrade => "nic-degrade",
        }
    }
}

struct Spec {
    label: &'static str,
    machine: Topology,
    gpus: Vec<GpuId>,
    faults: Vec<Fault>,
}

fn specs() -> Vec<Spec> {
    use Fault::*;
    let ids = |v: &[usize]| v.iter().copied().map(GpuId).collect::<Vec<_>>();
    vec![
        Spec {
            label: "dgx1v[0-7]",
            machine: dgx1v(),
            gpus: ids(&[0, 1, 2, 3, 4, 5, 6, 7]),
            faults: vec![KillLink, DropGpu, Shrink, Burst],
        },
        Spec {
            label: "dgx1v[1,4,5,7]",
            machine: dgx1v(),
            gpus: ids(&[1, 4, 5, 7]),
            faults: vec![KillLink, DropGpu],
        },
        Spec {
            label: "dgx1v[2,3,5,6,7]",
            machine: dgx1v(),
            gpus: ids(&[2, 3, 5, 6, 7]),
            faults: vec![KillLink, DropGpu, Burst],
        },
        Spec {
            label: "dgx1p[0-7]",
            machine: dgx1p(),
            gpus: ids(&[0, 1, 2, 3, 4, 5, 6, 7]),
            faults: vec![KillLink, DropGpu],
        },
        Spec {
            label: "dgx2[0-15]",
            machine: dgx2(),
            gpus: (0..16).map(GpuId).collect(),
            faults: vec![DropGpu],
        },
        Spec {
            label: "2xdgx1v[0-2,8-12]",
            machine: multi_server(2, ServerKind::Dgx1V, NIC_GBPS),
            gpus: ids(&[0, 1, 2, 8, 9, 10, 11, 12]),
            faults: vec![NicDegrade, KillLink, DropGpu],
        },
    ]
}

/// Builds one fault's delta against the healthy machine.
fn fault_delta(spec: &Spec, fault: Fault, rng: &mut Rng) -> TopologyDelta {
    let m = &spec.machine;
    let g = &spec.gpus;
    let nvlink_pair = |rng: &mut Rng| {
        let pairs: Vec<(GpuId, GpuId)> = g
            .iter()
            .flat_map(|&a| g.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b && m.has_nvlink(a, b))
            .collect();
        pairs[rng.below(pairs.len())]
    };
    match fault {
        Fault::KillLink => {
            let (a, b) = nvlink_pair(rng);
            TopologyDelta::kill_link(m, a, b)
        }
        Fault::DropGpu => TopologyDelta::drop_gpu(g[rng.below(g.len())]),
        Fault::Shrink => TopologyDelta {
            removed_gpus: g[4..].to_vec(),
            ..Default::default()
        },
        Fault::Burst => {
            let (a, b) = nvlink_pair(rng);
            let rest: Vec<GpuId> = g.iter().copied().filter(|&x| x != a && x != b).collect();
            TopologyDelta::kill_link(m, a, b)
                .compose(&TopologyDelta::drop_gpu(rest[rng.below(rest.len())]))
        }
        Fault::NicDegrade => TopologyDelta::set_server_nic(ServerId(1), NIC_DEGRADED_GBPS),
    }
}

struct Event {
    comm: usize,
    tag: &'static str,
    delta: TopologyDelta,
}

/// One cycle of events: every (communicator, fault kind) pair once, in a
/// seeded order with seeded targets. A fault's heal comes at its
/// communicator's next event or at the end of the cycle, so every cycle
/// returns every machine to health and the event mix is the same for every
/// seed.
fn events(specs: &[Spec], seed: u64) -> Result<Vec<Event>, String> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut pairs: Vec<(usize, Fault)> = specs
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.faults.iter().map(move |&f| (c, f)))
        .collect();
    rng.shuffle(&mut pairs);
    let mut pending: Vec<Option<TopologyDelta>> = specs.iter().map(|_| None).collect();
    for (c, fault) in pairs {
        if let Some(delta) = pending[c].take() {
            out.push(Event {
                comm: c,
                tag: "heal",
                delta,
            });
        }
        let spec = &specs[c];
        let delta = fault_delta(spec, fault, &mut rng);
        let faulted = spec
            .machine
            .apply_delta(&delta)
            .map_err(|e| format!("{}: {fault:?} does not apply: {e}", spec.label))?;
        pending[c] = Some(TopologyDelta::between(&faulted, &spec.machine));
        out.push(Event {
            comm: c,
            tag: fault.tag(),
            delta,
        });
    }
    let mut rest: Vec<(usize, TopologyDelta)> = pending
        .into_iter()
        .enumerate()
        .filter_map(|(c, d)| d.map(|d| (c, d)))
        .collect();
    rng.shuffle(&mut rest);
    out.extend(rest.into_iter().map(|(comm, delta)| Event {
        comm,
        tag: "heal",
        delta,
    }));
    Ok(out)
}

fn build(spec: &Spec) -> blink_core::Result<Communicator> {
    let mut comm = Communicator::new(
        spec.machine.clone(),
        &spec.gpus,
        CommunicatorOptions::default(),
    )?;
    comm.run(CollectiveKind::AllReduce, BYTES)?;
    Ok(comm)
}

struct Setup {
    specs: Vec<Spec>,
    comms: Vec<Communicator>,
    cycles: Vec<Vec<Event>>,
}

/// Builds and warms every communicator from scratch: they attach to the
/// process-wide plan tier, which is emptied first.
fn build_all(
    specs: &[Spec],
    tracer: &mut Tracer,
    build_us: &mut Vec<f64>,
) -> Result<Vec<Communicator>, String> {
    global_plan_cache().invalidate();
    let mut comms = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let span = tracer.begin("comm.build", i as u64);
        let comm = build(spec).map_err(|e| format!("{}: {e}", spec.label))?;
        build_us.push(tracer.end(span));
        comms.push(comm);
    }
    Ok(comms)
}

/// Draws the events of every cycle and builds the communicators.
fn setup(seed: u64, tracer: &mut Tracer, build_us: &mut Vec<f64>) -> Result<Setup, String> {
    let specs = specs();
    let cycles = (0..CYCLES as u64)
        .map(|c| events(&specs, derive_seed(seed, c)))
        .collect::<Result<Vec<_>, _>>()?;
    let comms = build_all(&specs, tracer, build_us)?;
    Ok(Setup {
        specs,
        comms,
        cycles,
    })
}

/// The simulated outputs of one recovery, in a fixed order.
fn digest(report: &ReplanReport, gbps: f64) -> [u64; 6] {
    [
        gbps.to_bits(),
        report.rate_gbps.to_bits(),
        report.root.0 as u64,
        report.num_gpus as u64,
        report.warm_iterations as u64,
        report.degradation as u64,
    ]
}

/// What the first cycles recorded for one event.
struct Record {
    report: ReplanReport,
    gbps: f64,
    machine: Topology,
    gpus: Vec<GpuId>,
}

/// Per-layer timings of the traced pass (µs).
#[derive(Default)]
struct Layers {
    /// The last recovery's program and call span, for [`replay_engine`].
    recovered: Option<(Program, SpanId)>,
    scratch: EngineScratch,
    engine_us: Vec<f64>,
    engine_ops: usize,
    link_util: Vec<f64>,
    replan_us: Vec<f64>,
    call_us: Vec<f64>,
    check_us: Vec<f64>,
    cold_us: f64,
    warm_us: f64,
}

/// One recovery: replan, then the first AllReduce checked by the oracle. The
/// traced pass splits `run_checked` into its two public halves,
/// `run_traced` and `check_collective`.
fn recover(
    comm: &mut Communicator,
    delta: &TopologyDelta,
    id: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> blink_core::Result<(ReplanReport, CollectiveReport, ValueCheck)> {
    let kind = CollectiveKind::AllReduce;
    let span = tracer.begin("comm.replan", id);
    let replanned = comm.replan(delta);
    let replan_us = tracer.end(span);
    let report = replanned?;
    if !tracer.enabled() {
        let (collective, check) = comm.run_checked(kind, BYTES)?;
        return Ok((report, collective, check));
    }
    layers.replan_us.push(replan_us);
    let call = tracer.begin("comm.run_traced", id);
    let traced = comm.run_traced(kind, BYTES);
    let run_us = tracer.end(call);
    let (collective, program, spans) = traced?;
    let span = tracer.begin("oracle.check", id);
    let check = check_collective(kind.spec(), &program, &spans, comm.allocation(), BYTES);
    let check_us = tracer.end(span);
    layers.check_us.push(check_us);
    layers.call_us.push(run_us + check_us);
    layers.recovered = Some((program, call));
    Ok((report, collective, check))
}

/// Re-runs the last recovered program on the engine, off the clock, and
/// attributes it to the call that ran it.
fn replay_engine(comm: &Communicator, tracer: &mut Tracer, layers: &mut Layers) {
    let Some((program, call)) = layers.recovered.take() else {
        return;
    };
    let span = tracer.begin_under("engine.run", 0, call);
    let replay = rerun_engine(comm, &program, &mut layers.scratch);
    layers.engine_us.push(tracer.end(span));
    layers.engine_ops += program.len();
    layers.link_util.extend(replay.as_ref().map(link_util_mean));
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut build_us = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let timer = SetupTimer::start();
        let s = setup(seed, tracer, &mut build_us);
        timer.stop(&mut pass);
        match s {
            Ok(s) => state = Some(s),
            Err(e) => {
                pass.fail(format!("set-up failed: {e}"));
                return pass;
            }
        }
    }
    let Setup {
        specs,
        mut comms,
        cycles,
    } = state.expect("set-up succeeded");

    let budget = Budget::start(seconds);
    // Per cycle, what its first pass recorded for each event.
    let mut first: Vec<Vec<Record>> = Vec::new();
    let mut layers = Layers::default();
    let (mut checks, mut violations) = (0usize, 0usize);
    'cycles: for k in 0usize.. {
        if k >= CYCLES && !budget.more(pass.op_us.len()) {
            break;
        }
        let c = k % CYCLES;
        if k > 0 {
            // Each cycle restarts its communicators: a communicator that
            // lives through several cycles does not reach a steady state (on
            // DGX-2 all-16, a second GPU drop after a re-add can take seconds
            // to replan, and its heal tens of seconds).
            match build_all(&specs, tracer, &mut build_us) {
                Ok(fresh) => comms = fresh,
                Err(err) => {
                    pass.fail(format!("cycle {c}: restart failed: {err}"));
                    break;
                }
            }
        }
        let mut records = Vec::new();
        for (i, ev) in cycles[c].iter().enumerate() {
            if k >= CYCLES && !budget.more(pass.op_us.len()) {
                pass.end_round();
                break 'cycles;
            }
            let comm = &mut comms[ev.comm];
            let id = ((c as u64) << 32) + i as u64;
            let t0 = Instant::now();
            let recovered = recover(comm, &ev.delta, id, tracer, &mut layers);
            pass.op_us.push(elapsed_us(t0));
            let label = specs[ev.comm].label;
            let (report, collective, check) = match recovered {
                Ok(r) => r,
                Err(err) => {
                    pass.attempted += 1;
                    pass.attempt(false, || {
                        format!("{label} {}: recovery failed: {err}", ev.tag)
                    });
                    if k < CYCLES {
                        pass.end_round();
                        break 'cycles;
                    }
                    continue;
                }
            };
            checks += 1;
            violations += check.violations.len();
            pass.attempt(true, String::new);
            let gbps = collective.algorithmic_bandwidth_gbps;
            pass.attempt(check.is_correct() && valid_rate(gbps), || {
                format!(
                    "{label} {}: {} oracle violations, {gbps} GB/s",
                    ev.tag,
                    check.violations.len()
                )
            });
            replay_engine(comm, tracer, &mut layers);
            if tracer.enabled() && report.rate_gbps > 0.0 {
                // Reference only: a cold plan of the picked root on the
                // recovered topology, compared with the replan it follows.
                let tg = TreeGen::new(comm.induced_topology().clone(), comm.options().treegen);
                let t = Instant::now();
                if tg.plan(report.root).is_ok() {
                    layers.cold_us += elapsed_us(t);
                    layers.warm_us += layers.replan_us.last().copied().unwrap_or(0.0);
                }
            }
            match first.get(c).and_then(|r| r.get(i)) {
                // Every replay of a cycle must repeat its first pass's
                // simulated outputs.
                Some(rec) => {
                    if digest(&report, gbps) != digest(&rec.report, rec.gbps) {
                        pass.fail(format!(
                            "{label} {}: replaying cycle {c} changed its outputs",
                            ev.tag
                        ));
                    }
                }
                None => records.push(Record {
                    report,
                    gbps,
                    machine: comm.machine_topology().clone(),
                    gpus: comm.allocation().to_vec(),
                }),
            }
        }
        pass.end_round();
        if k < CYCLES {
            first.push(records);
        }
    }
    let first: Vec<Record> = first.into_iter().flatten().collect();
    // Simulated outcomes of the cycles.
    let mut rungs: BTreeMap<String, usize> = BTreeMap::new();
    let (mut kept, mut demoted, mut warm_events, mut reroutes) = (0, 0, 0usize, 0usize);
    let mut warm_iterations = Vec::new();
    let mut no_baseline = 0usize;
    let mut nccl_us = Vec::new();
    for r in &first {
        let rep = &r.report;
        pass.digest.extend(digest(rep, r.gbps));
        pass.allreduce_gbps.push(r.gbps);
        // The NCCL planner cannot plan every degraded allocation; those
        // events have no baseline and are left out of the ratio.
        let t = Instant::now();
        let nccl = NcclBackend::new(r.machine.clone(), &r.gpus).allreduce_gbps(BYTES);
        nccl_us.push(elapsed_us(t));
        if valid_rate(nccl) {
            pass.speedups.push(r.gbps / nccl);
        } else {
            no_baseline += 1;
        }
        *rungs.entry(rep.degradation.to_string()).or_default() += 1;
        kept += rep.plans_kept;
        demoted += rep.seeds_demoted;
        if rep.warm_seeded_trees > 0 {
            warm_events += 1;
            warm_iterations.push(rep.warm_iterations as f64);
            reroutes += usize::from(rep.repair_path == RepairPath::Reroute);
        }
    }
    let events_n = first.len() as f64;
    let rung_share = |level: DegradationLevel| {
        ratio(
            rungs.get(&level.to_string()).copied().unwrap_or(0) as f64,
            events_n,
        )
    };
    let levels = [
        DegradationLevel::FullWarmRepair,
        DegradationLevel::PackedReplan,
        DegradationLevel::PcieFallback,
        DegradationLevel::ShrunkSubgroup,
    ];
    for level in levels {
        pass.share(&format!("rung {level}"), rung_share(level));
    }
    let warm_share = ratio(warm_events as f64, events_n);
    pass.share(
        "nccl_unplannable (events without an NCCL baseline)",
        ratio(no_baseline as f64, events_n),
    );
    pass.share("warm_seeded (events that consumed warm seeds)", warm_share);
    pass.timing_details("recovery", "recoveries_per_s", "1/s");
    pass.detail(
        "allreduce_gbps_gmean",
        crate::stats::geomean(&pass.allreduce_gbps),
        "GB/s",
        pass.allreduce_gbps.len(),
    );

    if tracer.enabled() {
        pass.layer("comm.build_us", mean(&build_us));
        pass.layer("comm.replan_us", mean(&layers.replan_us));
        pass.layer("nccl.setup_us", mean(&nccl_us));
        pass.layer("engine.run_us", mean(&layers.engine_us));
        pass.layer(
            "engine.ops_per_s",
            ratio(
                layers.engine_ops as f64,
                layers.engine_us.iter().sum::<f64>() / 1e6,
            ),
        );
        pass.layer("engine.link_util_mean", mean(&layers.link_util));
        pass.layer("comm.recover_call_us", mean(&layers.call_us));
        pass.layer("oracle.checks", checks as f64);
        pass.layer("oracle.check_us", mean(&layers.check_us));
        pass.layer("oracle.violations", violations as f64);
        pass.layer(
            "treegen.cold_ref_us",
            ratio(layers.cold_us, layers.replan_us.len() as f64),
        );
        pass.layer(
            "replan.warm_over_cold",
            ratio(layers.cold_us, layers.warm_us),
        );
        pass.layer(
            "replan.rung_share.full-warm-repair",
            rung_share(DegradationLevel::FullWarmRepair),
        );
        pass.layer(
            "replan.rung_share.packed-replan",
            rung_share(DegradationLevel::PackedReplan),
        );
        pass.layer(
            "replan.rung_share.pcie-fallback",
            rung_share(DegradationLevel::PcieFallback),
        );
        pass.layer(
            "replan.rung_share.shrunk-subgroup",
            rung_share(DegradationLevel::ShrunkSubgroup),
        );
        pass.layer("replan.warm_iterations", mean(&warm_iterations));
        pass.layer(
            "replan.reroute_ratio",
            ratio(reroutes as f64, warm_events as f64),
        );
        pass.layer(
            "replan.plans_kept_ratio",
            ratio(kept as f64, (kept + demoted) as f64),
        );
        pass.layer("share.warm_seeded", warm_share);
    }
    pass
}
