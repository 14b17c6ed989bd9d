//! `fleet`: independent episodes of the contended Figure 3 job stream on
//! 8 × DGX-1V, each on a fresh [`FleetPipeline`] (so a fresh shared plan
//! cache). The timed operation is a placed multi-GPU job's time to first
//! collective, as the pipeline reports it. A run replays its episodes pass
//! after pass, so the mix of jobs does not depend on how many fit in it.

use crate::common::{derive_seed, valid_rate, Budget, Pass, SetupTimer, SETUP_REPEATS};
use crate::stats::{mean, ratio};
use crate::trace::Tracer;
use blink_sched::{FleetConfig, FleetPipeline, FleetReport, Job, Stage, WorkloadGenerator};
use blink_topology::presets::{multi_server, ServerKind};
use blink_topology::GpuId;
use blink_train::{CollectiveBackend, NcclBackend};
use std::collections::BTreeMap;
use std::time::Instant;

/// Jobs offered per episode.
const EPISODE_JOBS: usize = 300;
/// Distinct episodes of a run, each with its own seed. Every pass replays
/// them all, each on a fresh pipeline.
const EPISODES: usize = 64;
/// Jobs of the untimed warm-up episode in each set-up.
const WARMUP_JOBS: usize = 100;

fn config(seed: u64, episode: u64) -> FleetConfig {
    let mut c = FleetConfig {
        jobs: EPISODE_JOBS,
        check_every: 10,
        subgroup_lift_every: 4,
        ..Default::default()
    };
    c.workload.seed = derive_seed(seed, episode);
    c
}

/// One episode's configuration and job stream.
fn episode(seed: u64, k: u64) -> (FleetConfig, Vec<Job>) {
    let c = config(seed, k);
    let jobs = WorkloadGenerator::new(c.workload.clone()).take(c.jobs);
    (c, jobs)
}

struct Setup {
    episodes: Vec<(FleetConfig, Vec<Job>)>,
}

fn setup(seed: u64) -> Setup {
    let episodes = (0..EPISODES as u64).map(|k| episode(seed, k)).collect();
    // Warm-up: one short episode on a fixed stream (not an input of the
    // run), so the first timed episode does not pay for the process's first
    // allocations and thread start-up.
    let mut warm = config(0, u64::MAX);
    warm.jobs = WARMUP_JOBS;
    let _ = FleetPipeline::new(warm).run();
    Setup { episodes }
}

/// The simulated outputs of one episode, in a fixed order.
fn digest(report: &FleetReport) -> Vec<u64> {
    let mut d = vec![
        report.placed as u64,
        report.rejected_contention,
        report.consolidations as u64,
        report.shared_hits,
        report.shared_misses,
    ];
    for o in &report.outcomes {
        d.push(o.job_id);
        d.push(o.rate_gbps.to_bits());
    }
    d
}

/// NCCL's flat-ring AllReduce bandwidth for an `n`-GPU allocation split
/// across servers. The baseline crosses the NIC with one ring whatever the
/// per-server split, so only `n` and the NIC matter.
fn nccl_ring_gbps(n: usize, nic_gbps: f64, bytes: u64) -> f64 {
    let machine = multi_server(3, ServerKind::Dgx1V, nic_gbps);
    let mut alloc: Vec<GpuId> = (0..n - 1).map(GpuId).collect();
    alloc.push(GpuId(23));
    NcclBackend::new(machine, &alloc).allreduce_gbps(bytes)
}

#[derive(Default)]
struct Layers {
    place_us: Vec<f64>,
    build_us: Vec<f64>,
    first_hit_us: Vec<f64>,
    first_miss_us: Vec<f64>,
    drain_us: f64,
    loop_self_us: f64,
    submitted: usize,
}

/// Drives one episode one job per `run_jobs` call, so each job's shared-cache
/// misses are attributed to it.
fn run_traced_episode(
    pipeline: &mut FleetPipeline,
    jobs: &[Job],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> blink_core::Result<FleetReport> {
    let mut run_us = 0.0;
    for job in jobs {
        let (_, misses_before) = pipeline.shared_cache().stats();
        let placed_before = pipeline.report().placed;
        let span = tracer.begin("sched.run_jobs", job.id);
        let report = pipeline.run_jobs(std::slice::from_ref(job));
        run_us += tracer.end(span);
        let report = report?;
        if report.placed > placed_before {
            let o = report.outcomes.last().expect("a job was placed");
            layers.place_us.push(o.place_us);
            layers.build_us.push(o.plan_us);
            if report.shared_misses > misses_before {
                layers.first_miss_us.push(o.first_collective_us);
            } else {
                layers.first_hit_us.push(o.first_collective_us);
            }
        }
    }
    let m = pipeline.monitor();
    layers.drain_us += m.total_us(Stage::Depart) + m.total_us(Stage::Consolidate);
    let staged: f64 = [
        Stage::Place,
        Stage::Plan,
        Stage::FirstCollective,
        Stage::Consolidate,
        Stage::SubgroupLift,
    ]
    .into_iter()
    .map(|s| m.total_us(s))
    .sum();
    layers.loop_self_us += run_us - staged;
    layers.submitted += jobs.len();
    Ok(pipeline.report())
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut setup_state = None;
    for _ in 0..SETUP_REPEATS {
        let timer = SetupTimer::start();
        let s = setup(seed);
        timer.stop(&mut pass);
        setup_state = Some(s);
    }
    let setup_state = setup_state.expect("at least one set-up");

    let budget = Budget::start(seconds);
    // Per episode, from its first pass: the report plus the cache's
    // canonical-tier (hits, misses) and LRU evictions.
    let mut first: Vec<(FleetReport, (u64, u64), u64)> = Vec::new();
    let mut layers = Layers::default();
    let mut k = 0usize;
    while k < EPISODES || budget.more(pass.op_us.len()) {
        let e = k % EPISODES;
        let (c, jobs) = &setup_state.episodes[e];
        let mut pipeline = FleetPipeline::new(c.clone());
        let t0 = Instant::now();
        let result = if tracer.enabled() {
            run_traced_episode(&mut pipeline, jobs, tracer, &mut layers)
        } else {
            pipeline.run_jobs(jobs)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        k += 1;
        let report = match result {
            Ok(r) => r,
            Err(err) => {
                pass.attempted += jobs.len() as u64;
                pass.fail(format!("episode {e}: run_jobs failed: {err}"));
                break;
            }
        };
        for o in report.outcomes.iter().filter(|o| o.gpus >= 2) {
            pass.op_us.push(o.ttfc_us);
        }
        pass.end_batch(jobs.len(), wall_s);
        for o in &report.outcomes {
            pass.attempt(o.gpus < 2 || valid_rate(o.rate_gbps), || {
                format!("job {}: first collective rate {}", o.job_id, o.rate_gbps)
            });
        }
        pass.attempted += (report.consolidations + report.subgroup_lifts) as u64;
        for _ in 0..report.checks_failed + report.subgroup_checks_failed {
            pass.fail(format!("episode {e}: an oracle check failed"));
        }
        // Every replay of an episode must repeat its first pass's simulated
        // outputs.
        match first.get(e) {
            Some((report0, _, _)) => {
                if digest(&report) != digest(report0) {
                    pass.fail(format!(
                        "episode {e}: a replay changed its simulated outputs"
                    ));
                }
            }
            None => {
                let cache = pipeline.shared_cache();
                first.push((report, cache.canonical_stats(), cache.evictions()));
            }
        }
    }

    // Simulated outcomes of the episodes.
    let fc = config(seed, 0);
    let mut ring: BTreeMap<usize, f64> = BTreeMap::new();
    let (mut lookups, mut misses, mut multi, mut fragmented, mut three_phase) = (0, 0, 0, 0, 0);
    let (mut canon_hits, mut canon_lookups) = (0u64, 0u64);
    let (mut consolidations, mut improved, mut contention, mut evictions) = (0, 0, 0u64, 0u64);
    let (mut checks, mut checks_failed) = (0, 0);
    for (report, (ch, cm), ev) in &first {
        canon_hits += ch;
        canon_lookups += ch + cm;
        evictions += ev;
        pass.digest.extend(digest(report));
        lookups += report.shared_hits + report.shared_misses;
        misses += report.shared_misses;
        consolidations += report.consolidations;
        improved += report.consolidations_improved;
        contention += report.rejected_contention;
        checks += report.checks_run + report.subgroup_checks_run;
        checks_failed += report.checks_failed + report.subgroup_checks_failed;
        for o in report.outcomes.iter().filter(|o| o.gpus >= 2) {
            multi += 1;
            pass.allreduce_gbps.push(o.rate_gbps);
            if o.strategy.contains("three-phase") {
                three_phase += 1;
            }
            if o.fragmented {
                fragmented += 1;
                let nccl = *ring
                    .entry(o.gpus)
                    .or_insert_with(|| nccl_ring_gbps(o.gpus, fc.nic_gbps, fc.collective_bytes));
                pass.speedups.push(ratio(o.rate_gbps, nccl));
            }
        }
    }
    let episodes = first.len().max(1) as f64;
    pass.share(
        "cold_miss (shared misses / lookups)",
        ratio(misses as f64, lookups as f64),
    );
    pass.share(
        "fragmented (multi-server jobs / multi-GPU jobs)",
        ratio(fragmented as f64, multi as f64),
    );
    pass.share(
        "three_phase (three-phase jobs / multi-GPU jobs)",
        ratio(three_phase as f64, multi as f64),
    );
    pass.timing_details("ttfc", "jobs_per_s", "jobs/s");
    pass.detail(
        "allreduce_gbps_gmean",
        crate::stats::geomean(&pass.allreduce_gbps),
        "GB/s",
        pass.allreduce_gbps.len(),
    );
    pass.detail(
        "canonical_tier_lookups",
        canon_lookups as f64,
        "count",
        first.len(),
    );
    pass.detail(
        "three_phase_vs_nccl_ring_gmean",
        crate::stats::geomean(&pass.speedups),
        "ratio",
        pass.speedups.len(),
    );

    if tracer.enabled() {
        pass.layer("sched.place_us", mean(&layers.place_us));
        pass.layer(
            "sched.drain_us",
            ratio(layers.drain_us, layers.submitted as f64),
        );
        pass.layer(
            "sched.loop_self_us",
            ratio(layers.loop_self_us, layers.submitted as f64),
        );
        pass.layer(
            "sched.consolidate_improved_ratio",
            ratio(improved as f64, consolidations as f64),
        );
        pass.layer("sched.rejected_contention", contention as f64 / episodes);
        pass.layer("comm.build_us", mean(&layers.build_us));
        pass.layer("comm.first_call_hit_us", mean(&layers.first_hit_us));
        pass.layer("comm.first_call_miss_us", mean(&layers.first_miss_us));
        pass.layer(
            "cache.shared_hit_ratio",
            ratio((lookups - misses) as f64, lookups as f64),
        );
        pass.layer(
            "cache.canonical_hit_ratio",
            ratio(canon_hits as f64, canon_lookups as f64),
        );
        pass.layer("cache.evictions", evictions as f64 / episodes);
        pass.layer("oracle.checks", checks as f64 / episodes);
        pass.layer("oracle.violations", checks_failed as f64 / episodes);
        pass.layer("share.cold_miss", ratio(misses as f64, lookups as f64));
        pass.layer("share.fragmented", ratio(fragmented as f64, multi as f64));
    }
    pass
}
