//! End-to-end and per-layer benchmark of the Blink reproduction.
//!
//! ```text
//! cargo run --release --manifest-path blinkbench/Cargo.toml -- \
//!     --workload <fleet|paper|train|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this one process through the
//! library's public API. With `--trace 0` the run measures the end-to-end
//! metrics with tracing off. With `--trace 1` it runs the same workload
//! twice on the same seed, untraced and then traced: the traced pass records
//! spans around the benchmark's calls into each layer (and re-invokes lower
//! layers where a call bundles several) to report the per-layer metrics,
//! and the difference between the passes is the tracing overhead. The last
//! line of standard output is one JSON object with the result.
//!
//! The process pins itself to one CPU, and the timed end-to-end metrics are
//! in units of a fixed reference kernel timed next to the operations, so
//! that the host's other load does not move them (see `DESIGN.md`).

mod churn;
mod common;
mod fleet;
mod paper;
mod stats;
mod trace;
mod train;

use common::Pass;
use stats::{geomean, median, ratio};
use std::collections::BTreeMap;
use trace::Tracer;

/// End-to-end metrics, reported by every workload: (name, unit).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("op_gmean_ref", "ref"),
    ("op_p99_ref", "ref"),
    ("ops_per_ref", "1/ref"),
    ("allreduce_gbps_gmean", "GB/s"),
    ("speedup_gmean", "ratio"),
    ("speedup_min", "ratio"),
];

/// Per-layer metrics, reported by every traced run: (name, unit). A layer a
/// workload does not exercise reports 0 there.
const PER_LAYER: [(&str, &str); 51] = [
    ("host.nproc", "count"),
    ("host.scratch_workers", "count"),
    ("host.ref_kernel_us", "us"),
    ("trace.overhead_op_gmean", "ratio"),
    ("trace.overhead_op_p99", "ratio"),
    ("trace.overhead_ops_per_ref", "ratio"),
    ("trace.overhead_setup_s", "ratio"),
    ("sched.place_us", "us"),
    ("sched.drain_us", "us"),
    ("sched.loop_self_us", "us"),
    ("sched.consolidate_improved_ratio", "ratio"),
    ("sched.rejected_contention", "count"),
    ("comm.build_us", "us"),
    ("comm.first_call_hit_us", "us"),
    ("comm.first_call_miss_us", "us"),
    ("comm.call_self_us", "us"),
    ("comm.replan_us", "us"),
    ("comm.recover_call_us", "us"),
    ("cache.shared_hit_ratio", "ratio"),
    ("cache.canonical_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("treegen.plan_us", "us"),
    ("treegen.trees", "count"),
    ("graph.mwu_iterations", "count"),
    ("treegen.cold_ref_us", "us"),
    ("replan.warm_over_cold", "ratio"),
    ("replan.rung_share.full-warm-repair", "ratio"),
    ("replan.rung_share.packed-replan", "ratio"),
    ("replan.rung_share.pcie-fallback", "ratio"),
    ("replan.rung_share.shrunk-subgroup", "ratio"),
    ("replan.warm_iterations", "count"),
    ("replan.reroute_ratio", "ratio"),
    ("replan.plans_kept_ratio", "ratio"),
    ("codegen.build_us", "us"),
    ("codegen.ops", "count"),
    ("codegen.copy_bytes", "bytes"),
    ("codegen.reconstructed_share", "ratio"),
    ("fusion.fused_share", "ratio"),
    ("engine.run_us", "us"),
    ("engine.ops_per_s", "1/s"),
    ("engine.link_util_mean", "ratio"),
    ("engine.queue_delay_us", "us"),
    ("oracle.checks", "count"),
    ("oracle.check_us", "us"),
    ("oracle.violations", "count"),
    ("nccl.setup_us", "us"),
    ("train.exposed_comm_share", "ratio"),
    ("share.cold_miss", "ratio"),
    ("share.fragmented", "ratio"),
    ("share.warm_seeded", "ratio"),
    ("share.blink_slower", "ratio"),
];

const WORKLOADS: [&str; 4] = ["fleet", "paper", "train", "churn"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins the process to the first CPU it may run on, before any thread
/// starts, so that the library's `ScratchPool` sizes itself to one worker.
/// On a few cores of a shared host, parallel planning over every core
/// measures how much of each core other tenants leave free; one worker
/// measures the program. Returns the CPU, or `None` where pinning is not
/// available (the run then uses every core).
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    const MASK_BYTES: usize = 128;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: both calls get a buffer of exactly the size they are told.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_BYTES * 8).find(|&i| mask[i / 8] & (1 << (i % 8)) != 0)?;
    let mut one = [0u8; MASK_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn run_pass(args: &Args, tracer: &mut Tracer) -> Pass {
    match args.workload.as_str() {
        "fleet" => fleet::run(args.seed, args.seconds, tracer),
        "paper" => paper::run(args.seed, args.seconds, tracer),
        "train" => train::run(args.seed, args.seconds, tracer),
        "churn" => churn::run(args.seed, args.seconds, tracer),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// The end-to-end metric values of one pass, in [`END_TO_END`] order.
fn end_to_end(pass: &Pass) -> Vec<f64> {
    let t = pass.timings();
    let ok = 1.0 - ratio(pass.failed as f64, pass.attempted as f64);
    vec![
        median(&pass.setup_s),
        ok,
        t.op_gmean_ref,
        t.op_ref.p99,
        t.ops_per_ref,
        geomean(&pass.allreduce_gbps),
        geomean(&pass.speedups),
        pass.speedups.iter().copied().fold(f64::INFINITY, f64::min),
    ]
}

fn print_pass(label: &str, pass: &Pass) {
    let t = pass.timings();
    let tail = t
        .op_us
        .tail_pct
        .map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "[{label}] ops: {} samples in {} batches, p50 {:.1} us, p99 {:.1} us (highest \
         percentile with >= 10 samples beyond: {tail}); reference kernel median {:.1} us; \
         set-ups {:?} s wall, {:?} s of the reference host",
        t.op_us.samples,
        t.batches,
        t.op_us.p50,
        t.op_us.p99,
        t.ref_us,
        pass.setup_wall_s,
        pass.setup_s
    );
    for (name, value, unit, n) in &pass.details {
        println!("[{label}] metric {name} = {value} {unit} (n={n})");
    }
    for (name, value) in &pass.shares {
        println!("[{label}] share {name} = {value:.4}");
    }
    for f in &pass.failures {
        println!("[{label}] FAILURE: {f}");
    }
    println!(
        "[{label}] operations: {} attempted, {} failed",
        pass.attempted, pass.failed
    );
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu();
    let workers = blink_core::ScratchPool::new().workers();
    println!(
        "host: nproc={nproc} pinned_cpu={cpu:?} scratch_pool_workers={workers} workload={} \
         seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let untraced = run_pass(&args, &mut Tracer::new(false));
    print_pass("untraced", &untraced);
    let e2e = end_to_end(&untraced);

    let (metrics, correct, attempted, failed) = if !args.trace {
        let values: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(&(n, u), &v)| (n, v, u))
            .collect();
        for (n, v, u) in &values {
            println!("[untraced] {n} = {v} {u}");
        }
        let finite = values.iter().all(|(_, v, _)| v.is_finite());
        (
            values,
            untraced.failed == 0 && finite,
            untraced.attempted,
            untraced.failed,
        )
    } else {
        let mut tracer = Tracer::new(true);
        let mut traced = run_pass(&args, &mut tracer);
        print_pass("traced", &traced);
        let identical = traced.digest == untraced.digest;
        if !identical {
            traced.fail(format!(
                "simulated outputs differ between the untraced and traced runs \
                 ({} vs {} values)",
                untraced.digest.len(),
                traced.digest.len()
            ));
            println!(
                "[traced] FAILURE: simulated outputs are not bit-identical to the untraced run"
            );
        }
        let t2e = end_to_end(&traced);
        let overhead = |i: usize| ratio(t2e[i], e2e[i]);
        traced.layer("host.nproc", nproc as f64);
        traced.layer("host.scratch_workers", workers as f64);
        traced.layer("trace.overhead_setup_s", overhead(0));
        traced.layer("host.ref_kernel_us", untraced.timings().ref_us);
        traced.layer("trace.overhead_op_gmean", overhead(2));
        traced.layer("trace.overhead_op_p99", overhead(3));
        traced.layer("trace.overhead_ops_per_ref", overhead(4));
        for name in traced.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is missing from the metric table"
            );
        }
        let values: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, traced.layers.get(n).copied().unwrap_or(0.0), u))
            .collect();
        for (n, v, u) in &values {
            println!("[traced] {n} = {v} {u}");
        }
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        for (name, (count, total_us, self_us)) in tracer.totals() {
            println!(
                "[traced] span {name}: {count} spans, {total_us:.0} us total, {self_us:.0} us self"
            );
        }
        match tracer.write(&path) {
            Ok(()) => println!("[traced] spans written to {}", path.display()),
            Err(e) => println!("[traced] could not write spans to {}: {e}", path.display()),
        }
        let finite = values.iter().all(|(_, v, _)| v.is_finite());
        (
            values,
            untraced.failed == 0 && traced.failed == 0 && finite,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        )
    };
    let metrics: Vec<(&str, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program reports.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let declared = json.matches("\"name\":").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
