//! End-to-end and per-layer benchmark of the `parlogsim simulate` pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload s15850_platform_k8 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload in a closed loop: each pass starts when
//! the previous one has ended, until `--seconds` have passed. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of the traced passes.
//! A human-readable report goes to stderr. See `perfbench/README.md`.

mod speed;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use speed::Calibrator;
use trace::Clock;
use workload::{kernel_counts, Exec, ExecRun, PassResult, Workload, DEFAULT_SEED, WORKLOADS};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value).unwrap_or_else(|| usage())),
            "--seed" => seed = number(),
            "--seconds" => seconds = number(),
            "--trace" => trace = number() != 0,
            _ => usage(),
        }
    }
    Args { workload: workload.unwrap_or_else(|| usage()), seed, seconds, trace }
}

/// Median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (0 when empty).
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p50/p90/p95/p99/p99.9 that has at least ten samples
/// above it, rendered with its value and the sample count.
fn tail(v: &[f64]) -> String {
    let n = v.len();
    let best =
        [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0);
    match best {
        Some(p) => format!("p{p} {:.4} (n={n})", percentile(v, p)),
        None => format!("no percentile has 10 samples above it (n={n})"),
    }
}

/// Peak resident set size of this process, in MiB, from `VmHWM`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where the traced run writes its spans: under the build directory, which
/// stays inside the checkout and out of version control.
fn trace_path(args: &Args) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("perfbench").join(format!("trace-{}-seed{}.jsonl", args.workload.name, args.seed))
}

/// Outcome of all passes of a run.
#[derive(Debug, Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Successful passes the metrics come from: every pass of an
    /// untraced run, the traced passes of a traced one.
    measured: Vec<PassResult>,
    /// Successful untraced passes of a `--trace 1` run, kept only for the
    /// tracing overhead.
    untraced: Vec<PassResult>,
    /// Platform makespan of each input variant. It is deterministic per
    /// variant, so its median over variants repeats exactly for a seed,
    /// however many passes the run fits in.
    modeled_s: BTreeMap<usize, f64>,
}

impl Run {
    fn modeled_s(&self) -> f64 {
        median(&self.modeled_s.values().copied().collect::<Vec<_>>())
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let mut inputs = w.inputs(args.seed);
    let mut clock = Clock::new();
    let mut run = Run::default();
    let mut split_checked = false;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pass_no = 0u32;
    let mut calibrator = Calibrator::new();
    let mut loop_before = calibrator.measure();
    // Every variant runs at least once, even when `--seconds` has passed.
    while (pass_no as usize) < inputs.len() || start.elapsed() < budget {
        let n = inputs.len();
        let variant_no = pass_no as usize % n;
        let variant = &mut inputs[variant_no];
        let preset = variant.preset;
        // A traced run alternates traced and untraced passes, so the
        // tracing overhead is measured under the same conditions; the
        // parity flips every round so each variant is seen both ways.
        let round = pass_no as usize / n;
        let traced = args.trace && (pass_no as usize + round).is_multiple_of(2);
        let check_split = traced && !split_checked;
        clock.begin_pass(pass_no, traced);
        run.attempted += 1;
        // A panic counts as a failed pass; its message still goes to
        // stderr through the default hook.
        let outcome = catch_unwind(AssertUnwindSafe(|| w.pass(&mut clock, variant, check_split)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                Err(format!("panic: {msg}"))
            })
            .and_then(|p| if preset { w.check_cli(&p).map(|()| p) } else { Ok(p) });
        // The calibration loop runs between passes, untimed; the loops on
        // either side of a pass give its scale.
        let loop_after = calibrator.measure();
        let scale = speed::scale(loop_before, loop_after);
        loop_before = loop_after;
        clock.end_pass(outcome.is_ok(), scale);
        match outcome {
            Ok(mut p) => {
                p.rescale(scale);
                split_checked |= p.split_matches.is_some();
                run.modeled_s.insert(variant_no, p.modeled_s);
                if traced || !args.trace {
                    run.measured.push(p);
                } else {
                    run.untraced.push(p);
                }
            }
            Err(e) => {
                run.failed += 1;
                eprintln!("pass {pass_no} failed: {e}");
            }
        }
        pass_no += 1;
    }

    let metrics = if args.trace { layer_metrics(&run, &clock) } else { end_to_end(&run) };
    report(&args, &run, &clock);
    if args.trace {
        let path = trace_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, clock.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    let correct = run.failed == 0 && !run.measured.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
}

/// Values of `f` over the passes.
fn over(passes: &[PassResult], f: impl Fn(&PassResult) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// The end-to-end metrics: medians over the passes of an untraced run,
/// host timings in reference-machine seconds.
fn end_to_end(run: &Run) -> Vec<(String, f64, &'static str)> {
    let p = &run.measured;
    vec![
        ("total_s".into(), median(&over(p, |r| r.total_s)), "s"),
        ("setup_s".into(), median(&over(p, |r| r.setup_s)), "s"),
        ("run_s".into(), median(&over(p, |r| r.run_s)), "s"),
        ("modeled_s".into(), run.modeled_s(), "s"),
        ("peak_rss_mb".into(), peak_rss_mib().unwrap_or(0.0), "MiB"),
    ]
}

/// The per-layer metrics: medians over the traced passes of a traced run,
/// host timings in reference-machine seconds.
/// Layers a workload does not run (replication, the threaded executive)
/// read 0.
fn layer_metrics(run: &Run, clock: &Clock) -> Vec<(String, f64, &'static str)> {
    let p = &run.measured;
    let self_s = clock.self_times();
    let time = |span: &str| self_s.get(span).map_or(0.0, |v| median(v));
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("netlist.generate_s".into(), time("netlist.generate"), "s"),
        ("netlist.gates".into(), median(&over(p, |r| r.gates as f64)), "count"),
        ("partition.graph_s".into(), time("partition.graph"), "s"),
        ("partition.coarsen_s".into(), time("partition.coarsen"), "s"),
        ("partition.initial_s".into(), time("partition.initial"), "s"),
        ("partition.refine_s".into(), time("partition.refine"), "s"),
        ("partition.replicate_s".into(), time("partition.replicate"), "s"),
        ("partition.levels".into(), median(&over(p, |r| r.levels as f64)), "count"),
        ("partition.refine_moves".into(), median(&over(p, |r| r.refine_moves as f64)), "count"),
        ("partition.replicas".into(), median(&over(p, |r| r.replicas as f64)), "count"),
    ];
    let quality = |f: fn(&parlogsim::partition::metrics::QualityReport) -> f64| {
        median(&over(p, |r| r.quality.as_ref().map_or(0.0, f)))
    };
    m.push(("partition.edge_cut".into(), quality(|q| q.edge_cut as f64), "count"));
    m.push(("partition.connectivity_cut".into(), quality(|q| q.connectivity_cut as f64), "count"));
    m.push(("partition.imbalance".into(), quality(|q| q.imbalance), "ratio"));
    m.push(("gatesim.build_s".into(), time("gatesim.build"), "s"));
    m.push(("gatesim.lps".into(), median(&over(p, |r| r.lps as f64)), "count"));
    for exec in Exec::ALL {
        let name = exec.span();
        m.push((format!("{name}.run_s"), time(name), "s"));
        let runs: Vec<(&PassResult, &ExecRun)> =
            p.iter().filter_map(|r| Some((r, r.run(exec)?))).collect();
        let stat = |f: &dyn Fn(&PassResult, &ExecRun) -> f64| {
            median(&runs.iter().map(|(p, r)| f(p, r)).collect::<Vec<_>>())
        };
        for (i, (key, _)) in kernel_counts(&Default::default()).into_iter().enumerate() {
            let v = stat(&|_, r| kernel_counts(&r.stats)[i].1);
            m.push((format!("{name}.{key}"), v, "count"));
        }
        m.push((format!("{name}.commit_ratio"), stat(&|_, r| r.stats.efficiency()), "ratio"));
        let per_event = stat(&|p, r| r.run_s * 1e9 / p.gate_events as f64);
        m.push((format!("{name}.ns_per_gate_event"), per_event, "ns"));
    }
    // 1 when the traced phase split reproduced the partitioner, else 0.
    let split = p.iter().find_map(|r| r.split_matches).map_or(0.0, f64::from);
    m.push(("partition.split_matches".into(), split, "bool"));
    m.push(("pass.self_s".into(), time("pass"), "s"));
    m.push(("partition.multilevel.self_s".into(), time("partition.multilevel"), "s"));
    let overhead = median(&over(p, |r| r.total_s)) - median(&over(&run.untraced, |r| r.total_s));
    m.push(("trace.overhead_s".into(), overhead, "s"));
    m
}

/// The human-readable report on stderr.
fn report(args: &Args, run: &Run, clock: &Clock) {
    let w = args.workload;
    let p = &run.measured;
    eprintln!(
        "{} seed {} ({}): {} passes attempted, {} failed (failed_frac {:.4})",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    for (name, v) in [
        ("total_s", over(p, |r| r.total_s)),
        ("setup_s", over(p, |r| r.setup_s)),
        ("run_s", over(p, |r| r.run_s)),
    ] {
        eprintln!("  {name:<10} median {:.4} s, {}", median(&v), tail(&v));
    }
    eprintln!(
        "  host timings are scaled to the reference machine: median scale {:.4}, \
         raw total_s median {:.4} s",
        median(&over(p, |r| r.scale)),
        median(&over(p, |r| r.total_s / r.scale))
    );
    eprintln!("  modeled_s  {:.6} modeled s (median over input variants)", run.modeled_s());
    if !args.trace {
        return;
    }
    let self_s: BTreeMap<&str, Vec<f64>> = clock.self_times();
    eprintln!("  layer self times (median per pass, reference-machine s):");
    for (name, v) in &self_s {
        eprintln!("    {name:<28} {:.6} (n={})", median(v), v.len());
    }
    let untraced = median(&over(&run.untraced, |r| r.total_s));
    eprintln!(
        "  tracing overhead: traced total_s {:.4} - untraced total_s {untraced:.4} = {:.4} s",
        median(&over(p, |r| r.total_s)),
        median(&over(p, |r| r.total_s)) - untraced
    );
    match p.iter().find_map(|r| r.split_matches) {
        Some(true) => eprintln!("  phase split: matches MultilevelPartitioner::partition"),
        Some(false) => eprintln!(
            "  phase split: DIVERGES from MultilevelPartitioner::partition; \
             the per-phase times describe a different partition"
        ),
        None => eprintln!("  phase split: not checked (no traced pass succeeded)"),
    }
}
