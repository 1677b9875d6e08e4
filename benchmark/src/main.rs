//! The djstar benchmark: one workload per process, one result line per run.
//!
//! ```text
//! djstar-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! djstar-benchmark --seed <n>            # every workload, measured then traced
//! djstar-benchmark --print-manifest      # the text of BENCHMARK.json
//! ```
//!
//! `--trace 0` is the measured pass (all tracing off) and prints the
//! end-to-end metrics; `--trace 1` is the traced pass and prints the
//! per-layer metrics. The last line of standard output is the result object;
//! lines before it are for people and start with `#`.

mod affinity;
mod metrics;
mod passes;
mod probes;
mod rig;
mod stats;
mod trace;

use metrics::{bound_of, Report, END_TO_END, RUN_SECONDS, SWITCH_BOUND};
use passes::{over_rounds, Ops};
use rig::{Workload, DEADLINE_NS};
use stats::{p50, p99};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: djstar-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] | --print-manifest",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Print one end-to-end row: value, unit, noise estimate, and `unresolved`
/// when the inter-round spread is wider than the metric's regression bound —
/// then a difference of that size between two commits is noise, not "no
/// change".
fn print_row(name: &str, unit: &str, value: f64, spread: f64, bound: f64, samples: usize) {
    let mark = if spread > bound { "  unresolved" } else { "" };
    println!(
        "# {name:<14} {value:>12.4} {unit:<4} spread {:>5.2} % of bound {:>4.1} %  n={samples}{mark}",
        spread * 100.0,
        bound * 100.0,
    );
}

fn warn_on_drift(drift_pct: f64) {
    if drift_pct > 10.0 {
        println!("# WARNING: host speed drifted {drift_pct:.1} % between rounds (bench.host_drift_pct > 10)");
    }
}

/// `--trace 0`: set-up, correctness, measured rounds.
fn run_measured(workload: Workload, args: &Args, report: &mut Report, ops: &mut Ops) {
    let scale = passes::scale_of(args.seconds);
    let _awake = affinity::KeepAwake::for_lanes(workload.lanes());
    let (fresh, mut rig, setups) = passes::setup(workload, args.seed, ops);
    passes::check(workload, args.seed, fresh, scale, ops);
    let m = passes::measure(workload, &mut rig, scale, ops);
    let rss = passes::peak_rss_mib();

    let cycles: usize = m.rounds.iter().map(Vec::len).sum();
    let mut row = |name: &str, unit: &str, value: f64, spread: f64, samples: usize| {
        print_row(name, unit, value, spread, bound_of(name), samples);
        report.set(name, value);
    };
    let (mid, spread) = over_rounds(&m.rounds, p50);
    row("cycle_p50_us", "us", mid, spread, cycles);
    let per_round: Vec<String> = m.rounds.iter().map(|r| format!("{:.1}", p50(r))).collect();
    println!("#   per round: {}", per_round.join(" "));
    let (tail, spread) = over_rounds(&m.rounds, p99);
    row("cycle_p99_us", "us", tail, spread, cycles);
    let setup = (stats::median(&setups), stats::quartile_spread(&setups));
    row("setup_s", "s", setup.0, setup.1, setups.len());
    row("peak_rss_mib", "MiB", rss, 0.0, 1);
    if workload.switches() {
        // For people only: the result line of this pass holds the metrics
        // every workload has. Median over rounds of the per-round median.
        let (switch, spread) = over_rounds(&m.switch_rounds, p50);
        let switches = m.switch_rounds.iter().map(Vec::len).sum();
        print_row(
            "switch_p50_us",
            "us",
            switch,
            spread,
            SWITCH_BOUND,
            switches,
        );
    }
    println!(
        "# deadline_ok {} (cycle_p99_us {tail:.1} <= {:.3}); engine.deadline_misses {} of {cycles} cycles (host pre-emptions, not gated)",
        tail * 1e3 <= DEADLINE_NS as f64,
        DEADLINE_NS as f64 / 1e3,
        m.misses,
    );
    warn_on_drift(passes::host_drift_pct(&m.burn));
}

/// `--trace 1`: correctness, traced rounds, then the probes that belong to
/// this workload; spans go to `benchmark/out/trace_<workload>.json`.
fn run_traced(workload: Workload, args: &Args, report: &mut Report, ops: &mut Ops) -> bool {
    let scale = passes::scale_of(args.seconds);
    let _awake = affinity::KeepAwake::for_lanes(workload.lanes());
    let fresh = passes::build(workload, args.seed, ops);
    passes::check(workload, args.seed, fresh, scale, ops);
    let mut rig = passes::build(workload, args.seed, ops);
    let mut log = trace::SpanLog::new(20_000);
    let traced = passes::traced(workload, &mut rig, scale, ops, &mut log, report);
    if workload.switches() {
        passes::control_plane(&rig, &traced.switches, args.seed, scale, ops, report);
    }
    probes::run(workload, rig, &traced, args.seed, scale, report);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}.json", workload.name()));
    match log.write_json(&path, workload.name()) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
    for m in metrics::per_layer() {
        if let Some(v) = report.get(&m.name) {
            println!("# {:<34} {v:>14.4} {}", m.name, m.unit);
        }
    }
    warn_on_drift(report.get("bench.host_drift_pct").unwrap_or(0.0));
    traced.sums
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    println!(
        "# workload {} seed {} seconds {} trace {} host_threads {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if !affinity::pin_driver() {
        println!("# driver not pinned (single CPU, or sched_setaffinity refused)");
    }
    let mut report = Report::default();
    let mut ops = Ops::default();
    let expected: Vec<(String, &'static str, bool)> = if args.trace {
        if !run_traced(workload, args, &mut report, &mut ops) {
            return ExitCode::FAILURE;
        }
        metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit, m.on.is_none_or(|w| w == workload)))
            .collect()
    } else {
        run_measured(workload, args, &mut report, &mut ops);
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, true))
            .collect()
    };
    println!(
        "# failed_share {} ({} of {} operations)",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    match report.result_line(&expected, ops.attempted.max(1), ops.failed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(missing) => {
            eprintln!("metrics never measured: {}", missing.join(", "));
            ExitCode::FAILURE
        }
    }
}

/// No `--workload`: every workload in its own child process (so each one's
/// peak RSS is its own), measured pass then traced pass.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-manifest"] {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
