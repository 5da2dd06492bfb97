//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints the report lines, then one JSON
//! object as the last line of standard output: the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics (and a Chrome trace-event
//! file under `.perfbench/`).

use std::path::PathBuf;
use std::process::ExitCode;

use tputpred_perfbench::report::{end_to_end, item_dist, json_line, ledger_lines, per_layer};
use tputpred_perfbench::run::{run, Options};
use tputpred_perfbench::spans::chrome_trace_json;
use tputpred_perfbench::sys::nproc;
use tputpred_perfbench::workloads::Workload;
use tputpred_testbed::data::BEHAVIOR_HASH;

/// Where the benchmark keeps its scratch trees and trace files,
/// relative to the repository root it runs from.
const OUT_DIR: &str = ".perfbench";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        // One generation worker per core.
        workers: nproc(),
        work_dir: PathBuf::from(OUT_DIR).join(format!(
            "work-{}-{}",
            workload.name(),
            std::process::id()
        )),
        reference_dir: PathBuf::from("results"),
        preset: None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let stamp = [
        ("nproc", nproc().to_string()),
        ("workers", opts.workers.to_string()),
        ("seed", opts.seed.to_string()),
        ("behavior_hash", BEHAVIOR_HASH.to_string()),
        ("profile", profile.to_string()),
        ("workload", opts.workload.name().to_string()),
    ];
    let stamp_line: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# perfbench {}", stamp_line.join(" "));

    let result = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let tally = result.tally;
    println!(
        "# preset {} ({} paths x {} traces x {} epochs), {} untraced + {} traced repetition(s)",
        result.preset.name,
        result.preset.paths,
        result.preset.traces_per_path,
        result.preset.epochs_per_trace,
        result.untraced.len(),
        result.traced.len()
    );
    let e2e = end_to_end(&result);
    if let Some(d) = item_dist(&result) {
        println!(
            "# item tail = {}, over each item's fastest repetition",
            d.tail_label()
        );
    }
    let units = result
        .untraced
        .iter()
        .map(|rep| rep.units_ns.len())
        .min()
        .unwrap_or(0);
    println!("# wall_s = sum of the fastest repetition of each of {units} timed unit(s)");
    let walls: Vec<String> = result
        .untraced
        .iter()
        .map(|rep| format!("{:.4}", rep.wall_ns as f64 / 1e9))
        .collect();
    println!("# untraced repetition walls (s): {}", walls.join(" "));
    for m in &e2e {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {} frac ({} of {} operations)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    let metrics = if opts.trace {
        let layers = per_layer(&result);
        for line in ledger_lines(&result) {
            println!("{line}");
        }
        for m in &layers {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        let path = PathBuf::from(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        match std::fs::write(&path, chrome_trace_json(&result.spans, &stamp)) {
            Ok(()) => println!(
                "# chrome trace: {} ({} spans)",
                path.display(),
                result.spans.len()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        layers
    } else {
        e2e
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        json_line(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
