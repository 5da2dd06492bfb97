//! One benchmark run: set-up, the timed (or traced) repetitions, the
//! post-run checks.

use std::fs;
use std::io;
use std::path::PathBuf;

use tputpred_obs as obs;
use tputpred_testbed::Preset;

use crate::checks::Tally;
use crate::spans::{now_ns, Span, SpanId, SpanLog};
use crate::sys::peak_rss_mb;
use crate::workloads::{is_committed_quick, setup, Rep, SetupConfig, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget: repetitions continue until this much time
    /// has passed (at least one runs).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced repetitions and report
    /// per-layer metrics.
    pub trace: bool,
    /// Generation workers.
    pub workers: usize,
    /// Directory for the run's scratch shard trees; removed afterwards.
    pub work_dir: PathBuf,
    /// Directory holding the committed `results/` references.
    pub reference_dir: PathBuf,
    /// Preset override (tests); `None` uses [`Workload::preset`].
    pub preset: Option<Preset>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// The preset that ran.
    pub preset: Preset,
    /// Checks counted over set-up, repetitions and verification.
    pub tally: Tally,
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Median catalog build time, seconds.
    pub catalog_s: f64,
    /// Untraced repetitions.
    pub untraced: Vec<Rep>,
    /// Traced repetitions (trace mode only).
    pub traced: Vec<Rep>,
    /// Spans of every traced repetition.
    pub spans: Vec<Span>,
    /// Root span of each traced repetition.
    pub roots: Vec<SpanId>,
    /// Library telemetry over the traced repetitions.
    pub telemetry: Option<obs::TelemetryReport>,
    /// Peak resident memory of the run, megabytes.
    pub peak_rss_mb: f64,
}

/// Removes the scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> io::Result<RunResult> {
    let preset = opts
        .preset
        .clone()
        .unwrap_or_else(|| opts.workload.preset(opts.seed));
    let _ = fs::remove_dir_all(&opts.work_dir);
    fs::create_dir_all(&opts.work_dir)?;
    let _scratch = ScratchDir(opts.work_dir.clone());
    let cfg = SetupConfig {
        preset: preset.clone(),
        workers: opts.workers,
        work_dir: opts.work_dir.clone(),
        reference_dir: opts.reference_dir.clone(),
    };
    let mut tally = Tally::default();
    let set = setup(opts.workload, &cfg, &mut tally)?;
    let mut bench = set.bench;

    let budget_ns = (opts.seconds.max(0.0) * 1e9) as u64;
    let start = now_ns();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut roots = Vec::new();
    let mut telemetry = None;
    let off = SpanLog::new(false);
    if opts.trace {
        // Untraced and traced repetitions alternate so the overhead
        // estimate compares like with like.
        obs::reset();
        loop {
            obs::set_enabled(false);
            untraced.push(bench.rep(&off, &mut tally)?);
            let log = SpanLog::new(true);
            obs::set_enabled(true);
            let rep = bench.rep(&log, &mut tally);
            obs::set_enabled(false);
            traced.push(rep?);
            let offset = spans.len();
            roots.push(offset);
            spans.extend(log.take().into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
            if now_ns().saturating_sub(start) >= budget_ns {
                break;
            }
        }
        let report = obs::snapshot();
        if opts.workload == Workload::GenCold && is_committed_quick(&preset) {
            // The committed preset must simulate exactly the committed
            // event count in every traced repetition.
            let events = report.counter("netsim.events").unwrap_or(0);
            let want = committed_events(&opts.reference_dir.join("BENCH_gen_quick.json"));
            tally.check(want.is_some() && want == Some(events / traced.len().max(1) as u64));
        }
        telemetry = Some(report);
    } else {
        loop {
            untraced.push(bench.rep(&off, &mut tally)?);
            if now_ns().saturating_sub(start) >= budget_ns {
                break;
            }
        }
    }
    bench.verify(&mut tally)?;
    drop(bench);
    Ok(RunResult {
        preset,
        tally,
        setup_s: set.setup_s,
        catalog_s: set.catalog_s,
        untraced,
        traced,
        spans,
        roots,
        telemetry,
        peak_rss_mb: peak_rss_mb(),
    })
}

/// The `"events"` count of a committed `BENCH_gen_<preset>.json`.
pub fn committed_events(path: &std::path::Path) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let rest = &text[text.find("\"events\":")? + "\"events\":".len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
