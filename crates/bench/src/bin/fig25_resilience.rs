//! **Fig. 25 (beyond the paper)** — the resilience league table: every
//! registry predictor driven through a correlated-outage campaign,
//! scored per outage regime on availability × accuracy.
//!
//! The paper's RON campaign discarded failed epochs after the fact; a
//! serving predictor must answer *through* them. This binary turns the
//! regime process of `tputpred_testbed::faults` (DESIGN.md §13) on — a
//! per-trace Healthy ↔ Degraded ↔ Down semi-Markov chain with geometric
//! dwell times amplifying the fault rates — and evaluates the whole
//! predictor registry, including the resilience policy combinators
//! (fallback chains, staleness guards, circuit breakers), with the same
//! [`evaluate_epochs`] protocol as `fig24_league_table`.
//!
//! Per (predictor, regime) the table reports how often the predictor
//! produced a forecast at all (**availability**) and the pooled RMSRE of
//! the forecasts that could be scored — accuracy *conditioned on outage
//! state* (cf. arXiv:2111.14080), not averaged away. The regime of each
//! epoch is recomputed from the trace seed via
//! [`tputpred_testbed::draw_regimes`]; it is a prefix of the same salted
//! fault stream the generator consumed, so the labels match the dataset
//! bit for bit.
//!
//! Simulates at run time (no dataset cache: the campaign preset differs
//! from the stock ones); `--preset` selects the epoch scale. Output: a
//! fixed-width table plus policy `obs` counters on stdout (replayed
//! bit-identically across runs, which CI checks), and
//! `results/resilience_<preset>.csv` (schema
//! [`tputpred_bench::RESILIENCE_CSV_COLUMNS`], pinned by
//! `crates/bench/tests/results_schema.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tputpred_bench::{epoch_observations, fb_config, Args, RESILIENCE_CSV_COLUMNS};
use tputpred_core::catalog::predictor_catalog;
use tputpred_core::metrics::{evaluate_epochs, rmsre};
use tputpred_stats::render;
use tputpred_testbed::{
    draw_regimes, generate, trace_seed, FaultConfig, OutageRegime, Preset, RegimeConfig,
};

/// Regime columns of the table: the pooled "all" plus one per state.
const REGIME_LABELS: [&str; 4] = ["all", "healthy", "degraded", "down"];

/// Index of a regime's column (offset by one for "all").
fn regime_column(regime: OutageRegime) -> usize {
    match regime {
        OutageRegime::Healthy => 1,
        OutageRegime::Degraded => 2,
        OutageRegime::Down => 3,
    }
}

/// Per-(predictor, regime) accumulation.
#[derive(Default)]
struct Cell {
    /// Epochs of this regime the predictor was evaluated over.
    epochs: usize,
    /// Epochs it produced a forecast on.
    forecasts: usize,
    /// Relative errors of the scoreable forecasts (outliers excluded).
    errors: Vec<f64>,
}

fn main() {
    let args = Args::parse();
    // A scaled-down campaign derived from the preset's epoch shape,
    // with moderate base faults for the regime chain to amplify.
    let preset = Preset {
        name: format!("resilience-{}", args.preset.name),
        paths: args.preset.paths.min(8),
        traces_per_path: 1,
        epochs_per_trace: args.preset.epochs_per_trace.min(40),
        faults: FaultConfig::uniform(0.08),
        regimes: RegimeConfig::flaky(),
        ..args.preset.clone()
    };
    let cfg = fb_config(&preset);
    let catalog = predictor_catalog();

    // The campaign is capped at 8 paths x 1 trace, so it is generated
    // whole and uncached; only the evaluation runs under profiling.
    let ds = generate(&preset);
    let mut cells: BTreeMap<(usize, usize), Cell> = BTreeMap::new();
    let ((), report) = tputpred_obs::with_profiling(|| {
        for path in &ds.paths {
            for (t_idx, trace) in path.traces.iter().enumerate() {
                let epochs = epoch_observations(trace);
                let regimes = draw_regimes(
                    &preset.regimes,
                    trace_seed(&path.config, t_idx),
                    preset.epochs_per_trace,
                );
                for (pos, entry) in catalog.iter().enumerate() {
                    let mut predictor = (entry.make)(&cfg);
                    let result = evaluate_epochs(&mut predictor, &epochs);
                    for (k, regime) in regimes.iter().enumerate() {
                        let scoreable = result.errors.get(k).copied().flatten();
                        let answered = result.predictions.get(k).is_some_and(|p| p.is_some());
                        let outlier = result.outliers.contains(&k);
                        for col in [0, regime_column(*regime)] {
                            let cell = cells.entry((pos, col)).or_default();
                            cell.epochs += 1;
                            if answered {
                                cell.forecasts += 1;
                            }
                            if let Some(e) = scoreable {
                                if !outlier {
                                    cell.errors.push(e);
                                }
                            }
                        }
                    }
                }
            }
        }
    });

    println!(
        "# fig25: availability x RMSRE per outage regime, {} predictors x {} paths ({} preset)",
        catalog.len(),
        preset.paths,
        args.preset.name
    );
    println!("# regimes: flaky chain over uniform(0.08) base faults (DESIGN.md 13);");
    println!("# availability = epochs with a forecast / epochs; rmsre pools scoreable");
    println!("# epochs of the regime, LSO outliers excluded.");
    let mut table = render::Table::new([
        "predictor",
        "regime",
        "epochs",
        "forecasts",
        "availability",
        "scored",
        "rmsre",
    ]);
    let mut csv = String::new();
    csv.push_str(&RESILIENCE_CSV_COLUMNS.join(","));
    csv.push('\n');
    for ((pos, col), cell) in &cells {
        let name = catalog[*pos].name;
        let regime = REGIME_LABELS[*col];
        let availability = cell.forecasts as f64 / cell.epochs.max(1) as f64;
        let pooled = rmsre(&cell.errors);
        table.row([
            name.to_string(),
            regime.to_string(),
            cell.epochs.to_string(),
            cell.forecasts.to_string(),
            render::f(availability),
            cell.errors.len().to_string(),
            pooled.map_or("n/a".into(), render::f),
        ]);
        let _ = writeln!(
            csv,
            "{name},{regime},{},{},{availability},{},{}",
            cell.epochs,
            cell.forecasts,
            cell.errors.len(),
            pooled.map_or("n/a".to_string(), |r| r.to_string()),
        );
    }
    print!("{}", table.render());

    // The policy layer's own decision counters, from the same run.
    for counter in report.counters_with_prefix("core.resilience.") {
        println!("# {} = {}", counter.name, counter.count);
    }

    // Down-regime ranking: who keeps answering when the node is dark,
    // and at what accuracy.
    let mut down: Vec<(&str, f64)> = cells
        .iter()
        .filter(|((_, col), _)| *col == 3)
        .map(|((pos, _), cell)| {
            (
                catalog[*pos].name,
                cell.forecasts as f64 / cell.epochs.max(1) as f64,
            )
        })
        .collect();
    down.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let ranking: Vec<String> = down
        .iter()
        .map(|(name, avail)| format!("{name}={avail:.3}"))
        .collect();
    println!("# down-regime availability ranking: {}", ranking.join(" "));

    let out = std::path::Path::new("results").join(format!("resilience_{}.csv", args.preset.name));
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, &csv) {
        Ok(()) => eprintln!("# wrote {}", out.display()),
        Err(e) => eprintln!("# warning: could not write {}: {e}", out.display()),
    }
}
