//! **Fig. 21** — per-path close-ups: for each path, the per-trace RMSRE
//! of `1-MA`, `10-MA`, `0.8-HW` and `0.8-HW-LSO`, and the path's
//! predictability class:
//!
//! * **(a) predictable** — low RMSRE everywhere;
//! * **(b) stable errors** — larger but consistent RMSRE;
//! * **(c) unpredictable errors** — RMSRE varies a lot across traces;
//! * **(d) unpredictable** — high RMSRE.
//!
//! Paper finding: paths genuinely differ in predictability; HW-LSO is
//! almost always the best of the four.

use tputpred_bench::{fb_config, load_dataset, trace_rmsre, Args};
use tputpred_core::catalog::predictor_by_name;
use tputpred_stats::{render, Summary};

/// The line-up, by predictor-catalog name; the last one classifies.
const LINE_UP: [&str; 4] = ["1-MA", "10-MA", "0.8-HW", "0.8-HW-LSO"];

fn classify(rmsres: &[f64]) -> &'static str {
    let s = Summary::from_samples(rmsres.iter().copied());
    let mean = s.mean();
    let spread = s.max() - s.min();
    match (mean, spread) {
        (m, _) if m < 0.15 => "a_predictable",
        (m, sp) if m < 0.5 && sp < 0.3 => "b_stable_errors",
        (m, _) if m < 0.5 => "c_varying_errors",
        _ => "d_unpredictable",
    }
}

fn main() {
    let args = Args::parse();
    let ds = load_dataset(&args);

    let cfg = fb_config(&args.preset);
    let make = |name: &str| predictor_by_name(name, &cfg).expect("catalog entry");

    println!("# fig21: per-path per-trace RMSRE for four predictors, with path class");
    let mut table = render::Table::new(
        ["path", "trace"]
            .into_iter()
            .chain(LINE_UP)
            .chain(["class"]),
    );
    let mut class_counts = std::collections::BTreeMap::new();
    for p in &ds.paths {
        // Class from the headline predictor (HW-LSO) across traces.
        let hw_lso_rmsres: Vec<f64> = p
            .traces
            .iter()
            .filter_map(|t| trace_rmsre(|| make(LINE_UP[3]), &t.throughput_series()))
            .collect();
        if hw_lso_rmsres.is_empty() {
            continue;
        }
        let class = classify(&hw_lso_rmsres);
        *class_counts.entry(class).or_insert(0usize) += 1;
        for (ti, t) in p.traces.iter().enumerate() {
            let series = t.throughput_series();
            let mut row = vec![p.config.name.clone(), ti.to_string()];
            for name in LINE_UP {
                row.push(trace_rmsre(|| make(name), &series).map_or("n/a".into(), render::f));
            }
            row.push(class.to_string());
            table.row(row);
        }
    }
    print!("{}", table.render());
    for (class, count) in class_counts {
        println!("# class {class}: {count} paths");
    }
}
