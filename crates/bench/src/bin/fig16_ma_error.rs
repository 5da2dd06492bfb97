//! **Fig. 16** — CDF over traces of the per-trace RMSRE for Moving
//! Average predictors, with and without LSO.
//!
//! Paper findings: `n-MA` for n < 20 all perform similarly (only `1-MA`
//! is worse); LSO significantly reduces RMSRE and removes the
//! sensitivity to `n`.

use tputpred_bench::{fb_config, load_dataset, require_cdf, rmsre_per_trace, Args};
use tputpred_core::catalog::predictor_by_name;
use tputpred_stats::render;

/// The line-up, by predictor-catalog name.
const VARIANTS: [&str; 7] = [
    "1-MA",
    "5-MA",
    "10-MA",
    "20-MA",
    "5-MA-LSO",
    "10-MA-LSO",
    "20-MA-LSO",
];

fn main() {
    let args = Args::parse();
    let ds = load_dataset(&args);
    let cfg = fb_config(&args.preset);

    println!("# fig16: CDF over traces of per-trace RMSRE, MA predictors +/- LSO");
    for name in VARIANTS {
        let rmsres = rmsre_per_trace(&ds, || {
            predictor_by_name(name, &cfg).expect("catalog entry")
        });
        let cdf = require_cdf(name, rmsres.iter().copied());
        print!("{}", render::cdf_series(name, &cdf, 50));
        println!(
            "# {name}: n={} median={:.3} P(RMSRE<0.4)={:.3}",
            rmsres.len(),
            cdf.quantile(0.5),
            cdf.fraction_below(0.4)
        );
    }
}
