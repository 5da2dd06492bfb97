//! # tputpred-core — TCP throughput prediction
//!
//! The paper's primary contribution, as a library: predictors for the
//! average throughput of a *large* (bulk) TCP transfer on a network path,
//! computed **before** the transfer starts.
//!
//! He, Dovrolis, Ammar, *On the predictability of large transfer TCP
//! throughput*, SIGCOMM 2005 / Computer Networks 51 (2007) 3959–3977,
//! classifies predictors into two families, both implemented here:
//!
//! * **Formula-Based (FB)** — [`fb::FbPredictor`] implements the paper's
//!   Eq. (3): plug a-priori measurements (RTT `T̂` and loss rate `p̂` from
//!   periodic probing, available bandwidth `Â` from pathload-style
//!   estimation) into a TCP steady-state model. The models themselves live
//!   in [`formulas`]: the Mathis "square-root" law (Eq. 1), the PFTK
//!   approximation (Eq. 2), the full PFTK model, and a revised PFTK variant
//!   (§4.2.9). FB needs no transfer history but, as the paper shows, can be
//!   off by an order of magnitude when the target flow saturates its path.
//!
//! * **History-Based (HB)** — [`hb`] implements time-series forecasting over
//!   previous transfer throughputs on the same path: Moving Average
//!   ([`hb::MovingAverage`]), EWMA ([`hb::Ewma`]), non-seasonal
//!   Holt-Winters ([`hb::HoltWinters`]), and an AR(p) baseline
//!   ([`hb::ArPredictor`]). The paper's key practical finding — that
//!   detecting *level shifts* (restart the predictor) and *outliers*
//!   (discard the sample) matters more than the choice of predictor — is
//!   implemented by [`lso::Lso`], a wrapper that adds those heuristics
//!   (§5.2) to any predictor.
//!
//! Every family implements the one [`predictor::Predictor`] trait —
//! gap-tolerant epoch observation in ([`predictor::EpochObservation`]),
//! typed forecast out (`Result<f64, PredictError>`) — and registers in
//! [`catalog::predictor_catalog`], the name-based registry the
//! cross-predictor league table iterates. Three combined families build
//! on the two classics:
//!
//! * [`regression`] — multivariate OLS over the formula's prediction and
//!   the previous transfer (Vazhkudai & Schopf, arXiv:cs/0304037).
//! * [`conditional`] — empirical medians binned on probe state
//!   (cf. arXiv:2111.14080).
//! * [`gated`] — an FB/HB blend gated by RTT coefficient of variation.
//! * [`resilience`] — degradation policies as predictor combinators:
//!   fallback chains, staleness guards, and a deterministic circuit
//!   breaker, for serving through correlated measurement outages
//!   (DESIGN.md §13).
//!
//! Supporting modules:
//!
//! * [`metrics`] — the paper's error metrics: relative prediction error `E`
//!   (Eq. 4), `RMSRE` (Eq. 5), segment-weighted coefficient of variation
//!   (§6.1.3), predictor evaluation over a series, and down-sampling
//!   (§6.1.6).
//! * [`hybrid`] — an FB/HB hybrid predictor (the paper's future-work §7):
//!   fall back to the formula while history is short, hand over to HB as
//!   history accumulates.
//! * [`predictor`] — the unified [`predictor::Predictor`] trait, epoch
//!   observation types, and the [`predictor::Update`] a predictor reports
//!   per observed epoch.
//! * [`catalog`] — the name-based predictor registry.
//! * [`error`] — [`error::PredictError`], the typed reason a predictor
//!   declined to forecast on a degraded epoch (missing or out-of-domain
//!   measurements, insufficient history) instead of a NaN or a panic.
//!
//! ## Units
//!
//! Throughput and bandwidth are **bits per second**, times are **seconds**,
//! and segment/window sizes are **bytes** throughout the workspace.

pub mod catalog;
pub mod conditional;
pub mod error;
pub mod fb;
pub mod formulas;
pub mod gated;
pub mod hb;
pub mod hybrid;
pub mod lso;
pub mod metrics;
pub mod predictor;
pub mod regression;
pub mod resilience;

pub use catalog::{predictor_by_name, predictor_catalog, BoxedPredictor, CatalogEntry};
pub use conditional::ConditionalPredictor;
pub use error::PredictError;
pub use fb::{FbConfig, FbPredictor, PartialEstimates, PathEstimates, SmoothedFbPredictor};
pub use gated::RttCvGated;
pub use hb::{ArPredictor, Ewma, HoltWinters, MovingAverage};
pub use hybrid::HybridPredictor;
pub use lso::{Detector, DetectorEvent, Lso, LsoConfig};
pub use metrics::{relative_error, rmsre, segmented_cov};
pub use predictor::{EpochFeatures, EpochObservation, Predictor, Update};
pub use regression::RegressionPredictor;
pub use resilience::{
    BreakerState, CircuitBreaker, Fallback, FallbackTier, LastKnownGood, Staleness,
};
