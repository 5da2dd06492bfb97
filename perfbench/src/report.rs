//! Metrics from a [`RunResult`]: the end-to-end set (untraced
//! repetitions) and the per-layer set (traced repetitions), the ledger
//! table, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::run::RunResult;
use crate::spans::{busy_by_layer, ledger, Ledger, Span};
use crate::summary::{median, Dist};
use crate::workloads::{family_layer, FAMILIES};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// Each position's fastest time across the repetitions `seqs`, in
/// nanoseconds. Positions line up across repetitions, since every
/// repetition does the same units in the same order; the shortest
/// sequence sets the length.
///
/// The repetitions of a run do identical, deterministic work, so the
/// program itself never makes one faster than the others. Contention
/// from other tenants of a shared host only ever adds time. It comes
/// and goes within tens of milliseconds and can slow throughput-bound
/// code (shard parsing) by half or more for most of a run. The fastest
/// time of a short unit is the estimate that contention disturbs least.
/// With one repetition it is that repetition's value.
pub fn fastest_by_position<'a>(seqs: impl Iterator<Item = &'a [u64]> + Clone) -> Vec<u64> {
    let Some(n) = seqs.clone().map(<[u64]>::len).min() else {
        return Vec::new();
    };
    (0..n)
        .map(|i| seqs.clone().map(|seq| seq[i]).min().unwrap_or(0))
        .collect()
}

/// Wall time of the run in seconds: the sum of each timed unit's
/// fastest time across the untraced repetitions
/// ([`fastest_by_position`]). For a workload timed as one unit it is
/// the fastest repetition.
pub fn wall_estimate_s(r: &RunResult) -> f64 {
    let units = fastest_by_position(r.untraced.iter().map(|rep| rep.units_ns.as_slice()));
    units.iter().sum::<u64>() as f64 / 1e9
}

/// Item distribution (milliseconds) of the run: each item's fastest
/// time across the untraced repetitions ([`fastest_by_position`]), then
/// the median and tail over items.
pub fn item_dist(r: &RunResult) -> Option<Dist> {
    let fastest: Vec<f64> =
        fastest_by_position(r.untraced.iter().map(|rep| rep.items_ns.as_slice()))
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
    Dist::of(&fastest)
}

/// The end-to-end metrics: wall time by [`wall_estimate_s`], the epoch
/// rate at that wall time, and items by [`item_dist`].
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let wall_s = wall_estimate_s(r);
    let epochs = r.untraced.first().map_or(0, |rep| rep.epochs);
    let dist = item_dist(r);
    vec![
        metric("setup_s", r.setup_s, "s"),
        metric("wall_s", wall_s, "s"),
        metric("epochs_per_s", ratio(epochs as f64, wall_s), "1/s"),
        metric("item_p50_ms", dist.map_or(0.0, |d| d.p50), "ms"),
        metric("item_tail_ms", dist.map_or(0.0, |d| d.tail), "ms"),
        metric("peak_rss_mb", r.peak_rss_mb, "MB"),
    ]
}

/// Total duration of spans named `name`, seconds.
fn span_total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// The wall-time ledger summed over every traced repetition.
pub fn merged_ledger(r: &RunResult) -> Ledger {
    let mut total = Ledger::default();
    for &root in &r.roots {
        total.merge(&ledger(&r.spans, root));
    }
    total
}

/// The per-layer metrics (trace mode), each per traced repetition.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let nt = r.traced.len().max(1) as f64;
    let t = r
        .telemetry
        .clone()
        .unwrap_or_else(tputpred_obs::TelemetryReport::empty);
    let count = |name: &str| t.counter(name).unwrap_or(0) as f64;
    let timer = |name: &str| t.timer_total_s(name);
    let traced_wall_s: f64 = r.traced.iter().map(|rep| rep.wall_ns as f64 / 1e9).sum();
    let mut out = Vec::new();

    for name in [
        "netsim.events",
        "netsim.arrival_events",
        "netsim.txdone_events",
        "netsim.timer_events",
        "netsim.overflow_migrated",
        "netsim.packets_dropped",
    ] {
        out.push(metric(name, count(name) / nt, "count"));
    }
    out.push(metric(
        "netsim.events_per_s",
        ratio(count("netsim.events"), traced_wall_s),
        "1/s",
    ));
    for name in [
        "tcp.segments_sent",
        "tcp.retransmits",
        "tcp.rto_firings",
        "probes.ping.sent",
        "probes.pathload.streams_used",
    ] {
        out.push(metric(name, count(name) / nt, "count"));
    }
    out.push(metric(
        "probes.pathload.converged_frac",
        ratio(
            count("probes.pathload.converged"),
            count("probes.pathload.runs"),
        ),
        "frac",
    ));
    for (metric_name, stage) in [
        ("testbed.phase.pathload_s", "stage.pathload_slot"),
        ("testbed.phase.ping_s", "stage.ping_window"),
        ("testbed.phase.transfer_s", "stage.transfer"),
        ("testbed.phase.small_transfer_s", "stage.small_transfer"),
    ] {
        out.push(metric(metric_name, timer(stage) / nt, "s"));
    }

    // Runner: the trace fan-out.
    let traces_ms: Vec<f64> = r
        .spans
        .iter()
        .filter(|s| s.name == "run_trace")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let trace_dist = Dist::of(&traces_ms);
    let (mut capacity_s, mut covered_s) = (0.0, 0.0);
    for (id, fan) in r
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "fanout")
    {
        capacity_s += fan.dur_ns() as f64 / 1e9 * f64::from(fan.width);
        covered_s += r
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum::<f64>();
    }
    out.push(metric(
        "testbed.runner.traces",
        traces_ms.len() as f64 / nt,
        "count",
    ));
    out.push(metric(
        "testbed.runner.busy_s",
        span_total_s(&r.spans, "run_trace") / nt,
        "s",
    ));
    out.push(metric(
        "testbed.runner.trace_p50_ms",
        trace_dist.map_or(0.0, |d| d.p50),
        "ms",
    ));
    out.push(metric(
        "testbed.runner.trace_tail_ms",
        trace_dist.map_or(0.0, |d| d.tail),
        "ms",
    ));
    out.push(metric(
        "testbed.runner.worker_utilization",
        ratio(covered_s, capacity_s),
        "frac",
    ));
    out.push(metric(
        "testbed.runner.worker_idle_s",
        (capacity_s - covered_s).max(0.0) / nt,
        "s",
    ));
    out.push(metric("testbed.catalog_s", r.catalog_s, "s"));

    // Data: classify, encode/write, read/decode.
    let read_bytes: f64 = r.traced.iter().map(|rep| rep.read_bytes as f64).sum();
    let written_bytes: f64 = r.traced.iter().map(|rep| rep.written_bytes as f64).sum();
    let classify_s = span_total_s(&r.spans, "classify");
    let decode_s = span_total_s(&r.spans, "decode");
    out.push(metric(
        "testbed.data.write_busy_s",
        span_total_s(&r.spans, "write_shard") / nt,
        "s",
    ));
    out.push(metric(
        "testbed.data.bytes_written",
        written_bytes / nt,
        "bytes",
    ));
    out.push(metric("testbed.data.classify_s", classify_s / nt, "s"));
    out.push(metric("testbed.data.decode_busy_s", decode_s / nt, "s"));
    out.push(metric(
        "testbed.data.decode_mb_per_s",
        ratio(read_bytes / 1e6, classify_s + decode_s),
        "MB/s",
    ));
    out.push(metric("testbed.data.bytes_read", read_bytes / nt, "bytes"));
    out.push(metric(
        "testbed.data.shards_hit",
        r.traced
            .iter()
            .map(|rep| rep.stats.hits as f64)
            .sum::<f64>()
            / nt,
        "count",
    ));
    out.push(metric(
        "testbed.data.shards_regenerated",
        r.traced
            .iter()
            .map(|rep| rep.stats.regenerated() as f64)
            .sum::<f64>()
            / nt,
        "count",
    ));

    // Core: predictor families.
    let busy = busy_by_layer(&r.spans);
    let mut counts: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for rep in &r.traced {
        for (family, c) in &rep.families {
            let e = counts.entry(family).or_default();
            e.0 += c.updates as f64;
            e.1 += c.forecasts as f64;
        }
    }
    for family in FAMILIES {
        let busy_s = busy.get(family_layer(family)).copied().unwrap_or(0.0);
        let (updates, forecasts) = counts.get(family).copied().unwrap_or((0.0, 0.0));
        out.push(metric(format!("core.{family}.busy_s"), busy_s / nt, "s"));
        out.push(metric(
            format!("core.{family}.updates_per_s"),
            ratio(updates, busy_s),
            "1/s",
        ));
        out.push(metric(
            format!("core.{family}.forecast_frac"),
            ratio(forecasts, updates),
            "frac",
        ));
    }
    out.push(metric(
        "stats.render_s",
        span_total_s(&r.spans, "render") / nt,
        "s",
    ));

    let traced_walls: Vec<f64> = r.traced.iter().map(|rep| rep.wall_ns as f64).collect();
    let untraced_walls: Vec<f64> = r.untraced.iter().map(|rep| rep.wall_ns as f64).collect();
    let overhead = match (median(&traced_walls), median(&untraced_walls)) {
        (Some(tr), Some(un)) if un > 0.0 => tr / un - 1.0,
        _ => 0.0,
    };
    out.push(metric("obs.overhead_frac", overhead, "frac"));
    out.push(metric(
        "ledger.unaccounted_frac",
        merged_ledger(r).unaccounted_frac(),
        "frac",
    ));
    out
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The ledger as report lines: each layer's wall-time share, and the
/// simulation share split by epoch phase from the runner's `stage.*`
/// scopes.
pub fn ledger_lines(r: &RunResult) -> Vec<String> {
    let l = merged_ledger(r);
    let nt = r.traced.len().max(1) as f64;
    let mut lines = vec![format!(
        "# ledger (per traced repetition): wall {:.6} s = layers {:.6} s + unaccounted {:.6} s ({:+.4}%)",
        l.wall_s / nt,
        l.accounted_s() / nt,
        l.unaccounted_s / nt,
        l.unaccounted_frac() * 100.0
    )];
    for (layer, s) in &l.layers {
        lines.push(format!(
            "#   {layer:<16} {:>12.6} s  {:>6.2}%",
            s / nt,
            100.0 * ratio(*s, l.wall_s)
        ));
    }
    if let Some(t) = &r.telemetry {
        let sim = l.layers.get(crate::walk::SIM_LAYER).copied().unwrap_or(0.0);
        let stages = [
            ("pathload", "stage.pathload_slot"),
            ("ping", "stage.ping_window"),
            ("transfer", "stage.transfer"),
            ("small_transfer", "stage.small_transfer"),
            ("summarize", "stage.summarize"),
        ];
        let total: f64 = stages.iter().map(|(_, s)| t.timer_total_s(s)).sum();
        if total > 0.0 {
            for (label, stage) in stages {
                let share = t.timer_total_s(stage) / total;
                lines.push(format!(
                    "#     sim.{label:<14} {:>10.6} s  ({:.1}% of sim, by stage scope)",
                    sim * share / nt,
                    share * 100.0
                ));
            }
        }
    }
    lines
}

/// The final JSON line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
