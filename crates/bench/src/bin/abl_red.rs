//! **Ablation (paper §3.4, queue discipline)** — does RED at the
//! bottleneck make throughput more predictable than droptail?
//!
//! The paper's paths were droptail (as is the testbed); RED was the
//! ns2-era alternative. RED's early random drops keep the queue short
//! and de-cluster TCP's losses, which should (a) reduce timeouts,
//! (b) tame RTT inflation, and (c) smooth the throughput series — all of
//! which bear on both FB and HB predictability. Same path, both
//! disciplines, side by side.

use tputpred_bench::Args;
use tputpred_core::hb::HoltWinters;
use tputpred_core::lso::Lso;
use tputpred_core::metrics::evaluate;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{ParetoOnOffSource, Sink, SourceConfig};
use tputpred_netsim::{RateSchedule, Route, Simulator, Time};
use tputpred_probes::BulkTransfer;
use tputpred_stats::{render, Summary};
use tputpred_tcp::TcpConfig;

fn run_discipline(red: bool, epochs: usize) -> (f64, f64, f64, f64) {
    let mut sim = Simulator::new(85);
    let mut cfg = LinkConfig::new(10e6, Time::from_millis(30), 150);
    if red {
        cfg = cfg.with_red();
    }
    let fwd = sim.add_link(cfg);
    let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(30), 1000));
    let (sink, _) = Sink::new();
    let sink_id = sim.add_endpoint(Box::new(sink));
    let (src, _) = ParetoOnOffSource::new(
        SourceConfig {
            route: Route::direct(fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: 4e6,
            schedule: RateSchedule::constant(1.0),
            stop: Time::MAX,
        },
        0.5,
        1.6,
        0.3,
    );
    let id = sim.add_endpoint(Box::new(src));
    sim.schedule_timer(id, 0, Time::ZERO);

    let mut series = Vec::new();
    let mut rtts = Summary::new();
    let mut timeouts = 0u64;
    let mut t = Time::from_secs(3);
    for _ in 0..epochs {
        let stop = t + Time::from_secs(12);
        let transfer = BulkTransfer::launch(
            &mut sim,
            TcpConfig::default(),
            Route::direct(fwd),
            Route::direct(rev),
            t,
            stop,
        );
        sim.run_until(stop + Time::from_secs(2));
        series.push(transfer.throughput().max(1e3));
        let s = transfer.stats().borrow();
        rtts.push(s.rtt.mean());
        timeouts += s.timeouts;
        t = sim.now() + Time::from_secs(2);
    }
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
    let hb_rmsre = evaluate(&mut hb, &series).rmsre().unwrap_or(f64::NAN);
    (
        mean,
        hb_rmsre,
        rtts.mean() * 1e3,
        timeouts as f64 / epochs as f64,
    )
}

fn main() {
    let _args = Args::parse();
    println!("# abl_red: droptail vs RED at a deep-buffered bottleneck (10 Mbps, 150-pkt buffer, 40% bursty load)");
    let mut table = render::Table::new([
        "aqm",
        "mean_mbps",
        "hb_rmsre_hw_lso",
        "flow_rtt_ms",
        "timeouts/epoch",
    ]);
    for (name, red) in [("droptail", false), ("red", true)] {
        let (mean, rmsre, rtt, to) = run_discipline(red, 20);
        table.row([
            name.to_string(),
            render::mbps(mean),
            render::f(rmsre),
            format!("{rtt:.0}"),
            render::f(to),
        ]);
    }
    print!("{}", table.render());
    println!("# expected shape: RED keeps the flow's RTT lower (shorter average queue) and");
    println!("# de-clusters losses; the throughput series' predictability shifts accordingly.");
}
