//! The benchmark's own logic: the tail rule, span self time and the
//! ledger, digests and failure accounting (on the `tiny` preset).

use std::fs;
use std::path::PathBuf;

use tputpred_perfbench::checks::{compare_digests, digest_path, Tally};
use tputpred_perfbench::run::{run, Options};
use tputpred_perfbench::spans::{chrome_trace_json, ledger, self_times, Span, SpanLog};
use tputpred_perfbench::summary::{tail_percentile, Dist};
use tputpred_perfbench::workloads::{setup, SetupConfig, Workload};
use tputpred_testbed::data::shard_file_name;
use tputpred_testbed::{catalog_for, generate_path, Preset};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results")
}

fn setup_config(preset: Preset, name: &str) -> SetupConfig {
    let work_dir = scratch(name);
    fs::create_dir_all(&work_dir).expect("create scratch dir");
    SetupConfig {
        preset,
        workers: 2,
        work_dir,
        reference_dir: results_dir(),
    }
}

/// A `synth1k`-shaped walk tree small enough for a test.
fn tiny_synth() -> Preset {
    Preset {
        name: "perfbench-synth".into(),
        paths: 6,
        ..Preset::synth1k()
    }
}

#[test]
fn tail_is_the_highest_rung_with_ten_samples_beyond() {
    // n = 70: p90 leaves 7 beyond, p75 leaves 17.
    assert_eq!(tail_percentile(70), Some(75.0));
    // n = 700: p99 leaves 7 beyond, p95 leaves 35.
    assert_eq!(tail_percentile(700), Some(95.0));
    assert_eq!(tail_percentile(5000), Some(99.0));
    // n = 10 000: p99.9 leaves exactly 10 beyond.
    assert_eq!(tail_percentile(10_000), Some(99.9));
    // The median needs 20 samples to have 10 beyond it.
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(0), None);

    let values: Vec<f64> = (1..=70).rev().map(f64::from).collect();
    let d = Dist::of(&values).expect("non-empty");
    assert_eq!((d.n, d.tail_pct), (70, Some(75.0)));
    assert_eq!(d.p50, 35.5);
    assert_eq!(d.tail, 53.0, "nearest rank ceil(0.75 * 70) = 53");
    let beyond = values.iter().filter(|&&v| v > d.tail).count();
    assert!(beyond >= 10, "{beyond} samples beyond the tail");

    // Too few samples: the tail falls back to the maximum and says so.
    let d = Dist::of(&[3.0, 1.0, 2.0]).expect("non-empty");
    assert_eq!((d.tail, d.tail_pct), (3.0, None));
    assert!(d.tail_label().contains("max"));
    assert!(Dist::of(&[]).is_none());
}

fn span(name: &'static str, lane: u32, start_s: u64, end_s: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        layer: name,
        lane,
        start_ns: start_s * 1_000_000_000,
        end_ns: end_s * 1_000_000_000,
        parent,
        width: 1,
    }
}

#[test]
fn self_time_subtracts_nested_children_and_the_ledger_adds_up() {
    // root [0,100] ─┬─ a [0,40] ── b [10,30]
    //               └─ fan [50,90] (2 lanes) ─┬─ w1 [50,90] on lane 1
    //                                         └─ w2 [50,70] on lane 2 ── w2c [55,65]
    // leaving root gaps [40,50] and [90,100] unaccounted.
    let mut spans = vec![
        span("root", 0, 0, 100, None),
        span("a", 0, 0, 40, Some(0)),
        span("b", 0, 10, 30, Some(1)),
        span("fan", 0, 50, 90, Some(0)),
        span("w1", 1, 50, 90, Some(3)),
        span("w2", 2, 50, 70, Some(3)),
        span("w2c", 2, 55, 65, Some(5)),
    ];
    spans[3].width = 2;
    let selfs: Vec<u64> = self_times(&spans)
        .iter()
        .map(|ns| ns / 1_000_000_000)
        .collect();
    // The fan-out's children run on other lanes and are not
    // subtracted from it; nested same-lane children are.
    assert_eq!(selfs, vec![20, 20, 20, 40, 40, 10, 10]);

    let l = ledger(&spans, 0);
    assert_eq!(l.wall_s, 100.0);
    assert_eq!(l.unaccounted_s, 20.0);
    let share = |layer: &str| l.layers.get(layer).copied().unwrap_or(-1.0);
    assert_eq!(share("a"), 20.0);
    assert_eq!(share("b"), 20.0);
    // Two lanes over 40 s = 80 lane-seconds; 60 covered, 20 idle,
    // charged to the fan-out at half weight.
    assert_eq!(share("fan"), 10.0);
    assert_eq!(share("w1"), 20.0);
    assert_eq!(share("w2"), 5.0);
    assert_eq!(share("w2c"), 5.0);
    assert_eq!(l.accounted_s() + l.unaccounted_s, l.wall_s);
    assert_eq!(l.unaccounted_frac(), 0.2);

    let json = chrome_trace_json(&spans, &[("seed", "7".to_string())]);
    assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
    assert!(json.contains("\"seed\":\"7\""));
}

#[test]
fn a_disabled_log_records_nothing() {
    let log = SpanLog::new(false);
    let id = log.push("x", "y", None, 1, 2);
    log.close(id);
    assert!(log.take().is_empty());
}

#[test]
fn digest_sees_every_record_bit() {
    let preset = Preset::tiny();
    let catalog = catalog_for(&preset);
    let path = generate_path(&preset, &catalog[0]);
    let base = digest_path(&path);
    assert_eq!(
        base,
        digest_path(&path.clone()),
        "digest is a pure function"
    );

    let mut nudged = path.clone();
    let r = &mut nudged.traces[0].records[3];
    r.flow_rtt = f64::from_bits(r.flow_rtt.to_bits() ^ 1);
    assert_ne!(digest_path(&nudged), base, "one flipped bit changes it");

    let mut dropped = path.clone();
    dropped.traces[0].records[5].r_large = None;
    assert_ne!(digest_path(&dropped), base, "None differs from any value");

    let mut tally = Tally::default();
    compare_digests(&mut tally, &[1, 2, 3], &[1, 9]);
    assert_eq!(
        (tally.attempted, tally.failed),
        (3, 2),
        "mismatch and surplus both fail"
    );
    assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn gen_cold_on_tiny_passes_every_check() {
    let cfg = setup_config(Preset::tiny(), "gen-clean");
    let opts = Options {
        workload: Workload::GenCold,
        seed: 2004,
        seconds: 0.0,
        trace: true,
        workers: 2,
        work_dir: cfg.work_dir.clone(),
        reference_dir: results_dir(),
        preset: Some(Preset::tiny()),
    };
    let r = run(&opts).expect("tiny gen_cold runs");
    assert!(r.tally.attempted > 0);
    assert_eq!(r.tally.failed, 0, "{:?}", r.tally);
    assert_eq!((r.untraced.len(), r.traced.len()), (1, 1));
    assert_eq!(r.untraced[0].items_ns.len(), 4, "one item per trace");
    // The traced repetition's ledger accounts for its whole wall time.
    let l = ledger(&r.spans, r.roots[0]);
    assert!(l.unaccounted_frac().abs() < 0.1, "{l:?}");
    assert!(l.layers.contains_key("sim"));
    assert!(!cfg.work_dir.exists(), "scratch trees are removed");
}

#[test]
fn a_damaged_gen_cold_shard_is_one_failure() {
    let cfg = setup_config(Preset::tiny(), "gen-damaged");
    let mut tally = Tally::default();
    let mut set = setup(Workload::GenCold, &cfg, &mut tally).expect("setup");
    set.bench
        .rep(&SpanLog::new(false), &mut tally)
        .expect("timed repetition");
    assert_eq!(tally.failed, 0);
    let attempted_before = tally.attempted;

    // Truncate one shard of the tree the repetition wrote: the warm
    // re-read must regenerate it, which counts as one failure.
    let shard = cfg.work_dir.join("gen-0").join(shard_file_name(1));
    let bytes = fs::read(&shard).expect("shard exists");
    fs::write(&shard, &bytes[..bytes.len() / 2]).expect("truncate shard");
    set.bench.verify(&mut tally).expect("verify");
    assert_eq!(tally.failed, 1, "{tally:?}");
    assert!(tally.attempted > attempted_before);
    assert!((tally.failed_frac() - 1.0 / tally.attempted as f64).abs() < 1e-12);
}

#[test]
fn a_damaged_walk_shard_is_one_failure() {
    let cfg = setup_config(tiny_synth(), "walk-damaged");
    let mut tally = Tally::default();
    let mut set = setup(Workload::WalkWarm, &cfg, &mut tally).expect("setup");
    assert_eq!(tally.failed, 0, "the set-up walk finds every shard trusted");
    let rep = set
        .bench
        .rep(&SpanLog::new(false), &mut tally)
        .expect("warm walk");
    assert_eq!((rep.stats.hits, tally.failed), (6, 0));
    assert_eq!(rep.items_ns.len(), 5, "one item per shard after the first");

    fs::write(
        cfg.work_dir.join("tree").join(shard_file_name(2)),
        "{not json",
    )
    .expect("damage");
    let rep = set
        .bench
        .rep(&SpanLog::new(false), &mut tally)
        .expect("walk regenerates the damaged shard");
    assert_eq!(rep.stats.regenerated(), 1);
    assert_eq!(tally.failed, 1, "{tally:?}");
}

#[test]
fn units_and_items_each_keep_their_fastest_repetition() {
    use tputpred_perfbench::report::{end_to_end, fastest_by_position, item_dist};
    use tputpred_perfbench::run::RunResult;
    use tputpred_perfbench::workloads::Rep;

    let ms = |v: &[u64]| v.iter().map(|ms| ms * 1_000_000).collect::<Vec<u64>>();
    let rep = |units_ms: &[u64], items_ms: &[u64]| Rep {
        wall_ns: ms(units_ms).iter().sum(),
        units_ns: ms(units_ms),
        epochs: 100,
        items_ns: ms(items_ms),
        ..Rep::default()
    };
    // Unit 0 is fastest in the first repetition and unit 1 in the
    // second, so the wall estimate (30 + 40 ms) beats both repetitions
    // (110 and 90 ms). Items likewise keep their own fastest time.
    let r = RunResult {
        preset: Preset::tiny(),
        tally: Tally::default(),
        setup_s: 0.5,
        catalog_s: 0.1,
        untraced: vec![rep(&[30, 80], &[30, 10, 50]), rep(&[50, 40], &[20, 40, 60])],
        traced: Vec::new(),
        spans: Vec::new(),
        roots: Vec::new(),
        telemetry: None,
        peak_rss_mb: 12.0,
    };
    let a: &[u64] = &[3, 1, 2];
    let b: &[u64] = &[1, 5];
    assert_eq!(
        fastest_by_position([a, b].into_iter()),
        vec![1, 1],
        "shortest sets the length"
    );
    assert_eq!(fastest_by_position(std::iter::empty()), Vec::<u64>::new());
    let d = item_dist(&r).expect("items");
    assert_eq!((d.n, d.p50), (3, 20.0), "fastest per item: 20, 10, 50");
    let metrics = end_to_end(&r);
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric present")
    };
    assert!((value("wall_s") - 0.07).abs() < 1e-12);
    assert!((value("epochs_per_s") - 100.0 / 0.07).abs() < 1e-6);
    assert_eq!(value("item_p50_ms"), 20.0);
    assert_eq!(value("setup_s"), 0.5);
    assert_eq!(metrics.len(), 6);
}

#[test]
fn league_walks_every_shard_as_its_own_unit() {
    let cfg = setup_config(Preset::tiny(), "league-units");
    let paths = Preset::tiny().paths;
    let mut tally = Tally::default();
    let mut set = setup(Workload::LeagueWarm, &cfg, &mut tally).expect("setup");
    assert_eq!(tally.failed, 0, "the set-up walk finds every shard trusted");
    let rep = set
        .bench
        .rep(&SpanLog::new(false), &mut tally)
        .expect("warm league");
    assert_eq!((rep.stats.hits, tally.failed), (paths, 0));
    assert_eq!(
        rep.units_ns.len(),
        paths + 1,
        "one walk per shard, then the output stage"
    );
    assert!(rep.units_ns.iter().sum::<u64>() <= rep.wall_ns);

    // A damaged shard regenerates inside the timed section: one failure.
    let shard = cfg
        .work_dir
        .join("tree")
        .join("p1")
        .join(shard_file_name(0));
    fs::write(&shard, "{not json").expect("damage");
    let rep = set
        .bench
        .rep(&SpanLog::new(false), &mut tally)
        .expect("walk regenerates the damaged shard");
    assert_eq!(rep.stats.regenerated(), 1);
    assert_eq!(tally.failed, 1, "{tally:?}");
}
