//! The three workloads: set-up, one timed repetition, and the checks
//! that run after the timed section.
//!
//! * `gen_cold` — a `catalog_2004` catalog on the `quick` timeline,
//!   generated into an empty shard directory through
//!   `Dataset::for_each_path_sharded`: simulation, encode and write,
//!   then the walk's own load and visit of every shard.
//! * `walk_warm` — a warm `runner::for_each_path` walk over a trusted
//!   `synth_catalog` tree of the `synth1k` shape (one 6-epoch trace per
//!   path): classify and decode only.
//! * `league_warm` — the same seed's `quick` tree (the `gen_cold`
//!   catalog) walked warm one shard at a time, each shard in its own
//!   directory through its own `Dataset::for_each_path_sharded` call,
//!   with every `predictor_catalog()` entry run through
//!   `evaluate_epochs` per trace, then per-class quantiles and a
//!   `stats::render` table: the fig24 pipeline assembled from library
//!   calls.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tputpred_bench::{epoch_observations, fb_config, path_class, LEAGUE_CSV_COLUMNS};
use tputpred_core::catalog::{predictor_catalog, CatalogEntry};
use tputpred_core::fb::FbConfig;
use tputpred_core::metrics::evaluate_epochs;
use tputpred_stats::{quantile, render};
use tputpred_testbed::data::shard_file_name;
use tputpred_testbed::{
    catalog_for, for_each_path, generate_path, set_generation_workers, Dataset, PathConfig, Preset,
    ShardStats,
};

use crate::checks::{compare_digests, compare_with_reference, digest_path, epoch_csv_rows, Tally};
use crate::spans::{now_ns, SpanLog};
use crate::summary::median;
use crate::sys::io_bytes;
use crate::walk::{finish_walk, GenProbe, VisitProbe};

/// Paths in the `walk_warm` tree: `synth1k`'s per-shard shape, sized so
/// the tree builds in a few seconds of set-up.
pub const WALK_PATHS: usize = 240;

/// Catalog builds timed in set-up; the median is reported.
const SETUP_REPEATS: usize = 25;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `quick` generation into an empty shard directory.
    GenCold,
    /// Warm walk over a many-small-shards synth tree.
    WalkWarm,
    /// Warm predictor league over the `quick` tree.
    LeagueWarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::GenCold, Workload::WalkWarm, Workload::LeagueWarm];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenCold => "gen_cold",
            Workload::WalkWarm => "walk_warm",
            Workload::LeagueWarm => "league_warm",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The preset the workload runs for `seed`. Seed 2004 gives exactly
    /// the committed `quick` preset for `gen_cold` and `league_warm`.
    /// (Their path set does not depend on the seed: see
    /// [`workload_catalog`].)
    pub fn preset(self, seed: u64) -> Preset {
        match self {
            Workload::GenCold | Workload::LeagueWarm => Preset {
                seed,
                ..Preset::quick()
            },
            Workload::WalkWarm => Preset {
                name: "perfbench-synth".into(),
                paths: WALK_PATHS,
                seed,
                ..Preset::synth1k()
            },
        }
    }
}

/// Per predictor-family work counted in one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FamilyCount {
    /// Epoch observations fed to `evaluate_epochs`.
    pub updates: u64,
    /// Epochs on which the predictor produced a forecast.
    pub forecasts: u64,
}

/// One timed repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the timed section, nanoseconds.
    pub wall_ns: u64,
    /// The timed section cut into consecutive units, nanoseconds, in
    /// the same unit order in every repetition: the whole section for
    /// `gen_cold` and `walk_warm`; each shard's walk, then the output
    /// stage, for `league_warm`.
    pub units_ns: Vec<u64>,
    /// Epoch records simulated, loaded or scored.
    pub epochs: u64,
    /// Per-item times (trace or shard) in nanoseconds, in the same item
    /// order in every repetition.
    pub items_ns: Vec<u64>,
    /// Bytes read through system calls during the section.
    pub read_bytes: u64,
    /// Bytes written through system calls during the section.
    pub written_bytes: u64,
    /// Shard classification of the walk.
    pub stats: ShardStats,
    /// Predictor work by family (`league_warm`).
    pub families: BTreeMap<&'static str, FamilyCount>,
}

/// A workload after set-up.
pub trait Bench {
    /// Runs one timed repetition, recording spans into `log` and
    /// counting checks into `tally`.
    fn rep(&mut self, log: &SpanLog, tally: &mut Tally) -> io::Result<Rep>;
    /// Checks that run after the timed section.
    fn verify(&mut self, tally: &mut Tally) -> io::Result<()>;
}

/// Everything a workload needs to set up.
#[derive(Debug, Clone)]
pub struct SetupConfig {
    /// The preset ([`Workload::preset`] or a test override).
    pub preset: Preset,
    /// Generation workers.
    pub workers: usize,
    /// Scratch directory for shard trees (created by the caller).
    pub work_dir: PathBuf,
    /// Directory holding the committed `results/` references.
    pub reference_dir: PathBuf,
}

/// Set-up outcome.
pub struct Setup {
    /// The ready workload.
    pub bench: Box<dyn Bench>,
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Median catalog build time, seconds.
    pub catalog_s: f64,
}

/// The seed whose outputs `results/` pins.
const COMMITTED_SEED: u64 = 2004;

/// SplitMix64 finalizer: a bijective 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The catalog a workload receives for `preset`.
///
/// `walk_warm` draws a fresh `synth_catalog` from the seed. For
/// `gen_cold` and `league_warm` the path set (capacities, RTTs,
/// buffers, cross-traffic profiles) is always the committed
/// `catalog_2004` draw, and the seed redraws every path's traffic seed:
/// a different seed gives different packets and measurements, but the
/// same amount of simulation, so runs with different seeds measure
/// comparable work. The committed seed leaves the catalog untouched.
pub fn workload_catalog(workload: Workload, preset: &Preset) -> Vec<PathConfig> {
    if workload == Workload::WalkWarm {
        return catalog_for(preset);
    }
    let mut catalog = catalog_for(&Preset {
        seed: COMMITTED_SEED,
        ..preset.clone()
    });
    if preset.seed != COMMITTED_SEED {
        let salt = splitmix64(preset.seed);
        for path in &mut catalog {
            path.seed = splitmix64(path.seed ^ salt);
        }
    }
    catalog
}

/// Builds the workload catalog [`SETUP_REPEATS`] times; returns it with
/// the median build time in seconds.
fn timed_catalog(workload: Workload, preset: &Preset) -> (Vec<PathConfig>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut catalog = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = now_ns();
        catalog = std::hint::black_box(workload_catalog(workload, preset));
        times.push(now_ns().saturating_sub(t) as f64 / 1e9);
    }
    (catalog, median(&times).unwrap_or(0.0))
}

/// Whether `preset` is exactly the committed `quick` preset, whose
/// outputs `results/` pins.
pub fn is_committed_quick(preset: &Preset) -> bool {
    *preset == Preset::quick()
}

/// Sets up `workload`.
pub fn setup(workload: Workload, cfg: &SetupConfig, tally: &mut Tally) -> io::Result<Setup> {
    set_generation_workers(cfg.workers);
    match workload {
        Workload::GenCold => {
            // Set-up is the catalog and an empty shard directory; both
            // are cheap, so each repeats and reports its median.
            let (catalog, catalog_s) = timed_catalog(workload, &cfg.preset);
            let probe = cfg.work_dir.join("setup-probe");
            let mut dir_times = Vec::with_capacity(SETUP_REPEATS);
            for _ in 0..SETUP_REPEATS {
                let t = now_ns();
                let _ = fs::remove_dir_all(&probe);
                fs::create_dir_all(&probe)?;
                dir_times.push(now_ns().saturating_sub(t) as f64 / 1e9);
            }
            let _ = fs::remove_dir_all(&probe);
            Ok(Setup {
                bench: Box::new(GenCold {
                    preset: cfg.preset.clone(),
                    catalog,
                    workers: cfg.workers,
                    work_dir: cfg.work_dir.clone(),
                    reference: is_committed_quick(&cfg.preset)
                        .then(|| cfg.reference_dir.join("epochs_quick.csv")),
                    reps: 0,
                    last: None,
                    first_digests: None,
                }),
                setup_s: catalog_s + median(&dir_times).unwrap_or(0.0),
                catalog_s,
            })
        }
        Workload::WalkWarm => {
            let t = now_ns();
            let (catalog, catalog_s) = timed_catalog(workload, &cfg.preset);
            let dir = cfg.work_dir.join("tree");
            let digests = build_tree(&dir, &cfg.preset, &catalog)?;
            // One untimed warm walk: fills the page cache and proves
            // the tree is trusted before timing starts.
            let mut bench = WalkWarm {
                preset: cfg.preset.clone(),
                dir,
                digests,
            };
            bench.rep(&SpanLog::new(false), tally)?;
            Ok(Setup {
                bench: Box::new(bench),
                setup_s: now_ns().saturating_sub(t) as f64 / 1e9,
                catalog_s,
            })
        }
        Workload::LeagueWarm => {
            let t = now_ns();
            let (catalog, catalog_s) = timed_catalog(workload, &cfg.preset);
            let dir = cfg.work_dir.join("tree");
            build_tree(&dir, &cfg.preset, &catalog)?;
            let dirs = split_tree(&dir, catalog.len())?;
            let mut bench = LeagueWarm {
                preset: cfg.preset.clone(),
                paths: catalog,
                dir,
                dirs,
                fb: fb_config(&cfg.preset),
                catalog: predictor_catalog(),
                reference: is_committed_quick(&cfg.preset)
                    .then(|| cfg.reference_dir.join("league_quick.csv")),
                first_csv: None,
            };
            bench.rep(&SpanLog::new(false), tally)?;
            Ok(Setup {
                bench: Box::new(bench),
                setup_s: now_ns().saturating_sub(t) as f64 / 1e9,
                catalog_s,
            })
        }
    }
}

/// Generates the shard tree of (`preset`, `catalog`) cold into `dir`;
/// returns the per-path digests its visit pass read back.
fn build_tree(dir: &Path, preset: &Preset, catalog: &[PathConfig]) -> io::Result<Vec<u64>> {
    let _ = fs::remove_dir_all(dir);
    let mut digests = Vec::with_capacity(catalog.len());
    Dataset::for_each_path_sharded(
        dir,
        preset,
        catalog,
        |id| generate_path(preset, &catalog[id]),
        |_, path| {
            digests.push(digest_path(path));
            Ok(())
        },
    )?;
    Ok(digests)
}

/// Moves every shard of the tree in `dir` into a directory of its own,
/// `dir/p<id>/path-0.json`, and returns those directories in catalog
/// order. A walk over the one-path catalog `[catalog[id]]` in
/// `dir/p<id>` finds and trusts the shard: its fingerprint depends on
/// the preset and the path, not on the catalog index.
fn split_tree(dir: &Path, paths: usize) -> io::Result<Vec<PathBuf>> {
    (0..paths)
        .map(|id| {
            let own = dir.join(format!("p{id}"));
            fs::create_dir_all(&own)?;
            fs::rename(dir.join(shard_file_name(id)), own.join(shard_file_name(0)))?;
            Ok(own)
        })
        .collect()
}

/// `gen_cold` after set-up.
pub struct GenCold {
    preset: Preset,
    catalog: Vec<PathConfig>,
    workers: usize,
    work_dir: PathBuf,
    reference: Option<PathBuf>,
    reps: usize,
    /// The latest repetition's tree and the digests its walk read.
    last: Option<(PathBuf, Vec<u64>)>,
    first_digests: Option<Vec<u64>>,
}

impl Bench for GenCold {
    fn rep(&mut self, log: &SpanLog, tally: &mut Tally) -> io::Result<Rep> {
        if let Some((old, _)) = self.last.take() {
            let _ = fs::remove_dir_all(old);
        }
        let dir = self.work_dir.join(format!("gen-{}", self.reps));
        self.reps += 1;
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        let n = self.catalog.len();

        let io0 = io_bytes();
        let t0 = now_ns();
        let root = log.push("rep", "bench", None, t0, t0);
        let gen = GenProbe::new(log, root);
        let mut visits = VisitProbe::new(log, root, "bench.digest");
        let mut read_back: Vec<u64> = Vec::with_capacity(n);
        let (preset, catalog) = (&self.preset, &self.catalog);
        let stats = Dataset::for_each_path_sharded(
            &dir,
            preset,
            catalog,
            |id| gen.generate(preset, &catalog[id], id),
            |_, path| {
                visits.time_visit(|_| read_back.push(digest_path(path)));
                Ok(())
            },
        )?;
        let t_end = now_ns();
        let io1 = io_bytes();
        finish_walk(log, root, t0, t_end, Some(&gen), &visits, self.workers);
        log.close_at(root, t_end);

        // Cold means every shard was missing and regenerated; the walk's
        // read-back must equal what was simulated in memory.
        tally.check(stats.hits == 0 && stats.missing == n);
        let by_id = gen.digests();
        let simulated: Vec<u64> = (0..n)
            .map(|id| by_id.get(&id).copied().unwrap_or(0))
            .collect();
        compare_digests(tally, &read_back, &simulated);
        match &self.first_digests {
            Some(first) => compare_digests(tally, &read_back, first),
            None => self.first_digests = Some(read_back.clone()),
        }
        let items_ns = gen.trace_ns();
        self.last = Some((dir, read_back));
        Ok(Rep {
            wall_ns: t_end.saturating_sub(t0),
            units_ns: vec![t_end.saturating_sub(t0)],
            epochs: (n * self.preset.traces_per_path * self.preset.epochs_per_trace) as u64,
            items_ns,
            read_bytes: io1.0.saturating_sub(io0.0),
            written_bytes: io1.1.saturating_sub(io0.1),
            stats,
            families: BTreeMap::new(),
        })
    }

    /// Re-reads the latest tree warm: every shard must be trusted (a
    /// regeneration is a failure) and digest exactly as the timed walk
    /// read it; for the committed preset every epoch row must equal
    /// `results/epochs_quick.csv`.
    fn verify(&mut self, tally: &mut Tally) -> io::Result<()> {
        let Some((dir, want)) = &self.last else {
            tally.check(false);
            return Ok(());
        };
        let regenerated = AtomicU64::new(0);
        let mut digests = Vec::with_capacity(want.len());
        let mut rows = Vec::new();
        let (preset, catalog) = (&self.preset, &self.catalog);
        let csv = self.reference.is_some();
        let stats = Dataset::for_each_path_sharded(
            dir,
            preset,
            catalog,
            |id| {
                regenerated.fetch_add(1, Ordering::Relaxed);
                generate_path(preset, &catalog[id])
            },
            |_, path| {
                digests.push(digest_path(path));
                if csv {
                    rows.extend(epoch_csv_rows(preset, path));
                }
                Ok(())
            },
        )?;
        tally.add(stats.total() as u64, regenerated.load(Ordering::Relaxed));
        compare_digests(tally, &digests, want);
        if let Some(reference) = &self.reference {
            compare_with_reference(tally, reference, &rows);
        }
        Ok(())
    }
}

impl Drop for GenCold {
    fn drop(&mut self) {
        if let Some((dir, _)) = self.last.take() {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// `walk_warm` after set-up.
pub struct WalkWarm {
    preset: Preset,
    dir: PathBuf,
    /// Per-path digests read back when the tree was built.
    digests: Vec<u64>,
}

impl Bench for WalkWarm {
    fn rep(&mut self, log: &SpanLog, tally: &mut Tally) -> io::Result<Rep> {
        let n = self.digests.len();
        let io0 = io_bytes();
        let t0 = now_ns();
        let root = log.push("rep", "bench", None, t0, t0);
        let mut visits = VisitProbe::new(log, root, "bench.digest");
        let mut read: Vec<u64> = Vec::with_capacity(n);
        let mut epochs = 0u64;
        let stats = for_each_path(&self.dir, &self.preset, |_, path| {
            visits.time_visit(|_| {
                epochs += path
                    .traces
                    .iter()
                    .map(|t| t.records.len() as u64)
                    .sum::<u64>();
                read.push(digest_path(path));
            });
            Ok(())
        })?;
        let t_end = now_ns();
        let io1 = io_bytes();
        finish_walk(log, root, t0, t_end, None, &visits, 1);
        log.close_at(root, t_end);

        // Every shard trusted: a regeneration inside the timed section
        // is a failure, and so is any record that reads back different.
        tally.add(n as u64, stats.regenerated() as u64);
        compare_digests(tally, &read, &self.digests);
        Ok(Rep {
            wall_ns: t_end.saturating_sub(t0),
            units_ns: vec![t_end.saturating_sub(t0)],
            epochs,
            items_ns: visits.shard_ns,
            read_bytes: io1.0.saturating_sub(io0.0),
            written_bytes: io1.1.saturating_sub(io0.1),
            stats,
            families: BTreeMap::new(),
        })
    }

    fn verify(&mut self, _tally: &mut Tally) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for WalkWarm {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Predictor family of a catalog entry (catalog names are not valid
/// metric names, so each entry reports under one of five families).
pub fn family_of(name: &str) -> &'static str {
    if name == "LKG"
        || name.contains("->")
        || name.starts_with("stale")
        || name.starts_with("breaker")
    {
        "resilience"
    } else if name.ends_with("-LSO") {
        "lso"
    } else if name.starts_with("FB") {
        "fb"
    } else if matches!(
        name,
        "hybrid" | "regression" | "conditional" | "rtt-cv-gated"
    ) {
        "learned"
    } else {
        "history"
    }
}

/// The families, in report order.
pub const FAMILIES: [&str; 5] = ["fb", "history", "lso", "learned", "resilience"];

/// Span layer of a family.
pub fn family_layer(family: &str) -> &'static str {
    match family {
        "fb" => "core.fb",
        "lso" => "core.lso",
        "learned" => "core.learned",
        "resilience" => "core.resilience",
        _ => "core.history",
    }
}

/// Per-(predictor, class) accumulation, as fig24 keeps it.
#[derive(Default)]
struct Cell {
    rmsres: Vec<f64>,
    scored_epochs: usize,
}

/// `league_warm` after set-up.
pub struct LeagueWarm {
    preset: Preset,
    paths: Vec<PathConfig>,
    /// The tree, removed on drop.
    dir: PathBuf,
    /// One directory per path, each holding that path's shard.
    dirs: Vec<PathBuf>,
    fb: FbConfig,
    catalog: Vec<CatalogEntry>,
    reference: Option<PathBuf>,
    first_csv: Option<String>,
}

impl Bench for LeagueWarm {
    /// One repetition walks the tree one shard at a time, each shard
    /// through its own `Dataset::for_each_path_sharded` call. Every walk
    /// is a unit of a few tens of milliseconds, short enough that the
    /// per-unit minimum across repetitions finds the host's quiet
    /// moments; a single walk over the whole tree spends most of its
    /// time classifying, in one unit that cannot be split from outside.
    fn rep(&mut self, log: &SpanLog, tally: &mut Tally) -> io::Result<Rep> {
        let io0 = io_bytes();
        let t0 = now_ns();
        let root = log.push("rep", "bench", None, t0, t0);
        let mut cells: BTreeMap<(usize, String), Cell> = BTreeMap::new();
        let mut families: BTreeMap<&'static str, FamilyCount> = BTreeMap::new();
        let mut items_ns = Vec::new();
        let mut units_ns = Vec::with_capacity(self.paths.len() + 1);
        let mut stats = ShardStats::default();
        let mut epochs = 0u64;
        let (catalog, fb) = (&self.catalog, &self.fb);
        let entry_family: Vec<&'static str> = catalog.iter().map(|e| family_of(e.name)).collect();
        let preset = &self.preset;
        for (config, dir) in self.paths.iter().zip(&self.dirs) {
            let ws = now_ns();
            let walk = log.push("walk", "bench", Some(root), ws, ws);
            let mut visits = VisitProbe::new(log, walk, "bench.visit");
            let one = Dataset::for_each_path_sharded(
                dir,
                preset,
                std::slice::from_ref(config),
                |_| generate_path(preset, config),
                |_, path| {
                    visits.time_visit(|visit_span| {
                        let class = path_class(&path.config.name);
                        for trace in &path.traces {
                            let ts = now_ns();
                            let trace_span =
                                log.push("score_trace", "bench.visit", Some(visit_span), ts, ts);
                            let observations = epoch_observations(trace);
                            epochs += observations.len() as u64;
                            for (pos, entry) in catalog.iter().enumerate() {
                                let family = entry_family[pos];
                                let es = if log.enabled() { now_ns() } else { 0 };
                                let mut predictor = (entry.make)(fb);
                                let result = evaluate_epochs(&mut predictor, &observations);
                                if log.enabled() {
                                    log.push(
                                        "evaluate_epochs",
                                        family_layer(family),
                                        Some(trace_span),
                                        es,
                                        now_ns(),
                                    );
                                }
                                let count = families.entry(family).or_default();
                                count.updates += observations.len() as u64;
                                count.forecasts += result.predicted_count() as u64;
                                let Some(rmsre) = result.rmsre() else {
                                    continue;
                                };
                                let scored = result.errors.iter().flatten().count();
                                for key in [(pos, class.to_string()), (pos, "all".to_string())] {
                                    let cell = cells.entry(key).or_default();
                                    cell.rmsres.push(rmsre);
                                    cell.scored_epochs += scored;
                                }
                            }
                            let te = now_ns();
                            log.close_at(trace_span, te);
                            items_ns.push(te.saturating_sub(ts));
                        }
                    });
                    Ok(())
                },
            )?;
            let we = now_ns();
            finish_walk(log, walk, ws, we, None, &visits, 1);
            log.close_at(walk, we);
            units_ns.push(we.saturating_sub(ws));
            stats.hits += one.hits;
            stats.missing += one.missing;
            stats.stale += one.stale;
        }

        // Per-class quantiles, the rendered table and the CSV — fig24's
        // output stage.
        let s = now_ns();
        let rows: Vec<(String, String, usize, usize, f64, f64, f64)> = cells
            .iter()
            .map(|((pos, class), cell)| {
                (
                    catalog[*pos].name.to_string(),
                    class.clone(),
                    cell.rmsres.len(),
                    cell.scored_epochs,
                    quantile(&cell.rmsres, 0.25).unwrap_or(f64::NAN),
                    quantile(&cell.rmsres, 0.5).unwrap_or(f64::NAN),
                    quantile(&cell.rmsres, 0.75).unwrap_or(f64::NAN),
                )
            })
            .collect();
        let q_end = now_ns();
        log.push("quantiles", "stats.quantile", Some(root), s, q_end);
        let mut table = render::Table::new([
            "predictor",
            "class",
            "traces",
            "scored_epochs",
            "rmsre_p25",
            "rmsre_median",
            "rmsre_p75",
        ]);
        for (name, class, traces, scored, p25, p50, p75) in &rows {
            table.row([
                name.clone(),
                class.clone(),
                traces.to_string(),
                scored.to_string(),
                render::f(*p25),
                render::f(*p50),
                render::f(*p75),
            ]);
        }
        let rendered = std::hint::black_box(table.render());
        let r_end = now_ns();
        log.push("render", "stats.render", Some(root), q_end, r_end);
        let mut csv = LEAGUE_CSV_COLUMNS.join(",");
        csv.push('\n');
        for (name, class, traces, scored, p25, p50, p75) in &rows {
            csv.push_str(&format!(
                "{name},{class},{traces},{scored},{p25},{p50},{p75}\n"
            ));
        }
        let t_end = now_ns();
        log.push("csv", "bench.report", Some(root), r_end, t_end);
        units_ns.push(t_end.saturating_sub(s));
        log.close_at(root, t_end);
        let io1 = io_bytes();

        // Checks: no shard regenerated, the table is non-empty and
        // identical across repetitions, and for the committed preset
        // equal to results/league_quick.csv row by row.
        tally.add(stats.total() as u64, stats.regenerated() as u64);
        tally.check(!rendered.is_empty() && !rows.is_empty());
        match &self.first_csv {
            Some(first) => tally.check(*first == csv),
            None => {
                if let Some(reference) = &self.reference {
                    let produced: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
                    compare_with_reference(tally, reference, &produced);
                }
                self.first_csv = Some(csv);
            }
        }
        Ok(Rep {
            wall_ns: t_end.saturating_sub(t0),
            units_ns,
            epochs,
            items_ns,
            read_bytes: io1.0.saturating_sub(io0.0),
            written_bytes: io1.1.saturating_sub(io0.1),
            stats,
            families,
        })
    }

    fn verify(&mut self, _tally: &mut Tally) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for LeagueWarm {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}
