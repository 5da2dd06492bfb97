//! The dataset model: what one epoch measures and how datasets persist.
//!
//! The cache is **sharded per path** (DESIGN.md §9): one
//! `path-<id>.json` per catalog path under `data/<preset>/`. Each shard
//! embeds the [`BEHAVIOR_HASH`] of the simulation source trees (netsim,
//! tcp, probes, testbed) *and* a fingerprint of (preset, path config), so
//! [`Dataset::for_each_path_sharded`] reuses every shard the running
//! binary still trusts and regenerates only the stale, missing, or
//! corrupt ones. A cached dataset is a pure function of (preset, seed,
//! simulator code); the hash makes the third input explicit, and the
//! walked data is bit-identical to a from-scratch generation (pinned by
//! `crates/testbed/tests/shard_pin.rs`).

use crate::path::PathConfig;
use crate::preset::Preset;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Read};
use std::path::Path as FsPath;
use tputpred_obs as obs;

/// Digest of the simulation source trees this binary was compiled
/// from, computed by `build.rs` (see `behavior_hash`).
pub const BEHAVIOR_HASH: &str = env!("TPUTPRED_BEHAVIOR_HASH");

mod decode;

/// How much of an epoch's measurement schedule actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EpochStatus {
    /// Every scheduled measurement completed.
    #[default]
    Ok,
    /// At least one measurement failed; the surviving fields are valid.
    Degraded,
    /// The node was down: nothing was measured this epoch.
    Missing,
}

/// Which fault(s) hit an epoch — the dataset's record of what
/// `faults::FaultPlan` scheduled, so analysis can condition on failure
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EpochFaults {
    /// Whole epoch missing (node down).
    pub node_down: bool,
    /// Pathload ran but aborted without an estimate.
    pub pathload_failed: bool,
    /// The ping prober was down for part of the epoch.
    pub ping_outage: bool,
    /// A burst of probe replies was lost on the return path.
    pub reply_loss_burst: bool,
    /// The bulk transfer was cut short.
    pub transfer_truncated: bool,
    /// The bulk transfer never started.
    pub transfer_failed: bool,
}

impl EpochFaults {
    /// No fault hit this epoch.
    pub fn is_clean(&self) -> bool {
        *self == EpochFaults::default()
    }

    /// The [`EpochStatus`] these faults imply.
    pub fn status(&self) -> EpochStatus {
        if self.node_down {
            EpochStatus::Missing
        } else if self.is_clean() {
            EpochStatus::Ok
        } else {
            EpochStatus::Degraded
        }
    }
}

/// Everything one measurement epoch records (§4.1): the a-priori
/// estimates that feed FB prediction, the during-flow estimates of
/// Figs. 3–6, the actual throughput(s), and the target flow's own view
/// of the path.
///
/// Measurement fields are `Option`s: `None` means the measurement was
/// lost to a fault (see [`EpochRecord::faults`] for which one). On a
/// fault-free run — every stock preset — all fields are `Some` and
/// `status` is [`EpochStatus::Ok`]; [`EpochRecord::complete`] recovers
/// the plain-`f64` view the figure binaries consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// What ran: [`EpochStatus::Ok`], `Degraded`, or `Missing`.
    pub status: EpochStatus,
    /// Which faults hit (all-false on a clean epoch).
    pub faults: EpochFaults,
    /// Avail-bw estimate `Â` from the pathload measurement, bits/s.
    /// `None` when pathload aborted or the epoch is missing.
    pub a_hat: Option<f64>,
    /// A-priori RTT `T̂` from the pre-transfer ping window, seconds.
    /// `None` when an outage left the window with no probes.
    pub t_hat: Option<f64>,
    /// A-priori loss rate `p̂` from the pre-transfer ping window.
    pub p_hat: Option<f64>,
    /// RTT `T̃` from ping probes sent *during* the transfer, seconds.
    pub t_tilde: Option<f64>,
    /// Loss rate `p̃` from ping probes sent during the transfer.
    pub p_tilde: Option<f64>,
    /// Actual throughput `R` of the large-window (1 MB) transfer, bits/s.
    /// `None` when the transfer failed; present (over the shortened run)
    /// when it was merely truncated.
    pub r_large: Option<f64>,
    /// Actual throughput of the extra window-limited (20 KB) transfer,
    /// when the preset runs one and the epoch is not missing.
    pub r_small: Option<f64>,
    /// Throughput over the first quarter of the transfer (Fig. 11).
    /// `None` when the transfer failed or was truncated (a shortened
    /// run's prefixes are not comparable to full-length ones).
    pub r_prefix_quarter: Option<f64>,
    /// Throughput over the first half of the transfer (Fig. 11).
    pub r_prefix_half: Option<f64>,
    /// Loss events (fast retransmits + timeouts) the target flow itself
    /// saw — the model's "congestion events" (§3.3). Zero when no
    /// transfer ran.
    pub flow_loss_events: u64,
    /// The target flow's per-segment retransmission fraction.
    pub flow_retx_rate: f64,
    /// Mean RTT the target flow itself sampled, seconds.
    pub flow_rtt: f64,
    /// Ground truth: mean spare bottleneck capacity over the pre-transfer
    /// window (capacity × (1 − utilization)), bits/s. Not available to
    /// predictors; used for validation only.
    pub true_avail_bw: f64,
}

/// The plain-`f64` view of a fully-measured epoch — what every figure
/// binary consumes. Field meanings are exactly [`EpochRecord`]'s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompleteEpoch {
    /// Avail-bw estimate `Â`, bits/s.
    pub a_hat: f64,
    /// A-priori RTT `T̂`, seconds.
    pub t_hat: f64,
    /// A-priori loss rate `p̂`.
    pub p_hat: f64,
    /// During-flow RTT `T̃`, seconds.
    pub t_tilde: f64,
    /// During-flow loss rate `p̃`.
    pub p_tilde: f64,
    /// Large-window transfer throughput `R`, bits/s.
    pub r_large: f64,
    /// Window-limited transfer throughput, when the preset ran one.
    pub r_small: Option<f64>,
    /// Throughput over the first quarter of the transfer.
    pub r_prefix_quarter: f64,
    /// Throughput over the first half of the transfer.
    pub r_prefix_half: f64,
    /// The target flow's own loss events.
    pub flow_loss_events: u64,
    /// The target flow's retransmission fraction.
    pub flow_retx_rate: f64,
    /// The target flow's mean RTT, seconds.
    pub flow_rtt: f64,
    /// Ground-truth spare capacity, bits/s.
    pub true_avail_bw: f64,
}

impl EpochRecord {
    /// The plain view, if every scheduled measurement is present — the
    /// paper's own post-processing rule: epochs with failed measurements
    /// are silently discarded. A truncated transfer does not count as
    /// complete (its prefix throughputs are unmeasured).
    pub fn complete(&self) -> Option<CompleteEpoch> {
        Some(CompleteEpoch {
            a_hat: self.a_hat?,
            t_hat: self.t_hat?,
            p_hat: self.p_hat?,
            t_tilde: self.t_tilde?,
            p_tilde: self.p_tilde?,
            r_large: self.r_large?,
            r_small: self.r_small,
            r_prefix_quarter: self.r_prefix_quarter?,
            r_prefix_half: self.r_prefix_half?,
            flow_loss_events: self.flow_loss_events,
            flow_retx_rate: self.flow_retx_rate,
            flow_rtt: self.flow_rtt,
            true_avail_bw: self.true_avail_bw,
        })
    }

    /// The first float field holding a NaN or an infinity, with its
    /// value — something no shard can store (see [`save_shard`]).
    fn non_finite_field(&self) -> Option<(&'static str, f64)> {
        [
            ("a_hat", self.a_hat),
            ("t_hat", self.t_hat),
            ("p_hat", self.p_hat),
            ("t_tilde", self.t_tilde),
            ("p_tilde", self.p_tilde),
            ("r_large", self.r_large),
            ("r_small", self.r_small),
            ("r_prefix_quarter", self.r_prefix_quarter),
            ("r_prefix_half", self.r_prefix_half),
            ("flow_retx_rate", Some(self.flow_retx_rate)),
            ("flow_rtt", Some(self.flow_rtt)),
            ("true_avail_bw", Some(self.true_avail_bw)),
        ]
        .into_iter()
        .find_map(|(field, v)| v.filter(|v| !v.is_finite()).map(|v| (field, v)))
    }
}

/// One trace: a consecutive sequence of epochs on one path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceData {
    /// Epoch records in time order.
    pub records: Vec<EpochRecord>,
}

impl TraceData {
    /// The throughput time series HB predictors forecast (large-window
    /// transfers, bits/s). Epochs whose transfer failed are **skipped**,
    /// not zero-filled: this is the HB degradation rule — a predictor
    /// simply never sees the gap, so it cannot misread one as a level
    /// shift (the paper's authors likewise drop failed epochs from their
    /// RON traces). Evaluate over the trace's epoch observations instead
    /// (`tputpred_core::metrics::evaluate_epochs`) when reported
    /// positions must index the epoch timeline.
    pub fn throughput_series(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.r_large).collect()
    }

    /// The window-limited throughput series (gaps skipped), or `None`
    /// when the preset measured none at all.
    pub fn small_window_series(&self) -> Option<Vec<f64>> {
        let series: Vec<f64> = self.records.iter().filter_map(|r| r.r_small).collect();
        (!series.is_empty()).then_some(series)
    }
}

/// All traces of one path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathData {
    /// The path's configuration (capacity, RTT, cross-traffic profile).
    pub config: PathConfig,
    /// The traces, in collection order.
    pub traces: Vec<TraceData>,
}

/// A complete synthetic measurement campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// The preset that generated this dataset.
    pub preset: Preset,
    /// Per-path data, catalog order.
    pub paths: Vec<PathData>,
}

impl Dataset {
    /// Iterates over every epoch record with its `(path, trace)` indices.
    pub fn epochs(&self) -> impl Iterator<Item = (usize, usize, &EpochRecord)> + '_ {
        self.paths.iter().enumerate().flat_map(|(pi, p)| {
            p.traces
                .iter()
                .enumerate()
                .flat_map(move |(ti, t)| t.records.iter().map(move |r| (pi, ti, r)))
        })
    }

    /// Iterates over the fully-measured epochs only, as plain-`f64`
    /// [`CompleteEpoch`] views with their `(path, trace)` indices —
    /// the paper's post-processing rule (degraded epochs are discarded)
    /// packaged for the figure binaries. On fault-free datasets this is
    /// every epoch.
    pub fn complete_epochs(&self) -> impl Iterator<Item = (usize, usize, CompleteEpoch)> + '_ {
        self.epochs()
            .filter_map(|(p, t, r)| r.complete().map(|c| (p, t, c)))
    }

    /// Total epoch count.
    pub fn epoch_count(&self) -> usize {
        self.epochs().count()
    }

    /// Epochs whose status is not [`EpochStatus::Ok`].
    pub fn degraded_count(&self) -> usize {
        self.epochs()
            .filter(|(_, _, r)| r.status != EpochStatus::Ok)
            .count()
    }

    /// The shard cache's one walk: classify every shard, regenerate
    /// the untrusted ones, then hand each path's data to `visit` in
    /// catalog order. No merged `Dataset` is ever materialized — each
    /// payload is dropped before the next shard loads, so a
    /// 10 000-path preset costs O(one path) resident memory (DESIGN.md
    /// §15).
    ///
    /// A shard is trusted only when its embedded [`BEHAVIOR_HASH`]
    /// matches this binary *and* its config fingerprint matches
    /// [`shard_fingerprint`] of the current (preset, path config) — so
    /// simulation-code edits invalidate every shard (the behavior hash
    /// covers the whole source tree) while preset or catalog changes
    /// and cache damage invalidate only the affected shards.
    ///
    /// `regenerate_one` rebuilds a single untrusted path; the stale set
    /// fans out across [`rayon::current_num_threads`] workers, each
    /// worker writing its shard to disk the moment it finishes (shards
    /// are independent files, so parallel atomic writes cannot
    /// collide). Because every path is a pure function of (preset,
    /// config), the shard bytes are identical no matter how many
    /// workers ran — `shard_pin.rs` pins multi-worker against
    /// single-worker output.
    ///
    /// Each trusted shard is read and decoded once. Classification
    /// reads only a shard's envelope header — the fixed
    /// `{"behavior_hash":…,"config_fingerprint":…,"path":` prefix
    /// the shard writer emits byte for byte — and the visit pass reads
    /// the whole file, re-checks that header against the same
    /// fingerprints and decodes the payload with the typed decoder. A
    /// shard that changed in between, or whose payload fails to decode
    /// behind an intact header, is regenerated there, saved, and
    /// counted as stale — never visited unverified, never an aborted
    /// walk.
    ///
    /// Housekeeping on every walk, in one scan of `dir`: orphaned
    /// atomic-write temp files are swept and shards beyond the catalog
    /// (a shrunk preset) are removed.
    pub fn for_each_path_sharded<G, V>(
        dir: &FsPath,
        preset: &Preset,
        catalog: &[PathConfig],
        regenerate_one: G,
        mut visit: V,
    ) -> io::Result<ShardStats>
    where
        G: Fn(usize) -> PathData + Sync,
        V: FnMut(usize, &PathData) -> io::Result<()>,
    {
        fs::create_dir_all(dir)?;
        tidy_shard_dir(dir, catalog.len());

        let digest = preset_digest(preset);
        let headers: Vec<String> = catalog
            .iter()
            .map(|config| shard_header(&config_fingerprint(digest, config)))
            .collect();
        let mut stats = ShardStats::default();
        let mut stale_ids: Vec<usize> = Vec::new();
        for (id, header) in headers.iter().enumerate() {
            match read_prefix(&dir.join(shard_file_name(id)), header.len()) {
                Ok(prefix) if prefix == header.as_bytes() => stats.hits += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    stats.missing += 1;
                    stale_ids.push(id);
                }
                // Truncated, not a shard, or generated by different
                // simulation code or a different (preset, config).
                _ => {
                    stats.stale += 1;
                    stale_ids.push(id);
                }
            }
        }

        if !stale_ids.is_empty() {
            eprintln!(
                "# dataset '{}': {} shard(s) reused, regenerating {} \
                 ({} missing, {} stale) -> {}",
                preset.name,
                stats.hits,
                stale_ids.len(),
                stats.missing,
                stats.stale,
                dir.display()
            );
            // The whole parallel phase sits inside one generate-wall
            // scope with the worker count on a gauge, so a profiled run
            // can report parallel speedup (DESIGN.md §11) — telemetry
            // is observation-only, the regenerated bytes are identical
            // with it on or off.
            obs::gauge_set("testbed.workers", rayon::current_num_threads() as f64);
            obs::add(
                "testbed.traces",
                (stale_ids.len() * preset.traces_per_path) as u64,
            );
            let mut gen_scope = obs::time_scope("testbed.generate_wall");
            let outcomes: Vec<io::Result<()>> = stale_ids
                .par_iter()
                .map(|&id| save_shard(dir, id, preset, &regenerate_one(id)))
                .collect();
            gen_scope.stop();
            outcomes.into_iter().collect::<io::Result<()>>()?;
        }

        for (id, header) in headers.iter().enumerate() {
            let path = match load_shard(&dir.join(shard_file_name(id)), header) {
                Ok(shard) => shard.path,
                Err(e) => {
                    eprintln!(
                        "# dataset '{}': shard {id} {} ({e}); regenerating",
                        preset.name,
                        regeneration_reason(&e)
                    );
                    if stale_ids.binary_search(&id).is_err() {
                        stats.hits -= 1;
                        stats.stale += 1;
                    }
                    let fresh = regenerate_one(id);
                    save_shard(dir, id, preset, &fresh)?;
                    fresh
                }
            };
            visit(id, &path)?;
        }
        Ok(stats)
    }
}

// --- Sharded per-path persistence (DESIGN.md §9) ------------------------

/// File name of the shard holding catalog path `id`.
pub fn shard_file_name(id: usize) -> String {
    format!("path-{id}.json")
}

/// Per-shard outcome counts of one [`Dataset::for_each_path_sharded`]
/// walk: how much of the cache was reusable and why the rest was not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shards loaded from disk (behavior hash and fingerprint matched).
    pub hits: usize,
    /// Shards with no file on disk.
    pub missing: usize,
    /// Shards present but untrusted: an envelope header whose behavior
    /// hash or fingerprint does not match, or a truncated one, at
    /// classification; or, at visit time, a shard whose header changed
    /// since classification or whose payload fails to decode.
    pub stale: usize,
}

impl ShardStats {
    /// Shards that had to be regenerated (`missing + stale`).
    pub fn regenerated(&self) -> usize {
        self.missing + self.stale
    }

    /// Total shards considered (`hits + regenerated`).
    pub fn total(&self) -> usize {
        self.hits + self.regenerated()
    }
}

/// The on-disk envelope of one shard: one path's data plus everything
/// needed to decide whether this binary can trust it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardFile {
    /// [`BEHAVIOR_HASH`] at generation time.
    behavior_hash: String,
    /// [`shard_fingerprint`] of the (preset, path config) that
    /// generated this shard.
    config_fingerprint: String,
    /// The payload.
    path: PathData,
}

/// FNV-1a, 64-bit — same digest family as the behavior hash.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything *besides* simulation code that decides a
/// shard's contents: the full preset (epoch counts, durations, fault
/// rates, seed) and the path's own configuration. Hashed over the
/// serialized JSON of both, so any field change — however small —
/// invalidates exactly the shards it affects.
pub fn shard_fingerprint(preset: &Preset, config: &PathConfig) -> String {
    config_fingerprint(preset_digest(preset), config)
}

/// The FNV-1a state after the serialized preset, shared by every
/// fingerprint of one walk: serializing the preset costs as much as
/// the rest of a warm shard's classification, so a walk does it once.
fn preset_digest(preset: &Preset) -> u64 {
    let preset_json = serde_json::to_string(preset).unwrap_or_default();
    fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, preset_json.as_bytes()), &[0])
}

/// [`shard_fingerprint`] continued from a [`preset_digest`].
fn config_fingerprint(preset_digest: u64, config: &PathConfig) -> String {
    let config_json = serde_json::to_string(config).unwrap_or_default();
    let h = fnv1a(fnv1a(preset_digest, config_json.as_bytes()), &[0]);
    format!("{h:016x}")
}

/// The envelope header every trusted shard starts with, byte for byte:
/// the compiled-in [`BEHAVIOR_HASH`] and the expected
/// [`shard_fingerprint`] of the current (preset, path config), in the
/// order [`save_shard`] writes them. A shard can be reused by this
/// binary exactly when its file starts with this prefix (and, at visit
/// time, the rest decodes).
fn shard_header(fingerprint: &str) -> String {
    format!(
        "{{\"behavior_hash\":\"{BEHAVIOR_HASH}\",\"config_fingerprint\":\"{fingerprint}\",\"path\":"
    )
}

/// Reads at most the first `len` bytes of the file at `path`.
fn read_prefix(path: &FsPath, len: usize) -> io::Result<Vec<u8>> {
    let mut prefix = Vec::with_capacity(len);
    fs::File::open(path)?
        .take(len as u64)
        .read_to_end(&mut prefix)?;
    Ok(prefix)
}

/// Loads one shard whose envelope must start with `header`: a different
/// header is an error of kind `Other`, and a file that is not valid
/// UTF-8 or fails to decode one of kind `InvalidData`.
fn load_shard(path: &FsPath, header: &str) -> io::Result<ShardFile> {
    let json = fs::read_to_string(path)?;
    if !json.starts_with(header) {
        return Err(io::Error::other("envelope header does not match"));
    }
    decode::decode_shard(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Why the visit pass could not use a shard [`load_shard`] refused.
fn regeneration_reason(err: &io::Error) -> &'static str {
    if err.kind() == io::ErrorKind::InvalidData {
        "failed to decode"
    } else {
        "changed after classification"
    }
}

/// Saves one shard atomically: the [`shard_header`] of the current
/// behavior hash and (preset, config) fingerprint, the payload, and the
/// envelope's closing brace — the same bytes as serializing the whole
/// [`ShardFile`], without copying the payload into one.
///
/// A record holding a NaN or an infinity is refused with an
/// `InvalidData` error: JSON writes a non-finite float as `null`, which
/// either never decodes (a plain `f64` field, so the shard would be
/// regenerated on every walk) or reads back as `None` (an `Option`
/// field, so warm data would differ from cold).
fn save_shard(dir: &FsPath, id: usize, preset: &Preset, data: &PathData) -> io::Result<()> {
    for (t, trace) in data.traces.iter().enumerate() {
        for (e, record) in trace.records.iter().enumerate() {
            if let Some((field, value)) = record.non_finite_field() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "path {id} ({}): trace {t} epoch {e} field `{field}` is {value}, \
                         which a shard cannot store",
                        data.config.name
                    ),
                ));
            }
        }
    }
    let mut json = shard_header(&shard_fingerprint(preset, &data.config));
    json.push_str(&serde_json::to_string(data).map_err(io::Error::other)?);
    json.push('}');
    write_atomic(&dir.join(shard_file_name(id)), &json)
}

/// Writes `json` to `path` atomically: a temp file in the destination
/// directory, then rename, so an interrupted save can never leave a
/// truncated cache behind. The temp name embeds the process id so
/// concurrent generators each write their own temp file; last rename
/// wins, and both outcomes are complete files with identical content
/// (generation is deterministic).
fn write_atomic(path: &FsPath, json: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or(FsPath::new("."));
    fs::create_dir_all(dir)?;
    let file_name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!(".{}.tmp.{}", file_name, std::process::id()));
    fs::write(&tmp, json)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Housekeeping for a shard directory holding a `path_count`-path
/// catalog, in one best-effort scan (IO errors leave an entry for the
/// next walk):
///
/// * a **live shard** — the canonical [`shard_file_name`] of an id below
///   `path_count` — is kept;
/// * any other `path-*.json` is removed: a shard beyond the catalog (a
///   shrunk preset), or a spelling no load will ever consult.
///   `usize::from_str` alone also accepts zero-padded (`path-007.json`)
///   and signed (`path-+5.json`) names; under a lenient parse those
///   mis-classify as live ids and survive every sweep (or, worse, a
///   padded spelling of an id beyond the catalog survives a shrink
///   across a digit boundary, e.g. 10000 → 9999);
/// * an atomic-write temp `.{target}.tmp.{pid}` ([`write_atomic`]) is
///   kept only while `target` is a live shard name and the temp is
///   strictly newer than `target`, or `target` is absent. A concurrent
///   writer's in-flight temp is newer than the shard it is about to
///   replace; a crash leftover is no newer than the shard some later
///   save renamed into place. With no shard yet the temp stays until
///   that shard regenerates, after which the next walk sweeps it. A
///   temp whose target is not a live shard can never be renamed into
///   use by this catalog and is removed at once;
/// * every other file is left untouched.
fn tidy_shard_dir(dir: &FsPath, path_count: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let live = |name: &str| {
        name.strip_prefix("path-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<usize>().ok())
            .is_some_and(|id| id < path_count && shard_file_name(id) == name)
    };
    let mtime = |p: &FsPath| fs::metadata(p).and_then(|m| m.modified());
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let remove = match temp_target_name(&name) {
            Some(target) if live(target) => {
                match (mtime(&entry.path()), mtime(&dir.join(target))) {
                    (Ok(temp), Ok(shard)) => temp <= shard,
                    _ => false,
                }
            }
            Some(_) => true,
            None => name.starts_with("path-") && name.ends_with(".json") && !live(&name),
        };
        if remove {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Parses an atomic-write temp file name: `.{name}.tmp.{pid}` yields
/// `Some(name)`, anything else `None`.
fn temp_target_name(file_name: &str) -> Option<&str> {
    let rest = file_name.strip_prefix('.')?;
    let (target, pid) = rest.rsplit_once(".tmp.")?;
    (!target.is_empty() && !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit()))
        .then_some(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::catalog_2004;

    fn record(r: f64) -> EpochRecord {
        EpochRecord {
            status: EpochStatus::Ok,
            faults: EpochFaults::default(),
            a_hat: Some(5e6),
            t_hat: Some(0.05),
            p_hat: Some(0.0),
            t_tilde: Some(0.06),
            p_tilde: Some(0.01),
            r_large: Some(r),
            r_small: Some(r / 4.0),
            r_prefix_quarter: Some(r * 0.8),
            r_prefix_half: Some(r * 0.9),
            flow_loss_events: 2,
            flow_retx_rate: 0.01,
            flow_rtt: 0.055,
            true_avail_bw: 5.5e6,
        }
    }

    fn missing_record() -> EpochRecord {
        EpochRecord {
            status: EpochStatus::Missing,
            faults: EpochFaults {
                node_down: true,
                ..EpochFaults::default()
            },
            a_hat: None,
            t_hat: None,
            p_hat: None,
            t_tilde: None,
            p_tilde: None,
            r_large: None,
            r_small: None,
            r_prefix_quarter: None,
            r_prefix_half: None,
            flow_loss_events: 0,
            flow_retx_rate: 0.0,
            flow_rtt: 0.0,
            true_avail_bw: 5.5e6,
        }
    }

    fn dataset() -> Dataset {
        let config = catalog_2004(3, 1).remove(0);
        Dataset {
            preset: Preset::tiny(),
            paths: vec![PathData {
                config,
                traces: vec![
                    TraceData {
                        records: vec![record(1e6), record(2e6)],
                    },
                    TraceData {
                        records: vec![record(3e6)],
                    },
                ],
            }],
        }
    }

    #[test]
    fn epochs_iterates_in_order_with_indices() {
        let ds = dataset();
        let idx: Vec<(usize, usize, Option<f64>)> =
            ds.epochs().map(|(p, t, r)| (p, t, r.r_large)).collect();
        assert_eq!(
            idx,
            vec![(0, 0, Some(1e6)), (0, 0, Some(2e6)), (0, 1, Some(3e6))]
        );
        assert_eq!(ds.epoch_count(), 3);
        assert_eq!(ds.degraded_count(), 0);
    }

    #[test]
    fn throughput_series_extracts_large_window_runs() {
        let ds = dataset();
        assert_eq!(ds.paths[0].traces[0].throughput_series(), vec![1e6, 2e6]);
        assert_eq!(
            ds.paths[0].traces[0].small_window_series(),
            Some(vec![0.25e6, 0.5e6])
        );
    }

    #[test]
    fn throughput_series_skips_gaps() {
        let trace = TraceData {
            records: vec![record(1e6), missing_record(), record(3e6)],
        };
        assert_eq!(trace.throughput_series(), vec![1e6, 3e6]);
        assert_eq!(trace.small_window_series(), Some(vec![0.25e6, 0.75e6]));
    }

    #[test]
    fn complete_epochs_discards_degraded_records() {
        let mut ds = dataset();
        ds.paths[0].traces[0].records.push(missing_record());
        let mut degraded = record(4e6);
        degraded.status = EpochStatus::Degraded;
        degraded.faults.pathload_failed = true;
        degraded.a_hat = None;
        ds.paths[0].traces[1].records.push(degraded);
        assert_eq!(ds.epoch_count(), 5);
        assert_eq!(ds.degraded_count(), 2);
        let complete: Vec<f64> = ds.complete_epochs().map(|(_, _, c)| c.r_large).collect();
        assert_eq!(complete, vec![1e6, 2e6, 3e6]);
    }

    #[test]
    fn complete_view_mirrors_the_record_fields() {
        let r = record(2e6);
        let c = r.complete().unwrap();
        assert_eq!(Some(c.a_hat), r.a_hat);
        assert_eq!(Some(c.t_hat), r.t_hat);
        assert_eq!(Some(c.r_large), r.r_large);
        assert_eq!(c.r_small, r.r_small);
        assert_eq!(c.flow_loss_events, r.flow_loss_events);
        assert_eq!(missing_record().complete(), None);
    }

    #[test]
    fn fault_flags_imply_status() {
        assert_eq!(EpochFaults::default().status(), EpochStatus::Ok);
        let outage = EpochFaults {
            ping_outage: true,
            ..EpochFaults::default()
        };
        assert_eq!(outage.status(), EpochStatus::Degraded);
        let down = EpochFaults {
            node_down: true,
            transfer_failed: true,
            ..EpochFaults::default()
        };
        assert_eq!(down.status(), EpochStatus::Missing);
    }

    #[test]
    fn behavior_hash_is_a_hex_digest() {
        assert_eq!(BEHAVIOR_HASH.len(), 16);
        assert!(BEHAVIOR_HASH.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    /// A fresh scratch directory per test (tests share one process, so
    /// the pid alone does not discriminate).
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tputpred-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn temp_target_name_parses_only_atomic_temp_names() {
        assert_eq!(temp_target_name(".ds.json.tmp.1234"), Some("ds.json"));
        assert_eq!(temp_target_name(".path-3.json.tmp.9"), Some("path-3.json"));
        // Name with an interior `.tmp.`: the *last* one is the marker.
        assert_eq!(temp_target_name(".a.tmp.b.tmp.77"), Some("a.tmp.b"));
        assert_eq!(temp_target_name("ds.json"), None, "no leading dot");
        assert_eq!(
            temp_target_name(".ds.json.tmp.12x"),
            None,
            "pid not numeric"
        );
        assert_eq!(temp_target_name(".ds.json.tmp."), None, "empty pid");
        assert_eq!(temp_target_name(".tmp.123"), None, "empty target");
        assert_eq!(temp_target_name(".hidden-file"), None);
    }

    fn shard_catalog() -> Vec<PathConfig> {
        catalog_2004(3, 1)
    }

    fn path_data(config: &PathConfig, r: f64) -> PathData {
        PathData {
            config: config.clone(),
            traces: vec![TraceData {
                records: vec![record(r)],
            }],
        }
    }

    /// The canonical fake regeneration: path `id` gets throughput
    /// `(id+1) MHz` so shards are distinguishable.
    fn fake_path(catalog: &[PathConfig], id: usize) -> PathData {
        path_data(&catalog[id], (id as f64 + 1.0) * 1e6)
    }

    /// One walk over the shard cache at `dir` with [`fake_path`] as the
    /// regeneration: the visited payloads (asserted to arrive in
    /// catalog order), the ids `regenerate_one` was asked for
    /// (ascending), and the stats.
    fn walk(
        dir: &FsPath,
        preset: &Preset,
        catalog: &[PathConfig],
    ) -> (Vec<PathData>, Vec<usize>, ShardStats) {
        let asked = std::sync::Mutex::new(Vec::new());
        let mut visited = Vec::new();
        let stats = Dataset::for_each_path_sharded(
            dir,
            preset,
            catalog,
            |id| {
                asked.lock().unwrap().push(id);
                fake_path(catalog, id)
            },
            |id, p| {
                assert_eq!(id, visited.len(), "visits arrive in catalog order");
                visited.push(p.clone());
                Ok(())
            },
        )
        .unwrap();
        let mut asked = asked.into_inner().unwrap();
        asked.sort_unstable();
        let total = stats.hits + stats.missing + stats.stale;
        assert_eq!(total, catalog.len(), "every shard counted once");
        (visited, asked, stats)
    }

    /// Writes shard `id` the way [`save_shard`] does, but under a
    /// foreign behavior hash: a shard left by other simulation code.
    fn write_foreign_shard(dir: &FsPath, id: usize, preset: &Preset, data: &PathData) {
        let shard = ShardFile {
            behavior_hash: "0123456789abcdef".to_string(),
            config_fingerprint: shard_fingerprint(preset, &data.config),
            path: data.clone(),
        };
        let json = serde_json::to_string(&shard).unwrap();
        std::fs::write(dir.join(shard_file_name(id)), json).unwrap();
    }

    #[test]
    fn sharded_cold_load_generates_then_warm_load_hits() {
        let dir = scratch("shard-cold");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        let (cold, asked, stats) = walk(&dir, &preset, &catalog);
        assert_eq!(
            stats,
            ShardStats {
                hits: 0,
                missing: 3,
                stale: 0
            }
        );
        assert_eq!(stats.regenerated(), 3);
        assert_eq!(asked, vec![0, 1, 2]);
        let expected: Vec<PathData> = (0..3).map(|id| fake_path(&catalog, id)).collect();
        assert_eq!(cold, expected, "cold visits see the regenerated payloads");
        for id in 0..3 {
            assert!(dir.join(shard_file_name(id)).is_file());
        }

        let (warm, asked, warm_stats) = walk(&dir, &preset, &catalog);
        assert!(asked.is_empty(), "warm walk must not regenerate");
        assert_eq!(
            warm_stats,
            ShardStats {
                hits: 3,
                missing: 0,
                stale: 0
            }
        );
        assert_eq!(warm, cold, "shards round-trip the payload exactly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_behavior_hash_triggers_regeneration() {
        let dir = scratch("shard-hash");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        // A shard written by "different simulation code": different
        // hash, and a payload that must never be visited.
        let foreign = path_data(&catalog[0], 99e6);
        write_foreign_shard(&dir, 0, &preset, &foreign);
        let (visited, asked, stats) = walk(&dir, &preset, &catalog);
        assert_eq!(asked, vec![0], "stale shard must regenerate");
        assert_eq!(
            stats,
            ShardStats {
                hits: 2,
                missing: 0,
                stale: 1
            }
        );
        assert_eq!(visited[0], fake_path(&catalog, 0));
        // The rewritten shard carries the current hash: hit next time.
        let (_, asked, _) = walk(&dir, &preset, &catalog);
        assert!(asked.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_regenerates_only_itself() {
        let dir = scratch("shard-corrupt");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        let shard = dir.join(shard_file_name(1));
        let valid = std::fs::read_to_string(&shard).unwrap();
        let bare_payload = serde_json::to_string(&fake_path(&catalog, 1)).unwrap();
        // Garbage, a shard cut off mid-write, and a payload with no
        // envelope (no hash to trust): all stale, never an error.
        for damaged in ["{\"trunc", &valid[..valid.len() / 2], &bare_payload] {
            std::fs::write(&shard, damaged).unwrap();
            let (visited, asked, stats) = walk(&dir, &preset, &catalog);
            assert_eq!(asked, vec![1], "only the damaged shard regenerates");
            assert_eq!(
                stats,
                ShardStats {
                    hits: 2,
                    missing: 0,
                    stale: 1
                }
            );
            assert_eq!(visited[1], fake_path(&catalog, 1));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleted_shard_counts_missing_and_regenerates() {
        let dir = scratch("shard-missing");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        std::fs::remove_file(dir.join(shard_file_name(2))).unwrap();
        let (_, asked, stats) = walk(&dir, &preset, &catalog);
        assert_eq!(asked, vec![2]);
        assert_eq!(
            stats,
            ShardStats {
                hits: 2,
                missing: 1,
                stale: 0
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_change_invalidates_only_that_shard() {
        let dir = scratch("shard-config");
        let preset = Preset::tiny();
        let mut catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        catalog[2].capacity_bps *= 2.0;
        let (_, asked, stats) = walk(&dir, &preset, &catalog);
        assert_eq!(asked, vec![2]);
        assert_eq!(
            stats,
            ShardStats {
                hits: 2,
                missing: 0,
                stale: 1
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preset_change_invalidates_every_shard() {
        let dir = scratch("shard-preset");
        let catalog = shard_catalog();
        walk(&dir, &Preset::tiny(), &catalog);
        let changed = Preset {
            seed: Preset::tiny().seed + 1,
            ..Preset::tiny()
        };
        let (_, _, stats) = walk(&dir, &changed, &catalog);
        assert_eq!(
            stats,
            ShardStats {
                hits: 0,
                missing: 0,
                stale: 3
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_shards_beyond_the_catalog_are_removed() {
        let dir = scratch("shard-orphan");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        let orphan = dir.join(shard_file_name(7));
        std::fs::write(&orphan, "{}").unwrap();
        let (_, asked, _) = walk(&dir, &preset, &catalog);
        assert!(asked.is_empty());
        assert!(!orphan.exists(), "shards past the catalog must be removed");
        assert!(dir.join(shard_file_name(2)).is_file(), "live shards stay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let dir = scratch("shard-temps");
        walk(&dir, &Preset::tiny(), &shard_catalog());
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(
            entries,
            vec!["path-0.json", "path-1.json", "path-2.json"],
            "only the renamed shards remain"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_file_is_swept_on_load() {
        let dir = scratch("temp-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        // Plant the crash leftover *before* the shard exists, then walk
        // cold: the temp's mtime is <= the shard's, exactly the state a
        // crash between write and rename leaves after a later save.
        let temp = dir.join(format!(".path-0.json.tmp.{}", std::process::id() + 1));
        std::fs::write(&temp, "{\"partial\":").unwrap();
        walk(&dir, &preset, &catalog);
        assert!(temp.is_file(), "precondition: no shard to compare yet");
        let (_, asked, _) = walk(&dir, &preset, &catalog);
        assert!(asked.is_empty());
        assert!(!temp.exists(), "stale temp must be swept on load");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_for_a_shard_beyond_the_catalog_is_swept() {
        // A crash leftover whose target is no live shard — here shard 7
        // of a 3-path catalog — can never be renamed into use, so it is
        // removed even though its target file is absent.
        let dir = scratch("temp-orphan");
        std::fs::create_dir_all(&dir).unwrap();
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        let temp = dir.join(format!(".path-7.json.tmp.{}", std::process::id() + 1));
        std::fs::write(&temp, "{\"partial\":").unwrap();
        walk(&dir, &preset, &catalog);
        walk(&dir, &preset, &catalog);
        assert!(!temp.exists(), "a temp for a non-live shard must be swept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_newer_than_cache_survives_the_sweep() {
        let dir = scratch("temp-keep");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        // Rewind the shard's mtime so the temp planted next is strictly
        // newer — the signature of a concurrent writer's in-flight file.
        let old = std::fs::FileTimes::new()
            .set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(1));
        std::fs::File::options()
            .append(true)
            .open(dir.join(shard_file_name(0)))
            .unwrap()
            .set_times(old)
            .unwrap();
        let temp = dir.join(format!(".path-0.json.tmp.{}", std::process::id() + 1));
        std::fs::write(&temp, "{\"in-flight\":").unwrap();
        walk(&dir, &preset, &catalog);
        assert!(temp.is_file(), "an in-flight temp must not be swept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_replaced_between_classify_and_visit_is_regenerated() {
        // A warm walk trusts shard 1 at classification; then, while
        // path 0 is being visited, shard 1 is swapped on disk (another
        // process, a dying disk). The visit pass must re-verify it:
        // regenerate, save, visit the fresh data, and count it stale.
        let dir = scratch("shard-swap");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        let shard = dir.join(shard_file_name(1));
        let valid = std::fs::read_to_string(&shard).unwrap();
        let forged = || {
            let foreign = path_data(&catalog[1], 99e6);
            write_foreign_shard(&dir, 1, &preset, &foreign);
        };
        let truncated = || std::fs::write(&shard, &valid[..valid.len() / 2]).unwrap();
        let tampers: [&dyn Fn(); 2] = [&forged, &truncated];
        for tamper in tampers {
            let regenerated = std::sync::atomic::AtomicUsize::new(0);
            let mut visited = Vec::new();
            let stats = Dataset::for_each_path_sharded(
                &dir,
                &preset,
                &catalog,
                |id| {
                    assert_eq!(id, 1, "only the swapped shard regenerates");
                    regenerated.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    fake_path(&catalog, id)
                },
                |id, p| {
                    if id == 0 {
                        tamper();
                    }
                    visited.push(p.clone());
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(regenerated.into_inner(), 1, "regenerated exactly once");
            assert_eq!(visited.len(), 3);
            assert_eq!(
                visited[1],
                fake_path(&catalog, 1),
                "visit 1 sees fresh data"
            );
            assert_eq!(
                stats,
                ShardStats {
                    hits: 2,
                    missing: 0,
                    stale: 1
                }
            );
            let (_, asked, warm) = walk(&dir, &preset, &catalog);
            assert!(asked.is_empty(), "the re-saved shard is trusted next walk");
            assert_eq!(warm.hits, 3);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saved_shards_start_with_the_envelope_header() {
        // Classification reads only this prefix, so the writer must
        // emit it byte for byte — and the file must be exactly the
        // serialized envelope (the shard format is unchanged).
        let dir = scratch("shard-header");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        for (id, config) in catalog.iter().enumerate() {
            let json = std::fs::read_to_string(dir.join(shard_file_name(id))).unwrap();
            let fingerprint = shard_fingerprint(&preset, config);
            assert!(json.starts_with(&shard_header(&fingerprint)));
            let envelope = ShardFile {
                behavior_hash: BEHAVIOR_HASH.to_string(),
                config_fingerprint: fingerprint,
                path: fake_path(&catalog, id),
            };
            assert_eq!(json, serde_json::to_string(&envelope).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn body_corrupt_shard_behind_an_intact_header_is_regenerated_once() {
        // The header passes classification, so the damage surfaces only
        // when the visit pass decodes: garbage appended, the body cut
        // off after the header, a run of `[` (which would overflow the
        // stack of a parser without a recursion limit), and a deeply
        // nested value where the path config belongs.
        let dir = scratch("shard-body");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        walk(&dir, &preset, &catalog);
        let shard = dir.join(shard_file_name(1));
        let valid = std::fs::read_to_string(&shard).unwrap();
        let header = shard_header(&shard_fingerprint(&preset, &catalog[1]));
        let deep = "[".repeat(1_000_000);
        let damaged = [
            format!("{valid}garbage"),
            header.clone(),
            format!("{header}{deep}"),
            format!("{header}{{\"config\":{deep}"),
        ];
        for body in damaged {
            std::fs::write(&shard, &body).unwrap();
            let err = load_shard(&shard, &header).unwrap_err();
            assert_eq!(
                regeneration_reason(&err),
                "failed to decode",
                "the log names the cause"
            );
            let (visited, asked, stats) = walk(&dir, &preset, &catalog);
            assert_eq!(asked, vec![1], "regenerated exactly once");
            assert_eq!(
                stats,
                ShardStats {
                    hits: 2,
                    missing: 0,
                    stale: 1
                }
            );
            assert_eq!(visited[1], fake_path(&catalog, 1), "visit sees fresh data");
            let (_, asked, warm) = walk(&dir, &preset, &catalog);
            assert!(asked.is_empty(), "the re-saved shard is trusted next walk");
            assert_eq!(warm.hits, 3);
        }
        // A foreign header that arrives after classification is a change,
        // not a decode failure.
        write_foreign_shard(&dir, 1, &preset, &fake_path(&catalog, 1));
        let err = load_shard(&shard, &header).unwrap_err();
        assert_eq!(regeneration_reason(&err), "changed after classification");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_records_are_refused_not_saved() {
        // JSON has no NaN or infinity: such a record would be written as
        // `null` and either never load again (regenerated on every walk)
        // or read back as `None` (warm data differing from cold).
        let catalog = shard_catalog();
        type Poison = fn(&mut EpochRecord);
        let poisons: [(&str, Poison); 3] = [
            ("flow_rtt", |r| r.flow_rtt = f64::NAN),
            ("r_small", |r| r.r_small = Some(f64::INFINITY)),
            ("true_avail_bw", |r| r.true_avail_bw = f64::NEG_INFINITY),
        ];
        for (field, poison) in poisons {
            let dir = scratch("shard-nonfinite");
            let err = Dataset::for_each_path_sharded(
                &dir,
                &Preset::tiny(),
                &catalog,
                |id| {
                    let mut data = fake_path(&catalog, id);
                    if id == 1 {
                        let mut bad = record(5e6);
                        poison(&mut bad);
                        data.traces.push(TraceData {
                            records: vec![record(4e6), bad],
                        });
                    }
                    data
                },
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            for part in ["path 1", "trace 1", "epoch 1", field] {
                assert!(msg.contains(part), "{msg} names {part}");
            }
            assert!(!dir.join(shard_file_name(1)).exists(), "nothing saved");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn shard_fingerprint_separates_presets_and_configs() {
        let catalog = shard_catalog();
        let tiny = Preset::tiny();
        let quick = Preset::quick();
        let fp = shard_fingerprint(&tiny, &catalog[0]);
        assert_eq!(fp.len(), 16);
        assert!(fp.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(fp, shard_fingerprint(&tiny, &catalog[0]), "deterministic");
        assert_ne!(fp, shard_fingerprint(&tiny, &catalog[1]));
        assert_ne!(fp, shard_fingerprint(&quick, &catalog[0]));
        // Pinned values: a changed digest would silently invalidate
        // every shard on disk.
        assert_eq!(fp, "dcb651f9a7f31e59");
        assert_eq!(shard_fingerprint(&quick, &catalog[2]), "acde8c3ff0b768d8");
    }

    #[test]
    fn orphan_sweep_is_exact_at_a_digit_boundary() {
        // The 10000 → 9999 shrink: the last live id (9999) and the first
        // orphan (10000) differ in digit count; a sweep keyed on parsed
        // ids must keep one and remove the other, in both directions.
        let dir = scratch("orphan-boundary");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(shard_file_name(9999)), "{}").unwrap();
        std::fs::write(dir.join(shard_file_name(10000)), "{}").unwrap();
        tidy_shard_dir(&dir, 10000);
        assert!(
            dir.join(shard_file_name(9999)).is_file(),
            "id 9999 is live at path_count 10000"
        );
        assert!(
            !dir.join(shard_file_name(10000)).exists(),
            "id 10000 is an orphan at path_count 10000"
        );
        tidy_shard_dir(&dir, 9999);
        assert!(
            !dir.join(shard_file_name(9999)).exists(),
            "id 9999 is an orphan once the catalog shrinks to 9999"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_sweep_removes_non_canonical_shard_names() {
        // `parse::<usize>` alone accepts zero-padded and signed
        // spellings that no load ever consults — under the old lenient
        // sweep, `path-007.json` parsed to a live id and survived
        // forever. Only the canonical `shard_file_name` round trip names
        // a shard; everything else matching `path-*.json` is junk, and
        // so is a temp whose target is junk.
        let dir = scratch("orphan-canonical");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = [
            "path-007.json",
            "path-+5.json",
            "path-abc.json",
            ".path-007.json.tmp.99",
        ];
        for name in junk {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        std::fs::write(dir.join(shard_file_name(1)), "{}").unwrap();
        // Neither a shard nor a temp: an older cache's `manifest.json`.
        std::fs::write(dir.join("manifest.json"), "{}").unwrap();
        // The temp of a live shard not yet on disk: about to be renamed.
        let temp = dir.join(".path-2.json.tmp.99");
        std::fs::write(&temp, "{").unwrap();
        tidy_shard_dir(&dir, 3);
        for name in junk {
            assert!(!dir.join(name).exists(), "{name} must be swept");
        }
        assert!(dir.join(shard_file_name(1)).is_file(), "canonical stays");
        assert!(dir.join("manifest.json").is_file(), "unrelated file stays");
        assert!(temp.is_file(), "a live shard's pending temp stays");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_visit_error_aborts_the_walk() {
        let dir = scratch("stream-abort");
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        let mut seen = 0usize;
        let err = Dataset::for_each_path_sharded(
            &dir,
            &preset,
            &catalog,
            |id| path_data(&catalog[id], 1e6),
            |id, _| {
                seen += 1;
                if id == 1 {
                    Err(io::Error::other("sink full"))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "sink full");
        assert_eq!(seen, 2, "the walk stops at the failing visit");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
