//! Output checks: record digests, committed-reference comparisons and
//! the attempted/failed tally behind `failed_frac`.

use std::path::Path;

use tputpred_bench::{fb_config, fb_error};
use tputpred_core::fb::FbPredictor;
use tputpred_testbed::{EpochRecord, EpochStatus, PathData, Preset};

/// Attempted and failed (mismatched or refused) operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or produced a mismatch.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_word(h: u64, w: u64) -> u64 {
    fnv(h, &w.to_le_bytes())
}

fn opt_word(v: Option<f64>) -> u64 {
    // `None` gets a NaN payload no measurement produces.
    v.map_or(0x7ff8_dead_beef_0001, f64::to_bits)
}

fn record_digest(mut h: u64, r: &EpochRecord) -> u64 {
    let status = match r.status {
        EpochStatus::Ok => 0,
        EpochStatus::Degraded => 1,
        EpochStatus::Missing => 2,
    };
    let f = &r.faults;
    let faults = [
        f.node_down,
        f.pathload_failed,
        f.ping_outage,
        f.reply_loss_burst,
        f.transfer_truncated,
        f.transfer_failed,
    ]
    .iter()
    .enumerate()
    .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
    for w in [
        status,
        faults,
        opt_word(r.a_hat),
        opt_word(r.t_hat),
        opt_word(r.p_hat),
        opt_word(r.t_tilde),
        opt_word(r.p_tilde),
        opt_word(r.r_large),
        opt_word(r.r_small),
        opt_word(r.r_prefix_quarter),
        opt_word(r.r_prefix_half),
        r.flow_loss_events,
        r.flow_retx_rate.to_bits(),
        r.flow_rtt.to_bits(),
        r.true_avail_bw.to_bits(),
    ] {
        h = fnv_word(h, w);
    }
    h
}

/// FNV-1a digest of one path's records: the path name, then every
/// record field (bit patterns, `None` distinct from any value) in trace
/// and epoch order. Two paths digest equal only if every record is
/// bit-identical.
pub fn digest_path(path: &PathData) -> u64 {
    let mut h = fnv(FNV_OFFSET, path.config.name.as_bytes());
    for trace in &path.traces {
        h = fnv_word(h, trace.records.len() as u64);
        for r in &trace.records {
            h = record_digest(h, r);
        }
    }
    h
}

/// Combines per-path digests (catalog order) into one tree digest.
pub fn digest_tree(per_path: &[u64]) -> u64 {
    per_path.iter().fold(FNV_OFFSET, |h, &d| fnv_word(h, d))
}

/// Compares `got[i]` against `want[i]` per path; a missing or extra
/// entry counts as a failed comparison.
pub fn compare_digests(tally: &mut Tally, got: &[u64], want: &[u64]) {
    for i in 0..got.len().max(want.len()) {
        tally.check(got.get(i).is_some() && got.get(i) == want.get(i));
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or(String::new(), |v| v.to_string())
}

/// One path's rows in the `export_csv` epoch-CSV format
/// (`results/epochs_<preset>.csv`), header excluded.
pub fn epoch_csv_rows(preset: &Preset, p: &PathData) -> Vec<String> {
    let fb = FbPredictor::new(fb_config(preset));
    let mut rows = Vec::new();
    for (ti, t) in p.traces.iter().enumerate() {
        for (ei, r) in t.records.iter().enumerate() {
            let e = r
                .complete()
                .map(|c| fb_error(&fb, &c).to_string())
                .unwrap_or_default();
            rows.push(format!(
                "{},{},{},{:?},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                p.config.name,
                ti,
                ei,
                r.status,
                p.config.capacity_bps,
                p.config.base_rtt(),
                p.config.buffer_packets,
                p.config.cross.utilization,
                p.config.cross.elastic_flows,
                opt(r.a_hat),
                opt(r.t_hat),
                opt(r.p_hat),
                opt(r.t_tilde),
                opt(r.p_tilde),
                opt(r.r_large),
                opt(r.r_small),
                opt(r.r_prefix_quarter),
                opt(r.r_prefix_half),
                r.flow_loss_events,
                r.flow_retx_rate,
                r.flow_rtt,
                r.true_avail_bw,
                e,
            ));
        }
    }
    rows
}

/// Compares produced CSV rows against the data rows (header skipped)
/// of a committed reference file, line by line. Every reference row
/// and every surplus produced row is one operation; an unreadable
/// reference counts as one failed operation.
pub fn compare_with_reference(tally: &mut Tally, reference: &Path, rows: &[String]) {
    let Ok(text) = std::fs::read_to_string(reference) else {
        eprintln!("# check: reference {} unreadable", reference.display());
        tally.check(false);
        return;
    };
    let want: Vec<&str> = text.lines().skip(1).collect();
    let mut mismatches = 0;
    for i in 0..want.len().max(rows.len()) {
        let ok = matches!((rows.get(i), want.get(i)), (Some(g), Some(w)) if g == w);
        if !ok && mismatches < 3 {
            eprintln!(
                "# check: {} row {} differs\n#   got  {:?}\n#   want {:?}",
                reference.display(),
                i + 2,
                rows.get(i),
                want.get(i)
            );
        }
        mismatches += u64::from(!ok);
        tally.check(ok);
    }
}
