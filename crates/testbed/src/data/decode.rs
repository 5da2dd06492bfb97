//! The typed shard decoder: reads a shard's JSON straight into
//! [`ShardFile`] without building a [`serde::Value`] tree per epoch.
//!
//! The shard layout is fixed by its writer (the derived `Serialize` of
//! the dataset types, fields in declaration order), so the decoder
//! expects exactly that key order and rejects anything else — an
//! unknown, missing, reordered or repeated key is an `Err`. Only the
//! small per-path [`PathConfig`] still goes through a `Value`. Numbers
//! pass through the same lexer and the same `Number` conversions as the
//! derived `Deserialize`, so whatever this decoder accepts,
//! `serde_json::from_str::<ShardFile>` reads back identically, bit for
//! bit (pinned by the tests below).

use super::{EpochFaults, EpochRecord, EpochStatus, PathData, ShardFile, TraceData};
use crate::path::PathConfig;
use serde::{Deserialize, Number, Value};
use serde_json::{Error, Reader};

/// Decodes one whole shard document.
pub(super) fn decode_shard(json: &str) -> Result<ShardFile, Error> {
    let mut r = Reader::new(json);
    r.begin_object()?;
    r.field("behavior_hash")?;
    let behavior_hash = r.str()?.into_owned();
    r.field("config_fingerprint")?;
    let config_fingerprint = r.str()?.into_owned();
    r.field("path")?;
    let path = path_data(&mut r)?;
    r.end_object()?;
    r.finish()?;
    Ok(ShardFile {
        behavior_hash,
        config_fingerprint,
        path,
    })
}

fn path_data(r: &mut Reader<'_>) -> Result<PathData, Error> {
    r.begin_object()?;
    r.field("config")?;
    let config = PathConfig::from_value(&r.value()?)?;
    r.field("traces")?;
    let mut traces = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        traces.push(trace(r)?);
    }
    r.end_object()?;
    Ok(PathData { config, traces })
}

fn trace(r: &mut Reader<'_>) -> Result<TraceData, Error> {
    r.begin_object()?;
    r.field("records")?;
    let mut records = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        records.push(record(r)?);
    }
    r.end_object()?;
    Ok(TraceData { records })
}

fn record(r: &mut Reader<'_>) -> Result<EpochRecord, Error> {
    r.begin_object()?;
    r.field("status")?;
    let status = match &*r.str()? {
        "Ok" => EpochStatus::Ok,
        "Degraded" => EpochStatus::Degraded,
        "Missing" => EpochStatus::Missing,
        other => return Err(r.error(&format!("unknown EpochStatus variant `{other}`"))),
    };
    r.field("faults")?;
    r.begin_object()?;
    let faults = EpochFaults {
        node_down: flag(r, "node_down")?,
        pathload_failed: flag(r, "pathload_failed")?,
        ping_outage: flag(r, "ping_outage")?,
        reply_loss_burst: flag(r, "reply_loss_burst")?,
        transfer_truncated: flag(r, "transfer_truncated")?,
        transfer_failed: flag(r, "transfer_failed")?,
    };
    r.end_object()?;
    let record = EpochRecord {
        status,
        faults,
        a_hat: opt_f64(r, "a_hat")?,
        t_hat: opt_f64(r, "t_hat")?,
        p_hat: opt_f64(r, "p_hat")?,
        t_tilde: opt_f64(r, "t_tilde")?,
        p_tilde: opt_f64(r, "p_tilde")?,
        r_large: opt_f64(r, "r_large")?,
        r_small: opt_f64(r, "r_small")?,
        r_prefix_quarter: opt_f64(r, "r_prefix_quarter")?,
        r_prefix_half: opt_f64(r, "r_prefix_half")?,
        flow_loss_events: {
            r.field("flow_loss_events")?;
            u64::from_value(&Value::Number(r.number()?))?
        },
        flow_retx_rate: f64_field(r, "flow_retx_rate")?,
        flow_rtt: f64_field(r, "flow_rtt")?,
        true_avail_bw: f64_field(r, "true_avail_bw")?,
    };
    r.end_object()?;
    Ok(record)
}

fn flag(r: &mut Reader<'_>, key: &str) -> Result<bool, Error> {
    r.field(key)?;
    r.bool()
}

fn f64_field(r: &mut Reader<'_>, key: &str) -> Result<f64, Error> {
    r.field(key)?;
    r.number().map(Number::as_f64)
}

fn opt_f64(r: &mut Reader<'_>, key: &str) -> Result<Option<f64>, Error> {
    r.field(key)?;
    if r.null()? {
        Ok(None)
    } else {
        r.number().map(|n| Some(n.as_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{save_shard, shard_file_name};
    use super::*;
    use crate::path::catalog_2004;
    use crate::preset::Preset;
    use crate::runner::generate_path;
    use std::sync::OnceLock;

    /// A real `tiny` shard as [`save_shard`] writes it: path 0 of the
    /// tiny preset, simulated once per test binary.
    fn tiny_shard() -> &'static str {
        static SHARD: OnceLock<String> = OnceLock::new();
        SHARD.get_or_init(|| {
            let preset = Preset::tiny();
            let config = catalog_2004(preset.paths, preset.seed).remove(0);
            let data = generate_path(&preset, &config);
            let dir = std::env::temp_dir().join(format!("tputpred-decode-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            save_shard(&dir, 0, &preset, &data).unwrap();
            let json = std::fs::read_to_string(dir.join(shard_file_name(0))).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            json
        })
    }

    /// Runs the typed decoder on `json`; whenever it accepts, the
    /// derived `Deserialize` (the oracle) must accept too, with a value
    /// equal bit for bit — `Debug` prints every float in its shortest
    /// round-trip form, so equal text means equal bits. Returns whether
    /// the typed decoder accepted.
    fn check_against_oracle(json: &str) -> bool {
        let Ok(typed) = decode_shard(json) else {
            return false;
        };
        let oracle: ShardFile = match serde_json::from_str(json) {
            Ok(shard) => shard,
            Err(e) => panic!("typed decoder accepted what the oracle rejects ({e}): {json}"),
        };
        assert_eq!(typed, oracle);
        assert_eq!(format!("{typed:?}"), format!("{oracle:?}"));
        true
    }

    #[test]
    fn decodes_a_real_shard_like_the_derived_deserializer() {
        let json = tiny_shard();
        assert!(check_against_oracle(json));
        let shard = decode_shard(json).unwrap();
        assert_eq!(shard.path.traces.len(), Preset::tiny().traces_per_path);
        assert_eq!(
            shard.path.traces[0].records.len(),
            Preset::tiny().epochs_per_trace
        );
        // Re-serializing reproduces the file byte for byte.
        assert_eq!(serde_json::to_string(&shard).unwrap(), json);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let json = tiny_shard();
        for cut in 0..json.len() {
            if let Some(prefix) = json.get(..cut) {
                assert!(decode_shard(prefix).is_err(), "accepted a cut at {cut}");
            }
        }
    }

    #[test]
    fn every_bit_flip_agrees_with_the_oracle() {
        let json = tiny_shard().as_bytes();
        let mut accepted = 0usize;
        let mut flipped = json.to_vec();
        for i in 0..json.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                // A flip that breaks UTF-8 never reaches the decoder:
                // reading the file as a string already fails.
                if let Ok(text) = std::str::from_utf8(&flipped) {
                    accepted += usize::from(check_against_oracle(text));
                }
                flipped[i] = json[i];
            }
        }
        // Flipped digits still decode, to different values; the
        // comparisons above must actually have run.
        assert!(accepted > 100, "only {accepted} flips decoded");
    }

    #[test]
    fn number_edge_cases_agree_with_the_oracle() {
        let json = tiny_shard();
        let field = "\"flow_rtt\":";
        let at = json.find(field).unwrap() + field.len();
        let end = at + json[at..].find(',').unwrap();
        let with = |text: &str| format!("{}{text}{}", &json[..at], &json[end..]);
        let flow_rtt =
            |text: &str| decode_shard(&with(text)).map(|s| s.path.traces[0].records[0].flow_rtt);
        for (text, want) in [
            ("1e999", f64::INFINITY),
            ("-1e999", f64::NEG_INFINITY),
            ("-0.0", -0.0),
            // An integer literal goes through i64, like the oracle:
            // `-0` reads as +0.0.
            ("-0", 0.0),
            ("12345678901234567890", 12_345_678_901_234_567_890.0),
            ("123456789012345678901234", 1.234_567_890_123_456_8e23),
            ("5e-324", 5e-324),
        ] {
            assert!(check_against_oracle(&with(text)), "{text}");
            assert_eq!(
                flow_rtt(text).unwrap().to_bits(),
                f64::to_bits(want),
                "{text}"
            );
        }
        for text in ["NaN", "nan", "inf", "-", "1e", "null", "\"1\""] {
            assert!(flow_rtt(text).is_err(), "{text}");
            assert!(
                serde_json::from_str::<ShardFile>(&with(text)).is_err(),
                "{text}"
            );
        }
        // Whole-number floats in the integer field read as the oracle
        // reads them.
        let field = "\"flow_loss_events\":";
        let at = json.find(field).unwrap() + field.len();
        let end = at + json[at..].find(',').unwrap();
        for text in ["3.0", "1e3", "-0", "18446744073709551615"] {
            let doc = format!("{}{text}{}", &json[..at], &json[end..]);
            assert!(check_against_oracle(&doc), "{text}");
        }
        for text in ["-1", "2.5", "true"] {
            let doc = format!("{}{text}{}", &json[..at], &json[end..]);
            assert!(decode_shard(&doc).is_err(), "{text}");
        }
    }

    #[test]
    fn only_the_writers_key_order_is_accepted() {
        let json = tiny_shard();
        // A repeated key: the oracle takes the first, the decoder
        // refuses.
        let dup = json.replacen(
            "{\"status\":\"Ok\",",
            "{\"status\":\"Ok\",\"status\":\"Ok\",",
            1,
        );
        assert_ne!(dup, json);
        assert!(decode_shard(&dup).is_err());
        // Reordered envelope keys and an unknown key.
        let swapped = json.replacen("\"behavior_hash\"", "\"behavior_hash_\"", 1);
        assert!(decode_shard(&swapped).is_err());
        let unknown = json.replacen("\"faults\":{", "\"faults\":{\"extra\":true,", 1);
        assert!(decode_shard(&unknown).is_err());
        let variant = json.replacen("\"status\":\"Ok\"", "\"status\":\"Fine\"", 1);
        let err = decode_shard(&variant).unwrap_err();
        assert!(err
            .to_string()
            .contains("unknown EpochStatus variant `Fine`"));
        // Insignificant whitespace is fine, as for the oracle.
        let spaced = json.replacen(",\"path\":", " ,\n\t\"path\" : ", 1);
        assert!(check_against_oracle(&spaced));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let json = tiny_shard();
        let at = json.find("\"config\":").unwrap() + "\"config\":".len();
        let deep = format!("{}{}", &json[..at], "[".repeat(1_000_000));
        assert!(decode_shard(&deep).is_err());
        assert!(serde_json::from_str::<ShardFile>(&deep).is_err());
    }
}
