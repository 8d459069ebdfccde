//! The crash corpus: shrunk findings persisted as checksummed store
//! records (`<store>/crashes/crashes.jsonl`) and replayed as gating
//! regression tests.
//!
//! Replay semantics are inverted from discovery: a corpus record is a
//! finding that has been *fixed*, so replay asserts the pipeline now
//! handles the input cleanly — any recurrence (panic, hang, or
//! divergence) fails the replay.

use crate::harness::{run_harness, FuzzInput, HarnessConfig, InputOrigin};
use cirfix_sim::{ProbeSpec, SimConfig};
use cirfix_store::{field_str, field_u64, Fnv128};
use cirfix_telemetry::JsonValue;

/// One shrunk, fixed finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Content digest (hex) — stable id, independent of discovery order.
    pub id: String,
    /// Finding class at discovery time (`panic`, `hang`, `divergence`).
    pub class: String,
    /// Seed of the run that found it.
    pub seed: u64,
    /// The shrunk reproducer source.
    pub source: String,
    /// Module elaborated as top during discovery.
    pub top: String,
    /// Human-readable detail from the original finding.
    pub detail: String,
}

impl CrashRecord {
    /// Builds a record, deriving the content id from class + source.
    pub fn new(class: &str, seed: u64, source: &str, top: &str, detail: &str) -> CrashRecord {
        let mut h = Fnv128::new();
        h.write_str("cirfix-crash-v1");
        h.write_str(class);
        h.write_str(source);
        CrashRecord {
            id: h.finish().to_hex(),
            class: class.to_string(),
            seed,
            source: source.to_string(),
            top: top.to_string(),
            detail: detail.to_string(),
        }
    }

    /// Serializes to a store record body.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("id", JsonValue::Str(self.id.clone())),
            ("class", JsonValue::Str(self.class.clone())),
            ("seed", JsonValue::Uint(self.seed)),
            ("source", JsonValue::Str(self.source.clone())),
            ("top", JsonValue::Str(self.top.clone())),
            ("detail", JsonValue::Str(self.detail.clone())),
        ])
    }

    /// Deserializes from a store record body.
    pub fn from_json(v: &JsonValue) -> Option<CrashRecord> {
        Some(CrashRecord {
            id: field_str(v, "id")?.to_string(),
            class: field_str(v, "class")?.to_string(),
            seed: field_u64(v, "seed")?,
            source: field_str(v, "source")?.to_string(),
            top: field_str(v, "top")?.to_string(),
            detail: field_str(v, "detail").unwrap_or_default().to_string(),
        })
    }

    /// The harness input replaying this record. Conservative resource
    /// limits: a regression input must finish fast or it *is* a hang.
    pub fn to_input(&self) -> FuzzInput {
        FuzzInput {
            id: format!("corpus-{}", &self.id[..12.min(self.id.len())]),
            source: self.source.clone(),
            top: self.top.clone(),
            probe: ProbeSpec::periodic(Vec::new(), 0, 1),
            sim: SimConfig {
                max_time: 1_000,
                max_deltas: 800,
                max_ops_per_resume: 50_000,
                max_total_ops: 120_000,
                ..SimConfig::default()
            },
            origin: InputOrigin::Corpus,
        }
    }
}

/// Result of replaying a corpus.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Records replayed.
    pub replayed: usize,
    /// Records that *still* trigger a finding — regressions. Pairs of
    /// (record id, finding class).
    pub regressions: Vec<(String, String)>,
}

impl ReplayReport {
    /// True when no record reproduced a finding.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Replays every record through the full harness (both executors) and
/// reports any that still trigger a finding of *any* class (a fixed
/// panic that resurfaces as a divergence is still a regression).
pub fn replay(records: &[CrashRecord], jobs: usize) -> ReplayReport {
    let inputs: Vec<FuzzInput> = records.iter().map(CrashRecord::to_input).collect();
    let report = run_harness(
        &inputs,
        &HarnessConfig {
            jobs,
            ..HarnessConfig::default()
        },
    );
    let mut out = ReplayReport {
        replayed: records.len(),
        ..ReplayReport::default()
    };
    for finding in report.findings {
        let id = finding
            .input_id
            .strip_prefix("corpus-")
            .unwrap_or(&finding.input_id)
            .to_string();
        out.regressions.push((id, finding.class.to_string()));
    }
    out
}

/// Loads corpus records from a store's `crashes/` family, skipping
/// records that fail to decode (they count as damage, not findings).
///
/// # Errors
///
/// Propagates I/O errors from the store.
pub fn load_store_corpus(store: &cirfix_store::Store) -> std::io::Result<Vec<CrashRecord>> {
    let (bodies, _) = store.load_crashes()?;
    Ok(bodies.iter().filter_map(CrashRecord::from_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let r = CrashRecord::new("panic", 9, "module m; endmodule", "m", "boom");
        let back = CrashRecord::from_json(&r.to_json()).expect("decodes");
        assert_eq!(r, back);
    }

    #[test]
    fn id_depends_on_class_and_source_only() {
        let a = CrashRecord::new("panic", 1, "module m; endmodule", "m", "x");
        let b = CrashRecord::new("panic", 2, "module m; endmodule", "m", "y");
        let c = CrashRecord::new("hang", 1, "module m; endmodule", "m", "x");
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn fixed_records_replay_clean() {
        let records = vec![
            // Both of these used to panic the frontend (lexer `$` and
            // unbounded recursion); they are fixed, so replay is clean.
            CrashRecord::new("panic", 0, "$ ;", "tb", "lexer: bare dollar"),
            CrashRecord::new(
                "panic",
                0,
                &format!(
                    "module tb; initial x = {}0{}; endmodule",
                    "(".repeat(500),
                    ")".repeat(500)
                ),
                "tb",
                "parser: deep nesting",
            ),
        ];
        let report = replay(&records, 2);
        assert_eq!(report.replayed, 2);
        assert!(report.is_clean(), "regressions: {:?}", report.regressions);
    }
}
