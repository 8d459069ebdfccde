//! The checksummed record frame of every store file.
//!
//! One record per line:
//!
//! ```text
//! {"sum":"<16 hex digits>","body":{...}}
//! ```
//!
//! `sum` is the 64-bit FNV-1a of the *body substring exactly as
//! written*, so verification never depends on JSON canonicalization: the
//! reader slices the body text back out of the line, re-hashes the
//! bytes, and only then parses. A record whose frame, checksum, or body
//! fails to check is reported as corrupt and skipped — never trusted.

use cirfix_telemetry::JsonValue;

use crate::hash::fnv64;
use cirfix_telemetry::parse_json;

/// `{"sum":"` `<16 hex>` `","body":` — the fixed offset of the body text.
const BODY_OFFSET: usize = 8 + 16 + 9;

/// Frames one body as a checksummed record line (without the newline).
pub fn encode_record(body: &JsonValue) -> String {
    let body_text = body.to_json();
    let sum = fnv64(body_text.as_bytes());
    format!("{{\"sum\":\"{sum:016x}\",\"body\":{body_text}}}")
}

/// Why a record line failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The frame is malformed or the checksum does not match the body
    /// text — a torn write or bit rot.
    Corrupt(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Corrupt(why) => write!(f, "corrupt record: {why}"),
        }
    }
}

/// Decodes one record line back to its body.
pub fn decode_record(line: &str) -> Result<JsonValue, RecordError> {
    // Byte-wise slicing throughout: a torn or bit-rotted line may cut
    // multi-byte UTF-8 anywhere, and string indexing would panic there.
    let bytes = line.as_bytes();
    if bytes.len() < BODY_OFFSET + 1 || !bytes.starts_with(b"{\"sum\":\"") {
        return Err(RecordError::Corrupt("frame too short or missing".into()));
    }
    if &bytes[24..33] != b"\",\"body\":" {
        return Err(RecordError::Corrupt("malformed frame".into()));
    }
    let Some(sum) = std::str::from_utf8(&bytes[8..24])
        .ok()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
    else {
        return Err(RecordError::Corrupt("bad checksum field".into()));
    };
    if bytes[bytes.len() - 1] != b'}' {
        return Err(RecordError::Corrupt("missing closing brace".into()));
    }
    let body_bytes = &bytes[BODY_OFFSET..bytes.len() - 1];
    if fnv64(body_bytes) != sum {
        return Err(RecordError::Corrupt("checksum mismatch".into()));
    }
    let body_text = std::str::from_utf8(body_bytes)
        .map_err(|_| RecordError::Corrupt("body is not UTF-8".into()))?;
    parse_json(body_text).map_err(|e| RecordError::Corrupt(format!("body does not parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> JsonValue {
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("eval".into())),
            ("score", JsonValue::Uint(4602678819172646912)),
        ])
    }

    #[test]
    fn encode_decode_round_trips() {
        let line = encode_record(&body());
        parse_json(&line).expect("frame is valid JSON");
        assert_eq!(decode_record(&line).unwrap(), body());
    }

    #[test]
    fn checksum_flip_is_detected() {
        let mut line = encode_record(&body());
        // Flip one character inside the body text.
        let flip = line.rfind("eval").unwrap();
        line.replace_range(flip..flip + 1, "f");
        assert!(matches!(decode_record(&line), Err(RecordError::Corrupt(_))));
    }

    #[test]
    fn truncated_record_is_detected() {
        let line = encode_record(&body());
        for cut in [0, 5, BODY_OFFSET, line.len() - 1] {
            assert!(
                decode_record(&line[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn foreign_lines_are_rejected_not_panicked() {
        for junk in ["", "{}", "not json", "{\"sum\":\"zz\",\"body\":{}}"] {
            assert!(decode_record(junk).is_err(), "{junk:?}");
        }
    }
}
