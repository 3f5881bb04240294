//! The wire protocol: newline-delimited requests and responses.
//!
//! **Request** — one line of SQL, optionally prefixed with a per-request
//! deadline: `@<ms> <sql>` means "drop me if a worker hasn't started me
//! within `<ms>` milliseconds". No prefix means the server default.
//!
//! **Response** — exactly one line of JSON per request, in request order:
//! the [`iq_dbms::render`] line-JSON for outcomes and errors, plus three
//! server-level shapes produced here:
//!
//! ```text
//! {"ok":false,"kind":"rejected","error":"admission queue full"}
//! {"ok":false,"kind":"timed_out","error":"deadline expired before execution"}
//! {"ok":true,"outcome":"shutdown"}
//! ```
//!
//! This module also carries the tiny response scanners the client side
//! (loadgen, tests) uses — hand-rolled against the known shapes, no JSON
//! parser dependency.

// panic-in-hot-path (DESIGN.md §13): a request must not panic the
// serving or WAL code; each remaining site carries an `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use iq_dbms::{error_json, outcome_json, DbError, Outcome};
use std::time::Duration;

/// Splits an optional `@<ms> ` deadline prefix off a request line.
/// Malformed prefixes are left in the SQL (the parser will point at them).
pub fn parse_request(line: &str) -> (Option<Duration>, &str) {
    let Some(rest) = line.strip_prefix('@') else {
        return (None, line);
    };
    let Some((num, sql)) = rest.split_once(' ') else {
        return (None, line);
    };
    match num.parse::<u64>() {
        Ok(ms) => (Some(Duration::from_millis(ms)), sql),
        Err(_) => (None, line),
    }
}

/// The response line for an executed statement's result.
pub(crate) fn response_line(result: Result<Outcome, DbError>) -> String {
    match result {
        Ok(outcome) => outcome_json(&outcome),
        Err(e) => error_json(&e),
    }
}

/// The response to a request rejected at admission (queue full).
pub fn rejected_response() -> String {
    "{\"ok\":false,\"kind\":\"rejected\",\"error\":\"admission queue full\"}".to_string()
}

/// The response to a request whose deadline expired in the queue.
pub fn timed_out_response() -> String {
    "{\"ok\":false,\"kind\":\"timed_out\",\"error\":\"deadline expired before execution\"}"
        .to_string()
}

/// The acknowledgement for an accepted SHUTDOWN.
pub fn shutdown_response() -> String {
    "{\"ok\":true,\"outcome\":\"shutdown\"}".to_string()
}

/// Whether a response line reports success.
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// The `"kind"` field of a failure response, if present.
pub fn error_kind(response: &str) -> Option<&str> {
    let start = response.find("\"kind\":\"")? + "\"kind\":\"".len();
    let end = response[start..].find('"')?;
    Some(&response[start..start + end])
}

/// The `"offset"` field of a positioned syntax error, if present — this is
/// the round-trip end of [`iq_dbms::DbError::SyntaxAt`].
pub fn error_offset(response: &str) -> Option<usize> {
    let start = response.find("\"offset\":")? + "\"offset\":".len();
    let digits: String = response[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Decodes a `SHOW STATS` response into `(metric, value)` pairs. Returns
/// `None` if the line is not a rows response of that shape.
pub fn parse_stats(response: &str) -> Option<Vec<(String, i64)>> {
    if !is_ok(response) || !response.contains("\"outcome\":\"rows\"") {
        return None;
    }
    let rows_at = response.find("\"rows\":[")? + "\"rows\":[".len();
    let body = &response[rows_at..response.rfind(']')?];
    let mut out = Vec::new();
    // Rows look like ["metric_name",123] separated by commas.
    for part in body.split("],") {
        let part = part.trim_start_matches('[').trim_end_matches(']');
        if part.is_empty() {
            continue;
        }
        let (name, value) = part.split_once(',')?;
        let name = name.trim().trim_matches('"').to_string();
        let value = value.trim().parse::<i64>().ok()?;
        out.push((name, value));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_prefix_parses_and_malformed_falls_through() {
        let (d, sql) = parse_request("@250 SELECT 1 FROM t");
        assert_eq!(d, Some(Duration::from_millis(250)));
        assert_eq!(sql, "SELECT 1 FROM t");
        let (d, sql) = parse_request("SELECT * FROM t");
        assert_eq!(d, None);
        assert_eq!(sql, "SELECT * FROM t");
        // `@` with no number stays in the SQL.
        let (d, sql) = parse_request("@abc SELECT");
        assert_eq!(d, None);
        assert_eq!(sql, "@abc SELECT");
    }

    #[test]
    fn response_scanners() {
        assert!(is_ok(
            "{\"ok\":true,\"outcome\":\"rows\",\"columns\":[],\"rows\":[]}"
        ));
        assert!(!is_ok(&rejected_response()));
        assert_eq!(error_kind(&rejected_response()), Some("rejected"));
        assert_eq!(error_kind(&timed_out_response()), Some("timed_out"));
        let err = "{\"ok\":false,\"kind\":\"syntax\",\"offset\":28,\"error\":\"x\"}";
        assert_eq!(error_offset(err), Some(28));
        assert_eq!(error_offset(&rejected_response()), None);
    }

    #[test]
    fn stats_decoding() {
        let line = "{\"ok\":true,\"outcome\":\"rows\",\"columns\":[\"metric\",\"value\"],\
                    \"rows\":[[\"select_ok\",5],[\"improve_ok\",2],[\"queue_depth\",0]]}";
        let stats = parse_stats(line).unwrap();
        assert_eq!(
            stats,
            vec![
                ("select_ok".into(), 5),
                ("improve_ok".into(), 2),
                ("queue_depth".into(), 0),
            ]
        );
        assert_eq!(parse_stats("{\"ok\":false}"), None);
    }
}
