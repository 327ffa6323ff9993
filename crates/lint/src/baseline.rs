//! The committed suppression file (`lint-baseline.json`).
//!
//! A suppression matches findings by `(check, file, symbol)` — no line
//! numbers, so unrelated edits to a file do not churn the baseline.
//! Every suppression carries a mandatory human-readable `reason`;
//! unsuppressed findings fail the lint, and suppressions that no longer
//! match anything fail it too (`baseline-unused`), so the file can only
//! shrink once a violation is fixed.

use serde::Value;

use crate::checks::Finding;

/// One baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Check id the entry suppresses.
    pub check: String,
    /// Workspace-relative file.
    pub file: String,
    /// Symbol the finding anchors to.
    pub symbol: String,
    /// Why this finding is accepted.
    pub reason: String,
}

/// The parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// All suppressions, in file order.
    pub suppressions: Vec<Suppression>,
}

/// The format tag the baseline file must carry.
pub const BASELINE_FORMAT: &str = "busarb-lint-baseline/1";

impl Baseline {
    /// An empty baseline (strict mode).
    #[must_use]
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Parses the baseline JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong/missing format tag,
    /// or an entry missing one of its four required string fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("baseline: {e}"))?;
        let format = value.get("format").and_then(Value::as_str);
        if format != Some(BASELINE_FORMAT) {
            return Err(format!(
                "baseline: format must be \"{BASELINE_FORMAT}\", got {format:?}"
            ));
        }
        let entries = value
            .get("suppressions")
            .and_then(Value::as_array)
            .ok_or("baseline: missing `suppressions` array")?;
        let mut suppressions = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let field = |name: &str| -> Result<String, String> {
                entry
                    .get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!(
                        "baseline: suppression #{i} missing string `{name}`"
                    ))
            };
            suppressions.push(Suppression {
                check: field("check")?,
                file: field("file")?,
                symbol: field("symbol")?,
                reason: field("reason")?,
            });
        }
        Ok(Baseline { suppressions })
    }

    /// Whether `finding` is suppressed.
    #[must_use]
    pub fn matches(&self, finding: &Finding) -> bool {
        self.suppressions.iter().any(|s| {
            s.check == finding.check && s.file == finding.file && s.symbol == finding.symbol
        })
    }

    /// Splits findings into (unsuppressed, suppressed) and appends a
    /// `baseline-unused` finding per suppression that matched nothing.
    #[must_use]
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let (suppressed, mut open): (Vec<Finding>, Vec<Finding>) =
            findings.into_iter().partition(|f| self.matches(f));
        for s in &self.suppressions {
            let used = suppressed
                .iter()
                .any(|f| s.check == f.check && s.file == f.file && s.symbol == f.symbol);
            if !used {
                open.push(Finding {
                    check: "baseline-unused",
                    file: "lint-baseline.json".to_string(),
                    line: 0,
                    symbol: format!("{}:{}:{}", s.check, s.file, s.symbol),
                    message: format!(
                        "suppression `{}` for `{}` in `{}` matches nothing — the violation was fixed; delete the entry",
                        s.check, s.symbol, s.file
                    ),
                });
            }
        }
        (open, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(check: &'static str, file: &str, symbol: &str) -> Finding {
        Finding {
            check,
            file: file.to_string(),
            line: 7,
            symbol: symbol.to_string(),
            message: String::new(),
        }
    }

    const DOC: &str = r#"{
        "format": "busarb-lint-baseline/1",
        "suppressions": [
            {"check": "hot-panic", "file": "crates/sim/src/event.rs",
             "symbol": "CalendarQueue::schedule", "reason": "guard asserts"}
        ]
    }"#;

    #[test]
    fn parses_and_matches() {
        let b = Baseline::parse(DOC).expect("parse");
        assert_eq!(b.suppressions.len(), 1);
        assert!(b.matches(&finding(
            "hot-panic",
            "crates/sim/src/event.rs",
            "CalendarQueue::schedule"
        )));
        assert!(!b.matches(&finding(
            "hot-alloc",
            "crates/sim/src/event.rs",
            "CalendarQueue::schedule"
        )));
    }

    #[test]
    fn apply_partitions_and_reports_rot() {
        let b = Baseline::parse(DOC).expect("parse");
        // No findings at all: the suppression is rot.
        let (open, suppressed) = b.apply(vec![]);
        assert!(suppressed.is_empty());
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].check, "baseline-unused");

        // The matching finding is suppressed, the other stays open.
        let (open, suppressed) = b.apply(vec![
            finding(
                "hot-panic",
                "crates/sim/src/event.rs",
                "CalendarQueue::schedule",
            ),
            finding("hot-alloc", "crates/core/src/fcfs.rs", "arbitrate"),
        ]);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].check, "hot-alloc");
    }

    #[test]
    fn format_tag_is_required() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse(r#"{"format": "wrong/9", "suppressions": []}"#).is_err());
        let missing = r#"{"format": "busarb-lint-baseline/1",
                          "suppressions": [{"check": "x", "file": "y", "symbol": "z"}]}"#;
        assert!(Baseline::parse(missing).is_err(), "reason is mandatory");
    }
}
