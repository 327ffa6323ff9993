//! Output checks. Each returns `Err` with a one-line description of the
//! first thing wrong, so failures count one per output.

use busarb_obs::MetricsSnapshot;
use busarb_sim::RunReport;

/// `produced` must equal `golden` byte for byte.
///
/// # Errors
///
/// Names the output and the first differing byte offset, or the missing
/// golden.
pub fn same_bytes(name: &str, produced: &str, golden: Option<String>) -> Result<(), String> {
    let Some(golden) = golden else {
        return Err(format!("{name}: no committed output to compare with"));
    };
    if produced == golden {
        return Ok(());
    }
    let offset = produced
        .bytes()
        .zip(golden.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(produced.len().min(golden.len()));
    Err(format!(
        "{name}: differs from the committed output at byte {offset} ({} vs {} bytes)",
        produced.len(),
        golden.len()
    ))
}

/// Closed-loop accounting: every completion is exactly one MESI
/// operation, per agent, and the per-agent completions sum to the total.
///
/// # Errors
///
/// Names the cell and the first agent whose books do not balance.
pub fn mesi_accounting(label: &str, m: &MetricsSnapshot) -> Result<(), String> {
    for (agent, &done) in m.completions_per_agent.iter().enumerate() {
        let ops = m.read_misses[agent] + m.write_misses[agent] + m.upgrades[agent];
        if ops != done {
            return Err(format!(
                "{label}: agent {} has {ops} MESI operations for {done} completions",
                agent + 1
            ));
        }
    }
    let total: u64 = m.completions_per_agent.iter().sum();
    if total != m.completions {
        return Err(format!(
            "{label}: per-agent completions sum to {total}, the total is {}",
            m.completions
        ));
    }
    Ok(())
}

/// A traced run's report must equal the untraced run's, field for field
/// (`live_dump` is the untraced report's `Debug` form).
///
/// # Errors
///
/// Names the framing whose run diverged.
pub fn same_report(framing: &str, live_dump: &str, traced: &RunReport) -> Result<(), String> {
    if format!("{traced:?}") == live_dump {
        Ok(())
    } else {
        Err(format!(
            "{framing}: the exporting run's report differs from the untraced run's"
        ))
    }
}

/// `analyze` must read exactly the `emitted` trace records.
///
/// # Errors
///
/// Names the framing and both counts.
pub fn analyzed_all(framing: &str, read: u64, emitted: u64) -> Result<(), String> {
    if read == emitted {
        Ok(())
    } else {
        Err(format!(
            "{framing} analyze read {read} events, the run emitted {emitted}"
        ))
    }
}

/// The cells the benchmark times must be the cells the program ran:
/// `expected` and `ran` are tag lists, both sorted.
///
/// # Errors
///
/// Names both counts and the first tag that differs.
pub fn same_cells(name: &str, expected: &[String], ran: &[String]) -> Result<(), String> {
    if expected == ran {
        return Ok(());
    }
    let first = expected.iter().zip(ran).find(|(a, b)| a != b).map_or_else(
        || "one list is a prefix of the other".to_string(),
        |(a, b)| format!("'{a}' vs '{b}'"),
    );
    Err(format!(
        "{name}: {} cells timed, {} ran; first difference {first}",
        expected.len(),
        ran.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bytes_reports_the_first_difference() {
        assert!(same_bytes("a", "xyz", Some("xyz".into())).is_ok());
        let e = same_bytes("a", "xyz", Some("xqz".into())).unwrap_err();
        assert!(e.contains("byte 1"), "{e}");
        assert!(same_bytes("a", "xy", Some("xyz".into()))
            .unwrap_err()
            .contains("byte 2"));
        assert!(same_bytes("a", "x", None).is_err());
    }

    #[test]
    fn analyzed_all_fires_on_an_off_by_one_count() {
        assert!(analyzed_all("btrc", 40, 40).is_ok());
        assert!(analyzed_all("btrc", 39, 40)
            .unwrap_err()
            .contains("read 39"));
        assert!(analyzed_all("jsonl", 41, 40).is_err());
    }

    #[test]
    fn same_cells_fires_on_a_missing_or_changed_cell() {
        let tags = |t: &[&str]| t.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let grid = tags(&["grid-aap-30-1", "grid-rr-10-1"]);
        assert!(same_cells("g", &grid, &grid).is_ok());
        let e = same_cells("g", &grid, &grid[..1]).unwrap_err();
        assert!(e.contains("2 cells timed, 1 ran"), "{e}");
        let e = same_cells("g", &grid, &tags(&["grid-aap-30-1", "grid-rr-10-2"])).unwrap_err();
        assert!(e.contains("'grid-rr-10-1' vs 'grid-rr-10-2'"), "{e}");
    }

    #[test]
    fn mesi_accounting_catches_a_lost_operation() {
        let mut m = MetricsSnapshot::empty(2);
        m.completions_per_agent = vec![2, 1];
        m.completions = 3;
        m.read_misses = vec![1, 1];
        m.write_misses = vec![1, 0];
        m.upgrades = vec![0, 0];
        assert!(mesi_accounting("c", &m).is_ok());
        m.upgrades[1] = 1;
        assert!(mesi_accounting("c", &m).unwrap_err().contains("agent 2"));
        m.upgrades[1] = 0;
        m.completions = 4;
        assert!(mesi_accounting("c", &m).unwrap_err().contains("sum to 3"));
    }
}
