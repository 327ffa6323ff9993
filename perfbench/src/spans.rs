//! In-memory spans for the traced run: workload → experiment module or
//! phase → sweep → cell. Spans are recorded from the benchmark's own
//! code around calls into the library and written out once, when the
//! run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `experiments.grid` or `cell`.
    pub name: String,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A thread-safe span collector.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent spans of its own.
    pub fn span<T>(&self, parent: u64, name: &str, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as JSON lines, one object per span, with each span's
    /// self time (its duration minus the part its children cover).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        for s in &spans {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            children.sort_unstable();
            // Children on parallel workers overlap; count covered time once.
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(covered)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::default();
        rec.span(0, "root", |root| {
            rec.span(root, "child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let lines = rec.to_jsonl();
        let root = lines.lines().find(|l| l.contains("\"root\"")).unwrap();
        let self_ns: u64 = root
            .rsplit("\"self_ns\":")
            .next()
            .unwrap()
            .trim_end_matches('}')
            .parse()
            .unwrap();
        assert!(self_ns < 5_000_000, "{root}");
        assert_eq!(rec.spans()[1].parent, rec.spans()[0].id);
    }
}
