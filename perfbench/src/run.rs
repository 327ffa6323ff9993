//! The command line: argument parsing, the untraced and traced runs, and
//! the report. The last line printed is the JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use busarb_core::ProtocolKind;
use busarb_experiments::protocol_slug;

use crate::ledger::{self, Ledger};
use crate::spans::Recorder;
use crate::util::{available_workers, median, peak_rss_mb, quantile, tail_percentile};
use crate::workloads::{self, Ctx, Goldens, Iteration, Size, Sweep, Tracer, Workload};

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Experiment modules timed by the traced run, as span names
/// `experiments.<module>`.
const MODULES: [&str; 11] = [
    "grid",
    "table4_4",
    "table4_5",
    "ablations",
    "tails",
    "bursty",
    "worst_case_fcfs",
    "priority_study",
    "scaling",
    "validation",
    "coherence",
];

/// Ledger rows reported as `ledger.<row>.ns_per_event` (the residual is
/// `sim.residual.ns_per_event`).
const ROWS: [&str; 7] = [
    "setup", "calendar", "core", "workload", "stats", "obs", "mem",
];

/// Per-layer metrics, printed by every traced run: (name, unit). Layers
/// a workload does not exercise read 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    for module in MODULES {
        add(format!("experiments.{module}.wall_s"), "s");
    }
    for name in ["cell_s_p50", "cell_s_tail", "cell_s_max"] {
        add(format!("experiments.{name}"), "s");
    }
    add("experiments.cell_tail_percentile".into(), "pct");
    add("experiments.cells".into(), "count");
    add("experiments.workers".into(), "count");
    add("experiments.worker_idle_share".into(), "ratio");
    add("sim.runner.ns_per_event".into(), "ns");
    add("sim.calendar.ns_per_op".into(), "ns");
    add("sim.calendar.ops_per_event".into(), "count");
    add("sim.residual.ns_per_event".into(), "ns");
    for row in ROWS {
        add(format!("ledger.{row}.ns_per_event"), "ns");
    }
    for &kind in ProtocolKind::all() {
        add(
            format!("core.{}.ns_per_arbitration", protocol_slug(kind)),
            "ns",
        );
    }
    add("core.arbitrations_per_grant".into(), "count");
    for family in ["exp", "erlang", "uniform"] {
        add(format!("workload.draw.{family}.ns_per_draw"), "ns");
    }
    add("stats.batch_means.ns_per_sample".into(), "ns");
    add("stats.cdf.ns_per_sample".into(), "ns");
    add("obs.registry.ns_per_event".into(), "ns");
    for framing in ["btrc", "jsonl"] {
        add(format!("obs.export.{framing}.ns_per_record"), "ns");
        add(format!("obs.export.{framing}.bytes_per_record"), "B");
        add(format!("obs.stream.{framing}.ns_per_record"), "ns");
    }
    add("tail.pipeline.ns_per_event".into(), "ns");
    add("mem.next_miss.ns_per_call".into(), "ns");
    add("mem.complete.ns_per_call".into(), "ns");
    add("mem.refs_per_miss".into(), "count");
    add("mem.invalidations_per_completion".into(), "count");
    for framing in ["btrc", "jsonl"] {
        add(format!("{framing}_export_events_per_s"), "1/s");
        add(format!("{framing}_analyze_events_per_s"), "1/s");
    }
    add("trace.wall_s".into(), "s");
    add("trace.untraced_wall_s".into(), "s");
    add("trace.overhead_share".into(), "ratio");
    m
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Run as child process N of an untraced run: 0 checks, 1 and up
    /// measure (internal).
    pub child: Option<usize>,
}

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// Describes the bad or missing argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut child = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --seed '{v}': {e}"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|e| format!("invalid --seconds '{v}': {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                };
            }
            "--child" => {
                let v = value("--child")?;
                child = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --child '{v}': {e}"))?,
                );
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        child,
    })
}

/// Measuring processes per untraced run, one after the other. Each
/// unit's figure is its best over all of them, so no one process's
/// memory layout decides it.
const PROCESSES: usize = 3;

/// Timed replays per ledger row; each row reports their median.
const LEDGER_REPS: usize = 15;

/// The result of one run.
#[derive(Debug)]
struct Outcome {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failures: Vec<String>,
    /// (name, value, unit), in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The contract's result line.
    #[must_use]
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The repository root this benchmark was built from.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// Entry point of the binary: runs and prints the report and result.
///
/// # Errors
///
/// Bad arguments, or a checkout without the committed outputs.
pub fn main(args: &[String]) -> Result<(), String> {
    let args = parse(args)?;
    let root = repo_root();
    let results = root.join("results");
    if !results.join("repro_paper.txt").is_file() {
        return Err(format!("{} holds no committed outputs", results.display()));
    }
    let tmp = root.join(".bench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let ctx = Ctx {
        size: Size::Full,
        seed: args.seed,
        workers: available_workers(),
        goldens: Goldens::Dir(results),
        tmp: tmp.clone(),
    };
    if let Some(index) = args.child {
        let out = child(&args, &ctx, index);
        let _ = std::fs::remove_dir_all(&tmp);
        print!("{}", out?);
        return Ok(());
    }
    let outcome = execute(&args, &ctx, &root);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(root.join(".bench_tmp"));
    let (report, outcome) = outcome?;
    print!("{report}");
    println!("{}", outcome.json());
    Ok(())
}

/// Runs the workload in the requested mode; returns the report lines
/// and the result.
fn execute(args: &Args, ctx: &Ctx, root: &Path) -> Result<(String, Outcome), String> {
    let calibration = crate::calibration::ops_per_sec();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench workload={} seed={} seconds={} trace={} workers={} available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.workers,
        available_workers()
    );
    let _ = writeln!(
        report,
        "context calibration_kernel_ops_per_s={calibration:.4e}"
    );
    let outcome = if args.trace {
        traced(args, ctx, root, &mut report)?
    } else {
        untraced(args, &mut report)?
    };
    for f in &outcome.failures {
        let _ = writeln!(report, "FAILED {f}");
    }
    let _ = writeln!(
        report,
        "failed_share {} ({} of {} outputs failed their check)",
        outcome.failures.len() as f64 / outcome.attempted.max(1) as f64,
        outcome.failures.len(),
        outcome.attempted
    );
    for (name, value, unit) in &outcome.metrics {
        let _ = writeln!(report, "metric {name} = {value} {unit}");
    }
    Ok((report, outcome))
}

/// Every iteration's output-check failures, plus one for each iteration
/// that did other work than the first; returns (attempted, failures).
fn verdict(iterations: &[Iteration], report: &mut String) -> (u64, Vec<String>) {
    let first = &iterations[0].counts;
    let line: Vec<String> = first.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(report, "counts {} (per iteration)", line.join(" "));
    let mut failures: Vec<String> = iterations
        .iter()
        .flat_map(|it| it.failures.clone())
        .collect();
    for (i, it) in iterations.iter().enumerate().skip(1) {
        if &it.counts != first {
            failures.push(format!(
                "iteration {} did different work: {:?}",
                i + 1,
                it.counts
            ));
        }
    }
    let checked: u64 = iterations.iter().map(|it| it.checked).sum();
    (checked + iterations.len() as u64 - 1, failures)
}

/// What one measuring process found: each unit's best time, best
/// set-up time and events, the work counts of a sweep, the checks, the
/// sweeps per worker and the peak RSS.
#[derive(Clone, Debug, Default, PartialEq)]
struct Measured {
    names: Vec<String>,
    best: Vec<f64>,
    best_setup: Vec<f64>,
    events: Vec<u64>,
    counts: BTreeMap<String, u64>,
    checked: u64,
    failures: Vec<String>,
    sweeps: Vec<usize>,
    rss: f64,
}

/// Lowers each unit's best time to `times` where that is faster.
fn keep_best(best: &mut [f64], times: &[f64]) {
    for (b, t) in best.iter_mut().zip(times) {
        *b = b.min(*t);
    }
}

impl Measured {
    /// One sweep's times as the best so far.
    fn from_sweep(s: Sweep) -> Measured {
        Measured {
            best: s.secs,
            best_setup: s.setup,
            events: s.events,
            counts: s.counts,
            checked: s.checked,
            failures: s.failures,
            ..Measured::default()
        }
    }

    /// Takes in what `other` (named `label`) measured: its checks, one
    /// more check that it did the same work, and, if it did, its best
    /// times where they are faster.
    fn merge(&mut self, other: Measured, label: &str) {
        self.checked += other.checked + 1;
        self.failures.extend(other.failures);
        if other.counts != self.counts || other.events != self.events {
            self.failures
                .push(format!("{label} did different work: {:?}", other.counts));
            return;
        }
        keep_best(&mut self.best, &other.best);
        keep_best(&mut self.best_setup, &other.best_setup);
    }
}

/// One child process of an untraced run, as lines for the parent.
/// Process 0 runs one checked pass of the workload's whole job. A
/// measuring process (1 and up) has each worker thread sweep the units
/// until the next sweep is expected to end past `--seconds` (at least
/// one sweep each).
fn child(args: &Args, ctx: &Ctx, index: usize) -> Result<String, String> {
    if index == 0 {
        let it = workloads::iterate(args.workload, ctx, None);
        let m = Measured {
            checked: it.checked,
            failures: it.failures,
            ..Measured::default()
        };
        return Ok(encode(&m));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let units = workloads::units(args.workload, ctx);
    // Each worker folds its sweeps as it goes, so the process's memory
    // holds no more per sweep than the sweep itself.
    let per_worker: Vec<(Measured, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.workers)
            .map(|t| {
                let units = &units;
                scope.spawn(move || {
                    let dir = ctx.tmp.join(format!("worker{t}"));
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                    let mut m = Measured::from_sweep(workloads::sweep(ctx, units, &dir, true));
                    let mut done = 1;
                    let mut last = Duration::ZERO;
                    while Instant::now() + last <= deadline {
                        let start = Instant::now();
                        let s = workloads::sweep(ctx, units, &dir, false);
                        done += 1;
                        m.merge(Measured::from_sweep(s), &format!("worker {t} sweep {done}"));
                        last = start.elapsed();
                    }
                    Ok((m, done))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a measuring thread panicked"))
            .collect::<Result<_, String>>()
    })?;
    let sweeps = per_worker.iter().map(|(_, done)| *done).collect();
    let mut workers = per_worker.into_iter().map(|(m, _)| m);
    let mut m = workers.next().expect("at least one worker");
    for (t, w) in workers.enumerate() {
        m.merge(w, &format!("worker {}", t + 1));
    }
    m.names = units.iter().map(workloads::Unit::name).collect();
    m.sweeps = sweeps;
    m.rss = peak_rss_mb();
    Ok(encode(&m))
}

fn encode(m: &Measured) -> String {
    let mut out = String::new();
    for (((name, best), setup), events) in m
        .names
        .iter()
        .zip(&m.best)
        .zip(&m.best_setup)
        .zip(&m.events)
    {
        let _ = writeln!(out, "unit {name} {best:?} {setup:?} {events}");
    }
    for (name, v) in &m.counts {
        let _ = writeln!(out, "count {name} {v}");
    }
    for f in &m.failures {
        let _ = writeln!(out, "fail {}", f.replace('\n', " "));
    }
    let sweeps: Vec<String> = m.sweeps.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "checked {}", m.checked);
    let _ = writeln!(out, "sweeps {}", sweeps.join(" "));
    let _ = writeln!(out, "rss {:?}", m.rss);
    out
}

fn decode(text: &str) -> Result<Measured, String> {
    let bad = |line: &str| format!("unreadable line from a child process: {line}");
    let mut m = Measured::default();
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
        let f = |v: &str| v.parse::<f64>().map_err(|_| bad(line));
        let u = |v: &str| v.parse::<u64>().map_err(|_| bad(line));
        let fields: Vec<&str> = rest.split(' ').collect();
        let field = |i: usize| fields.get(i).copied().ok_or_else(|| bad(line));
        match tag {
            "unit" => {
                m.names.push(field(0)?.to_string());
                m.best.push(f(field(1)?)?);
                m.best_setup.push(f(field(2)?)?);
                m.events.push(u(field(3)?)?);
            }
            "count" => {
                m.counts.insert(field(0)?.to_string(), u(field(1)?)?);
            }
            "fail" => m.failures.push(rest.to_string()),
            "checked" => m.checked = u(field(0)?)?,
            "sweeps" => {
                m.sweeps = fields
                    .iter()
                    .filter(|v| !v.is_empty())
                    .map(|v| v.parse().map_err(|_| bad(line)))
                    .collect::<Result<_, _>>()?;
            }
            "rss" => m.rss = f(field(0)?)?,
            _ => return Err(bad(line)),
        }
    }
    Ok(m)
}

/// Runs child process `index` of the benchmark binary to its end and
/// reads what it found.
fn spawn(exe: &Path, args: &Args, seconds: f64, index: usize) -> Result<Measured, String> {
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .args(["--child", &index.to_string()])
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child process {index} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    decode(&String::from_utf8_lossy(&out.stdout))
}

/// The end-to-end run. A checking process runs the whole job once and
/// checks its outputs; then `PROCESSES` measuring processes, one after
/// the other, share what is left of `--seconds`, each starting from a
/// fresh heap. Each unit's time and set-up time is its best over every
/// sweep of every measuring process; the metrics sum them.
fn untraced(args: &Args, report: &mut String) -> Result<Outcome, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let start = Instant::now();
    let check = spawn(&exe, args, args.seconds, 0)?;
    let check_s = start.elapsed().as_secs_f64();
    let _ = writeln!(report, "checking process: whole job once, {check_s:.1} s");
    let share = ((args.seconds - check_s) / PROCESSES as f64).max(0.001);
    let mut runs = Vec::new();
    for index in 1..=PROCESSES {
        let m = spawn(&exe, args, share, index)?;
        let _ = writeln!(
            report,
            "process {index}: sweeps per worker {:?}, units {}, best-time sum {:.6} s, best set-up sum {:.4e} s, peak RSS {:.1} MiB",
            m.sweeps,
            m.best.len(),
            m.best.iter().sum::<f64>(),
            m.best_setup.iter().sum::<f64>(),
            m.rss
        );
        runs.push(m);
    }
    let line: Vec<String> = runs[0]
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let _ = writeln!(report, "counts {} (per sweep)", line.join(" "));
    let rss: Vec<f64> = runs.iter().map(|m| m.rss).collect();
    let mut runs = runs.into_iter();
    let mut m = runs.next().expect("at least one measuring process");
    for (i, other) in runs.enumerate() {
        m.merge(other, &format!("process {}", i + 2));
    }
    let attempted = m.checked + check.checked;
    let mut failures = check.failures;
    failures.extend(m.failures);
    for ((name, b), s) in m.names.iter().zip(&m.best).zip(&m.best_setup) {
        let _ = writeln!(
            report,
            "unit {name}: best {:.3} ms, set-up {:.2} us",
            b * 1e3,
            s * 1e6
        );
    }
    let (events, event_s) = m
        .events
        .iter()
        .zip(&m.best)
        .filter(|(&e, _)| e > 0)
        .fold((0u64, 0.0), |(e, s), (&ue, &us)| (e + ue, s + us));
    let values = [
        m.best_setup.iter().sum(),
        m.best.iter().sum(),
        events as f64 / event_s,
        median(&rss),
    ];
    Ok(Outcome {
        attempted,
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect(),
    })
}

fn traced(args: &Args, ctx: &Ctx, root: &Path, report: &mut String) -> Result<Outcome, String> {
    let w = args.workload;
    // A discarded warm-up pass first (heap growth, page faults, cold
    // caches), then pairs of untraced and traced passes while the next
    // pair is expected to end within half the time; the ledger follows.
    let start = Instant::now();
    let warmup = workloads::iterate(w, ctx, None);
    let warmup_s = start.elapsed().as_secs_f64();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let rec = Recorder::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut roots = Vec::new();
    let mut traced_pass = || {
        rec.span(0, "workload", |id| {
            roots.push(id);
            workloads::iterate(
                w,
                ctx,
                Some(Tracer {
                    rec: &rec,
                    parent: id,
                }),
            )
        })
    };
    // Alternate which of the pair goes first, so neither always runs on
    // the other's leftovers.
    let mut last = Duration::ZERO;
    while traced.is_empty() || Instant::now() + last <= deadline {
        let pair = Instant::now();
        if traced.len() % 2 == 0 {
            plain.push(workloads::iterate(w, ctx, None));
            traced.push(traced_pass());
        } else {
            traced.push(traced_pass());
            plain.push(workloads::iterate(w, ctx, None));
        }
        last = pair.elapsed();
    }
    let passes_s = start.elapsed().as_secs_f64() - warmup_s;
    let roster = workloads::ledger_roster(w, ctx);
    let l = rec.span(0, "ledger", |_| {
        ledger::measure(&roster, w == Workload::CellTrace, LEDGER_REPS)
    })?;
    let _ = writeln!(
        report,
        "traced run: warm-up pass {warmup_s:.1} s, {} untraced/traced pairs {passes_s:.1} s, ledger {:.1} s",
        traced.len(),
        start.elapsed().as_secs_f64() - warmup_s - passes_s
    );

    let out_dir = root.join(".bench_out");
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    if std::fs::create_dir_all(&out_dir).is_ok()
        && std::fs::write(&spans_path, rec.to_jsonl()).is_ok()
    {
        let _ = writeln!(report, "spans written to {}", spans_path.display());
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let spans = rec.spans();
    for module in MODULES {
        let name = format!("experiments.{module}");
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && roots.contains(&s.parent))
            .map(crate::spans::Span::secs)
            .collect();
        if !d.is_empty() {
            values.insert(format!("{name}.wall_s"), median(&d));
        }
    }
    let sweeps: Vec<_> = spans.iter().filter(|s| s.name == "sweep").collect();
    let cells: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "cell" && sweeps.iter().any(|p| p.id == s.parent))
        .map(crate::spans::Span::secs)
        .collect();
    if !cells.is_empty() {
        let per_sweep = cells.len() / sweeps.len();
        values.insert("experiments.cells".into(), per_sweep as f64);
        values.insert("experiments.workers".into(), ctx.workers as f64);
        values.insert("experiments.cell_s_p50".into(), median(&cells));
        values.insert("experiments.cell_s_max".into(), quantile(&cells, 1.0));
        if let Some(p) = tail_percentile(cells.len()) {
            values.insert("experiments.cell_tail_percentile".into(), f64::from(p));
            values.insert(
                "experiments.cell_s_tail".into(),
                quantile(&cells, f64::from(p) / 100.0),
            );
        }
        let idle: Vec<f64> = sweeps
            .iter()
            .map(|sweep| {
                let busy: f64 = spans
                    .iter()
                    .filter(|s| s.parent == sweep.id)
                    .map(crate::spans::Span::secs)
                    .sum();
                1.0 - busy / (ctx.workers as f64 * sweep.secs())
            })
            .collect();
        values.insert("experiments.worker_idle_share".into(), median(&idle));
    }
    ledger_values(&l, &mut values);
    let plain_walls: Vec<f64> = plain.iter().map(|it| it.wall_s).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|it| it.wall_s).collect();
    let (u, t) = (median(&plain_walls), median(&traced_walls));
    values.insert("trace.untraced_wall_s".into(), u);
    values.insert("trace.wall_s".into(), t);
    values.insert("trace.overhead_share".into(), t / u - 1.0);
    for name in plain[0].rates.keys() {
        let v: Vec<f64> = plain.iter().map(|it| it.rates[name]).collect();
        values.insert(name.clone(), median(&v));
    }
    write_ledger(&l, report);

    let mut all: Vec<Iteration> = vec![warmup];
    all.extend(plain);
    all.extend(traced);
    let (attempted, failures) = verdict(&all, report);
    Ok(Outcome {
        attempted,
        failures,
        metrics: per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect(),
    })
}

fn ledger_values(l: &Ledger, values: &mut BTreeMap<String, f64>) {
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    values.insert("sim.runner.ns_per_event".into(), per(l.runner_ns, l.events));
    values.insert(
        "sim.calendar.ns_per_op".into(),
        per(l.calendar_ns, l.calendar_ops),
    );
    values.insert(
        "sim.calendar.ops_per_event".into(),
        per(l.calendar_ops as f64, l.events),
    );
    for (row, v) in l.rows() {
        if row == "residual" {
            values.insert("sim.residual.ns_per_event".into(), v);
        } else {
            values.insert(format!("ledger.{row}.ns_per_event"), v);
        }
    }
    for &(slug, ns, grants) in &l.core_by_slug {
        values.insert(format!("core.{slug}.ns_per_arbitration"), per(ns, grants));
    }
    values.insert(
        "core.arbitrations_per_grant".into(),
        per(l.arbitrations as f64, l.grants),
    );
    for (family, ns) in ["exp", "erlang", "uniform"].into_iter().zip(l.draw_unit) {
        values.insert(format!("workload.draw.{family}.ns_per_draw"), ns);
    }
    values.insert(
        "stats.batch_means.ns_per_sample".into(),
        per(l.batch_means_ns, l.samples),
    );
    values.insert(
        "stats.cdf.ns_per_sample".into(),
        per(l.cdf_ns, l.cdf_samples),
    );
    values.insert(
        "obs.registry.ns_per_event".into(),
        per(l.registry_ns, l.events),
    );
    for (framing, &(write, bytes, read)) in ["btrc", "jsonl"].into_iter().zip(&l.framings) {
        values.insert(
            format!("obs.export.{framing}.ns_per_record"),
            per(write, l.trace_records),
        );
        values.insert(
            format!("obs.export.{framing}.bytes_per_record"),
            per(bytes as f64, l.trace_records),
        );
        values.insert(
            format!("obs.stream.{framing}.ns_per_record"),
            per(read, l.trace_records),
        );
    }
    values.insert(
        "tail.pipeline.ns_per_event".into(),
        per(l.tail_ns, l.trace_records),
    );
    values.insert(
        "mem.next_miss.ns_per_call".into(),
        per(l.mem_next_ns, l.misses),
    );
    values.insert(
        "mem.complete.ns_per_call".into(),
        per(l.mem_complete_ns, l.mem_completions),
    );
    values.insert("mem.refs_per_miss".into(), per(l.refs as f64, l.misses));
    values.insert(
        "mem.invalidations_per_completion".into(),
        per(l.invalidations as f64, l.mem_completions),
    );
}

fn write_ledger(l: &Ledger, report: &mut String) {
    let runner = l.runner_ns / l.events.max(1) as f64;
    let _ = writeln!(
        report,
        "ledger over {} cells, {} events: full loop {runner:.2} ns/event",
        l.cells, l.events
    );
    for (row, ns) in l.rows() {
        let _ = writeln!(
            report,
            "ledger {row:<9} {ns:>8.2} ns/event {:>6.1}%",
            100.0 * ns / runner
        );
    }
    let _ = writeln!(
        report,
        "ledger counts events={} calendar_ops={} grants={} arbitrations={} draws={} samples={} misses={} invalidations={} trace_records={}",
        l.events, l.calendar_ops, l.grants, l.arbitrations, l.draws, l.samples, l.misses, l.invalidations, l.trace_records
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(events: u64) -> Iteration {
        let mut it = Iteration {
            checked: 2,
            ..Iteration::default()
        };
        it.counts.insert("events".into(), events);
        it
    }

    fn sweep(events: u64) -> Sweep {
        let mut s = Sweep {
            secs: vec![0.002, 0.003],
            setup: vec![1e-6, 2e-6],
            events: vec![events, events],
            checked: 1,
            ..Sweep::default()
        };
        s.counts.insert("events".into(), 2 * events);
        s
    }

    #[test]
    fn merge_keeps_each_units_best_and_fires_once_on_a_sweep_that_did_other_work() {
        let mut fast = sweep(10);
        fast.secs[1] = 0.001;
        let mut m = Measured::from_sweep(sweep(10));
        m.merge(Measured::from_sweep(fast), "sweep 2");
        m.merge(Measured::from_sweep(sweep(10)), "sweep 3");
        assert_eq!(m.best, vec![0.002, 0.001]);
        assert_eq!((m.checked, m.failures.len()), (5, 0), "{:?}", m.failures);
        let mut m = Measured::from_sweep(sweep(10));
        let mut slow = sweep(11);
        slow.secs[0] = 0.0001;
        m.merge(Measured::from_sweep(slow), "sweep 2");
        m.merge(Measured::from_sweep(sweep(10)), "sweep 3");
        assert_eq!(m.checked, 5);
        assert_eq!(m.failures.len(), 1, "{:?}", m.failures);
        assert!(m.failures[0].starts_with("sweep 2 did different work"));
        assert_eq!(m.best, vec![0.002, 0.003], "other work sets no best time");
    }

    #[test]
    fn measured_round_trips_through_the_child_protocol() {
        let mut m = Measured::from_sweep(sweep(10));
        m.merge(Measured::from_sweep(sweep(10)), "sweep 2");
        m.names = vec!["a".into(), "b-1".into()];
        m.failures.push("x: differs".into());
        m.sweeps = vec![2];
        m.rss = 12.5;
        assert_eq!(decode(&encode(&m)), Ok(m));
        let check = Measured {
            checked: 3,
            ..Measured::default()
        };
        assert_eq!(decode(&encode(&check)), Ok(check));
    }

    #[test]
    fn verdict_fires_once_on_an_iteration_that_did_other_work() {
        let mut report = String::new();
        let (attempted, failures) = verdict(&[pass(10), pass(10), pass(10)], &mut report);
        assert_eq!((attempted, failures.len()), (8, 0), "{failures:?}");
        let (attempted, failures) = verdict(&[pass(10), pass(11), pass(10)], &mut report);
        assert_eq!(attempted, 8);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("iteration 2 did different work"));
    }
}
