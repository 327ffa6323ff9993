//! The three workloads: their fixed work, their set-up, and the checks
//! on their outputs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use busarb_core::ProtocolKind;
use busarb_experiments::common::seed_for;
use busarb_experiments::grid::Grid;
use busarb_experiments::{
    ablations, bursty, coherence, figure4_1, observe, priority_study, protocol_slug,
    run_cells_with, scaling, set_engine, set_jobs, table4_1, table4_2, table4_3, table4_4,
    table4_5, tails, validation, worst_case_fcfs, Scale,
};
use busarb_obs::{BinarySink, JsonlSink, TraceFormat, TraceSink};
use busarb_sim::{RunReport, Simulation, SystemConfig};
use busarb_stats::BatchMeansConfig;
use busarb_workload::{CoherenceConfig, DrawEngineKind, Scenario};
use serde::Serialize;

use crate::checks;
use crate::ledger::{trace_header, LedgerCell};
use crate::setup::{setup_secs, Dispatch};
use crate::spans::Recorder;
use crate::util::secs;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `repro all` at paper scale: the product's main job.
    ReproPaper,
    /// Closed-loop MESI cells under three cache mixes.
    MesiClosed,
    /// One long open-loop cell: untraced, then exported and analysed in
    /// each trace framing.
    CellTrace,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReproPaper,
        Workload::MesiClosed,
        Workload::CellTrace,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproPaper => "repro-paper",
            Workload::MesiClosed => "mesi-closed",
            Workload::CellTrace => "cell-trace",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does: the benchmark's size, or a smoke size for
/// the self-tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Seconds-scale sizes for the self-tests.
    Smoke,
}

/// Where a run's outputs are checked against.
#[derive(Clone, Debug)]
pub enum Goldens {
    /// A directory of committed outputs (`results/`).
    Dir(PathBuf),
    /// In-memory outputs, by file name (self-tests).
    Map(BTreeMap<String, String>),
}

impl Goldens {
    fn get(&self, name: &str) -> Option<String> {
        match self {
            Goldens::Dir(dir) => std::fs::read_to_string(dir.join(name)).ok(),
            Goldens::Map(map) => map.get(name).cloned(),
        }
    }
}

/// Everything a workload needs besides its name.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Work size.
    pub size: Size,
    /// The run's seed; seeded workloads derive every cell seed from it.
    pub seed: u64,
    /// Sweep worker threads (never more than `available_parallelism`).
    pub workers: usize,
    /// Committed outputs to check against.
    pub goldens: Goldens,
    /// Directory for temp files, removed by the caller.
    pub tmp: PathBuf,
}

/// What one pass of a workload's fixed work did.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Host seconds of the fixed work (checks excluded).
    pub wall_s: f64,
    /// Simulated events (`RunReport.events`) the rate is taken over.
    pub events: u64,
    /// Host seconds those events were simulated in.
    pub event_s: f64,
    /// Deterministic work counts; they must repeat exactly.
    pub counts: BTreeMap<String, u64>,
    /// Outputs checked.
    pub checked: u64,
    /// One line per output that failed its check.
    pub failures: Vec<String>,
    /// Throughputs of individual phases (cell-trace framings), per second.
    pub rates: BTreeMap<String, f64>,
}

impl Iteration {
    fn check(&mut self, result: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// A span recorder and the span new spans hang under.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    /// The recorder.
    pub rec: &'a Recorder,
    /// Parent span id.
    pub parent: u64,
}

/// Runs `f` in a span when tracing, directly otherwise.
fn span<T>(tr: Option<Tracer<'_>>, name: &str, f: impl FnOnce(Option<Tracer<'_>>) -> T) -> T {
    match tr {
        None => f(None),
        Some(t) => t.rec.span(t.parent, name, |id| {
            f(Some(Tracer {
                rec: t.rec,
                parent: id,
            }))
        }),
    }
}

/// Runs one pass of the workload's fixed work and checks its outputs.
#[must_use]
pub fn iterate(w: Workload, ctx: &Ctx, tr: Option<Tracer<'_>>) -> Iteration {
    set_jobs(ctx.workers);
    set_engine(DrawEngineKind::Reference);
    match w {
        Workload::ReproPaper => repro_paper(ctx, tr),
        Workload::MesiClosed => mesi_closed(ctx, tr),
        Workload::CellTrace => cell_trace(ctx, tr),
    }
}

fn paper_scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Paper,
        Size::Smoke => Scale::Smoke,
    }
}

/// The text and JSON outputs of `repro all`, as the binary writes them.
#[derive(Default)]
struct Outputs {
    text: String,
    json: Vec<(String, String)>,
}

impl Outputs {
    fn emit<T: Serialize>(&mut self, name: &str, value: &T, text: String) {
        self.text.push_str(&text);
        self.text.push('\n');
        let json = serde_json::to_string_pretty(value).expect("experiment results serialise");
        self.json.push((format!("{name}.json"), json));
    }

    fn ablation(&mut self, a: &ablations::Ablation) {
        self.emit(&a.name.replace('.', "_"), a, ablations::format(a));
    }
}

/// `repro --scale paper all`, call for call, with tracing spans around
/// each experiment module and each grid cell.
fn repro_paper(ctx: &Ctx, tr: Option<Tracer<'_>>) -> Iteration {
    let scale = paper_scale(ctx.size);
    busarb_experiments::enable_rollups();
    let mut out = Outputs::default();
    let start = Instant::now();
    let grid = span(tr, "experiments.grid", |tr| {
        let grid = match tr {
            None => Grid::compute(scale),
            Some(t) => {
                let points: Vec<(u32, f64)> = busarb_experiments::common::PAPER_SIZES
                    .iter()
                    .flat_map(|&n| {
                        busarb_experiments::common::paper_loads(n)
                            .into_iter()
                            .map(move |l| (n, l))
                    })
                    .collect();
                let cells = t.rec.span(t.parent, "sweep", |sweep| {
                    run_cells_with(ctx.workers, points, |(n, load)| {
                        t.rec
                            .span(sweep, "cell", |_| Grid::compute_cell(n, load, scale))
                    })
                });
                Grid { cells, scale }
            }
        };
        let t1 = table4_1::from_grid(&grid);
        out.emit("table4_1", &t1, table4_1::format(&t1));
        let t2 = table4_2::from_grid(&grid);
        out.emit("table4_2", &t2, table4_2::format(&t2));
        let f = figure4_1::from_grid(&grid);
        out.emit("figure4_1", &f, figure4_1::format(&f));
        let t3 = table4_3::from_grid(&grid);
        out.emit("table4_3", &t3, table4_3::format(&t3));
        grid
    });
    drop(grid);
    span(tr, "experiments.table4_4", |_| {
        let t = table4_4::run(scale);
        out.emit("table4_4", &t, table4_4::format(&t));
    });
    span(tr, "experiments.table4_5", |_| {
        let t = table4_5::run(scale);
        out.emit("table4_5", &t, table4_5::format(&t));
    });
    span(tr, "experiments.ablations", |_| {
        for a in ablations::all(scale) {
            out.ablation(&a);
        }
    });
    span(tr, "experiments.tails", |_| {
        let t = tails::run(scale);
        out.emit("tails", &t, tails::format(&t));
    });
    span(tr, "experiments.bursty", |_| {
        let b = bursty::run(scale);
        out.emit("bursty", &b, bursty::format(&b));
    });
    span(tr, "experiments.worst_case_fcfs", |_| {
        let w = worst_case_fcfs::run(scale);
        out.emit("worst_case_fcfs", &w, worst_case_fcfs::format(&w));
    });
    span(tr, "experiments.priority_study", |_| {
        let p = priority_study::run(scale);
        out.emit("priority_study", &p, priority_study::format(&p));
    });
    span(tr, "experiments.scaling", |_| {
        let s = scaling::run(scale);
        out.emit("scaling", &s, scaling::format(&s));
    });
    span(tr, "experiments.validation", |_| {
        let c = validation::ci_coverage(scale, 40);
        out.emit("ci_coverage", &c, validation::format_coverage(&c));
        let d = validation::batch_diagnostics(scale);
        out.emit("batch_diagnostics", &d, validation::format_diagnostics(&d));
    });
    let wall = secs(start);

    let mut it = Iteration {
        wall_s: wall,
        event_s: wall,
        ..Iteration::default()
    };
    let ran: Vec<String> = rollup_counts(&mut it)
        .into_iter()
        .filter(|tag| tag.starts_with("grid-"))
        .collect();
    let mut timed: Vec<String> = grid_runs().iter().map(GridRun::tag).collect();
    timed.sort();
    it.check(checks::same_cells("setup_s grid runs", &timed, &ran));
    it.check(checks::same_bytes(
        "repro_paper.txt",
        &out.text,
        ctx.goldens.get("repro_paper.txt"),
    ));
    for (name, json) in &out.json {
        it.check(checks::same_bytes(name, json, ctx.goldens.get(name)));
    }
    it
}

/// Folds the experiment layer's per-cell rollups into the work counts
/// and returns their tags, sorted. Modules that run `Simulation` without
/// offering a rollup add time but no counted events.
fn rollup_counts(it: &mut Iteration) -> Vec<String> {
    let cells = busarb_experiments::take_rollups().unwrap_or_default();
    let sum =
        |f: fn(&busarb_obs::MetricsSnapshot) -> u64| cells.iter().map(|(_, m)| f(m)).sum::<u64>();
    it.events += sum(|m| m.events);
    *it.counts.entry("rollup_cells".into()).or_default() += cells.len() as u64;
    *it.counts.entry("events".into()).or_default() += sum(|m| m.events);
    *it.counts.entry("grants".into()).or_default() += sum(|m| m.grants);
    *it.counts.entry("arbitrations".into()).or_default() += sum(|m| m.arbitrations);
    cells.into_iter().map(|(tag, _)| tag).collect()
}

/// The three cache mixes of `mesi-closed`.
#[must_use]
fn mesi_mixes() -> [(&'static str, CoherenceConfig); 3] {
    [
        ("default", CoherenceConfig::default_mix()),
        // Nine references in ten go to an 8-line shared region and half
        // are writes, so completions fan invalidations out to most caches.
        (
            "high-sharing",
            CoherenceConfig::new(64, 8, 0.9, 0.5, 0.05, 0.25).expect("valid mix"),
        ),
        // 2^18 private lines per agent: 2.5 MiB of cache state at N = 10
        // and 16 MiB at N = 64, beyond the 2 MiB of L2 per core of the
        // 2-vCPU Xeon the benchmark was sized on, even at the smallest size.
        (
            "large-working-set",
            CoherenceConfig::new(1 << 18, 16, 0.05, 0.3, 0.05, 0.25).expect("valid mix"),
        ),
    ]
}

/// System sizes of the `mesi-closed` sweep.
const MESI_SIZES: [u32; 3] = [10, 30, 64];

fn mesi_batches(size: Size) -> (BatchMeansConfig, usize) {
    match size {
        Size::Full => (BatchMeansConfig::quick(500), 250),
        Size::Smoke => (BatchMeansConfig::quick(150), 300),
    }
}

/// One seeded `mesi-closed` cell.
struct MesiCell {
    label: String,
    kind: ProtocolKind,
    n: u32,
    mix: CoherenceConfig,
    seed: u64,
}

impl MesiCell {
    fn config(&self, size: Size) -> SystemConfig {
        let (batches, warmup) = mesi_batches(size);
        let scenario = Scenario::closed_loop(self.n, self.mix).expect("valid scenario");
        SystemConfig::new(scenario)
            .with_batches(batches)
            .with_warmup(warmup)
            .with_seed(self.seed)
            .with_draw_engine(DrawEngineKind::Reference)
    }
}

/// The seeded `mesi-closed` cells; every seed comes from the run's seed
/// and the cell's label.
fn mesi_cells(ctx: &Ctx) -> Vec<MesiCell> {
    let mut cells = Vec::new();
    for (mix_name, mix) in mesi_mixes() {
        for &n in &MESI_SIZES {
            for &kind in &coherence::PROTOCOLS {
                let label = format!("{mix_name}-{n}-{kind}");
                let seed = seed_for(&format!("perfbench-{label}-{}", ctx.seed));
                cells.push(MesiCell {
                    label,
                    kind,
                    n,
                    mix,
                    seed,
                });
            }
        }
    }
    cells
}

fn run_cell(kind: ProtocolKind, config: SystemConfig) -> RunReport {
    Simulation::new(config)
        .expect("benchmark configs are valid")
        .run_kind(kind)
        .expect("benchmark sizes are valid")
}

fn mesi_closed(ctx: &Ctx, tr: Option<Tracer<'_>>) -> Iteration {
    busarb_experiments::enable_rollups();
    let cells = mesi_cells(ctx);
    let runs: Vec<(ProtocolKind, SystemConfig)> =
        cells.iter().map(|c| (c.kind, c.config(ctx.size))).collect();
    let start = Instant::now();
    let roster = span(tr, "experiments.coherence", |_| {
        serde_json::to_string_pretty(&coherence::run(Scale::Paper)).expect("results serialise")
    });
    let reports = span(tr, "sweep", |tr| {
        run_cells_with(ctx.workers, runs, |(kind, config)| match tr {
            None => run_cell(kind, config),
            Some(t) => t.rec.span(t.parent, "cell", |_| run_cell(kind, config)),
        })
    });
    let wall = secs(start);

    let mut it = Iteration {
        wall_s: wall,
        event_s: wall,
        ..Iteration::default()
    };
    rollup_counts(&mut it);
    it.check(checks::same_bytes(
        "coherence.json",
        &roster,
        ctx.goldens.get("coherence.json"),
    ));
    for (cell, report) in cells.iter().zip(&reports) {
        it.check(checks::mesi_accounting(&cell.label, &report.metrics));
        let m = &report.metrics;
        it.events += report.events;
        let counts = [
            ("events", report.events),
            ("grants", report.grants),
            ("arbitrations", report.arbitrations),
            ("read_misses", m.read_misses.iter().sum()),
            ("write_misses", m.write_misses.iter().sum()),
            ("upgrades", m.upgrades.iter().sum()),
            ("invalidations", m.invalidations.iter().sum()),
        ];
        for (name, v) in counts {
            *it.counts.entry(name.into()).or_default() += v;
        }
    }
    it
}

/// The `cell-trace` cell: 30 agents at total load 0.95, just below the
/// bus's saturation, under distributed round-robin.
#[must_use]
pub fn trace_cell(ctx: &Ctx) -> (ProtocolKind, SystemConfig) {
    let (batches, warmup) = match ctx.size {
        Size::Full => (BatchMeansConfig::quick(500), 1000),
        Size::Smoke => (BatchMeansConfig::quick(300), 300),
    };
    let scenario = Scenario::equal_load(30, 0.95, 1.0).expect("valid scenario");
    let config = SystemConfig::new(scenario)
        .with_batches(batches)
        .with_warmup(warmup)
        .with_seed(seed_for(&format!("perfbench-cell-trace-{}", ctx.seed)))
        .with_draw_engine(DrawEngineKind::Reference);
    (ProtocolKind::RoundRobin, config)
}

/// Back-to-back runs of the cell in the untraced phase of a whole pass
/// (the checking process and the traced run), which must agree.
const UNTRACED_RUNS: usize = 5;

/// The two framings, with the names the metrics use.
const FRAMINGS: [(TraceFormat, &str); 2] =
    [(TraceFormat::Binary, "btrc"), (TraceFormat::Jsonl, "jsonl")];

fn cell_trace(ctx: &Ctx, tr: Option<Tracer<'_>>) -> Iteration {
    let (kind, config) = trace_cell(ctx);
    let mut it = Iteration::default();
    let (runs, t_live) = span(tr, "phase.untraced", |_| {
        crate::util::timed(|| {
            (0..UNTRACED_RUNS)
                .map(|_| run_cell(kind, config.clone()))
                .collect::<Vec<_>>()
        })
    });
    it.wall_s += t_live;
    it.events = runs.iter().map(|r| r.events).sum();
    it.event_s = t_live;
    let live = &runs[0];
    // Trace records the run emits: request, arbitration start, transfer
    // start and transfer end per served request.
    let m = &live.metrics;
    let records = m.requests + m.grants + m.transfers_started + m.completions;
    let live_dump = format!("{live:?}");
    for (i, run) in runs.iter().enumerate().skip(1) {
        it.check(checks::same_report(
            &format!("untraced run {}", i + 1),
            &live_dump,
            run,
        ));
    }
    for (format, name) in FRAMINGS {
        let path = ctx.tmp.join(format!("cell.{name}"));
        let (exported, t_export) = span(tr, &format!("phase.{name}.export"), |_| {
            crate::util::timed(|| run_cell(kind, config.clone().with_trace_export(&path, format)))
        });
        let (analysis, t_analyze) = span(tr, &format!("phase.{name}.analyze"), |_| {
            crate::util::timed(|| {
                busarb_tail::analyze_path(&path).map(|report| {
                    let text = report.render_text();
                    (report, text)
                })
            })
        });
        it.wall_s += t_export + t_analyze;
        it.rates.insert(
            format!("{name}_export_events_per_s"),
            records as f64 / t_export,
        );
        it.rates.insert(
            format!("{name}_analyze_events_per_s"),
            records as f64 / t_analyze,
        );
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        it.counts.insert(format!("{name}_bytes"), bytes);

        it.check(checks::same_report(name, &live_dump, &exported));
        it.check(match observe::inspect(&path) {
            Ok(replay) => observe::cross_check(&exported, &replay)
                .map_err(|d| format!("{name} replay: {}", d.join("; "))),
            Err(e) => Err(format!("{name} replay: {e}")),
        });
        it.check(match &analysis {
            Ok((report, _)) => checks::analyzed_all(name, report.events, records),
            Err(e) => Err(format!("{name} analyze: {e}")),
        });
        let _ = std::fs::remove_file(&path);
    }
    let counts = [
        ("events", live.events),
        ("grants", live.grants),
        ("arbitrations", live.arbitrations),
        ("trace_records", records),
    ];
    for (name, v) in counts {
        it.counts.insert(name.into(), v);
    }
    it
}

/// One run of the shared grid of `repro all`, as `Grid::compute_cell`
/// sets it up. `repro_paper` checks this list against the grid's own
/// cell tags on every pass.
struct GridRun {
    slug: &'static str,
    n: u32,
    load: f64,
    kind: ProtocolKind,
    dispatch: Dispatch,
    cdf: bool,
}

impl GridRun {
    /// The run's seed tag.
    fn tag(&self) -> String {
        format!("grid-{}-{}-{}", self.slug, self.n, self.load)
    }

    /// Runs it as the grid does: through `run_kind` for a concrete
    /// protocol, with a boxed arbiter otherwise.
    fn run(&self, scale: Scale) -> RunReport {
        let sim = Simulation::new(self.config(scale)).expect("benchmark configs are valid");
        let expect = "benchmark sizes are valid";
        match self.dispatch {
            Dispatch::Concrete => sim.run_kind(self.kind).expect(expect),
            Dispatch::Boxed => sim.run(self.kind.build(self.n).expect(expect)),
        }
    }

    fn config(&self, scale: Scale) -> SystemConfig {
        let scenario = Scenario::equal_load(self.n, self.load, 1.0).expect("valid scenario");
        let config = SystemConfig::new(scenario)
            .with_batches(scale.batches())
            .with_warmup(scale.warmup())
            .with_seed(seed_for(&self.tag()))
            .with_draw_engine(DrawEngineKind::Reference);
        if self.cdf {
            config.with_cdf()
        } else {
            config
        }
    }
}

/// The grid's runs: RR and FCFS-1 through `run_kind` with a CDF at every
/// size and load, and AAP-1 as a boxed arbiter at 30 agents.
fn grid_runs() -> Vec<GridRun> {
    use busarb_experiments::common::{paper_loads, PAPER_SIZES};
    let mut runs = Vec::new();
    for &n in &PAPER_SIZES {
        for load in paper_loads(n) {
            let run = |slug, kind, dispatch, cdf| GridRun {
                slug,
                n,
                load,
                kind,
                dispatch,
                cdf,
            };
            runs.push(run(
                "rr",
                ProtocolKind::RoundRobin,
                Dispatch::Concrete,
                true,
            ));
            runs.push(run("fcfs", ProtocolKind::Fcfs1, Dispatch::Concrete, true));
            if n == 30 {
                runs.push(run(
                    "aap",
                    ProtocolKind::AssuredAccessIdleBatch,
                    Dispatch::Boxed,
                    false,
                ));
            }
        }
    }
    runs
}

/// The cells whose layers the traced run's ledger measures.
#[must_use]
pub fn ledger_roster(w: Workload, ctx: &Ctx) -> Vec<LedgerCell> {
    let (batches, warmup) = match ctx.size {
        Size::Full => (BatchMeansConfig::quick(1500), 1500),
        Size::Smoke => (BatchMeansConfig::quick(100), 100),
    };
    let cell = |kind, scenario, seed, cdf: bool| {
        let mut config = SystemConfig::new(scenario)
            .with_batches(batches)
            .with_warmup(warmup)
            .with_seed(seed)
            .with_draw_engine(DrawEngineKind::Reference);
        if cdf {
            config = config.with_cdf();
        }
        LedgerCell { kind, config }
    };
    match w {
        // Every protocol the paper reproduction runs, at the grid's
        // 30-agent, load-2.0 point with the CDF the grid collects.
        Workload::ReproPaper => ProtocolKind::all()
            .iter()
            .map(|&kind| {
                let scenario = Scenario::equal_load(30, 2.0, 1.0).expect("valid scenario");
                cell(kind, scenario, seed_for(&format!("ledger-{kind}")), true)
            })
            .collect(),
        Workload::MesiClosed => mesi_mixes()
            .into_iter()
            .flat_map(|(name, mix_cfg)| {
                coherence::PROTOCOLS.iter().map(move |&kind| {
                    let scenario = Scenario::closed_loop(30, mix_cfg).expect("valid scenario");
                    let seed = seed_for(&format!("ledger-{name}-{kind}-{}", ctx.seed));
                    (kind, scenario, seed)
                })
            })
            .map(|(kind, scenario, seed)| cell(kind, scenario, seed, false))
            .collect(),
        Workload::CellTrace => {
            let (kind, config) = trace_cell(ctx);
            vec![cell(kind, config.scenario, config.seed, false)]
        }
    }
}

/// A phase of the `cell-trace` round; the framings index [`FRAMINGS`].
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// The cell, untraced.
    Untraced,
    /// The cell, exporting its trace.
    Export(usize),
    /// `busarb analyze` of the exported trace.
    Analyze(usize),
}

/// One timed unit of a workload's fixed work: one simulation run, or one
/// phase of the `cell-trace` round. A unit takes milliseconds, so among
/// many repetitions some land wholly on the host's fast level (see
/// `README.md`).
pub struct Unit(UnitKind);

enum UnitKind {
    /// A grid run and the `Debug` form of the report the program's own
    /// grid made for it.
    Grid(GridRun, String),
    Mesi(MesiCell),
    Trace(Phase),
}

impl Unit {
    /// The unit's name in reports.
    #[must_use]
    pub fn name(&self) -> String {
        match &self.0 {
            UnitKind::Grid(run, _) => run.tag(),
            UnitKind::Mesi(cell) => cell.label.clone(),
            UnitKind::Trace(Phase::Untraced) => "untraced".into(),
            UnitKind::Trace(Phase::Export(i)) => format!("{}.export", FRAMINGS[*i].1),
            UnitKind::Trace(Phase::Analyze(i)) => format!("{}.analyze", FRAMINGS[*i].1),
        }
    }
}

/// The scale the `repro-paper` grid runs are timed at: `repro --scale
/// quick`. A paper-scale run takes 15–30 ms, too long to land wholly on
/// the host's fast level often enough; a quick-scale run takes 3–6 ms.
fn grid_scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Quick,
        Size::Smoke => Scale::Smoke,
    }
}

/// The timed units of a workload, in the order a sweep runs them:
/// `repro-paper` the runs of the `repro all` grid (Tables 4.1–4.3 and
/// Figure 4.1), `mesi-closed` its seeded cells, `cell-trace` the cell
/// untraced, then exported and analysed in each framing. For
/// `repro-paper` this runs the program's own grid at the timed scale,
/// whose reports the timed runs must reproduce.
#[must_use]
pub fn units(w: Workload, ctx: &Ctx) -> Vec<Unit> {
    match w {
        Workload::ReproPaper => {
            set_jobs(ctx.workers);
            set_engine(DrawEngineKind::Reference);
            let grid = Grid::compute(grid_scale(ctx.size));
            grid_runs()
                .into_iter()
                .map(|run| {
                    let cell = grid
                        .cell(run.n, run.load)
                        .expect("the grid has every point");
                    let report = match run.slug {
                        "rr" => Some(&cell.rr),
                        "fcfs" => Some(&cell.fcfs),
                        _ => cell.aap.as_ref(),
                    };
                    let expected = format!("{:?}", report.expect("the grid made every run"));
                    Unit(UnitKind::Grid(run, expected))
                })
                .collect()
        }
        Workload::MesiClosed => mesi_cells(ctx)
            .into_iter()
            .map(|c| Unit(UnitKind::Mesi(c)))
            .collect(),
        Workload::CellTrace => {
            let mut v = vec![Unit(UnitKind::Trace(Phase::Untraced))];
            for i in 0..FRAMINGS.len() {
                v.push(Unit(UnitKind::Trace(Phase::Export(i))));
                v.push(Unit(UnitKind::Trace(Phase::Analyze(i))));
            }
            v
        }
    }
}

/// One run of every unit, in order, by one thread.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    /// Host seconds of each unit.
    pub secs: Vec<f64>,
    /// Host seconds of each unit's set-up (see [`crate::setup`]).
    pub setup: Vec<f64>,
    /// Simulated events of each unit, for `events_per_s` (0 for the
    /// trace phases that export or analyse).
    pub events: Vec<u64>,
    /// Deterministic work counts; they must repeat exactly.
    pub counts: BTreeMap<String, u64>,
    /// Outputs checked.
    pub checked: u64,
    /// One line per output that failed its check.
    pub failures: Vec<String>,
}

impl Sweep {
    fn check(&mut self, result: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    fn count(&mut self, name: &str, v: u64) {
        *self.counts.entry(name.into()).or_default() += v;
    }

    fn report_counts(&mut self, r: &RunReport) {
        self.count("events", r.events);
        self.count("grants", r.grants);
        self.count("arbitrations", r.arbitrations);
    }
}

/// Runs every unit once, timing each and its set-up separately, and
/// checks what the units produced. `first` adds the checks that cost
/// more than a unit: each grid run's report against the program's, and
/// each export replayed against its run. `dir` holds this thread's
/// traces.
#[must_use]
pub fn sweep(ctx: &Ctx, units: &[Unit], dir: &std::path::Path, first: bool) -> Sweep {
    let scale = grid_scale(ctx.size);
    let mut s = Sweep::default();
    let mut live: Option<(String, u64)> = None;
    for unit in units {
        let (setup, secs, events) = match &unit.0 {
            UnitKind::Grid(run, expected) => {
                let setup = setup_secs(run.kind, run.dispatch, || run.config(scale));
                let (report, secs) = crate::util::timed(|| run.run(scale));
                s.report_counts(&report);
                if first {
                    s.check(checks::same_report(&run.tag(), expected, &report));
                }
                (setup, secs, report.events)
            }
            UnitKind::Mesi(cell) => {
                let config = cell.config(ctx.size);
                let setup = setup_secs(cell.kind, Dispatch::Concrete, || config.clone());
                let (report, secs) = crate::util::timed(|| run_cell(cell.kind, config));
                s.check(checks::mesi_accounting(&cell.label, &report.metrics));
                s.report_counts(&report);
                let m = &report.metrics;
                s.count("read_misses", m.read_misses.iter().sum());
                s.count("write_misses", m.write_misses.iter().sum());
                s.count("upgrades", m.upgrades.iter().sum());
                s.count("invalidations", m.invalidations.iter().sum());
                (setup, secs, report.events)
            }
            UnitKind::Trace(phase) => {
                let (kind, config) = trace_cell(ctx);
                match *phase {
                    Phase::Untraced => {
                        let setup = setup_secs(kind, Dispatch::Concrete, || config.clone());
                        let (report, secs) = crate::util::timed(|| run_cell(kind, config));
                        s.report_counts(&report);
                        let m = &report.metrics;
                        let records = m.requests + m.grants + m.transfers_started + m.completions;
                        s.count("trace_records", records);
                        let events = report.events;
                        live = Some((format!("{report:?}"), records));
                        (setup, secs, events)
                    }
                    Phase::Export(i) => {
                        let (format, name) = FRAMINGS[i];
                        let setup = sink_setup_secs(kind, &config, format);
                        let path = dir.join(format!("cell.{name}"));
                        let config = config.with_trace_export(&path, format);
                        let (exported, secs) = crate::util::timed(|| run_cell(kind, config));
                        let (dump, _) = live.as_ref().expect("the untraced phase runs first");
                        s.check(checks::same_report(name, dump, &exported));
                        if first {
                            s.check(match observe::inspect(&path) {
                                Ok(replay) => observe::cross_check(&exported, &replay)
                                    .map_err(|d| format!("{name} replay: {}", d.join("; "))),
                                Err(e) => Err(format!("{name} replay: {e}")),
                            });
                        }
                        s.count(
                            &format!("{name}_bytes"),
                            std::fs::metadata(&path).map_or(0, |m| m.len()),
                        );
                        (setup, secs, 0)
                    }
                    Phase::Analyze(i) => {
                        let name = FRAMINGS[i].1;
                        let path = dir.join(format!("cell.{name}"));
                        let (analysis, secs) = crate::util::timed(|| {
                            busarb_tail::analyze_path(&path).map(|report| {
                                let text = report.render_text();
                                (report, text)
                            })
                        });
                        let (_, records) = live.as_ref().expect("the untraced phase runs first");
                        s.check(match &analysis {
                            Ok((report, _)) => checks::analyzed_all(name, report.events, *records),
                            Err(e) => Err(format!("{name} analyze: {e}")),
                        });
                        let _ = std::fs::remove_file(&path);
                        (0.0, secs, 0)
                    }
                }
            }
        };
        s.setup.push(setup);
        s.secs.push(secs);
        s.events.push(events);
    }
    s
}

/// Host seconds to open an in-memory export sink of `format` with the
/// cell's trace header, as a run with `--trace-out` does before its
/// first event. The sink writes to memory: creating the export files
/// cost 14 µs in some passes and 22 µs in others on the filesystem the
/// benchmark was sized on.
fn sink_setup_secs(kind: ProtocolKind, config: &SystemConfig, format: TraceFormat) -> f64 {
    let start = Instant::now();
    let header = trace_header(protocol_slug(kind), config);
    let sink: Box<dyn TraceSink> = match format {
        TraceFormat::Binary => {
            Box::new(BinarySink::new(Vec::new(), &header).expect("in-memory sink"))
        }
        _ => Box::new(JsonlSink::new(Vec::new(), &header).expect("in-memory sink")),
    };
    let t = secs(start);
    drop(sink);
    t
}
