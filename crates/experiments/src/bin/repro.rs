//! `repro` — regenerate every table and figure from Vernon & Manber
//! (ISCA 1988).
//!
//! ```text
//! repro [--scale paper|quick|smoke] [--json DIR] [--jobs N]
//!       [--engine reference|fast] [--metrics FILE] [--trace FILE]
//!       [--trace-format jsonl|binary] <command>
//!
//! commands:
//!   table4.1            bandwidth allocation, equal request rates
//!   table4.2            waiting-time standard deviation
//!   fig4.1              waiting-time CDF (30 agents, load 1.5)
//!   table4.3            execution overlapped with bus waiting
//!   table4.4            unequal request rates
//!   table4.5            RR worst case ("just miss")
//!   ablation.counters   FCFS counter-width sweep
//!   ablation.window     FCFS-2 a-incr window sweep
//!   ablation.rr3        RR-3 wraparound overhead
//!   ablation.start-rule greedy vs transaction-aligned arbitration start
//!   ablation.overhead   arbitration-overhead sensitivity sweep
//!   ablation.width-overhead  width-scaled overhead (§3.3 efficiency)
//!   hybrid              §5 hybrid and adaptive protocols
//!   conservation        conservation-law check
//!   tails               waiting-time percentiles (P50/P90/P99) per protocol
//!   bursty              trace-driven bursty traffic (CV > 1)
//!   worst-case.fcfs     the §4.5 FCFS worst case the paper declined to run
//!   priority            urgent traffic vs FCFS counter-update rules (§3.2)
//!   scaling             W and sd ratio vs system size (4..64 agents)
//!   validate.cis        CI coverage + batch-independence diagnostics
//!   protocols           list every simulated protocol and its line cost
//!   cell                run the pinned traced cell, export its trace,
//!                       replay the export, and cross-check the aggregates
//!   inspect FILE        replay an exported trace and print its aggregates
//!   tolerance [FACTOR]  run Table 4.1 under both draw engines and check
//!                       the fast means land within FACTOR x the summed
//!                       confidence halfwidths (default 1.5)
//!   all                 everything above (shares one simulation grid)
//! ```
//!
//! `--engine reference|fast` selects the workload draw engine for every
//! simulation the command runs (the `tolerance` command runs both and
//! ignores the flag). `--metrics FILE` collects a per-cell metrics
//! snapshot from every simulation the command runs and writes them
//! (plus a deterministic tag-sorted merge) as JSON. `--trace FILE` sets
//! the export path used by the `cell` command.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use busarb_core::{Arbiter, ProtocolKind};
use busarb_experiments::{
    ablations, bursty, coherence, figure4_1, grid::Grid, observe, priority_study, protocol_slug,
    scaling, table4_1, table4_2, table4_3, table4_4, table4_5, tails, validation, worst_case_fcfs,
    EstimateJson, Scale,
};
use busarb_obs::TraceFormat;
use busarb_workload::DrawEngineKind;
use serde::Serialize;

struct Options {
    scale: Scale,
    json_dir: Option<PathBuf>,
    jobs: usize,
    engine: DrawEngineKind,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
    command: String,
    argument: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut scale = Scale::Paper;
    let mut json_dir = None;
    let mut jobs = 0;
    let mut engine = DrawEngineKind::default();
    let mut metrics = None;
    let mut trace = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut command = None;
    let mut argument = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&value)
                    .ok_or_else(|| format!("unknown scale '{value}' (paper|quick|smoke)"))?;
            }
            "--engine" => {
                let value = args.next().ok_or("--engine needs a value")?;
                engine = DrawEngineKind::parse(&value)
                    .ok_or_else(|| format!("unknown engine '{value}' (reference|fast)"))?;
            }
            "--json" => {
                let value = args.next().ok_or("--json needs a directory")?;
                json_dir = Some(PathBuf::from(value));
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a value")?;
                jobs = value
                    .parse()
                    .map_err(|e| format!("invalid --jobs '{value}': {e}"))?;
            }
            "--metrics" => {
                let value = args.next().ok_or("--metrics needs a file")?;
                metrics = Some(PathBuf::from(value));
            }
            "--trace" => {
                let value = args.next().ok_or("--trace needs a file")?;
                trace = Some(PathBuf::from(value));
            }
            "--trace-format" => {
                let value = args.next().ok_or("--trace-format needs a value")?;
                trace_format = value
                    .parse()
                    .map_err(|e| format!("invalid --trace-format '{value}': {e}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if command.is_none() => command = Some(other.to_string()),
            other if argument.is_none() => argument = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Options {
        scale,
        json_dir,
        jobs,
        engine,
        metrics,
        trace,
        trace_format,
        command: command.ok_or("missing command; try --help")?,
        argument,
    })
}

fn usage() -> &'static str {
    "usage: repro [--scale paper|quick|smoke] [--json DIR] [--jobs N]\n\
     \u{20}            [--engine reference|fast] [--metrics FILE] [--trace FILE]\n\
     \u{20}            [--trace-format jsonl|binary] <command>\n\
     commands: table4.1 table4.2 fig4.1 table4.3 table4.4 table4.5\n\
     \u{20}         ablation.counters ablation.window ablation.rr3\n\
     \u{20}         ablation.start-rule ablation.overhead ablation.width-overhead\n\
     \u{20}         hybrid conservation\n\
     \u{20}         tails bursty coherence worst-case.fcfs priority scaling validate.cis\n\
     \u{20}         protocols cell inspect tolerance all"
}

fn emit<T: Serialize>(opts: &Options, name: &str, value: &T, text: String) {
    println!("{text}");
    if let Some(dir) = &opts.json_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = fs::write(&path, json) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
        }
    }
}

fn run_ablation(opts: &Options, result: &ablations::Ablation) {
    let name = result.name.replace('.', "_");
    emit(opts, &name, result, ablations::format(result));
}

/// One compared Table 4.1 estimate in the `tolerance` report.
#[derive(Serialize)]
struct ToleranceCell {
    agents: u32,
    load: f64,
    column: &'static str,
    reference: EstimateJson,
    fast: EstimateJson,
    distance: f64,
    budget: f64,
    pass: bool,
}

/// The `tolerance` command's JSON output.
#[derive(Serialize)]
struct ToleranceReport {
    factor: f64,
    cells: Vec<ToleranceCell>,
    failures: usize,
}

/// Runs Table 4.1 under both draw engines and checks every estimate the
/// fast engine produces against the reference run: the means must agree
/// to within `factor * (halfwidth_ref + halfwidth_fast)`.
fn tolerance(opts: &Options, factor: f64) -> ExitCode {
    eprintln!("tolerance: Table 4.1 under the reference engine...");
    busarb_experiments::set_engine(DrawEngineKind::Reference);
    let reference = table4_1::run(opts.scale);
    eprintln!("tolerance: Table 4.1 under the fast engine...");
    busarb_experiments::set_engine(DrawEngineKind::Fast);
    let fast = table4_1::run(opts.scale);
    busarb_experiments::set_engine(opts.engine);

    let mut cells = Vec::new();
    for (rs, fs) in reference.sections.iter().zip(&fast.sections) {
        for (rr, fr) in rs.rows.iter().zip(&fs.rows) {
            let columns = [
                ("rr", rr.rr, fr.rr),
                ("fcfs", rr.fcfs, fr.fcfs),
                ("aap", rr.aap, fr.aap),
            ];
            for (column, r, f) in columns {
                let (Some(r), Some(f)) = (r, f) else { continue };
                let distance = (f.mean - r.mean).abs();
                let budget = factor * (r.halfwidth + f.halfwidth);
                cells.push(ToleranceCell {
                    agents: rs.agents,
                    load: rr.load,
                    column,
                    reference: r,
                    fast: f,
                    distance,
                    budget,
                    pass: distance <= budget,
                });
            }
        }
    }
    let failures = cells.iter().filter(|c| !c.pass).count();

    let mut text = format!(
        "Tolerance check: fast vs reference Table 4.1 (factor {factor})\n{:>6} {:>6} {:>6} {:>16} {:>16} {:>10} {:>10}  verdict\n",
        "agents", "load", "column", "reference", "fast", "|diff|", "budget"
    );
    for c in &cells {
        text.push_str(&format!(
            "{:>6} {:>6.2} {:>6} {:>16} {:>16} {:>10.4} {:>10.4}  {}\n",
            c.agents,
            c.load,
            c.column,
            c.reference.to_string(),
            c.fast.to_string(),
            c.distance,
            c.budget,
            if c.pass { "ok" } else { "FAIL" },
        ));
    }
    text.push_str(&format!(
        "{} of {} estimates within tolerance",
        cells.len() - failures,
        cells.len()
    ));
    let report = ToleranceReport {
        factor,
        cells,
        failures,
    };
    emit(opts, "tolerance", &report, text);
    if failures > 0 {
        eprintln!("error: {failures} estimate(s) outside tolerance");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    busarb_experiments::set_jobs(opts.jobs);
    busarb_experiments::set_engine(opts.engine);
    if opts.metrics.is_some() {
        busarb_experiments::enable_rollups();
    }
    eprintln!("scale: {} ({} samples per run)", opts.scale, {
        let b = opts.scale.batches();
        b.total_samples()
    });
    eprintln!("jobs: {}", busarb_experiments::jobs());
    eprintln!("engine: {}", busarb_experiments::engine());

    match opts.command.as_str() {
        "table4.1" => {
            let t = table4_1::run(opts.scale);
            emit(&opts, "table4_1", &t, table4_1::format(&t));
        }
        "table4.2" => {
            let t = table4_2::run(opts.scale);
            emit(&opts, "table4_2", &t, table4_2::format(&t));
        }
        "fig4.1" => {
            let f = figure4_1::run(opts.scale);
            emit(&opts, "figure4_1", &f, figure4_1::format(&f));
        }
        "table4.3" => {
            let t = table4_3::run(opts.scale);
            emit(&opts, "table4_3", &t, table4_3::format(&t));
        }
        "table4.4" => {
            let t = table4_4::run(opts.scale);
            emit(&opts, "table4_4", &t, table4_4::format(&t));
        }
        "table4.5" => {
            let t = table4_5::run(opts.scale);
            emit(&opts, "table4_5", &t, table4_5::format(&t));
        }
        "ablation.counters" => run_ablation(&opts, &ablations::counter_bits(opts.scale)),
        "ablation.window" => run_ablation(&opts, &ablations::tie_window(opts.scale)),
        "ablation.rr3" => run_ablation(&opts, &ablations::rr3_overhead(opts.scale)),
        "ablation.start-rule" => run_ablation(&opts, &ablations::start_rule(opts.scale)),
        "ablation.overhead" => run_ablation(&opts, &ablations::overhead(opts.scale)),
        "ablation.width-overhead" => {
            run_ablation(&opts, &ablations::width_overhead(opts.scale));
        }
        "hybrid" => run_ablation(&opts, &ablations::hybrid(opts.scale)),
        "conservation" => run_ablation(&opts, &ablations::conservation(opts.scale)),
        "tails" => {
            let t = tails::run(opts.scale);
            emit(&opts, "tails", &t, tails::format(&t));
        }
        "bursty" => {
            let b = bursty::run(opts.scale);
            emit(&opts, "bursty", &b, bursty::format(&b));
        }
        "coherence" => {
            let c = coherence::run(opts.scale);
            emit(&opts, "coherence", &c, coherence::format(&c));
        }
        "scaling" => {
            let sc = scaling::run(opts.scale);
            emit(&opts, "scaling", &sc, scaling::format(&sc));
        }
        "priority" => {
            let p = priority_study::run(opts.scale);
            emit(&opts, "priority_study", &p, priority_study::format(&p));
        }
        "worst-case.fcfs" => {
            let w = worst_case_fcfs::run(opts.scale);
            emit(&opts, "worst_case_fcfs", &w, worst_case_fcfs::format(&w));
        }
        "validate.cis" => {
            let c = validation::ci_coverage(opts.scale, 40);
            emit(&opts, "ci_coverage", &c, validation::format_coverage(&c));
            let d = validation::batch_diagnostics(opts.scale);
            emit(
                &opts,
                "batch_diagnostics",
                &d,
                validation::format_diagnostics(&d),
            );
        }
        "protocols" => {
            // One row per simulated protocol: slug, family name, and the
            // arbitration-number width on a 30-agent bus (distributed
            // protocols only). This is the canonical roster `cargo xtask
            // lint` checks the other dispatch sites against.
            println!("{:<14} {:<16} lines(n=30)", "slug", "name");
            for &kind in ProtocolKind::all() {
                let arbiter = kind.build(30).expect("30 agents is a valid size");
                let lines = arbiter
                    .layout()
                    .map_or_else(|| "-".to_string(), |l| l.width().to_string());
                println!("{:<14} {:<16} {lines}", protocol_slug(kind), arbiter.name());
            }
        }
        "cell" => {
            let format = opts.trace_format;
            let path = opts.trace.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!("busarb-cell-{}.{format}", std::process::id()))
            });
            eprintln!("tracing the pinned cell to {}", path.display());
            let live = observe::run_pinned(opts.scale, Some((&path, format)));
            println!("live     {live}");
            let replayed = match observe::inspect(&path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: cannot replay {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            emit(
                &opts,
                "cell_inspect",
                &observe::InspectJson::from(&replayed),
                observe::format_replay(&replayed),
            );
            if let Err(diffs) = observe::cross_check(&live, &replayed) {
                // One line, machine-grepable: count first, then every
                // differing aggregate as `field: live X vs replayed Y`.
                eprintln!(
                    "round-trip MISMATCH: {} aggregate(s) differ: {}",
                    diffs.len(),
                    diffs.join("; ")
                );
                return ExitCode::FAILURE;
            }
            println!("round-trip OK: replayed aggregates match the live run");
        }
        "inspect" => {
            let Some(file) = &opts.argument else {
                eprintln!("error: inspect needs a trace file\n{}", usage());
                return ExitCode::FAILURE;
            };
            let replayed = match observe::inspect(Path::new(file)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: cannot replay {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            emit(
                &opts,
                "inspect",
                &observe::InspectJson::from(&replayed),
                observe::format_replay(&replayed),
            );
        }
        "tolerance" => {
            let factor = match opts.argument.as_deref() {
                None => 1.5,
                Some(v) => match v.parse::<f64>() {
                    Ok(f) if f > 0.0 => f,
                    _ => {
                        eprintln!("error: invalid tolerance factor '{v}'\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                },
            };
            return tolerance(&opts, factor);
        }
        "all" => {
            eprintln!("computing the shared simulation grid...");
            let grid = Grid::compute(opts.scale);
            let t1 = table4_1::from_grid(&grid);
            emit(&opts, "table4_1", &t1, table4_1::format(&t1));
            let t2 = table4_2::from_grid(&grid);
            emit(&opts, "table4_2", &t2, table4_2::format(&t2));
            let f = figure4_1::from_grid(&grid);
            emit(&opts, "figure4_1", &f, figure4_1::format(&f));
            let t3 = table4_3::from_grid(&grid);
            emit(&opts, "table4_3", &t3, table4_3::format(&t3));
            let t4 = table4_4::run(opts.scale);
            emit(&opts, "table4_4", &t4, table4_4::format(&t4));
            let t5 = table4_5::run(opts.scale);
            emit(&opts, "table4_5", &t5, table4_5::format(&t5));
            for ablation in ablations::all(opts.scale) {
                run_ablation(&opts, &ablation);
            }
            let t = tails::run(opts.scale);
            emit(&opts, "tails", &t, tails::format(&t));
            let b = bursty::run(opts.scale);
            emit(&opts, "bursty", &b, bursty::format(&b));
            let w = worst_case_fcfs::run(opts.scale);
            emit(&opts, "worst_case_fcfs", &w, worst_case_fcfs::format(&w));
            let p = priority_study::run(opts.scale);
            emit(&opts, "priority_study", &p, priority_study::format(&p));
            let sc = scaling::run(opts.scale);
            emit(&opts, "scaling", &sc, scaling::format(&sc));
            let c = validation::ci_coverage(opts.scale, 40);
            emit(&opts, "ci_coverage", &c, validation::format_coverage(&c));
            let d = validation::batch_diagnostics(opts.scale);
            emit(
                &opts,
                "batch_diagnostics",
                &d,
                validation::format_diagnostics(&d),
            );
        }
        other => {
            eprintln!("error: unknown command '{other}'\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.metrics {
        if let Some(sweep) = observe::collect_rollups() {
            eprintln!("collected metrics from {} cells", sweep.cells.len());
            match serde_json::to_string_pretty(&sweep) {
                Ok(json) => {
                    if let Err(e) = fs::write(path, json) {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {}", path.display());
                }
                Err(e) => {
                    eprintln!("error: cannot serialize metrics: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
