//! Self-tests: a smoke-size pass of each workload passes its output
//! checks, each check fires on a broken output, and `BENCHMARK.json`
//! declares exactly the metrics the benchmark prints.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use busarb_experiments::{observe, Scale};
use busarb_obs::TraceFormat;
use busarb_perfbench::run::{self, END_TO_END};
use busarb_perfbench::workloads::{self, Ctx, Goldens, Size, Workload};
use busarb_sim::Simulation;

/// The experiment layer's rollup collector and worker count are
/// process-wide, so workload passes must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// A smoke-size context whose temp directory is removed on drop.
struct TempCtx(Ctx);

impl Drop for TempCtx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0.tmp);
        let _ = std::fs::remove_dir(run::repo_root().join(".bench_tmp"));
    }
}

impl std::ops::Deref for TempCtx {
    type Target = Ctx;
    fn deref(&self) -> &Ctx {
        &self.0
    }
}

fn ctx(name: &str, goldens: Goldens) -> TempCtx {
    let tmp = run::repo_root()
        .join(".bench_tmp")
        .join(format!("selftest-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    TempCtx(Ctx {
        size: Size::Smoke,
        seed: 5,
        workers: 2.min(busarb_perfbench::util::available_workers()),
        goldens,
        tmp,
    })
}

fn results() -> Goldens {
    Goldens::Dir(run::repo_root().join("results"))
}

/// The committed outputs with one byte of `name` flipped.
fn flipped(name: &str) -> Goldens {
    let dir = run::repo_root().join("results");
    let mut map = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if let Ok(text) = std::fs::read_to_string(entry.path()) {
            map.insert(entry.file_name().to_string_lossy().into_owned(), text);
        }
    }
    let text = map.get_mut(name).unwrap();
    let flip = if text.as_bytes()[10] == b'0' {
        "1"
    } else {
        "0"
    };
    text.replace_range(10..11, flip);
    Goldens::Map(map)
}

#[test]
fn repro_paper_matches_results_and_the_check_fires_on_a_flipped_byte() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The committed outputs are paper scale, so this pass is too.
    let mut c = ctx("repro", flipped("table4_1.json"));
    c.0.size = Size::Full;
    let it = workloads::iterate(Workload::ReproPaper, &c, None);
    assert_eq!(
        it.checked, 23,
        "21 JSON outputs, the text and the timed grid runs"
    );
    assert_eq!(it.failures.len(), 1, "{:?}", it.failures);
    assert!(
        it.failures[0].starts_with("table4_1.json: differs"),
        "{:?}",
        it.failures
    );
    assert!(it.events > 0 && it.counts["events"] == it.events);
}

#[test]
fn mesi_closed_passes_and_the_roster_check_fires() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let it = workloads::iterate(Workload::MesiClosed, &ctx("mesi", results()), None);
    assert!(it.failures.is_empty(), "{:?}", it.failures);
    assert_eq!(it.checked, 1 + 36);
    assert!(it.counts["invalidations"] > 0 && it.counts["upgrades"] > 0);
    let it = workloads::iterate(
        Workload::MesiClosed,
        &ctx("mesi-flip", flipped("coherence.json")),
        None,
    );
    assert_eq!(it.failures.len(), 1, "{:?}", it.failures);
    assert!(it.failures[0].starts_with("coherence.json"));
}

#[test]
fn cell_trace_passes_and_repeats_its_work_exactly() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let c = ctx("cell", results());
    let a = workloads::iterate(Workload::CellTrace, &c, None);
    let b = workloads::iterate(Workload::CellTrace, &c, None);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(
        a.checked,
        4 + 6,
        "untraced runs agree, then 3 checks per framing"
    );
    assert_eq!(a.counts, b.counts);
    assert!(a.counts["trace_records"] > a.counts["events"]);
    assert_eq!(a.rates.len(), 4);
}

#[test]
fn cross_check_fires_on_a_mismatched_replay() {
    let c = ctx("replay", results());
    let (kind, config) = workloads::trace_cell(&c);
    let path = c.tmp.join("mismatch.btrc");
    let exported = Simulation::new(config.clone().with_trace_export(&path, TraceFormat::Binary))
        .unwrap()
        .run_kind(kind)
        .unwrap();
    let other = Simulation::new(config.with_seed(99))
        .unwrap()
        .run_kind(kind)
        .unwrap();
    let replay = observe::inspect(&path).unwrap();
    assert!(observe::cross_check(&exported, &replay).is_ok());
    assert!(observe::cross_check(&other, &replay).is_err());
    let dump = format!("{exported:?}");
    assert!(busarb_perfbench::checks::same_report("btrc", &dump, &exported).is_ok());
    assert!(busarb_perfbench::checks::same_report("btrc", &dump, &other).is_err());
}

#[test]
fn sweeps_and_ledger_run_on_every_workload() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for w in Workload::ALL {
        let c = ctx(&format!("sweep-{}", w.name()), results());
        let units = workloads::units(w, &c);
        let first = workloads::sweep(&c, &units, &c.tmp, true);
        let again = workloads::sweep(&c, &units, &c.tmp, false);
        assert!(
            first.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            first.failures
        );
        assert_eq!(first.secs.len(), units.len());
        assert!(first.secs.iter().all(|&t| t > 0.0));
        assert!(first.setup.iter().sum::<f64>() > 0.0);
        assert!(first.events.iter().sum::<u64>() > 0);
        assert_eq!(
            (&first.counts, &first.events),
            (&again.counts, &again.events)
        );
        let (checked, again_checked) = match w {
            // One report check per grid run against the program's own
            // grid, in the first sweep only.
            Workload::ReproPaper => (56, 0),
            // MESI accounting per cell, every sweep.
            Workload::MesiClosed => (36, 36),
            // Per framing: report and analyze count every sweep, the
            // replay in the first.
            Workload::CellTrace => (6, 4),
        };
        assert_eq!(
            (first.checked, again.checked),
            (checked, again_checked),
            "{}",
            w.name()
        );

        let roster = workloads::ledger_roster(w, &c);
        let l = busarb_perfbench::ledger::measure(&roster, w == Workload::CellTrace, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(l.cells, roster.len());
        assert_eq!(l.misses > 0, w == Workload::MesiClosed, "{}", w.name());
    }
    // The roster pass of mesi-closed always runs at the goldens' scale.
    assert_eq!(Scale::Paper.batches().total_samples(), 80_000);
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let text = std::fs::read_to_string(run::repo_root().join("BENCHMARK.json")).unwrap();
    let json = serde_json::from_str(&text).unwrap();
    let list = |key: &str| -> Vec<(String, String)> {
        let field =
            |m: &serde::Value, f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let layers: Vec<(String, String)> = run::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(list("per_layer"), layers);
    let names: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = run::parse(&args(
        "--workload cell-trace --seed 3 --seconds 2 --trace 1",
    ))
    .unwrap();
    assert!(ok.trace && ok.seed == 3 && ok.workload == Workload::CellTrace);
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload cell-trace --seconds 1 --trace 0",
        "--workload cell-trace --seed 1 --seconds 0 --trace 0",
        "--workload cell-trace --seed 1 --seconds 1 --trace 2",
        "--workload cell-trace --seed 1 --seconds 1 --trace 0 --extra",
    ] {
        assert!(run::parse(&args(bad)).is_err(), "{bad}");
    }
}
