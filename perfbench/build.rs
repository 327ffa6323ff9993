//! Copies the frozen calibration kernel out of `bench_run` so the
//! benchmark times exactly the kernel the committed `BENCH_run.json`
//! figures were calibrated with, without keeping a second copy of it.

use std::env;
use std::fs;
use std::path::Path;

const SOURCE: &str = "../crates/bench/src/bin/bench_run.rs";

/// The items taken verbatim, in order. A `const` is one line; a `fn`
/// runs to the first line that is a lone closing brace.
const ITEMS: [&str; 4] = [
    "const CALIBRATION_ITERS",
    "const CALIBRATION_REPS",
    "fn calibration_kernel(",
    "fn calibrate(",
];

fn main() {
    println!("cargo:rerun-if-changed={SOURCE}");
    let text = fs::read_to_string(SOURCE).unwrap_or_else(|e| panic!("cannot read {SOURCE}: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    for item in ITEMS {
        let start = lines
            .iter()
            .position(|l| l.starts_with(item))
            .unwrap_or_else(|| panic!("{SOURCE} no longer defines `{item}`"));
        let end = if item.starts_with("const") {
            start
        } else {
            start
                + lines[start..]
                    .iter()
                    .position(|l| *l == "}")
                    .unwrap_or_else(|| panic!("`{item}` in {SOURCE} has no closing brace"))
        };
        for line in &lines[start..=end] {
            out.push_str(line);
            out.push('\n');
        }
    }
    let dest = Path::new(&env::var("OUT_DIR").expect("cargo sets OUT_DIR")).join("calibration.rs");
    fs::write(&dest, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", dest.display()));
}
