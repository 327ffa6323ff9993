//! `busarb-lint` — the workspace static-analysis engine.
//!
//! The paper's guarantees (fair, bounded-bypass arbitration) hold in
//! this reproduction only while the hot loop stays allocation-free,
//! panic-poor, and bit-for-bit deterministic. PRs 2–8 enforced those
//! properties with string-grep heuristics that missed violations hidden
//! behind helper calls, string literals, or comments. This crate
//! replaces them with a real pipeline:
//!
//! ```text
//! lexer (raw strings, nested comments, char/lifetime)
//!   → items (fns with impl context, self-ness, test regions)
//!     → call graph (free/method/path/macro sites, name-scoped resolution)
//!       → checks (purity · determinism · dispatch · panic surface)
//!         → baseline (committed suppressions with reasons)
//!           → report (text + busarb-lint/1 JSON)
//! ```
//!
//! Everything below the file-loading layer is pure (`&[SourceFile]` in,
//! [`Report`] out), so the mutation self-tests can feed scratch source
//! trees through the identical code path `cargo xtask lint` runs over
//! the real workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod checks;
pub mod config;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;

use std::fs;
use std::path::Path;

pub use baseline::{Baseline, Suppression, BASELINE_FORMAT};
pub use checks::{Finding, PanicSite, CHECKS};
pub use config::{busarb_config, Config};
pub use report::{Report, Stats, REPORT_FORMAT};

/// One source file: workspace-relative path plus contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/sim/src/event.rs`).
    pub path: String,
    /// Full file text.
    pub text: String,
}

/// The set of files the engine analyzes: Rust sources, plus the
/// `Cargo.toml` manifests the call graph reads crate dependencies from.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// All files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// An in-memory workspace (tests, mutation harnesses).
    #[must_use]
    pub fn from_files(mut files: Vec<SourceFile>) -> Self {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Loads every `.rs` file under `crates/*/src`, `shims/*/src`, and
    /// `src/` of the workspace rooted at `root`, and the `Cargo.toml` of
    /// every crate and of the root package.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than a missing directory (which is
    /// skipped, so partial checkouts still lint).
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut files = Vec::new();
        for group in ["crates", "shims"] {
            let dir = root.join(group);
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.path().is_dir() {
                    let rel = format!("{group}/{}", entry.file_name().to_string_lossy());
                    collect_manifest(root, format!("{rel}/Cargo.toml"), &mut files)?;
                    collect_rs(root, &format!("{rel}/src"), &mut files)?;
                }
            }
        }
        collect_manifest(root, "Cargo.toml".to_string(), &mut files)?;
        collect_rs(root, "src", &mut files)?;
        Ok(Workspace::from_files(files))
    }
}

fn is_manifest(path: &str) -> bool {
    path == "Cargo.toml" || path.ends_with("/Cargo.toml")
}

fn collect_manifest(root: &Path, path: String, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    match fs::read_to_string(root.join(&path)) {
        Ok(text) => out.push(SourceFile { path, text }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(())
}

fn collect_rs(root: &Path, rel: &str, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let dir = root.join(rel);
    let Ok(entries) = fs::read_dir(&dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child = format!("{rel}/{name}");
        if entry.path().is_dir() {
            collect_rs(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(SourceFile {
                path: child,
                text: fs::read_to_string(entry.path())?,
            });
        }
    }
    Ok(())
}

/// Runs the full engine: lex, parse, graph, all four check families,
/// then the baseline. `baseline` is [`Baseline::empty`] in strict mode.
#[must_use]
pub fn run(ws: &Workspace, cfg: &Config, baseline: &Baseline) -> Report {
    let (manifests, sources): (Vec<&SourceFile>, Vec<&SourceFile>) =
        ws.files.iter().partition(|f| is_manifest(&f.path));
    let crates = graph::CrateGraph::from_manifests(
        manifests.iter().map(|f| (f.path.as_str(), f.text.as_str())),
    );
    // Lex and parse every source file once.
    let lexed: Vec<Vec<lexer::Token<'_>>> = sources.iter().map(|f| lexer::lex(&f.text)).collect();
    let parsed: Vec<Vec<items::FnItem>> = lexed.iter().map(|t| items::parse_items(t)).collect();
    let file_fns: Vec<graph::FileFns<'_>> = sources
        .iter()
        .zip(&lexed)
        .zip(&parsed)
        .map(|((f, tokens), items)| graph::FileFns {
            path: &f.path,
            tokens,
            items,
            resolvable: cfg.graph_paths.iter().any(|p| f.path.starts_with(p)),
        })
        .collect();
    let call_graph = graph::CallGraph::build(&file_fns, &crates);

    let mut findings = Vec::new();
    checks::check_purity(
        &file_fns,
        &call_graph,
        &cfg.hot_roots,
        &cfg.fast_math_roots,
        &mut findings,
    );
    checks::check_determinism(&file_fns, &cfg.determinism_paths, &mut findings);
    checks::check_policy(&file_fns, &mut findings);
    checks::check_dispatch_tokens(
        &file_fns,
        &cfg.enum_name,
        &cfg.variants,
        &cfg.variant_sites,
        &cfg.slugs,
        &cfg.slug_sites,
        &mut findings,
    );
    checks::check_dispatch_matches(
        &file_fns,
        &cfg.enum_name,
        &cfg.variants,
        &cfg.match_sites,
        &mut findings,
    );
    let panic_surface =
        checks::check_panic_surface(&file_fns, &call_graph, &cfg.runner_roots, &mut findings);

    // Deterministic output order: file, then line, then check id.
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.check, &a.symbol).cmp(&(&b.file, b.line, b.check, &b.symbol))
    });
    findings.dedup();

    let hot_roots: Vec<graph::FnId> = cfg
        .hot_roots
        .iter()
        .flat_map(|spec| resolve_for_stats(&file_fns, spec))
        .collect();
    let runner_roots: Vec<graph::FnId> = cfg
        .runner_roots
        .iter()
        .flat_map(|spec| resolve_for_stats(&file_fns, spec))
        .collect();
    let stats = Stats {
        files: sources.len(),
        functions: parsed.iter().map(Vec::len).sum(),
        hot_reachable: call_graph.reachable(&hot_roots).len(),
        runner_reachable: call_graph.reachable(&runner_roots).len(),
    };

    let (open, suppressed) = baseline.apply(findings);
    Report {
        open,
        suppressed,
        panic_surface,
        stats,
    }
}

fn resolve_for_stats(files: &[graph::FileFns<'_>], spec: &checks::RootSpec) -> Vec<graph::FnId> {
    let mut out = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if !f.path.ends_with(spec.file) {
            continue;
        }
        for (ii, item) in f.items.iter().enumerate() {
            if !item.is_test
                && item.name == spec.name
                && spec
                    .impl_type
                    .is_none_or(|ty| item.impl_type.as_deref() == Some(ty))
            {
                out.push(graph::FnId { file: fi, item: ii });
            }
        }
    }
    out
}
