//! Mutation self-tests: feed the engine scratch source trees seeded
//! with exactly the violations each check family exists to catch, and
//! assert the finding comes back with the right check id, file, and
//! line. Each scenario also has a clean twin, so a check that fires
//! unconditionally (or never) fails here rather than in CI triage.
//!
//! These go through [`busarb_lint::run`] — the identical pipeline
//! `cargo xtask lint` runs over the real workspace — not through the
//! check functions in isolation.

use busarb_lint::checks::{MatchSite, RootSpec, TokenSite};
use busarb_lint::{run, Baseline, Config, Finding, SourceFile, Workspace};

/// A config with no roots/sites/scopes; tests switch on one family.
fn empty_config() -> Config {
    Config {
        enum_name: "Proto".to_string(),
        variants: vec![],
        slugs: vec![],
        graph_paths: vec!["crates/toy/"],
        hot_roots: vec![],
        fast_math_roots: vec![],
        runner_roots: vec![],
        determinism_paths: vec![],
        variant_sites: vec![],
        slug_sites: vec![],
        match_sites: vec![],
    }
}

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_files(
        files
            .iter()
            .map(|(path, text)| SourceFile {
                path: (*path).to_string(),
                text: (*text).to_string(),
            })
            .collect(),
    )
}

fn open_findings(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    run(ws, cfg, &Baseline::empty()).open
}

fn root(file: &'static str, name: &'static str) -> RootSpec {
    RootSpec {
        file,
        impl_type: None,
        name,
    }
}

// --- family 1: transitive hot-path purity ---------------------------

#[test]
fn allocation_behind_a_helper_call_is_caught() {
    // The allocation is NOT in the hot root; it hides one call away.
    // The old per-fn body grep scanned only `settle` and missed this.
    let src = "\
pub fn settle(x: u32) -> u32 {
    helper(x)
}
fn helper(x: u32) -> u32 {
    let v = Vec::new();
    drop(v);
    x
}
";
    let mut cfg = empty_config();
    cfg.hot_roots = vec![root("crates/toy/src/hot.rs", "settle")];
    let findings = open_findings(&ws(&[("crates/toy/src/hot.rs", src)]), &cfg);
    assert_eq!(
        findings.len(),
        1,
        "exactly the seeded violation: {findings:?}"
    );
    let f = &findings[0];
    assert_eq!(f.check, "hot-alloc");
    assert_eq!(f.file, "crates/toy/src/hot.rs");
    assert_eq!(f.line, 5, "anchored at the `Vec::new` line");
    assert_eq!(f.symbol, "helper");
    assert!(
        f.message.contains("settle → helper"),
        "message names the reachability chain: {}",
        f.message
    );
}

#[test]
fn panic_behind_a_helper_call_is_caught() {
    let src = "\
pub fn settle(x: u32) -> u32 {
    helper(x)
}
fn helper(x: u32) -> u32 {
    let y = checked(x).unwrap();
    y
}
fn checked(x: u32) -> Option<u32> {
    x.checked_add(1)
}
";
    let mut cfg = empty_config();
    cfg.hot_roots = vec![root("crates/toy/src/hot.rs", "settle")];
    let findings = open_findings(&ws(&[("crates/toy/src/hot.rs", src)]), &cfg);
    // The bare unwrap also trips the workspace unwrap policy; the
    // reachability finding is the one under test here.
    assert_eq!(findings.len(), 2, "{findings:?}");
    let hot = findings
        .iter()
        .find(|f| f.check == "hot-panic")
        .expect("hot-panic finding present");
    assert_eq!((hot.line, hot.symbol.as_str()), (5, "helper"));
    assert!(findings.iter().any(|f| f.check == "unwrap-policy"));
}

#[test]
fn lock_acquisition_on_the_hot_path_is_caught() {
    let src = "\
pub fn settle(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
";
    let mut cfg = empty_config();
    cfg.hot_roots = vec![root("crates/toy/src/hot.rs", "settle")];
    let findings = open_findings(&ws(&[("crates/toy/src/hot.rs", src)]), &cfg);
    let checks: Vec<&str> = findings.iter().map(|f| f.check).collect();
    assert!(checks.contains(&"hot-lock"), "{findings:?}");
    assert!(
        checks.contains(&"hot-panic"),
        "the unwrap too: {findings:?}"
    );
}

#[test]
fn slow_math_two_hops_deep_is_caught() {
    // `.ln()` is two calls below the fast-math root, and the middle hop
    // lives in a different file of the same crate.
    let engine = "\
pub fn think_time(x: f64) -> f64 {
    crate::tables::draw(x)
}
";
    let tables = "\
pub fn draw(x: f64) -> f64 {
    transform(x)
}
fn transform(x: f64) -> f64 {
    x.ln()
}
";
    let mut cfg = empty_config();
    cfg.fast_math_roots = vec![root("crates/toy/src/engine.rs", "think_time")];
    let findings = open_findings(
        &ws(&[
            ("crates/toy/src/engine.rs", engine),
            ("crates/toy/src/tables.rs", tables),
        ]),
        &cfg,
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.check, "hot-slow-math");
    assert_eq!(f.file, "crates/toy/src/tables.rs");
    assert_eq!(f.line, 5, "anchored at the `.ln()` line");
    assert_eq!(f.symbol, "transform");
    assert!(
        f.message.contains("think_time → draw → transform"),
        "{}",
        f.message
    );
}

#[test]
fn purity_ignores_code_not_reachable_from_a_root() {
    // The same allocation exists, but nothing routes the hot root to it
    // — and allocation tokens inside strings/comments never count.
    let src = "\
pub fn settle(x: u32) -> u32 {
    // never call Vec::new here
    let banned = \"format! and Box::new\";
    drop(banned);
    x
}
pub fn cold_setup() -> Vec<u32> {
    Vec::with_capacity(64)
}
";
    let mut cfg = empty_config();
    cfg.hot_roots = vec![root("crates/toy/src/hot.rs", "settle")];
    let findings = open_findings(&ws(&[("crates/toy/src/hot.rs", src)]), &cfg);
    assert_eq!(findings, vec![], "clean twin must stay clean");
}

#[test]
fn a_same_named_method_in_an_unrelated_crate_is_not_reached() {
    // Two crates each define `fn refill(&mut self)`; only `beta`'s
    // panics. `alpha`'s hot root calls its own `refill`. Without a
    // dependency edge from `alpha` to `beta` the method call must not
    // resolve across, and `beta`'s panic stays out of the hot closure;
    // with the edge the name-based over-approximation applies again.
    let alpha = "\
#![forbid(unsafe_code)]
pub struct Stream;
impl Stream {
    pub fn think_time(&mut self) -> u32 {
        self.refill();
        1
    }
    fn refill(&mut self) {}
}
";
    let beta = "\
#![forbid(unsafe_code)]
pub struct Synth;
impl Synth {
    fn refill(&mut self) {
        panic!(\"unreachable from alpha\");
    }
}
";
    let manifest = |deps: &str| format!("[package]\nname = \"alpha\"\n\n[dependencies]\n{deps}");
    let beta_manifest = "[package]\nname = \"beta\"\n";
    let mut cfg = empty_config();
    cfg.graph_paths = vec!["crates/alpha/", "crates/beta/"];
    cfg.hot_roots = vec![root("crates/alpha/src/lib.rs", "think_time")];
    let tree = |alpha_manifest: &str| {
        ws(&[
            ("crates/alpha/Cargo.toml", alpha_manifest),
            ("crates/alpha/src/lib.rs", alpha),
            ("crates/beta/Cargo.toml", beta_manifest),
            ("crates/beta/src/lib.rs", beta),
        ])
    };

    // A dev-dependency is not a link edge for library code.
    let unrelated = manifest("[dev-dependencies]\nbeta = { path = \"../beta\" }\n");
    let report = run(&tree(&unrelated), &cfg, &Baseline::empty());
    assert_eq!(report.open, vec![], "no edge into beta");
    assert_eq!(
        report.stats.files, 2,
        "manifests are not counted as sources"
    );
    assert_eq!(
        report.stats.hot_reachable, 2,
        "think_time and alpha's own refill only"
    );

    let dependent = manifest("beta = { path = \"../beta\" }\n");
    let report = run(&tree(&dependent), &cfg, &Baseline::empty());
    assert_eq!(report.stats.hot_reachable, 3);
    assert_eq!(report.open.len(), 1, "{:?}", report.open);
    let f = &report.open[0];
    assert_eq!(
        (f.check, f.file.as_str(), f.line),
        ("hot-panic", "crates/beta/src/lib.rs", 5)
    );
}

#[test]
fn a_renamed_root_is_itself_a_finding() {
    let src = "pub fn settle_v2(x: u32) -> u32 { x }\n";
    let mut cfg = empty_config();
    cfg.hot_roots = vec![root("crates/toy/src/hot.rs", "settle")];
    let findings = open_findings(&ws(&[("crates/toy/src/hot.rs", src)]), &cfg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, "root-missing");
    assert_eq!(findings[0].symbol, "settle");
}

// --- family 2: determinism -------------------------------------------

#[test]
fn hashmap_in_the_merge_path_is_caught() {
    let src = "\
use std::collections::BTreeMap;
pub fn merge(reports: &[u32]) -> BTreeMap<u32, u32> {
    let mut acc = std::collections::HashMap::new();
    for r in reports {
        *acc.entry(*r).or_insert(0) += 1;
    }
    acc.into_iter().collect()
}
";
    let mut cfg = empty_config();
    cfg.determinism_paths = vec!["crates/toy/"];
    let findings = open_findings(&ws(&[("crates/toy/src/merge.rs", src)]), &cfg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.check, "det-collections");
    assert_eq!(f.file, "crates/toy/src/merge.rs");
    assert_eq!(f.line, 3, "anchored at the `HashMap` line");
    assert_eq!(f.symbol, "merge::HashMap");
}

#[test]
fn wall_clock_and_os_entropy_are_caught_outside_tests() {
    let src = "\
pub fn stamp() -> u64 {
    let t = std::time::Instant::now();
    drop(t);
    7
}
#[cfg(test)]
mod tests {
    #[test]
    fn timing_is_fine_in_tests() {
        let _ = std::time::Instant::now();
    }
}
";
    let mut cfg = empty_config();
    cfg.determinism_paths = vec!["crates/toy/"];
    let findings = open_findings(&ws(&[("crates/toy/src/report.rs", src)]), &cfg);
    // Both the `std::time` path and the `Instant` ident fire on line 2;
    // nothing fires inside the `#[cfg(test)]` module.
    assert!(!findings.is_empty());
    assert!(
        findings
            .iter()
            .all(|f| f.check == "det-time" && f.line == 2),
        "{findings:?}"
    );
}

#[test]
fn determinism_scope_is_path_limited() {
    let src = "pub fn bench() { let _ = std::time::Instant::now(); }\n";
    let mut cfg = empty_config();
    cfg.determinism_paths = vec!["crates/toy/"];
    // Same source outside the scope: clean. (A non-root module, so the
    // crate-root forbid-unsafe policy does not apply either.)
    let findings = open_findings(&ws(&[("crates/bench/src/timing.rs", src)]), &cfg);
    assert_eq!(findings, vec![]);
}

// --- family 3: exhaustive dispatch -----------------------------------

/// A toy three-variant enum with a dispatch fn whose wildcard arm hides
/// the dropped `Gamma` variant from the compiler.
const DROPPED_ARM: &str = "\
pub enum Proto { Alpha, Beta, Gamma }
pub fn dispatch(p: &Proto) -> u32 {
    match p {
        Proto::Alpha => 1,
        Proto::Beta => 2,
        _ => 0,
    }
}
";

#[test]
fn a_dropped_match_arm_behind_a_wildcard_is_caught() {
    let mut cfg = empty_config();
    cfg.variants = vec!["Alpha".into(), "Beta".into(), "Gamma".into()];
    cfg.match_sites = vec![MatchSite {
        file: "crates/toy/src/dispatch.rs",
        impl_type: None,
        fn_name: "dispatch",
    }];
    let findings = open_findings(&ws(&[("crates/toy/src/dispatch.rs", DROPPED_ARM)]), &cfg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.check, "dispatch-match");
    assert_eq!(f.line, 3, "anchored at the `match` line");
    assert_eq!(f.symbol, "dispatch::Gamma");
    assert!(
        f.message.contains("wildcard arm would silently swallow it"),
        "{}",
        f.message
    );
}

#[test]
fn a_fully_named_match_passes_even_with_a_wildcard() {
    let src = "\
pub enum Proto { Alpha, Beta, Gamma }
pub fn dispatch(p: &Proto) -> u32 {
    match p {
        Proto::Alpha => 1,
        Proto::Beta => 2,
        Proto::Gamma => 3,
        _ => 0,
    }
}
";
    let mut cfg = empty_config();
    cfg.variants = vec!["Alpha".into(), "Beta".into(), "Gamma".into()];
    cfg.match_sites = vec![MatchSite {
        file: "crates/toy/src/dispatch.rs",
        impl_type: None,
        fn_name: "dispatch",
    }];
    let findings = open_findings(&ws(&[("crates/toy/src/dispatch.rs", src)]), &cfg);
    assert_eq!(findings, vec![]);
}

#[test]
fn variant_tokens_in_comments_do_not_satisfy_a_dispatch_surface() {
    // `Proto::Gamma` appears only in a comment and a string — the exact
    // blind spot of the old substring heuristic. The engine counts code
    // tokens only, so the surface is short one variant.
    let src = "\
// roster: Proto::Alpha, Proto::Beta, Proto::Gamma
pub fn roster() -> &'static str {
    let a = (Proto::Alpha, Proto::Beta);
    drop(a);
    \"see Proto::Gamma\"
}
";
    let mut cfg = empty_config();
    cfg.variants = vec!["Alpha".into(), "Beta".into(), "Gamma".into()];
    cfg.variant_sites = vec![TokenSite {
        file: "crates/toy/src/roster.rs",
        min_count: 1,
    }];
    let findings = open_findings(&ws(&[("crates/toy/src/roster.rs", src)]), &cfg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, "dispatch-token");
    assert_eq!(findings[0].symbol, "Gamma");
}

#[test]
fn slug_counting_requires_word_boundaries_in_strings() {
    // `rr` inside `central-rr` must not satisfy the `rr` slug; a
    // delimited `rr` must.
    let src = "pub fn usage() -> &'static str { \"central-rr only\" }\n";
    let mut cfg = empty_config();
    cfg.slugs = vec!["central-rr".into(), "rr".into()];
    cfg.slug_sites = vec![TokenSite {
        file: "crates/toy/src/usage.rs",
        min_count: 1,
    }];
    let findings = open_findings(&ws(&[("crates/toy/src/usage.rs", src)]), &cfg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].symbol, "rr");

    let src = "pub fn usage() -> &'static str { \"central-rr, rr\" }\n";
    let findings = open_findings(&ws(&[("crates/toy/src/usage.rs", src)]), &cfg);
    assert_eq!(findings, vec![]);
}

// --- family 4: panic surface + baseline ------------------------------

#[test]
fn panic_surface_catalogs_reachable_sites_without_failing() {
    let src = "\
pub fn run(n: u32) -> u32 {
    assert!(n > 0, \"need agents\");
    step(n)
}
fn step(n: u32) -> u32 {
    n.checked_mul(2).expect(\"bounded by construction\")
}
fn unrelated() {
    panic!(\"never reached from the runner\");
}
";
    let mut cfg = empty_config();
    cfg.runner_roots = vec![root("crates/toy/src/system.rs", "run")];
    let report = run(
        &ws(&[("crates/toy/src/system.rs", src)]),
        &cfg,
        &Baseline::empty(),
    );
    assert!(
        report.is_clean(),
        "the catalog never fails: {:?}",
        report.open
    );
    let sites: Vec<(&str, u32)> = report
        .panic_surface
        .iter()
        .map(|s| (s.construct.as_str(), s.line))
        .collect();
    assert!(sites.contains(&("assert!", 2)), "{sites:?}");
    assert!(sites.contains(&(".expect()", 6)), "{sites:?}");
    assert!(
        !report
            .panic_surface
            .iter()
            .any(|s| s.function == "unrelated"),
        "only runner-reachable sites belong in the catalog"
    );
    // Keep `unrelated` an honest part of this scenario: it IS a panic
    // site, just not a reachable one.
    drop(report);
}

#[test]
fn baseline_suppresses_exactly_its_key_and_flags_rot() {
    let src = "\
pub fn settle(x: u32) -> u32 {
    helper(x)
}
fn helper(x: u32) -> u32 {
    let v = Vec::new();
    drop(v);
    x
}
";
    let mut cfg = empty_config();
    cfg.hot_roots = vec![root("crates/toy/src/hot.rs", "settle")];
    let baseline = Baseline::parse(
        "{\"format\": \"busarb-lint-baseline/1\", \"suppressions\": [\
           {\"check\": \"hot-alloc\", \"file\": \"crates/toy/src/hot.rs\",\
            \"symbol\": \"helper\", \"reason\": \"seeded for the mutation test\"}]}",
    )
    .expect("baseline parses");
    let workspace = ws(&[("crates/toy/src/hot.rs", src)]);
    let report = run(&workspace, &cfg, &baseline);
    assert!(report.is_clean(), "{:?}", report.open);
    assert_eq!(report.suppressed.len(), 1);

    // Fix the violation but keep the suppression: baseline rot fails.
    let fixed = src.replace("let v = Vec::new();\n    drop(v);\n    ", "");
    let report = run(&ws(&[("crates/toy/src/hot.rs", &fixed)]), &cfg, &baseline);
    assert!(!report.is_clean());
    assert_eq!(report.open.len(), 1);
    assert_eq!(report.open[0].check, "baseline-unused");
}
