//! The four check families and their sink tables.
//!
//! Every check consumes the lexed/parsed/graphed workspace and emits
//! [`Finding`]s. Check identifiers are stable — they key the baseline
//! file and the `busarb-lint/1` JSON report:
//!
//! | id                      | family      | what it proves                         |
//! |-------------------------|-------------|----------------------------------------|
//! | `hot-alloc`             | purity      | no allocation reachable from hot roots |
//! | `hot-panic`             | purity      | no panic/unwrap/expect from hot roots  |
//! | `hot-lock`              | purity      | no `Mutex` lock from hot roots         |
//! | `hot-slow-math`         | purity      | no libm `.ln()`-class calls in fast-math closure |
//! | `det-collections`       | determinism | no `HashMap`/`HashSet` in report-feeding crates |
//! | `det-time`              | determinism | no `std::time` in report-feeding crates |
//! | `det-os-random`         | determinism | no OS entropy in report-feeding crates |
//! | `dispatch-token`        | dispatch    | lexer-accurate variant/slug occurrence counts |
//! | `dispatch-match`        | dispatch    | every registered `ProtocolKind` match names every variant |
//! | `panic-surface`         | panics      | catalog of panic sites reachable from the event loop (informational) |
//! | `unwrap-policy`         | panics      | no bare `.unwrap()` in non-test library code |
//! | `forbid-unsafe`         | policy      | every crate root carries `#![forbid(unsafe_code)]` |
//! | `root-missing`          | engine      | a configured root fn no longer exists  |
//! | `baseline-unused`       | engine      | a suppression matches nothing (rot)    |

use crate::graph::{CallGraph, CallKind, CallSite, FileFns, FnId};
use crate::items::FnItem;
use crate::lexer::{Token, TokenKind};

/// Static description of one registered check (for `--list` and the
/// JSON report header).
#[derive(Debug, Clone, Copy)]
pub struct CheckInfo {
    /// Stable identifier (baseline key).
    pub id: &'static str,
    /// Family grouping.
    pub family: &'static str,
    /// One-line description.
    pub description: &'static str,
}

/// Every registered check.
pub const CHECKS: &[CheckInfo] = &[
    CheckInfo {
        id: "hot-alloc",
        family: "purity",
        description: "no allocation (Vec/Box/String/format!/collect except AgentSet) reachable from a hot root",
    },
    CheckInfo {
        id: "hot-panic",
        family: "purity",
        description: "no panic!/unwrap/expect/unreachable! reachable from a hot root",
    },
    CheckInfo {
        id: "hot-lock",
        family: "purity",
        description: "no Mutex/RwLock acquisition reachable from a hot root",
    },
    CheckInfo {
        id: "hot-slow-math",
        family: "purity",
        description: "no libm slow-math (.ln/.log2/.exp/.powf) reachable from a fast-math root",
    },
    CheckInfo {
        id: "det-collections",
        family: "determinism",
        description: "no HashMap/HashSet (randomized iteration order) in report-feeding crates",
    },
    CheckInfo {
        id: "det-time",
        family: "determinism",
        description: "no std::time (wall-clock) in report-feeding crates",
    },
    CheckInfo {
        id: "det-os-random",
        family: "determinism",
        description: "no OS entropy (thread_rng/OsRng/from_entropy) in report-feeding crates",
    },
    CheckInfo {
        id: "dispatch-token",
        family: "dispatch",
        description: "every ProtocolKind variant/slug occurs often enough at each dispatch surface, counting code tokens only",
    },
    CheckInfo {
        id: "dispatch-match",
        family: "dispatch",
        description: "registered ProtocolKind matches name every variant explicitly (wildcards do not count)",
    },
    CheckInfo {
        id: "panic-surface",
        family: "panics",
        description: "machine-readable catalog of every panic site reachable from the event loop (informational, never fails)",
    },
    CheckInfo {
        id: "unwrap-policy",
        family: "panics",
        description: "no bare `.unwrap()` in non-test library code (binaries and main.rs are exempt)",
    },
    CheckInfo {
        id: "forbid-unsafe",
        family: "policy",
        description: "every crate root (src/lib.rs) carries #![forbid(unsafe_code)]",
    },
    CheckInfo {
        id: "root-missing",
        family: "engine",
        description: "every configured root function still exists (renames cannot disarm the engine)",
    },
    CheckInfo {
        id: "baseline-unused",
        family: "engine",
        description: "every baseline suppression still matches a finding (suppression rot)",
    },
];

/// One finding: check id, location, symbol, and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which check fired.
    pub check: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 when the finding is file-scoped).
    pub line: u32,
    /// The symbol the finding anchors to (function name, variant, …) —
    /// the baseline suppression key, so it must be stable across
    /// unrelated edits.
    pub symbol: String,
    /// Human-readable explanation.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.line == 0 {
            write!(f, "{} [{}] {}", self.file, self.check, self.message)
        } else {
            write!(
                f,
                "{}:{} [{}] {}",
                self.file, self.line, self.check, self.message
            )
        }
    }
}

/// Where a root function lives.
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// Workspace-relative path suffix (`crates/bus/src/contention.rs`).
    pub file: &'static str,
    /// Required impl type, when the name alone is ambiguous in the file.
    pub impl_type: Option<&'static str>,
    /// Function name.
    pub name: &'static str,
}

/// One entry of the reachable panic-site catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Containing function (qualified).
    pub function: String,
    /// Construct: `panic!`, `assert!`, `.unwrap()`, `.expect()`, ….
    pub construct: String,
}

const ALLOC_PATHS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    "Box::pin",
    "String::new",
    "String::with_capacity",
    "String::from",
    "Rc::new",
    "Arc::new",
    "BTreeMap::new",
    "VecDeque::new",
    "VecDeque::with_capacity",
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "into_boxed_slice"];
/// Panic constructs banned outright on hot paths. `assert!` guards and
/// `debug_assert!` are *not* here: asserts are the workspace's approved
/// cheap invariant guards and are tracked by the panic-surface catalog
/// instead; `debug_assert!` compiles out of release builds entirely.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Catalog-only panic constructs (reported in the panic surface, not as
/// `hot-panic` findings).
const GUARD_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];
const LOCK_METHODS: &[&str] = &["lock"];
const SLOW_MATH_METHODS: &[&str] = &[
    "ln", "log", "log2", "log10", "exp", "exp2", "exp_m1", "ln_1p", "powf",
];

/// Scans one function body for purity violations, pushing findings
/// anchored at the containing function.
#[allow(clippy::too_many_arguments)]
fn scan_purity(
    path: &str,
    item: &FnItem,
    sites: &[CallSite],
    via: &str,
    slow_math: bool,
    findings: &mut Vec<Finding>,
) {
    let symbol = item.qualified_name();
    for site in sites {
        match &site.kind {
            CallKind::Macro => {
                if ALLOC_MACROS.contains(&site.name.as_str()) {
                    findings.push(Finding {
                        check: "hot-alloc",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`{}!` in `{symbol}`{via}", site.name),
                    });
                }
                if PANIC_MACROS.contains(&site.name.as_str()) {
                    findings.push(Finding {
                        check: "hot-panic",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`{}!` in `{symbol}`{via}", site.name),
                    });
                }
            }
            CallKind::Path { full, .. } => {
                if ALLOC_PATHS.contains(&full.as_str())
                    || full.ends_with("::to_string")
                    || (full.ends_with("::with_capacity") && !full.starts_with("AgentSet"))
                {
                    findings.push(Finding {
                        check: "hot-alloc",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`{full}` in `{symbol}`{via}"),
                    });
                }
                if full == "Mutex::new" || full.ends_with("Mutex::lock") {
                    findings.push(Finding {
                        check: "hot-lock",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`{full}` in `{symbol}`{via}"),
                    });
                }
            }
            CallKind::Method(turbofish) => {
                let name = site.name.as_str();
                if ALLOC_METHODS.contains(&name) {
                    findings.push(Finding {
                        check: "hot-alloc",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`.{name}()` in `{symbol}`{via}"),
                    });
                }
                if name == "collect" && turbofish.as_deref() != Some("AgentSet") {
                    findings.push(Finding {
                        check: "hot-alloc",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!(
                            "`.collect()` in `{symbol}` (only `.collect::<AgentSet>()` is allocation-free){via}"
                        ),
                    });
                }
                if PANIC_METHODS.contains(&name) {
                    findings.push(Finding {
                        check: "hot-panic",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`.{name}()` in `{symbol}`{via}"),
                    });
                }
                if LOCK_METHODS.contains(&name) {
                    findings.push(Finding {
                        check: "hot-lock",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!("`.{name}()` in `{symbol}`{via}"),
                    });
                }
                if slow_math && SLOW_MATH_METHODS.contains(&name) {
                    findings.push(Finding {
                        check: "hot-slow-math",
                        file: path.to_string(),
                        line: site.line,
                        symbol: symbol.clone(),
                        message: format!(
                            "`.{name}()` in `{symbol}` — route through the table-based fast_ln family{via}"
                        ),
                    });
                }
            }
            CallKind::Free => {}
        }
    }
}

/// Resolves a [`RootSpec`] against the workspace.
fn resolve_root(files: &[FileFns<'_>], spec: &RootSpec) -> Vec<FnId> {
    let mut out = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if !f.path.ends_with(spec.file) {
            continue;
        }
        for (ii, item) in f.items.iter().enumerate() {
            if item.is_test || item.name != spec.name {
                continue;
            }
            if let Some(ty) = spec.impl_type {
                if item.impl_type.as_deref() != Some(ty) {
                    continue;
                }
            }
            out.push(FnId { file: fi, item: ii });
        }
    }
    out
}

/// Renders a `reachable via root → … → here` suffix for messages.
fn via_chain(
    files: &[FileFns<'_>],
    parents: &std::collections::BTreeMap<FnId, FnId>,
    id: FnId,
) -> String {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(&p) = parents.get(&cur) {
        if p == cur {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    if chain.len() <= 1 {
        return String::new();
    }
    let names: Vec<String> = chain
        .iter()
        .map(|&n| files[n.file].items[n.item].name.clone())
        .collect();
    format!(" (reachable via {})", names.join(" → "))
}

/// Runs the transitive purity family: `hot-alloc`/`hot-panic`/`hot-lock`
/// over everything reachable from `hot_roots`, `hot-slow-math` over
/// everything reachable from `fast_math_roots`.
pub fn check_purity(
    files: &[FileFns<'_>],
    graph: &CallGraph,
    hot_roots: &[RootSpec],
    fast_math_roots: &[RootSpec],
    findings: &mut Vec<Finding>,
) {
    for (specs, slow_math) in [(hot_roots, false), (fast_math_roots, true)] {
        let mut roots = Vec::new();
        for spec in specs {
            let resolved = resolve_root(files, spec);
            if resolved.is_empty() {
                findings.push(Finding {
                    check: "root-missing",
                    file: spec.file.to_string(),
                    line: 0,
                    symbol: spec.name.to_string(),
                    message: format!(
                        "configured root `{}` not found in `{}` (renamed? update the lint config)",
                        spec.name, spec.file
                    ),
                });
            }
            roots.extend(resolved);
        }
        let parents = graph.reachable(&roots);
        for &id in parents.keys() {
            let f = &files[id.file];
            let item = &f.items[id.item];
            let sites = &graph.sites[id.file][id.item];
            let via = via_chain(files, &parents, id);
            if slow_math {
                // Fast-math closure: only the slow-math sink class.
                let mut slow_only = Vec::new();
                scan_purity(f.path, item, sites, &via, true, &mut slow_only);
                findings.extend(slow_only.into_iter().filter(|f| f.check == "hot-slow-math"));
            } else {
                scan_purity(f.path, item, sites, &via, false, findings);
            }
        }
    }
}

const DET_COLLECTION_IDENTS: &[&str] = &["HashMap", "HashSet"];
const DET_RANDOM_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "getrandom"];

/// Token-level determinism scan over files under `paths` prefixes;
/// `cfg(test)` regions are exempt.
pub fn check_determinism(files: &[FileFns<'_>], paths: &[&str], findings: &mut Vec<Finding>) {
    for f in files {
        if !paths.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        // Token-index spans of test regions, via the parsed items.
        let test_spans: Vec<core::ops::Range<usize>> = f
            .items
            .iter()
            .filter(|i| i.is_test)
            .map(|i| i.body.clone())
            .collect();
        let enclosing_fn = |idx: usize| -> String {
            f.items
                .iter()
                .find(|i| i.body.contains(&idx))
                .map_or_else(|| "(file scope)".to_string(), FnItem::qualified_name)
        };
        for (ti, t) in f.tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || test_spans.iter().any(|r| r.contains(&ti)) {
                continue;
            }
            let (check, what): (&'static str, &str) = if DET_COLLECTION_IDENTS.contains(&t.text) {
                ("det-collections", "randomized iteration order")
            } else if DET_RANDOM_IDENTS.contains(&t.text) {
                ("det-os-random", "OS entropy")
            } else if matches!(t.text, "SystemTime" | "Instant")
                || (t.text == "time"
                    && ti >= 3
                    && f.tokens[ti - 1].text == ":"
                    && f.tokens[ti - 2].text == ":"
                    && f.tokens[ti - 3].text == "std")
            {
                ("det-time", "wall-clock time")
            } else {
                continue;
            };
            findings.push(Finding {
                check,
                file: f.path.to_string(),
                line: t.line,
                symbol: format!("{}::{}", enclosing_fn(ti), t.text),
                message: format!(
                    "`{}` ({what}) in a crate feeding RunReport/sweep merge/serve aggregation",
                    t.text
                ),
            });
        }
    }
}

/// Workspace panic/unsafe policy, migrated from the pre-engine string
/// heuristics in `cargo xtask lint` (which this check retires):
///
/// * **`unwrap-policy`** — a bare `.unwrap()` in library code must
///   justify itself as `.expect("why this cannot fail")`. Binaries and
///   `main.rs` roots may panic on bad input; `#[cfg(test)]` regions and
///   `#[test]` fns are exempt (doc comments never lex as code).
/// * **`forbid-unsafe`** — every crate root (`src/lib.rs`, shims
///   included) must carry `#![forbid(unsafe_code)]`.
pub fn check_policy(files: &[FileFns<'_>], findings: &mut Vec<Finding>) {
    for f in files {
        if !f.path.contains("/bin/") && !f.path.ends_with("/main.rs") {
            let test_spans: Vec<core::ops::Range<usize>> = f
                .items
                .iter()
                .filter(|i| i.is_test)
                .map(|i| i.body.clone())
                .collect();
            let enclosing_fn = |idx: usize| -> String {
                f.items
                    .iter()
                    .find(|i| i.body.contains(&idx))
                    .map_or_else(|| "(file scope)".to_string(), FnItem::qualified_name)
            };
            for i in 0..f.tokens.len().saturating_sub(3) {
                let is = |k: usize, text: &str| f.tokens[i + k].text == text;
                if f.tokens[i].kind == TokenKind::Punct
                    && is(0, ".")
                    && is(1, "unwrap")
                    && is(2, "(")
                    && is(3, ")")
                    && !test_spans.iter().any(|r| r.contains(&i))
                {
                    findings.push(Finding {
                        check: "unwrap-policy",
                        file: f.path.to_string(),
                        line: f.tokens[i].line,
                        symbol: enclosing_fn(i),
                        message: "bare `.unwrap()` in library code — use `.expect(\"why this cannot fail\")`"
                            .to_string(),
                    });
                }
            }
        }
        if f.path.ends_with("src/lib.rs") {
            let has_forbid = (0..f.tokens.len().saturating_sub(3)).any(|i| {
                f.tokens[i].text == "forbid"
                    && f.tokens[i + 1].text == "("
                    && f.tokens[i + 2].text == "unsafe_code"
                    && f.tokens[i + 3].text == ")"
            });
            if !has_forbid {
                findings.push(Finding {
                    check: "forbid-unsafe",
                    file: f.path.to_string(),
                    line: 0,
                    symbol: "(crate root)".to_string(),
                    message: "missing `#![forbid(unsafe_code)]`".to_string(),
                });
            }
        }
    }
}

/// Counts **code** occurrences of `Enum::Variant` path tokens in a file
/// (comments and strings never count — the sharpening over the old
/// substring heuristic).
#[must_use]
pub fn count_variant_paths(tokens: &[Token<'_>], enum_name: &str, variant: &str) -> usize {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut n = 0;
    for i in 0..code.len() {
        if code[i].kind == TokenKind::Ident
            && code[i].text == variant
            && i >= 3
            && code[i - 1].text == ":"
            && code[i - 2].text == ":"
            && code[i - 3].kind == TokenKind::Ident
            && code[i - 3].text == enum_name
        {
            n += 1;
        }
    }
    n
}

/// Counts occurrences of `slug` inside string-literal tokens, at word
/// boundaries: the characters on either side must not extend the slug,
/// so `rr` inside `central-rr` (or inside prose like `borrow`) does not
/// count, but `rr` in a usage string listing the protocols does.
/// Comments never count — that is the whole point over the old raw
/// substring heuristic.
#[must_use]
pub fn count_slug_literals(tokens: &[Token<'_>], slug: &str) -> usize {
    let extends = |c: char| c.is_ascii_alphanumeric() || c == '-';
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .map(|t| {
            let content = t.str_content();
            content
                .match_indices(slug)
                .filter(|(at, _)| {
                    let before = content[..*at].chars().next_back();
                    let after = content[at + slug.len()..].chars().next();
                    before.is_none_or(|c| !extends(c)) && after.is_none_or(|c| !extends(c))
                })
                .count()
        })
        .sum()
}

/// A dispatch surface: file plus minimum per-variant occurrence count.
#[derive(Debug, Clone, Copy)]
pub struct TokenSite {
    /// Workspace-relative path suffix.
    pub file: &'static str,
    /// Minimum occurrences per variant/slug.
    pub min_count: usize,
}

/// Lexer-accurate variant/slug occurrence counting at registered
/// dispatch surfaces.
#[allow(clippy::too_many_arguments)]
pub fn check_dispatch_tokens(
    files: &[FileFns<'_>],
    enum_name: &str,
    variants: &[String],
    variant_sites: &[TokenSite],
    slugs: &[String],
    slug_sites: &[TokenSite],
    findings: &mut Vec<Finding>,
) {
    for (sites, tokens, kind) in [
        (variant_sites, variants, "variant"),
        (slug_sites, slugs, "slug"),
    ] {
        for site in sites {
            let Some(f) = files.iter().find(|f| f.path.ends_with(site.file)) else {
                findings.push(Finding {
                    check: "dispatch-token",
                    file: site.file.to_string(),
                    line: 0,
                    symbol: site.file.to_string(),
                    message:
                        "registered dispatch surface not found (moved? update the lint config)"
                            .to_string(),
                });
                continue;
            };
            for token in tokens {
                let n = if kind == "variant" {
                    count_variant_paths(f.tokens, enum_name, token)
                } else {
                    count_slug_literals(f.tokens, token)
                };
                if n < site.min_count {
                    findings.push(Finding {
                        check: "dispatch-token",
                        file: f.path.to_string(),
                        line: 0,
                        symbol: token.clone(),
                        message: format!(
                            "{kind} `{token}` occurs {n}x in code (needs ≥{}) — every protocol must be wired into this dispatch surface",
                            site.min_count
                        ),
                    });
                }
            }
        }
    }
}

/// One `match` expression's coverage of an enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchCoverage {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// Variants named in arm patterns (deduped, source order).
    pub covered: Vec<String>,
    /// Whether any arm is a wildcard (`_`) or a binding catch-all.
    pub has_wildcard: bool,
}

/// Finds every `match` in `tokens` whose arm patterns name
/// `Enum::Variant` paths, and reports which variants each covers.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn match_coverages(tokens: &[Token<'_>], enum_name: &str) -> Vec<MatchCoverage> {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].kind == TokenKind::Ident && code[i].text == "match") {
            i += 1;
            continue;
        }
        let match_line = code[i].line;
        // Scrutinee runs to the `{` at depth 0 (struct literals cannot
        // appear unparenthesized in a scrutinee).
        let mut j = i + 1;
        let mut pdepth = 0i32;
        while j < code.len() {
            match code[j].text {
                "(" | "[" => pdepth += 1,
                ")" | "]" => pdepth -= 1,
                "{" if pdepth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= code.len() {
            break;
        }
        let open = j;
        // Parse arms at depth 1: pattern tokens until `=>`, then skip
        // the arm value.
        let mut covered: Vec<String> = Vec::new();
        let mut has_wildcard = false;
        let mut saw_any_variant = false;
        let mut k = open + 1;
        'arms: while k < code.len() && code[k].text != "}" {
            // --- pattern ---
            let mut pat: Vec<usize> = Vec::new();
            let mut depth = 0i32;
            while k < code.len() {
                let t = code[k];
                if depth == 0 && t.text == "=" && code.get(k + 1).is_some_and(|n| n.text == ">") {
                    k += 2;
                    break;
                }
                if depth == 0 && t.text == "}" {
                    break 'arms;
                }
                match t.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
                pat.push(k);
                k += 1;
            }
            // Pattern analysis: `Enum::V` paths; a lone `_` (or `_` as
            // the whole pattern before a guard) is a wildcard.
            let mut m = 0usize;
            let mut pattern_names_variant = false;
            while m < pat.len() {
                let t = code[pat[m]];
                if t.kind == TokenKind::Ident
                    && m >= 3
                    && code[pat[m - 1]].text == ":"
                    && code[pat[m - 2]].text == ":"
                    && code[pat[m - 3]].text == enum_name
                {
                    pattern_names_variant = true;
                    if !covered.contains(&t.text.to_string()) {
                        covered.push(t.text.to_string());
                    }
                }
                m += 1;
            }
            if pattern_names_variant {
                saw_any_variant = true;
            }
            // Wildcard: the pattern (up to any `if` guard) is exactly `_`.
            let guard_at = pat
                .iter()
                .position(|&x| code[x].kind == TokenKind::Ident && code[x].text == "if");
            let effective = &pat[..guard_at.unwrap_or(pat.len())];
            if effective.len() == 1 && code[effective[0]].text == "_" {
                has_wildcard = true;
            }
            // --- arm value ---
            if k < code.len() && code[k].text == "{" {
                let mut depth = 0i32;
                while k < code.len() {
                    match code[k].text {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                // Optional trailing comma after a braced arm.
                if k < code.len() && code[k].text == "," {
                    k += 1;
                }
            } else {
                let mut depth = 0i32;
                while k < code.len() {
                    let t = code[k];
                    if depth == 0 && t.text == "," {
                        k += 1;
                        break;
                    }
                    if depth == 0 && t.text == "}" {
                        break;
                    }
                    match t.text {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        if saw_any_variant {
            out.push(MatchCoverage {
                line: match_line,
                covered,
                has_wildcard,
            });
        }
        i = open + 1;
    }
    out
}

/// A registered exhaustive-match site: every `ProtocolKind` match
/// inside `fn_name` must name every variant explicitly.
#[derive(Debug, Clone, Copy)]
pub struct MatchSite {
    /// Workspace-relative path suffix.
    pub file: &'static str,
    /// Required impl self-type, when several fns share the name
    /// (`ProtocolKind::fmt` vs `Grant::fmt`).
    pub impl_type: Option<&'static str>,
    /// Function whose matches must be exhaustive.
    pub fn_name: &'static str,
}

/// Match-arm exhaustiveness at registered sites. The compiler cannot
/// enforce this: `ProtocolKind` is `#[non_exhaustive]`, so every match
/// outside `busarb-core` legally carries a wildcard arm — which is
/// exactly how a dropped variant keeps compiling. Here the wildcard
/// earns nothing: each registered match must *name* every variant.
pub fn check_dispatch_matches(
    files: &[FileFns<'_>],
    enum_name: &str,
    variants: &[String],
    sites: &[MatchSite],
    findings: &mut Vec<Finding>,
) {
    for site in sites {
        let Some(f) = files.iter().find(|f| f.path.ends_with(site.file)) else {
            findings.push(Finding {
                check: "dispatch-match",
                file: site.file.to_string(),
                line: 0,
                symbol: site.fn_name.to_string(),
                message: "registered match site file not found (moved? update the lint config)"
                    .to_string(),
            });
            continue;
        };
        let matching: Vec<&FnItem> = f
            .items
            .iter()
            .filter(|i| {
                !i.is_test
                    && i.name == site.fn_name
                    && site
                        .impl_type
                        .is_none_or(|ty| i.impl_type.as_deref() == Some(ty))
            })
            .collect();
        if matching.is_empty() {
            findings.push(Finding {
                check: "dispatch-match",
                file: f.path.to_string(),
                line: 0,
                symbol: site.fn_name.to_string(),
                message: format!(
                    "registered match fn `{}` not found (renamed? update the lint config)",
                    site.fn_name
                ),
            });
            continue;
        }
        let coverages: Vec<MatchCoverage> = matching
            .iter()
            .flat_map(|item| match_coverages(&f.tokens[item.body.clone()], enum_name))
            .collect();
        if coverages.is_empty() {
            findings.push(Finding {
                check: "dispatch-match",
                file: f.path.to_string(),
                line: matching[0].line,
                symbol: site.fn_name.to_string(),
                message: format!(
                    "no `{enum_name}` match found in `{}` — dispatch moved? update the lint config",
                    site.fn_name
                ),
            });
            continue;
        }
        for cov in coverages {
            for v in variants {
                if !cov.covered.contains(v) {
                    findings.push(Finding {
                        check: "dispatch-match",
                        file: f.path.to_string(),
                        line: cov.line,
                        symbol: format!("{}::{v}", site.fn_name),
                        message: format!(
                            "match in `{}` does not name `{enum_name}::{v}`{}",
                            site.fn_name,
                            if cov.has_wildcard {
                                " (the wildcard arm would silently swallow it)"
                            } else {
                                ""
                            }
                        ),
                    });
                }
            }
        }
    }
}

/// Builds the panic-surface catalog: everything panic-shaped reachable
/// from the runner roots. The catalog is informational — it goes into
/// the report (text and JSON) but never fails the lint; its job is to
/// make the runner's panic surface *visible* so reviews and the
/// workspace snapshot test can pin it. Only an unresolvable runner root
/// is a finding (`root-missing`): that means the inventory itself has
/// silently lost its anchor.
pub fn check_panic_surface(
    files: &[FileFns<'_>],
    graph: &CallGraph,
    runner_roots: &[RootSpec],
    findings: &mut Vec<Finding>,
) -> Vec<PanicSite> {
    let mut roots = Vec::new();
    for spec in runner_roots {
        let resolved = resolve_root(files, spec);
        if resolved.is_empty() {
            findings.push(Finding {
                check: "root-missing",
                file: spec.file.to_string(),
                line: 0,
                symbol: spec.name.to_string(),
                message: format!(
                    "configured runner root `{}` not found in `{}` (renamed? update the lint config)",
                    spec.name, spec.file
                ),
            });
        }
        roots.extend(resolved);
    }
    let parents = graph.reachable(&roots);
    let mut catalog = Vec::new();
    for &id in parents.keys() {
        let f = &files[id.file];
        let item = &f.items[id.item];
        for site in &graph.sites[id.file][id.item] {
            let construct = match &site.kind {
                CallKind::Macro
                    if PANIC_MACROS.contains(&site.name.as_str())
                        || GUARD_MACROS.contains(&site.name.as_str()) =>
                {
                    format!("{}!", site.name)
                }
                CallKind::Method(_) if PANIC_METHODS.contains(&site.name.as_str()) => {
                    format!(".{}()", site.name)
                }
                _ => continue,
            };
            catalog.push(PanicSite {
                file: f.path.to_string(),
                line: site.line,
                function: item.qualified_name(),
                construct,
            });
        }
    }
    catalog.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    catalog
}
