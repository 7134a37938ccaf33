//! Front end 1: the source linter.
//!
//! Walks the workspace's Rust sources ([`workspace_files`]), lexes
//! each file ([`crate::lexer`]) and enforces the repo invariants as
//! token-pattern rules:
//!
//! - **DLK001** — no `unwrap()` / `expect(` or panicking macro
//!   (`panic!`, `unreachable!`, `todo!`, `unimplemented!`) in hot-path
//!   modules outside `#[cfg(test)]`. They cover the whole request path
//!   (engine replay with each shard's op walk and the router's
//!   translation, the trace ops every replayed request is built from
//!   and their record codec, memctrl mapping and service, the locker's
//!   per-request check, lock-table probe and µISA, the dram device,
//!   banks, hammer tracker, stats and row storage, the counter
//!   trackers and row-swap defenses every activation updates, and the
//!   hook chain that stacks them), plus dnn gemm and conv and the
//!   training and bit-search executor
//!   (`Network::run`/`backward`/`apply_grads` and `TrialRecord::losses`)
//!   and the worker pool they, the engine and the sweep run on.
//!   The service path returns typed errors; a panic there takes down a
//!   whole sweep worker.
//! - **DLK002** — only `Ordering::Relaxed` in `crates/obs`. The obs
//!   layer is deliberately relaxed-only (monotonic counters, no
//!   cross-cell invariants); a stray `SeqCst` RMW on the memctrl hot
//!   path costs more than the metric is worth.
//! - **DLK003** — determinism guard: no `Instant`/`SystemTime`,
//!   `thread::sleep`, or non-seeded RNG construction in the
//!   deterministic crates (dram, memctrl, engine, sim, locker,
//!   defenses), which must stay bit-reproducible across runs and
//!   thread counts.
//! - **DLK004** — codec exhaustiveness: every `AttackSpec` /
//!   `DefenseSpec` / `SpecKind` / `Workload` / `TraceOp` variant name
//!   must appear in both the `to_text` and `from_text` codec regions,
//!   catching the "added a variant, forgot a codec arm" bug class
//!   before a golden file can.
//! - **DLK005** — threads start in one module: no `thread::spawn`,
//!   `thread::scope` or `thread::Builder` outside the process's worker
//!   pool (`crates/memctrl/src/pool.rs`), so every parallel section
//!   shares its helpers and runnable threads never outnumber cores.
//!
//! `#[cfg(test)]` items are exempt from the token rules, and any
//! finding can be suppressed for its line (or the line below the
//! comment) with `// dlk-lint: allow(CODE): reason`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Report, RuleCode};
use crate::lexer::{self, in_regions, test_regions, Comment, LexedFile, Token};

/// Files on the hot path, where DLK001 applies. Matched by path
/// suffix so a fixture tree mimicking the layout hits the same rules.
const HOT_PATH_FILES: &[&str] = &[
    "crates/memctrl/src/controller.rs",
    "crates/memctrl/src/mapping.rs",
    "crates/locker/src/locker.rs",
    "crates/locker/src/locktable.rs",
    "crates/locker/src/isa.rs",
    "crates/dram/src/bank.rs",
    "crates/dram/src/device.rs",
    "crates/dram/src/rowhammer.rs",
    "crates/dram/src/stats.rs",
    "crates/dram/src/subarray.rs",
    "crates/defenses/src/traits.rs",
    "crates/defenses/src/graphene.rs",
    "crates/defenses/src/hydra.rs",
    "crates/defenses/src/twice.rs",
    "crates/defenses/src/counters.rs",
    "crates/defenses/src/rrs.rs",
    "crates/defenses/src/shadow.rs",
    "crates/sim/src/mitigation.rs",
    "crates/engine/src/engine.rs",
    "crates/engine/src/shard.rs",
    "crates/engine/src/route.rs",
    "crates/memctrl/src/trace.rs",
    "crates/dnn/src/tensor.rs",
    "crates/dnn/src/layers.rs",
    "crates/dnn/src/conv.rs",
    "crates/dnn/src/network.rs",
    "crates/dnn/src/quant.rs",
    "crates/memctrl/src/pool.rs",
];

/// The one file that may start threads (DLK005).
const POOL_FILE: &str = "crates/memctrl/src/pool.rs";

/// The `std::thread` items that start a thread (DLK005).
const THREAD_STARTS: &[&str] = &["spawn", "scope", "Builder"];

/// The panicking macros DLK001 rejects on the hot path.
const PANICKING_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Path fragments marking the relaxed-only obs layer (DLK002).
const OBS_PATHS: &[&str] = &["crates/obs/src/"];

/// Path fragments marking the deterministic crates (DLK003).
const DETERMINISTIC_PATHS: &[&str] = &[
    "crates/dram/src/",
    "crates/memctrl/src/",
    "crates/engine/src/",
    "crates/sim/src/",
    "crates/locker/src/",
    "crates/defenses/src/",
];

/// Atomic orderings DLK002 rejects (`Relaxed` is the policy; the
/// `cmp::Ordering` variants `Less`/`Equal`/`Greater` never match).
const FORBIDDEN_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

/// Identifiers that construct a non-seeded RNG (DLK003). Seeded
/// construction (`StdRng::seed_from_u64`) stays legal.
const NONSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// One cross-file codec-exhaustiveness obligation (DLK004): every
/// variant of `enum_name` must be mentioned in some `writers` fn body
/// and in some `parsers` fn body.
struct CodecRule {
    enum_name: &'static str,
    writers: &'static [&'static str],
    parsers: &'static [&'static str],
}

/// The spec and trace-record codecs under DLK004.
/// `AttackSpec::ReplayTrace` is built by `finish_trace` (trace lines
/// are folded in after the attack record), so the parse region spans
/// both functions.
const CODEC_RULES: &[CodecRule] = &[
    CodecRule {
        enum_name: "AttackSpec",
        writers: &["write_attack"],
        parsers: &["parse_attack", "finish_trace"],
    },
    CodecRule {
        enum_name: "DefenseSpec",
        writers: &["write_defense"],
        parsers: &["parse_defense"],
    },
    CodecRule { enum_name: "SpecKind", writers: &["write_victim"], parsers: &["parse_victim"] },
    CodecRule { enum_name: "Workload", writers: &["write_workload"], parsers: &["parse_workload"] },
    CodecRule { enum_name: "TraceOp", writers: &["write_record"], parsers: &["parse_record"] },
];

/// Collects every `.rs` file the linter covers, relative to `root`:
/// `src/`, `examples/`, `benches/`, and each crate's `src/`,
/// `examples/` and `benches/`. Test directories are deliberately not
/// walked — the linter's own fixture corpus lives in one. Sorted for
/// deterministic reports.
///
/// # Errors
///
/// Returns any directory-walk I/O error.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src"), root.join("examples"), root.join("benches")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            roots.push(member.join("src"));
            roots.push(member.join("examples"));
            roots.push(member.join("benches"));
        }
    }
    let mut files = Vec::new();
    for dir in roots {
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root`: walk, lex, apply every rule.
///
/// # Errors
///
/// Returns any I/O error from walking or reading sources.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut lexed = Vec::new();
    for path in workspace_files(root)? {
        let source = fs::read_to_string(&path)?;
        lexed.push((relative_path(root, &path), lexer::lex(&source)));
    }
    Ok(lint_lexed(&lexed))
}

/// `path` relative to `root`, with forward slashes (report-stable
/// across platforms).
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Applies every source rule to pre-lexed files. Paths decide which
/// rules apply (see the path tables above); the report comes back
/// sorted.
pub fn lint_lexed(files: &[(String, LexedFile)]) -> Report {
    let mut report = Report::new();
    report.files_scanned = files.len();
    for (path, lexed) in files {
        let regions = test_regions(&lexed.tokens);
        let mut diags = Vec::new();
        if HOT_PATH_FILES.iter().any(|f| path.ends_with(f)) {
            rule_dlk001(path, &lexed.tokens, &regions, &mut diags);
        }
        if OBS_PATHS.iter().any(|f| path.contains(f)) {
            rule_dlk002(path, &lexed.tokens, &regions, &mut diags);
        }
        if DETERMINISTIC_PATHS.iter().any(|f| path.contains(f)) {
            rule_dlk003(path, &lexed.tokens, &regions, &mut diags);
        }
        if !path.ends_with(POOL_FILE) {
            rule_dlk005(path, &lexed.tokens, &regions, &mut diags);
        }
        let allowed = suppressions(&lexed.comments);
        diags.retain(|d| !suppressed(&allowed, d));
        for diag in diags {
            report.push(diag);
        }
    }
    rule_dlk004(files, &mut report);
    report.sort();
    report
}

/// DLK001: `. unwrap ( )`, `. expect (` and every
/// [`PANICKING_MACROS`] `name !` outside tests.
fn rule_dlk001(
    path: &str,
    tokens: &[Token],
    regions: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for (at, token) in tokens.iter().enumerate() {
        if in_regions(regions, token.line) {
            continue;
        }
        let call = |name: &str| {
            at >= 1
                && tokens[at - 1].is_punct('.')
                && token.is_ident(name)
                && tokens.get(at + 1).is_some_and(|t| t.is_punct('('))
        };
        let bang = tokens.get(at + 1).is_some_and(|t| t.is_punct('!'));
        let what = if call("unwrap") {
            "unwrap()".to_string()
        } else if call("expect") {
            "expect()".to_string()
        } else if let Some(name) = PANICKING_MACROS.iter().find(|m| bang && token.is_ident(m)) {
            format!("{name}!")
        } else {
            continue;
        };
        out.push(Diagnostic::error(
            RuleCode::Dlk001,
            path,
            token.line,
            token.col,
            format!("{what} on the hot path: return a typed error instead of aborting the worker"),
        ));
    }
}

/// DLK002: any `Ordering::X` with X stronger than `Relaxed` in obs.
fn rule_dlk002(
    path: &str,
    tokens: &[Token],
    regions: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for (at, token) in tokens.iter().enumerate() {
        if in_regions(regions, token.line) || !token.is_ident("Ordering") {
            continue;
        }
        let [colon1, colon2, which] = [tokens.get(at + 1), tokens.get(at + 2), tokens.get(at + 3)];
        let path_sep =
            colon1.is_some_and(|t| t.is_punct(':')) && colon2.is_some_and(|t| t.is_punct(':'));
        let Some(which) = which.and_then(Token::ident).filter(|_| path_sep) else { continue };
        if FORBIDDEN_ORDERINGS.contains(&which) {
            let which_token = &tokens[at + 3];
            out.push(Diagnostic::error(
                RuleCode::Dlk002,
                path,
                which_token.line,
                which_token.col,
                format!("Ordering::{which} in crates/obs: the obs layer is Relaxed-only by policy"),
            ));
        }
    }
}

/// DLK003: wall-clock types, sleeps, non-seeded RNGs outside tests.
fn rule_dlk003(
    path: &str,
    tokens: &[Token],
    regions: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for (at, token) in tokens.iter().enumerate() {
        if in_regions(regions, token.line) {
            continue;
        }
        let Some(name) = token.ident() else { continue };
        let message = if name == "Instant" || name == "SystemTime" {
            format!("wall-clock type `{name}` in a deterministic crate: sim time only")
        } else if name == "sleep" && tokens.get(at + 1).is_some_and(|t| t.is_punct('(')) {
            "thread sleep in a deterministic crate: runs must be schedule-independent".to_string()
        } else if NONSEEDED_RNG.contains(&name) {
            format!("non-seeded RNG `{name}` in a deterministic crate: use StdRng::seed_from_u64")
        } else {
            continue;
        };
        out.push(Diagnostic::error(RuleCode::Dlk003, path, token.line, token.col, message));
    }
}

/// DLK005: `thread :: spawn`, `thread :: scope` and `thread ::
/// Builder` outside tests.
fn rule_dlk005(
    path: &str,
    tokens: &[Token],
    regions: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for (at, token) in tokens.iter().enumerate() {
        if in_regions(regions, token.line) || !token.is_ident("thread") {
            continue;
        }
        let [colon1, colon2, which] = [tokens.get(at + 1), tokens.get(at + 2), tokens.get(at + 3)];
        let path_sep =
            colon1.is_some_and(|t| t.is_punct(':')) && colon2.is_some_and(|t| t.is_punct(':'));
        let Some(which) = which.and_then(Token::ident).filter(|_| path_sep) else { continue };
        if THREAD_STARTS.contains(&which) {
            let which_token = &tokens[at + 3];
            out.push(Diagnostic::error(
                RuleCode::Dlk005,
                path,
                which_token.line,
                which_token.col,
                format!("thread::{which} outside the worker pool: run the work through dlk_memctrl::pool"),
            ));
        }
    }
}

/// DLK004: every codec enum variant present in both directions.
fn rule_dlk004(files: &[(String, LexedFile)], report: &mut Report) {
    for rule in CODEC_RULES {
        let Some((enum_file, enum_line, variants)) = find_enum(files, rule.enum_name) else {
            continue; // enum not in this tree (partial fixture corpora)
        };
        let suppressed_lines = files
            .iter()
            .find(|(path, _)| path == &enum_file)
            .map(|(_, lexed)| suppressions(&lexed.comments))
            .unwrap_or_default();
        for (direction, fns) in [("to_text", rule.writers), ("from_text", rule.parsers)] {
            let mut bodies = Vec::new();
            for fn_name in fns {
                bodies.extend(fn_bodies(files, fn_name));
            }
            if bodies.is_empty() {
                report.push(Diagnostic::error(
                    RuleCode::Dlk004,
                    &enum_file,
                    enum_line,
                    1,
                    format!(
                        "no {direction} codec region for {}: none of [{}] found",
                        rule.enum_name,
                        fns.join(", ")
                    ),
                ));
                continue;
            }
            for (variant, line, col) in &variants {
                let mentioned = bodies.iter().any(|body| body.iter().any(|t| t.is_ident(variant)));
                if !mentioned {
                    let diag = Diagnostic::error(
                        RuleCode::Dlk004,
                        &enum_file,
                        *line,
                        *col,
                        format!(
                            "{}::{variant} is missing from the {direction} codec ({})",
                            rule.enum_name,
                            fns.join("/")
                        ),
                    );
                    if !suppressed(&suppressed_lines, &diag) {
                        report.push(diag);
                    }
                }
            }
        }
    }
}

/// A variant name with its `(line, col)` position.
type Variant = (String, usize, usize);

/// Finds `enum name { ... }` across all files; returns the file, the
/// declaration line, and each variant with its position.
fn find_enum(files: &[(String, LexedFile)], name: &str) -> Option<(String, usize, Vec<Variant>)> {
    for (path, lexed) in files {
        let tokens = &lexed.tokens;
        for at in 0..tokens.len() {
            if !(tokens[at].is_ident("enum")
                && tokens.get(at + 1).is_some_and(|t| t.is_ident(name))
                && tokens.get(at + 2).is_some_and(|t| t.is_punct('{')))
            {
                continue;
            }
            return Some((path.clone(), tokens[at].line, enum_variants(&tokens[at + 3..])));
        }
    }
    None
}

/// Variant names at depth 0 of an enum body (cursor just past the
/// opening brace): skips `#[...]` attributes, payload groups and
/// discriminants.
fn enum_variants(tokens: &[Token]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut at = 0usize;
    let mut expecting_variant = true;
    let mut depth = 0usize;
    while let Some(token) = tokens.get(at) {
        if depth == 0 {
            if token.is_punct('}') {
                break;
            }
            if token.is_punct('#') && tokens.get(at + 1).is_some_and(|t| t.is_punct('[')) {
                // Skip the whole attribute.
                let mut bracket = 0usize;
                at += 1;
                while let Some(t) = tokens.get(at) {
                    if t.is_punct('[') {
                        bracket += 1;
                    } else if t.is_punct(']') {
                        bracket -= 1;
                        if bracket == 0 {
                            break;
                        }
                    }
                    at += 1;
                }
                at += 1;
                continue;
            }
            if expecting_variant {
                if let Some(name) = token.ident() {
                    variants.push((name.to_string(), token.line, token.col));
                    expecting_variant = false;
                }
            } else if token.is_punct(',') {
                expecting_variant = true;
            }
        }
        if token.is_punct('{') || token.is_punct('(') || token.is_punct('[') {
            depth += 1;
        } else if token.is_punct('}') || token.is_punct(')') || token.is_punct(']') {
            depth = depth.saturating_sub(1);
        }
        at += 1;
    }
    variants
}

/// Every body of a function named `name`, across all files, as token
/// slices (first `{` after the signature to its matching `}`).
fn fn_bodies<'a>(files: &'a [(String, LexedFile)], name: &str) -> Vec<&'a [Token]> {
    let mut bodies = Vec::new();
    for (_, lexed) in files {
        let tokens = &lexed.tokens;
        for at in 0..tokens.len() {
            if !(tokens[at].is_ident("fn") && tokens.get(at + 1).is_some_and(|t| t.is_ident(name)))
            {
                continue;
            }
            let Some(open) = (at + 2..tokens.len()).find(|&i| tokens[i].is_punct('{')) else {
                continue;
            };
            let mut depth = 0usize;
            let mut close = open;
            for (i, token) in tokens.iter().enumerate().skip(open) {
                if token.is_punct('{') {
                    depth += 1;
                } else if token.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        close = i;
                        break;
                    }
                }
            }
            bodies.push(&tokens[open..=close]);
        }
    }
    bodies
}

/// A suppression: rule `code` is allowed on lines `from..=to`.
type Suppression = (usize, usize, RuleCode);

/// Parses `dlk-lint: allow(CODE, ...)` comments. Each suppresses its
/// codes on the comment's own lines and the line below (so both
/// trailing and preceding comment styles work).
fn suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut allowed = Vec::new();
    for comment in comments {
        let Some(at) = comment.text.find("dlk-lint: allow(") else { continue };
        let rest = &comment.text[at + "dlk-lint: allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        for code in rest[..close].split(',') {
            if let Some(rule) = RuleCode::parse(code.trim()) {
                allowed.push((comment.line, comment.end_line + 1, rule));
            }
        }
    }
    allowed
}

/// True when `diag` is covered by a suppression for its exact code.
fn suppressed(allowed: &[Suppression], diag: &Diagnostic) -> bool {
    allowed.iter().any(|&(from, to, code)| code == diag.code && (from..=to).contains(&diag.line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint_one(path: &str, source: &str) -> Report {
        lint_lexed(&[(path.to_string(), lex(source))])
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn every_hot_path_file_exists() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        for file in HOT_PATH_FILES {
            assert!(root.join(file).is_file(), "HOT_PATH_FILES names missing {file}");
        }
    }

    #[test]
    fn dlk001_flags_only_hot_path_files() {
        let source = "fn f() { x.unwrap(); }";
        let hot = lint_one("crates/memctrl/src/controller.rs", source);
        assert_eq!(codes(&hot), ["DLK001"]);
        let cold = lint_one("crates/cli/src/lib.rs", source);
        assert!(cold.diagnostics.is_empty());
    }

    /// `source` at `path` has exactly one finding, a DLK001 naming `what`.
    fn assert_one_dlk001(path: &str, source: &str, what: &str) {
        let report = lint_one(path, source);
        assert_eq!(codes(&report), ["DLK001"]);
        assert!(report.diagnostics[0].message.starts_with(what), "{:?}", report.diagnostics);
    }

    #[test]
    fn dlk001_covers_the_whole_request_path() {
        for path in [
            "crates/dram/src/bank.rs",
            "crates/dram/src/rowhammer.rs",
            "crates/dram/src/stats.rs",
            "crates/dram/src/subarray.rs",
            "crates/memctrl/src/mapping.rs",
            "crates/locker/src/locker.rs",
            "crates/engine/src/engine.rs",
        ] {
            assert_one_dlk001(path, "fn f() { x.expect(\"y\"); }", "expect()");
        }
    }

    #[test]
    fn dlk001_flags_unreachable() {
        let source = "fn f() { match x { _ => unreachable!(\"x\") } }";
        assert_one_dlk001("crates/dnn/src/network.rs", source, "unreachable!");
    }

    #[test]
    fn dlk001_flags_todo() {
        assert_one_dlk001("crates/dnn/src/conv.rs", "fn f() -> u8 { todo!() }", "todo!");
    }

    #[test]
    fn dlk001_flags_unimplemented() {
        let source = "fn f() { unimplemented!() }";
        assert_one_dlk001("crates/dram/src/device.rs", source, "unimplemented!");
        // A plain identifier of the same name is not the macro.
        let ident = "fn f() { let todo = unreachable(); }";
        assert!(lint_one("crates/dram/src/device.rs", ident).diagnostics.is_empty());
    }

    #[test]
    fn dlk001_respects_cfg_test() {
        let source = "fn hot() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(); } }";
        let report = lint_one("crates/dram/src/device.rs", source);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn dlk001_sees_through_unwrap_in_strings() {
        let source = "fn f() { log(\"please .unwrap() me\"); }";
        let report = lint_one("crates/locker/src/isa.rs", source);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn dlk002_rejects_strong_orderings_only() {
        let bad = "fn f() { c.fetch_add(1, Ordering::SeqCst); }";
        let report = lint_one("crates/obs/src/metric.rs", bad);
        assert_eq!(codes(&report), ["DLK002"]);
        let relaxed = "fn f() { c.fetch_add(1, Ordering::Relaxed); s.sort_by(|a, b| a.cmp(b)); }";
        assert!(lint_one("crates/obs/src/metric.rs", relaxed).diagnostics.is_empty());
        let cmp = "fn f() -> Ordering { Ordering::Less }";
        assert!(lint_one("crates/obs/src/metric.rs", cmp).diagnostics.is_empty());
    }

    #[test]
    fn dlk003_flags_clock_sleep_and_rng() {
        let source = "fn f() { let t = Instant::now(); thread::sleep(d); let r = thread_rng(); }";
        let report = lint_one("crates/engine/src/shard.rs", source);
        assert_eq!(codes(&report), ["DLK003", "DLK003", "DLK003"]);
        // Seeded construction stays legal.
        let seeded = "fn f() { let r = StdRng::seed_from_u64(7); }";
        assert!(lint_one("crates/engine/src/shard.rs", seeded).diagnostics.is_empty());
    }

    #[test]
    fn suppression_covers_own_line_and_next() {
        let trailing = "fn f() { let t = Instant::now(); } // dlk-lint: allow(DLK003): bench only";
        assert!(lint_one("crates/sim/src/sweep.rs", trailing).diagnostics.is_empty());
        let preceding =
            "// dlk-lint: allow(DLK003): wall clock for progress display\nfn f() { Instant::now(); }";
        assert!(lint_one("crates/sim/src/sweep.rs", preceding).diagnostics.is_empty());
        // A different code is NOT masked.
        let wrong = "fn f() { Instant::now(); } // dlk-lint: allow(DLK001): wrong code";
        assert_eq!(codes(&lint_one("crates/sim/src/sweep.rs", wrong)), ["DLK003"]);
    }

    #[test]
    fn dlk005_flags_thread_starts_outside_the_pool() {
        let source = "fn f() { std::thread::spawn(g); thread::scope(|s| {}); \
                      let b = thread::Builder::new(); }";
        let report = lint_one("crates/sim/src/sweep.rs", source);
        assert_eq!(codes(&report), ["DLK005", "DLK005", "DLK005"]);
        assert!(report.diagnostics[0].message.starts_with("thread::spawn"));
        // Any crate, deterministic or not.
        assert_eq!(
            codes(&lint_one("crates/cli/src/lib.rs", "fn f() { thread::spawn(g); }")),
            ["DLK005"]
        );
        // The pool itself may start threads.
        assert!(lint_one("crates/memctrl/src/pool.rs", source).diagnostics.is_empty());
    }

    #[test]
    fn dlk005_spares_tests_and_other_thread_items() {
        let tests =
            "fn hot() {}\n#[cfg(test)]\nmod tests { fn t() { std::thread::scope(|s| {}); } }";
        assert!(lint_one("crates/obs/src/metric.rs", tests).diagnostics.is_empty());
        let others = "fn f() { thread::yield_now(); let id = thread::current().id(); \
                      let r: thread::Result<()> = Ok(()); let spawn = 1; scope(spawn); }";
        assert!(lint_one("crates/cli/src/lib.rs", others).diagnostics.is_empty());
        let suppressed = "fn f() { thread::spawn(g); } // dlk-lint: allow(DLK005): reason";
        assert!(lint_one("crates/cli/src/lib.rs", suppressed).diagnostics.is_empty());
    }

    #[test]
    fn dlk004_finds_the_missing_parse_arm() {
        let spec = "pub enum AttackSpec { Alpha { n: u32 }, Beta(u8), Gamma }\n\
                    fn write_attack(a: &AttackSpec) { match a { AttackSpec::Alpha { .. } => {}, \
                    AttackSpec::Beta(_) => {}, AttackSpec::Gamma => {} } }\n\
                    fn parse_attack(s: &str) { m(AttackSpec::Alpha); m(AttackSpec::Beta); }";
        let report = lint_lexed(&[("crates/sim/src/spec.rs".to_string(), lex(spec))]);
        assert_eq!(codes(&report), ["DLK004"]);
        let diag = &report.diagnostics[0];
        assert!(diag.message.contains("Gamma") && diag.message.contains("from_text"), "{diag:?}");
        assert_eq!(diag.line, 1);
    }

    #[test]
    fn dlk004_spans_multiple_parser_fns() {
        let spec = "pub enum AttackSpec { Alpha, Trace }\n\
                    fn write_attack(a: &AttackSpec) { m(AttackSpec::Alpha); m(AttackSpec::Trace); }\n\
                    fn parse_attack(s: &str) { m(AttackSpec::Alpha); }\n\
                    fn finish_trace(s: &str) { m(AttackSpec::Trace); }";
        let report = lint_lexed(&[("crates/sim/src/spec.rs".to_string(), lex(spec))]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn dlk004_missing_codec_fn_is_an_error_at_the_enum() {
        let spec = "pub enum DefenseSpec { Locker }\n\
                    fn write_defense(d: &DefenseSpec) { m(DefenseSpec::Locker); }";
        let report = lint_lexed(&[("crates/sim/src/spec.rs".to_string(), lex(spec))]);
        assert_eq!(codes(&report), ["DLK004"]);
        assert!(report.diagnostics[0].message.contains("parse_defense"));
    }

    #[test]
    fn enum_variant_extraction_skips_attrs_and_payloads() {
        let lexed = lex("enum E { #[doc = \"x\"] A { inner: Vec<(u8, u8)> }, B = 3, C(Q) }");
        let (_, _, variants) = find_enum(&[("f.rs".to_string(), lexed)], "E").expect("found");
        let names: Vec<&str> = variants.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }
}
