//! `sdm-analyze`: the workspace's offline static-analysis driver.
//!
//! The SDM stack keeps a few concurrency and hygiene contracts that rustc
//! and clippy do not check here: no stripe lock held across SM IO
//! submission, no wall-clock time source inside virtual-clock code, no
//! default-hasher map on the serving path without a reason, and no export
//! nothing else uses. This crate is a brace- and string-aware source
//! scanner that turns those conventions into named, individually
//! suppressable rules with `file:line` diagnostics — cheap enough to run
//! on every CI gate, dependency-free so it can never break the build it
//! guards.
//!
//! Contracts the compiler can resolve are lints instead: `unwrap`/`expect`,
//! prints and `dbg!` in library code outside tests are denied by clippy in
//! each crate's `lib.rs`, and every `unsafe` block needs a `// SAFETY:`
//! comment through the workspace's `clippy::undocumented_unsafe_blocks`.
//!
//! # Rules
//!
//! | Rule | Scope | Contract |
//! |------|-------|----------|
//! | `no-wall-clock` | virtual-clock crates | `Instant::now` / `SystemTime::now` leak host time into deterministic code |
//! | `lock-across-await-style` | library sources | a held lock guard's scope must not contain an IO submission call |
//! | `default-hasher-on-serving-path` | serving-path crates, non-test code | a `HashMap`/`HashSet` on the default (SipHash) hasher is a decision: program-generated keys take `IntMap`, outside input keeps the default and says so |
//! | `unreferenced-pub-item` | library sources, non-test code (a workspace pass) | a `pub` item whose name no other source file uses is dead or should be narrowed |
//!
//! # Suppressions
//!
//! A finding is suppressed by a justification comment naming the rule:
//!
//! * `// sdm-analyze: allow(rule-name)` — on the flagged line or the line
//!   directly above it;
//! * `// sdm-analyze: allow-file(rule-name)` — anywhere in the file,
//!   suppresses the rule for the whole file.
//!
//! Several rules may be listed comma-separated. Suppressions are expected
//! to sit next to a prose justification, mirroring `#[allow]` hygiene.
//!
//! # Honesty of a textual scanner
//!
//! This is a lint, not a proof: it sees tokens, not semantics (the
//! `lock-across-await-style` rule in particular is a heuristic over guard
//! binding scopes). On the serving path the "no stripe lock across an SM
//! submit" contract also holds by construction — the shared tier's batched
//! lookup runs no caller code under its lock — and the rule is its static
//! check: a stripe guard (`.lock()` / `stripe_lock(` binding) still live at
//! a submit call trips it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

/// Crates whose serving paths run on the virtual clock: any wall-clock
/// time source inside them silently breaks determinism and replay.
const VIRTUAL_CLOCK_CRATES: &[&str] = &[
    "sdm-core",
    "io-engine",
    "scm-device",
    "workload",
    "sdm-cache",
];

/// Crates a query passes through. A map on the default hasher there either
/// pays SipHash per lookup for keys the program generated itself, or is
/// keyed by outside input and needs the default — the rule makes each site
/// say which.
const SERVING_PATH_CRATES: &[&str] = &[
    "dlrm",
    "sdm-core",
    "sdm-cache",
    "io-engine",
    "scm-device",
    "embedding",
];

/// Call markers treated as IO submission points by
/// [`lock-across-await-style`](self#rules).
const IO_SUBMIT_MARKERS: &[&str] = &["submit(", "drain_each(", "poll_wait("];

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Static description of one rule, for `--list-rules` and the README table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier used in diagnostics and suppressions.
    pub name: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// The invariant the rule enforces.
    pub rationale: &'static str,
}

/// Every rule the driver runs, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        scope: "virtual-clock crates: sdm-core, io-engine, scm-device, workload, sdm-cache",
        rationale: "Instant::now/SystemTime::now leak host time into deterministic replay",
    },
    RuleInfo {
        name: "lock-across-await-style",
        scope: "library sources",
        rationale: "a lock guard's scope must not contain an IO submission call",
    },
    RuleInfo {
        name: "default-hasher-on-serving-path",
        scope: "serving-path crates: dlrm, sdm-core, sdm-cache, io-engine, scm-device, embedding, outside #[cfg(test)]",
        rationale: "program-generated keys use IntMap; a default-hasher map states why its keys are outside input",
    },
    RuleInfo {
        name: UNREFERENCED_PUB_ITEM,
        scope: "pub items in library sources, outside #[cfg(test)] and trait impls; users are every other .rs file under crates/, src/, tests/, examples/, benchmark/src/",
        rationale: "an exported item nothing else names is deleted, or narrowed when its own file uses it",
    },
];

/// Name of the workspace pass that no single file can decide.
const UNREFERENCED_PUB_ITEM: &str = "unreferenced-pub-item";

/// Directories whose sources count as users of a library's exported items.
/// The benchmark harness is its own workspace but builds against the
/// public API, so its sources count too.
const USER_ROOTS: &[&str] = &["crates/", "src/", "tests/", "examples/", "benchmark/src/"];

/// How a source file participates in the build, which decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// `crates/*/src/**` (minus `src/bin`) and the umbrella `src/`.
    Lib,
    /// Binaries, examples and build scripts.
    Bin,
    /// Integration tests.
    Test,
    /// Criterion benches.
    Bench,
}

/// Classifies a workspace-relative path; `None` means "do not scan".
fn classify(rel: &str) -> Option<FileKind> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("vendor/") || rel.starts_with("target/") {
        return None;
    }
    // Known-bad rule fixtures are scanned only by the self-test.
    if rel.contains("analyze_fixtures/") {
        return None;
    }
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return Some(FileKind::Test);
    }
    if rel.contains("/benches/") {
        return Some(FileKind::Bench);
    }
    if rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.ends_with("build.rs")
    {
        return Some(FileKind::Bin);
    }
    if rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")) {
        return Some(FileKind::Lib);
    }
    None
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`).
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// One source line after lexical analysis.
#[derive(Debug)]
struct Line {
    /// Original text (used for suppression and doctest search).
    raw: String,
    /// Text with comment bodies and string/char literal contents blanked,
    /// so rules never match inside prose or data.
    code: String,
    /// Brace depth at the end of the line.
    depth_after: i32,
    /// Inside a `#[cfg(test)]`-gated item's block.
    in_test: bool,
}

/// Lexer state carried across characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    Char,
}

/// Splits `content` into [`Line`]s with comments and literals blanked and
/// per-line brace depth / test-region annotations.
fn lex(content: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut state = LexState::Code;
    let mut depth: i32 = 0;
    // Depth the innermost `#[cfg(test)]` block closes at, when inside one.
    let mut test_close_depth: Option<i32> = None;
    // A `#[cfg(test)]` attribute has been seen and its item's `{` is still
    // pending.
    let mut test_attr_pending = false;

    for raw in content.lines() {
        let mut code = String::with_capacity(raw.len());
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        // Line comments never span lines.
        if state == LexState::LineComment {
            state = LexState::Code;
        }
        let entered_in_test = test_close_depth.is_some();
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                LexState::Code => match c {
                    '/' if next == Some('/') => {
                        state = LexState::LineComment;
                        code.push(' ');
                        i += 1;
                    }
                    '/' if next == Some('*') => {
                        state = LexState::BlockComment(1);
                        code.push(' ');
                        i += 1;
                    }
                    '"' => {
                        state = LexState::Str;
                        code.push('"');
                    }
                    'r' if next == Some('"') || next == Some('#') => {
                        // Possible raw string: r"…" or r#"…"#.
                        let mut hashes = 0usize;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            state = LexState::RawStr(hashes as u8);
                            code.push('r');
                            for _ in 0..hashes {
                                code.push('#');
                            }
                            code.push('"');
                            i = j;
                        } else {
                            code.push(c);
                        }
                    }
                    '\'' => {
                        // Lifetime (`'a`) vs char literal (`'a'`).
                        let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                            && bytes.get(i + 2) != Some(&'\'');
                        if is_lifetime {
                            code.push(c);
                        } else {
                            state = LexState::Char;
                            code.push('\'');
                        }
                    }
                    '{' => {
                        depth += 1;
                        if test_attr_pending && test_close_depth.is_none() {
                            test_close_depth = Some(depth - 1);
                            test_attr_pending = false;
                        }
                        code.push(c);
                    }
                    '}' => {
                        depth -= 1;
                        if test_close_depth == Some(depth) {
                            test_close_depth = None;
                        }
                        code.push(c);
                    }
                    _ => code.push(c),
                },
                LexState::LineComment => code.push(' '),
                LexState::BlockComment(d) => {
                    if c == '*' && next == Some('/') {
                        let d = d - 1;
                        state = if d == 0 {
                            LexState::Code
                        } else {
                            LexState::BlockComment(d)
                        };
                        code.push(' ');
                        i += 1;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::BlockComment(d + 1);
                        code.push(' ');
                        i += 1;
                    } else {
                        code.push(' ');
                    }
                }
                LexState::Str => match c {
                    '\\' => {
                        code.push(' ');
                        i += 1;
                        code.push(' ');
                    }
                    '"' => {
                        state = LexState::Code;
                        code.push('"');
                    }
                    _ => code.push(' '),
                },
                LexState::RawStr(hashes) => {
                    if c == '"' {
                        let mut j = i + 1;
                        let mut seen = 0u8;
                        while seen < hashes && bytes.get(j) == Some(&'#') {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            state = LexState::Code;
                            code.push('"');
                            for _ in 0..hashes {
                                code.push('#');
                            }
                            i = j - 1;
                        } else {
                            code.push(' ');
                        }
                    } else {
                        code.push(' ');
                    }
                }
                LexState::Char => match c {
                    '\\' => {
                        code.push(' ');
                        i += 1;
                        code.push(' ');
                    }
                    '\'' => {
                        state = LexState::Code;
                        code.push('\'');
                    }
                    _ => code.push(' '),
                },
            }
            i += 1;
        }
        // A string literal may span lines (test sources are often written
        // as `\`-continued strings), and its braces must not move the depth
        // that bounds `#[cfg(test)]` regions. A char literal never spans
        // lines; reset so one odd quote cannot blank the rest of a file.
        if state == LexState::Char {
            state = LexState::Code;
        }
        if code.trim_start().starts_with("#[cfg(test)]") || code.contains("#[cfg(test)]") {
            test_attr_pending = true;
        }
        lines.push(Line {
            raw: raw.to_string(),
            code,
            depth_after: depth,
            in_test: entered_in_test || test_close_depth.is_some(),
        });
    }
    lines
}

/// True when `line` (or the line above) carries a line-level suppression
/// for `rule`, or the file carries a file-level one.
fn suppressed(lines: &[Line], idx: usize, rule: &str, file_allows: &[String]) -> bool {
    if file_allows.iter().any(|r| r == rule) {
        return true;
    }
    let hit = |l: &Line| {
        l.raw
            .split("sdm-analyze: allow(")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .is_some_and(|list| list.split(',').any(|r| r.trim() == rule))
    };
    // A suppression on the line above only counts when that line is pure
    // comment — a trailing suppression on a *code* line covers that line
    // alone, not its successor.
    hit(&lines[idx]) || (idx > 0 && lines[idx - 1].code.trim().is_empty() && hit(&lines[idx - 1]))
}

/// Collects the file-level `allow-file(...)` suppressions.
fn file_allows(lines: &[Line]) -> Vec<String> {
    let mut out = Vec::new();
    for l in lines {
        if let Some(rest) = l.raw.split("sdm-analyze: allow-file(").nth(1) {
            if let Some(list) = rest.split(')').next() {
                out.extend(list.split(',').map(|r| r.trim().to_string()));
            }
        }
    }
    out
}

/// True when `code` contains `needle` not preceded/followed by an
/// identifier character (poor man's word boundary).
fn contains_word(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// Analyzes one source file. `rel_path` must be workspace-relative with
/// `/` separators — it decides which rules apply. Returns every finding,
/// suppressions already applied.
pub fn analyze_source(rel_path: &str, content: &str) -> Vec<Finding> {
    let Some(kind) = classify(rel_path) else {
        return Vec::new();
    };
    let lines = lex(content);
    let allows = file_allows(&lines);
    let mut findings = Vec::new();
    let mut push = |idx: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            path: rel_path.to_string(),
            line: idx + 1,
            rule,
            message,
        });
    };

    let in_virtual_clock_crate =
        crate_of(rel_path).is_some_and(|c| VIRTUAL_CLOCK_CRATES.contains(&c));
    let in_serving_path_crate =
        crate_of(rel_path).is_some_and(|c| SERVING_PATH_CRATES.contains(&c));
    // Inside a (possibly multi-line) `use` item: an import is not a use.
    let mut in_use_item = false;

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();

        // default-hasher-on-serving-path: the std map types named without
        // an explicit hasher (`IntMap`, `…Hasher…`, `with_hasher`) on the
        // same line.
        let item = code.trim_start().trim_start_matches("pub ");
        in_use_item |= item.starts_with("use ");
        if kind == FileKind::Lib
            && in_serving_path_crate
            && !line.in_test
            && !in_use_item
            && (contains_word(code, "HashMap") || contains_word(code, "HashSet"))
            && !code.contains("Hasher")
            && !code.contains("with_hasher")
            && !suppressed(&lines, idx, "default-hasher-on-serving-path", &allows)
        {
            push(
                idx,
                "default-hasher-on-serving-path",
                "HashMap/HashSet on the default hasher in a serving-path crate: use \
                 sdm_metrics::IntMap for program-generated keys, or keep it and say why"
                    .to_string(),
            );
        }
        in_use_item &= !code.contains(';');

        // no-wall-clock
        if in_virtual_clock_crate
            && (code.contains("Instant::now") || code.contains("SystemTime::now"))
            && !suppressed(&lines, idx, "no-wall-clock", &allows)
        {
            push(
                idx,
                "no-wall-clock",
                "wall-clock time source in a virtual-clock crate breaks deterministic replay"
                    .to_string(),
            );
        }
    }

    // lock-across-await-style: a guard binding's enclosing scope must not
    // contain an IO submission call. Guard bindings are recognised
    // textually: `let [mut] <name> = …lock(…)` / `…stripe_lock(…)`.
    if kind == FileKind::Lib {
        for (idx, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            let is_binding = code.contains("let ")
                && (code.contains(".lock()") || code.contains("stripe_lock("));
            if !is_binding || line.in_test {
                continue;
            }
            let guard_name = code
                .split("let ")
                .nth(1)
                .map(|r| r.trim_start_matches("mut "))
                .and_then(|r| r.split(|c: char| !(c.is_alphanumeric() || c == '_')).next())
                .unwrap_or("")
                .to_string();
            let scope_depth = line.depth_after;
            for (jdx, later) in lines.iter().enumerate().skip(idx + 1) {
                // Guard explicitly dropped: the scan stops being relevant.
                if !guard_name.is_empty() && later.code.contains(&format!("drop({guard_name})")) {
                    break;
                }
                if IO_SUBMIT_MARKERS.iter().any(|m| later.code.contains(m))
                    && !suppressed(&lines, jdx, "lock-across-await-style", &allows)
                {
                    findings.push(Finding {
                        path: rel_path.to_string(),
                        line: jdx + 1,
                        rule: "lock-across-await-style",
                        message: format!(
                            "IO submission inside the scope of lock guard `{guard_name}` \
                             (acquired line {}); submit only after the guard is released",
                            idx + 1
                        ),
                    });
                }
                if later.depth_after < scope_depth {
                    break;
                }
            }
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Recursively collects `.rs` files under `dir`, returning workspace
/// relative paths (with `/` separators) sorted for deterministic output.
fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Splits `code` into identifier-like words.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The leading identifier of `token` (`foo<T>(x` → `foo`).
fn ident_prefix(token: &str) -> &str {
    let end = token
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(token.len());
    &token[..end]
}

/// A `pub` item declaration: `(kind, name)`, where kind is the item
/// keyword (`fn`, `struct`, …). `None` for fields, modules and re-exports.
fn pub_item(code: &str) -> Option<(&str, &str)> {
    let mut tokens = code.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut kw = tokens.next()?;
    // Qualifiers before the keyword: `unsafe fn`, `extern "C" fn`.
    while matches!(kw, "unsafe" | "async" | "extern") || kw.starts_with('"') {
        kw = tokens.next()?;
    }
    let mut rest = tokens.next()?;
    // `const fn` is a function; `static mut` is a static.
    if kw == "const" && rest == "fn" {
        kw = "fn";
        rest = tokens.next()?;
    } else if kw == "static" && rest == "mut" {
        rest = tokens.next()?;
    }
    let name = ident_prefix(rest);
    let known = matches!(
        kw,
        "fn" | "const" | "static" | "struct" | "enum" | "trait" | "type" | "union"
    );
    (known && !name.is_empty()).then_some((kw, name))
}

/// An open `impl`/`trait` block while scanning for exported items.
struct Block {
    /// Brace depth outside the block.
    base: i32,
    /// `impl Trait for …` or a trait body: nothing inside is an export.
    trait_like: bool,
    /// The self type of an inherent `impl`, whose own signatures do not
    /// export it.
    self_ty: String,
}

/// Starts a block header when `code` opens an `impl` or `trait` item.
fn block_header(code: &str) -> bool {
    let t = code.trim_start();
    let t = t
        .strip_prefix("pub(crate) ")
        .or_else(|| t.strip_prefix("pub "))
        .unwrap_or(t);
    let t = t.strip_prefix("unsafe ").unwrap_or(t);
    t.starts_with("impl ") || t.starts_with("impl<") || t.starts_with("trait ")
}

/// Classifies a complete header text (everything up to its `{`).
fn block_for(header: &str, base: i32) -> Block {
    let trait_like = contains_word(header, "trait") || contains_word(header, "for");
    // Self type of `impl<…> Path::Name<…> {`: the last path segment.
    let after = header.trim_start().trim_start_matches("unsafe ");
    let mut after = after.strip_prefix("impl").unwrap_or("");
    if after.starts_with('<') {
        let mut depth = 0;
        for (i, c) in after.char_indices() {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            if depth == 0 {
                after = &after[i + 1..];
                break;
            }
        }
    }
    let path = after.trim_start();
    let path_end = path
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(path.len());
    let self_ty = path[..path_end]
        .rsplit("::")
        .next()
        .unwrap_or("")
        .to_string();
    Block {
        base,
        trait_like,
        self_ty,
    }
}

/// The exports of one library file: its `pub` items `(line index, kind,
/// name)`, and every word its exported signatures name (`pub fn`
/// parameters and returns, `pub` fields, `pub const` types, `pub type`
/// aliases).
fn exports(lines: &[Line]) -> (Vec<(usize, &str, &str)>, HashSet<&str>) {
    let mut items = Vec::new();
    let mut signature_words = HashSet::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut header: Option<(String, i32)> = None;
    // A `pub fn` signature continuing onto later lines.
    let mut in_signature = false;
    let mut depth_before = 0;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        while blocks.last().is_some_and(|b| depth_before <= b.base) {
            blocks.pop();
        }
        let hidden = line.in_test || blocks.iter().any(|b| b.trait_like);
        let self_ty = blocks.last().map_or("", |b| b.self_ty.as_str());
        if !hidden {
            let item = pub_item(code);
            if let Some((kind, name)) = item {
                items.push((idx, kind, name));
            }
            let trimmed = code.trim_start();
            let signature = if in_signature || matches!(item, Some(("fn", _))) {
                in_signature = !(code.contains('{') || code.contains(';'));
                Some(code.split(['{', ';']).next().unwrap_or(""))
            } else if matches!(item, Some(("const" | "static", _))) {
                Some(code.split('=').next().unwrap_or(""))
            } else if matches!(item, Some(("type", _))) {
                // A `pub type` alias exports what it names.
                code.split_once('=').map(|(_, ty)| ty)
            } else if item.is_none() && trimmed.starts_with("pub ") {
                // A `pub` field: the type after its colon.
                trimmed.split_once(':').map(|(_, ty)| ty)
            } else {
                None
            };
            signature_words.extend(
                signature
                    .into_iter()
                    .flat_map(words)
                    .filter(|w| *w != self_ty),
            );
        }
        if header.is_none() && block_header(code) {
            header = Some((String::new(), depth_before));
        }
        if let Some((text, base)) = header.as_mut() {
            text.push_str(code.split('{').next().unwrap_or(""));
            text.push(' ');
            if code.contains('{') {
                blocks.push(block_for(text, *base));
                header = None;
            }
        }
        depth_before = line.depth_after;
    }
    (items, signature_words)
}

/// Every word `lines` use as code: comments, literals and `use` items
/// (imports and re-exports) do not count, but the code blocks of doc
/// comments do — they compile as doctests.
fn used_words(lines: &[Line]) -> HashSet<&str> {
    let mut used = HashSet::new();
    let mut in_use_item = false;
    let mut in_doctest = false;
    for line in lines {
        let code = line.code.as_str();
        let t = code.trim_start();
        let t = t
            .strip_prefix("pub(crate) ")
            .or_else(|| t.strip_prefix("pub "))
            .unwrap_or(t);
        in_use_item |= t.starts_with("use ");
        if !in_use_item {
            used.extend(words(code));
        }
        in_use_item &= !code.contains(';');

        let raw = line.raw.trim_start();
        if let Some(doc) = raw.strip_prefix("///").or_else(|| raw.strip_prefix("//!")) {
            if doc.trim_start().starts_with("```") {
                in_doctest = !in_doctest;
            } else if in_doctest {
                used.extend(words(doc));
            }
        }
    }
    used
}

/// The `unreferenced-pub-item` pass over a set of workspace-relative
/// `(path, content)` sources: a `pub` item in library code (outside tests,
/// trait impls and trait bodies) is reported when no other user file names
/// it as a whole word in code or in a doctest. A type its own file names in
/// an exported signature is exempt: callers reach it through that
/// signature. Name collisions can only hide a dead item, never report a
/// live one.
pub fn unreferenced_pub_items(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<(&str, Vec<Line>)> = files
        .iter()
        .filter(|(rel, _)| {
            rel.ends_with(".rs")
                && !rel.contains("analyze_fixtures/")
                && USER_ROOTS.iter().any(|r| rel.starts_with(r))
        })
        .map(|(rel, content)| (rel.as_str(), lex(content)))
        .collect();
    let used: Vec<HashSet<&str>> = lexed.iter().map(|(_, lines)| used_words(lines)).collect();
    // How many files use each word.
    let mut users: HashMap<&str, usize> = HashMap::new();
    for word in used.iter().flatten() {
        *users.entry(word).or_default() += 1;
    }
    let mut findings = Vec::new();
    for ((rel, lines), own) in lexed.iter().zip(&used) {
        if classify(rel) != Some(FileKind::Lib) {
            continue;
        }
        let allows = file_allows(lines);
        let (items, signature_words) = exports(lines);
        for (idx, kind, name) in items {
            let elsewhere = users.get(name).copied().unwrap_or(0) - usize::from(own.contains(name));
            let is_type = matches!(kind, "struct" | "enum" | "trait" | "type" | "union");
            if elsewhere > 0
                || is_type && signature_words.contains(name)
                || suppressed(lines, idx, UNREFERENCED_PUB_ITEM, &allows)
            {
                continue;
            }
            findings.push(Finding {
                path: rel.to_string(),
                line: idx + 1,
                rule: UNREFERENCED_PUB_ITEM,
                message: format!(
                    "`pub {kind} {name}` is used by no other source file: delete it, or narrow \
                     it to pub(crate)/private if this file uses it"
                ),
            });
        }
    }
    findings
}

/// Analyzes the whole workspace rooted at `root`: every per-file rule over
/// every scannable file, then the workspace pass. Returns findings sorted
/// by path and line.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let content = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, content));
    }
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|(rel, content)| analyze_source(rel, content))
        .collect();
    findings.extend(unreferenced_pub_items(&files));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_findings(src: &str) -> Vec<Finding> {
        analyze_source("crates/dlrm/src/fixture.rs", src)
    }

    /// Scans `src` as an sdm-core library file: a virtual-clock and
    /// serving-path crate, so every per-file rule applies.
    fn core_findings(src: &str) -> Vec<Finding> {
        analyze_source("crates/sdm-core/src/fixture.rs", src)
    }

    #[test]
    fn wall_clock_in_strings_and_comments_is_ignored() {
        let src = "// calls Instant::now somewhere\n\
                   fn f() { let s = \"Instant::now\"; g(s); }\n\
                   /* SystemTime::now */\n";
        assert!(core_findings(src).is_empty());
    }

    #[test]
    fn line_suppression_covers_same_and_next_line() {
        let src = "// justification: trace timestamps only\n\
                   // sdm-analyze: allow(no-wall-clock)\n\
                   fn f() { Instant::now(); }\n\
                   fn g() { Instant::now(); } // sdm-analyze: allow(no-wall-clock)\n\
                   fn h() { Instant::now(); }\n";
        let f = core_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn file_suppression_covers_whole_file() {
        let src = "// sdm-analyze: allow-file(no-wall-clock)\n\
                   fn f() { Instant::now(); }\n\
                   fn g() { SystemTime::now(); }\n";
        assert!(core_findings(src).is_empty());
    }

    #[test]
    fn wall_clock_only_flagged_in_virtual_clock_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let fc = analyze_source("crates/sdm-core/src/fixture.rs", src);
        assert_eq!(fc.len(), 1);
        assert_eq!(fc[0].rule, "no-wall-clock");
        // The bench crate measures wall time on purpose.
        assert!(analyze_source("crates/bench/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn lock_guard_scope_containing_submit_is_flagged() {
        let bad = "fn f(&self) {\n\
                   let guard = self.stripes[0].lock();\n\
                   self.engine.submit(req);\n\
                   }\n";
        let f = lib_findings(bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-across-await-style");
        assert_eq!(f[0].line, 3);
        // Submission after the scope closes is fine.
        let good = "fn f(&self) {\n\
                    {\n\
                    let guard = self.stripes[0].lock();\n\
                    use_it(&guard);\n\
                    }\n\
                    self.engine.submit(req);\n\
                    }\n";
        assert!(lib_findings(good).is_empty(), "{:?}", lib_findings(good));
        // An explicit drop releases the guard early.
        let dropped = "fn f(&self) {\n\
                       let guard = self.stripes[0].lock();\n\
                       drop(guard);\n\
                       self.engine.submit(req);\n\
                       }\n";
        assert!(lib_findings(dropped).is_empty());
    }

    #[test]
    fn fixture_directory_and_vendor_are_never_scanned() {
        let src = "fn f() { Instant::now(); }\n";
        assert_eq!(core_findings(src).len(), 1);
        for rel in [
            "crates/sdm-core/src/analyze_fixtures/wall.rs",
            "vendor/serde/src/lib.rs",
            "target/debug/build/foo.rs",
        ] {
            assert_eq!(classify(rel), None, "{rel}");
            assert!(analyze_source(rel, src).is_empty(), "{rel}");
        }
    }

    #[test]
    fn raw_strings_chars_and_lifetimes_lex_cleanly() {
        // A lifetime read as a char literal would blank line 1's map; a
        // brace inside a literal would move the depth that ends the test
        // region, leaving line 5 inside it.
        let src = "fn f<'a>(x: &'a str) -> (&'a str, HashMap<u8, u8>) { g(x) }\n\
                   const P: &str = r#\"HashMap<u8, u8> {\"#;\n\
                   #[cfg(test)]\n\
                   mod tests { const Q: char = '{'; }\n\
                   struct S { m: HashMap<u32, u8> }\n";
        let lines: Vec<usize> = core_findings(src).iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 5]);
    }

    #[test]
    fn rules_table_matches_rule_names() {
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "no-wall-clock",
                "lock-across-await-style",
                "default-hasher-on-serving-path",
                "unreferenced-pub-item",
            ]
        );
    }

    #[test]
    fn unreferenced_pub_item_reads_scope_and_uses() {
        let lib = "pub struct Own;\n\
                   impl Own {\n\
                   pub fn new() -> Own { Own }\n\
                   pub fn helper(&self) {}\n\
                   }\n\
                   impl Clone for Own {\n\
                   pub fn clone(&self) -> Own { Own }\n\
                   }\n\
                   pub struct Aliased;\n\
                   pub type Alias = Vec<Aliased>;\n\
                   pub const LIMIT: usize = 4;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   pub fn only_in_tests() {}\n\
                   }\n";
        let user = "use fixture::{helper, Alias, LIMIT};\n\
                    fn f() { let _ = Own::new(); } // LIMIT\n";
        let files = [
            ("crates/dlrm/src/fixture.rs".to_string(), lib.to_string()),
            ("tests/user.rs".to_string(), user.to_string()),
        ];
        let names_in = |files: &[(String, String)]| -> Vec<String> {
            unreferenced_pub_items(files)
                .iter()
                .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
                .collect()
        };
        let names = names_in(&files);
        // `Own` is named only by its own impl's signatures, so the user's
        // `Own::new()` is what keeps it; `Aliased` is exported through the
        // alias. Imports and comments are not uses; trait impls and test
        // code are out of scope.
        assert_eq!(
            names,
            ["pub fn helper", "pub type Alias", "pub const LIMIT"],
            "{names:?}"
        );
        let without_user = names_in(&files[..1]);
        assert!(without_user.contains(&"pub struct Own".to_string()));
        // A doctest compiles, so it is a use; prose in the same comment is not.
        let doc_user = "//! Calls `LIMIT`.\n//! ```\n//! fixture::helper();\n//! ```\n";
        let doc_only = names_in(&[files[0].clone(), ("src/lib.rs".into(), doc_user.into())]);
        assert!(!doc_only.contains(&"pub fn helper".to_string()));
        assert!(doc_only.contains(&"pub const LIMIT".to_string()));
    }

    #[test]
    fn default_hasher_flagged_only_on_the_serving_path() {
        let src = "use std::collections::{\n\
                   HashMap,\n\
                   };\n\
                   struct S { m: HashMap<u32, usize> }\n\
                   fn f() -> S { S { m: HashMap::new() } }\n\
                   struct T { m: HashMap<u32, usize, IntBuildHasher>, n: IntMap<u32, u8> }\n\
                   // keyed by query-supplied row indices\n\
                   // sdm-analyze: allow(default-hasher-on-serving-path)\n\
                   struct U { m: HashSet<u64> }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn g() { let s: HashSet<u8> = HashSet::new(); }\n\
                   }\n";
        let f = analyze_source("crates/sdm-cache/src/fixture.rs", src);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4, 5], "{f:?}");
        assert!(f.iter().all(|f| f.rule == "default-hasher-on-serving-path"));
        // Off the serving path the default hasher needs no justification.
        assert!(analyze_source("crates/cluster/src/fixture.rs", src).is_empty());
        assert!(analyze_source("crates/bench/src/bin/exp_x.rs", src).is_empty());
    }
}
