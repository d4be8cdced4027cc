//! `sdm-analyze`: the workspace's offline static-analysis driver.
//!
//! It keeps the one contract no compiler pass here decides: no export that
//! nothing else uses. rustc never calls a `pub` item of a library dead, and
//! its users are spread over every crate, the umbrella package and the
//! `benchmark/` harness, a separate workspace. So this crate is a brace- and
//! string-aware source scanner over all of them, with `file:line`
//! diagnostics — cheap enough to run on every CI gate, dependency-free so it
//! can never break the build it guards.
//!
//! Contracts the compiler can resolve are lints instead (README, "Static
//! analysis"): `crates/clippy.toml` bans host time, default-hasher maps, new
//! locks and the shared tier's closure lookup in every `crates/*` member;
//! each crate's `lib.rs` denies `unwrap`/`expect`, prints and `dbg!` outside
//! tests; and every `unsafe` block needs a `// SAFETY:` comment through the
//! workspace's `clippy::undocumented_unsafe_blocks`.
//!
//! # Rule
//!
//! `unreferenced-pub-item`: a `pub` item in library code (outside
//! `#[cfg(test)]`, trait impls and trait bodies) whose name no other source
//! file under `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/`
//! uses is deleted, or narrowed when its own file uses it.
//!
//! # Suppressions
//!
//! `// sdm-analyze: allow(unreferenced-pub-item)` on the flagged line, or on
//! a comment line directly above it, keeps an item; it sits next to a prose
//! justification, mirroring `#[expect]` hygiene.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]
#![expect(
    clippy::disallowed_types,
    reason = "an offline source scanner, never linked into the serving stack"
)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

/// One diagnostic: an exported item nothing else uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{UNREFERENCED_PUB_ITEM}] {}",
            self.path, self.line, self.message
        )
    }
}

/// Name of the rule, in diagnostics and suppressions.
const UNREFERENCED_PUB_ITEM: &str = "unreferenced-pub-item";

/// Directories whose sources count as users of a library's exported items.
/// The benchmark harness is its own workspace but builds against the
/// public API, so its sources count too.
const USER_ROOTS: &[&str] = &["crates/", "src/", "tests/", "examples/", "benchmark/src/"];

/// True for a library source — `crates/*/src/**` (minus `src/bin`) and the
/// umbrella `src/` — whose `pub` items the pass checks. Tests, benches,
/// binaries, examples, build scripts, `vendor/`, `target/` and the rule's
/// own fixtures are not.
fn is_library(rel: &str) -> bool {
    let in_src = rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    in_src
        && rel.ends_with(".rs")
        && !["analyze_fixtures/", "/tests/", "/src/bin/"]
            .iter()
            .any(|part| rel.contains(part))
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

/// True when line `idx`, or a pure comment line directly above it, carries
/// the rule's suppression. A trailing suppression on a *code* line covers
/// that line alone, not its successor.
fn suppressed(lines: &[Line], idx: usize) -> bool {
    let hit = |l: &Line| {
        l.raw
            .contains(&format!("sdm-analyze: allow({UNREFERENCED_PUB_ITEM})"))
    };
    hit(&lines[idx]) || (idx > 0 && lines[idx - 1].code.trim().is_empty() && hit(&lines[idx - 1]))
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
        if !is_library(rel) {
            continue;
        }
        let (items, signature_words) = exports(lines);
        for (idx, kind, name) in items {
            let elsewhere = users.get(name).copied().unwrap_or(0) - usize::from(own.contains(name));
            let is_type = matches!(kind, "struct" | "enum" | "trait" | "type" | "union");
            if elsewhere > 0 || is_type && signature_words.contains(name) || suppressed(lines, idx)
            {
                continue;
            }
            findings.push(Finding {
                path: rel.to_string(),
                line: idx + 1,
                message: format!(
                    "`pub {kind} {name}` is used by no other source file: delete it, or narrow \
                     it to pub(crate)/private if this file uses it"
                ),
            });
        }
    }
    findings
}

/// Runs the pass over the whole workspace rooted at `root`. Returns
/// findings sorted by path and line.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let content = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, content));
    }
    Ok(unreferenced_pub_items(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `unreferenced_pub_items` reports, as `pub <kind> <name>`.
    fn reported(files: &[(String, String)]) -> Vec<String> {
        unreferenced_pub_items(files)
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
            .collect()
    }

    /// One library file at `rel` and nothing that uses it.
    fn alone(rel: &str, src: &str) -> Vec<String> {
        reported(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn comments_and_literals_are_blanked() {
        let src = "// calls Instant::now somewhere\n\
                   fn f() { let s = \"Instant::now {\"; g(s); }\n\
                   /* SystemTime::now\n\
                   still Instant::now */ fn h() {}\n\
                   const P: &str = r#\"Instant::now \"{\"#;\n";
        let lines = lex(src);
        for l in &lines {
            assert!(!l.code.contains("now"), "{:?}", l.code);
        }
        // Code around the blanks survives, and literal braces move no depth.
        assert!(lines[1].code.contains("fn f()") && lines[1].code.contains("g(s);"));
        assert!(lines[3].code.contains("fn h()"));
        assert!(lines.iter().all(|l| l.depth_after == 0));
    }

    #[test]
    fn lifetimes_chars_and_test_regions_lex_cleanly() {
        // A lifetime read as a char literal would blank the rest of line 1;
        // a brace inside a char literal would move the depth that ends the
        // test region, leaving the last line inside it.
        let src = "fn f<'a>(x: &'a str) -> (&'a str, Marker) { g(x) }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   const Q: char = '{';\n\
                   }\n\
                   struct S { m: Marker }\n";
        let lines = lex(src);
        assert!(lines[0].code.contains("Marker"), "{:?}", lines[0].code);
        let depth: Vec<i32> = lines.iter().map(|l| l.depth_after).collect();
        assert_eq!(depth, [0, 0, 1, 1, 0, 0]);
        let in_test: Vec<bool> = lines.iter().map(|l| l.in_test).collect();
        assert_eq!(in_test, [false, false, true, true, true, false]);
    }

    #[test]
    fn line_suppression_covers_same_and_next_line() {
        let src = "// justification: kept for the next format version\n\
                   // sdm-analyze: allow(unreferenced-pub-item)\n\
                   pub fn above() {}\n\
                   pub fn same() {} // sdm-analyze: allow(unreferenced-pub-item)\n\
                   pub fn after_trailing() {}\n\
                   // sdm-analyze: allow(some-other-rule)\n\
                   pub fn other_rule() {}\n";
        let f = unreferenced_pub_items(&[("crates/dlrm/src/fixture.rs".into(), src.into())]);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [5, 7], "{f:?}");
    }

    #[test]
    fn fixture_directory_and_vendor_are_never_scanned() {
        let src = "pub fn dead() {}\n";
        assert_eq!(
            alone("crates/sdm-core/src/fixture.rs", src),
            ["pub fn dead"]
        );
        for rel in [
            "crates/sdm-core/src/analyze_fixtures/dead.rs",
            "tests/analyze_fixtures/unreferenced/crates/demo/src/lib.rs",
            "vendor/serde/src/lib.rs",
            "target/debug/build/foo.rs",
            "crates/sdm-core/tests/dead.rs",
            "crates/bench/src/bin/exp_x.rs",
        ] {
            assert!(!is_library(rel), "{rel}");
            assert!(alone(rel, src).is_empty(), "{rel}");
        }
        // A fixture is not a user either: its use keeps nothing alive.
        let files = [
            (
                "crates/sdm-core/src/fixture.rs".to_string(),
                src.to_string(),
            ),
            (
                "tests/analyze_fixtures/user.rs".to_string(),
                "fn f() { dead(); }\n".to_string(),
            ),
        ];
        assert_eq!(reported(&files), ["pub fn dead"]);
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
        let names = reported(&files);
        // `Own` is named only by its own impl's signatures, so the user's
        // `Own::new()` is what keeps it; `Aliased` is exported through the
        // alias. Imports and comments are not uses; trait impls and test
        // code are out of scope.
        assert_eq!(
            names,
            ["pub fn helper", "pub type Alias", "pub const LIMIT"],
            "{names:?}"
        );
        let without_user = reported(&files[..1]);
        assert!(without_user.contains(&"pub struct Own".to_string()));
        // A doctest compiles, so it is a use; prose in the same comment is not.
        let doc_user = "//! Calls `LIMIT`.\n//! ```\n//! fixture::helper();\n//! ```\n";
        let doc_only = reported(&[files[0].clone(), ("src/lib.rs".into(), doc_user.into())]);
        assert!(!doc_only.contains(&"pub fn helper".to_string()));
        assert!(doc_only.contains(&"pub const LIMIT".to_string()));
    }
}
