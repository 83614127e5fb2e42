//! `deepum-tidy`: workspace-native static analysis for the DeepUM
//! reproduction, in the spirit of rustc's `tidy`.
//!
//! The offline build has no `syn`, so everything here is lexical: a
//! small token scanner ([`scan`]) masks comments and string literals
//! with position-exact columns, tracks `#[cfg(test)]` regions, and the
//! per-line lints ([`lints`]) pattern-match the masked code. On top of
//! that, workspace passes ([`passes`]) check cross-file invariants
//! (codec versions pinned by tests, trace vocabulary covered by golden
//! traces, report `Option` fields omitted-not-null). See DESIGN.md §10
//! and §15 for the contract and the suppression grammar:
//!
//! ```text
//! // deepum-tidy: allow(<lint-id>) -- <non-empty reason>
//! ```
//!
//! A trailing suppression covers its own line; a standalone comment
//! covers the next code line. Suppressions that cover nothing are
//! themselves violations (`suppression-hygiene`). Workspace-pass
//! violations are not suppressible — the fix is a test, a golden
//! trace, or an attribute.

#![forbid(unsafe_code)]

pub mod lints;
pub mod passes;
pub mod scan;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use lints::FileScope;

/// One confirmed lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column where the offending pattern starts.
    pub col: usize,
    /// Exclusive end column of the offending pattern.
    pub end_col: usize,
    /// Lint id (see [`lints::LINTS`]).
    pub lint: String,
    /// Explanation plus the steer toward the fix.
    pub message: String,
}

/// Which lints a run executes.
#[derive(Debug, Clone)]
pub struct Config {
    enabled: BTreeSet<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self::all()
    }
}

impl Config {
    /// All registered lints enabled.
    pub fn all() -> Self {
        Self {
            enabled: lints::LINTS.iter().map(|l| l.id.to_string()).collect(),
        }
    }

    /// Restricts the run to `ids` (the `--only` flag). Unknown ids error.
    pub fn only(ids: &[String]) -> Result<Self, String> {
        let mut enabled = BTreeSet::new();
        for id in ids {
            if !lints::is_known(id) {
                return Err(format!("unknown lint `{id}`"));
            }
            enabled.insert(id.clone());
        }
        Ok(Self { enabled })
    }

    /// Removes `ids` from the run (the `--skip` flag). Unknown ids error.
    pub fn skip(mut self, ids: &[String]) -> Result<Self, String> {
        for id in ids {
            if !lints::is_known(id) {
                return Err(format!("unknown lint `{id}`"));
            }
            self.enabled.remove(id.as_str());
        }
        Ok(self)
    }

    /// True if lint `id` runs in this configuration.
    pub fn is_enabled(&self, id: &str) -> bool {
        self.enabled.contains(id)
    }
}

/// How the walker/classifier treats a path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FileClass {
    /// Shims, build output, lint fixtures: never analyzed.
    Skip,
    /// Integration tests, benches, examples: exempt from per-line lints
    /// but visible to workspace passes as test corpus.
    TestDir,
    /// Regular source, with its lint scope.
    Source(FileScope),
}

/// Classifies a workspace-relative path (forward slashes).
fn classify(rel: &str) -> FileClass {
    if rel.starts_with("crates/shims/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.contains("/fixtures/")
    {
        return FileClass::Skip;
    }
    let segments: Vec<&str> = rel.split('/').collect();
    if segments
        .iter()
        .any(|s| *s == "tests" || *s == "benches" || *s == "examples")
    {
        return FileClass::TestDir;
    }
    let crate_name = if segments.first() == Some(&"crates") && segments.len() > 1 {
        segments[1].to_string()
    } else {
        "deepum".to_string()
    };
    let crate_root = rel == "src/lib.rs"
        || (segments.len() == 4
            && segments[0] == "crates"
            && segments[2] == "src"
            && segments[3] == "lib.rs");
    FileClass::Source(FileScope {
        rel_path: rel.to_string(),
        crate_name,
        crate_root,
    })
}

/// Crate a path belongs to, regardless of class (workspace passes need
/// this for test-dir files too).
fn crate_of(rel: &str) -> String {
    let segments: Vec<&str> = rel.split('/').collect();
    if segments.first() == Some(&"crates") && segments.len() > 1 {
        segments[1].to_string()
    } else {
        "deepum".to_string()
    }
}

/// A parsed suppression comment.
#[derive(Debug)]
struct Suppression {
    /// 1-based line of the comment itself.
    line: usize,
    /// Lint it suppresses.
    lint: String,
    /// 1-based line it applies to (own line for trailing comments, next
    /// code line for standalone ones); `None` if nothing follows.
    target: Option<usize>,
    /// Set when the suppression absorbed a violation.
    used: bool,
}

/// Outcome of parsing one comment that mentions `deepum-tidy:`.
enum ParsedComment {
    Fine(String),
    Malformed(String),
    NotASuppression,
}

/// Parses `deepum-tidy: allow(<lint>) -- <reason>` out of a comment
/// body (text after `//`).
fn parse_suppression(comment: &str) -> ParsedComment {
    // Doc comments (`///` and `//!` reach us as comment text starting
    // with `/` or `!`) are documentation: they may discuss the
    // suppression grammar without being held to it.
    if comment.starts_with('/') || comment.starts_with('!') {
        return ParsedComment::NotASuppression;
    }
    let text = comment.trim();
    let Some(rest) = text.strip_prefix("deepum-tidy:") else {
        if text.contains("deepum-tidy") {
            return ParsedComment::Malformed(
                "comment mentions deepum-tidy but is not of the form `deepum-tidy: allow(<lint>) -- <reason>`"
                    .to_string(),
            );
        }
        return ParsedComment::NotASuppression;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return ParsedComment::Malformed(
            "expected `allow(<lint>)` after `deepum-tidy:`".to_string(),
        );
    };
    let Some(close) = rest.find(')') else {
        return ParsedComment::Malformed("unclosed `allow(`".to_string());
    };
    let lint = rest[..close].trim().to_string();
    if !lints::is_known(&lint) {
        return ParsedComment::Malformed(format!("unknown lint `{lint}` in suppression"));
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return ParsedComment::Malformed(
            "suppression needs ` -- <reason>` after `allow(..)`".to_string(),
        );
    };
    if reason.trim().is_empty() {
        return ParsedComment::Malformed("suppression reason must be non-empty".to_string());
    }
    ParsedComment::Fine(lint)
}

/// Per-file analysis over an already-scanned file: per-line lints, the
/// file-level pass, and suppression resolution.
fn analyze_scanned(scope: &FileScope, scanned: &scan::ScannedFile, cfg: &Config) -> Vec<Violation> {
    let enabled = |id: &str| cfg.is_enabled(id);
    let hygiene = cfg.is_enabled("suppression-hygiene");

    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();

    for (idx, line) in scanned.lines.iter().enumerate() {
        let line_no = idx + 1;
        // Test regions are exempt from every lint, so their comments
        // are free prose — no suppression is needed or parsed there.
        if line.in_test {
            continue;
        }
        let Some(comment) = line.comment.as_deref() else {
            continue;
        };
        match parse_suppression(comment) {
            ParsedComment::NotASuppression => {}
            ParsedComment::Malformed(why) => {
                if hygiene {
                    violations.push(Violation {
                        file: scope.rel_path.clone(),
                        line: line_no,
                        col: 1,
                        end_col: 1,
                        lint: "suppression-hygiene".to_string(),
                        message: why,
                    });
                }
            }
            ParsedComment::Fine(lint) => {
                let target = if !line.code.trim().is_empty() {
                    Some(line_no)
                } else {
                    scanned.lines[idx + 1..]
                        .iter()
                        .position(|l| !l.code.trim().is_empty())
                        .map(|off| line_no + 1 + off)
                };
                suppressions.push(Suppression {
                    line: line_no,
                    lint,
                    target,
                    used: false,
                });
            }
        }
    }

    let mut candidates: Vec<lints::Candidate> = Vec::new();
    for (idx, line) in scanned.lines.iter().enumerate() {
        lints::check_line(
            scope,
            idx + 1,
            &line.code,
            line.in_test,
            &enabled,
            &mut candidates,
        );
    }
    lints::check_file(scope, &scanned.lines, &enabled, &mut candidates);

    for cand in candidates {
        let suppressed = suppressions
            .iter_mut()
            .find(|s| s.lint == cand.lint && s.target == Some(cand.line));
        if let Some(s) = suppressed {
            s.used = true;
        } else {
            violations.push(Violation {
                file: scope.rel_path.clone(),
                line: cand.line,
                col: cand.col,
                end_col: cand.end_col,
                lint: cand.lint.to_string(),
                message: cand.message,
            });
        }
    }

    if hygiene {
        for s in &suppressions {
            // A suppression for a lint this run skipped cannot prove
            // itself useful; exempt it from staleness.
            if !s.used && cfg.is_enabled(&s.lint) {
                violations.push(Violation {
                    file: scope.rel_path.clone(),
                    line: s.line,
                    col: 1,
                    end_col: 1,
                    lint: "suppression-hygiene".to_string(),
                    message: format!(
                        "stale suppression: `allow({})` does not match any violation on its target line",
                        s.lint
                    ),
                });
            }
        }
    }

    violations.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.lint.cmp(&b.lint)));
    violations
}

/// Analyzes one file's source as if it lived at `rel_path` in the
/// workspace. Per-file lints only; workspace passes need a
/// [`WorkspaceInput`]. This is the entry the single-file fixture tests
/// use.
pub fn analyze_source(rel_path: &str, source: &str, cfg: &Config) -> Vec<Violation> {
    let scope = match classify(rel_path) {
        FileClass::Skip | FileClass::TestDir => return Vec::new(),
        FileClass::Source(scope) => scope,
    };
    let scanned = scan::scan(source);
    analyze_scanned(&scope, &scanned, cfg)
}

/// One in-memory file handed to [`analyze_workspace`].
pub struct InputFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// File contents.
    pub source: String,
}

/// A whole workspace in memory: source files plus committed golden
/// traces. [`analyze_tree`] builds one from disk; the workspace-pass
/// fixture tests build synthetic ones.
pub struct WorkspaceInput {
    /// All `.rs` files (the classifier decides what to do with each).
    pub files: Vec<InputFile>,
    /// `tests/golden/*.jsonl` contents.
    pub golden_traces: Vec<InputFile>,
}

/// Analyzes a full workspace: per-file lints on every source file, then
/// the cross-file passes, with one scan per file shared by both stages.
pub fn analyze_workspace(input: &WorkspaceInput, cfg: &Config) -> Vec<Violation> {
    let mut all: Vec<Violation> = Vec::new();
    let mut ws = passes::Workspace {
        files: Vec::new(),
        golden_traces: input
            .golden_traces
            .iter()
            .map(|f| (f.rel_path.clone(), f.source.clone()))
            .collect(),
    };

    for file in &input.files {
        let class = classify(&file.rel_path);
        if class == FileClass::Skip {
            continue;
        }
        let scanned = scan::scan(&file.source);
        if let FileClass::Source(scope) = &class {
            all.extend(analyze_scanned(scope, &scanned, cfg));
        }
        ws.files.push(passes::WorkspaceFile {
            rel_path: file.rel_path.clone(),
            crate_name: crate_of(&file.rel_path),
            raw_lines: file.source.split('\n').map(str::to_string).collect(),
            scanned,
            is_test_dir: class == FileClass::TestDir,
        });
    }

    passes::run(&ws, &|id| cfg.is_enabled(id), &mut all);

    all.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.lint.cmp(&b.lint))
    });
    all
}

/// Walks `root`, reads every `.rs` file plus the committed golden
/// traces, and runs the full analysis. Results are sorted by path, then
/// line. IO failures surface as `Err` (exit code 2 land).
pub fn analyze_tree(root: &Path, cfg: &Config) -> Result<Vec<Violation>, String> {
    let mut files: Vec<String> = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut input = WorkspaceInput {
        files: Vec::new(),
        golden_traces: Vec::new(),
    };
    for rel in &files {
        let full = root.join(rel);
        let source = fs::read_to_string(&full)
            .map_err(|e| format!("failed to read {}: {e}", full.display()))?;
        input.files.push(InputFile {
            rel_path: rel.clone(),
            source,
        });
    }

    let golden_dir = root.join("tests/golden");
    if golden_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&golden_dir)
            .map_err(|e| format!("failed to list {}: {e}", golden_dir.display()))?
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("failed to list {}: {e}", golden_dir.display()))?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".jsonl") {
                let source = fs::read_to_string(entry.path())
                    .map_err(|e| format!("failed to read {}: {e}", entry.path().display()))?;
                input.golden_traces.push(InputFile {
                    rel_path: format!("tests/golden/{name}"),
                    source,
                });
            }
        }
    }

    Ok(analyze_workspace(&input, cfg))
}

/// Recursively lists `.rs` files under `dir` as root-relative
/// forward-slash paths. Directory entries are visited in sorted order so
/// output (and therefore CI logs) are stable across filesystems.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("failed to list {}: {e}", dir.display()))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == ".git" || name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path outside root: {e}"))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            if classify(&rel) != FileClass::Skip {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Renders violations for humans: one `path:line:col: [lint] message`
/// per violation plus a summary line.
pub fn render_human(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            v.file, v.line, v.col, v.lint, v.message
        ));
    }
    if violations.is_empty() {
        out.push_str("deepum-tidy: clean\n");
    } else {
        out.push_str(&format!(
            "deepum-tidy: {} violation{} found\n",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Renders violations as a single JSON object (hand-rolled: the analyzer
/// is deliberately dependency-free, shims included). Each violation
/// carries `pass` (analysis phase), `file`, a `span` with 1-based
/// line/col/end_col, plus the legacy `line`/`lint`/`message` fields.
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"pass\":{},\"file\":{},\"line\":{},\"span\":{{\"line\":{},\"col\":{},\"end_col\":{}}},\"lint\":{},\"message\":{}}}",
            json_str(lints::phase_of(&v.lint)),
            json_str(&v.file),
            v.line,
            v.line,
            v.col,
            v.end_col,
            json_str(&v.lint),
            json_str(&v.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", violations.len()));
    out
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_path() -> &'static str {
        "crates/core/src/sample.rs"
    }

    #[test]
    fn container_lint_fires_in_scoped_crate() {
        let v = analyze_source(
            core_path(),
            "use std::collections::HashMap;\n",
            &Config::all(),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "determinism-container");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].col, 23);
        assert_eq!(v[0].end_col, 30);
    }

    #[test]
    fn container_lint_silent_outside_scope() {
        let v = analyze_source(
            "crates/baselines/src/sample.rs",
            "use std::collections::HashMap;\n",
            &Config::all(),
        );
        assert!(v.is_empty());
    }

    #[test]
    fn doc_comments_may_discuss_the_grammar() {
        // `///` and `//!` prose mentioning deepum-tidy (even with the
        // colon) is documentation, not a malformed suppression.
        let src =
            "//! `deepum-tidy`: the tool.\n/// See `deepum-tidy: allow(..)` syntax.\nfn f() {}\n";
        assert!(analyze_source(core_path(), src, &Config::all()).is_empty());
    }

    #[test]
    fn non_doc_mention_without_colon_form_is_malformed() {
        let src = "// deepum-tidy allow(determinism-container) missing colon\nfn f() {}\n";
        let v = analyze_source(core_path(), src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "suppression-hygiene");
    }

    #[test]
    fn test_region_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(analyze_source(core_path(), src, &Config::all()).is_empty());
    }

    #[test]
    fn trailing_suppression_absorbs_violation() {
        let src = "use std::collections::HashMap; // deepum-tidy: allow(determinism-container) -- ordered elsewhere\n";
        assert!(analyze_source(core_path(), src, &Config::all()).is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_code_line() {
        let src = "// deepum-tidy: allow(determinism-container) -- ordered elsewhere\nuse std::collections::HashMap;\n";
        assert!(analyze_source(core_path(), src, &Config::all()).is_empty());
    }

    #[test]
    fn stale_suppression_is_flagged() {
        let src = "// deepum-tidy: allow(determinism-container) -- nothing here\nlet x = 1;\n";
        let v = analyze_source(core_path(), src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "suppression-hygiene");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn reasonless_suppression_is_malformed() {
        let src =
            "use std::collections::HashMap; // deepum-tidy: allow(determinism-container) --\n";
        let v = analyze_source(core_path(), src, &Config::all());
        assert!(v.iter().any(|v| v.lint == "suppression-hygiene"));
        // And the malformed suppression does NOT absorb the violation.
        assert!(v.iter().any(|v| v.lint == "determinism-container"));
    }

    #[test]
    fn unknown_lint_in_suppression_is_malformed() {
        let src = "// deepum-tidy: allow(no-such-lint) -- whatever\nlet x = 1;\n";
        let v = analyze_source(core_path(), src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "suppression-hygiene");
    }

    #[test]
    fn only_and_skip_scope_the_run() {
        let src = "use std::collections::HashMap;\n";
        let only = Config::only(&["panic-safety".to_string()]).unwrap();
        assert!(analyze_source(core_path(), src, &only).is_empty());
        let skipped = Config::all()
            .skip(&["determinism-container".to_string()])
            .unwrap();
        let v = analyze_source(core_path(), src, &skipped);
        assert!(v.is_empty());
        assert!(Config::only(&["nope".to_string()]).is_err());
    }

    #[test]
    fn suppression_for_skipped_lint_is_not_stale() {
        let src = "// deepum-tidy: allow(determinism-container) -- ordered elsewhere\nuse std::collections::HashMap;\n";
        let skipped = Config::all()
            .skip(&["determinism-container".to_string()])
            .unwrap();
        assert!(analyze_source(core_path(), src, &skipped).is_empty());
    }

    #[test]
    fn unsafe_attr_required_on_crate_roots() {
        let v = analyze_source("crates/um/src/lib.rs", "pub mod driver;\n", &Config::all());
        assert!(v.iter().any(|v| v.lint == "unsafe-attr"));
        let v = analyze_source(
            "crates/um/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod driver;\n",
            &Config::all(),
        );
        assert!(v.is_empty());
        // Non-root files are not checked.
        let v = analyze_source("crates/um/src/driver.rs", "pub fn f() {}\n", &Config::all());
        assert!(v.is_empty());
    }

    #[test]
    fn panic_safety_scoped_to_critical_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = analyze_source("crates/um/src/driver.rs", src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "panic-safety");
        assert!(analyze_source("crates/um/src/space.rs", src, &Config::all()).is_empty());
    }

    #[test]
    fn cast_safety_scoped_to_mem_and_um() {
        let src = "fn f(x: usize) -> u64 { x as u64 }\n";
        let v = analyze_source("crates/mem/src/sample.rs", src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "cast-safety");
        assert!(analyze_source("crates/core/src/sample.rs", src, &Config::all()).is_empty());
    }

    #[test]
    fn result_discard_scoped_and_test_exempt() {
        let src = "fn f(r: Result<u32, ()>) { let _ = r; }\n";
        let v = analyze_source("crates/runtime/src/sample.rs", src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "result-discard");
        assert!(analyze_source("crates/baselines/src/sample.rs", src, &Config::all()).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(r: Result<u32, ()>) { let _ = r; }\n}\n";
        assert!(
            analyze_source("crates/runtime/src/sample.rs", test_src, &Config::all()).is_empty()
        );
    }

    #[test]
    fn hot_path_alloc_scoped_to_hot_files() {
        let src = "fn f() -> Vec<u64> { Vec::new() }\n";
        let v = analyze_source("crates/um/src/evict.rs", src, &Config::all());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "hot-path-alloc");
        assert!(analyze_source("crates/um/src/space.rs", src, &Config::all()).is_empty());
    }

    #[test]
    fn test_dirs_and_shims_are_skipped() {
        let src = "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(analyze_source("crates/um/tests/it.rs", src, &Config::all()).is_empty());
        assert!(analyze_source("crates/shims/serde/src/lib.rs", src, &Config::all()).is_empty());
        assert!(analyze_source(
            "crates/analysis/tests/fixtures/fail/x.rs",
            src,
            &Config::all()
        )
        .is_empty());
    }

    #[test]
    fn workspace_passes_see_test_dirs_as_corpus() {
        // The schema const is referenced only from an integration-test
        // file; that must count as coverage.
        let input = WorkspaceInput {
            files: vec![
                InputFile {
                    rel_path: "crates/um/src/snapshot.rs".to_string(),
                    source: "pub const SNAPSHOT_VERSION: u32 = 3;\n".to_string(),
                },
                InputFile {
                    rel_path: "crates/um/tests/compat.rs".to_string(),
                    source: "fn pin() { assert_eq!(deepum_um::snapshot::SNAPSHOT_VERSION, 3); }\n"
                        .to_string(),
                },
            ],
            golden_traces: Vec::new(),
        };
        assert!(analyze_workspace(&input, &Config::all()).is_empty());
    }

    #[test]
    fn json_rendering_escapes_and_carries_spans() {
        let v = vec![Violation {
            file: "a.rs".to_string(),
            line: 3,
            col: 5,
            end_col: 14,
            lint: "panic-safety".to_string(),
            message: "say \"no\"".to_string(),
        }];
        let j = render_json(&v);
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"pass\":\"line\""));
        assert!(j.contains("\"span\":{\"line\":3,\"col\":5,\"end_col\":14}"));
    }
}
