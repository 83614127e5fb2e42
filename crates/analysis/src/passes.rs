//! Workspace-aware passes: invariants no single file can witness.
//!
//! Per-line lints (see [`crate::lints`]) look at one masked line at a
//! time. The passes here see the whole workspace at once — every
//! scanned source file plus the committed golden traces — and enforce
//! three cross-file contracts:
//!
//! * `schema-version-discipline` — codec version/magic consts must be
//!   pinned by at least one test, or a bump can ship without any
//!   decode-compat coverage noticing.
//! * `event-vocabulary-coverage` — every `TraceEvent` variant must be
//!   exercised by a committed `tests/golden/*.jsonl` trace (or sit on
//!   the named allowlist below), so the replay vocabulary cannot grow
//!   untested arms.
//! * `report-section-convention` — every `Option<_>` field on
//!   `RunReport` and its sub-reports must carry the omitted-not-null
//!   serialization attribute, keeping report JSON free of `null`s.
//!
//! Workspace violations are not suppressible with `deepum-tidy:`
//! comments: the fix is a test, a golden trace, or an attribute.

use crate::lints::{find_pattern, matches_pattern};
use crate::scan::ScannedFile;
use crate::Violation;

/// One file as the workspace passes see it.
pub struct WorkspaceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Crate the file belongs to (`deepum` for the root crate).
    pub crate_name: String,
    /// Raw source lines (needed where masking would hide evidence,
    /// e.g. the `"Option::is_none"` string inside a serde attribute).
    pub raw_lines: Vec<String>,
    /// Masked scan of the file.
    pub scanned: ScannedFile,
    /// True for files under tests/benches/examples directories; their
    /// every line counts as test corpus.
    pub is_test_dir: bool,
}

/// Everything the workspace passes look at.
pub struct Workspace {
    /// All scanned `.rs` files (sources and test dirs; shims and
    /// fixtures never get here).
    pub files: Vec<WorkspaceFile>,
    /// Committed golden traces: `(rel_path, contents)`.
    pub golden_traces: Vec<(String, String)>,
}

/// Files whose codec constants `schema-version-discipline` polices.
const SCHEMA_FILES: &[&str] = &[
    "crates/um/src/snapshot.rs",
    "crates/core/src/recovery.rs",
    "crates/bench/src/cache.rs",
];

/// `TraceEvent` variants allowed to miss golden-trace coverage. Kept
/// deliberately empty: uncovered variants get a golden trace, not an
/// entry here. An entry needs a PR arguing why the variant cannot be
/// reached deterministically.
const EVENT_ALLOWLIST: &[&str] = &[];

/// Runs every enabled workspace pass.
pub fn run(ws: &Workspace, enabled: &dyn Fn(&str) -> bool, out: &mut Vec<Violation>) {
    if enabled("schema-version-discipline") {
        schema_version_discipline(ws, out);
    }
    if enabled("event-vocabulary-coverage") {
        event_vocabulary_coverage(ws, out);
    }
    if enabled("report-section-convention") {
        report_section_convention(ws, out);
    }
}

/// True if `ident` appears anywhere in the workspace's test corpus:
/// `#[cfg(test)]` regions of source files, or any line of a file under
/// a tests/benches/examples directory.
fn test_corpus_contains(ws: &Workspace, ident: &str) -> bool {
    ws.files.iter().any(|f| {
        f.scanned
            .lines
            .iter()
            .any(|l| (f.is_test_dir || l.in_test) && matches_pattern(&l.code, ident))
    })
}

/// Extracts `NAME` and its 1-based column from a masked line declaring
/// `const NAME` (with any visibility prefix). `const fn` yields `None`.
fn const_decl(code: &str) -> Option<(String, usize)> {
    let at = find_pattern(code, "const")?;
    let after = &code[at + "const".len()..];
    let trimmed = after.trim_start();
    let name: String = trimmed
        .chars()
        .take_while(|&c| c.is_alphanumeric() || c == '_')
        .collect();
    if name.is_empty() || name == "fn" {
        return None;
    }
    let name_byte = at + "const".len() + (after.len() - trimmed.len());
    let col = code[..name_byte].chars().count() + 1;
    Some((name, col))
}

/// Pass: codec consts named `*VERSION*` / `*MAGIC*` in the schema files
/// must be referenced by the test corpus.
fn schema_version_discipline(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if !SCHEMA_FILES.contains(&file.rel_path.as_str()) {
            continue;
        }
        for (idx, line) in file.scanned.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((name, col)) = const_decl(&line.code) else {
                continue;
            };
            if !(name.contains("VERSION") || name.contains("MAGIC")) {
                continue;
            }
            if !test_corpus_contains(ws, &name) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    col,
                    end_col: col + name.chars().count(),
                    lint: "schema-version-discipline".to_string(),
                    message: format!(
                        "codec const `{name}` is referenced by no test; add a decode-compat or golden test that pins it so a bump cannot ship unnoticed"
                    ),
                });
            }
        }
    }
}

/// A parsed enum variant with its position.
struct Variant {
    name: String,
    line: usize,
    col: usize,
}

/// Parses the variants of `enum <enum_name>` out of a masked scan by
/// brace-depth walking: a variant is an identifier opening a line at
/// body depth 1 (attribute lines and nested field braces are skipped).
fn enum_variants(scanned: &ScannedFile, enum_name: &str) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut lines = scanned.lines.iter().enumerate();
    // Find the declaration line.
    let decl = lines
        .find(|(_, l)| matches_pattern(&l.code, "enum") && matches_pattern(&l.code, enum_name));
    let Some((decl_idx, decl_line)) = decl else {
        return variants;
    };
    let mut depth: i64 = 0;
    let mut started = false;
    for (idx, line) in std::iter::once((decl_idx, decl_line)).chain(lines) {
        let code = line.code.as_str();
        if started && depth == 1 {
            let trimmed = code.trim_start();
            let first = trimmed.chars().next();
            if first.is_some_and(|c| c.is_alphabetic() || c == '_') {
                let name: String = trimmed
                    .chars()
                    .take_while(|&c| c.is_alphanumeric() || c == '_')
                    .collect();
                // Exclude stray keywords that can open a line at depth
                // 1 without being variants (there are none in valid
                // enum bodies, but stay conservative).
                if !name.is_empty() {
                    let col = code.chars().count() - trimmed.chars().count() + 1;
                    variants.push(Variant {
                        name,
                        line: idx + 1,
                        col,
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth == 0 {
            break;
        }
    }
    variants
}

/// Pass: every `TraceEvent` variant appears in a committed golden trace
/// or on the allowlist.
fn event_vocabulary_coverage(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if file.crate_name != "trace" || file.is_test_dir {
            continue;
        }
        for v in enum_variants(&file.scanned, "TraceEvent") {
            if EVENT_ALLOWLIST.contains(&v.name.as_str()) {
                continue;
            }
            let needle = format!("\"{}\"", v.name);
            let covered = ws.golden_traces.iter().any(|(_, c)| c.contains(&needle));
            if !covered {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    end_col: v.col + v.name.chars().count(),
                    lint: "event-vocabulary-coverage".to_string(),
                    message: format!(
                        "TraceEvent::{} appears in no committed tests/golden/*.jsonl trace; add a golden run that emits it (or allowlist it with justification)",
                        v.name
                    ),
                });
            }
        }
    }
}

/// Extracts `name` and its column if the masked line declares a struct
/// field of type `Option<..>`.
fn option_field(code: &str) -> Option<(String, usize)> {
    let trimmed = code.trim_start();
    let indent = code.chars().count() - trimmed.chars().count();
    let mut rest = trimmed;
    if let Some(r) = rest.strip_prefix("pub") {
        rest = r.trim_start();
        if let Some(close) = rest.strip_prefix('(').and_then(|r| r.find(')')) {
            rest = rest[close + 2..].trim_start();
        }
    }
    let name: String = rest
        .chars()
        .take_while(|&c| c.is_alphanumeric() || c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    let ty = after.strip_prefix(':')?.trim_start();
    let ty_rest = ty.strip_prefix("Option")?;
    if !ty_rest.starts_with('<') {
        return None;
    }
    let col = indent + (trimmed.chars().count() - rest.chars().count()) + 1;
    Some((name, col))
}

/// Pass: `Option<_>` fields on report structs must carry the
/// omitted-not-null serde attribute so absent sections are omitted from
/// the JSON rather than rendered as `null`.
fn report_section_convention(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if file.is_test_dir {
            continue;
        }
        let lines = &file.scanned.lines;
        for (idx, line) in lines.iter().enumerate() {
            if line.in_test || !matches_pattern(&line.code, "struct") {
                continue;
            }
            let Some(at) = find_pattern(&line.code, "struct") else {
                continue;
            };
            let after = line.code[at + "struct".len()..].trim_start();
            let name: String = after
                .chars()
                .take_while(|&c| c.is_alphanumeric() || c == '_')
                .collect();
            if name != "RunReport" && !name.ends_with("Report") {
                continue;
            }
            check_report_struct(file, idx, &name, out);
        }
    }
}

/// Walks one report struct's brace body looking for unattributed
/// `Option<_>` fields. `decl_idx` is the 0-based line of the `struct`
/// keyword.
fn check_report_struct(
    file: &WorkspaceFile,
    decl_idx: usize,
    struct_name: &str,
    out: &mut Vec<Violation>,
) {
    let lines = &file.scanned.lines;
    let mut depth: i64 = 0;
    let mut started = false;
    for (idx, line) in lines.iter().enumerate().skip(decl_idx) {
        let code = line.code.as_str();
        if !started && code.contains(';') && !code.contains('{') {
            return; // unit or tuple struct: nothing to check
        }
        if started && depth == 1 {
            if let Some((field, col)) = option_field(code) {
                if !has_skip_attr(file, idx) {
                    out.push(Violation {
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        col,
                        end_col: col + field.chars().count(),
                        lint: "report-section-convention".to_string(),
                        message: format!(
                            "Option field `{struct_name}.{field}` must carry #[serde(skip_serializing_if = \"Option::is_none\")] so an absent section is omitted, not null"
                        ),
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth == 0 {
            return;
        }
    }
}

/// True if the attribute lines directly above `field_idx` (contiguous
/// `#[..]` / blank / comment-only lines) include the omitted-not-null
/// serde attribute. Checked against the RAW source: the attribute's
/// `"Option::is_none"` payload is a string literal the masker blanks.
fn has_skip_attr(file: &WorkspaceFile, field_idx: usize) -> bool {
    let mut i = field_idx;
    while i > 0 {
        i -= 1;
        let code = file.scanned.lines[i].code.trim();
        let is_attr = code.starts_with("#[");
        if !is_attr && !code.is_empty() {
            return false;
        }
        if is_attr {
            if let Some(raw) = file.raw_lines.get(i) {
                let squashed: String = raw.chars().filter(|c| !c.is_whitespace()).collect();
                if squashed.contains("skip_serializing_if") && squashed.contains("Option::is_none")
                {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;

    fn ws_file(rel: &str, crate_name: &str, source: &str, is_test_dir: bool) -> WorkspaceFile {
        WorkspaceFile {
            rel_path: rel.to_string(),
            crate_name: crate_name.to_string(),
            raw_lines: source.split('\n').map(str::to_string).collect(),
            scanned: scan::scan(source),
            is_test_dir,
        }
    }

    #[test]
    fn const_decl_parses_names() {
        assert_eq!(
            const_decl("pub const SNAPSHOT_VERSION: u32 = 3;"),
            Some(("SNAPSHOT_VERSION".to_string(), 11))
        );
        assert_eq!(
            const_decl("const VERSION: &str = \"v13\";").map(|x| x.0),
            Some("VERSION".to_string())
        );
        assert!(const_decl("pub const fn page_of(a: u64) {}").is_none());
        assert!(const_decl("let x = 1;").is_none());
    }

    #[test]
    fn schema_pass_wants_a_test_reference() {
        let src = "pub const SNAPSHOT_VERSION: u32 = 3;\n";
        let ws = Workspace {
            files: vec![ws_file("crates/um/src/snapshot.rs", "um", src, false)],
            golden_traces: Vec::new(),
        };
        let mut out = Vec::new();
        run(&ws, &|_| true, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "schema-version-discipline");

        // A test-region reference (anywhere in the workspace) clears it.
        let with_test = format!(
            "{src}#[cfg(test)]\nmod tests {{\n    fn pin() {{ assert_eq!(SNAPSHOT_VERSION, 3); }}\n}}\n"
        );
        let ws = Workspace {
            files: vec![ws_file(
                "crates/um/src/snapshot.rs",
                "um",
                &with_test,
                false,
            )],
            golden_traces: Vec::new(),
        };
        let mut out = Vec::new();
        run(&ws, &|_| true, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn enum_variants_walks_struct_and_tuple_arms() {
        let src = "pub enum TraceEvent {\n    KernelBegin {\n        id: u64,\n    },\n    TlbStall(u32),\n    Checkpoint,\n}\n";
        let scanned = scan::scan(src);
        let names: Vec<String> = enum_variants(&scanned, "TraceEvent")
            .into_iter()
            .map(|v| v.name)
            .collect();
        assert_eq!(names, vec!["KernelBegin", "TlbStall", "Checkpoint"]);
    }

    #[test]
    fn event_pass_checks_golden_traces() {
        let src = "pub enum TraceEvent {\n    KernelBegin,\n    Checkpoint,\n}\n";
        let trace = "{\"kind\":\"KernelBegin\",\"t\":0}\n".to_string();
        let ws = Workspace {
            files: vec![ws_file("crates/trace/src/event.rs", "trace", src, false)],
            golden_traces: vec![("tests/golden/a.jsonl".to_string(), trace)],
        };
        let mut out = Vec::new();
        run(&ws, &|_| true, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "event-vocabulary-coverage");
        assert!(out[0].message.contains("Checkpoint"));
    }

    #[test]
    fn option_field_parses_visibility_and_type() {
        assert_eq!(
            option_field("    pub recovery: Option<RecoveryReport>,"),
            Some(("recovery".to_string(), 9))
        );
        assert!(option_field("    pub pages: u64,").is_none());
        assert!(option_field("    options: Vec<u32>,").is_none());
    }

    #[test]
    fn report_pass_requires_skip_attr() {
        let bad = "pub struct RunReport {\n    pub recovery: Option<u32>,\n}\n";
        let ws = Workspace {
            files: vec![ws_file(
                "crates/baselines/src/report.rs",
                "baselines",
                bad,
                false,
            )],
            golden_traces: Vec::new(),
        };
        let mut out = Vec::new();
        run(&ws, &|_| true, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "report-section-convention");

        let good = "pub struct RunReport {\n    #[serde(skip_serializing_if = \"Option::is_none\")]\n    pub recovery: Option<u32>,\n}\n";
        let ws = Workspace {
            files: vec![ws_file(
                "crates/baselines/src/report.rs",
                "baselines",
                good,
                false,
            )],
            golden_traces: Vec::new(),
        };
        let mut out = Vec::new();
        run(&ws, &|_| true, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn non_report_structs_are_ignored() {
        let src = "pub struct Config {\n    pub watchdog: Option<u64>,\n}\n";
        let ws = Workspace {
            files: vec![ws_file("crates/um/src/config.rs", "um", src, false)],
            golden_traces: Vec::new(),
        };
        let mut out = Vec::new();
        run(&ws, &|_| true, &mut out);
        assert!(out.is_empty());
    }
}
