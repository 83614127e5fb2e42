//! Lint registry and per-line pattern matching.
//!
//! Lints are lexical: they run over masked code lines (see
//! [`crate::scan`]), so occurrences inside string literals and comments
//! never fire. Scoping (which crates / which files a lint covers) lives
//! here next to the patterns so the whole policy reads in one place.
//! Cross-file workspace passes (schema versions, trace vocabulary,
//! report serialization) live in [`crate::passes`]; they register here
//! so `--only`/`--skip`/`--list` see one uniform lint set.

/// A registered lint.
#[derive(Debug, Clone, Copy)]
pub struct Lint {
    /// Stable id used in `--only`/`--skip` and suppressions.
    pub id: &'static str,
    /// Analysis granularity: `"line"` (per masked line), `"file"`
    /// (whole-file), or `"workspace"` (cross-file pass). Reported in
    /// `--json` as the `pass` field.
    pub phase: &'static str,
    /// One-line description for `--list` and docs.
    pub summary: &'static str,
}

/// Every lint `deepum-tidy` knows about, in reporting order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "determinism-container",
        phase: "line",
        summary: "forbid default-hasher HashMap/HashSet (iteration order must be deterministic) and RwLock/Mutex (state has one owner) in sim/core/um/gpu/runtime/sched/serve",
    },
    Lint {
        id: "determinism-wallclock",
        phase: "line",
        summary: "forbid wall-clock, ambient randomness, threads, and env reads outside bench and shims",
    },
    Lint {
        id: "panic-safety",
        phase: "line",
        summary: "forbid unwrap/expect/panic!/map-indexing on the fault-drain and eviction critical paths",
    },
    Lint {
        id: "cast-safety",
        phase: "line",
        summary: "flag `as usize`/`as u64` in address/page arithmetic (mem, um); use typed helpers or try_into",
    },
    Lint {
        id: "trace-determinism",
        phase: "line",
        summary: "forbid string formatting and wall-clock reads on the trace-event hot path (crates/trace, cold-path export module exempt)",
    },
    Lint {
        id: "result-discard",
        phase: "line",
        summary: "forbid `let _ =` / `.ok()` / `.unwrap_or_default()` swallowing errors in sim/core/um/gpu/runtime/sched",
    },
    Lint {
        id: "hot-path-alloc",
        phase: "line",
        summary: "flag allocation (Vec::new/vec!/clone/collect/format!/Box::new) in the fault-drain, eviction, and migration hot modules",
    },
    Lint {
        id: "unsafe-attr",
        phase: "file",
        summary: "every non-shim crate root must carry #![forbid(unsafe_code)]",
    },
    Lint {
        id: "suppression-hygiene",
        phase: "file",
        summary: "suppressions must be well-formed with a reason, name a known lint, and actually suppress something",
    },
    Lint {
        id: "schema-version-discipline",
        phase: "workspace",
        summary: "every *_VERSION/*_MAGIC const in the snapshot, recovery, and bench-cache codecs must be referenced by a test",
    },
    Lint {
        id: "event-vocabulary-coverage",
        phase: "workspace",
        summary: "every TraceEvent variant must appear in a committed tests/golden/*.jsonl trace (or the named allowlist)",
    },
    Lint {
        id: "report-section-convention",
        phase: "workspace",
        summary: "every Option<_> field on RunReport/sub-reports must carry #[serde(skip_serializing_if = \"Option::is_none\")]",
    },
];

/// True if `id` names a registered lint.
pub fn is_known(id: &str) -> bool {
    LINTS.iter().any(|l| l.id == id)
}

/// Analysis phase of a lint id, for the `--json` `pass` field. Every
/// violation carries a registered id; an unknown one has no phase.
pub fn phase_of(id: &str) -> &'static str {
    LINTS.iter().find(|l| l.id == id).map_or("", |l| l.phase)
}

/// Crates whose containers must iterate deterministically.
const CONTAINER_CRATES: &[&str] = &["sim", "core", "um", "gpu", "runtime", "sched", "serve"];

/// Identifier patterns for `determinism-container`.
const CONTAINER_PATTERNS: &[&str] = &["HashMap", "HashSet"];

/// Lock patterns for `determinism-container`. These crates may not
/// spawn threads, so every value has one owner and a lock only hides
/// aliasing; state handed between components is moved or swapped.
const LOCK_PATTERNS: &[&str] = &["RwLock", "Mutex"];

/// Crates allowed to read wall clocks etc. (shims are skipped wholesale
/// by the walker and never reach the lints).
const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["bench"];

/// Patterns for `determinism-wallclock`.
const WALLCLOCK_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "thread::spawn",
    "env::var",
];

/// Files on the fault-drain / eviction / recovery critical path for
/// `panic-safety`. The snapshot codec and the restore path run while
/// the simulated system is already degraded, so a panic there turns a
/// recoverable hard fault into an abort. The multi-tenant scheduler and
/// the slot harness that admits and steps its tenants are held to the
/// same bar: one tenant's failure must surface as a typed
/// error, never abort its co-tenants — and so is the UM-path executor
/// every tenant steps. The serving layer too: a request
/// must end as completed or a typed shed, never a panic. The checkpoint
/// ring and the wear extent map joined the set with ECC retirement:
/// both run exactly when the simulated device is failing, where an
/// abort would erase the typed `RecoveryError`/`FloorLost` outcomes
/// the robustness contract promises.
const PANIC_FILES: &[&str] = &[
    "crates/um/src/driver.rs",
    "crates/um/src/evict.rs",
    "crates/um/src/snapshot.rs",
    "crates/um/src/pressure.rs",
    "crates/um/src/wear.rs",
    "crates/gpu/src/engine.rs",
    "crates/core/src/ckpt.rs",
    "crates/core/src/driver.rs",
    "crates/core/src/recovery.rs",
    "crates/baselines/src/executor/um.rs",
    "crates/sched/src/scheduler.rs",
    "crates/sched/src/slot.rs",
    "crates/sched/src/tenant.rs",
    "crates/sched/src/spec.rs",
    "crates/serve/src/endpoint.rs",
    "crates/serve/src/ladder.rs",
    "crates/serve/src/sim.rs",
];

/// Patterns for `panic-safety`. `[&` catches `map[&key]` indexing, which
/// panics on a missing key.
const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "[&"];

/// Cold-path files of the trace crate, exempt from `trace-determinism`:
/// rendering runs after the simulation, so allocation and formatting
/// there cannot perturb event content or timing.
const TRACE_COLD_FILES: &[&str] = &["crates/trace/src/export.rs"];

/// Patterns for `trace-determinism`. Event construction must be plain
/// integer/enum moves: formatting allocates per event, and wall clocks
/// would leak host time into what must be a virtual-time-only stream.
const TRACE_PATTERNS: &[&str] = &["format!", "Instant::now", "SystemTime"];

/// Crates doing address/page arithmetic for `cast-safety`.
const CAST_CRATES: &[&str] = &["mem", "um"];

/// Patterns for `cast-safety`.
const CAST_PATTERNS: &[&str] = &[" as usize", " as u64"];

/// Crates where every `Result` must be handled or propagated, for
/// `result-discard`. Same set as `determinism-container` plus sched:
/// the simulation's error paths (eviction failure, snapshot corruption,
/// tenant denial) carry recovery semantics a silent discard destroys.
const RESULT_CRATES: &[&str] = &["sim", "core", "um", "gpu", "runtime", "sched", "serve"];

/// Patterns for `result-discard`. `let _ =` drops any value silently;
/// `.ok()` and `.unwrap_or_default()` turn typed errors into `None` /
/// zeroes. (`let _ = ` with other spacing is normalized by rustfmt.)
/// The match is textual, so an `Option`'s `.unwrap_or_default()` is
/// flagged as well; its message names the spelling that passes.
const RESULT_PATTERNS: &[&str] = &["let _ =", "let _=", ".ok()", ".unwrap_or_default()"];

/// Hot modules for `hot-path-alloc`: the per-fault / per-eviction inner
/// loops the ROADMAP's flat-table rewrite targets, plus the wear extent
/// map and the checkpoint ring — retirement sampling consults the wear
/// map on every fault drain, and the ring's store runs inside the
/// checkpoint cadence — and the prefetching thread's chain walk and
/// footprint table, which run once per chain emission, and the block
/// correlation table, written once per faulted block. The per-stripe
/// lookups under all of them (the stripe map, the block bitsets and the
/// block-state table) run once per probe, and the byte-range footprints
/// run for every tensor of every launch. A cold site in these files
/// (a constructor, an error path) carries an inline suppression with its
/// reason.
const HOT_PATH_FILES: &[&str] = &[
    "crates/um/src/driver.rs",
    "crates/um/src/evict.rs",
    "crates/um/src/pressure.rs",
    "crates/um/src/wear.rs",
    "crates/gpu/src/engine.rs",
    "crates/core/src/ckpt.rs",
    "crates/core/src/chain.rs",
    "crates/core/src/footprint.rs",
    "crates/mem/src/stripe.rs",
    "crates/mem/src/bitmap.rs",
    "crates/um/src/table.rs",
    "crates/mem/src/range.rs",
    "crates/core/src/correlation/block.rs",
];

/// Allocation patterns for `hot-path-alloc`. `.collect` (no parens)
/// also catches turbofish `collect::<Vec<_>>()`.
const HOT_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new", "vec!", ".clone()", ".collect", "format!", "Box::new",
];

/// A raw lint hit before suppression resolution.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// 1-based source line.
    pub line: usize,
    /// 1-based character column of the match start.
    pub col: usize,
    /// Exclusive end column of the match.
    pub end_col: usize,
    /// Lint id.
    pub lint: &'static str,
    /// Human-readable explanation with the steer toward the fix.
    pub message: String,
}

/// Where a file sits in the workspace, as far as lint scoping cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileScope {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Crate the file belongs to (`deepum` for the root crate).
    pub crate_name: String,
    /// True for `src/lib.rs` / `crates/<name>/src/lib.rs`.
    pub crate_root: bool,
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `pat` in `code` respecting identifier boundaries on the
/// pattern's word-character ends. Returns the byte offset of the first
/// hit.
pub(crate) fn find_pattern(code: &str, pat: &str) -> Option<usize> {
    let first_is_word = pat.chars().next().is_some_and(is_word);
    let last_is_word = pat.chars().next_back().is_some_and(is_word);
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let at = start + pos;
        let before_ok =
            !first_is_word || at == 0 || !code[..at].chars().next_back().is_some_and(is_word);
        let end = at + pat.len();
        let after_ok = !last_is_word || !code[end..].chars().next().is_some_and(is_word);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + pat.len().max(1);
    }
    None
}

/// Boundary-respecting containment check (see [`find_pattern`]).
pub(crate) fn matches_pattern(code: &str, pat: &str) -> bool {
    find_pattern(code, pat).is_some()
}

/// First pattern from `patterns` that hits in `code`, with its 1-based
/// character span `(pattern, col, end_col)`.
fn first_hit<'p>(code: &str, patterns: &[&'p str]) -> Option<(&'p str, usize, usize)> {
    for pat in patterns {
        if let Some(at) = find_pattern(code, pat) {
            let col = code[..at].chars().count() + 1;
            return Some((pat, col, col + pat.chars().count()));
        }
    }
    None
}

/// Runs every enabled per-line lint over one masked line. Test-region
/// lines are exempt from all of them.
pub fn check_line(
    scope: &FileScope,
    line_no: usize,
    code: &str,
    in_test: bool,
    enabled: &dyn Fn(&str) -> bool,
    out: &mut Vec<Candidate>,
) {
    if in_test {
        return;
    }
    if enabled("determinism-container") && CONTAINER_CRATES.contains(&scope.crate_name.as_str()) {
        if let Some((pat, col, end_col)) = first_hit(code, CONTAINER_PATTERNS) {
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "determinism-container",
                message: format!(
                    "`{pat}` iterates in hash order; use BTreeMap/BTreeSet (or a seeded hasher) so replays are bit-identical"
                ),
            });
        } else if let Some((pat, col, end_col)) = first_hit(code, LOCK_PATTERNS) {
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "determinism-container",
                message: format!(
                    "`{pat}` in a single-threaded crate; give the state one owner and move or swap it instead of sharing it"
                ),
            });
        }
    }
    if enabled("determinism-wallclock")
        && !WALLCLOCK_EXEMPT_CRATES.contains(&scope.crate_name.as_str())
    {
        if let Some((pat, col, end_col)) = first_hit(code, WALLCLOCK_PATTERNS) {
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "determinism-wallclock",
                message: format!(
                    "`{pat}` injects ambient nondeterminism; thread simulated time / seeded RNG through instead (only `bench` may touch the host)"
                ),
            });
        }
    }
    if enabled("panic-safety") && PANIC_FILES.contains(&scope.rel_path.as_str()) {
        if let Some((pat, col, end_col)) = first_hit(code, PANIC_PATTERNS) {
            let steer = if pat == "[&" {
                "use .get(..) and propagate the miss as an error"
            } else {
                "return a Result and let the caller decide"
            };
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "panic-safety",
                message: format!("`{pat}` can abort the fault-drain/eviction path; {steer}"),
            });
        }
    }
    if enabled("trace-determinism")
        && scope.crate_name == "trace"
        && !TRACE_COLD_FILES.contains(&scope.rel_path.as_str())
    {
        if let Some((pat, col, end_col)) = first_hit(code, TRACE_PATTERNS) {
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "trace-determinism",
                message: format!(
                    "`{pat}` on the trace hot path; build events from plain integers and render strings in the cold export module after the run"
                ),
            });
        }
    }
    if enabled("cast-safety") && CAST_CRATES.contains(&scope.crate_name.as_str()) {
        if let Some((pat, col, end_col)) = first_hit(code, CAST_PATTERNS) {
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "cast-safety",
                message: format!(
                    "`{}` on address/page arithmetic can truncate; use the typed u64 constants / helpers in deepum-mem or try_into",
                    pat.trim_start()
                ),
            });
        }
    }
    if enabled("result-discard") && RESULT_CRATES.contains(&scope.crate_name.as_str()) {
        if let Some((pat, col, end_col)) = first_hit(code, RESULT_PATTERNS) {
            let steer = match pat {
                p if p.starts_with("let _") => {
                    "bind the value and handle the Err arm, or propagate with `?`"
                }
                ".unwrap_or_default()" => {
                    "match on the Result (or map the error) so failures keep their meaning; \
                     the lexer cannot tell a Result from an Option, so spell an `Option` \
                     default as a `match` or `map_or`"
                }
                _ => "match on the Result (or map the error) so failures keep their meaning",
            };
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "result-discard",
                message: format!("`{pat}` silently swallows errors; {steer}"),
            });
        }
    }
    if enabled("hot-path-alloc") && HOT_PATH_FILES.contains(&scope.rel_path.as_str()) {
        if let Some((pat, col, end_col)) = first_hit(code, HOT_ALLOC_PATTERNS) {
            out.push(Candidate {
                line: line_no,
                col,
                end_col,
                lint: "hot-path-alloc",
                message: format!(
                    "`{pat}` allocates on the fault/eviction hot path; reuse a scratch buffer or flat table"
                ),
            });
        }
    }
}

/// File-level pass: crate roots must forbid unsafe code. The violation
/// anchors on the first code line so a standalone suppression comment
/// directly above it applies.
pub fn check_file(
    scope: &FileScope,
    lines: &[crate::scan::Line],
    enabled: &dyn Fn(&str) -> bool,
    out: &mut Vec<Candidate>,
) {
    if !enabled("unsafe-attr") || !scope.crate_root {
        return;
    }
    let has_attr = lines.iter().any(|l| {
        l.code.contains("#![forbid(unsafe_code)]") || l.code.contains("#![deny(unsafe_code)]")
    });
    if !has_attr {
        let anchor = lines
            .iter()
            .position(|l| !l.code.trim().is_empty())
            .map(|i| i + 1)
            .unwrap_or(1);
        out.push(Candidate {
            line: anchor,
            col: 1,
            end_col: 1,
            lint: "unsafe-attr",
            message: format!(
                "crate root `{}` must carry #![forbid(unsafe_code)] (or deny with a justified suppression)",
                scope.rel_path
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries_hold() {
        assert!(matches_pattern("use std::collections::HashMap;", "HashMap"));
        assert!(!matches_pattern("MyHashMapLike", "HashMap"));
        assert!(!matches_pattern("HashMapper", "HashMap"));
        assert!(matches_pattern("let t = Instant::now();", "Instant::now"));
        assert!(!matches_pattern("env::vars()", "env::var"));
        assert!(matches_pattern("std::env::var(\"X\")", "env::var"));
    }

    #[test]
    fn punctuation_patterns_match_anywhere() {
        assert!(matches_pattern("x.unwrap()", ".unwrap()"));
        assert!(matches_pattern("self.blocks[&b]", "[&"));
        assert!(matches_pattern("n as u64 + 1", " as u64"));
        assert!(!matches_pattern("n as u64x", " as u64"));
    }

    #[test]
    fn first_hit_reports_char_columns() {
        let (pat, col, end_col) = first_hit("    x.unwrap();", PANIC_PATTERNS).unwrap();
        assert_eq!(pat, ".unwrap()");
        assert_eq!(col, 6);
        assert_eq!(end_col, 15);
    }

    #[test]
    fn result_discard_patterns() {
        assert!(matches_pattern("let _ = self.push(x);", "let _ ="));
        assert!(matches_pattern("cap.ok().filter(|c| *c > 0)", ".ok()"));
        assert!(matches_pattern(
            "self.evict(now).unwrap_or_default()",
            ".unwrap_or_default()"
        ));
        // `.ok_or_else` is proper propagation, not a discard.
        assert!(!matches_pattern("x.ok_or_else(|| Error::Bad)", ".ok()"));
    }

    #[test]
    fn hot_alloc_patterns() {
        assert!(matches_pattern("let v: Vec<u64> = Vec::new();", "Vec::new"));
        assert!(matches_pattern(
            "ids.iter().collect::<Vec<_>>()",
            ".collect"
        ));
        assert!(matches_pattern("let s = plan.clone();", ".clone()"));
        // `cloned()` on iterators of Copy types is not the same hazard.
        assert!(!matches_pattern("ids.iter().cloned()", ".clone()"));
    }

    #[test]
    fn locks_are_forbidden_in_container_crates() {
        let hits = |crate_name: &str, code: &str| {
            let scope = FileScope {
                rel_path: format!("crates/{crate_name}/src/fixture.rs"),
                crate_name: crate_name.to_string(),
                crate_root: false,
            };
            let mut out = Vec::new();
            check_line(&scope, 1, code, false, &|_| true, &mut out);
            out.into_iter().map(|c| (c.lint, c.col)).collect::<Vec<_>>()
        };
        let lock = "use std::sync::{Arc, RwLock};";
        assert_eq!(hits("um", lock), vec![("determinism-container", 22)]);
        assert_eq!(
            hits("serve", "static S: Mutex<u32> = Mutex::new(0);"),
            vec![("determinism-container", 11)]
        );
        assert!(
            hits("bench", lock).is_empty(),
            "bench may share across threads"
        );
        assert!(hits("um", "let g = set.read();").is_empty());
        assert!(hits("core", "struct MutexLike;").is_empty());
    }

    #[test]
    fn every_lint_has_a_phase() {
        for l in LINTS {
            assert!(matches!(l.phase, "line" | "file" | "workspace"), "{}", l.id);
            assert_eq!(phase_of(l.id), l.phase);
        }
    }
}
