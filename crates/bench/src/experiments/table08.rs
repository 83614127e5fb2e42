//! Table 8: qualitative comparison of the approaches.
//!
//! The capability matrix (base framework, required modifications,
//! runtime profiling) comes from each strategy's declared
//! [`deepum_baselines::strategies::Capabilities`]; DeepUM's own row
//! reflects the paper: PyTorch base, a few allocator lines changed, no
//! user-script modification, runtime profiling through page faults.

use deepum_baselines::strategies::{
    AutoTm, Capabilities, Capuchin, Lms, Sentinel, SwapAdvisor, Vdnn,
};

use super::{section, Verdict};
use crate::table::Table;

/// Paper, Table 8.
pub const PAPER: &str = "DeepUM is the only system with no user-script modification and only a \
few allocator lines of framework change.";

/// Every capability row of Table 8, presentation order.
pub fn rows() -> Vec<Capabilities> {
    vec![
        Vdnn::CAPS,
        Lms::CAPS,
        AutoTm::CAPS,
        Capuchin::CAPS,
        SwapAdvisor::CAPS,
        Sentinel::CAPS,
        Capabilities {
            name: "deepum",
            base_framework: "PyTorch",
            framework_modification: true, // <10 allocator lines
            user_script_modification: false,
            runtime_profiling: true,
        },
    ]
}

/// Renders Table 8.
pub fn table() -> Table {
    let mut t = Table::new(
        "Table 8: qualitative comparison",
        &[
            "name",
            "base framework",
            "framework mod",
            "user script mod",
            "runtime profiling",
        ],
    );
    for c in rows() {
        let base = if c.base_framework.is_empty() {
            "(scratch)"
        } else {
            c.base_framework
        };
        t.row([
            c.name,
            base,
            yn(c.framework_modification),
            yn(c.user_script_modification),
            yn(c.runtime_profiling),
        ]);
    }
    t
}

fn yn(b: bool) -> &'static str {
    ["N", "Y"][usize::from(b)]
}

/// Table 8: the capability matrix.
pub fn render() -> String {
    let verdict = deepum_transparent(&rows());
    section(
        "Table 8 — qualitative comparison",
        PAPER,
        &[table()],
        &[verdict],
    )
}

/// DeepUM needs no user-script modification and profiles at run time.
pub fn deepum_transparent(rows: &[Capabilities]) -> Verdict {
    let check = rows.iter().find(|c| c.name == "deepum").map(|d| {
        let (script, profiling) = (d.user_script_modification, d.runtime_profiling);
        let detail = format!(
            "deepum: user script mod {}, runtime profiling {}",
            yn(script),
            yn(profiling)
        );
        (!script && profiling, detail)
    });
    Verdict::all("deepum_transparent", check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper_highlights() {
        let rows = rows();
        assert_eq!(rows.len(), 7);
        let deepum = rows.iter().find(|c| c.name == "deepum").unwrap();
        // DeepUM: no user-script change, runtime profiling.
        assert!(!deepum.user_script_modification);
        assert!(deepum.runtime_profiling);
        // Sentinel requires user-script changes (the paper's contrast).
        let sentinel = rows.iter().find(|c| c.name == "sentinel").unwrap();
        assert!(sentinel.user_script_modification);
        // vDNN is built from scratch.
        let vdnn = rows.iter().find(|c| c.name == "vdnn").unwrap();
        assert!(vdnn.base_framework.is_empty());
    }

    #[test]
    fn transparency_predicate_reads_the_deepum_row() {
        let mut rows = rows();
        let v = deepum_transparent(&rows);
        assert!(v.holds, "{}", v.detail);
        assert_eq!(v.detail, "deepum: user script mod N, runtime profiling Y");
        rows.last_mut().unwrap().user_script_modification = true;
        assert!(!deepum_transparent(&rows).holds);
    }

    #[test]
    fn table_renders_every_row() {
        let t = table();
        assert_eq!(t.rows.len(), 7);
    }
}
