//! A few cells must reproduce their committed report digests.
//!
//! `deepum_suite --baseline ci/bench-baseline.json` checks all 176 cells,
//! but only when someone runs it. These cells are cheap enough for the
//! root package's tests, so a drift in the chain walk, the correlation
//! tables, the prefetch path, the GPU engine's fault batches or the
//! executor's gather sampling fails `cargo test` too.

use deepum_bench::suite::{run_cell, suite_cells, SuiteBaseline};

/// The two smallest Fig. 9 DeepUM cells, the Fig. 12 geometry cell
/// with the smallest table (128 rows, 2 ways, 4 successors), where set
/// conflicts evict ways most often, and two naive-UM cells: one whose
/// faults fill whole blocks, so the engine splits them into batches,
/// and DLRM's, whose gathers saturate the small embedding tables.
const CELLS: &[&str] = &[
    "bert-large-b14-deepum-i2",
    "bert-large-b16-deepum-i2",
    "bert-large-b16-deepum-cfg0-i2",
    "bert-large-b16-um-i2",
    "dlrm-b96000-um-i2",
];

fn read(relative: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn deepum_cells_match_committed_digests() {
    let baseline: SuiteBaseline =
        serde_json::from_str(&read("ci/bench-baseline.json")).expect("parse bench baseline");
    let cells = suite_cells();
    for key in CELLS {
        let want = &baseline
            .cells
            .iter()
            .find(|c| c.key == *key)
            .unwrap_or_else(|| panic!("{key} is not in ci/bench-baseline.json"))
            .hash;
        let cell = cells
            .iter()
            .find(|c| c.key == *key)
            .unwrap_or_else(|| panic!("{key} is not a suite cell"));
        let (outcome, _) = run_cell(cell);
        assert!(outcome.ok, "{key} ended in an error");
        assert_eq!(
            &outcome.hash, want,
            "{key}: report digest differs from ci/bench-baseline.json"
        );
    }
}
