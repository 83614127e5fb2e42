//! EXPERIMENTS.md must have been rendered from the reports the committed
//! bench baseline describes.
//!
//! `deepum_suite --experiments` records the `grid_digest` of the ordered
//! (cell key, report digest) list it rendered from. Recomputing that
//! digest from `ci/bench-baseline.json` ties the document to the
//! baseline: a re-bless that changes any cell's digest fails this test
//! until EXPERIMENTS.md is regenerated.

use deepum_bench::experiments::digest_line;
use deepum_bench::suite::{grid_digest, SuiteBaseline};

fn read(relative: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn experiments_md_renders_the_committed_baseline() {
    let baseline: SuiteBaseline =
        serde_json::from_str(&read("ci/bench-baseline.json")).expect("parse bench baseline");
    let want = digest_line(
        baseline.cells.len(),
        &grid_digest(
            baseline
                .cells
                .iter()
                .map(|c| (c.key.as_str(), c.hash.as_str())),
        ),
    );
    let doc = read("EXPERIMENTS.md");
    assert!(
        doc.lines().any(|l| l == want),
        "EXPERIMENTS.md was not rendered from ci/bench-baseline.json; regenerate it with \
         `deepum_suite --serial-only --baseline ci/bench-baseline.json --experiments \
         EXPERIMENTS.md`.\nexpected line: {want}"
    );
}
