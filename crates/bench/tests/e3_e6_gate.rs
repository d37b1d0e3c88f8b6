//! The committed `BENCH_E3.json` and `BENCH_E6.json` as a tier-1 test:
//! every row of a fresh E3 and E6 run must equal the committed row.
//!
//! Both experiments are seeded simulations and their rows hold only
//! virtual-time columns (message counts, searches, regenerations,
//! served requests), so they must match exactly. Both plans are cheap,
//! so this runs the full plans the artifacts were written from, not
//! just the `--quick` subset (E6's quick size, n = 16, is the first
//! half of its rows; E3's quick plan is not in the artifact at all). A
//! drift means protocol behaviour changed, and the artifacts must be
//! regenerated on purpose with `experiments --e3 --e6 --json --threads 1`.

use oc_bench::{e3_cells, e3_sweep, e6_sweep, json::Value, E3Row, E6Row};

const MASTER_SEED: u64 = 42;
/// The full plans of `experiments --e3` and `experiments --e6`.
const E3_PLAN: &[(usize, usize)] = &[(16, 100), (32, 300), (64, 200), (128, 100)];
const E3_SEEDS: usize = 5;
const E6_SIZES: &[usize] = &[16, 64];

/// The committed artifact's rows, one rendered object each.
fn committed_rows(file: &str) -> Vec<String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let start = text.find("\"rows\":[").expect("artifact has rows") + "\"rows\":[".len();
    let end = start + text[start..].find(']').expect("rows array closes");
    text[start..end].split("},{").map(|row| row.trim_matches(['{', '}']).to_owned()).collect()
}

fn assert_rows_match(file: &str, fresh: &[Value]) {
    let committed = committed_rows(file);
    assert_eq!(fresh.len(), committed.len(), "{file}: row count moved");
    for (k, (row, base)) in fresh.iter().zip(&committed).enumerate() {
        let rendered = row.render();
        assert_eq!(rendered.trim_end().trim_matches(['{', '}']), base, "{file}: row {k} moved");
    }
}

#[test]
fn e3_rows_match_committed_artifact() {
    let outcome = e3_sweep(&e3_cells(E3_PLAN, E3_SEEDS), MASTER_SEED, 2);
    let rows: Vec<Value> = outcome.results.iter().map(E3Row::to_json).collect();
    assert_rows_match("BENCH_E3.json", &rows);
}

#[test]
fn e6_rows_match_committed_artifact() {
    let outcome = e6_sweep(E6_SIZES, MASTER_SEED, 2);
    let rows: Vec<Value> = outcome.results.iter().map(E6Row::to_json).collect();
    assert_rows_match("BENCH_E6.json", &rows);
}
