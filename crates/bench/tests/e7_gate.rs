//! The E7 gate of `ci.yml` as a tier-1 test: the quick ladder's
//! virtual columns must equal the committed `BENCH_E7.json` rows.
//!
//! Events and messages are seeded and deterministic;
//! `mem_bytes_per_node` is `size_of` plus counted heap bytes. So all
//! three must match the committed ladder exactly. A drift in any of
//! them means protocol behaviour or the per-node layout changed, and
//! the artifact must be regenerated on purpose. The wall-clock columns
//! are not checked here.

use oc_bench::{e7_cells, e7_sweep, E7Row};

/// The quick plan of `experiments --e7 --quick` and its default seed.
const QUICK_PLAN: &[(usize, usize, usize)] = &[(4_096, 8_192, 2)];
const MASTER_SEED: u64 = 42;

/// The raw token of `"key":` in one rendered row object, up to the next
/// `,` or `}` (rows hold no nested objects or strings with commas).
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = row.find(&tag).unwrap_or_else(|| panic!("no {key} in {row}")) + tag.len();
    let rest = &row[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

fn key(row: &str) -> [&str; 4] {
    [field(row, "n"), field(row, "backend"), field(row, "driver"), field(row, "seed")]
}

#[test]
fn quick_e7_virtual_columns_match_committed_ladder() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E7.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_E7.json");
    let rows_at = text.find("\"rows\":[{").expect("artifact has rows") + "\"rows\":[".len();
    let committed: Vec<&str> = text[rows_at..].split("},{").collect();

    let cells = e7_cells(QUICK_PLAN, MASTER_SEED);
    let fresh = e7_sweep(&cells, 1);
    assert!(!fresh.results.is_empty());
    for row in &fresh.results {
        let rendered = E7Row::to_json(row).render();
        let base = committed
            .iter()
            .find(|c| key(c) == key(&rendered))
            .unwrap_or_else(|| panic!("no committed row for {:?}", key(&rendered)));
        for column in ["events", "messages", "mem_bytes_per_node"] {
            assert_eq!(
                field(&rendered, column),
                field(base, column),
                "{column} moved at {:?}",
                key(&rendered)
            );
        }
    }
}
