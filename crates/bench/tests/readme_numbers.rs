//! The README's "Recorded numbers" table must match `BENCH_checker.json`.
//!
//! Each row names, in its `field` column, the `BENCH_checker.json` field
//! its seconds come from (a dotted path into nested objects; a
//! `_micros` field is shown in seconds). Its spread is `—` or
//! `IQR <seconds> (`field`)`, naming the field it comes from. Its
//! speedup either names its own field in backticks or reads
//! `N× vs cold`, the best cold time (`cold_secs`) over the row's,
//! rounded. Re-taking the bench without regenerating the table fails
//! here.

use vault_server::{parse_json, Json};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The fields the table must show, in row order.
const FIELDS: [&str; 5] = [
    "cold_median_secs",
    "warm_unit_cache_secs",
    "one_fn_edit_incremental_secs",
    "restart_warm_secs",
    "sparse_fixpoint.check_micros",
];

fn field(bench: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(bench, |json, key| json.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("BENCH_checker.json has no number at `{path}`"))
}

/// The text between the first pair of backticks in `cell`.
fn quoted(cell: &str) -> Option<&str> {
    let (_, rest) = cell.split_once('`')?;
    rest.split_once('`').map(|(name, _)| name)
}

#[test]
fn recorded_numbers_match_the_checker_bench_file() {
    let readme = std::fs::read_to_string(format!("{ROOT}/README.md")).expect("README.md");
    let text =
        std::fs::read_to_string(format!("{ROOT}/BENCH_checker.json")).expect("BENCH_checker.json");
    let bench = parse_json(&text).expect("BENCH_checker.json parses");
    let cold = field(&bench, "cold_secs");
    let rows: Vec<Vec<&str>> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| scenario (6 units"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    let shown: Vec<&str> = rows.iter().filter_map(|r| quoted(r[1])).collect();
    assert_eq!(shown, FIELDS, "the table's rows and their fields");
    for row in &rows {
        let [scenario, name, seconds, spread, speedup] = row[..] else {
            panic!("a row without five columns: {row:?}");
        };
        let name = quoted(name).expect("a field in backticks");
        let value = field(&bench, name);
        let secs = if name.ends_with("_micros") {
            value / 1e6
        } else {
            value
        };
        assert_eq!(seconds, format!("{secs:.6}"), "{scenario}: `{name}`");
        match quoted(spread) {
            Some(iqr) => assert_eq!(
                spread,
                format!("IQR {:.6} (`{iqr}`)", field(&bench, iqr)),
                "{scenario}: spread"
            ),
            None => assert_eq!(spread, "—", "{scenario}: spread"),
        }
        let (ratio, rest) = speedup.split_once('×').expect("a speedup in ×");
        let ratio: f64 = ratio.parse().expect("a numeric speedup");
        let want = match quoted(rest) {
            Some(name) => field(&bench, name),
            None => {
                assert!(rest.trim() == "vs cold", "{scenario}: {speedup}");
                (cold / secs).round()
            }
        };
        assert_eq!(ratio, want, "{scenario}: {speedup}");
    }
}
