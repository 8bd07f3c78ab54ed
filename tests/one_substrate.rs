//! One substrate: the repository carries one benchmark (`benchmark/`) and
//! the experiment bins, and nothing else that measures. These checks keep
//! the retired bench plane from growing back: no vendored stand-in beyond
//! `rand` and `proptest`, no root result file beyond Geographica's,
//! and no Criterion-style `[[bench]]` target. They also keep the shared
//! routines single: one SplitMix64, one civil-date conversion and one
//! JSON string escaper in the product's source and the stand-ins.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn dir_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn vendor_holds_exactly_the_two_stand_ins_in_use() {
    let vendored = dir_names(&root().join("vendor"));
    let expected: BTreeSet<String> = ["proptest", "rand"].map(String::from).into();
    assert_eq!(vendored, expected, "vendor/ must hold exactly these crates");
}

#[test]
fn geographica_is_the_only_root_result_file() {
    let results: BTreeSet<String> = dir_names(root())
        .into_iter()
        .filter(|name| {
            name.ends_with(".json") && (name.starts_with("BENCH_") || name.starts_with("METRICS_"))
        })
        .collect();
    let expected: BTreeSet<String> = ["BENCH_geographica.json", "METRICS_geographica.json"]
        .map(String::from)
        .into();
    assert_eq!(
        results, expected,
        "only exp_geographica keeps its results at the root; run the other \
         exp_* bins from a scratch directory"
    );
}

#[test]
fn no_manifest_declares_a_bench_target() {
    let crates = root().join("crates");
    let manifests = dir_names(&crates)
        .into_iter()
        .map(|name| crates.join(name).join("Cargo.toml"))
        .chain([root().join("Cargo.toml")])
        .filter(|path| path.is_file());
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("read manifest");
        assert!(
            !text.lines().any(|line| line.trim() == "[[bench]]"),
            "{} declares a [[bench]] target; measure through benchmark/ instead",
            manifest.display()
        );
    }
}

/// Appends to `hits` the files under `dir` whose text, lowercased and
/// with `_` removed, contains `needle`.
fn files_containing(dir: &Path, needle: &str, hits: &mut Vec<String>) {
    for name in dir_names(dir) {
        let path = dir.join(name);
        if path.is_dir() {
            files_containing(&path, needle, hits);
        } else if fs::read_to_string(&path)
            .is_ok_and(|text| text.to_lowercase().replace('_', "").contains(needle))
        {
            hits.push(path.strip_prefix(root()).unwrap().display().to_string());
        }
    }
}

#[test]
fn shared_routines_are_written_once() {
    // Needles are assembled at run time so this file does not match
    // itself; `benchmark/` is outside the product. The vendored stand-ins
    // are scanned too: `rand` seeds from `applab_obs::splitmix64`.
    for (needle, home) in [
        (["bf58476d", "1ce4e5b9"].concat(), "crates/obs/src/lib.rs"),
        (["719", "468"].concat(), "crates/array/src/time.rs"),
        (["\\\\u{", ":04x}"].concat(), "crates/obs/src/json.rs"),
    ] {
        let mut hits = Vec::new();
        for dir in ["crates", "tests", "examples", "src", "vendor"] {
            files_containing(&root().join(dir), &needle, &mut hits);
        }
        assert_eq!(hits, [home], "{needle:?} belongs in {home} only");
    }
}
