//! A nested workspace ignores the root workspace's `[profile.*]` tables, so
//! `benchmark/Cargo.toml` repeats the root `[profile.release]`. This test
//! fails when the two drift apart: the benchmark must measure the codegen
//! users get.

use std::collections::BTreeMap;

/// The `key = value` pairs of one TOML table, comments and blanks dropped.
fn table(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[test]
fn release_profile_matches_the_root_workspace() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let read = |p: &str| {
        std::fs::read_to_string(format!("{dir}/{p}")).unwrap_or_else(|e| panic!("{p}: {e}"))
    };
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    let ours = table(&read("Cargo.toml"), "[profile.release]");
    assert!(
        !root.is_empty(),
        "the root manifest has no [profile.release]"
    );
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root's"
    );
}

#[test]
fn the_table_reader_sees_every_key() {
    let toml = "[a]\nx = 1\n\n[profile.release]\n# note\nlto = \"thin\" # why\ncodegen-units = 1\n[b]\ny = 2\n";
    let t = table(toml, "[profile.release]");
    assert_eq!(t.len(), 2);
    assert_eq!(t["lto"], "\"thin\"");
    assert_eq!(t["codegen-units"], "1");
}
