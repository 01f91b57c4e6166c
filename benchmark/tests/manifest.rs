//! Build settings change speed without changing code, so the benchmark's
//! release profile must be the root workspace's.

use std::collections::BTreeSet;

/// The `key = value` lines of `[profile.release]` in a manifest.
fn release_profile(manifest: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_equals_the_root_workspace() {
    let here = env!("CARGO_MANIFEST_DIR");
    let root = release_profile(&format!("{here}/../Cargo.toml"));
    let own = release_profile(&format!("{here}/Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a [profile.release] table");
    assert_eq!(own, root, "benchmark/Cargo.toml [profile.release] must mirror ../Cargo.toml");
}
