//! The benchmark workspace copies `[profile.release]` and
//! `[patch.crates-io]` from the root manifest (a nested workspace inherits
//! neither). Build settings change speed without changing code, so the
//! copies must not drift silently.

use std::collections::BTreeMap;

/// `key = value` lines of one `[section]` of a TOML file, comments
/// stripped. Enough for the flat tables compared here.
fn section(text: &str, header: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn read(relative: &str) -> String {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = section(&read("../../Cargo.toml"), "[profile.release]");
    let ours = section(&read("../Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "root manifest has a release profile");
    for key in ["lto", "codegen-units", "debug"] {
        assert_eq!(
            root.get(key),
            ours.get(key),
            "[profile.release] {key} drifted"
        );
    }
    assert_eq!(root, ours, "[profile.release] drifted");
}

#[test]
fn patch_set_matches_the_root_manifest() {
    let root = section(&read("../../Cargo.toml"), "[patch.crates-io]");
    let ours = section(&read("../Cargo.toml"), "[patch.crates-io]");
    assert!(!root.is_empty(), "root manifest patches crates.io");
    let keys = |m: &BTreeMap<String, String>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(keys(&root), keys(&ours), "[patch.crates-io] set drifted");
    for (name, theirs) in &root {
        // Same stand-in, one directory further up.
        let expected = theirs.replace("path = \"", "path = \"../");
        assert_eq!(&expected, &ours[name], "[patch.crates-io] {name} drifted");
    }
}

#[test]
fn section_reader_stops_at_the_next_table() {
    let text = "[a]\nx = 1\n# note\ny = \"two\" \n\n[b]\nz = 3\n";
    let a = section(text, "[a]");
    assert_eq!(a.len(), 2);
    assert_eq!(a["y"], "\"two\"");
    assert!(section(text, "[missing]").is_empty());
}
