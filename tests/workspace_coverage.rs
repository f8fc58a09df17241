#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The tier-1 command (`cargo test -q` at the repository root) must run
//! every crate's tests. Plain `cargo test` covers exactly the root
//! manifest's `default-members`, so every package under `crates/` and
//! `vendor/` has to be listed there (directly or through a `dir/*`
//! glob), and no package may switch its test targets off.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The quoted entries of the `key = [ ... ]` array in a TOML text.
fn string_array(toml: &str, key: &str) -> Vec<String> {
    let start = toml
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} =")))
        .unwrap_or_else(|| panic!("no `{key}` in the root Cargo.toml"));
    let rest: String = toml
        .lines()
        .skip(start)
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let open = rest.find('[').expect("array opens");
    let close = rest.find(']').expect("array closes");
    rest[open + 1..close]
        .split(',')
        .map(|entry| entry.trim().trim_matches('"').to_owned())
        .filter(|entry| !entry.is_empty())
        .collect()
}

/// Every package directory directly under `dir` (one holding a
/// `Cargo.toml`), relative to the repository root.
fn packages_under(dir: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("list {dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .map(|path| Path::new(dir).join(path.file_name().expect("named")))
        .collect();
    found.sort();
    found
}

fn covered(package: &Path, default_members: &[String]) -> bool {
    default_members
        .iter()
        .any(|member| match member.strip_suffix("/*") {
            Some(dir) => package.parent() == Some(Path::new(dir)),
            None => package == Path::new(member),
        })
}

#[test]
fn every_crate_is_a_default_member() {
    let manifest = read(&root().join("Cargo.toml"));
    let default_members = string_array(&manifest, "default-members");
    assert!(
        default_members.iter().any(|m| m == "."),
        "the root package's integration tests must stay in default-members: {default_members:?}"
    );
    let packages: Vec<PathBuf> = ["crates", "vendor"]
        .iter()
        .flat_map(|dir| packages_under(dir))
        .collect();
    assert!(
        packages.len() >= 16,
        "expected the workspace crates, found {packages:?}"
    );
    let missing: Vec<&PathBuf> = packages
        .iter()
        .filter(|p| !covered(p, &default_members))
        .collect();
    assert!(
        missing.is_empty(),
        "`cargo test` would skip these packages; add them to default-members \
         ({default_members:?}): {missing:?}"
    );
}

#[test]
fn no_crate_switches_its_tests_off() {
    for package in ["crates", "vendor"]
        .iter()
        .flat_map(|dir| packages_under(dir))
    {
        let manifest = read(&root().join(&package).join("Cargo.toml"));
        for line in manifest.lines().map(str::trim) {
            let setting: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            assert!(
                !(setting.starts_with("test=false") || setting.starts_with("autotests=false")),
                "{}: `{line}` hides tests from the tier-1 command",
                package.display()
            );
        }
    }
}

#[test]
fn a_missing_package_is_reported() {
    let members = vec![".".to_owned(), "crates/*".to_owned()];
    assert!(covered(Path::new("crates/core"), &members));
    assert!(!covered(Path::new("vendor/serde"), &members));
    let listed = vec!["vendor/serde".to_owned()];
    assert!(covered(Path::new("vendor/serde"), &listed));
    assert!(!covered(Path::new("vendor/rand"), &listed));
    let parsed = string_array(
        "[workspace]\n# note\ndefault-members = [\n  \".\", # root\n  \"crates/*\",\n]\n",
        "default-members",
    );
    assert_eq!(parsed, members);
}
