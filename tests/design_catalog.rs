//! DESIGN.md's metric and span catalog names only what the code emits.
//!
//! Every backticked name in the first column of the "Telemetry" family
//! table and of the "Tracing" span table must equal a string literal in
//! the non-test code of `crates/*/src/**/*.rs` (a file's trailing
//! `#[cfg(test)] mod` is skipped). Both sides are compared after mapping
//! `/` to `_`: the registry path `online/queries` is the Prometheus family
//! `online_queries`. A label set `{…}` is stripped from a catalog name,
//! and its `<i>` matches any one segment of a literal, such as the `{}` of
//! `format!("shard/{}/scan", ..)`. A span opened inside another records
//! under the joined path (`span("offline")`, then `span("features")`, is
//! `offline/features`), so two `span("…")` names joined by `/` count as a
//! literal too.
//!
//! This checks one direction: a row whose metric or span is gone from the
//! code fails here; a metric the catalog leaves out does not.

use std::collections::BTreeSet;
use std::path::Path;

/// Backticked names in the first column of the table whose header starts
/// with `| first_column |`, in the section whose heading starts with
/// `heading`.
fn catalog_names(design: &str, heading: &str, first_column: &str) -> Vec<String> {
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("DESIGN.md has no section {heading:?}"));
    let header = format!("| {first_column} |");
    section
        .lines()
        .skip_while(|l| !l.starts_with(&header))
        .skip(2) // the header and its |---| rule
        .take_while(|l| l.starts_with('|'))
        .flat_map(|row| {
            row.split('|')
                .nth(1)
                .unwrap_or("")
                .split('`')
                .skip(1)
                .step_by(2)
        })
        .map(String::from)
        .collect()
}

/// Adds the name-like string literals of one source file's non-test code:
/// every text between two quotes made only of `[A-Za-z0-9_/{}]` (metric
/// and span names never hold anything else), and the nested span paths.
fn add_literals(src: &str, literals: &mut BTreeSet<String>, spans: &mut BTreeSet<String>) {
    let code = match src.find("#[cfg(test)]\nmod ") {
        Some(at) => &src[..at],
        None => src,
    };
    let name_like = |p: &&str| {
        !p.is_empty()
            && p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/{}".contains(c))
    };
    literals.extend(code.split('"').filter(name_like).map(String::from));
    for (at, _) in code.match_indices("span(\"") {
        let rest = &code[at + "span(\"".len()..];
        spans.insert(rest[..rest.find('"').unwrap_or(0)].to_string());
    }
}

/// Whether the mapped `literal` is the mapped `name`, each `<i>` of `name`
/// standing for one non-empty segment of `literal` without `_`.
fn matches(name: &str, literal: &str) -> bool {
    let mut parts = name.split("<i>");
    let Some(mut rest) = literal.strip_prefix(parts.next().unwrap_or("")) else {
        return false;
    };
    for part in parts {
        let seg = rest.find('_').unwrap_or(rest.len());
        match rest[seg..].strip_prefix(part) {
            Some(after) if seg > 0 => rest = after,
            _ => return false,
        }
    }
    rest.is_empty()
}

fn add_dir(dir: &Path, literals: &mut BTreeSet<String>, spans: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            add_dir(&path, literals, spans);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("readable source");
            add_literals(&src, literals, spans);
        }
    }
}

#[test]
fn every_catalogued_metric_and_span_is_in_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let (mut literals, mut spans) = (BTreeSet::new(), BTreeSet::new());
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            add_dir(&src, &mut literals, &mut spans);
        }
    }
    for parent in &spans {
        literals.extend(spans.iter().map(|child| format!("{parent}/{child}")));
    }
    let literals: Vec<String> = literals.iter().map(|l| l.replace('/', "_")).collect();

    let mut names = catalog_names(&design, "Telemetry", "Prometheus family");
    names.extend(catalog_names(&design, "Tracing", "Span"));
    assert!(
        names.len() > 40,
        "catalog parse found only {} names",
        names.len()
    );
    let missing: Vec<&String> = names
        .iter()
        .filter(|name| {
            let bare = name.split('{').next().unwrap_or(name).replace('/', "_");
            !literals.iter().any(|l| matches(&bare, l))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md catalogs names that no string literal in crates/*/src holds: {missing:?}"
    );
}

#[test]
fn literals_and_wildcards_match_as_documented() {
    let (mut literals, mut spans) = (BTreeSet::new(), BTreeSet::new());
    let src = "// \"in a comment\"\nf(\"shard/{}/scan\", \"a b\", '\"');\nspan(\"offline\");\n\
               #[cfg(test)]\nmod tests { g(\"test_only\"); }";
    add_literals(src, &mut literals, &mut spans);
    assert_eq!(
        literals.iter().collect::<Vec<_>>(),
        ["offline", "shard/{}/scan"]
    );
    assert_eq!(spans.iter().collect::<Vec<_>>(), ["offline"]);
    assert!(matches("shard_<i>_scan", "shard_{}_scan"));
    assert!(matches("shard_<i>_scan", "shard_0_scan"));
    assert!(!matches("shard_<i>_scan", "shard__scan"));
    assert!(!matches("shard_<i>_scan", "shard_0_scan_ns"));
    assert!(!matches("online_queries", "online_queries_total"));
}
