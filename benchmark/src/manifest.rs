//! `check-manifest`: `BENCHMARK.json` must be strict JSON, satisfy every
//! rule of the benchmark contract, and declare exactly the workloads and
//! metrics this program prints. Runs before every benchmark run — a
//! manifest that is refused costs the whole benchmark, so this gate
//! comes first.

use std::collections::BTreeSet;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

const MAX_FILE_BYTES: usize = 64 * 1024;
const MAX_BOUND: f64 = 0.25;

/// A metric, workload or path-free identifier of the contract.
pub fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

pub fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

fn is_rel_path(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/');
    (1..=200).contains(&s.len())
        && s.chars().all(ok)
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
}

fn exact_keys(value: &Json, keys: &[&str], what: &str, errors: &mut Vec<String>) -> bool {
    let Some(pairs) = value.as_obj() else {
        errors.push(format!("{what}: not an object"));
        return false;
    };
    let have: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let same = have.len() == keys.len() && keys.iter().all(|k| have.contains(k));
    if !same {
        errors.push(format!("{what}: keys {have:?}, want exactly {keys:?}"));
    }
    same
}

fn list<'a>(
    doc: &'a Json,
    key: &str,
    min: usize,
    max: usize,
    errors: &mut Vec<String>,
) -> &'a [Json] {
    match doc.get(key).and_then(Json::as_arr) {
        Some(items) if (min..=max).contains(&items.len()) => items,
        Some(items) => {
            errors.push(format!(
                "{key}: {} entries, want {min}..={max}",
                items.len()
            ));
            items
        }
        None => {
            errors.push(format!("{key}: not a list"));
            &[]
        }
    }
}

fn str_field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Every way `text` (the content of `BENCHMARK.json` under `root`)
/// breaks the contract; empty when it is acceptable.
pub fn violations(text: &str, root: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > MAX_FILE_BYTES {
        errors.push(format!("file is {} bytes, over 64 KiB", text.len()));
    }
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e],
    };
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if !exact_keys(&doc, &top, "top level", &mut errors) {
        return errors;
    }

    let mut paths = Vec::new();
    for item in list(&doc, "paths", 1, 16, &mut errors) {
        match item.as_str() {
            Some(p) if is_rel_path(p) => {
                if !root.join(p).is_dir() {
                    errors.push(format!("paths: {p} is not a directory"));
                }
                paths.push(p.trim_end_matches('/').to_string());
            }
            _ => errors.push(format!("paths: bad entry {}", item.render())),
        }
    }

    for item in list(&doc, "command", 1, 32, &mut errors) {
        let Some(arg) = item.as_str().filter(|a| a.len() <= 200) else {
            errors.push(format!("command: bad entry {}", item.render()));
            continue;
        };
        if arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
            errors.push(format!("command: {arg} leaves the checkout"));
        }
        // An argument with a slash names a file; it must be one of ours.
        let inside = paths.iter().any(|p| arg.starts_with(&format!("{p}/")));
        if arg.contains('/') && !inside {
            errors.push(format!("command: {arg} is outside paths"));
        }
    }

    match doc.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        _ => errors.push("run_seconds: want a whole number 1..=60".into()),
    }

    let mut names = BTreeSet::new();
    let mut name_ok = |name: &str, what: &str, errors: &mut Vec<String>| {
        if !is_name(name) {
            errors.push(format!("{what}: bad name {name:?}"));
        } else if !names.insert(name.to_string()) {
            errors.push(format!("{what}: name {name} used twice"));
        }
    };

    let mut workloads = Vec::new();
    for item in list(&doc, "workloads", 2, 8, &mut errors) {
        if !exact_keys(item, &["name", "why"], "workload", &mut errors) {
            continue;
        }
        let name = str_field(item, "name");
        name_ok(name, "workloads", &mut errors);
        let why = str_field(item, "why");
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            errors.push(format!(
                "workload {name}: why must be one line of 1..=200 characters"
            ));
        }
        workloads.push(name.to_string());
    }

    type Declared = (String, String, String);
    let mut metric = |item: &Json, bounded: bool, what: &str, errors: &mut Vec<String>| {
        let keys: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        if !exact_keys(item, keys, what, errors) {
            return None;
        }
        let (name, unit, better) = (
            str_field(item, "name"),
            str_field(item, "unit"),
            str_field(item, "better"),
        );
        name_ok(name, what, errors);
        if !is_unit(unit) {
            errors.push(format!("{what} {name}: bad unit {unit:?}"));
        }
        if better != "lower" && better != "higher" {
            errors.push(format!("{what} {name}: better must be lower or higher"));
        }
        if bounded {
            match item.get("bound").and_then(Json::as_f64) {
                Some(b) if b > 0.0 && b <= MAX_BOUND => {}
                _ => errors.push(format!("{what} {name}: bound must be in (0, {MAX_BOUND}]")),
            }
        }
        Some((name.to_string(), unit.to_string(), better.to_string()))
    };
    let end_to_end: Vec<Declared> = list(&doc, "end_to_end", 1, 16, &mut errors)
        .iter()
        .filter_map(|item| metric(item, true, "end_to_end", &mut errors))
        .collect();
    let setup = ("setup_s".to_string(), "s".to_string(), "lower".to_string());
    if !end_to_end.contains(&setup) {
        errors.push("end_to_end: setup_s (unit s, better lower) is required".into());
    }
    let per_layer: Vec<Declared> = list(&doc, "per_layer", 1, 128, &mut errors)
        .iter()
        .filter_map(|item| metric(item, false, "per_layer", &mut errors))
        .collect();

    // The manifest and the program must agree on what is printed.
    let printed = |table: &[(&str, &str, bool)]| -> Vec<Declared> {
        table
            .iter()
            .map(|(n, u, higher)| {
                let better = if *higher { "higher" } else { "lower" };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect()
    };
    for (what, have, want) in [
        ("end_to_end", &end_to_end, printed(END_TO_END)),
        ("per_layer", &per_layer, printed(PER_LAYER)),
    ] {
        for m in &want {
            if !have.contains(m) {
                errors.push(format!(
                    "{what}: program prints {m:?}, manifest does not declare it"
                ));
            }
        }
        for m in have {
            if !want.contains(m) {
                errors.push(format!(
                    "{what}: manifest declares {m:?}, program does not print it"
                ));
            }
        }
    }
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if workloads != known {
        errors.push(format!(
            "workloads: manifest has {workloads:?}, program runs {known:?}"
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn committed() -> String {
        std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json")
    }

    #[test]
    fn committed_manifest_is_accepted() {
        assert_eq!(violations(&committed(), &root()), Vec::<String>::new());
    }

    #[test]
    fn broken_manifests_are_refused() {
        let good = committed();
        let cases = [
            ("not strict json", good.replacen('{', "{,", 1)),
            ("extra key", good.replacen('{', "{\"extra\": 1, ", 1)),
            (
                "bound too wide",
                good.replacen("\"bound\": 0.", "\"bound\": 1.", 1),
            ),
            (
                "unknown metric",
                good.replacen("\"name\": \"expand_s\"", "\"name\": \"expand_sec\"", 1),
            ),
            (
                "bad unit",
                good.replacen("\"unit\": \"s\"", "\"unit\": \"µs\"", 1),
            ),
            (
                "absolute command",
                good.replacen("benchmark/run.sh", "/benchmark/run.sh", 1),
            ),
            (
                "path escape",
                good.replacen("[\"benchmark\"]", "[\"../benchmark\"]", 1),
            ),
            (
                "fractional seconds",
                good.replacen("\"run_seconds\": ", "\"run_seconds\": 0.", 1),
            ),
        ];
        for (what, text) in cases {
            assert_ne!(text, good, "{what}: the edit did not apply");
            assert!(!violations(&text, &root()).is_empty(), "{what}: accepted");
        }
    }

    #[test]
    fn name_and_unit_shapes() {
        assert!(is_name("core.load_s") && is_name("9lives") && is_name("a-b"));
        assert!(!is_name("") && !is_name(".x") && !is_name("a b") && !is_name(&"x".repeat(65)));
        assert!(is_unit("1/s") && is_unit("%") && is_unit("bytes/row"));
        assert!(!is_unit("µs") && !is_unit("") && !is_unit(&"x".repeat(17)));
    }
}
