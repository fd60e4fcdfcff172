//! `spread`: the repeatability table. Reads two sets of result files
//! (one directory each, as `repeat.sh` leaves them), and for every
//! workload × end-to-end metric reports each set's quartiles, its spread
//! (interquartile range over median) and how much worse the second
//! median is than the first — the acceptance rule of the benchmark
//! contract, applied to our own runs. Writes `results/spread.json`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{quartiles, END_TO_END};
use crate::workloads::WORKLOADS;

/// workload → metric → one value per run.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read every `*.json` result in `dir`. All files, across both sets,
/// must come from the same `nproc` and scale: numbers from a 1-CPU
/// container are never compared with multi-core ones, nor `--quick`
/// runs with full ones.
fn read_set(dir: &Path, environment: &mut Option<(f64, String)>) -> Result<Values, String> {
    let mut values = Values::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key: &str| doc.get(key).ok_or(format!("{}: no {key}", path.display()));
        let nproc = field("nproc")?.as_f64().ok_or("nproc is not a number")?;
        let scale = field("scale")?
            .as_str()
            .ok_or("scale is not a string")?
            .to_string();
        match environment {
            None => *environment = Some((nproc, scale)),
            Some(seen) if *seen == (nproc, scale.clone()) => {}
            Some(seen) => {
                return Err(format!(
                    "{}: nproc={nproc} scale={scale}, other results have nproc={} scale={}; \
                     refusing to compare",
                    path.display(),
                    seen.0,
                    seen.1
                ))
            }
        }
        if field("correct")? != &Json::Bool(true) || field("failed")?.as_f64() != Some(0.0) {
            return Err(format!(
                "{}: the run failed a check or an operation",
                path.display()
            ));
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        let metrics = field("end_to_end")?
            .as_obj()
            .ok_or("end_to_end is not an object")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

fn bounds(home: &Path) -> Result<BTreeMap<String, f64>, String> {
    let path = home.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

pub fn run(home: &Path, dirs: &[String]) -> Result<bool, String> {
    let [first, second] = dirs else {
        return Err("spread wants two directories of results".into());
    };
    let mut environment = None;
    let a = read_set(Path::new(first), &mut environment)?;
    let b = read_set(Path::new(second), &mut environment)?;
    let (nproc, scale) = environment.ok_or("no result files")?;
    let bounds = bounds(home)?;

    let mut rows = Vec::new();
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median_1", "spread_1", "median_2", "spread_2", "worse_by", "bound"
    );
    for workload in WORKLOADS {
        for (metric, unit, higher) in END_TO_END {
            let set = |values: &Values| -> Result<Vec<f64>, String> {
                values
                    .get(workload.name)
                    .and_then(|m| m.get(*metric))
                    .filter(|v| v.len() >= 2)
                    .cloned()
                    .ok_or(format!("{}/{metric}: fewer than two runs", workload.name))
            };
            let (va, vb) = (set(&a)?, set(&b)?);
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            // Positive when the second set's median is the worse one.
            let worse_by = if *higher {
                (qa[1] - qb[1]) / qa[1]
            } else {
                (qb[1] - qa[1]) / qa[1]
            };
            let bound = *bounds.get(*metric).ok_or(format!("{metric}: no bound"))?;
            // The contract exempts setup_s from the spread rule only.
            let steady = *metric == "setup_s" || spread(qa).max(spread(qb)) <= bound;
            let verdict = if steady && worse_by <= bound {
                "ok"
            } else if steady {
                "MEDIANS DIFFER"
            } else {
                // Demotion rule: never widen the bound — a metric this
                // unsteady belongs in the per-layer list.
                "DEMOTE"
            };
            ok &= verdict == "ok";
            println!(
                "{:<14} {:<22} {:>12.5} {:>8.4} {:>12.5} {:>8.4} {:>8.4} {:>6} {verdict}",
                workload.name,
                metric,
                qa[1],
                spread(qa),
                qb[1],
                spread(qb),
                worse_by,
                bound
            );
            rows.push(Json::obj(vec![
                ("workload", Json::str(workload.name)),
                ("metric", Json::str(*metric)),
                ("unit", Json::str(*unit)),
                ("runs", Json::nums(&[va.len() as f64, vb.len() as f64])),
                ("quartiles_1", Json::nums(&qa)),
                ("quartiles_2", Json::nums(&qb)),
                ("spread_1", Json::Num(spread(qa))),
                ("spread_2", Json::Num(spread(qb))),
                ("second_worse_by", Json::Num(worse_by)),
                ("bound", Json::Num(bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let table = Json::obj(vec![
        ("nproc", Json::Num(nproc)),
        ("scale", Json::str(scale)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = home.join("results").join("spread.json");
    std::fs::create_dir_all(home.join("results")).map_err(|e| e.to_string())?;
    // One row per line keeps the committed file reviewable.
    let text = table.render().replace("{\"workload\"", "\n{\"workload\"") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}
