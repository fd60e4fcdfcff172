//! The repo's benchmark: one process runs one workload and prints every
//! metric by name with its unit, checks the program's outputs, and ends
//! with the one-line JSON result the benchmark contract asks for.
//!
//! ```text
//! probkb-benchmark --home benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! probkb-benchmark check-manifest --home benchmark
//! probkb-benchmark spread --home benchmark FIRST_DIR SECOND_DIR
//! ```

mod batch;
mod journey;
mod json;
mod layers;
mod manifest;
mod metrics;
mod rng;
mod serve;
mod spans;
mod spread;
mod timed_engine;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use workloads::Sizing;

struct Args {
    command: Option<String>,
    flags: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        flags: Vec::new(),
        quick: false,
        positional: Vec::new(),
    };
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if arg == "--quick" {
            args.quick = true;
        } else if let Some(flag) = arg.strip_prefix("--") {
            let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
            args.flags.push((flag.to_string(), value));
        } else if args.command.is_none() && args.flags.is_empty() {
            args.command = Some(arg);
        } else {
            args.positional.push(arg);
        }
    }
    Ok(args)
}

impl Args {
    fn flag(&self, name: &str) -> Result<&str, String> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or(format!("missing --{name}"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let text = self.flag(name)?;
        text.parse()
            .map_err(|_| format!("--{name}: cannot read {text:?}"))
    }
}

fn check_manifest(home: &Path) -> Result<(), String> {
    let root = home.join("..");
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let problems = manifest::violations(&text, &root);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json refused:\n  {}",
            problems.join("\n  ")
        ))
    }
}

/// What every result records, so numbers from different machines or
/// sizes are never compared: `spread` refuses files that differ here.
fn environment(nproc: usize, quick: bool) -> Vec<(&'static str, Json)> {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("scale", Json::str(if quick { "quick" } else { "full" })),
        ("commit", Json::str(var("BENCH_COMMIT"))),
        ("rustc", Json::str(var("BENCH_RUSTC"))),
    ]
}

fn metrics_json(values: &std::collections::BTreeMap<&'static str, f64>) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, value)| {
                let unit = metrics::unit_of(name).expect("metric from the tables");
                let entry = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

fn run(args: &Args, home: &Path) -> Result<bool, String> {
    check_manifest(home)?;
    let name = args.flag("workload")?;
    let workload = workloads::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = args.number("seed")?;
    let seconds: f64 = args.number("seconds")?;
    let trace = match args.flag("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds: want a number in (0, 60]".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = home.join("out");
    let params = journey::Params {
        workload,
        seed,
        seconds,
        trace,
        sizing: Sizing { quick: args.quick },
        nproc,
        scratch: out.join("tmp"),
    };
    println!(
        "# workload={name} seed={seed} seconds={seconds} trace={} {}",
        u8::from(trace),
        Json::obj(environment(nproc, args.quick)).render()
    );
    let report = journey::run(&params)?;

    // The traced run prints the per-layer metrics, the plain run the
    // end-to-end ones: end-to-end numbers never come from a traced run.
    let printed = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let expected = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for (metric, unit, _) in expected {
        let value = printed
            .get(metric)
            .ok_or(format!("{metric} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("{metric} is not a number"));
        }
        println!("{metric} {value} {unit}");
    }
    for check in &report.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict} {}", check.name, check.detail);
    }
    let correct = report.checks.iter().all(|c| c.ok);

    let mut record = vec![
        ("workload", Json::str(name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
    ];
    record.extend(environment(nproc, args.quick));
    record.extend([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("end_to_end", metrics_json(&report.end_to_end)),
        ("per_layer", metrics_json(&report.per_layer)),
        (
            "checks",
            Json::Arr(
                report
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("samples", report.detail),
    ]);
    let write = |file: String, content: String| {
        let path = out.join(file);
        std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        format!("{name}.result{}.json", u8::from(trace)),
        Json::obj(record).render() + "\n",
    )?;
    if trace {
        write(
            format!("{name}.trace.json"),
            spans::to_json(&report.spans).render() + "\n",
        )?;
    }

    let last_line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(printed)),
    ]);
    println!("{}", last_line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    // Environment hygiene, before any thread exists: no PROBKB_* knob
    // reaches the program (each is read once per process and would
    // silently change what is measured), and temp files stay inside
    // the checkout.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PROBKB_") {
            std::env::remove_var(key);
        }
    }
    let outcome = parse_args().and_then(|args| {
        let home = PathBuf::from(args.flag("home")?);
        let tmp = home.join("out").join("tmp");
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::env::set_var(
            "TMPDIR",
            std::fs::canonicalize(&tmp).map_err(|e| e.to_string())?,
        );
        match args.command.as_deref() {
            None => run(&args, &home),
            Some("check-manifest") => check_manifest(&home).map(|()| true),
            Some("spread") => spread::run(&home, &args.positional),
            Some(other) => Err(format!("unknown command {other:?}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("probkb-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
