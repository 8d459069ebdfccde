//! The repository benchmark: Table 3 on the large and the small designs,
//! and the repair daemon with its store, cold and warm.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3-large|table3-small|serve-store|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced
//! runs (`--trace 1`) add spans, replay a seeded candidate sample layer
//! by layer and report the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md`.

mod expected;
mod harness;
mod metrics;
mod replay;
mod serve;
mod stats;
mod sys;
mod table3;
mod trace;

use std::path::Path;

use cirfix_telemetry::JsonValue;

use harness::{Opts, Scale, Tally};
use metrics::{Def, Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["table3-large", "table3-small", "serve-store"];

/// Where runs leave stores, fixtures, traces and records, relative to
/// the checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// One workload's report, failures and spans.
pub struct Outcome {
    /// Metric values.
    pub report: Report,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// The spans of the run.
    pub tracer: Tracer,
}

/// Runs one workload in this process.
pub fn run_workload(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    sys::reset_peak_rss();
    let tracer = Tracer::new(opts.traced);
    let mut report = Report::default();
    let mut tally = Tally::default();
    match workload {
        "table3-large" | "table3-small" => {
            let run = table3::run(workload == "table3-large", opts, &tracer, &mut tally)?;
            if opts.traced {
                let replayed = replay::replay(&run.prepared, opts, &tracer, &mut tally);
                replay::layers(&tracer, &replayed, &mut report);
                let busy = |id: &str| replay::Replayed::busy_s(&tracer, id);
                table3::search_layers(&run, &tracer, &busy, &mut report);
                replay::store_layers(&tracer, &replayed, &mut report);
                let first = run.prepared[0].scenario;
                serve::probe(first, opts, &tracer, &mut tally, &mut report);
            } else {
                table3::end_to_end(&run, &mut report);
            }
            table3::log(&run);
        }
        "serve-store" => {
            let run = serve::run(opts, &tracer, &mut tally)?;
            if opts.traced {
                let replayed = replay::replay(&run.prepared, opts, &tracer, &mut tally);
                replay::layers(&tracer, &replayed, &mut report);
                serve::layers(&run, &tracer, &mut report);
                let busy = |id: &str| replay::Replayed::busy_s(&tracer, id);
                serve::coverage(&run, &busy, &mut report);
            } else {
                serve::end_to_end(&run, &mut report);
            }
            serve::log(&run);
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(Outcome {
        report,
        tally,
        tracer,
    })
}

/// The metric set a mode reports.
pub fn defs(traced: bool) -> &'static [Def] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Self time per span name, as printable lines.
fn self_time_table(tracer: &Tracer) -> String {
    let mut out = String::from("self time by span (count, total s, self s):\n");
    for (name, t) in trace::self_times(&tracer.spans()) {
        out.push_str(&format!(
            "  {name:<24} {:>7} {:>12.6} {:>12.6}\n",
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        ));
    }
    out
}

/// Appends one record per workload run to `records.jsonl`.
fn append_record(dir: &Path, workload: &str, args: &Args, outcome: &Outcome) {
    let metrics = defs(args.traced)
        .iter()
        .filter_map(|d| {
            let v = outcome.report.get(d.name)?;
            let mut fields = vec![
                ("value", JsonValue::Float(v.value)),
                ("unit", JsonValue::Str(d.unit.into())),
                ("n", JsonValue::Uint(v.samples as u64)),
            ];
            if let Some(s) = &v.summary {
                fields.push(("q1", JsonValue::Float(s.q1)));
                fields.push(("q3", JsonValue::Float(s.q3)));
            }
            Some((d.name.to_string(), JsonValue::obj(fields)))
        })
        .collect();
    let record = JsonValue::obj(vec![
        ("workload", JsonValue::Str(workload.into())),
        ("seed", JsonValue::Uint(args.seed)),
        ("trace", JsonValue::Bool(args.traced)),
        ("rev", JsonValue::Str(sys::git_rev())),
        ("nproc", JsonValue::Uint(sys::nproc() as u64)),
        ("jobs", JsonValue::Uint(sys::nproc() as u64)),
        ("daemon_shape", {
            let (active, per_job) = serve::daemon_shape();
            JsonValue::Array(vec![
                JsonValue::Uint(active as u64),
                JsonValue::Uint(per_job as u64),
            ])
        }),
        ("seconds", JsonValue::Float(args.seconds)),
        ("attempted", JsonValue::Uint(outcome.tally.attempted)),
        (
            "failed",
            JsonValue::Uint(outcome.tally.failures.len() as u64),
        ),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    let line = record.to_json() + "\n";
    let path = dir.join("records.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: cannot append {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    let out = root.join(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for workload in &workloads {
        let work = out.join(format!("{workload}-{}", std::process::id()));
        let opts = Opts {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            scale: Scale::TABLE3,
            out_dir: work.clone(),
        };
        println!(
            "# perfbench workload={workload} seed={} trace={} rev={} nproc={} jobs={} seconds={}",
            args.seed,
            u8::from(args.traced),
            sys::git_rev(),
            sys::nproc(),
            sys::nproc(),
            args.seconds,
        );
        let outcome = run_workload(workload, &opts);
        let _ = std::fs::remove_dir_all(&work);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        };
        let defs = defs(args.traced);
        print!("{}", outcome.report.table(defs));
        let missing = outcome.report.missing(defs);
        if !missing.is_empty() {
            eprintln!("perfbench: {workload}: no value for {}", missing.join(", "));
            std::process::exit(1);
        }
        if args.traced {
            print!("{}", self_time_table(&outcome.tracer));
            let path = out.join(format!("trace-{workload}-seed{}.jsonl", args.seed));
            if let Err(e) = outcome.tracer.write_jsonl(&path) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        append_record(&out, workload, &args, &outcome);
        attempted += outcome.tally.attempted;
        failed += outcome.tally.failures.len() as u64;
        let JsonValue::Object(pairs) = outcome.report.json(defs) else {
            unreachable!("metrics serialize as an object")
        };
        for (name, value) in pairs {
            let name = match workloads.len() {
                1 => name,
                _ => format!("{workload}.{name}"),
            };
            metrics.push((name, value));
        }
    }
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::Uint(attempted)),
        ("failed", JsonValue::Uint(failed)),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", result.to_json());
}

/// A scratch directory for tests, inside the benchmark's own ignored
/// output directory.
#[cfg(test)]
fn test_out_dir(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve-store --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload all --trace 2").is_err());
        assert!(args("--workload all --bogus 1").is_err());
    }

    /// A tiny-scale run of every workload, untraced and traced, emits
    /// every named metric with a finite value and its unit, and fails
    /// no operation.
    #[test]
    fn tiny_smoke_run_emits_every_metric() {
        // The daemon's socket path is relative to the working directory.
        let cwd = test_out_dir("cwd");
        std::fs::create_dir_all(cwd.join(OUT_DIR)).unwrap();
        std::env::set_current_dir(&cwd).unwrap();
        for traced in [false, true] {
            for workload in WORKLOADS {
                let opts = Opts {
                    seed: 3,
                    seconds: 0.0,
                    traced,
                    scale: Scale::TINY,
                    out_dir: cwd.join(OUT_DIR).join(workload),
                };
                let outcome =
                    run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(
                    outcome.tally.failures.is_empty(),
                    "{workload}: {:?}",
                    outcome.tally.failures
                );
                assert!(outcome.tally.attempted > 0);
                let defs = defs(traced);
                assert_eq!(
                    outcome.report.missing(defs),
                    Vec::<&str>::new(),
                    "{workload}"
                );
                let JsonValue::Object(pairs) = outcome.report.json(defs) else {
                    panic!("metrics object")
                };
                assert_eq!(pairs.len(), defs.len());
                for ((name, v), d) in pairs.iter().zip(defs) {
                    assert_eq!(name, d.name);
                    let unit = cirfix_store::field_str(v, "unit");
                    assert_eq!(unit, Some(d.unit), "{workload} {name}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&cwd);
    }
}
