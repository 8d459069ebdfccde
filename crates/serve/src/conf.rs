//! The `repair.conf` format and the builders that turn a parsed config
//! into a [`RepairProblem`] / [`RepairConfig`].
//!
//! This module used to live in the CLI; the daemon moved it here so
//! `cirfix serve` can build jobs from the same config files (and the
//! same `--key value` override syntax) that `cirfix repair` takes —
//! submitting a conf to the daemon and running it in batch mode are,
//! by construction, the same computation.
//!
//! The format is simple `key = value` lines, mirroring the
//! configuration file of the paper's artifact (§A.4).

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cirfix::{
    oracle_from_golden, FaultInjector, FaultPlan, FitnessParams, RepairConfig, RepairProblem,
};
use cirfix_ast::SourceFile;
use cirfix_sim::{ProbeSpec, SimConfig};
use cirfix_telemetry::{JsonLinesSink, TelemetrySink, TimingFreeSink};

/// A parsed repair configuration file.
///
/// Recognized keys:
///
/// | key | meaning | default |
/// |---|---|---|
/// | `design` | path to the faulty design (required) | — |
/// | `golden` | path to a known-good design for the oracle (required) | — |
/// | `testbench` | path to the testbench (required) | — |
/// | `top` | testbench top module (required) | — |
/// | `design_modules` | comma-separated repairable modules (required) | — |
/// | `probe_signals` | comma-separated recorded signals (required) | — |
/// | `probe_start` | first sample time | `5` |
/// | `probe_period` | sampling period | `10` |
/// | `max_time` | simulation time bound | `100000` |
/// | `popn_size` | GP population size | `300` |
/// | `max_generations` | GP generations | `8` |
/// | `trials` | independent trials | `3` |
/// | `seed` | base random seed | `1` |
/// | `timeout_s` | wall clock per trial (seconds) | `120` |
/// | `max_evals` | fitness evaluations per trial | `6000` |
/// | `phi` | x/z penalty weight | `2.0` |
/// | `jobs` | evaluation worker threads; `0` = auto (`$CIRFIX_JOBS`, else all cores) | `0` |
/// | `batch_size` | candidates per parallel dispatch | `32` |
/// | `eval_timeout` | per-candidate wall-clock budget in seconds (fractions allowed); `0` = unbudgeted | `0` |
/// | `sim_step_limit` | cap on total simulator operations per candidate | simulator default |
/// | `chaos` | deterministic fault-injection spec, e.g. `panic@5,storefail@2,transient` | off |
/// | `mined_patterns` | patterns file from `cirfix mine`; enables learned templates + mutation prior | off |
/// | `output` | where to write the repaired design | `repaired.v` |
/// | `trace_out` | stream telemetry events as JSON lines to this path | off |
/// | `trace_timing` | `wall` records real durations; `off` scrubs them for byte-reproducible traces | `wall` |
/// | `metrics` | print an aggregate telemetry summary at the end | `false` |
/// | `store` | persistent store directory, cwd-relative (enables write-through cache, checkpoints, corpus) | off |
/// | `resume` | continue an interrupted session from its last checkpoint | `false` |
/// | `halt_after` | stop right after checkpointing generation N (deterministic kill stand-in) | off |
/// | `result_out` | where to write the canonical, timing-free result JSON | off |
/// | `static_filter` | lint-gate candidates before simulation | `false` |
/// | `lint_prior` | weight mutation targets by lint findings | `false` |
/// | `vcd` | waveform output of `cirfix simulate` | off |
/// | `verify_design`, `verify_testbench`, `verify_top` | held-out check of `cirfix verify` | — |
///
/// Any other key is an error ([`KNOWN_KEYS`]).
#[derive(Debug, Clone, Default)]
pub struct Config {
    values: HashMap<String, String>,
    base_dir: PathBuf,
}

/// A configuration error with context.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Every key the CLI, the daemon and the builders in this module read.
/// [`Config`] rejects any other key, so a misspelled key fails loudly
/// instead of silently running with the default.
pub const KNOWN_KEYS: &[&str] = &[
    "batch_size",
    "chaos",
    "design",
    "design_modules",
    "eval_timeout",
    "golden",
    "halt_after",
    "jobs",
    "lint_prior",
    "max_evals",
    "max_generations",
    "max_time",
    "metrics",
    "mined_patterns",
    "output",
    "phi",
    "popn_size",
    "probe_period",
    "probe_signals",
    "probe_start",
    "result_out",
    "resume",
    "seed",
    "sim_step_limit",
    "static_filter",
    "store",
    "testbench",
    "timeout_s",
    "top",
    "trace_out",
    "trace_timing",
    "trials",
    "vcd",
    "verify_design",
    "verify_testbench",
    "verify_top",
];

/// Checks `key` against [`KNOWN_KEYS`], suggesting the nearest known
/// key for a likely misspelling.
fn check_key(key: &str) -> Result<(), ConfigError> {
    if KNOWN_KEYS.contains(&key) {
        return Ok(());
    }
    let nearest = KNOWN_KEYS
        .iter()
        .map(|k| (edit_distance(key, k), *k))
        .min()
        .filter(|&(d, _)| d <= 3);
    Err(ConfigError(match nearest {
        Some((_, k)) => format!("unknown key `{key}` (did you mean `{k}`?)"),
        None => format!("unknown key `{key}`"),
    }))
}

/// Levenshtein distance between two strings, by characters.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

impl Config {
    /// Parses `text`, resolving relative paths against `base_dir`.
    ///
    /// # Errors
    ///
    /// Returns an error for lines that are not comments, blanks, or
    /// `key = value` pairs, and for keys not in [`KNOWN_KEYS`].
    pub fn parse(text: &str, base_dir: &Path) -> Result<Config, ConfigError> {
        let mut values = HashMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected `key = value`, got `{line}`",
                    lineno + 1
                )));
            };
            let key = key.trim();
            check_key(key).map_err(|e| ConfigError(format!("line {}: {}", lineno + 1, e.0)))?;
            values.insert(key.to_string(), value.trim().to_string());
        }
        Ok(Config {
            values,
            base_dir: base_dir.to_path_buf(),
        })
    }

    /// Loads and parses a configuration file.
    ///
    /// # Errors
    ///
    /// I/O and syntax errors.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        Config::parse(&text, base)
    }

    /// Overrides a key (used for `--key value` command-line overrides).
    ///
    /// # Errors
    ///
    /// Keys not in [`KNOWN_KEYS`].
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        check_key(key)?;
        self.values.insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Removes a key, exposing the default again.
    pub fn unset(&mut self, key: &str) {
        self.values.remove(key);
    }

    /// A required string value.
    ///
    /// # Errors
    ///
    /// Missing key.
    pub fn required(&self, key: &str) -> Result<&str, ConfigError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ConfigError(format!("missing required key `{key}`")))
    }

    /// An optional string with a default.
    pub fn string_or(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A numeric value with a default.
    ///
    /// # Errors
    ///
    /// Unparseable numbers.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ConfigError> {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| ConfigError(format!("key `{key}`: bad number `{v}`"))),
            None => Ok(default),
        }
    }

    /// A boolean flag: `true`/`1`/`yes` count as set.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.string_or(key, "false").as_str(), "true" | "1" | "yes")
    }

    /// A required path, resolved against the config file's directory.
    ///
    /// # Errors
    ///
    /// Missing key.
    pub fn path(&self, key: &str) -> Result<PathBuf, ConfigError> {
        let raw = self.required(key)?;
        let p = Path::new(raw);
        Ok(if p.is_absolute() {
            p.to_path_buf()
        } else {
            self.base_dir.join(p)
        })
    }

    /// A comma-separated list.
    ///
    /// # Errors
    ///
    /// Missing key.
    pub fn list(&self, key: &str) -> Result<Vec<String>, ConfigError> {
        Ok(self
            .required(key)?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect())
    }
}

/// Config keys that are valueless switches in `--key` override syntax;
/// everything else is a `--key value` pair.
pub const BOOL_FLAGS: &[&str] = &["metrics", "static_filter", "lint_prior", "resume"];

/// Applies `--key value` (and bare `--flag` for [`BOOL_FLAGS`])
/// overrides to `config`. `cirfix repair` and `cirfix submit` share
/// this, so a submitted job accepts exactly the batch CLI's syntax.
///
/// # Errors
///
/// Malformed switches, missing values, and unknown keys.
pub fn apply_overrides(config: &mut Config, overrides: &[String]) -> Result<(), ConfigError> {
    let mut i = 0;
    while i < overrides.len() {
        let key = overrides[i]
            .strip_prefix("--")
            .ok_or_else(|| ConfigError(format!("expected --key, got `{}`", overrides[i])))?;
        // `--trace-out` and `trace_out` name the same config key.
        let key = key.replace('-', "_");
        if BOOL_FLAGS.contains(&key.as_str()) {
            config.set(&key, "true")?;
            i += 1;
            continue;
        }
        let value = overrides
            .get(i + 1)
            .ok_or_else(|| ConfigError(format!("--{key} needs a value")))?;
        config.set(&key, value)?;
        i += 2;
    }
    Ok(())
}

/// Parses the `design` and `testbench` sources named by `config`.
///
/// # Errors
///
/// I/O and parse errors.
pub fn load_sources(config: &Config) -> Result<(SourceFile, SourceFile), ConfigError> {
    let read = |key: &str| -> Result<String, ConfigError> {
        let path = config.path(key)?;
        std::fs::read_to_string(&path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))
    };
    let design = cirfix_parser::parse(&read("design")?).map_err(|e| ConfigError(e.to_string()))?;
    let testbench =
        cirfix_parser::parse(&read("testbench")?).map_err(|e| ConfigError(e.to_string()))?;
    Ok((design, testbench))
}

/// Builds the full [`RepairProblem`] — parsed sources, probe spec, and
/// the oracle simulated from the golden design — from a config.
///
/// # Errors
///
/// Missing keys, unreadable or unparseable sources, oracle failures.
pub fn build_problem(config: &Config) -> Result<RepairProblem, ConfigError> {
    let (design, testbench) = load_sources(config)?;
    let top = config.required("top")?.to_string();
    let design_modules = config.list("design_modules")?;
    let probe = ProbeSpec::periodic(
        config.list("probe_signals")?,
        config.num_or("probe_start", 5u64)?,
        config.num_or("probe_period", 10u64)?,
    );
    let mut sim = SimConfig {
        max_time: config.num_or("max_time", 100_000u64)?,
        ..SimConfig::default()
    };
    if config.required("sim_step_limit").is_ok() {
        sim.max_total_ops = config.num_or("sim_step_limit", sim.max_total_ops)?;
    }

    let golden_path = config.path("golden")?;
    let golden_text = std::fs::read_to_string(&golden_path)
        .map_err(|e| ConfigError(format!("cannot read {}: {e}", golden_path.display())))?;
    let mut golden = cirfix_parser::parse(&golden_text).map_err(|e| ConfigError(e.to_string()))?;
    golden.extend_from(testbench.clone());
    let oracle =
        oracle_from_golden(&golden, &top, &probe, &sim).map_err(|e| ConfigError(e.to_string()))?;

    let mut source = design;
    source.extend_from(testbench);
    Ok(RepairProblem {
        source,
        top,
        design_modules,
        probe,
        oracle,
        sim,
    })
}

/// The trace sink `trace_out` asks for, if any: a JSON-lines file,
/// wrapped in [`TimingFreeSink`] under `trace_timing = off` so the
/// trace bytes depend only on the deterministic search, not on the
/// clock or `--jobs`.
///
/// # Errors
///
/// An unopenable `trace_out` path or a `trace_timing` other than
/// `wall`/`off`.
pub fn trace_sink(config: &Config) -> Result<Option<Box<dyn TelemetrySink>>, ConfigError> {
    let Ok(path) = config.required("trace_out") else {
        return Ok(None);
    };
    let sink = JsonLinesSink::create(Path::new(path))
        .map_err(|e| ConfigError(format!("cannot open {path}: {e}")))?;
    match config.string_or("trace_timing", "wall").as_str() {
        "wall" => Ok(Some(Box::new(sink))),
        "off" => Ok(Some(Box::new(TimingFreeSink::new(sink)))),
        other => Err(ConfigError(format!(
            "trace_timing must be `wall` or `off`, got `{other}`"
        ))),
    }
}

/// Builds the search parameters from a config (everything except the
/// observer and control, which depend on the execution mode).
///
/// # Errors
///
/// Unparseable numeric values or chaos specs.
pub fn repair_config(config: &Config) -> Result<RepairConfig, ConfigError> {
    let mut rc = RepairConfig::fast(config.num_or("seed", 1u64)?);
    rc.popn_size = config.num_or("popn_size", rc.popn_size)?;
    rc.max_generations = config.num_or("max_generations", rc.max_generations)?;
    rc.max_fitness_evals = config.num_or("max_evals", rc.max_fitness_evals)?;
    rc.timeout = Duration::from_secs(config.num_or("timeout_s", 120u64)?);
    rc.fitness = FitnessParams {
        phi: config.num_or("phi", 2.0f64)?,
    };
    rc.static_filter = config.flag("static_filter");
    rc.lint_prior = config.flag("lint_prior");
    // `0` = auto: the `CIRFIX_JOBS` environment variable when set,
    // otherwise every available core.
    rc.jobs = config.num_or("jobs", 0usize)?;
    rc.batch_size = config.num_or("batch_size", rc.batch_size)?;
    if config.required("halt_after").is_ok() {
        rc.halt_after = Some(config.num_or("halt_after", 0u32)?);
    }
    // Per-candidate wall-clock budget; 0 (the default) = unbudgeted.
    let eval_timeout = config.num_or("eval_timeout", 0.0f64)?;
    if eval_timeout > 0.0 {
        rc.eval_timeout = Some(Duration::from_secs_f64(eval_timeout));
    }
    if let Ok(spec) = config.required("chaos") {
        let plan = FaultPlan::parse(spec).map_err(ConfigError)?;
        if !plan.is_empty() {
            rc.faults = Some(FaultInjector::new(plan));
        }
    }
    if config.required("mined_patterns").is_ok() {
        let path = config.path("mined_patterns")?;
        rc.mined_patterns = cirfix::load_mined_patterns(&path)
            .map_err(|e| ConfigError(format!("cannot load {}: {e}", path.display())))?;
    }
    Ok(rc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_lines() {
        let c = Config::parse(
            "# comment\n\ntop = tb\npopn_size = 40\nprobe_signals = q, ovf\n",
            Path::new("/base"),
        )
        .unwrap();
        assert_eq!(c.required("top").unwrap(), "tb");
        assert_eq!(c.num_or("popn_size", 0usize).unwrap(), 40);
        assert_eq!(c.list("probe_signals").unwrap(), vec!["q", "ovf"]);
        assert_eq!(c.string_or("output", "repaired.v"), "repaired.v");
    }

    #[test]
    fn resolves_relative_paths() {
        let c = Config::parse("design = d.v\n", Path::new("/cfg/dir")).unwrap();
        assert_eq!(c.path("design").unwrap(), PathBuf::from("/cfg/dir/d.v"));
        let c = Config::parse("design = /abs/d.v\n", Path::new("/cfg/dir")).unwrap();
        assert_eq!(c.path("design").unwrap(), PathBuf::from("/abs/d.v"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("nonsense line", Path::new(".")).is_err());
    }

    #[test]
    fn reports_missing_and_bad_values() {
        let c = Config::parse("popn_size = lots\n", Path::new(".")).unwrap();
        assert!(c.required("top").is_err());
        assert!(c.num_or("popn_size", 1usize).is_err());
    }

    #[test]
    fn overrides_apply() {
        let mut c = Config::parse("top = a\n", Path::new(".")).unwrap();
        c.set("top", "b").unwrap();
        assert_eq!(c.required("top").unwrap(), "b");
        c.unset("top");
        assert!(c.required("top").is_err());
    }

    #[test]
    fn cli_override_syntax() {
        let mut c = Config::parse("seed = 1\n", Path::new(".")).unwrap();
        let args: Vec<String> = ["--seed", "7", "--resume", "--trace-out", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        apply_overrides(&mut c, &args).unwrap();
        assert_eq!(c.required("seed").unwrap(), "7");
        assert!(c.flag("resume"));
        assert_eq!(c.required("trace_out").unwrap(), "t.jsonl");
        let bad: Vec<String> = vec!["seed".into()];
        assert!(apply_overrides(&mut c, &bad).is_err());
        let dangling: Vec<String> = vec!["--seed".into()];
        assert!(apply_overrides(&mut c, &dangling).is_err());
    }

    #[test]
    fn unknown_keys_fail_with_a_suggestion() {
        let e = Config::parse("top = tb\npopn_sise = 4\n", Path::new(".")).unwrap_err();
        assert_eq!(
            e.0,
            "line 2: unknown key `popn_sise` (did you mean `popn_size`?)"
        );
        let mut c = Config::default();
        let e = c.set("max_eval", "10").unwrap_err();
        assert!(e.0.contains("did you mean `max_evals`?"), "{e}");
        let e = c.set("frobnicate_everything", "1").unwrap_err();
        assert_eq!(e.0, "unknown key `frobnicate_everything`");
        let args: Vec<String> = vec!["--popn-sise".into(), "4".into()];
        assert!(apply_overrides(&mut c, &args).is_err());
        assert!(
            c.required("popn_sise").is_err(),
            "a rejected key is not stored"
        );
    }

    #[test]
    fn every_key_the_benchmark_writes_is_known() {
        for key in [
            "design",
            "golden",
            "testbench",
            "top",
            "design_modules",
            "probe_signals",
            "probe_start",
            "probe_period",
            "max_time",
            "sim_step_limit",
            "popn_size",
            "max_generations",
            "max_evals",
            "timeout_s",
            "trials",
            "jobs",
            "seed",
        ] {
            assert!(check_key(key).is_ok(), "{key}");
        }
    }
}
