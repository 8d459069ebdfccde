//! The metrics the benchmark reports, and the report that collects them.
//!
//! Every workload reports every metric of its mode: the end-to-end set
//! untraced, the per-layer set traced. `BENCHMARK.json` lists the same
//! names and units; a test keeps the two in step.

use std::collections::BTreeMap;

use cirfix_telemetry::JsonValue;

use crate::stats::Summary;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees, reported untraced.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("wall_s", "s", "lower"),
    def("sims_per_s", "1/s", "higher"),
    def("ttp_p50_s", "s", "lower"),
    def("plausible", "count", "higher"),
    def("correct", "count", "higher"),
    def("peak_rss_mb", "MB", "lower"),
    def("cold_job_p50_s", "s", "lower"),
    def("warm_job_p50_s", "s", "lower"),
    def("jobs_per_s", "1/s", "higher"),
];

/// Single layers, reported by the traced run.
pub const PER_LAYER: &[Def] = &[
    def("parser.parse_us", "us", "lower"),
    def("parser.mb_per_s", "MB/s", "higher"),
    def("patch.apply_us", "us", "lower"),
    def("elab.elaborate_us", "us", "lower"),
    def("compile.lower_us", "us", "lower"),
    def("sim.run_us", "us", "lower"),
    def("sim.events", "count", "lower"),
    def("sim.events_per_s", "1/s", "higher"),
    def("fitness.score_us", "us", "lower"),
    def("faultloc.localize_us", "us", "lower"),
    def("verify.verify_s", "s", "lower"),
    def("repair.cache_hit_ratio", "ratio", "higher"),
    def("repair.minimize_evals", "count", "lower"),
    def("engine.worker_util", "ratio", "higher"),
    def("persist.fingerprint_us", "us", "lower"),
    def("store.open_s", "s", "lower"),
    def("store.lookup_us", "us", "lower"),
    def("store.hit_ratio", "ratio", "higher"),
    def("store.append_us", "us", "lower"),
    def("store.bytes_written", "bytes", "lower"),
    def("serve.ping_rtt_us", "us", "lower"),
    def("serve.submit_rtt_us", "us", "lower"),
    def("serve.first_heartbeat_s", "s", "lower"),
    def("serve.rejections", "count", "lower"),
    def("trace.overhead_s", "s", "lower"),
    def("replay.coverage", "ratio", "higher"),
];

/// One reported value and how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The reported figure (a median when there are samples).
    pub value: f64,
    /// Spread of the samples behind a median, if any.
    pub summary: Option<Summary>,
    /// Samples (or events) the figure is computed from.
    pub samples: usize,
}

/// The values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Records a figure computed from `samples` observations.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(
            name,
            Value {
                value,
                summary: None,
                samples,
            },
        );
    }

    /// Records the median of `xs`, keeping its quartiles and tail.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64]) {
        match Summary::of(xs) {
            Some(s) => {
                self.values.insert(
                    name,
                    Value {
                        value: s.median,
                        samples: s.n,
                        summary: Some(s),
                    },
                );
            }
            None => self.set(name, f64::NAN, 0),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Names in `defs` that have no finite value.
    pub fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.get(d.name).is_some_and(|v| v.value.is_finite()))
            .map(|d| d.name)
            .collect()
    }

    /// One human-readable line per metric: value, unit, sample count,
    /// quartiles and the reportable tail percentile.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let Some(v) = self.get(d.name) else {
                out.push_str(&format!("{:<26} (missing)\n", d.name));
                continue;
            };
            out.push_str(&format!(
                "{:<26} {:>14.6} {:<6} n={:<6}",
                d.name, v.value, d.unit, v.samples
            ));
            if let Some(s) = &v.summary {
                out.push_str(&format!(" q1={:.6} q3={:.6}", s.q1, s.q3));
                if let Some((p, x)) = s.tail {
                    out.push_str(&format!(" p{p}={x:.6}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// The `metrics` object of the result line, for `defs` in order.
    pub fn json(&self, defs: &[Def]) -> JsonValue {
        JsonValue::Object(
            defs.iter()
                .map(|d| {
                    let value = self.get(d.name).map_or(f64::NAN, |v| v.value);
                    (
                        d.name.to_string(),
                        JsonValue::obj(vec![
                            ("value", JsonValue::Float(value)),
                            ("unit", JsonValue::Str(d.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly these metrics, units and
    /// directions.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = cirfix_store::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(JsonValue::Array(items)) = cirfix_store::field(&json, key) else {
                panic!("{key} is a list");
            };
            let listed: Vec<(String, String, String)> = items
                .iter()
                .map(|m| {
                    let s = |k| {
                        cirfix_store::field_str(m, k)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn missing_flags_absent_and_non_finite_values() {
        let mut r = Report::default();
        r.set("setup_s", 1.0, 3);
        r.set_median("wall_s", &[]);
        let missing = r.missing(&END_TO_END[..3]);
        assert_eq!(missing, vec!["wall_s", "sims_per_s"]);
    }
}
