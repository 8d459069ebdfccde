//! The evaluation counter table.
//!
//! Every counter a repair run reports beside its fitness-evaluation
//! count is declared once: a [`Counter`] variant and one row of
//! [`COUNTERS`] giving its JSON key and its CLI label. A [`Counters`]
//! value holds the whole set. The evaluator, checkpoints, resume, run
//! totals, session reports and the CLI carry it whole and iterate the
//! table, so adding a counter is one variant plus one row.
//!
//! Fitness evaluations stay outside the table: they are the budget's
//! unit and every caller reads them by name. Durations stay outside
//! too; they are not counts and are dropped from timing-free output.

use std::ops::{AddAssign, Index, IndexMut};

use cirfix_telemetry::{field_u64, JsonValue};

/// One evaluation counter; indexes a [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Answers from the trial cache, including in-flight duplicates.
    CacheHits,
    /// Answers from the shared cache (a persistent store or the
    /// cross-trial memory cache).
    StoreHits,
    /// Evaluations written through to the shared cache's store.
    StoreWrites,
    /// Fitness probes spent minimizing the winning patch.
    MinimizeEvals,
    /// Candidates rejected by the static lint gate before simulation.
    RejectedStatic,
    /// Fresh simulations whose per-candidate budget expired.
    Timeouts,
    /// Fresh simulations whose worker panicked and was contained.
    Panics,
    /// Fresh simulations stopped by a hard resource cap.
    Exhausted,
    /// Template draws that landed on a mined-pattern-endorsed instance.
    PatternHits,
    /// Patch applications (cache hits do none).
    PatchApplies,
    /// Corpus appends skipped because the same (scenario, patch) pair
    /// was already recorded.
    CorpusSkipped,
}

/// One row of the counter table.
#[derive(Debug)]
pub struct CounterSpec {
    /// The counter this row describes.
    pub counter: Counter,
    /// Its key in checkpoints, session totals and report JSON.
    pub key: &'static str,
    /// Its row label in the CLI's run totals and in session reports.
    pub label: &'static str,
}

const fn row(counter: Counter, key: &'static str, label: &'static str) -> CounterSpec {
    CounterSpec {
        counter,
        key,
        label,
    }
}

/// Every counter, in [`Counter`] order — which is also the key order of
/// checkpoint records.
pub const COUNTERS: &[CounterSpec] = &[
    row(Counter::CacheHits, "cache_hits", "cache hits"),
    row(Counter::StoreHits, "store_hits", "store hits"),
    row(Counter::StoreWrites, "store_writes", "store writes"),
    row(Counter::MinimizeEvals, "minimize_evals", "minimize evals"),
    row(Counter::RejectedStatic, "rejected_static", "static rejects"),
    row(Counter::Timeouts, "timeouts", "timeouts"),
    row(Counter::Panics, "panics", "panics"),
    row(Counter::Exhausted, "exhausted", "exhausted"),
    row(Counter::PatternHits, "pattern_hits", "pattern hits"),
    row(Counter::PatchApplies, "patch_applies", "patch applies"),
    row(Counter::CorpusSkipped, "corpus_skipped", "corpus skips"),
];

// `Counters` indexes its array by discriminant: row `i` must describe
// variant `i`.
const _: () = {
    let mut i = 0;
    while i < COUNTERS.len() {
        assert!(COUNTERS[i].counter as usize == i, "COUNTERS out of order");
        i += 1;
    }
};

/// A value for every [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Every counter with its table row, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static CounterSpec, u64)> + '_ {
        COUNTERS.iter().map(|spec| (spec, self[spec.counter]))
    }

    /// The counters as `(key, value)` object pairs, in table order.
    pub(crate) fn json_pairs(&self) -> impl Iterator<Item = (&'static str, JsonValue)> + '_ {
        self.iter().map(|(spec, n)| (spec.key, JsonValue::Uint(n)))
    }

    /// Reads every counter from the JSON object `v`. An absent key reads
    /// as zero (the record predates that counter), unless its counter
    /// is in `required`: then the record is rejected.
    pub(crate) fn from_json(v: &JsonValue, required: &[Counter]) -> Result<Counters, String> {
        let mut out = Counters::default();
        for spec in COUNTERS {
            match field_u64(v, spec.key) {
                Some(n) => out[spec.counter] = n,
                None if required.contains(&spec.counter) => {
                    return Err(format!("missing field {:?}", spec.key))
                }
                None => {}
            }
        }
        Ok(out)
    }
}

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for Counters {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_labels_are_unique() {
        for (i, a) in COUNTERS.iter().enumerate() {
            for b in &COUNTERS[i + 1..] {
                assert_ne!(a.key, b.key);
                assert_ne!(a.label, b.label);
            }
        }
    }

    #[test]
    fn absent_keys_read_as_zero_unless_required() {
        let v = JsonValue::obj(vec![("cache_hits", JsonValue::Uint(3))]);
        let c = Counters::from_json(&v, &[Counter::CacheHits]).expect("present");
        assert_eq!(c[Counter::CacheHits], 3);
        assert_eq!(c[Counter::Panics], 0);
        let err = Counters::from_json(&v, &[Counter::StoreHits]).unwrap_err();
        assert!(err.contains("store_hits"), "{err}");
    }
}
