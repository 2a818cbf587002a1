//! The bench-regression gate: compare a fresh `BENCH_*.json` against
//! the committed baseline and fail on regressions of the **invariant
//! columns** — `bytes_copied_per_op` and every `*locks_per_op` — which
//! the data-path and lock-discipline work made deterministic promises
//! about. Throughput columns (`mib_s`) are advisory: CI machines are
//! noisy, copies and locks are not.
//!
//! Matching is structural: the two documents are walked in parallel;
//! objects pair by key, arrays of `{"clients": N, ...}` samples pair by
//! client count (so adding a sweep point never misaligns the
//! comparison), other arrays pair by index. A fresh value may be
//! *better* (lower) than baseline without limit; it may exceed baseline
//! by at most `rel_tolerance` relative plus `abs_slack` absolute.

use crate::json::Json;

/// Tolerances for invariant comparisons.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Allowed relative excess over baseline (0.10 = +10%).
    pub rel: f64,
    /// Allowed absolute excess (covers zero baselines: a column whose
    /// baseline is exactly 0 — e.g. serializing locks per op on the
    /// lock-free plane — must stay ≈ 0).
    pub abs: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            rel: 0.10,
            abs: 0.5,
        }
    }
}

/// One invariant-column regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Dotted path of the offending value.
    pub path: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
}

/// One advisory throughput observation (fresh vs baseline `mib_s`).
#[derive(Clone, Debug)]
pub struct Advisory {
    /// Dotted path of the value.
    pub path: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
}

/// Comparison report for one bench file.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Hard failures (invariant columns exceeded).
    pub violations: Vec<Violation>,
    /// Baseline paths holding a number with **no numeric counterpart**
    /// in the fresh run (dropped series, renamed key, missing sweep
    /// point, vanished headline). Hard failures too: a bench that
    /// stopped emitting a value is not a passing bench, whether or not
    /// that value is gated.
    pub missing: Vec<String>,
    /// Advisory throughput deltas.
    pub advisories: Vec<Advisory>,
    /// Invariant values compared (sanity: 0 means the walk found none).
    pub invariants_checked: usize,
}

/// Is `key` an invariant column the gate hard-fails on?
pub fn is_invariant_key(key: &str) -> bool {
    key == "bytes_copied_per_op" || key.ends_with("locks_per_op")
}

/// Is `key` an advisory column? Throughput, plus the PR 9 latency
/// percentiles (`*_p50_ms` / `*_p99_ms` / `*_p999_ms`): wall-clock
/// measures drift with the host, so they are reported, not gated.
pub fn is_advisory_key(key: &str) -> bool {
    key == "mib_s"
        || key.ends_with("_mib_s")
        || key.ends_with("_p50_ms")
        || key.ends_with("_p99_ms")
        || key.ends_with("_p999_ms")
}

/// Compare `fresh` against `baseline`, collecting violations and
/// advisories.
pub fn compare(baseline: &Json, fresh: &Json, tol: Tolerance) -> Report {
    let mut report = Report::default();
    walk(baseline, fresh, String::new(), tol, &mut report);
    report
}

/// Record every number under a baseline subtree the fresh run no
/// longer has — dropping a measurement must not pass the gate.
fn note_missing(baseline: &Json, path: &str, report: &mut Report) {
    match baseline {
        Json::Num(_) => report.missing.push(path.to_string()),
        Json::Obj(fields) => {
            for (key, val) in fields {
                note_missing(val, &format!("{path}.{key}"), report);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                note_missing(item, &format!("{path}[{i}]"), report);
            }
        }
        _ => {}
    }
}

fn walk(baseline: &Json, fresh: &Json, path: String, tol: Tolerance, report: &mut Report) {
    match (baseline, fresh) {
        (Json::Obj(b_fields), Json::Obj(_)) => {
            for (key, b_val) in b_fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                let Some(f_val) = fresh.get(key) else {
                    // The fresh run stopped emitting this value/series:
                    // every number underneath it is a hard failure, not
                    // a silent skip.
                    note_missing(b_val, &sub, report);
                    continue;
                };
                match (b_val.as_f64(), f_val.as_f64()) {
                    (Some(b), Some(f)) if is_invariant_key(key) => {
                        report.invariants_checked += 1;
                        if f > b * (1.0 + tol.rel) + tol.abs {
                            report.violations.push(Violation {
                                path: sub,
                                baseline: b,
                                fresh: f,
                            });
                        }
                    }
                    (Some(b), Some(f)) if is_advisory_key(key) => {
                        report.advisories.push(Advisory {
                            path: sub,
                            baseline: b,
                            fresh: f,
                        });
                    }
                    _ => walk(b_val, f_val, sub, tol, report),
                }
            }
        }
        (Json::Arr(b_items), Json::Arr(f_items)) => {
            for (i, b_item) in b_items.iter().enumerate() {
                // Pair sweep samples by client count when both sides
                // carry one; fall back to positional pairing.
                let f_item = match b_item.get("clients").and_then(Json::as_f64) {
                    Some(n) => f_items
                        .iter()
                        .find(|f| f.get("clients").and_then(Json::as_f64) == Some(n)),
                    None => f_items.get(i),
                };
                let label = match b_item.get("clients").and_then(Json::as_f64) {
                    Some(n) => format!("{path}[clients={n}]"),
                    None => format!("{path}[{i}]"),
                };
                let Some(f_item) = f_item else {
                    // A sweep point disappeared (e.g. the 64-client cell
                    // where the cliff shows): its numbers hard-fail.
                    note_missing(b_item, &label, report);
                    continue;
                };
                walk(b_item, f_item, label, tol, report);
            }
        }
        // A baseline number whose fresh counterpart is no longer a
        // number, or a baseline container whose fresh counterpart changed
        // type (object -> null/string/…): every number underneath lost
        // its measurement — hard failures, not silent skips.
        (Json::Num(_), _) if fresh.as_f64().is_none() => note_missing(baseline, &path, report),
        (Json::Obj(_) | Json::Arr(_), _) => note_missing(baseline, &path, report),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(copied: u64, locks: f64, mib: f64) -> Json {
        Json::parse(&format!(
            r#"{{"bench": "t", "write": {{"gather": [
                 {{"clients": 1, "mib_s": {mib}, "bytes_copied_per_op": {copied},
                   "serializing_locks_per_op": {locks}}},
                 {{"clients": 64, "mib_s": {mib}, "bytes_copied_per_op": {copied},
                   "serializing_locks_per_op": {locks}}}]}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let b = doc(1048576, 0.0, 1000.0);
        let r = compare(&b, &b, Tolerance::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.invariants_checked, 4);
        assert_eq!(r.advisories.len(), 2);
    }

    #[test]
    fn copies_regression_fails() {
        let b = doc(1048576, 0.0, 1000.0);
        let f = doc(2097152, 0.0, 1000.0); // the flatten regime: 2× copies
        let r = compare(&b, &f, Tolerance::default());
        assert_eq!(r.violations.len(), 2);
        assert!(r.violations[0].path.contains("bytes_copied_per_op"));
        assert_eq!(r.violations[0].baseline, 1048576.0);
        assert_eq!(r.violations[0].fresh, 2097152.0);
    }

    #[test]
    fn lock_regression_fails_even_from_zero_baseline() {
        let b = doc(1048576, 0.0, 1000.0);
        let f = doc(1048576, 21.0, 1000.0); // the serialized regime
        let r = compare(&b, &f, Tolerance::default());
        assert_eq!(r.violations.len(), 2);
        assert!(r.violations[0].path.ends_with("serializing_locks_per_op"));
    }

    #[test]
    fn throughput_drop_is_advisory_only() {
        let b = doc(1048576, 0.0, 1000.0);
        let f = doc(1048576, 0.0, 10.0); // 100× slower: noisy CI, not a failure
        let r = compare(&b, &f, Tolerance::default());
        assert!(r.violations.is_empty());
        assert!(r.advisories.iter().all(|a| a.fresh < a.baseline));
    }

    #[test]
    fn small_jitter_within_tolerance_passes() {
        let b = doc(1048576, 0.0, 1000.0);
        let f = doc(1048580, 0.0, 1000.0); // +4 bytes: metadata jitter
        let r = compare(&b, &f, Tolerance::default());
        assert!(r.violations.is_empty());
    }

    #[test]
    fn samples_pair_by_client_count_not_position() {
        let b = Json::parse(r#"{"s": [{"clients": 64, "bytes_copied_per_op": 100}]}"#).unwrap();
        let f = Json::parse(
            r#"{"s": [{"clients": 1, "bytes_copied_per_op": 900},
                      {"clients": 64, "bytes_copied_per_op": 100}]}"#,
        )
        .unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.invariants_checked, 1);
    }

    #[test]
    fn dropped_series_is_a_hard_failure() {
        // A fresh run that stopped emitting the mmap series (where the
        // regression would show) must not pass by omission.
        let b = Json::parse(
            r#"{"read": {"mmap": [{"clients": 1, "bytes_copied_per_op": 100}]},
                "other": {"bytes_copied_per_op": 5}}"#,
        )
        .unwrap();
        let f = Json::parse(r#"{"other": {"bytes_copied_per_op": 5}}"#).unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert!(r.violations.is_empty());
        assert_eq!(
            r.missing,
            vec![
                "read.mmap[0].clients".to_string(),
                "read.mmap[0].bytes_copied_per_op".to_string()
            ]
        );
    }

    #[test]
    fn dropped_sweep_point_is_a_hard_failure() {
        let b = Json::parse(
            r#"{"s": [{"clients": 1, "bytes_copied_per_op": 100},
                      {"clients": 64, "bytes_copied_per_op": 100}]}"#,
        )
        .unwrap();
        let f = Json::parse(r#"{"s": [{"clients": 1, "bytes_copied_per_op": 100}]}"#).unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert_eq!(
            r.missing,
            vec![
                "s[clients=64].clients".to_string(),
                "s[clients=64].bytes_copied_per_op".to_string()
            ]
        );
    }

    #[test]
    fn dropped_single_invariant_key_is_a_hard_failure() {
        let b = Json::parse(r#"{"a": {"bytes_copied_per_op": 7, "mib_s": 1.0}}"#).unwrap();
        let f = Json::parse(r#"{"a": {"mib_s": 1.0}}"#).unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert_eq!(r.missing, vec!["a.bytes_copied_per_op".to_string()]);
    }

    #[test]
    fn type_changed_subtree_is_a_hard_failure() {
        // A fresh emitter that nulls out (or restructures) a series must
        // not pass: every number under the baseline subtree counts as
        // missing.
        let b = Json::parse(
            r#"{"write": {"mmap": [{"clients": 1, "bytes_copied_per_op": 100}]},
                "other": {"bytes_copied_per_op": 5}}"#,
        )
        .unwrap();
        let f = Json::parse(r#"{"write": null, "other": {"bytes_copied_per_op": 5}}"#).unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert_eq!(
            r.missing,
            vec![
                "write.mmap[0].clients".to_string(),
                "write.mmap[0].bytes_copied_per_op".to_string()
            ]
        );
    }

    #[test]
    fn dropped_advisory_and_headline_values_are_hard_failures() {
        // Throughput, latency percentiles and headline ratios are not
        // gated on their value, but a fresh run that stops emitting
        // them has silently dropped a measurement.
        let b = Json::parse(
            r#"{"s": [{"clients": 1, "mib_s": 9.0, "read_p99_ms": 3.0,
                       "bytes_copied_per_op": 100}],
                "write_64_batched_over_per_op": 3.8,
                "storm": {"read_p99_ms": 4.0, "shed": 12}}"#,
        )
        .unwrap();
        let f = Json::parse(
            r#"{"s": [{"clients": 1, "bytes_copied_per_op": 100}],
                "storm": {"read_p99_ms": null}}"#,
        )
        .unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert!(r.violations.is_empty());
        assert_eq!(
            r.missing,
            vec![
                "s[clients=1].mib_s".to_string(),
                "s[clients=1].read_p99_ms".to_string(),
                "write_64_batched_over_per_op".to_string(),
                "storm.read_p99_ms".to_string(),
                "storm.shed".to_string(),
            ]
        );
    }

    #[test]
    fn non_numeric_invariant_value_is_a_hard_failure() {
        let b = Json::parse(r#"{"a": {"bytes_copied_per_op": 7}}"#).unwrap();
        let f = Json::parse(r#"{"a": {"bytes_copied_per_op": "oops"}}"#).unwrap();
        let r = compare(&b, &f, Tolerance::default());
        assert_eq!(r.missing, vec!["a.bytes_copied_per_op".to_string()]);
    }

    #[test]
    fn better_than_baseline_is_fine() {
        let b = doc(2097152, 21.0, 100.0);
        let f = doc(1048576, 0.0, 1000.0);
        let r = compare(&b, &f, Tolerance::default());
        assert!(r.violations.is_empty());
    }
}
