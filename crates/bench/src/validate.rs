//! `hsc report validate`: checks a machine-readable run report against
//! the `hsc-run-report` schema — JSON well-formedness, envelope field
//! presence, the one schema version this tree writes, and per-run
//! structure (an outcome `run_record` can write, counters, latency
//! summaries, at least two sampled time series somewhere in the report,
//! and — where a run carries them — well-formed transition-matrix,
//! sharing, and flight-recorder sections).
//! Every violation is accumulated and reported, never just the first. CI
//! runs this on every report artifact it archives.

use std::io::{self, Write};
use std::process::ExitCode;

use hsc_obs::json::{parse, Value};
use hsc_obs::{REPORT_SCHEMA, REPORT_SCHEMA_VERSION};

use crate::cli::usage_error;
use crate::reporting::RUN_OUTCOMES;

/// The sharing-classification keys, in emission order.
const SHARING_CLASSES: [&str; 4] = ["private", "read_shared", "migratory", "ping_pong"];

fn check(errors: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        errors.push(what.to_owned());
    }
}

/// Validates one `transitions` object: per-protocol state/cause
/// vocabularies plus non-zero cells with in-range indices summing to
/// `total`.
fn validate_transitions(errors: &mut Vec<String>, i: usize, transitions: &Value) {
    let Some(protocols) = transitions.as_object() else {
        check(errors, false, &format!("runs[{i}].transitions must be an object"));
        return;
    };
    check(errors, !protocols.is_empty(), &format!("runs[{i}].transitions must not be empty"));
    for (proto, m) in protocols {
        let at = format!("runs[{i}].transitions.{proto}");
        let mut vocab = |field: &str| -> usize {
            let ok = m
                .get(field)
                .and_then(Value::as_array)
                .is_some_and(|xs| !xs.is_empty() && xs.iter().all(|x| x.as_str().is_some()));
            check(errors, ok, &format!("{at}.{field} must be a non-empty string array"));
            m.get(field).and_then(Value::as_array).map_or(0, <[Value]>::len)
        };
        let n_states = vocab("states");
        let n_causes = vocab("causes");
        let total = m.get("total").and_then(Value::as_f64);
        check(errors, total.is_some(), &format!("{at}.total must be a number"));
        let Some(cells) = m.get("cells").and_then(Value::as_array) else {
            check(errors, false, &format!("{at}.cells must be an array"));
            continue;
        };
        let mut sum = 0.0;
        let mut well_formed = true;
        for cell in cells {
            let quad = cell
                .as_array()
                .filter(|q| q.len() == 4)
                .map(|q| [0, 1, 2, 3].map(|k| q[k].as_f64().unwrap_or(-1.0)));
            match quad {
                Some([from, to, cause, count])
                    if from >= 0.0
                        && (from as usize) < n_states
                        && to >= 0.0
                        && (to as usize) < n_states
                        && cause >= 0.0
                        && (cause as usize) < n_causes
                        && count > 0.0 =>
                {
                    sum += count;
                }
                _ => well_formed = false,
            }
        }
        check(
            errors,
            well_formed,
            &format!("{at}.cells must be [from, to, cause, count>0] quads with in-range indices"),
        );
        if let Some(t) = total {
            check(
                errors,
                well_formed && (sum - t).abs() < 0.5,
                &format!("{at}: cell counts must sum to 'total'"),
            );
        }
    }
}

/// Validates one `sharing` object: the two histograms, the four-class
/// breakdown, the tracker counters, and the offender list.
fn validate_sharing(errors: &mut Vec<String>, i: usize, sharing: &Value) {
    let at = format!("runs[{i}].sharing");
    for field in ["sharer_hist", "fanout_hist"] {
        let ok = sharing
            .get(field)
            .and_then(Value::as_array)
            .is_some_and(|xs| !xs.is_empty() && xs.iter().all(|x| x.as_f64().is_some()));
        check(errors, ok, &format!("{at}.{field} must be a non-empty number array"));
    }
    let classes = sharing.get("classes").and_then(Value::as_object);
    check(
        errors,
        classes.is_some_and(|c| {
            c.len() == SHARING_CLASSES.len()
                && SHARING_CLASSES
                    .iter()
                    .all(|k| c.iter().any(|(name, v)| name == k && v.as_f64().is_some()))
        }),
        &format!("{at}.classes must map exactly {SHARING_CLASSES:?} to numbers"),
    );
    for field in ["tracked_lines", "dropped_lines"] {
        check(
            errors,
            sharing.get(field).and_then(Value::as_f64).is_some(),
            &format!("{at}.{field} must be a number"),
        );
    }
    let offenders_ok = sharing.get("top_pingpong").and_then(Value::as_array).is_some_and(|os| {
        os.iter().all(|o| {
            ["line", "writer_flips", "writes"]
                .iter()
                .all(|f| o.get(f).and_then(Value::as_f64).is_some())
        })
    });
    check(
        errors,
        offenders_ok,
        &format!("{at}.top_pingpong must be an array of {{line, writer_flips, writes}} objects"),
    );
}

/// Validates one `flight_recorder` array of post-mortem delivery records.
fn validate_flight(errors: &mut Vec<String>, i: usize, flight: &Value) {
    let at = format!("runs[{i}].flight_recorder");
    let Some(entries) = flight.as_array() else {
        check(errors, false, &format!("{at} must be an array"));
        return;
    };
    check(errors, !entries.is_empty(), &format!("{at} must not be empty when present"));
    let well_formed = entries.iter().all(|e| {
        e.get("at").and_then(Value::as_f64).is_some()
            && e.get("agent").and_then(Value::as_str).is_some()
            && e.get("kind").and_then(Value::as_str).is_some()
            && e.get("line").and_then(Value::as_f64).is_some()
    });
    check(errors, well_formed, &format!("{at} entries must carry at/agent/kind/line"));
}

fn validate(doc: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    check(
        &mut errors,
        doc.get("schema").and_then(Value::as_str) == Some(REPORT_SCHEMA),
        "field 'schema' must be \"hsc-run-report\"",
    );
    check(
        &mut errors,
        doc.get("schema_version").and_then(Value::as_f64) == Some(REPORT_SCHEMA_VERSION as f64),
        &format!("field 'schema_version' must be {REPORT_SCHEMA_VERSION}"),
    );
    for field in ["command", "git"] {
        check(
            &mut errors,
            doc.get(field).and_then(Value::as_str).is_some_and(|s| !s.is_empty()),
            &format!("field '{field}' must be a non-empty string"),
        );
    }
    check(
        &mut errors,
        doc.get("config").and_then(|c| c.get("fingerprint")).and_then(Value::as_str).is_some(),
        "field 'config.fingerprint' must be present",
    );
    let runs = doc.get("runs").and_then(Value::as_array).unwrap_or(&[]);
    check(&mut errors, !runs.is_empty(), "field 'runs' must be a non-empty array");
    let mut total_series = 0usize;
    for (i, run) in runs.iter().enumerate() {
        for field in ["workload", "config"] {
            check(
                &mut errors,
                run.get(field).and_then(Value::as_str).is_some(),
                &format!("runs[{i}].{field} must be a string"),
            );
        }
        check(
            &mut errors,
            run.get("outcome").and_then(Value::as_str).is_some_and(|o| RUN_OUTCOMES.contains(&o)),
            &format!("runs[{i}].outcome must be one of {RUN_OUTCOMES:?}"),
        );
        for field in ["ticks", "gpu_cycles"] {
            check(
                &mut errors,
                run.get(field).and_then(Value::as_f64).is_some(),
                &format!("runs[{i}].{field} must be a number"),
            );
        }
        for field in ["counters", "latency", "time_series", "agents"] {
            check(
                &mut errors,
                run.get(field).and_then(Value::as_object).is_some(),
                &format!("runs[{i}].{field} must be an object"),
            );
        }
        if let Some(latency) = run.get("latency").and_then(Value::as_object) {
            for (class, summary) in latency {
                for field in ["count", "mean", "p50", "p95", "p99", "max"] {
                    check(
                        &mut errors,
                        summary.get(field).and_then(Value::as_f64).is_some(),
                        &format!("runs[{i}].latency.{class}.{field} must be a number"),
                    );
                }
            }
        }
        if let Some(series) = run.get("time_series").and_then(Value::as_object) {
            total_series += series.len();
            for (name, points) in series {
                let well_formed = points.as_array().is_some_and(|ps| {
                    ps.iter().all(|p| p.as_array().is_some_and(|pair| pair.len() == 2))
                });
                check(
                    &mut errors,
                    well_formed,
                    &format!(
                        "runs[{i}].time_series.{name} must be an array of [tick, value] pairs"
                    ),
                );
            }
        }
        if let Some(t) = run.get("transitions") {
            validate_transitions(&mut errors, i, t);
        }
        if let Some(sh) = run.get("sharing") {
            validate_sharing(&mut errors, i, sh);
        }
        if let Some(fl) = run.get("flight_recorder") {
            validate_flight(&mut errors, i, fl);
        }
    }
    check(&mut errors, total_series >= 2, "report must contain at least two sampled time series");
    errors
}

/// Validates the report at `path` and writes the verdict: a `valid` line
/// on `out` (success), or every violation on stderr (failure).
///
/// A `path` that cannot be read as JSON is a [`usage_error`]: "the tool
/// was not given a report" is a different answer from "the report is
/// wrong".
pub fn validate_file(path: &str, out: &mut dyn Write) -> io::Result<ExitCode> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| usage_error(format!("cannot read {path}: {e}")))?;
    let doc = parse(&text).map_err(|e| usage_error(format!("{path} is not valid JSON: {e}")))?;
    let errors = validate(&doc);
    if errors.is_empty() {
        let runs = doc.get("runs").and_then(Value::as_array).map_or(0, <[Value]>::len);
        writeln!(out, "{path}: valid {REPORT_SCHEMA} v{REPORT_SCHEMA_VERSION} ({runs} run(s))")?;
        Ok(ExitCode::SUCCESS)
    } else {
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        eprintln!("{path}: INVALID ({} error(s))", errors.len());
        Ok(ExitCode::FAILURE)
    }
}
