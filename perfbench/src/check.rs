//! Output checks. Each one compares what the program produced with a fact
//! known apart from the program (a corpus label, a count the generator
//! planted) or with a property the method must have (determinism, cache
//! transparency); none compares against stored program output.

use std::collections::{BTreeMap, BTreeSet};

use rstudy_core::BugClass;
use rstudy_corpus::DynamicExpectation;
use rstudy_interp::Outcome;

use crate::gen::{Planted, PAD_PREFIX};
use crate::util::{raw_member, Json};

/// Bug-class codes of a serialized report (`{"diagnostics":[...]}`). The
/// wire form names the class's variant (`"DoubleLock"`); corpus labels use
/// its code (`"double-lock"`). An unknown name is kept as it is, so it can
/// never match a label.
pub fn report_codes(report: &Json) -> BTreeSet<String> {
    report
        .get("diagnostics")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|d| d.get("bug_class").and_then(Json::str))
        .map(|name| {
            BugClass::ALL
                .iter()
                .find(|c| format!("{c:?}") == name)
                .map_or(name.to_owned(), |c| c.code().to_owned())
        })
        .collect()
}

/// Checks one serve `ok` response: the report carries exactly `expected`
/// bug classes, no finding sits in padding, and `cached` is `want_cached`.
/// Returns the report's raw bytes for byte-identity checks.
pub fn serve_response<'a>(
    line: &'a str,
    expected: &[&str],
    want_cached: bool,
) -> Result<&'a str, String> {
    let v = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    let status = v.get("status").and_then(Json::str).unwrap_or("?");
    if status != "ok" {
        return Err(format!("status `{status}`: {line}"));
    }
    if v.get("cached").and_then(Json::bool) != Some(want_cached) {
        return Err(format!("expected cached={want_cached}: {line}"));
    }
    let report = v.get("report").ok_or("response without a report")?;
    let found = report_codes(report);
    let want: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
    if found != want {
        return Err(format!("report classes {found:?}, labelled {want:?}"));
    }
    let in_padding = report
        .get("diagnostics")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .any(|d| {
            d.get("function")
                .and_then(Json::str)
                .is_some_and(|f| f.starts_with(PAD_PREFIX))
        });
    if in_padding {
        return Err("a finding inside uncalled clean padding".to_owned());
    }
    raw_member(line, "report").ok_or_else(|| "report not found".to_owned())
}

/// The `timing` object of an `ok` response, in milliseconds:
/// `(queue, analysis, total)`.
pub fn serve_timing(line: &str) -> Option<(f64, f64, f64)> {
    let v = Json::parse(line).ok()?;
    let t = v.get("timing")?;
    let ms = |k: &str| t.get(k).and_then(Json::num).map(|n| n / 1e6);
    Some((ms("queue_ns")?, ms("analysis_ns")?, ms("total_ns")?))
}

/// Checks an ingest manifest's headline counts against what the generator
/// planted.
pub fn manifest_counts(manifest: &Json, planted: &Planted) -> Result<(), String> {
    let num = |path: &[&str]| manifest.at(path).and_then(Json::num).unwrap_or(-1.0) as i64;
    let want = [
        (vec!["summary", "files_scanned"], planted.files),
        (vec!["summary", "unsafe_usages"], planted.unsafe_total()),
        (vec!["summary", "fns_lowered"], planted.lowerable),
        (vec!["summary", "fns_skipped"], planted.skipped),
        (
            vec!["stats", "breakdown", "by_kind", "block"],
            planted.blocks,
        ),
        (
            vec!["stats", "breakdown", "by_kind", "function"],
            planted.functions,
        ),
        (
            vec!["stats", "breakdown", "by_kind", "trait"],
            planted.traits,
        ),
        (vec!["stats", "breakdown", "by_kind", "impl"], planted.impls),
    ];
    for (path, n) in want {
        let got = num(&path);
        if got != n as i64 {
            return Err(format!(
                "{}: manifest says {got}, generator planted {n}",
                path.join(".")
            ));
        }
    }
    Ok(())
}

/// Checks `check --manifest --json` output: one report per lowered file,
/// and no findings, since every planted lowerable function is clean
/// straight-line code.
pub fn batch_reports(output: &str, planted: &Planted) -> Result<(), String> {
    let v = Json::parse(output.trim()).map_err(|e| format!("unparseable check output: {e}"))?;
    let programs = v.get("programs").and_then(Json::num).unwrap_or(-1.0) as i64;
    if programs != planted.files as i64 {
        return Err(format!(
            "{programs} programs checked, {} files lowered",
            planted.files
        ));
    }
    let reports = v.get("reports").map(Json::arr).unwrap_or_default();
    if reports.len() != planted.files {
        return Err(format!(
            "{} reports for {} programs",
            reports.len(),
            planted.files
        ));
    }
    let findings: usize = reports
        .iter()
        .map(|r| {
            r.get("report")
                .map_or(0, |rep| rep.get("diagnostics").map_or(0, |d| d.arr().len()))
        })
        .sum();
    if findings != 0 {
        return Err(format!("{findings} finding(s) on clean straight-line code"));
    }
    Ok(())
}

/// Each file's report in `check --manifest --json` output, by path.
pub fn manifest_reports(output: &str) -> Result<BTreeMap<String, Json>, String> {
    let v = Json::parse(output.trim()).map_err(|e| format!("unparseable check output: {e}"))?;
    Ok(v.get("reports")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| {
            let path = r.get("path").and_then(Json::str)?;
            Some((path.to_owned(), r.get("report")?.clone()))
        })
        .collect())
}

/// Whether an interpreter outcome matches a corpus entry's dynamic label
/// (the same reading as the workspace's ground-truth tests).
pub fn dynamic_matches(outcome: &Outcome, want: DynamicExpectation) -> bool {
    match want {
        DynamicExpectation::Clean => outcome.is_clean(),
        DynamicExpectation::MemoryFault => outcome.memory_fault().is_some(),
        DynamicExpectation::Deadlock => outcome.deadlocked(),
        DynamicExpectation::Race => !outcome.races.is_empty() && outcome.fault.is_none(),
        DynamicExpectation::ReturnsInt(n) => {
            outcome.fault.is_none() && outcome.races.is_empty() && outcome.return_int() == Some(n)
        }
    }
}

/// Static findings (as codes) must equal the labelled set exactly.
pub fn static_matches(found: &BTreeSet<&str>, labelled: &[&str]) -> Result<(), String> {
    let want: BTreeSet<&str> = labelled.iter().copied().collect();
    if *found == want {
        Ok(())
    } else {
        Err(format!("static findings {found:?}, labelled {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"id":1,"status":"ok","trace_id":3,"cached":false,"findings":1,"timing":{"queue_ns":1000,"analysis_ns":2000000,"total_ns":3000000,"cache":"miss"},"report":{"diagnostics":[{"detector":"use-after-free","bug_class":"UseAfterFree","function":"main"}]}}"#;

    #[test]
    fn serve_check_accepts_the_labelled_report() {
        let raw = serve_response(OK, &["use-after-free"], false).unwrap();
        assert!(raw.starts_with(r#"{"diagnostics""#));
        assert_eq!(serve_timing(OK), Some((0.001, 2.0, 3.0)));
    }

    #[test]
    fn serve_check_rejects_wrong_verdicts_and_cache_state() {
        assert!(serve_response(OK, &[], false).is_err(), "missed label");
        assert!(
            serve_response(OK, &["double-lock"], false).is_err(),
            "wrong class"
        );
        assert!(
            serve_response(OK, &["use-after-free"], true).is_err(),
            "expected a hit"
        );
        let padded = OK.replace(r#""function":"main""#, r#""function":"pad_x_00""#);
        assert!(
            serve_response(&padded, &["use-after-free"], false).is_err(),
            "padding finding"
        );
        let err = r#"{"id":1,"status":"error","error":"boom"}"#;
        assert!(serve_response(err, &[], false).is_err());
    }

    fn planted() -> Planted {
        Planted {
            files: 2,
            bytes: 10,
            lowerable: 3,
            skipped: 4,
            blocks: 2,
            functions: 1,
            traits: 1,
            impls: 1,
        }
    }

    #[test]
    fn manifest_counts_reject_a_wrong_count() {
        let good = r#"{"summary":{"files_scanned":2,"unsafe_usages":5,"fns_lowered":3,"fns_skipped":4},
            "stats":{"breakdown":{"by_kind":{"block":2,"function":1,"trait":1,"impl":1}}}}"#;
        assert!(manifest_counts(&Json::parse(good).unwrap(), &planted()).is_ok());
        let bad = good.replace(r#""fns_lowered":3"#, r#""fns_lowered":2"#);
        assert!(manifest_counts(&Json::parse(&bad).unwrap(), &planted()).is_err());
        let bad = good.replace(r#""trait":1"#, r#""trait":0"#);
        assert!(manifest_counts(&Json::parse(&bad).unwrap(), &planted()).is_err());
    }

    #[test]
    fn batch_reports_reject_wrong_counts_and_findings() {
        let good = r#"{"manifest":"t","programs":2,"findings":0,"reports":[{"path":"a.rs","report":{"diagnostics":[]}},{"path":"b.rs","report":{"diagnostics":[]}}]}"#;
        assert!(batch_reports(good, &planted()).is_ok());
        let by_path = manifest_reports(good).unwrap();
        assert_eq!(by_path.len(), 2);
        assert_eq!(
            by_path["b.rs"],
            Json::parse(r#"{"diagnostics":[]}"#).unwrap()
        );
        let short = good.replace(r#""programs":2"#, r#""programs":1"#);
        assert!(batch_reports(&short, &planted()).is_err());
        let finding = good.replace(
            r#"{"path":"b.rs","report":{"diagnostics":[]}}"#,
            r#"{"path":"b.rs","report":{"diagnostics":[{"bug_class":"DoubleFree"}]}}"#,
        );
        assert!(batch_reports(&finding, &planted()).is_err());
        assert_ne!(
            manifest_reports(&finding).unwrap(),
            by_path,
            "a changed report differs"
        );
    }

    #[test]
    fn oracle_checks_reject_wrong_verdicts() {
        let found: BTreeSet<&str> = ["double-lock"].into_iter().collect();
        assert!(static_matches(&found, &["double-lock"]).is_ok());
        assert!(static_matches(&found, &["double-lock", "lock-order"]).is_err());
        assert!(static_matches(&BTreeSet::new(), &["double-lock"]).is_err());
        let clean = Outcome {
            return_value: None,
            fault: None,
            races: Vec::new(),
            leaked_heap_blocks: 0,
            steps: 1,
            trace: Vec::new(),
        };
        assert!(dynamic_matches(&clean, DynamicExpectation::Clean));
        assert!(!dynamic_matches(&clean, DynamicExpectation::Deadlock));
        assert!(!dynamic_matches(&clean, DynamicExpectation::MemoryFault));
        assert!(!dynamic_matches(&clean, DynamicExpectation::ReturnsInt(1)));
    }
}
