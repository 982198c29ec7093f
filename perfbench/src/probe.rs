//! In-process per-layer probes for the traced run: the benchmark calls each
//! layer's public functions on the workload's own inputs, inside spans, and
//! turns the spans' self time into the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;

use rstudy_analysis::cache::AnalysisCache;
use rstudy_core::suite::DetectorSuite;
use rstudy_ingest::Manifest;
use rstudy_mir::Program;

use crate::trace::Tracer;

pub type Layer = BTreeMap<String, f64>;

/// Analysis spans, in the dependency order the accessors are called in.
const ANALYSES: [&str; 7] = [
    "analysis.points_to",
    "analysis.storage",
    "analysis.freed",
    "analysis.invalid",
    "analysis.heap",
    "analysis.locks",
    "analysis.callgraph",
];

fn ms(t: &Tracer, name: &str) -> f64 {
    t.self_ms_by_name().get(name).copied().unwrap_or(0.0)
}

fn mb_per_s(bytes: usize, ms: f64) -> f64 {
    if ms <= 0.0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ms / 1e3)
    }
}

/// `mir`, `analysis`, `core` and report-encode (`json`) metrics over one
/// pass of `programs` (MIR texts). `jobs` is the suite fan-out the workload
/// itself runs at (0 = the program's default).
pub fn program_layers(t: &Tracer, programs: &[String], jobs: usize) -> Layer {
    let mut out = Layer::new();
    let seq = DetectorSuite::new().with_jobs(1);
    let mut detector_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut findings = 0usize;
    let mut report_bytes = 0usize;
    let mut parsed: Vec<Program> = Vec::with_capacity(programs.len());
    t.span("probe.programs", None, || {
        for (i, text) in programs.iter().enumerate() {
            let req = Some(i as u64);
            let program = t.span("mir.parse", req, || rstudy_mir::parse::parse_program(text));
            let Ok(program) = program else { continue };
            let valid = t.span("mir.validate", req, || {
                rstudy_mir::validate::validate_program(&program).is_ok()
            });
            if !valid {
                continue;
            }
            let cache = AnalysisCache::new(&program);
            let names: Vec<String> = program.iter().map(|(n, _)| n.to_owned()).collect();
            for f in &names {
                t.span(ANALYSES[0], req, || {
                    cache.points_to(f);
                });
                t.span(ANALYSES[1], req, || {
                    cache.storage_dead(f);
                });
                t.span(ANALYSES[2], req, || {
                    cache.maybe_freed(f);
                });
                t.span(ANALYSES[3], req, || {
                    cache.maybe_invalid(f);
                });
                t.span(ANALYSES[4], req, || {
                    cache.heap_model(f);
                    cache.heap_state(f);
                });
                t.span(ANALYSES[5], req, || {
                    cache.acquisitions(f);
                    cache.held_guards(f);
                });
            }
            t.span(ANALYSES[6], req, || {
                cache.call_graph();
            });
            drop(cache);
            let (report, timings) = t.span("core.check_timed", req, || {
                seq.check_program_timed(&program)
            });
            for d in timings {
                *detector_ns.entry(d.name).or_insert(0) += d.wall_ns;
            }
            findings += report.len();
            let json = t.span("json.encode.report", req, || {
                serde_json::to_string(&report).expect("report encodes")
            });
            report_bytes += json.len();
            parsed.push(program);
        }
        let named: Vec<(String, &Program)> = parsed
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("p{i}"), p))
            .collect();
        t.span("core.suite", None, || {
            DetectorSuite::new()
                .with_jobs(jobs)
                .check_programs(named.iter().map(|(n, p)| (n.as_str(), *p)))
                .len()
        });
        t.span("core.suite.jobs1", None, || {
            seq.check_programs(named.iter().map(|(n, p)| (n.as_str(), *p)))
                .len()
        });
    });
    let by = t.self_ms_by_name();
    let get = |n: &str| by.get(n).copied().unwrap_or(0.0);
    out.insert("mir.parse_ms".into(), get("mir.parse"));
    out.insert("mir.validate_ms".into(), get("mir.validate"));
    out.insert(
        "mir.bytes".into(),
        programs.iter().map(String::len).sum::<usize>() as f64,
    );
    for (span, metric) in ANALYSES.iter().zip([
        "analysis.points_to_ms",
        "analysis.storage_ms",
        "analysis.freed_ms",
        "analysis.invalid_ms",
        "analysis.heap_ms",
        "analysis.locks_ms",
        "analysis.callgraph_ms",
    ]) {
        out.insert(metric.into(), get(span));
    }
    for name in DetectorSuite::all_detector_names() {
        let ns = detector_ns.get(name).copied().unwrap_or(0);
        out.insert(format!("core.detector_ms.{name}"), ns as f64 / 1e6);
    }
    out.insert("core.suite_ms".into(), get("core.suite"));
    out.insert("core.suite_ms.jobs1".into(), get("core.suite.jobs1"));
    out.insert("core.findings".into(), findings as f64);
    out.insert(
        "json.encode_mb_per_s.report".into(),
        mb_per_s(report_bytes, get("json.encode.report")),
    );
    out.extend(fixpoint_counts(&parsed));
    out
}

/// The analyses' own fixpoint counters, read from the workspace telemetry
/// registry over one untimed pass (enabling it would perturb the timings).
fn fixpoint_counts(programs: &[Program]) -> Layer {
    rstudy_telemetry::reset();
    rstudy_telemetry::enable();
    let suite = DetectorSuite::new().with_jobs(1);
    for p in programs {
        suite.check_program(p);
    }
    let snap = rstudy_telemetry::snapshot();
    rstudy_telemetry::disable();
    rstudy_telemetry::reset();
    let mut dataflow = 0u64;
    let mut points_to = 0u64;
    for (name, h) in &snap.histograms {
        if name == "analysis.points-to.iterations" {
            points_to += h.sum;
        } else if name.starts_with("analysis.") && name.ends_with(".iterations") {
            dataflow += h.sum;
        }
    }
    Layer::from([
        ("analysis.dataflow_iterations".to_owned(), dataflow as f64),
        ("analysis.points_to_iterations".to_owned(), points_to as f64),
    ])
}

/// `json` manifest decode and `service.manifest_load_ms` on a manifest file.
pub fn manifest_layers(t: &Tracer, path: &Path) -> Layer {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    t.span("json.decode.manifest", None, || {
        Manifest::from_json(&text).is_ok()
    });
    t.span("service.manifest_load", None, || {
        Manifest::load(path).is_ok()
    });
    Layer::from([
        (
            "json.decode_mb_per_s.manifest".to_owned(),
            mb_per_s(text.len(), ms(t, "json.decode.manifest")),
        ),
        (
            "service.manifest_load_ms".to_owned(),
            ms(t, "service.manifest_load"),
        ),
    ])
}

/// `scan` and `ingest` metrics over a generated tree.
pub fn ingest_layers(t: &Tracer, root: &Path) -> Layer {
    let walk = t.span("ingest.walk", None, || rstudy_ingest::walk_rust_files(root));
    let Ok(walk) = walk else {
        return Layer::new();
    };
    let sources: Vec<String> = walk
        .files
        .iter()
        .filter_map(|f| std::fs::read_to_string(&f.path).ok())
        .collect();
    let bytes: usize = sources.iter().map(String::len).sum();
    let (mut lowered, mut skipped) = (0usize, 0usize);
    for (i, src) in sources.iter().enumerate() {
        let req = Some(i as u64);
        t.span("scan.lex", req, || rstudy_scan::lexer::lex(src).len());
        t.span("scan.scan", req, || rstudy_scan::scan_source(src).len());
        let l = t.span("ingest.lower", req, || rstudy_ingest::lower_source(src));
        lowered += l.functions.len();
        skipped += l.skipped.values().sum::<usize>();
    }
    let manifest = rstudy_ingest::ingest(root, "probe").ok();
    let json = t.span("ingest.manifest_encode", None, || {
        manifest.map(|m| m.to_json())
    });
    let attempted = lowered + skipped;
    Layer::from([
        (
            "scan.lex_mb_per_s".to_owned(),
            mb_per_s(bytes, ms(t, "scan.lex")),
        ),
        (
            "scan.scan_mb_per_s".to_owned(),
            mb_per_s(bytes, ms(t, "scan.scan")),
        ),
        ("ingest.walk_ms".to_owned(), ms(t, "ingest.walk")),
        ("ingest.lower_ms".to_owned(), ms(t, "ingest.lower")),
        ("ingest.fns_attempted".to_owned(), attempted as f64),
        ("ingest.fns_lowered".to_owned(), lowered as f64),
        (
            "ingest.lower_ratio".to_owned(),
            if attempted == 0 {
                0.0
            } else {
                lowered as f64 / attempted as f64
            },
        ),
        (
            "ingest.manifest_encode_ms".to_owned(),
            ms(t, "ingest.manifest_encode"),
        ),
        (
            "ingest.manifest_bytes".to_owned(),
            json.map_or(0, |j| j.len()) as f64,
        ),
    ])
}

/// `service.request_decode_us`, `service.cache_get_us` and the request
/// decode rate, measured in process on the request lines a serve workload
/// sent and the reports it got back.
pub fn request_layers(t: &Tracer, lines: &[String], reports: &[String]) -> Layer {
    let bytes: usize = lines.iter().map(String::len).sum();
    t.span("json.decode.request", None, || {
        lines
            .iter()
            .filter(|l| serde_json::from_str::<serde::Value>(l).is_ok())
            .count()
    });
    t.span("service.request_decode", None, || {
        lines
            .iter()
            .filter(|l| rstudy_serve::protocol::parse_request(l).is_ok())
            .count()
    });
    let cache = rstudy_serve::ResultCache::new(128, None).expect("in-memory cache");
    let detectors: Vec<String> = DetectorSuite::all_detector_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let keys: Vec<_> = lines
        .iter()
        .take(128)
        .zip(reports)
        .map(|(l, r)| {
            let key = rstudy_serve::ResultCache::key(l, &detectors, false);
            let _ = cache.put(key, r);
            key
        })
        .collect();
    let rounds = 64;
    t.span("service.cache_get", None, || {
        let mut hits = 0;
        for _ in 0..rounds {
            hits += keys.iter().filter(|k| cache.get(**k).is_some()).count();
        }
        hits
    });
    let gets = keys.len() * rounds;
    let per = |name: &str, n: usize| ms(t, name) * 1e3 / n.max(1) as f64;
    Layer::from([
        (
            "json.decode_mb_per_s.request".to_owned(),
            mb_per_s(bytes, ms(t, "json.decode.request")),
        ),
        (
            "service.request_decode_us".to_owned(),
            per("service.request_decode", lines.len()),
        ),
        (
            "service.cache_get_us".to_owned(),
            per("service.cache_get", gets),
        ),
    ])
}
