//! The repository's benchmark: seeded workloads against the release
//! build of `rust-safety-study`, measured end to end (tracing off) or per
//! layer (tracing on).
//!
//! ```text
//! rstudy-perfbench --bin <rust-safety-study> --workers N --jobs N --connections N \
//!     --workload <corpus-batch|oracle-sweep|serve-miss|serve-hit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed as `name value unit` on stderr, and the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/run.sh` builds both binaries and runs this one.

mod batch;
mod check;
mod gen;
mod oracle;
mod probe;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use probe::Layer;
use trace::Tracer;
use util::json_str;

/// End-to-end metrics (tracing off), reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (tracing on). A layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("service.queue_ms.p50", "ms"),
    ("service.queue_ms.p99", "ms"),
    ("service.analysis_ms.p50", "ms"),
    ("service.server_ms.p50", "ms"),
    ("service.server_ms.p99", "ms"),
    ("service.wire_ms.p50", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_get_us", "us"),
    ("service.request_decode_us", "us"),
    ("service.manifest_load_ms", "ms"),
    ("json.decode_mb_per_s.manifest", "MB/s"),
    ("json.decode_mb_per_s.request", "MB/s"),
    ("json.encode_mb_per_s.report", "MB/s"),
    ("mir.parse_ms", "ms"),
    ("mir.validate_ms", "ms"),
    ("mir.bytes", "bytes"),
    ("analysis.points_to_ms", "ms"),
    ("analysis.storage_ms", "ms"),
    ("analysis.freed_ms", "ms"),
    ("analysis.invalid_ms", "ms"),
    ("analysis.heap_ms", "ms"),
    ("analysis.locks_ms", "ms"),
    ("analysis.callgraph_ms", "ms"),
    ("analysis.dataflow_iterations", "count"),
    ("analysis.points_to_iterations", "count"),
    ("core.detector_ms.use-after-free", "ms"),
    ("core.detector_ms.double-free", "ms"),
    ("core.detector_ms.invalid-free", "ms"),
    ("core.detector_ms.uninit-read", "ms"),
    ("core.detector_ms.null-deref", "ms"),
    ("core.detector_ms.buffer-overflow", "ms"),
    ("core.detector_ms.double-lock", "ms"),
    ("core.detector_ms.lock-order", "ms"),
    ("core.detector_ms.blocking-misuse", "ms"),
    ("core.detector_ms.interior-mutability", "ms"),
    ("core.suite_ms", "ms"),
    ("core.suite_ms.jobs1", "ms"),
    ("core.findings", "count"),
    ("scan.lex_mb_per_s", "MB/s"),
    ("scan.scan_mb_per_s", "MB/s"),
    ("ingest.walk_ms", "ms"),
    ("ingest.lower_ms", "ms"),
    ("ingest.fns_attempted", "count"),
    ("ingest.fns_lowered", "count"),
    ("ingest.lower_ratio", "ratio"),
    ("ingest.manifest_encode_ms", "ms"),
    ("ingest.manifest_bytes", "bytes"),
    ("interp.steps", "count"),
    ("interp.steps_per_s", "1/s"),
    ("interp.sweep_ms.threaded", "ms"),
    ("interp.sweep_ms.single", "ms"),
    ("oracle.static_ms", "ms"),
    ("bench.send_lag_ms.max", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["corpus-batch", "oracle-sweep"];

/// Runnable, but left out of `BENCHMARK.json`: their latency and capacity
/// did not repeat within the bounds on a shared 2-vCPU host (see README).
/// `corpus-batch`'s traced run measures the service layer instead.
pub const EXTRA_WORKLOADS: [&str; 2] = ["serve-miss", "serve-hit"];

/// Everything a workload needs to run.
pub struct Ctx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// The server's analysis workers and per-request suite threads.
    pub workers: usize,
    pub jobs: usize,
    /// Client connections of the serve workloads.
    pub connections: usize,
    /// Scratch directory for generated inputs, removed when the run ends.
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// What one run measured and how its checks went.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a run-level property (one not tied to a single
    /// operation) failed.
    pub correct: bool,
    pub metrics: Layer,
    pub errors: Vec<String>,
}

/// Operations attempted and failed, with the first few failures' reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn note(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// The in-process `mir`/`analysis`/`core` probe over `programs`, traced,
/// plus the tracing overhead: the traced pass against the mean of an
/// untraced pass before and after it (after one discarded warm-up pass).
pub fn layer_probe_with_overhead(ctx: &Ctx, programs: &[String], jobs: usize) -> Layer {
    let untraced = || {
        let t0 = Instant::now();
        probe::program_layers(&Tracer::new(false), programs, jobs);
        t0.elapsed().as_secs_f64()
    };
    untraced();
    let before = untraced();
    let t0 = Instant::now();
    let mut out = probe::program_layers(&ctx.tracer, programs, jobs);
    let traced = t0.elapsed().as_secs_f64();
    let after = untraced();
    let base = (before + after) / 2.0;
    out.insert(
        "bench.trace_overhead_pct".into(),
        (traced / base - 1.0) * 100.0,
    );
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    workers: usize,
    jobs: usize,
    connections: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name}: missing value"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse::<u64>()
            .map_err(|_| format!("{name}: expected a whole number"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) && !EXTRA_WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    let seconds = num("--seconds")?;
    let trace = num("--trace")?;
    let workers = num("--workers")? as usize;
    let jobs = num("--jobs")? as usize;
    let connections = num("--connections")? as usize;
    // Bounds the threads and connections a run starts.
    let threads = 1..=64;
    if !(1..=3600).contains(&seconds)
        || trace > 1
        || !threads.contains(&workers)
        || !threads.contains(&jobs)
        || !threads.contains(&connections)
    {
        return Err(
            "out-of-range --seconds, --trace, --workers, --jobs or --connections".to_owned(),
        );
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: trace == 1,
        bin: PathBuf::from(get("--bin")?),
        workers,
        jobs,
        connections,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rstudy-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.bin.is_file() {
        eprintln!("rstudy-perfbench: no program at {}", args.bin.display());
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".bench_out");
    let ctx = Ctx {
        bin: args.bin,
        seed: args.seed,
        seconds: args.seconds,
        workers: args.workers,
        jobs: args.jobs,
        connections: args.connections,
        work: out_dir.join(format!("work-{}", std::process::id())),
        tracer: Tracer::new(args.trace),
    };
    let result = std::fs::create_dir_all(&ctx.work).and_then(|()| match args.workload.as_str() {
        "serve-miss" => serve::run(&ctx, false),
        "serve-hit" => serve::run(&ctx, true),
        "corpus-batch" => batch::run(&ctx),
        _ => oracle::run(&ctx),
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rstudy-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = match outcome.metrics.get(*name) {
            Some(v) if v.is_finite() => *v,
            _ if args.trace => 0.0,
            _ => {
                eprintln!("rstudy-perfbench: {}: no value for {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "{:<40} {value:>16.4} {unit}",
            format!("{}/{name}", args.workload)
        );
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    if args.trace {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let trace_path = out_dir.join(format!("trace-{stem}.json"));
        let layers_path = out_dir.join(format!("layers-{stem}.json"));
        let written = ctx
            .tracer
            .write_chrome(&trace_path)
            .and_then(|()| std::fs::write(&layers_path, format!("{{{}}}\n", fields.join(","))));
        match written {
            Ok(()) => eprintln!(
                "wrote {} and {}",
                trace_path.display(),
                layers_path.display()
            ),
            Err(e) => eprintln!("rstudy-perfbench: writing the trace: {e}"),
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Json;

    fn read(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn names_units(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_prints() {
        let v = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_units(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_owned))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn builds_offline_against_the_workspace_by_path() {
        let manifest = read("Cargo.toml");
        assert!(
            manifest.contains("\n[workspace]\n"),
            "a workspace of its own"
        );
        let deps = manifest
            .split("[dependencies]")
            .nth(1)
            .expect("a [dependencies] table");
        let lines: Vec<&str> = deps.lines().filter(|l| l.contains('=')).collect();
        assert!(!lines.is_empty());
        for line in lines {
            assert!(
                line.contains("path = \"../crates/") || line.contains("path = \"../vendor/"),
                "not a path dependency on the workspace or its stand-ins: {line}"
            );
        }
        let root = read("../Cargo.toml");
        assert!(
            root.contains("members = [\"crates/*\"]"),
            "the root workspace is unchanged"
        );
        assert!(!read("../Cargo.lock").contains("rstudy-perfbench"));
    }
}
