//! `corpus-batch`: `ingest` of a generated Rust tree, then `check
//! --manifest` on the result at the default `--jobs`, each as its own CLI
//! process, in whole rounds until the run's time is up.

use std::ffi::OsStr;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::check;
use crate::gen;
use crate::probe::{self, Layer};
use crate::util::{children_max_rss_mb, median, Json};
use crate::{Ctx, Outcome, Tally};

/// CLI starts timed for `setup_s`.
const STARTS: usize = 7;

pub struct CliRun {
    pub stdout: String,
    pub seconds: f64,
}

/// Runs the CLI to completion. Exit codes 0 and 1 (findings) are results;
/// anything else is an error.
pub fn cli(bin: &Path, args: &[&OsStr]) -> io::Result<CliRun> {
    let t0 = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()?;
    let seconds = t0.elapsed().as_secs_f64();
    let code = out.status.code().unwrap_or(-1);
    if code != 0 && code != 1 {
        return Err(io::Error::other(format!("{args:?} exited with {code}")));
    }
    Ok(CliRun {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        seconds,
    })
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let t = &ctx.tracer;
    let tree = ctx.work.join("batch-tree");
    let (files, planted) = gen::rust_tree(ctx.seed, gen::BATCH_TREE);
    gen::write_tree(&tree, &files)?;
    let out_a = ctx.work.join("batch-a");
    let out_b = ctx.work.join("batch-b");
    let manifest = out_a.join("manifest.json");

    // Set-up: a cold CLI process to its first verdict, on a one-file
    // manifest ingested from the first generated file.
    let tiny_tree = ctx.work.join("tiny-tree");
    gen::write_tree(&tiny_tree, &files[..1])?;
    let tiny = ctx.work.join("tiny");
    cli(
        &ctx.bin,
        &[
            "ingest".as_ref(),
            tiny_tree.as_os_str(),
            "--out".as_ref(),
            tiny.as_os_str(),
        ],
    )?;
    let tiny_manifest = tiny.join("manifest.json");
    let check_args = |m: &Path| -> Vec<std::ffi::OsString> {
        vec![
            "check".into(),
            "--manifest".into(),
            m.into(),
            "--json".into(),
        ]
    };
    let mut starts = Vec::new();
    for _ in 0..STARTS {
        let args = check_args(&tiny_manifest);
        let refs: Vec<&OsStr> = args.iter().map(|a| a.as_os_str()).collect();
        starts.push(cli(&ctx.bin, &refs)?.seconds);
    }

    let mut tally = Tally::default();
    let ingest_args = |out: &Path| -> Vec<std::ffi::OsString> {
        vec![
            "ingest".into(),
            tree.clone().into(),
            "--out".into(),
            out.into(),
        ]
    };
    let run_cli = |args: Vec<std::ffi::OsString>| {
        let refs: Vec<&OsStr> = args.iter().map(|a| a.as_os_str()).collect();
        cli(&ctx.bin, &refs)
    };

    let mut ingest_s = Vec::new();
    let mut check_rate = Vec::new();
    let mut previous: Option<String> = None;
    let mut default_output = String::new();
    let started = Instant::now();
    let mut round = 0u64;
    // Whole rounds: each is one ingest and one check.
    while round == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let out_dir = if round.is_multiple_of(2) {
            &out_a
        } else {
            &out_b
        };
        let ing = t.span("cli.ingest", Some(round), || run_cli(ingest_args(out_dir)))?;
        ingest_s.push(ing.seconds);
        let text = std::fs::read_to_string(out_dir.join("manifest.json"))?;
        tally.note((|| {
            let m = Json::parse(&text).map_err(|e| format!("manifest: {e}"))?;
            check::manifest_counts(&m, &planted)?;
            if previous.as_ref().is_some_and(|p| *p != text) {
                return Err("two ingests of one tree gave different manifests".to_owned());
            }
            Ok(())
        })());
        previous = Some(text);
        let chk = t.span("cli.check", Some(round), || {
            run_cli(check_args(&out_dir.join("manifest.json")))
        })?;
        check_rate.push(planted.lowerable as f64 / chk.seconds);
        tally.note(check::batch_reports(&chk.stdout, &planted).and_then(|()| {
            if round > 0 && chk.stdout != default_output {
                Err("check output changed between rounds".to_owned())
            } else {
                Ok(())
            }
        }));
        default_output = chk.stdout;
        round += 1;
    }
    // The same manifest at `--jobs 1` must give the identical report.
    let mut seq_args: Vec<std::ffi::OsString> = vec!["--jobs".into(), "1".into()];
    seq_args.extend(check_args(&manifest));
    let seq = t.span("cli.check.jobs1", None, || run_cli(seq_args))?;
    // A run-level property rather than an operation, so every run attempts
    // the same number of operations per round.
    let correct = seq.stdout == default_output;
    if !correct {
        tally
            .errors
            .push("check --manifest differs between --jobs 1 and the default".to_owned());
    }

    let mut metrics = Layer::new();
    if t.on() {
        let text = std::fs::read_to_string(&manifest)?;
        let programs: Vec<String> = rstudy_ingest::Manifest::from_json(&text)
            .map(|m| m.lowered_units().map(|(_, u)| u.program.clone()).collect())
            .unwrap_or_default();
        metrics.extend(probe::manifest_layers(t, &manifest));
        metrics.extend(probe::ingest_layers(t, &tree));
        metrics.extend(crate::serve::service_probe(ctx, &programs, &mut tally)?);
        metrics.extend(crate::layer_probe_with_overhead(ctx, &programs, 0));
    } else {
        metrics.insert("setup_s".into(), median(&starts));
        metrics.insert("p50_ms".into(), median(&ingest_s) * 1e3);
        metrics.insert("work_per_s".into(), median(&check_rate));
        metrics.insert("peak_rss_mb".into(), children_max_rss_mb());
    }
    eprintln!(
        "corpus-batch: {round} rounds over {} files / {} bytes / {} lowerable fns; \
         ingest p50 {:.1} ms, check {:.0} fns/s",
        planted.files,
        planted.bytes,
        planted.lowerable,
        median(&ingest_s) * 1e3,
        median(&check_rate)
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        metrics,
        errors: tally.errors,
    })
}
