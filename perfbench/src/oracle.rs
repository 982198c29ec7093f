//! `oracle-sweep`: the paper's static-vs-dynamic comparison, in process.
//! Every labelled corpus entry and every mutant `corpus::mutate` can make
//! of one goes through the static suite and an interpreter seed sweep, in
//! whole rounds until the run's time is up.

use std::collections::BTreeSet;
use std::io;
use std::time::Instant;

use rstudy_core::suite::DetectorSuite;
use rstudy_core::BugClass;
use rstudy_corpus::{mutate, CorpusEntry};
use rstudy_interp::{Interpreter, InterpreterConfig, Outcome as Run, SchedulePolicy};
use rstudy_mir::Program;

use crate::check;
use crate::probe::Layer;
use crate::util::{median, quantile, vm_hwm_mb, Rng};
use crate::{Ctx, Outcome, Tally};

/// Random-schedule seeds per program per round.
pub const SWEEP_SEEDS: u64 = 48;
const MAX_STEPS: u64 = 100_000;
/// Preparations timed for `setup_s`.
const STARTS: usize = 7;
/// Operation latencies kept for `p50_ms`: a uniform sample over the whole
/// run, so the process's memory (its `peak_rss_mb`) does not grow with the
/// number of rounds a faster machine fits in.
const RESERVOIR: usize = 4096;

/// What a program must show.
enum Label {
    /// A corpus entry: exact static classes and a dynamic outcome.
    Entry(&'static CorpusEntry),
    /// A mutant: the mutator's bug class, whether the unmutated entry's
    /// round-robin run already shows that class's fault, and a name.
    Mutant(BugClass, bool, String),
}

struct Subject {
    program: Program,
    label: Label,
    threaded: bool,
}

type Mutator = fn(&mut Program) -> Option<mutate::MutationSite>;

const MUTATORS: [(Mutator, BugClass); 4] = [
    (mutate::hoist_storage_dead, BugClass::UseAfterFree),
    (mutate::duplicate_dealloc, BugClass::DoubleFree),
    (mutate::drop_guard_release, BugClass::DoubleLock),
    (mutate::unwrite_initialization, BugClass::InvalidFree),
];

/// Parses every entry and applies every mutator to every entry.
fn prepare() -> Vec<Subject> {
    let mut out = Vec::new();
    for e in rstudy_corpus::all_entries() {
        let program = e.program();
        let threaded = e.source.contains("thread::spawn");
        let base = interp(&program, SchedulePolicy::RoundRobin);
        for (m, class) in MUTATORS {
            let mut p = program.clone();
            if let Some(site) = m(&mut p) {
                if rstudy_mir::validate::validate_program(&p).is_ok() {
                    out.push(Subject {
                        program: p,
                        label: Label::Mutant(
                            class,
                            shows(class, &base),
                            format!("{} / {}", e.name, site.description),
                        ),
                        threaded,
                    });
                }
            }
        }
        out.push(Subject {
            program,
            label: Label::Entry(e),
            threaded,
        });
    }
    out
}

fn interp(p: &Program, policy: SchedulePolicy) -> Run {
    Interpreter::new(p)
        .with_config(InterpreterConfig {
            max_steps: MAX_STEPS,
            policy,
            detect_races: true,
            trace_tail: 0,
        })
        .run()
}

/// Whether a run shows the dynamic fault that bug class names. A mutator
/// rewrites a shape; whether the rewrite is the bug depends on the program
/// (a hoisted `StorageDead` needs a later dereference), so the interpreter
/// decides which mutants are bugs.
fn shows(class: BugClass, r: &Run) -> bool {
    use rstudy_interp::{Fault, MemoryFault as M};
    matches!(
        (&r.fault, class),
        (
            Some(Fault::Memory(_, M::UseAfterFree(_))),
            BugClass::UseAfterFree
        ) | (
            Some(Fault::Memory(_, M::DoubleFree(_) | M::DoubleDrop(_))),
            BugClass::DoubleFree
        ) | (
            Some(Fault::Memory(_, M::InvalidFree(_) | M::DropOfUninit(_))),
            BugClass::InvalidFree
        ) | (Some(Fault::SelfDeadlock(_)), BugClass::DoubleLock)
    )
}

/// Fault class of a run (`None` when it completed).
fn fault_class(r: &Run) -> Option<String> {
    r.fault
        .as_ref()
        .map(|f| format!("{f:?}").split('(').next().unwrap_or("?").to_owned())
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let t = &ctx.tracer;
    let mut starts = Vec::new();
    let mut subjects = Vec::new();
    for _ in 0..STARTS {
        let t0 = Instant::now();
        subjects = prepare();
        starts.push(t0.elapsed().as_secs_f64());
    }
    // Sequential, so the interpreter does nearly all the work here; the
    // suite's fan-out cost is priced by `corpus-batch`.
    let suite = DetectorSuite::new().with_jobs(1);
    let mut rng = Rng::new(ctx.seed);

    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(RESERVOIR);
    let mut sample_rng = Rng::new(ctx.seed ^ 0x5A);
    let mut seen = 0u64;
    let mut runs = 0u64;
    let mut steps = 0u64;
    let mut sweep_ms = [0.0f64; 2];
    let mut static_ms = 0.0;
    let mut order: Vec<usize> = (0..subjects.len()).collect();
    let started = Instant::now();
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        rng.shuffle(&mut order);
        let base = rng.next_u64();
        for &i in &order {
            let s = &subjects[i];
            let op0 = Instant::now();
            let report = t.span("oracle.static", Some(i as u64), || {
                suite.check_program(&s.program)
            });
            let op1 = Instant::now();
            let span = if s.threaded {
                "interp.sweep.threaded"
            } else {
                "interp.sweep.single"
            };
            let (rr, sweep) = t.span(span, Some(i as u64), || {
                let rr = interp(&s.program, SchedulePolicy::RoundRobin);
                let sweep: Vec<Run> = (0..SWEEP_SEEDS)
                    .map(|k| interp(&s.program, SchedulePolicy::Random(base.wrapping_add(k))))
                    .collect();
                (rr, sweep)
            });
            let op2 = Instant::now();
            let ms = (op2 - op0).as_secs_f64() * 1e3;
            seen += 1;
            if latencies.len() < RESERVOIR {
                latencies.push(ms);
            } else {
                let j = sample_rng.below(seen) as usize;
                if j < RESERVOIR {
                    latencies[j] = ms;
                }
            }
            static_ms += (op1 - op0).as_secs_f64() * 1e3;
            sweep_ms[usize::from(s.threaded)] += (op2 - op1).as_secs_f64() * 1e3;
            runs += 1 + SWEEP_SEEDS;
            steps += rr.steps + sweep.iter().map(|r| r.steps).sum::<u64>();

            let verdict = match &s.label {
                Label::Entry(e) => {
                    let found: BTreeSet<&str> = report
                        .diagnostics()
                        .iter()
                        .map(|d| d.bug_class.code())
                        .collect();
                    check::static_matches(&found, e.static_bugs)
                        .and_then(|()| {
                            if check::dynamic_matches(&rr, e.dynamic) {
                                Ok(())
                            } else {
                                Err(format!("round-robin run {rr:?}, labelled {:?}", e.dynamic))
                            }
                        })
                        .and_then(|()| {
                            let same = sweep.iter().all(|r| {
                                fault_class(r) == fault_class(&rr)
                                    && r.return_value == rr.return_value
                            });
                            if s.threaded || same {
                                Ok(())
                            } else {
                                Err("single-threaded entry changed outcome under a seed".to_owned())
                            }
                        })
                        .map_err(|err| format!("{}: {err}", e.name))
                }
                // A mutant the deterministic round-robin run shows to be a
                // new bug of its class must be reported as that class.
                Label::Mutant(class, in_base, what) => {
                    if *in_base || !shows(*class, &rr) || report.count(*class) > 0 {
                        Ok(())
                    } else {
                        Err(format!(
                            "mutant {what}: the interpreter shows {:?}, the suite reports no {}",
                            fault_class(&rr),
                            class.code()
                        ))
                    }
                }
            };
            tally.note(verdict);
        }
        round += 1;
    }
    let wall = started.elapsed().as_secs_f64();

    let mut metrics = Layer::new();
    if t.on() {
        let per_round = |x: f64| x / round as f64;
        let sweep_total = sweep_ms[0] + sweep_ms[1];
        metrics.extend([
            ("interp.steps".to_owned(), per_round(steps as f64)),
            (
                "interp.steps_per_s".to_owned(),
                steps as f64 / (sweep_total / 1e3).max(1e-9),
            ),
            (
                "interp.sweep_ms.threaded".to_owned(),
                per_round(sweep_ms[1]),
            ),
            ("interp.sweep_ms.single".to_owned(), per_round(sweep_ms[0])),
            ("oracle.static_ms".to_owned(), per_round(static_ms)),
        ]);
        let texts: Vec<String> = subjects
            .iter()
            .map(|s| rstudy_mir::pretty::program_to_string(&s.program))
            .collect();
        metrics.extend(crate::layer_probe_with_overhead(ctx, &texts, 1));
    } else {
        metrics.insert("setup_s".into(), median(&starts));
        metrics.insert("p50_ms".into(), quantile(&latencies, 0.5));
        metrics.insert("work_per_s".into(), runs as f64 / wall);
        metrics.insert("peak_rss_mb".into(), vm_hwm_mb("self").unwrap_or(0.0));
    }
    eprintln!(
        "oracle-sweep: {round} rounds x {} programs, {runs} interpreter runs in {wall:.2} s",
        subjects.len()
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: true,
        metrics,
        errors: tally.errors,
    })
}
