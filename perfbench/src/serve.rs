//! `serve-miss` and `serve-hit`: NDJSON over loopback TCP to a separate
//! `rust-safety-study serve` process.
//!
//! The end-to-end run has a latency phase (one request in flight on one
//! connection) and a capacity phase (a window of requests in flight on each
//! connection), both closed loops driven from one client thread. The traced
//! run instead offers a fixed rate open-loop: request `i` is due at
//! `t0 + i / rate` whatever happened to earlier ones, and is timed from that
//! due time, so a stall shows on every request behind it.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rstudy_corpus::CorpusEntry;

use crate::check;
use crate::gen::{self, SIZE_FAMILY};
use crate::probe::{self, Layer};
use crate::trace::Tracer;
use crate::util::{json_str, median, quantile, vm_hwm_mb, Json, Rng};
use crate::{Ctx, Outcome, Tally};

/// The traced run's offered rates (req/s), well below capacity.
pub const MISS_RATE: f64 = 150.0;
pub const HIT_RATE: f64 = 40.0;

/// serve-hit: manifest+entry lookups per round, next to one inline request
/// per corpus entry. Each lookup loads the whole manifest on the event
/// loop; a larger share would put most requests behind one.
const MANIFEST_LOOKUPS: usize = 4;

/// Server starts timed for `setup_s`; the last one serves the run.
const STARTS: usize = 5;

/// A running `serve` child.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    // Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(bin: &Path, workers: usize, jobs: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--workers", &workers.to_string()])
            .args(["--jobs", &jobs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("no listen banner: {banner:?}")));
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    pub fn rss_mb(&self) -> f64 {
        vm_hwm_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// One request/response on a fresh connection.
    fn ask(&self, line: &str) -> io::Result<String> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.write_all(format!("{line}\n").as_bytes())?;
        let mut out = String::new();
        BufReader::new(s).read_line(&mut out)?;
        Ok(out.trim_end().to_owned())
    }

    /// Graceful shutdown; kills the child if it has not exited in 10 s.
    fn stop(mut self) {
        let _ = self.ask(r#"{"cmd":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the server [`STARTS`] times, timing spawn → first answered
/// request, and keeps the last one running. Returns it with the median.
fn timed_starts(ctx: &Ctx) -> io::Result<(Server, f64)> {
    // A program no round sends (its padding tag is not hex), so the kept
    // server's cache holds nothing a measured request could hit.
    let text = gen::mir_variant(
        rstudy_corpus::memory::UAF_FIXED.source,
        1,
        "setup",
        &mut Rng::new(ctx.seed),
    );
    let first = request_line(u64::MAX, &text);
    let mut times = Vec::new();
    let mut server = None;
    for i in 0..STARTS {
        let t0 = Instant::now();
        let s = Server::start(&ctx.bin, ctx.workers, ctx.jobs)?;
        let resp = s.ask(&first)?;
        times.push(t0.elapsed().as_secs_f64());
        check::serve_response(&resp, &[], false).map_err(io::Error::other)?;
        if i + 1 < STARTS {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    Ok((server.expect("STARTS >= 1"), median(&times)))
}

pub fn request_line(id: u64, program: &str) -> String {
    format!("{{\"id\":{id},\"program\":{}}}", json_str(program))
}

fn manifest_line(id: u64, manifest: &Path, entry: &str) -> String {
    format!(
        "{{\"id\":{id},\"manifest\":{},\"entry\":{}}}",
        json_str(&manifest.display().to_string()),
        json_str(entry)
    )
}

/// One request of a phase and what its answer must say.
#[derive(Clone)]
struct Req {
    line: String,
    expected: &'static [&'static str],
    /// Identity of the cached result (serve-hit), for byte-identity.
    key: usize,
    /// serve-hit: the manifest entry a lookup asks for.
    entry: Option<String>,
}

/// One request's fate on the wire.
struct Sample {
    due: Instant,
    sent: Instant,
    recv: Option<Instant>,
    response: String,
}

/// Sends `reqs` open-loop at `rate` over `conns` connections (request `i`
/// on connection `i % conns`) and collects every answer. Two threads: one
/// writes each request when it is due, one waits on every connection at
/// once and reads what arrives, so a slow answer never delays a send.
fn open_loop(addr: SocketAddr, conns: usize, reqs: &[Req], rate: f64) -> io::Result<Vec<Sample>> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<_>>()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let deadline = due(reqs.len()) + Duration::from_secs(20);
    let (sent, received) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut streams = streams;
            let mut sent = Vec::with_capacity(reqs.len());
            for (i, req) in reqs.iter().enumerate() {
                let wait = due(i).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                sent.push(Instant::now());
                let mut line = Vec::with_capacity(req.line.len() + 1);
                line.extend_from_slice(req.line.as_bytes());
                line.push(b'\n');
                if streams[i % conns].write_all(&line).is_err() {
                    break;
                }
            }
            sent
        });
        let reader = s.spawn(|| read_responses(readers, reqs.len(), deadline));
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    Ok(received
        .into_iter()
        .enumerate()
        .map(|(i, (recv, response))| Sample {
            due: due(i),
            sent: sent.get(i).copied().unwrap_or(deadline),
            recv,
            response,
        })
        .collect())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Waits up to 20 ms for data on any open connection, reads what is
/// there, and hands every complete line to `on_line(connection, line, at)`.
/// Returns false once every connection is closed.
fn poll_lines(
    streams: &mut [TcpStream],
    bufs: &mut [Vec<u8>],
    open: &mut [bool],
    on_line: &mut dyn FnMut(usize, &[u8], Instant),
) -> bool {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .zip(open.iter())
        .map(|(s, &o)| PollFd {
            // poll skips a negative fd.
            fd: if o { s.as_raw_fd() } else { -1 },
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries, which is all `poll` reads and writes.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 20) };
    if ready > 0 {
        let mut chunk = [0u8; 16 * 1024];
        for c in 0..streams.len() {
            if fds[c].revents == 0 || !open[c] {
                continue;
            }
            match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => open[c] = false,
                Ok(k) => {
                    let at = Instant::now();
                    bufs[c].extend_from_slice(&chunk[..k]);
                    let mut start = 0;
                    while let Some(nl) = bufs[c][start..].iter().position(|&b| b == b'\n') {
                        on_line(c, &bufs[c][start..start + nl], at);
                        start += nl + 1;
                    }
                    bufs[c].drain(..start);
                }
            }
        }
    }
    open.iter().any(|&o| o)
}

/// Reads `n` response lines spread over `streams` (the `k`-th line on
/// connection `c` answers request `c + k * streams.len()`), stamping each
/// with its arrival time, until all arrived or `deadline` passed.
fn read_responses(
    mut streams: Vec<TcpStream>,
    n: usize,
    deadline: Instant,
) -> Vec<(Option<Instant>, String)> {
    let conns = streams.len();
    let mut out: Vec<(Option<Instant>, String)> = (0..n).map(|_| (None, String::new())).collect();
    let mut next: Vec<usize> = (0..conns).collect();
    let mut bufs = vec![Vec::new(); conns];
    let mut open = vec![true; conns];
    let mut answered: Vec<(usize, String, Instant)> = Vec::new();
    let mut done = 0;
    while done < n && Instant::now() < deadline {
        let alive = poll_lines(&mut streams, &mut bufs, &mut open, &mut |c, line, at| {
            answered.push((c, String::from_utf8_lossy(line).into_owned(), at));
        });
        for (c, line, at) in answered.drain(..) {
            if next[c] < n {
                out[next[c]] = (Some(at), line);
                next[c] += conns;
                done += 1;
            }
        }
        if !alive {
            break;
        }
    }
    out
}

/// Latencies (ms, from due time) of answered requests; unanswered ones
/// count as infinitely late.
fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            s.recv.map_or(f64::INFINITY, |r| {
                r.saturating_duration_since(s.due).as_secs_f64() * 1e3
            })
        })
        .collect()
}

/// The serve workloads' request source.
struct Mix {
    seed: u64,
    hit: bool,
    entries: Vec<&'static CorpusEntry>,
    /// serve-hit: the hot set, fixed for the run.
    hot: Vec<Req>,
    /// serve-hit: miss-path report bytes by `Req::key`.
    reports: BTreeMap<usize, String>,
    next_index: u64,
}

impl Mix {
    /// One round: every corpus entry at every padding size (serve-miss,
    /// each a never-sent variant), or the whole hot set (serve-hit), in a
    /// seeded order.
    fn round(&mut self, round: u64) -> Vec<Req> {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x9E37) ^ round);
        let mut reqs = if self.hit {
            self.hot.clone()
        } else {
            let mut v = Vec::with_capacity(self.entries.len() * SIZE_FAMILY.len());
            for e in &self.entries {
                for &pads in &SIZE_FAMILY {
                    let idx = self.next_index;
                    self.next_index += 1;
                    let text =
                        gen::mir_variant(e.source, pads, &gen::tag(self.seed, idx), &mut rng);
                    v.push(Req {
                        line: request_line(idx, &text),
                        expected: e.static_bugs,
                        key: v.len(),
                        entry: None,
                    });
                }
            }
            v
        };
        rng.shuffle(&mut reqs);
        reqs
    }

    fn rounds_for(&mut self, rate: f64, seconds: f64, first_round: &mut u64) -> Vec<Req> {
        let per_round = if self.hit {
            self.hot.len()
        } else {
            self.entries.len() * SIZE_FAMILY.len()
        };
        let n = ((rate * seconds / per_round as f64).round() as u64).max(1);
        let mut out = Vec::new();
        for _ in 0..n {
            out.extend(self.round(*first_round));
            *first_round += 1;
        }
        out
    }

    fn check(&self, req: &Req, s: &Sample, want_cached: bool) -> Result<(), String> {
        if s.recv.is_none() {
            return Err("no response".to_owned());
        }
        let raw = check::serve_response(&s.response, req.expected, want_cached)?;
        if self.hit && self.reports.get(&req.key).map(String::as_str) != Some(raw) {
            return Err("cached report differs from its miss-path report".to_owned());
        }
        Ok(())
    }
}

/// The requests of one phase and what came back for each.
struct Phase {
    samples: Vec<Sample>,
    reqs: Vec<Req>,
}

fn run_phase(
    server: &Server,
    ctx: &Ctx,
    mix: &mut Mix,
    rate: f64,
    seconds: f64,
    round: &mut u64,
) -> io::Result<Phase> {
    let reqs = mix.rounds_for(rate, seconds, round);
    let samples = open_loop(server.addr, ctx.connections, &reqs, rate)?;
    Ok(Phase { samples, reqs })
}

fn tally_phase(mix: &Mix, phase: &Phase, want_cached: bool, tally: &mut Tally) {
    for (req, s) in phase.reqs.iter().zip(&phase.samples) {
        tally.note(mix.check(req, s, want_cached));
    }
}

/// Generates the serve-hit manifest by running the CLI's `ingest` on a
/// generated tree, and returns its path, its lowered entries, and the
/// `check --manifest --json` report of each.
fn hit_manifest(ctx: &Ctx) -> io::Result<(PathBuf, PathBuf, BTreeMap<String, Json>)> {
    let root = ctx.work.join("serve-tree");
    let (files, _) = gen::rust_tree(ctx.seed, gen::SERVE_TREE);
    gen::write_tree(&root, &files)?;
    let out = ctx.work.join("serve-manifest");
    crate::batch::cli(
        &ctx.bin,
        &[
            "ingest".as_ref(),
            root.as_os_str(),
            "--out".as_ref(),
            out.as_os_str(),
        ],
    )?;
    let manifest = out.join("manifest.json");
    let check = crate::batch::cli(
        &ctx.bin,
        &[
            "check".as_ref(),
            "--manifest".as_ref(),
            manifest.as_os_str(),
            "--json".as_ref(),
        ],
    )?;
    let reports = check::manifest_reports(&check.stdout).map_err(io::Error::other)?;
    let manifest = std::fs::canonicalize(manifest)?;
    Ok((root, manifest, reports))
}

pub fn run(ctx: &Ctx, hit: bool) -> io::Result<Outcome> {
    let rate = if hit { HIT_RATE } else { MISS_RATE };
    let mut mix = Mix {
        seed: ctx.seed,
        hit,
        entries: rstudy_corpus::all_entries(),
        hot: Vec::new(),
        reports: BTreeMap::new(),
        next_index: 0,
    };
    let mut tally = Tally::default();
    let mut manifest_reports = BTreeMap::new();
    let mut tree = None;
    let mut manifest_path = None;
    if hit {
        let (root, manifest, reports) = hit_manifest(ctx)?;
        let mut rng = Rng::new(ctx.seed);
        let tag = gen::tag(ctx.seed, 0);
        for (j, e) in mix.entries.iter().enumerate() {
            let text =
                gen::mir_variant(e.source, SIZE_FAMILY[j % SIZE_FAMILY.len()], &tag, &mut rng);
            mix.hot.push(Req {
                line: request_line(j as u64, &text),
                expected: e.static_bugs,
                key: j,
                entry: None,
            });
        }
        for (k, path) in reports.keys().enumerate().take(MANIFEST_LOOKUPS) {
            mix.hot.push(Req {
                line: manifest_line(1_000_000 + k as u64, &manifest, path),
                expected: &[],
                key: mix.entries.len() + k,
                entry: Some(path.clone()),
            });
        }
        manifest_reports = reports;
        tree = Some(root);
        manifest_path = Some(manifest);
    }

    let (server, setup_s) = timed_starts(ctx)?;
    let mut round = 0u64;
    let result = (|| -> io::Result<Outcome> {
        // Warm-up: serve-hit fills the cache with the hot set and records
        // each miss-path report; serve-miss warms the server's allocator
        // and threads on one round of fresh variants.
        let warm_reqs = mix.rounds_for(rate, 0.0, &mut round);
        let warm = open_loop(server.addr, ctx.connections, &warm_reqs, rate)?;
        for (req, s) in warm_reqs.iter().zip(&warm) {
            let r = (|| {
                if s.recv.is_none() {
                    return Err("no response".to_owned());
                }
                let raw = check::serve_response(&s.response, req.expected, false)?;
                if hit {
                    if let Some(path) = &req.entry {
                        let want = manifest_reports
                            .get(path)
                            .ok_or("entry missing from check output")?;
                        if Json::parse(raw).ok().as_ref() != Some(want) {
                            return Err(format!(
                                "served report for {path} differs from check --manifest"
                            ));
                        }
                    }
                    mix.reports.insert(req.key, raw.to_owned());
                }
                Ok(())
            })();
            tally.note(r);
        }

        let mut metrics = Layer::new();
        if ctx.tracer.on() {
            let fixed = run_phase(&server, ctx, &mut mix, rate, ctx.seconds * 0.5, &mut round)?;
            tally_phase(&mix, &fixed, hit, &mut tally);
            metrics.extend(trace_phase(
                ctx,
                &server,
                &mix,
                &fixed,
                tree.as_deref(),
                manifest_path.as_deref(),
            ));
        } else {
            // Latency with one request in flight on one connection: the
            // server never waits for work, so the figure is the request's
            // own path rather than the host's idle wake-up delay, which made
            // a low fixed rate's median unrepeatable here.
            let (_, lat) = closed_phase(
                &server,
                &mut mix,
                1,
                1,
                ctx.seconds * 0.45,
                &mut round,
                &mut tally,
            )?;
            let (cap, _) = closed_phase(
                &server,
                &mut mix,
                ctx.connections,
                WINDOW,
                ctx.seconds * 0.45,
                &mut round,
                &mut tally,
            )?;
            eprintln!(
                "{}: {} requests one at a time, p50 {:.3} ms, p99 {:.3} ms; capacity {cap:.0} req/s",
                if hit { "serve-hit" } else { "serve-miss" },
                lat.len(),
                quantile(&lat, 0.5),
                quantile(&lat, 0.99)
            );
            metrics.insert("setup_s".into(), setup_s);
            metrics.insert("p50_ms".into(), quantile(&lat, 0.5));
            metrics.insert("work_per_s".into(), cap);
            metrics.insert("peak_rss_mb".into(), server.rss_mb());
        }
        Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            correct: true,
            metrics,
            errors: std::mem::take(&mut tally.errors),
        })
    })();
    server.stop();
    result
}

/// Requests each connection keeps in flight in the capacity phase.
const WINDOW: usize = 4;

/// Closed loop over `reqs` from one thread: each connection keeps
/// [`WINDOW`] requests in flight (request `i` on connection `i % conns`)
/// and sends its next one as each answer lands, so the server is never idle
/// and the backlog cannot grow. A sample's due time is its send time.
fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    reqs: &[Req],
) -> io::Result<Vec<Sample>> {
    let mut streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    let n = reqs.len();
    let start = Instant::now();
    let mut samples: Vec<Sample> = (0..n)
        .map(|_| Sample {
            due: start,
            sent: start,
            recv: None,
            response: String::new(),
        })
        .collect();
    let send = |stream: &mut TcpStream, samples: &mut [Sample], i: usize| -> io::Result<()> {
        let now = Instant::now();
        samples[i].due = now;
        samples[i].sent = now;
        stream.write_all(format!("{}\n", reqs[i].line).as_bytes())
    };
    let mut next_send: Vec<usize> = (0..conns).collect();
    for c in 0..conns {
        for _ in 0..window {
            if next_send[c] < n {
                send(&mut streams[c], &mut samples, next_send[c])?;
                next_send[c] += conns;
            }
        }
    }
    let mut next_recv: Vec<usize> = (0..conns).collect();
    let mut bufs = vec![Vec::new(); conns];
    let mut open = vec![true; conns];
    let mut answered: Vec<(usize, String, Instant)> = Vec::new();
    let mut done = 0;
    let deadline = start + Duration::from_secs(60);
    while done < n && Instant::now() < deadline {
        let alive = poll_lines(&mut streams, &mut bufs, &mut open, &mut |c, line, at| {
            answered.push((c, String::from_utf8_lossy(line).into_owned(), at));
        });
        for (c, line, at) in answered.drain(..) {
            let i = next_recv[c];
            if i >= n {
                continue;
            }
            samples[i].recv = Some(at);
            samples[i].response = line;
            next_recv[c] += conns;
            done += 1;
            if next_send[c] < n {
                send(&mut streams[c], &mut samples, next_send[c])?;
                next_send[c] += conns;
            }
        }
        if !alive {
            break;
        }
    }
    Ok(samples)
}

/// Whole rounds in a closed loop over `conns` connections with `window`
/// requests in flight on each, until `seconds` have passed. Returns the
/// median over rounds of requests completed per second, and every
/// request's latency (ms, from its send).
#[allow(clippy::too_many_arguments)]
fn closed_phase(
    server: &Server,
    mix: &mut Mix,
    conns: usize,
    window: usize,
    seconds: f64,
    round: &mut u64,
    tally: &mut Tally,
) -> io::Result<(f64, Vec<f64>)> {
    let mut rates = Vec::new();
    let mut lat = Vec::new();
    let started = Instant::now();
    while rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let reqs = mix.round(*round);
        *round += 1;
        let t0 = Instant::now();
        let samples = closed_loop(server.addr, conns, window, &reqs)?;
        rates.push(reqs.len() as f64 / t0.elapsed().as_secs_f64());
        lat.extend(latencies(&samples));
        tally_phase(mix, &Phase { samples, reqs }, mix.hit, tally);
    }
    Ok((median(&rates), lat))
}

/// The `service.*` metrics of answered requests: the stage timings each
/// `ok` response carries, the wire time around them, the server's cache
/// counters, and (in process) request decode and cache lookup on the same
/// request lines and reports.
fn service_layers(t: &Tracer, server: &Server, reqs: &[Req], samples: &[Sample]) -> Layer {
    let mut queue = Vec::new();
    let mut analysis = Vec::new();
    let mut total = Vec::new();
    let mut wire = Vec::new();
    let mut lag: f64 = 0.0;
    let mut lines: Vec<String> = Vec::new();
    let mut reports: Vec<String> = Vec::new();
    t.span("bench.serve_phase", None, || {
        for (i, (req, s)) in reqs.iter().zip(samples).enumerate() {
            lag = lag.max(s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3);
            let Some(recv) = s.recv else { continue };
            t.record("service.request", Some(i as u64), s.due, recv);
            if let Some((q, a, tot)) = check::serve_timing(&s.response) {
                queue.push(q);
                analysis.push(a);
                total.push(tot);
                wire.push(recv.saturating_duration_since(s.sent).as_secs_f64() * 1e3 - tot);
            }
            if let Some(raw) = crate::util::raw_member(&s.response, "report") {
                lines.push(req.line.clone());
                reports.push(raw.to_owned());
            }
        }
    });
    let mut out = Layer::from([
        ("service.queue_ms.p50".to_owned(), quantile(&queue, 0.5)),
        ("service.queue_ms.p99".to_owned(), quantile(&queue, 0.99)),
        (
            "service.analysis_ms.p50".to_owned(),
            quantile(&analysis, 0.5),
        ),
        ("service.server_ms.p50".to_owned(), quantile(&total, 0.5)),
        ("service.server_ms.p99".to_owned(), quantile(&total, 0.99)),
        ("service.wire_ms.p50".to_owned(), quantile(&wire, 0.5)),
        ("bench.send_lag_ms.max".to_owned(), lag),
    ]);
    if let Ok(stats) = server.ask(r#"{"cmd":"stats"}"#) {
        let v = Json::parse(&stats).unwrap_or(Json::Null);
        let n = |k: &str| v.at(&["stats", k]).and_then(Json::num).unwrap_or(0.0);
        let (h, m) = (n("cache_hits"), n("cache_misses"));
        out.insert("service.cache_hits".into(), h);
        out.insert("service.cache_misses".into(), m);
        out.insert(
            "service.cache_hit_ratio".into(),
            if h + m > 0.0 { h / (h + m) } else { 0.0 },
        );
    }
    out.extend(probe::request_layers(t, &lines, &reports));
    out
}

/// The service layer for a workload that does not serve: a fresh `serve`
/// gets every program inline twice, open-loop at [`MISS_RATE`]; the first
/// pass must miss the cache and the second hit it, each with a clean
/// report (the programs are the generator's clean lowered functions).
/// Returns the `service.*` metrics; the checks go into `tally`.
pub fn service_probe(ctx: &Ctx, programs: &[String], tally: &mut Tally) -> io::Result<Layer> {
    let reqs: Vec<Req> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| Req {
            line: request_line(i as u64, p),
            expected: &[],
            key: i,
            entry: None,
        })
        .collect();
    let server = Server::start(&ctx.bin, ctx.workers, ctx.jobs)?;
    let result = (|| {
        let miss = open_loop(server.addr, ctx.connections, &reqs, MISS_RATE)?;
        let hit = open_loop(server.addr, ctx.connections, &reqs, MISS_RATE)?;
        for (cached, samples) in [(false, &miss), (true, &hit)] {
            for s in samples {
                tally.note(match s.recv {
                    None => Err("no response".to_owned()),
                    Some(_) => check::serve_response(&s.response, &[], cached).map(|_| ()),
                });
            }
        }
        // Stage timings from the miss pass, where the analysis runs; the
        // cache counters cover both passes.
        Ok(service_layers(&ctx.tracer, &server, &reqs, &miss))
    })();
    server.stop();
    result
}

/// The traced run's metrics for one fixed-rate phase: the service layer,
/// plus the in-process probes over the same requests and programs.
fn trace_phase(
    ctx: &Ctx,
    server: &Server,
    mix: &Mix,
    fixed: &Phase,
    tree: Option<&Path>,
    manifest: Option<&Path>,
) -> Layer {
    let t = &ctx.tracer;
    let mut out = service_layers(t, server, &fixed.reqs, &fixed.samples);
    // Distinct programs of one round, for the in-process layer probes.
    let per_round = if mix.hit {
        mix.hot.len()
    } else {
        mix.entries.len() * SIZE_FAMILY.len()
    };
    let mut programs: Vec<String> = fixed
        .reqs
        .iter()
        .take(per_round)
        .filter_map(|req| match Json::parse(&req.line).ok()?.get("program") {
            Some(Json::Str(p)) => Some(p.clone()),
            _ => None,
        })
        .collect();
    if let Some(m) = manifest {
        if let Ok(text) = std::fs::read_to_string(m) {
            if let Ok(parsed) = rstudy_ingest::Manifest::from_json(&text) {
                programs.extend(parsed.lowered_units().map(|(_, u)| u.program.clone()));
            }
        }
        out.extend(probe::manifest_layers(t, m));
    }
    if let Some(root) = tree {
        out.extend(probe::ingest_layers(t, root));
    }
    out.extend(crate::layer_probe_with_overhead(ctx, &programs, ctx.jobs));
    out
}
