//! `serve-open`: the unmodified `repro-serve` daemon over its unix
//! socket, driven open-loop at a fixed rate from a pipelined connection,
//! then saturated with a fixed number of requests in flight. Every
//! open-loop request is timed from when it was due, not from when it was
//! sent; the generator's own lateness is reported and bounds the run's
//! validity. The traced run adds the rate ladder (`serve_max_rps`).

use crate::gen::{self, Payload};
use crate::ledger::print_ledger;
use crate::stats::{self, median, percentile, ratio, Summary};
use crate::{Args, Outcome, WORKERS};
use obs::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Runtime files (sockets) live here, inside the checkout.
const RUN_DIR: &str = ".bench_run";
/// The fixed sub-saturation rate, requests per second.
const FIXED_RATE: f64 = 2000.0;
/// The rate ladder starts at twice the fixed rate and doubles until a
/// rung fails; there is no top rung. The failing rate `hi` then bounds
/// the daemon's capacity, and [`SEARCHES`] independent bisections
/// (geometric midpoints) narrow the bracket `[hi / SEARCH_SPAN, hi]` until
/// its ends are at most [`LADDER_STEP`] apart. The bracket reaches below
/// the doubling's last pass, so a lucky pass there cannot pin every
/// search to it. `serve_max_rps` is the median of the searches: one
/// search is a single path of pass/fail verdicts, and one host stall can
/// flip a verdict.
const SEARCHES: usize = 3;
const SEARCH_SPAN: f64 = 4.0;
const LADDER_STEP: f64 = 1.05;
/// A safety stop for the doubling.
const MAX_DOUBLINGS: usize = 8;
/// Each rung lasts this share of `--seconds`.
const RUNG_SHARE: f64 = 0.04;
/// A ladder rate passes when its tail latency stays under this.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// The share of a rung's requests, from its start, that its verdict
/// does not judge: the first burst on a fresh connection is not the
/// daemon's steady state. Their answers are still checked.
const LEAD_IN: f64 = 0.2;
/// A rung's backlog grows when it rises over the second half of the
/// judged window by more than this many milliseconds of offered load.
/// (At any instant about rate x latency requests are in flight, so a
/// fixed count would fail every fast, high-rate rung.)
const BACKLOG_GROWTH_MS: f64 = 10.0;
/// Attempts at a rung before it counts as failed: near saturation one
/// host stall of a few tens of milliseconds fails an attempt.
const ATTEMPTS: usize = 2;
/// A run whose generator sent this late (p99) measured the generator,
/// not the daemon, and is invalid.
const SEND_LAG_LIMIT_MS: f64 = 20.0;
/// Pipelined connections the generator drives, and its threads: one
/// sender sleeping until each due time, one reader timestamping answers.
const CONNECTIONS: usize = 1;
const GENERATOR_THREADS: usize = 2;
/// Daemon boots per run; `setup_s` is the median of their spawn to first
/// `ping` answer times.
const BOOTS: usize = 15;
/// How long a phase waits for its last answers.
const DRAIN: Duration = Duration::from_secs(20);

/// A request's fate for the error rate: only `ok` succeeds; a refusal,
/// any error status, or no answer at all is a failure.
pub fn judge_status(status: Option<&str>) -> Result<(), String> {
    match status {
        Some("ok") => Ok(()),
        Some(s) => Err(format!("answered {s:?}")),
        None => Err("lost: never answered".into()),
    }
}

struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits for its first `ping` answer. Returns
    /// the daemon and the seconds from spawn to that answer.
    fn boot(args: &Args, tag: usize) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let socket = PathBuf::from(format!("{RUN_DIR}/serve-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let workers = WORKERS.to_string();
        let t0 = Instant::now();
        let child = Command::new(&args.serve_bin)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", &workers, "--threads", &workers])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.serve_bin.display()))?;
        let mut d = Daemon {
            child: Some(child),
            socket,
        };
        loop {
            if let Ok(doc) = d.control("{\"op\":\"ping\"}") {
                if doc.get("status").and_then(Json::as_str) == Some("ok") {
                    return Ok((d, t0.elapsed().as_secs_f64()));
                }
            }
            let exited = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || t0.elapsed() > Duration::from_secs(20) {
                return Err("daemon did not answer ping".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One control request on its own connection.
    fn control(&self, line: &str) -> Result<Json, String> {
        let mut s = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        s.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = String::new();
        BufReader::new(s)
            .read_line(&mut buf)
            .map_err(|e| e.to_string())?;
        obs::json::parse(buf.trim_end())
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Wire shutdown, then waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let answered = self.control("{\"op\":\"shutdown\"}");
        let mut child = self.child.take().expect("running daemon");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                _ if t0.elapsed() > Duration::from_secs(30) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        answered.map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One answered request, timed from its due time.
#[derive(Clone, Debug, Default)]
struct Answer {
    status: String,
    /// Receive time minus due time.
    latency_ms: f64,
    /// Receive time, seconds after the phase started.
    at_s: f64,
    trace_ms: f64,
    find_ms: f64,
    coalesced: bool,
    query_hit: bool,
    ddg_size: f64,
    kinds: Vec<String>,
}

/// One open-loop phase at one rate.
struct Phase {
    rate: f64,
    /// Send time minus due time, per request.
    lag_ms: Vec<f64>,
    answers: Vec<Option<Answer>>,
    protocol_errors: usize,
}

impl Phase {
    fn last_due_s(&self) -> f64 {
        (self.answers.len().saturating_sub(1)) as f64 / self.rate
    }

    /// Requests due by `t` seconds but unanswered at `t`.
    fn backlog_at(&self, t: f64) -> usize {
        let due_by = ((t * self.rate).floor() as usize + 1).min(self.answers.len());
        self.answers[..due_by]
            .iter()
            .filter(|a| a.as_ref().map_or(true, |a| a.at_s > t))
            .count()
    }

    fn ok(&self) -> impl Iterator<Item = &Answer> {
        self.answers.iter().flatten().filter(|a| a.status == "ok")
    }

    fn lag_p99(&self) -> f64 {
        lag_p99(&self.lag_ms)
    }
}

/// p99 of the generator's send lag, 0 when nothing was sent.
fn lag_p99(lag_ms: &[f64]) -> f64 {
    let mut lag = lag_ms.to_vec();
    lag.sort_by(f64::total_cmp);
    if lag.is_empty() {
        0.0
    } else {
        percentile(&lag, 990)
    }
}

fn parse_answer(line: &str) -> Option<(usize, Answer)> {
    let doc = obs::json::parse(line).ok()?;
    let id: usize = doc.get("id")?.as_str()?.parse().ok()?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let flag = |k: &str| doc.get(k) == Some(&Json::Bool(true));
    let kinds = doc
        .get("kinds")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|k| k.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default();
    Some((
        id,
        Answer {
            status: doc.get("status")?.as_str()?.to_string(),
            trace_ms: num("trace_ms"),
            find_ms: num("find_ms"),
            coalesced: flag("coalesced"),
            query_hit: flag("query_hit"),
            ddg_size: num("ddg_size"),
            kinds,
            ..Answer::default()
        },
    ))
}

/// A connection the daemon has accepted: a `ping` has been answered on
/// it, so no measured request waits for the daemon's accept loop.
fn connect(socket: &Path) -> Result<(UnixStream, BufReader<UnixStream>), String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    stream
        .write_all(b"{\"op\":\"ping\"}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    // Short enough to notice a drain deadline; never on the timing path.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    Ok((stream, reader))
}

/// One open-loop phase on one pipelined connection: request `i` is due
/// `i / rate` seconds after the start. A sender thread sleeps until each
/// due time and writes; the calling thread blocks on the socket and
/// timestamps every answer as it arrives. Two generator threads, one
/// connection.
fn drive(socket: &Path, lines: &[String], rate: f64) -> Phase {
    let mut phase = Phase {
        rate,
        lag_ms: Vec::with_capacity(lines.len()),
        answers: vec![None; lines.len()],
        protocol_errors: 0,
    };
    let Ok((mut writer, mut reader)) = connect(socket) else {
        phase.protocol_errors += 1;
        return phase;
    };
    let Ok(closer) = writer.try_clone() else {
        phase.protocol_errors += 1;
        return phase;
    };
    let sender_done = AtomicBool::new(false);
    let start = Instant::now();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let (lag_ms, write_errors) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lag_ms = Vec::with_capacity(lines.len());
            let mut errors = 0usize;
            for (i, line) in lines.iter().enumerate() {
                let at = start + due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag_ms.push(at.elapsed().as_secs_f64() * 1e3);
                if writer.write_all(line.as_bytes()).is_err() {
                    errors += 1;
                    break;
                }
            }
            sender_done.store(true, Ordering::SeqCst);
            (lag_ms, errors)
        });
        let mut partial: Vec<u8> = Vec::new();
        let mut answered = 0usize;
        let mut drain_until: Option<Instant> = None;
        while answered < lines.len() {
            if sender_done.load(Ordering::SeqCst)
                && Instant::now() > *drain_until.get_or_insert_with(|| Instant::now() + DRAIN)
            {
                break;
            }
            match reader.read_until(b'\n', &mut partial) {
                Ok(0) => break,
                Ok(_) if partial.ends_with(b"\n") => {
                    let at = start.elapsed();
                    let line = String::from_utf8_lossy(&partial).trim_end().to_string();
                    partial.clear();
                    match parse_answer(&line) {
                        Some((id, mut a)) if id < lines.len() && phase.answers[id].is_none() => {
                            a.at_s = at.as_secs_f64();
                            a.latency_ms = (at.as_secs_f64() - due(id).as_secs_f64()) * 1e3;
                            phase.answers[id] = Some(a);
                            answered += 1;
                        }
                        _ => phase.protocol_errors += 1,
                    }
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => {
                    phase.protocol_errors += 1;
                    break;
                }
            }
        }
        // Unblocks a sender stuck on a dead connection.
        let _ = closer.shutdown(std::net::Shutdown::Both);
        sender.join().expect("load generator sender")
    });
    phase.lag_ms = lag_ms;
    phase.protocol_errors += write_errors;
    phase
}

/// The saturation phase, whose answer rate is `throughput_per_s`: one
/// connection keeps this many requests in flight, so the daemon never
/// idles and never sees an unbounded queue.
const SATURATION_WINDOW: usize = 64;
/// Requests of the saturation phase per second of `--seconds`.
const SATURATION_PER_S: f64 = 2000.0;
/// The saturated rate is the median over runs of this many consecutive
/// answers, so a host stall costs one segment, not the whole figure.
const SATURATION_SEGMENT: usize = 1000;

/// Sends `lines` on one connection with [`SATURATION_WINDOW`] in flight,
/// a new one after every answer. Returns the answers (as a phase) and the
/// answer rate after the first [`LEAD_IN`] of them: the median over
/// segments of [`SATURATION_SEGMENT`] answers.
fn saturate(socket: &Path, lines: &[String]) -> (Phase, f64) {
    let mut phase = Phase {
        rate: 0.0,
        lag_ms: Vec::new(),
        answers: vec![None; lines.len()],
        protocol_errors: 0,
    };
    let Ok((mut writer, mut reader)) = connect(socket) else {
        phase.protocol_errors += 1;
        return (phase, 0.0);
    };
    let start = Instant::now();
    let mut sent = 0;
    let mut times = Vec::with_capacity(lines.len());
    let mut partial: Vec<u8> = Vec::new();
    while times.len() < lines.len() && start.elapsed() < DRAIN * 3 {
        if sent < lines.len() && sent < times.len() + SATURATION_WINDOW {
            if writer.write_all(lines[sent].as_bytes()).is_err() {
                phase.protocol_errors += 1;
                break;
            }
            sent += 1;
            continue;
        }
        match reader.read_until(b'\n', &mut partial) {
            Ok(0) => break,
            Ok(_) if partial.ends_with(b"\n") => {
                let at = start.elapsed().as_secs_f64();
                let line = String::from_utf8_lossy(&partial).trim_end().to_string();
                partial.clear();
                match parse_answer(&line) {
                    Some((id, mut a)) if id < lines.len() && phase.answers[id].is_none() => {
                        a.at_s = at;
                        phase.answers[id] = Some(a);
                        times.push(at);
                    }
                    _ => phase.protocol_errors += 1,
                }
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                phase.protocol_errors += 1;
                break;
            }
        }
    }
    let first = (times.len() as f64 * LEAD_IN) as usize;
    let segments: Vec<f64> = times[first..]
        .chunks_exact(SATURATION_SEGMENT + 1)
        .map(|c| ratio(SATURATION_SEGMENT as f64, c[SATURATION_SEGMENT] - c[0]))
        .collect();
    let rate = if segments.is_empty() {
        0.0
    } else {
        median(&segments)
    };
    phase.rate = rate;
    (phase, rate)
}

/// Sends `lines` one at a time on one connection, each after the
/// previous answer.
fn closed_loop(socket: &Path, lines: &[String]) -> Result<Vec<Answer>, String> {
    let (mut writer, mut reader) = connect(socket)?;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)));
    lines
        .iter()
        .map(|line| {
            writer
                .write_all(line.as_bytes())
                .map_err(|e| e.to_string())?;
            let mut answer = String::new();
            reader.read_line(&mut answer).map_err(|e| e.to_string())?;
            parse_answer(answer.trim_end())
                .map(|(_, a)| a)
                .ok_or_else(|| format!("unparseable answer {answer:?}"))
        })
        .collect()
}

type Reference = Result<Vec<String>, String>;

/// Threads that compute references, between measured phases.
const REFERENCE_THREADS: usize = 2;

/// In-process reference kinds, computed outside every timed interval
/// through the plain sequential analysis of the same program and input
/// the daemon resolves. Bench keys are analyzed once and inline sources
/// compiled once per run; every inline request is analyzed on its own
/// input.
#[derive(Default)]
struct References {
    bench: HashMap<(&'static str, starbench::Version), Reference>,
    programs: HashMap<String, Result<repro_ir::Program, String>>,
}

fn analyze(program: &repro_ir::Program, input: &trace::RunConfig) -> Reference {
    discovery::analyze_program(program, input, &discovery::FinderConfig::default())
        .map(|r| crate::layers::kinds(&r))
        .map_err(|e| e.to_string())
}

impl References {
    fn of(&mut self, payloads: &[Payload]) -> Vec<Reference> {
        for p in payloads {
            match p {
                Payload::Bench { name, version } => {
                    self.bench.entry((name, *version)).or_insert_with(
                        || match starbench::benchmark(name) {
                            Some(b) => analyze(&b.program(*version), &(b.analysis_input)()),
                            None => Err(format!("unknown benchmark {name}")),
                        },
                    );
                }
                Payload::Inline { source, .. } => {
                    if !self.programs.contains_key(source) {
                        let program = minc::compile_files("inline", &[("inline", source)])
                            .map_err(|e| e.to_string());
                        self.programs.insert(source.clone(), program);
                    }
                }
            }
        }
        let one = |p: &Payload| match p {
            Payload::Bench { name, version } => self.bench[&(*name, *version)].clone(),
            Payload::Inline { source, input } => match &self.programs[source] {
                Ok(program) => analyze(program, &trace::RunConfig::default().with_f64("in", input)),
                Err(e) => Err(e.clone()),
            },
        };
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(REFERENCE_THREADS);
        let chunk = payloads.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let parts: Vec<_> = payloads
                .chunks(chunk)
                .map(|c| s.spawn(move || c.iter().map(one).collect::<Vec<_>>()))
                .collect();
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        })
    }
}

/// Checks one answer against its payload's reference.
fn check_answer(answer: Option<&Answer>, reference: &Reference) -> Result<(), String> {
    judge_status(answer.map(|a| a.status.as_str()))?;
    let got = &answer.expect("answered").kinds;
    match reference {
        Ok(want) if want == got => Ok(()),
        Ok(want) => Err(format!("kinds {got:?}, reference {want:?}")),
        Err(e) => Err(format!("reference failed: {e}")),
    }
}

/// Checks every answer of a phase against its payloads' references
/// (`refs[i]` for request `i`). With `strict`, anything but `ok` is a failure (the
/// fixed-rate phase); otherwise only wrong patterns and lost requests are
/// (ladder rungs, whose refusals fail the rung instead).
fn check_phase(out: &mut Outcome, phase: &Phase, refs: &[Reference], strict: bool) {
    for (i, a) in phase.answers.iter().enumerate() {
        if !strict && a.as_ref().is_some_and(|a| a.status != "ok") {
            continue;
        }
        out.check(
            &format!("request {i} at {} req/s", phase.rate),
            check_answer(a.as_ref(), &refs[i]),
        );
    }
    if phase.protocol_errors > 0 {
        out.check(
            "protocol",
            Err(format!("{} protocol errors", phase.protocol_errors)),
        );
    }
}

/// Whether a rung sustained its rate: every request answered `ok`, and
/// over the judged window (after [`LEAD_IN`]) the tail latency under the
/// limit, no growing backlog, and a generator that kept up.
fn rung_passes(phase: &Phase) -> (bool, String) {
    let n = phase.answers.len();
    let ok = phase.ok().count();
    let first = (n as f64 * LEAD_IN) as usize;
    let lat: Vec<f64> = phase.answers[first..]
        .iter()
        .flatten()
        .filter(|a| a.status == "ok")
        .map(|a| a.latency_ms)
        .collect();
    let Some(s) = Summary::of(&lat, 990) else {
        return (false, "no answers".into());
    };
    let (start, end) = (first as f64 / phase.rate, phase.last_due_s());
    let (mid_backlog, end_backlog) = (
        phase.backlog_at((start + end) / 2.0),
        phase.backlog_at(end),
    );
    let growth_ms = (end_backlog as f64 - mid_backlog as f64) / phase.rate * 1e3;
    let lag = lag_p99(phase.lag_ms.get(first..).unwrap_or_default());
    let pass = ok == n
        && s.tail <= LATENCY_LIMIT_MS
        && growth_ms <= BACKLOG_GROWTH_MS
        && lag <= SEND_LAG_LIMIT_MS;
    (
        pass,
        format!(
            "{ok}/{n} ok; judged after the first {first}: {} {:.2} ms (n={}, {} beyond), backlog \
             {mid_backlog} -> {end_backlog} ({growth_ms:+.1} ms of load), send lag p99 {lag:.3} ms",
            s.tail_label(),
            s.tail,
            s.n,
            s.beyond
        ),
    )
}

/// Achieved answer rate of a phase: ok answers over the span from the
/// first due time to the last answer.
fn achieved_rate(phase: &Phase) -> f64 {
    let last = phase.ok().map(|a| a.at_s).fold(0.0f64, f64::max);
    ratio(phase.ok().count() as f64, last)
}

fn lines_for(payloads: &[Payload]) -> Vec<String> {
    payloads
        .iter()
        .enumerate()
        .map(|(i, p)| gen::request_line(i as u64, p))
        .collect()
}

/// Set-up: boots the daemon `boots` times, timing each boot from spawn
/// to its first `ping` answer, and keeps the last one. Then, outside the
/// timed boots, it sends that daemon the warm-up (`gen::serve_warmup`),
/// closed loop, checking each answer. Returns the daemon and the boot
/// times.
fn set_up(
    args: &Args,
    boots: usize,
    warm: &[String],
    warm_refs: &[Reference],
    out: &mut Outcome,
) -> Option<(Daemon, Vec<f64>)> {
    let mut boot_s = Vec::with_capacity(boots);
    let mut daemon: Option<Daemon> = None;
    for tag in 0..boots {
        if let Some(prev) = daemon.take() {
            if let Err(e) = prev.shutdown() {
                out.check("daemon shutdown", Err(e));
            }
        }
        match Daemon::boot(args, tag) {
            Ok((d, s)) => {
                boot_s.push(s);
                daemon = Some(d);
            }
            Err(e) => {
                out.check("daemon boot", Err(e));
                return None;
            }
        }
    }
    let daemon = daemon.expect("booted");
    match closed_loop(&daemon.socket, warm) {
        Ok(answers) => {
            for (a, r) in answers.iter().zip(warm_refs) {
                out.check("warm-up request", check_answer(Some(a), r));
            }
            Some((daemon, boot_s))
        }
        Err(e) => {
            out.check("warm-up", Err(e));
            None
        }
    }
}

/// One ladder rung: its payloads and what the daemon answered.
struct Rung {
    payloads: Vec<Payload>,
    phase: Phase,
    pass: bool,
}

/// The climbed ladder: every rung in order, and each search's result.
struct Ladder {
    rungs: Vec<Rung>,
    /// Achieved rate of each search's highest passing rung (`floor` when
    /// none passed).
    results: Vec<f64>,
    /// False when the doubling never found a failing rate.
    bracketed: bool,
}

impl Ladder {
    /// Runs one rung at `rate`: its own seeded mix with fresh inline
    /// inputs for `rung_s` seconds, up to [`ATTEMPTS`] times until an
    /// attempt passes. Returns the rung's index.
    fn rung(&mut self, args: &Args, socket: &Path, rate: f64, rung_s: f64) -> usize {
        let n = (rate * rung_s).round() as usize;
        let payloads = gen::serve_mix(args.seed, self.rungs.len() as u64 + 1, n);
        let lines = lines_for(&payloads);
        let mut phase = drive(socket, &lines, rate);
        let (mut pass, mut why) = rung_passes(&phase);
        for _ in 1..ATTEMPTS {
            if pass {
                break;
            }
            println!("  ladder {rate:>8.1} req/s: retry — {why}");
            phase = drive(socket, &lines, rate);
            (pass, why) = rung_passes(&phase);
        }
        println!(
            "  ladder {rate:>8.1} req/s: {} — {why}",
            if pass { "pass" } else { "FAIL" }
        );
        self.rungs.push(Rung {
            payloads,
            phase,
            pass,
        });
        self.rungs.len() - 1
    }

    /// Doubles from twice the fixed rate to the first failure on
    /// `daemon`, which it then shuts down. Each bisection runs on a
    /// freshly booted and warmed daemon, so every search starts from the
    /// same daemon state, whatever requests earlier verdicts happened to
    /// send. `floor` is the fixed phase's achieved rate.
    fn climb(
        args: &Args,
        daemon: Daemon,
        rung_s: f64,
        floor: f64,
        warm: (&[String], &[Reference]),
        out: &mut Outcome,
    ) -> Ladder {
        let mut l = Ladder {
            rungs: Vec::new(),
            results: Vec::new(),
            bracketed: false,
        };
        let (mut rate, mut hi) = (FIXED_RATE, None);
        for _ in 0..MAX_DOUBLINGS {
            rate *= 2.0;
            let k = l.rung(args, &daemon.socket, rate, rung_s);
            if !l.rungs[k].pass {
                hi = Some(rate);
                break;
            }
        }
        if let Err(e) = daemon.shutdown() {
            out.check("daemon shutdown", Err(e));
        }
        let Some(hi) = hi else { return l };
        l.bracketed = true;
        for _ in 0..SEARCHES {
            let Some((daemon, _)) = set_up(args, 1, warm.0, warm.1, out) else {
                return l;
            };
            let (mut a, mut b, mut best) = (hi / SEARCH_SPAN, hi, None);
            while b / a > LADDER_STEP {
                let rate = (a * b).sqrt();
                let k = l.rung(args, &daemon.socket, rate, rung_s);
                if l.rungs[k].pass {
                    (a, best) = (rate, Some(k));
                } else {
                    b = rate;
                }
            }
            if let Err(e) = daemon.shutdown() {
                out.check("daemon shutdown", Err(e));
            }
            let result = best.map_or(floor, |k| achieved_rate(&l.rungs[k].phase));
            println!("  search result: {result:.1} req/s");
            l.results.push(result);
        }
        l
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let fixed_s = args.seconds / 2.0;
    let fixed_n = (FIXED_RATE * fixed_s).round() as usize;
    let sat_n = (SATURATION_PER_S * args.seconds).round() as usize;
    let payloads = gen::serve_mix(args.seed, 0, fixed_n);
    let sat_payloads = gen::serve_mix(args.seed, 1, sat_n);
    let warm_payloads = gen::serve_warmup(args.seed);
    let warm = lines_for(&warm_payloads);
    println!(
        "serve-open: repro-serve --workers {WORKERS} --threads {WORKERS} (one serve worker and \
         one match thread; the defaults are 2 and 2, see WORKERS), {CONNECTIONS} pipelined \
         connection from {GENERATOR_THREADS} generator threads (sender + reader); set-up boots \
         the daemon {BOOTS} times, then warms every program once and fills its store ({} requests, \
         closed loop, untimed); fixed rate {FIXED_RATE} req/s for {fixed_s:.1} s ({fixed_n} \
         requests, 1 in 4 a bench key, the rest inline templates with fresh inputs), then \
         saturation: {sat_n} requests of the same mix with fresh inputs, {SATURATION_WINDOW} in \
         flight",
        warm.len()
    );
    let mut references = References::default();
    let refs = references.of(&payloads);
    let sat_refs = references.of(&sat_payloads);
    let warm_refs = references.of(&warm_payloads);

    let Some((daemon, boot_s)) = set_up(args, BOOTS, &warm, &warm_refs, out) else {
        return;
    };
    let fixed = drive(&daemon.socket, &lines_for(&payloads), FIXED_RATE);
    let peak = crate::peak_rss_mb(&daemon.pid().to_string()).unwrap_or(0.0);
    let (saturated, sat_rps) = saturate(&daemon.socket, &lines_for(&sat_payloads));
    let stats_doc = daemon.control("{\"op\":\"stats\"}").ok();
    if let Err(e) = daemon.shutdown() {
        out.check("daemon shutdown", Err(e));
    }

    check_phase(out, &fixed, &refs, true);
    check_phase(out, &saturated, &sat_refs, true);
    let lag = fixed.lag_p99();
    if lag > SEND_LAG_LIMIT_MS {
        out.invalid.push(format!(
            "generator send lag p99 {lag:.3} ms exceeds {SEND_LAG_LIMIT_MS} ms at the fixed rate"
        ));
    }
    let (fixed_pass, why) = rung_passes(&fixed);
    if !fixed_pass {
        out.invalid
            .push(format!("the fixed rate is not sub-saturation: {why}"));
    }
    let lat: Vec<f64> = fixed.ok().map(|a| a.latency_ms).collect();
    let (Some(s), Some(p99)) = (Summary::of(&lat, 900), Summary::of(&lat, 990)) else {
        out.check("fixed-rate phase", Err("no ok answers".into()));
        return;
    };
    out.set("setup_s", median(&boot_s));
    out.set("peak_rss_mb", peak);
    out.set("throughput_per_s", sat_rps);
    out.set("latency_ms_p50", s.p50);
    out.set("latency_ms_tail", s.tail);
    println!(
        "latency_ms_p50 = serve_ms_p50: {:.3} ms; latency_ms_tail = serve_ms_{}: {:.3} ms \
         (n={}, {} beyond); serve_ms_{}: {:.3} ms ({} beyond); from due time, at {FIXED_RATE} req/s",
        s.p50,
        s.tail_label(),
        s.tail,
        s.n,
        s.beyond,
        p99.tail_label(),
        p99.tail,
        p99.beyond
    );
    println!(
        "throughput_per_s = saturated answer rate: {sat_rps:.1} req/s, median over segments of \
         {SATURATION_SEGMENT} of n={} answers after a {LEAD_IN} lead-in, {SATURATION_WINDOW} in \
         flight (serve_max_rps, the rate ladder, is \
         the traced run's serve.max_rps)",
        saturated.ok().count()
    );
    println!(
        "serve.send_lag_ms_p99: {lag:.3} ms (limit {SEND_LAG_LIMIT_MS} ms; n={})",
        fixed.lag_ms.len()
    );
    println!(
        "setup_s: {:.4} s (median of n={BOOTS} daemon boots, spawn to first ping)",
        median(&boot_s)
    );
    println!("peak_rss_mb: {peak:.1} MB (daemon VmHWM after the fixed-rate phase, n=1)");
    if let Some(doc) = stats_doc {
        println!(
            "threads: daemon serve workers={WORKERS} (--workers), match-pool threads={} (stats), \
             connections={CONNECTIONS}, generator threads={GENERATOR_THREADS}",
            stats_num(&doc, &["engine", "workers"])
        );
    }
}

fn stats_num(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Per-layer numbers from two daemon `stats` answers.
fn publish_stats(out: &mut Outcome, before: &Json, after: &Json) {
    let delta = |path: &[&str]| stats_num(after, path) - stats_num(before, path);
    out.set("pool.jobs_executed", delta(&["engine", "jobs_executed"]));
    out.set("pool.jobs_stolen", delta(&["engine", "jobs_stolen"]));
    out.set(
        "pool.peak_queue_depth",
        stats_num(after, &["engine", "peak_queue_depth"]),
    );
    let (h, m) = (
        delta(&["engine", "cache_hits"]),
        delta(&["engine", "cache_misses"]),
    );
    out.set("engine.match_cache_hit_rate", ratio(h, h + m));
    out.set(
        "threads.engine_workers",
        stats_num(after, &["engine", "workers"]),
    );
    let rate = |stage: &str| {
        let h = delta(&["query", stage, "hits"]);
        ratio(h, h + delta(&["query", stage, "misses"]))
    };
    out.set("query.trace_hit_rate", rate("trace"));
    out.set("query.exec_hit_rate", rate("exec"));
    out.set("query.find_hit_rate", rate("find"));
    out.set("query.subddg_hit_rate", rate("subddg"));
    out.set("minc.fnir_hit_rate", rate("fnir"));
    let stages = [
        "programs",
        "fnir",
        "trace",
        "exec",
        "subddg",
        "find",
        "match_cache",
    ];
    out.set(
        "query.evictions",
        stages
            .iter()
            .map(|s| delta(&["query", s, "evictions"]))
            .sum(),
    );
    out.set(
        "query.store_bytes",
        stages
            .iter()
            .map(|s| stats_num(after, &["query", s, "approx_bytes"]))
            .sum(),
    );
}

pub fn traced(args: &Args, out: &mut Outcome) {
    let fixed_n = (FIXED_RATE * args.seconds / 2.0).round() as usize;
    let payloads = gen::serve_mix(args.seed, 0, fixed_n);
    let warm_payloads = gen::serve_warmup(args.seed);
    let warm = lines_for(&warm_payloads);
    let lines = lines_for(&payloads);
    let mut references = References::default();
    let refs = references.of(&payloads);
    let warm_refs = references.of(&warm_payloads);

    // The fixed-rate phase, with every round trip folded into the ledger.
    let Some((daemon, _)) = set_up(args, BOOTS, &warm, &warm_refs, out) else {
        return;
    };
    let before = daemon.control("{\"op\":\"stats\"}");
    let phase = drive(&daemon.socket, &lines, FIXED_RATE);
    let after = daemon.control("{\"op\":\"stats\"}");
    check_phase(out, &phase, &refs, true);

    // serve_max_rps: the rate ladder, from the same daemon.
    let rung_s = args.seconds * RUNG_SHARE;
    println!(
        "rate ladder: from {} req/s doubling to the first failure, then {SEARCHES} bisections \
         of [failing rate / {SEARCH_SPAN}, failing rate] to within x{LADDER_STEP}, each on a \
         freshly booted and warmed daemon, {rung_s:.2} s a rung, each rung with fresh inputs",
        2.0 * FIXED_RATE
    );
    let ladder = Ladder::climb(args, daemon, rung_s, achieved_rate(&phase), (&warm, &warm_refs), out);
    for rung in &ladder.rungs {
        check_phase(out, &rung.phase, &references.of(&rung.payloads), false);
    }
    if ladder.results.len() < SEARCHES {
        out.check(
            "rate ladder",
            Err(format!("{} of {SEARCHES} searches ran", ladder.results.len())),
        );
    } else {
        let max_rps = median(&ladder.results);
        out.set("serve.max_rps", max_rps);
        println!(
            "serve_max_rps: {max_rps:.1} req/s, median of n={SEARCHES} searches' achieved rates at \
             their highest passing rung ({} rungs in all; a rung passes with {} <= \
             {LATENCY_LIMIT_MS} ms, nothing refused, no growing backlog)",
            ladder.rungs.len(),
            stats::pct_label(990)
        );
    }
    if let (Ok(b), Ok(a)) = (&before, &after) {
        publish_stats(out, b, a);
    }
    let ok: Vec<&Answer> = phase.ok().collect();
    let compute: Vec<f64> = ok.iter().map(|a| a.trace_ms + a.find_ms).collect();
    let wait: Vec<f64> = ok
        .iter()
        .map(|a| a.latency_ms - a.trace_ms - a.find_ms)
        .collect();
    if let (Some(w), Some(c)) = (Summary::of(&wait, 990), Summary::of(&compute, 990)) {
        out.set("serve.wait_ms_p50", w.p50);
        out.set("serve.wait_ms_p99", w.tail);
        out.set("serve.compute_ms_p50", c.p50);
        out.set("engine.request_ms_p50", c.p50);
        println!(
            "serve.wait_ms: p50 {:.3} ms, {} {:.3} ms (n={}, {} beyond); compute p50 {:.3} ms",
            w.p50,
            w.tail_label(),
            w.tail,
            w.n,
            w.beyond,
            c.p50
        );
    }
    let n_ok = ok.len() as f64;
    out.set(
        "serve.coalesced_share",
        ratio(ok.iter().filter(|a| a.coalesced).count() as f64, n_ok),
    );
    out.set(
        "serve.query_hit_share",
        ratio(ok.iter().filter(|a| a.query_hit).count() as f64, n_ok),
    );
    let overloaded = phase
        .answers
        .iter()
        .flatten()
        .filter(|a| a.status == "overloaded")
        .count();
    out.set(
        "serve.overloaded_share",
        ratio(overloaded as f64, phase.answers.len() as f64),
    );
    out.set("serve.send_lag_ms_p99", phase.lag_p99());
    let lat: Vec<f64> = ok.iter().map(|a| a.latency_ms).collect();
    if let Some(s) = Summary::of(&lat, 990) {
        out.set("serve.latency_ms_p99", s.tail);
        println!(
            "serve_ms_p50 {:.3} ms, serve_ms_{} {:.3} ms (n={}, {} beyond)",
            s.p50,
            s.tail_label(),
            s.tail,
            s.n,
            s.beyond
        );
    }
    let fresh: Vec<&&Answer> = ok.iter().filter(|a| !a.query_hit).collect();
    out.set("trace.run_ms", fresh.iter().map(|a| a.trace_ms).sum());
    out.set("trace.ddg_nodes", fresh.iter().map(|a| a.ddg_size).sum());
    let lag_total: f64 = phase.lag_ms.iter().sum();
    let compute_total: f64 = compute.iter().sum();
    let latency_total: f64 = ok.iter().map(|a| a.latency_ms).sum();
    let unattributed = latency_total - compute_total - lag_total;
    out.set("unattributed_ms", unattributed);
    print_ledger(
        "serve-open, fixed rate, latency from due time summed over ok answers",
        &[
            ("generator send lag".to_string(), lag_total),
            ("daemon trace_ms + find_ms".to_string(), compute_total),
            ("unattributed".to_string(), unattributed),
        ],
    );
    println!(
        "Fig. 7 split: not observable from outside the daemon (responses carry trace_ms and \
         find_ms only); share.* read 0 on this workload"
    );
    // The ledger is folded from the answers the untraced run receives
    // as well: this run adds no spans.
    out.set("trace_overhead_share", 0.0);
    println!("tracing overhead: 0 by construction (the traced run records no extra spans)");
    out.set("threads.connections", CONNECTIONS as f64);
    println!(
        "threads: daemon serve workers={WORKERS}, connections={CONNECTIONS}, generator \
         threads={GENERATOR_THREADS}"
    );
}
