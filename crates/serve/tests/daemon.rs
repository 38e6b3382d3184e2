//! Daemon lifecycle tests over a real unix socket: admission control
//! under overload, per-tenant quota fairness, per-connection
//! backpressure, graceful shutdown draining, and inline protocol
//! errors. Every test runs its own daemon on its own socket; the
//! shared invariant throughout is *one labeled response per request* —
//! nothing hangs, nothing is dropped, no worker is lost.

use obs::json::{parse, Json};
use repro_serve::{QuotaConfig, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// A fast inline request: a 4-element map, a few milliseconds end to
/// end even in debug builds.
const FAST_SRC: &str = "float in[4];\nfloat out[4];\nvoid main() {\n  int i;\n  \
     for (i = 0; i < 4; i++) {\n    out[i] = in[i] * 2.0 + 1.0;\n  }\n  output(out);\n}\n";

/// A slow inline request: 1600 serial inner iterations give the match
/// phase a ~100 ms DDG, long enough to keep a worker visibly busy.
const SLOW_SRC: &str = "float out[16];\nvoid main() {\n  int i;\n  int j;\n  \
     for (i = 0; i < 16; i++) {\n    float acc = 0.0;\n    \
     for (j = 0; j < 100; j++) {\n      acc = acc + 0.5;\n    }\n    out[i] = acc;\n  }\n  \
     output(out);\n}\n";

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "repro-serve-test-{}-{tag}.sock",
        std::process::id()
    ))
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        socket: sock(tag),
        workers: 2,
        analysis_threads: 2,
        ..ServeConfig::default()
    }
}

fn analyze_line(id: &str, tenant: &str, source: &str) -> String {
    let mut line = String::new();
    line.push_str("{\"op\":\"analyze\",\"id\":");
    serde::ser_str(&mut line, id);
    line.push_str(",\"tenant\":");
    serde::ser_str(&mut line, tenant);
    line.push_str(",\"source\":");
    serde::ser_str(&mut line, source);
    line.push('}');
    line
}

struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = UnixStream::connect(server.socket()).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        let mut s = &self.stream;
        s.write_all(line.as_bytes()).expect("send request");
        s.write_all(b"\n").expect("send newline");
        s.flush().expect("flush request");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection mid-conversation");
        parse(line.trim_end()).expect("response parses as JSON")
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn status_of(doc: &Json) -> &str {
    doc.get("status")
        .and_then(Json::as_str)
        .expect("status field")
}

fn id_of(doc: &Json) -> &str {
    doc.get("id").and_then(Json::as_str).expect("id field")
}

/// Reads `n` responses and buckets them: id → status.
fn collect(client: &mut Client, n: usize) -> HashMap<String, String> {
    (0..n)
        .map(|_| {
            let doc = client.recv();
            (id_of(&doc).to_string(), status_of(&doc).to_string())
        })
        .collect()
}

#[test]
fn analyze_stats_and_shutdown_round_trip() {
    let server = Server::start(config("roundtrip")).unwrap();
    let mut client = Client::connect(&server);

    let doc = client.request(r#"{"op":"ping"}"#);
    assert_eq!(status_of(&doc), "ok");

    for i in 0..3 {
        let doc = client.request(&analyze_line(&format!("r{i}"), "t", FAST_SRC));
        assert_eq!(status_of(&doc), "ok", "{doc:?}");
        assert_eq!(id_of(&doc), format!("r{i}"));
        assert_eq!(doc.get("patterns").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("degraded"), Some(&Json::Bool(false)));
        // Identical repeats are answered out of the query store.
        assert_eq!(doc.get("query_hit"), Some(&Json::Bool(i > 0)), "{doc:?}");
    }
    // The repeats hit the shared query store above the match cache.
    let doc = client.request(r#"{"op":"stats"}"#);
    assert_eq!(status_of(&doc), "ok");
    let serve = doc.get("serve").expect("serve section");
    assert_eq!(serve.get("requests").and_then(Json::as_f64), Some(3.0));
    assert_eq!(serve.get("ok").and_then(Json::as_f64), Some(3.0));
    assert_eq!(serve.get("worker_lost").and_then(Json::as_f64), Some(0.0));
    let engine = doc.get("engine").expect("engine section");
    assert!(engine.get("cache_capacity").and_then(Json::as_f64).unwrap() > 0.0);
    let query = doc.get("query").expect("query section");
    let trace = query.get("trace").expect("trace stage");
    assert!(
        trace.get("hits").and_then(Json::as_f64).unwrap() >= 2.0,
        "repeat requests must be trace-stage hits: {query:?}"
    );
    // The match stage reports the same counter set as every other stage.
    let Some(Json::Obj(match_cache)) = query.get("match_cache") else {
        panic!("match_cache stage object: {query:?}")
    };
    let keys: Vec<&str> = match_cache.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "entries",
            "capacity",
            "capacity_bytes",
            "hits",
            "misses",
            "evictions",
            "approx_bytes",
            "poison_recoveries"
        ]
    );

    let doc = client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(status_of(&doc), "ok");
    server.join();
    assert!(!sock("roundtrip").exists(), "socket file survives shutdown");
}

#[test]
fn tenant_quotas_are_independent_under_exhaustion() {
    let mut cfg = config("quota");
    cfg.quota = QuotaConfig {
        burst: 3,
        refill_per_sec: 0.0,
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);

    // The flooding tenant gets exactly its burst, then labeled
    // rejections — not hangs, not errors.
    let mut flood_ok = 0;
    let mut flood_quota = 0;
    for i in 0..6 {
        let doc = client.request(&analyze_line(&format!("f{i}"), "flood", FAST_SRC));
        match status_of(&doc) {
            "ok" => flood_ok += 1,
            "quota" => {
                flood_quota += 1;
                let msg = doc.get("error").and_then(Json::as_str).unwrap();
                assert!(msg.contains("flood"), "error names the tenant: {msg}");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!((flood_ok, flood_quota), (3, 3));

    // A calm tenant is untouched by the flood next door.
    for i in 0..3 {
        let doc = client.request(&analyze_line(&format!("c{i}"), "calm", FAST_SRC));
        assert_eq!(status_of(&doc), "ok", "{doc:?}");
    }

    let m = server.metrics();
    assert_eq!(m.quota, 3);
    assert_eq!(m.ok, 6);
    server.shutdown();
    server.join();
}

#[test]
fn full_admission_queue_rejects_with_overloaded() {
    let mut cfg = config("overload");
    cfg.workers = 1;
    cfg.analysis_threads = 1;
    cfg.admission_capacity = 1;
    cfg.conn_window = 16;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);

    // One slow request occupies the single worker; ten fast requests
    // pile onto a one-deep queue.
    client.send(&analyze_line("slow", "t", SLOW_SRC));
    for i in 0..10 {
        client.send(&analyze_line(&format!("fast{i}"), "t", FAST_SRC));
    }
    let statuses = collect(&mut client, 11);

    // The invariant under overload: every request answered, every
    // answer labeled, nothing lost.
    assert_eq!(statuses.len(), 11, "every id answered exactly once");
    assert_eq!(statuses["slow"], "ok");
    let overloaded = statuses.values().filter(|s| *s == "overloaded").count();
    let ok = statuses.values().filter(|s| *s == "ok").count();
    assert_eq!(ok + overloaded, 11, "{statuses:?}");
    assert!(overloaded >= 8, "tiny queue must shed load: {statuses:?}");

    let m = server.metrics();
    assert_eq!(m.overloaded as usize, overloaded);
    assert_eq!(m.worker_lost, 0);
    server.shutdown();
    server.join();
}

#[test]
fn conn_window_backpressures_without_losing_requests() {
    let mut cfg = config("window");
    cfg.conn_window = 1;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);

    // Six pipelined requests against a window of one: the daemon's
    // reader stalls instead of queueing, and every request still gets
    // its answer.
    for i in 0..6 {
        client.send(&analyze_line(&format!("w{i}"), "t", FAST_SRC));
    }
    let statuses = collect(&mut client, 6);
    assert_eq!(statuses.len(), 6);
    assert!(
        statuses.values().all(|s| s == "ok"),
        "window is backpressure, not rejection: {statuses:?}"
    );
    assert_eq!(server.metrics().overloaded, 0);
    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut cfg = config("drain");
    cfg.workers = 2;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);

    // Pipeline four requests (the slow ones keep workers busy) and a
    // shutdown right behind them on the same connection.
    client.send(&analyze_line("d0", "t", SLOW_SRC));
    client.send(&analyze_line("d1", "t", FAST_SRC));
    client.send(&analyze_line("d2", "t", SLOW_SRC));
    client.send(&analyze_line("d3", "t", FAST_SRC));
    client.send(r#"{"op":"shutdown"}"#);

    // Every in-flight analysis completes with a result; the shutdown
    // response arrives strictly after them.
    let mut seen = Vec::new();
    for _ in 0..5 {
        let doc = client.recv();
        assert_eq!(status_of(&doc), "ok", "{doc:?}");
        seen.push((
            id_of(&doc).to_string(),
            doc.get("op").and_then(Json::as_str).map(str::to_string),
        ));
    }
    assert_eq!(
        seen.last().unwrap().1.as_deref(),
        Some("shutdown"),
        "shutdown answers after the drain: {seen:?}"
    );
    let analyzed: Vec<&str> = seen[..4].iter().map(|(id, _)| id.as_str()).collect();
    for id in ["d0", "d1", "d2", "d3"] {
        assert!(analyzed.contains(&id), "{id} unanswered: {seen:?}");
    }

    let m = server.metrics();
    assert_eq!(m.ok, 4);
    assert_eq!(m.worker_lost, 0);
    assert_eq!(m.internal_errors, 0);
    server.join();
    assert!(!sock("drain").exists(), "socket file survives shutdown");
}

#[test]
fn requests_after_drain_are_rejected_as_overloaded() {
    let server = Server::start(config("after-drain")).unwrap();
    let mut warm = Client::connect(&server);
    assert_eq!(
        status_of(&warm.request(&analyze_line("a", "t", FAST_SRC))),
        "ok"
    );

    // A second connection is mid-conversation while the daemon drains.
    let mut late = Client::connect(&server);
    let done = warm.request(r#"{"op":"shutdown"}"#);
    assert_eq!(status_of(&done), "ok");
    late.send(&analyze_line("late", "t", FAST_SRC));
    // The late request gets a labeled rejection or a clean EOF (the
    // daemon may already have closed the socket) — never a hang.
    let mut line = String::new();
    let n = late.reader.read_line(&mut line).unwrap_or(0);
    if n > 0 {
        let doc = parse(line.trim_end()).expect("response parses");
        assert_eq!(status_of(&doc), "overloaded", "{doc:?}");
    }
    server.join();
}

#[test]
fn protocol_errors_are_answered_inline_and_do_not_wedge_the_daemon() {
    let server = Server::start(config("bad")).unwrap();
    let mut client = Client::connect(&server);

    let doc = client.request("this is not json");
    assert_eq!(status_of(&doc), "bad_request");
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("malformed"));

    let doc = client.request(r#"{"op":"analyze","id":"x","bench":"linpack"}"#);
    assert_eq!(status_of(&doc), "bad_request");
    let msg = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("unknown benchmark \"linpack\""), "{msg}");
    assert!(msg.contains("available:"), "{msg}");
    assert!(msg.contains("rgbyuv"), "{msg}");

    let doc = client.request(r#"{"op":"analyze","id":"x","bench":"rgbyuv","version":"cuda"}"#);
    assert_eq!(status_of(&doc), "bad_request");

    let doc = client.request(r#"{"op":"analyze","id":"x","source":"void main() {"}"#);
    assert_eq!(status_of(&doc), "bad_request");
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("minc"));

    let doc = client.request(r#"{"op":"trace_dump","path":"/tmp/unused.json"}"#);
    assert_eq!(status_of(&doc), "bad_request");
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("--obs"));

    // The daemon is unimpressed and keeps serving.
    let doc = client.request(&analyze_line("after", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok");
    let m = server.metrics();
    assert_eq!(m.bad_requests, 4);
    assert_eq!(m.ok, 1);
    server.shutdown();
    server.join();
}

#[test]
fn deadline_consumed_in_queue_sheds_instead_of_working() {
    // One worker pinned on a slow request; a queued request whose
    // deadline is already spent must be answered `overloaded` without
    // burning the worker on doomed work.
    let mut cfg = config("shed");
    cfg.workers = 1;
    cfg.analysis_threads = 1;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);
    client.send(&analyze_line("plug", "t", SLOW_SRC));
    let mut doomed = String::new();
    doomed.push_str(
        "{\"op\":\"analyze\",\"id\":\"doomed\",\"tenant\":\"t\",\"deadline_ms\":0,\"source\":",
    );
    serde::ser_str(&mut doomed, FAST_SRC);
    doomed.push('}');
    client.send(&doomed);
    let statuses = collect(&mut client, 2);
    assert_eq!(statuses["plug"], "ok", "{statuses:?}");
    assert_eq!(statuses["doomed"], "overloaded", "{statuses:?}");
    let m = server.metrics();
    assert!(
        m.shed >= 1,
        "shed counter must record the early answer: {m:?}"
    );
    // Shed answers carry an explanatory message.
    let doc = client.request(r#"{"op":"stats"}"#);
    let serve = doc.get("serve").expect("serve section");
    assert!(serve.get("shed").and_then(Json::as_f64).unwrap() >= 1.0);
    server.shutdown();
    server.join();
}

#[test]
fn stats_report_uptime_and_resilience_counters() {
    let server = Server::start(config("stats-resil")).unwrap();
    let mut client = Client::connect(&server);
    std::thread::sleep(std::time::Duration::from_millis(10));
    let doc = client.request(r#"{"op":"stats"}"#);
    assert_eq!(status_of(&doc), "ok");
    assert!(doc.get("uptime_ms").and_then(Json::as_f64).unwrap() >= 10.0);
    assert!(doc.get("breaker_opens").and_then(Json::as_f64).is_some());
    assert!(doc.get("breaker_open").and_then(Json::as_f64).is_some());
    let serve = doc.get("serve").expect("serve section");
    for key in [
        "shed",
        "workers_respawned",
        "workers_stalled",
        "oversized_lines",
        "stale_takeovers",
    ] {
        assert_eq!(
            serve.get(key).and_then(Json::as_f64),
            Some(0.0),
            "calm daemon reports zero {key}"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn startup_takes_over_a_crashed_predecessors_stale_socket() {
    // A predecessor that crashed leaves its socket file behind with
    // nothing listening. Startup must detect the corpse and take over.
    let path = sock("stale");
    let _ = std::fs::remove_file(&path);
    drop(std::os::unix::net::UnixListener::bind(&path).expect("plant stale socket"));
    assert!(path.exists(), "stale socket file planted");

    let mut cfg = config("stale");
    cfg.probe_timeout_ms = 200;
    let server = Server::start(cfg).expect("take over the stale socket");
    let mut client = Client::connect(&server);
    let doc = client.request(&analyze_line("reborn", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok");
    assert_eq!(server.metrics().stale_takeovers, 1);
    server.shutdown();
    server.join();
}

#[test]
fn startup_takes_over_a_hung_predecessors_socket() {
    // A predecessor that still accepts but never answers ping (hung
    // accept loop) is as dead as a corpse: the probe times out and the
    // new daemon takes the address.
    let path = sock("hung");
    let _ = std::fs::remove_file(&path);
    let hung = std::os::unix::net::UnixListener::bind(&path).expect("plant hung daemon");
    let keepalive = std::thread::spawn(move || {
        // Accept connections and hold them open without answering.
        let mut held = Vec::new();
        while let Ok((conn, _)) = hung.accept() {
            held.push(conn);
            if held.len() >= 2 {
                break;
            }
        }
    });

    let mut cfg = config("hung");
    cfg.probe_timeout_ms = 100;
    let server = Server::start(cfg).expect("take over the hung socket");
    let mut client = Client::connect(&server);
    let doc = client.request(r#"{"op":"ping"}"#);
    assert_eq!(status_of(&doc), "ok");
    assert_eq!(server.metrics().stale_takeovers, 1);
    server.shutdown();
    server.join();
    drop(keepalive); // the hung listener thread dies with the process
}

#[test]
fn startup_refuses_to_evict_a_live_daemon() {
    let server = Server::start(config("live")).unwrap();
    let err = match Server::start(config("live")) {
        Ok(_) => panic!("second daemon must refuse to start"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The incumbent is unharmed by the probe.
    let mut client = Client::connect(&server);
    let doc = client.request(&analyze_line("still-here", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok");
    server.shutdown();
    server.join();
}

#[test]
fn bench_requests_share_the_compiled_program_and_cache() {
    let server = Server::start(config("bench")).unwrap();
    let mut client = Client::connect(&server);
    for i in 0..4 {
        let doc = client.request(&format!(
            r#"{{"op":"analyze","id":"b{i}","tenant":"t","bench":"rgbyuv"}}"#
        ));
        assert_eq!(status_of(&doc), "ok", "{doc:?}");
        assert!(doc.get("patterns").and_then(Json::as_f64).unwrap() >= 1.0);
        // Identical repeats never recompute: they replay from the query store.
        assert_eq!(doc.get("query_hit"), Some(&Json::Bool(i > 0)), "{doc:?}");
    }
    let em = server.engine_metrics();
    assert_eq!(em.cache_evictions, 0);
    server.shutdown();
    server.join();
}

#[test]
fn request_id_alias_is_accepted_and_echoed() {
    let server = Server::start(config("reqid")).unwrap();
    let mut client = Client::connect(&server);
    let doc = client.request(&format!(
        r#"{{"op":"analyze","request_id":"corr-1","tenant":"t","source":{FAST_SRC:?}}}"#
    ));
    assert_eq!(status_of(&doc), "ok", "{doc:?}");
    assert_eq!(id_of(&doc), "corr-1");
    server.shutdown();
    server.join();
}

#[test]
fn stats_surface_slo_latency_and_rates() {
    let server = Server::start(config("slostats")).unwrap();
    let mut client = Client::connect(&server);
    for i in 0..3 {
        let doc = client.request(&analyze_line(&format!("s{i}"), "acme", FAST_SRC));
        assert_eq!(status_of(&doc), "ok", "{doc:?}");
    }
    let doc = client.request(r#"{"op":"stats"}"#);
    assert_eq!(status_of(&doc), "ok");
    for key in ["uptime_ms", "requests_per_s", "ok_per_s", "flight_recorded"] {
        assert!(
            doc.get(key).and_then(Json::as_f64).is_some(),
            "stats missing {key}: {doc:?}"
        );
    }
    assert!(doc.get("requests_per_s").and_then(Json::as_f64).unwrap() > 0.0);
    let slo = doc.get("slo").expect("slo section");
    assert_eq!(slo.get("total").and_then(Json::as_f64), Some(3.0));
    assert_eq!(slo.get("bad").and_then(Json::as_f64), Some(0.0));
    assert_eq!(slo.get("short_burn").and_then(Json::as_f64), Some(0.0));
    assert_eq!(slo.get("long_burn").and_then(Json::as_f64), Some(0.0));
    // Per-op and per-tenant latency quantiles from the daemon's own
    // histograms (shared registry: filter to this server's tenant).
    let latency = doc.get("latency").and_then(Json::as_arr).expect("latency");
    let names: Vec<&str> = latency
        .iter()
        .filter_map(|h| h.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.contains(&"serve.latency.op.analyze"),
        "latency section lacks the analyze op histogram: {names:?}"
    );
    assert!(
        names.contains(&"serve.latency.tenant.acme"),
        "latency section lacks the tenant histogram: {names:?}"
    );
    for h in latency {
        if h.get("name").and_then(Json::as_str) == Some("serve.latency.tenant.acme") {
            assert_eq!(h.get("count").and_then(Json::as_f64), Some(3.0));
            let p50 = h.get("p50_ms").and_then(Json::as_f64).unwrap();
            let p999 = h.get("p999_ms").and_then(Json::as_f64).unwrap();
            assert!(p50 > 0.0 && p999 >= p50, "p50 {p50} p999 {p999}");
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn blackbox_op_dumps_the_flight_recorder() {
    let server = Server::start(config("blackbox")).unwrap();
    let mut client = Client::connect(&server);
    let doc = client.request(&analyze_line("bb1", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok");

    let path = std::env::temp_dir().join(format!("repro-blackbox-{}.json", std::process::id()));
    let doc = client.request(&format!(
        r#"{{"op":"blackbox","path":{:?}}}"#,
        path.display()
    ));
    assert_eq!(status_of(&doc), "ok", "{doc:?}");
    let events = doc.get("events").and_then(Json::as_f64).expect("events");
    assert!(events >= 3.0, "enqueue+pickup+answer at minimum: {doc:?}");
    let dump = std::fs::read_to_string(&path).expect("dump written");
    let parsed = parse(&dump).expect("dump parses");
    let listed = parsed.get("events").and_then(Json::as_arr).expect("events");
    assert_eq!(listed.len() as f64, events);
    // The analyze request's trail is reconstructable from the dump.
    for kind in ["enqueue", "pickup", "answer"] {
        assert!(
            listed.iter().any(|e| {
                e.get("kind").and_then(Json::as_str) == Some(kind)
                    && e.get("request_id").and_then(Json::as_str) == Some("bb1")
            }),
            "no {kind} event for bb1 in the dump"
        );
    }
    std::fs::remove_file(&path).ok();
    server.shutdown();
    server.join();
}

#[test]
fn dump_ops_refuse_bad_paths_with_structured_errors() {
    let server = Server::start(config("badpath")).unwrap();
    let mut client = Client::connect(&server);
    let dir = std::env::temp_dir();
    let missing_parent = dir.join("no-such-dir-for-sure").join("dump.json");
    for op in ["trace_dump", "blackbox"] {
        // Missing parent directory: a structured bad_request, not an
        // io panic or internal_error.
        let doc = client.request(&format!(
            r#"{{"op":{op:?},"path":{:?}}}"#,
            missing_parent.display()
        ));
        assert_eq!(status_of(&doc), "bad_request", "{op}: {doc:?}");
        // A directory as the target: same.
        let doc = client.request(&format!(r#"{{"op":{op:?},"path":{:?}}}"#, dir.display()));
        assert_eq!(status_of(&doc), "bad_request", "{op}: {doc:?}");
    }
    // The daemon is still healthy afterwards.
    let doc = client.request(r#"{"op":"ping"}"#);
    assert_eq!(status_of(&doc), "ok");
    let metrics = server.metrics();
    assert_eq!(metrics.internal_errors, 0);
    server.shutdown();
    server.join();
}

#[test]
fn subscribe_streams_metric_deltas_and_ends() {
    let server = Server::start(config("subscribe")).unwrap();
    let mut client = Client::connect(&server);
    let ack = client.request(r#"{"op":"subscribe","interval_ms":20,"ticks":3}"#);
    assert_eq!(status_of(&ack), "ok");
    assert_eq!(
        ack.get("op").and_then(Json::as_str),
        Some("subscribe"),
        "{ack:?}"
    );
    // Drive some load from a second connection while the stream runs.
    let mut worker = Client::connect(&server);
    for i in 0..2 {
        let doc = worker.request(&analyze_line(&format!("sub{i}"), "t", FAST_SRC));
        assert_eq!(status_of(&doc), "ok");
    }
    let mut ticks = 0u64;
    loop {
        let doc = client.recv();
        match doc.get("op").and_then(Json::as_str) {
            Some("metrics") => {
                ticks += 1;
                for key in [
                    "tick",
                    "uptime_ms",
                    "queue_depth",
                    "requests_delta",
                    "ok_delta",
                    "rejected_delta",
                    "errors_delta",
                    "slo_short_burn",
                    "slo_long_burn",
                ] {
                    assert!(
                        doc.get(key).and_then(Json::as_f64).is_some(),
                        "metrics tick missing {key}: {doc:?}"
                    );
                }
                assert!(doc.get("serve").is_some(), "tick lacks serve counters");
            }
            Some("subscribe_end") => break,
            other => panic!("unexpected stream line op {other:?}: {doc:?}"),
        }
    }
    assert_eq!(ticks, 3, "bounded subscription delivers exactly its ticks");
    // The deltas across the stream must have seen the worker's load.
    server.shutdown();
    server.join();
}

#[test]
fn prometheus_op_returns_a_valid_scrape() {
    let server = Server::start(config("prom")).unwrap();
    let mut client = Client::connect(&server);
    let doc = client.request(&analyze_line("p1", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok");
    let doc = client.request(r#"{"op":"prometheus"}"#);
    assert_eq!(status_of(&doc), "ok", "{doc:?}");
    assert_eq!(
        doc.get("content_type").and_then(Json::as_str),
        Some("text/plain; version=0.0.4")
    );
    let text = doc.get("text").and_then(Json::as_str).expect("text");
    let summary = obs::validate_prometheus_text(text).expect("scrape validates");
    assert!(summary.samples > 0);
    assert!(
        summary
            .families
            .iter()
            .any(|f| f == "modernize_serve_requests_total"),
        "scrape lacks the serve request counter: {:?}",
        summary.families
    );
    assert!(
        summary
            .families
            .iter()
            .any(|f| f.starts_with("modernize_serve_latency_op_analyze")),
        "scrape lacks the analyze latency summary: {:?}",
        summary.families
    );
    server.shutdown();
    server.join();
}

#[test]
fn restart_with_populated_cache_serves_first_repeat_as_query_hit() {
    let dir = std::env::temp_dir().join(format!("repro-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: populate the store, then shut down cleanly — the
    // clean stop rewrites the persistent segments.
    let mut cfg = config("restart-a");
    cfg.cache_dir = Some(dir.clone());
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);
    let doc = client.request(&analyze_line("warm", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok", "{doc:?}");
    assert_eq!(doc.get("query_hit"), Some(&Json::Bool(false)), "{doc:?}");
    let doc = client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(status_of(&doc), "ok");
    server.join();

    // Second life: the very first repeated request must replay from
    // the reloaded store, never re-tracing.
    let mut cfg = config("restart-b");
    cfg.cache_dir = Some(dir.clone());
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server);
    let doc = client.request(&analyze_line("replay", "t", FAST_SRC));
    assert_eq!(status_of(&doc), "ok", "{doc:?}");
    assert_eq!(
        doc.get("query_hit"),
        Some(&Json::Bool(true)),
        "first repeat after restart must be a query hit: {doc:?}"
    );
    let doc = client.request(r#"{"op":"stats"}"#);
    let load = doc.get("cache_load").expect("cache_load section");
    assert!(
        load.get("records_loaded").and_then(Json::as_f64).unwrap() >= 2.0,
        "restart must reload the trace and find segments: {load:?}"
    );
    assert_eq!(
        load.get("corrupt_records").and_then(Json::as_f64),
        Some(0.0)
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_computation() {
    let server = Server::start(config("coalesce")).unwrap();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);

    // The leader starts a slow analysis; the identical follower lands
    // while it is in flight and must share the computation rather than
    // recompute (or queue behind it in the store — the coalesce path is
    // what the counter proves).
    a.send(&analyze_line("leader", "t", SLOW_SRC));
    b.send(&analyze_line("follower", "t", SLOW_SRC));
    let ra = a.recv();
    let rb = b.recv();
    assert_eq!(status_of(&ra), "ok", "{ra:?}");
    assert_eq!(status_of(&rb), "ok", "{rb:?}");
    assert_eq!(id_of(&ra), "leader");
    assert_eq!(id_of(&rb), "follower");
    // Both see the same analysis.
    assert_eq!(ra.get("patterns"), rb.get("patterns"));

    let doc = a.request(r#"{"op":"stats"}"#);
    let serve = doc.get("serve").expect("serve section");
    assert!(
        serve.get("coalesced").and_then(Json::as_f64).unwrap() >= 1.0,
        "identical in-flight requests must coalesce: {serve:?}"
    );
    server.shutdown();
    server.join();
}
