//! Incremental correctness (DESIGN.md §18): replaying an edited
//! program against a warmed query store must be **byte-identical** to
//! analyzing it cold, and invalidation must be precise — editing one
//! loop must not recompute the other loop's match queries.
//!
//! The edit generator is a property test: each case picks a Starbench
//! benchmark, a version, and a random fractional digit of a float
//! literal to mutate — a single-loop constant edit that always
//! re-compiles, sometimes re-traces to the same DDG (the
//! exec-fingerprint fast path) and sometimes changes data-dependent
//! behavior entirely. Either way the contract is the same: the
//! incremental answer equals the cold answer, byte for byte — down to
//! identical trace errors when an edit pushes an index out of range.

use proptest::prelude::*;
use repro_engine::{AnalysisRequest, Engine, EngineConfig, EngineError};
use repro_query::{pattern_signature, QueryConfig, QueryDb};
use starbench::{all_benchmarks, Benchmark, Version};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

fn engine_on(db: &Arc<QueryDb>) -> Engine {
    Engine::with_query(
        EngineConfig {
            workers: 2,
            max_concurrent_requests: 1,
            ..EngineConfig::default()
        },
        Arc::clone(db),
    )
}

fn fresh() -> (Arc<QueryDb>, Engine) {
    let db = Arc::new(QueryDb::full(QueryConfig::default()));
    let engine = engine_on(&db);
    (db, engine)
}

/// Byte offsets (per file) of fractional digits of float literals — a
/// digit directly following `<digit>.`. Mutating one is always a
/// valid, same-length, single-constant edit (loop bounds are integer
/// literals and stay untouched).
fn editable_digits(src: &str) -> Vec<usize> {
    let b = src.as_bytes();
    (2..b.len())
        .filter(|&i| b[i - 1] == b'.' && b[i].is_ascii_digit() && b[i - 2].is_ascii_digit())
        .collect()
}

/// Fallback for all-integer benchmarks (md5): the *last* digit of a
/// multi-digit integer literal. The edit changes the constant by at
/// most ±9, so even a mutated loop bound stays the same order of
/// magnitude; if it pushes an index out of range, cold and warm must
/// agree on the error.
fn editable_int_digits(src: &str) -> Vec<usize> {
    let b = src.as_bytes();
    (1..b.len())
        .filter(|&i| {
            b[i].is_ascii_digit()
                && b[i - 1].is_ascii_digit()
                && b.get(i + 1)
                    .is_none_or(|&c| !c.is_ascii_digit() && c != b'.')
        })
        .collect()
}

/// One chosen single-constant edit applied to one file of a benchmark.
/// `site` and `delta` come from the proptest strategy; the same pair
/// always produces the same edit (failures are reproducible).
fn edited_sources(bench: &Benchmark, v: Version, site: u64, delta: u8) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = bench
        .files(v)
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    // Flatten every editable digit across files, then pick one.
    let mut sites: Vec<(usize, usize)> = out
        .iter()
        .enumerate()
        .flat_map(|(f, (_, s))| editable_digits(s).into_iter().map(move |p| (f, p)))
        .collect();
    if sites.is_empty() {
        sites = out
            .iter()
            .enumerate()
            .flat_map(|(f, (_, s))| editable_int_digits(s).into_iter().map(move |p| (f, p)))
            .collect();
    }
    assert!(
        !sites.is_empty(),
        "{}: no float literal to edit",
        bench.name
    );
    let (file, pos) = sites[(site % sites.len() as u64) as usize];
    let mut bytes = std::mem::take(&mut out[file].1).into_bytes();
    bytes[pos] = b'0' + (bytes[pos] - b'0' + 1 + delta % 9) % 10;
    out[file].1 = String::from_utf8(bytes).expect("digit splice keeps UTF-8");
    out
}

fn compile(name: &str, files: &[(String, String)]) -> repro_ir::Program {
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    minc::compile_files(name, &refs).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn request(id: &str, bench: &Benchmark, program: repro_ir::Program) -> AnalysisRequest {
    AnalysisRequest {
        id: id.to_string(),
        program,
        input: (bench.analysis_input)(),
        config: Default::default(),
    }
}

/// One warm engine per benchmark-version, seeded with the unedited
/// program and shared across cases — exactly how a daemon's store
/// accumulates history across many edits of the same program.
fn warm_engine(bench: &Benchmark, v: Version) -> Arc<Mutex<Engine>> {
    static WARM: OnceLock<Mutex<HashMap<String, Arc<Mutex<Engine>>>>> = OnceLock::new();
    let name = format!("{}-{}", bench.name, v.name());
    let map = WARM.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    Arc::clone(map.entry(name.clone()).or_insert_with(|| {
        let (_db, engine) = fresh();
        let unedited: Vec<(String, String)> = bench
            .files(v)
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect();
        let seed = engine.analyze_one(request("seed", bench, compile(&name, &unedited)));
        seed.outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} seed: {e}"));
        Arc::new(Mutex::new(engine))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The property: for random single-constant edits over the whole
    /// corpus, incremental ≡ cold, byte for byte. Trace errors (an
    /// edit can push data-dependent indices out of range) must agree
    /// too.
    #[test]
    fn random_single_loop_edits_replay_byte_identically(
        bench_idx in 0usize..8,
        seq in any::<bool>(),
        site in any::<u64>(),
        delta in 0u8..9,
    ) {
        let bench = &all_benchmarks()[bench_idx];
        let v = if seq { Version::Seq } else { Version::Pthreads };
        let name = format!("{}-{}", bench.name, v.name());

        let files = edited_sources(bench, v, site, delta);
        let program = compile(&name, &files);

        let (_cold_db, cold_engine) = fresh();
        let cold = cold_engine.analyze_one(request("cold", bench, program.clone()));
        let warm = warm_engine(bench, v);
        let warm_res = warm.lock().unwrap().analyze_one(request("warm", bench, program));

        match (&cold.outcome, &warm_res.outcome) {
            (Ok(c), Ok(w)) => {
                prop_assert_eq!(
                    pattern_signature(&c.result),
                    pattern_signature(&w.result),
                    "{} site {} delta {}: incremental result differs from cold",
                    name, site, delta
                );
            }
            (Err(EngineError::Trace(c)), Err(EngineError::Trace(w))) => {
                prop_assert_eq!(
                    c.to_string(),
                    w.to_string(),
                    "{} site {} delta {}: divergent trace errors",
                    name, site, delta
                );
            }
            (c, w) => prop_assert!(
                false,
                "{} site {} delta {}: cold {:?} vs warm {:?}",
                name, site, delta,
                c.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                w.as_ref().map(|_| "ok").map_err(|e| e.to_string())
            ),
        }
    }
}

/// Two independent loops; edits target loop A only.
const TWO_LOOPS: &str = "float a_in[8];\nfloat a_out[8];\nfloat b_in[8];\nfloat b_out[8];\n\
     void main() {\n  int i;\n  int j;\n  \
     for (i = 0; i < 8; i++) {\n    a_out[i] = a_in[i] * 2.0 + 1.0;\n  }\n  \
     for (j = 0; j < 8; j++) {\n    b_out[j] = b_in[j] * 3.0;\n  }\n  \
     output(a_out);\n  output(b_out);\n}\n";

fn two_loop_request(id: &str, src: &str) -> AnalysisRequest {
    AnalysisRequest {
        id: id.to_string(),
        program: minc::compile_files("two-loops", &[("two_loops.c", src)]).expect("compiles"),
        input: trace::RunConfig::default(),
        config: Default::default(),
    }
}

/// Invalidation precision, layer by layer:
///
/// 1. A *value* edit to loop A re-keys the program but not the
///    execution stream — the exec-fingerprint probe replays the whole
///    find phase. Nothing is recomputed for either loop: zero new
///    match-cache traffic.
/// 2. A *structural* edit to loop A (`+` → `-`) changes the DDG, so
///    the find stage reruns — but loop B's sub-DDG is structurally
///    unchanged and must be answered by the match cache, not
///    recomputed. Only loop A's shape misses.
#[test]
fn editing_loop_a_does_not_recompute_loop_b() {
    let (_db, engine) = fresh();

    let base = engine.analyze_one(two_loop_request("base", TWO_LOOPS));
    base.outcome.as_ref().expect("base analysis");
    assert!(
        base.metrics.cache_misses >= 2,
        "two loops, two match queries"
    );

    // 1. Value edit: loop A's additive constant changes.
    let value_edit = TWO_LOOPS.replace("+ 1.0", "+ 5.0");
    assert_ne!(value_edit, TWO_LOOPS);
    let res = engine.analyze_one(two_loop_request("value-edit", &value_edit));
    res.outcome.as_ref().expect("value edit analysis");
    assert!(
        res.metrics.query_exec_hit,
        "constant edit must resolve through the exec fingerprint: {:?}",
        res.metrics
    );
    assert_eq!(
        (res.metrics.cache_hits, res.metrics.cache_misses),
        (0, 0),
        "a replayed find phase issues no match queries at all"
    );

    // 2. Structural edit: loop A's `+` becomes `-`; its DDG labels —
    // and only its — change.
    let struct_edit = TWO_LOOPS.replace("* 2.0 + 1.0", "* 2.0 - 1.0");
    assert_ne!(struct_edit, TWO_LOOPS);
    let res = engine.analyze_one(two_loop_request("struct-edit", &struct_edit));
    res.outcome.as_ref().expect("struct edit analysis");
    assert!(
        !res.metrics.query_find_hit,
        "a structural edit must rerun the find stage"
    );
    assert!(
        res.metrics.cache_hits >= 1,
        "loop B's unchanged sub-DDG must be a match-cache hit: {:?}",
        res.metrics
    );
    assert!(
        res.metrics.cache_misses < base.metrics.cache_misses,
        "only the edited loop may miss the match cache (cold missed {}, edit missed {})",
        base.metrics.cache_misses,
        res.metrics.cache_misses,
    );
}

/// The exec probe runs only where it can hit. One program at three
/// input sizes: the first, cold run has nothing to probe against, and
/// the later sizes' shapes were never armed, so no probe runs — the
/// gate skips two and the exec stage sees no lookup at all.
#[test]
fn new_input_sizes_skip_the_exec_probe() {
    let (db, engine) = fresh();
    let bench = starbench::benchmark("rgbyuv").unwrap();
    for factor in [1, 2, 4] {
        let r = engine.analyze_one(AnalysisRequest {
            id: format!("rgbyuv-x{factor}"),
            program: bench.program(Version::Seq),
            input: (bench.scaled_input)(factor),
            config: Default::default(),
        });
        r.outcome.as_ref().expect("analysis");
        assert!(!r.metrics.query_exec_hit && !r.metrics.query_find_hit);
    }
    let stats = db.stats();
    assert_eq!(stats.exec_skipped, 2, "{stats:?}");
    assert_eq!((stats.exec.hits, stats.exec.misses), (0, 0), "{stats:?}");
    assert_eq!(
        stats.exec.entries, 3,
        "every full run still records its stream"
    );
}

/// An operator flip changes the constant-erased program, so its probe
/// — which could not hit — is skipped; a constant edit keeps the shape,
/// so its probe runs and replays.
#[test]
fn an_operator_flip_skips_the_probe_a_constant_edit_runs_it() {
    let (db, engine) = fresh();
    let base = engine.analyze_one(two_loop_request("base", TWO_LOOPS));
    base.outcome.as_ref().expect("base analysis");

    let flip = TWO_LOOPS.replace("* 2.0 + 1.0", "* 2.0 - 1.0");
    let res = engine.analyze_one(two_loop_request("flip", &flip));
    res.outcome.as_ref().expect("flip analysis");
    let stats = db.stats();
    assert_eq!(stats.exec_skipped, 1, "{stats:?}");
    assert_eq!((stats.exec.hits, stats.exec.misses), (0, 0), "{stats:?}");

    let constant = TWO_LOOPS.replace("+ 1.0", "+ 5.0");
    let res = engine.analyze_one(two_loop_request("constant", &constant));
    assert!(res.metrics.query_exec_hit, "{:?}", res.metrics);
    let stats = db.stats();
    assert_eq!(stats.exec_skipped, 1, "{stats:?}");
    assert_eq!((stats.exec.hits, stats.exec.misses), (1, 0), "{stats:?}");
}

/// A store saved and reloaded (a daemon's `--cache-dir` restart) re-arms
/// the gate from its exec entries: a constant edit after the reload is
/// an exec hit.
#[test]
fn a_reloaded_store_rearms_the_exec_gate() {
    let dir = std::env::temp_dir().join(format!("repro-engine-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (db, engine) = fresh();
    let base = engine.analyze_one(two_loop_request("base", TWO_LOOPS));
    base.outcome.as_ref().expect("base analysis");
    repro_query::save_dir(&db, &dir).expect("save");

    let (reloaded, engine) = fresh();
    let report = repro_query::load_dir(&reloaded, &dir);
    assert_eq!(report.corrupt_records, 0, "{report:?}");
    let constant = TWO_LOOPS.replace("+ 1.0", "+ 5.0");
    let res = engine.analyze_one(two_loop_request("constant", &constant));
    assert!(res.metrics.query_exec_hit, "{:?}", res.metrics);
    assert_eq!(reloaded.stats().exec_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
