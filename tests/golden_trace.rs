//! Golden trace corpus: the tracer's output on the Starbench suite,
//! frozen in `tests/golden/trace_corpus.tsv`.
//!
//! Every benchmark runs in both versions at input scale factors 1 and 4,
//! and every Pthreads version also runs at ×4 with 8 simulated threads.
//! Each run is one row: node count, arc count, a DDG content hash, a
//! digest of the final global arrays (sorted by name), the entry return
//! value, the executed step count and the execution fingerprint.
//!
//! Both hashes are computed here (64-bit FNV-1a over every node field
//! and every arc), not by the query layer's `fingerprint_ddg`, so a
//! change to that function cannot silently re-baseline the corpus. The
//! file is never regenerated to make this test pass: any difference is
//! a change in tracing output. On a mismatch the test prints the
//! recomputed row.

use repro_ir::Value;
use starbench::{all_benchmarks, Benchmark, Version};
use trace::{RunConfig, RunResult};

const CORPUS: &str = include_str!("golden/trace_corpus.tsv");

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match *v {
            Value::I64(x) => {
                self.u64(0);
                self.u64(x as u64);
            }
            Value::F64(x) => {
                self.u64(1);
                self.u64(x.to_bits());
            }
            Value::Bool(x) => {
                self.u64(2);
                self.u64(x as u64);
            }
        }
    }
}

fn ddg_hash(g: &ddg::Ddg) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.len() as u64);
    for id in g.node_ids() {
        let n = g.node(id);
        h.str(g.label_str(n.label));
        h.u64(g.label_is_associative(n.label) as u64);
        h.u64(n.static_op as u64);
        h.u64(n.file as u64);
        h.u64(n.line as u64);
        h.u64(n.col as u64);
        h.u64(n.thread as u64);
        h.u64(n.scope.len() as u64);
        for e in n.scope.iter() {
            h.u64(e.loop_id as u64);
            h.u64(e.instance as u64);
            h.u64(e.iter as u64);
        }
        h.u64(n.flags.0 as u64);
    }
    h.u64(g.arc_count() as u64);
    for (u, v) in g.arcs() {
        h.u64(u.0 as u64);
        h.u64(v.0 as u64);
    }
    h.0
}

fn arrays_hash(r: &RunResult) -> u64 {
    let mut names: Vec<&String> = r.arrays.keys().collect();
    names.sort();
    let mut h = Fnv::new();
    for name in names {
        let data = &r.arrays[name];
        h.str(name);
        h.u64(data.len() as u64);
        for v in data {
            h.value(v);
        }
    }
    h.0
}

/// One pinned run.
struct Case {
    bench: &'static Benchmark,
    version: Version,
    /// `x<factor>`, plus `/np<n>` for an explicit simulated thread count.
    input: String,
    config: RunConfig,
    /// Whether the benchmark's oracle applies (analysis-scale input).
    verify: bool,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for b in all_benchmarks() {
        for v in Version::BOTH {
            for factor in [1, 4] {
                out.push(Case {
                    bench: b,
                    version: v,
                    input: format!("x{factor}"),
                    config: (b.scaled_input)(factor),
                    verify: factor == 1,
                });
            }
        }
        out.push(Case {
            bench: b,
            version: Version::Pthreads,
            input: "x4/np8".into(),
            config: (b.scaled_input_nproc)(4, 8),
            verify: false,
        });
    }
    out
}

fn row(case: &Case) -> String {
    let (b, v) = (case.bench, case.version);
    let p = b.program(v);
    let cfg = case.config.clone().with_exec_fingerprint(true);
    let r = trace::run(&p, &cfg)
        .unwrap_or_else(|e| panic!("{} {} {}: {e}", b.name, v.name(), case.input));
    if case.verify {
        (b.verify)(&r).unwrap_or_else(|e| panic!("{} {} oracle: {e}", b.name, v.name()));
    }
    let g = r.ddg.as_ref().expect("traced run");
    let ret = match r.return_value {
        None => "-".to_string(),
        Some(v) => format!("{v:?}"),
    };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\t{}\t{}\t{:032x}",
        b.name,
        v.name(),
        case.input,
        g.len(),
        g.arc_count(),
        ddg_hash(g),
        arrays_hash(&r),
        ret,
        r.steps,
        r.exec_fp.expect("fingerprint requested"),
    )
}

/// The key columns (benchmark, version, input) of a row.
fn key(row: &str) -> String {
    row.splitn(4, '\t').take(3).collect::<Vec<_>>().join("\t")
}

#[test]
fn tracer_output_matches_the_golden_corpus() {
    let golden: Vec<&str> = CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let rows: Vec<String> = cases().iter().map(row).collect();
    let mut failures = Vec::new();
    for got in &rows {
        match golden.iter().find(|g| key(g) == key(got)) {
            Some(want) if want == got => {}
            Some(want) => failures.push(format!(
                "mismatch\n  golden:     {want}\n  recomputed: {got}"
            )),
            None => failures.push(format!("missing row\n  recomputed: {got}")),
        }
    }
    for g in &golden {
        if !rows.iter().any(|r| key(r) == key(g)) {
            failures.push(format!("stale row with no matching run\n  golden: {g}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} trace corpus rows differ:\n{}",
        failures.len(),
        rows.len(),
        failures.join("\n")
    );
}
