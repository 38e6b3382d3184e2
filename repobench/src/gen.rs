//! Seeded input generation. Every input the system receives — batch
//! order, source edits, daemon request mixes and their float arrays — is
//! derived here from the `--seed` argument, so one seed always produces
//! byte-identical sequences.

use starbench::{Benchmark, Version};

/// SplitMix64: small, fast and fully specified, so sequences never depend
/// on a library's generator choice.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent stream for one purpose (`salt`) of the same seed.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One corpus program: a Starbench benchmark in one version.
#[derive(Clone, Copy)]
pub struct CorpusProgram {
    pub bench: &'static Benchmark,
    pub version: Version,
}

impl CorpusProgram {
    /// The program name the engine and the daemon use.
    pub fn name(&self) -> String {
        format!("{}-{}", self.bench.name, self.version.name())
    }
}

/// Every benchmark × {seq, pthreads}, in the paper's Table 2 order.
pub fn corpus() -> Vec<CorpusProgram> {
    starbench::all_benchmarks()
        .into_iter()
        .flat_map(|bench| Version::BOTH.map(|version| CorpusProgram { bench, version }))
        .collect()
}

/// The Fig. 7 scale factors the cold batch runs.
pub const COLD_FACTORS: [usize; 3] = [1, 4, 16];

/// Benchmarks whose output checks hold only on the analysis input
/// (factor 1): c-ray's `verify` requires the background sphere to cover
/// the view, and ray-rot's Table 3 ground truth describes the
/// analysis-input run. They join the batch at factor 1 only.
pub const ANALYSIS_INPUT_ONLY: [&str; 2] = ["c-ray", "ray-rot"];

/// The scale factors a corpus program runs at in the cold batch.
pub fn cold_factors(p: CorpusProgram) -> &'static [usize] {
    if ANALYSIS_INPUT_ONLY.contains(&p.bench.name) {
        &COLD_FACTORS[..1]
    } else {
        &COLD_FACTORS
    }
}

/// The cold batch: every corpus program at its factors, in Table 2 order
/// with factors ascending. The order is fixed, not seeded: with one
/// request in flight, the order decides which artifacts the store holds
/// when the largest request runs, and so the batch's peak memory.
pub fn cold_batch_order() -> Vec<(CorpusProgram, usize)> {
    corpus()
        .into_iter()
        .flat_map(|p| cold_factors(p).iter().map(move |&f| (p, f)))
        .collect()
}

// ---- source edits ----

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// A float literal rewritten to other digits of the same length.
    Constant,
    /// An arithmetic operator beside a float literal flipped.
    OperatorFlip,
}

impl EditKind {
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Constant => "constant",
            EditKind::OperatorFlip => "operator-flip",
        }
    }
}

/// One single-site source edit of a corpus program. Every edit keeps the
/// source length, so no source position other than the edited one moves.
#[derive(Clone)]
pub struct Edit {
    pub program: CorpusProgram,
    /// Index of the translation unit in the version's file list.
    pub file: usize,
    pub offset: usize,
    pub from: String,
    pub to: String,
    pub kind: EditKind,
}

impl Edit {
    /// The edited translation units.
    pub fn files(&self) -> Vec<(String, String)> {
        self.program
            .bench
            .files(self.program.version)
            .iter()
            .enumerate()
            .map(|(i, (name, src))| {
                let mut s = src.to_string();
                if i == self.file {
                    s.replace_range(self.offset..self.offset + self.from.len(), &self.to);
                }
                (name.to_string(), s)
            })
            .collect()
    }

    pub fn describe(&self) -> String {
        let (name, _) = self.program.bench.files(self.program.version)[self.file];
        format!(
            "{} {name}@{} {:?}->{:?} ({})",
            self.program.name(),
            self.offset,
            self.from,
            self.to,
            self.kind.name()
        )
    }
}

/// Byte ranges of float literals (`digits.digits`) outside comments.
fn float_literals(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut in_comment = false;
    while i < b.len() {
        if b[i] == b'\n' {
            in_comment = false;
        } else if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
            in_comment = true;
        }
        let starts = b[i].is_ascii_digit()
            && (i == 0
                || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_' || b[i - 1] == b'.'));
        if !in_comment && starts {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j + 1 < b.len() && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                let mut k = j + 1;
                while k < b.len() && b[k].is_ascii_digit() {
                    k += 1;
                }
                out.push((i, k));
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// The binary operator written as ` op ` right before a literal at
/// `start`, if its left side is an operand (so a unary minus is skipped).
fn operator_before(b: &[u8], start: usize) -> Option<usize> {
    if start < 4 || b[start - 1] != b' ' || b[start - 3] != b' ' {
        return None;
    }
    let op = start - 2;
    let left = b[start - 4];
    let operand = left.is_ascii_alphanumeric() || left == b')' || left == b']' || left == b'_';
    (matches!(b[op], b'+' | b'-' | b'*' | b'/') && operand).then_some(op)
}

fn flipped(op: u8) -> u8 {
    match op {
        b'+' => b'-',
        b'-' => b'+',
        b'*' => b'+',
        _ => b'*',
    }
}

/// Same-length replacement digits, never all zeros and never the
/// original.
fn new_digits(rng: &mut Rng, lit: &str) -> String {
    loop {
        let s: String = lit
            .chars()
            .map(|c| {
                if c == '.' {
                    '.'
                } else {
                    char::from(b'0' + rng.below(10) as u8)
                }
            })
            .collect();
        if s != lit && s.chars().any(|c| c.is_ascii_digit() && c != '0') {
            return s;
        }
    }
}

/// Every candidate edit site of one program, in source order.
fn candidate_sites(p: CorpusProgram) -> Vec<(usize, usize, usize, EditKind)> {
    let mut out = Vec::new();
    for (fi, (_, src)) in p.bench.files(p.version).iter().enumerate() {
        for (s, e) in float_literals(src) {
            out.push((fi, s, e, EditKind::Constant));
            if operator_before(src.as_bytes(), s).is_some() {
                out.push((fi, s, e, EditKind::OperatorFlip));
            }
        }
    }
    out
}

/// Execution fingerprint of a program on its analysis input, from an
/// untraced run; `None` when it fails to compile or to run.
pub fn exec_fingerprint(p: CorpusProgram, files: &[(String, String)]) -> Option<u128> {
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let program = minc::compile_files(&p.name(), &refs).ok()?;
    let mut cfg = (p.bench.analysis_input)();
    cfg.trace = trace::TraceMode::Off;
    cfg.exec_fingerprint = true;
    trace::run(&program, &cfg).ok()?.exec_fp
}

fn original_files(p: CorpusProgram) -> Vec<(String, String)> {
    p.bench
        .files(p.version)
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

/// Constant edits and operator flips per corpus program in the pool.
/// Every seed edits every program the same number of times (md5 has no
/// float literals and gets none), so seeds change which constants are
/// edited, not how the work is spread over the corpus.
pub const CONSTANTS_PER_PROGRAM: usize = 3;
pub const FLIPS_PER_PROGRAM: usize = 1;

fn make_edit(rng: &mut Rng, p: CorpusProgram, site: (usize, usize, usize, EditKind)) -> Edit {
    let (file, s, e, kind) = site;
    let src = p.bench.files(p.version)[file].1;
    match kind {
        EditKind::Constant => Edit {
            program: p,
            file,
            offset: s,
            from: src[s..e].to_string(),
            to: new_digits(rng, &src[s..e]),
            kind,
        },
        EditKind::OperatorFlip => {
            let op = operator_before(src.as_bytes(), s).expect("flip site");
            Edit {
                program: p,
                file,
                offset: op,
                from: (src.as_bytes()[op] as char).to_string(),
                to: (flipped(src.as_bytes()[op]) as char).to_string(),
                kind,
            }
        }
    }
}

/// The seeded edit pool. Candidates that do not behave as their kind
/// promises are dropped, deterministically: a constant edit must compile,
/// run, and keep the unedited program's execution fingerprint (so it
/// takes the exec-fingerprint replay path); an operator flip must
/// compile, run, and change the fingerprint (so it re-traces).
pub fn edit_pool(seed: u64) -> Vec<Edit> {
    let mut rng = Rng::stream(seed, 2);
    let (mut constants, mut flips) = (Vec::new(), Vec::new());
    for p in corpus() {
        let Some(base_fp) = exec_fingerprint(p, &original_files(p)) else {
            continue;
        };
        // Constant sites in seeded order; flips in source order, so every
        // seed flips the same operators and the costly re-traced edits do
        // not change with the seed.
        let (mut sites, flip_sites): (Vec<_>, Vec<_>) = candidate_sites(p)
            .into_iter()
            .partition(|s| s.3 == EditKind::Constant);
        rng.shuffle(&mut sites);
        sites.extend(flip_sites);
        let (mut c, mut f) = (0, 0);
        for site in sites {
            let wanted = match site.3 {
                EditKind::Constant => c < CONSTANTS_PER_PROGRAM,
                EditKind::OperatorFlip => f < FLIPS_PER_PROGRAM,
            };
            if !wanted {
                continue;
            }
            let edit = make_edit(&mut rng, p, site);
            let Some(fp) = exec_fingerprint(p, &edit.files()) else {
                continue;
            };
            match edit.kind {
                EditKind::Constant if fp == base_fp => {
                    c += 1;
                    constants.push(edit);
                }
                EditKind::OperatorFlip if fp != base_fp => {
                    f += 1;
                    flips.push(edit);
                }
                _ => {}
            }
        }
    }
    constants.extend(flips);
    constants
}

/// Exact repeats of an earlier edit in each session.
pub const SESSION_REPEATS: usize = 16;

/// One edit session: every pool edit once, in a seeded order, with
/// [`SESSION_REPEATS`] exact repeats of edits already made in the same
/// session. Entries are pool indices; `true` marks a repeat.
pub fn session_sequence(seed: u64, session: u64, pool_len: usize) -> Vec<(usize, bool)> {
    let mut rng = Rng::stream(seed, 3 + session * 1000);
    let mut order: Vec<usize> = (0..pool_len).collect();
    rng.shuffle(&mut order);
    let mut seq: Vec<(usize, bool)> = order.into_iter().map(|i| (i, false)).collect();
    for _ in 0..SESSION_REPEATS.min(pool_len) {
        // Insert after a seeded position, repeating an edit made before it.
        let at = 1 + rng.below(seq.len());
        let earlier: Vec<usize> = seq[..at].iter().filter(|e| !e.1).map(|e| e.0).collect();
        let pick = earlier[rng.below(earlier.len())];
        seq.insert(at, (pick, true));
    }
    seq
}

// ---- daemon request mix ----

/// What one daemon request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A Starbench benchmark by name (16 keys: 8 benchmarks × 2 versions).
    Bench {
        name: &'static str,
        version: Version,
    },
    /// An inline minc program from a template, with its float input.
    Inline { source: String, input: Vec<f64> },
}

/// The inline templates: a map, a reduction, a map-reduction, and a
/// loop-carried recurrence that is no pattern. `N` is the array size and
/// `C` a float constant.
pub const TEMPLATES: [(&str, &str); 4] = [
    (
        "map",
        "float in[N];\nfloat out[N];\nvoid main() {\n    int i;\n    for (i = 0; i < N; i++) {\n        out[i] = in[i] * C + 1.5;\n    }\n    output(out);\n}\n",
    ),
    (
        "reduction",
        "float in[N];\nfloat acc[1];\nvoid main() {\n    float s = C;\n    int i;\n    for (i = 0; i < N; i++) {\n        s = s + in[i];\n    }\n    acc[0] = s;\n    output(acc);\n}\n",
    ),
    (
        "map-reduction",
        "float in[N];\nfloat acc[1];\nvoid main() {\n    float s = 0.0;\n    int i;\n    for (i = 0; i < N; i++) {\n        s = s + in[i] * C;\n    }\n    acc[0] = s;\n    output(acc);\n}\n",
    ),
    (
        "loop-carried",
        "float in[N];\nfloat out[N];\nvoid main() {\n    int i;\n    out[0] = in[0];\n    for (i = 1; i < N; i++) {\n        out[i] = out[i - 1] * C + in[i];\n    }\n    output(out);\n}\n",
    ),
];

/// Array sizes and constants the inline requests draw from.
pub const INLINE_SIZES: [usize; 4] = [16, 32, 64, 128];
pub const INLINE_CONSTANTS: [&str; 3] = ["0.50", "1.25", "2.75"];
/// Inline programs: every (template, size, constant).
pub const INLINE_PROGRAMS: usize = TEMPLATES.len() * INLINE_SIZES.len() * INLINE_CONSTANTS.len();

pub fn instantiate(template: usize, n: usize, constant: &str) -> String {
    TEMPLATES[template]
        .1
        .replace('N', &n.to_string())
        .replace('C', constant)
}

/// Template, size and constant of inline program `k < INLINE_PROGRAMS`.
fn inline_program(k: usize) -> (usize, usize, &'static str) {
    let constant = INLINE_CONSTANTS[k % INLINE_CONSTANTS.len()];
    let n = INLINE_SIZES[(k / INLINE_CONSTANTS.len()) % INLINE_SIZES.len()];
    (
        k / (INLINE_CONSTANTS.len() * INLINE_SIZES.len()),
        n,
        constant,
    )
}

/// Float input of `n` values with three decimals (exact in JSON).
pub fn inline_input(seed: u64, variant: u64, n: usize) -> Vec<f64> {
    let salt = 7u64
        .wrapping_add(variant.wrapping_mul(131))
        .wrapping_add(n as u64);
    let mut rng = Rng::stream(seed, salt);
    (0..n).map(|_| rng.below(1000) as f64 / 1000.0).collect()
}

/// Draws from a seeded permutation of `0..n`, reshuffled whenever it runs
/// out, so every item appears equally often over whole rounds.
struct Rounds {
    n: usize,
    queue: Vec<usize>,
}

impl Rounds {
    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.queue.is_empty() {
            self.queue = (0..self.n).collect();
            rng.shuffle(&mut self.queue);
        }
        self.queue.pop().expect("refilled")
    }
}

/// Requests of the warm-up's fill: 3 in 4 are inline requests with fresh
/// inputs, each a new trace-stage entry, so 6144 of them overflow the
/// daemon's default trace stage (4096 entries in 16 shards) with a margin
/// for uneven shards. A daemon whose store has not reached its caps yet
/// serves far faster than one that has, so without the fill a measured
/// phase's rate would depend on how many requests came before it.
pub const STORE_FILL_REQUESTS: usize = 8192;

/// The warm-up's own phase number in [`serve_mix`], apart from the
/// measured phases' 0, 1, 2, ...
const WARM_PHASE: u64 = 1 << 20;

/// The daemon's warm-up, sent before measuring so the measured phases
/// see its steady state: every program it serves once (the 16 bench keys
/// and each inline program with a warm-up input), then
/// [`STORE_FILL_REQUESTS`] requests of the usual mix to fill its store.
pub fn serve_warmup(seed: u64) -> Vec<Payload> {
    let bench = corpus().into_iter().map(|p| Payload::Bench {
        name: p.bench.name,
        version: p.version,
    });
    let inline = (0..INLINE_PROGRAMS).map(|k| {
        let (t, n, c) = inline_program(k);
        Payload::Inline {
            source: instantiate(t, n, c),
            input: inline_input(seed, u64::MAX, n),
        }
    });
    bench
        .chain(inline)
        .chain(serve_mix(seed, WARM_PHASE, STORE_FILL_REQUESTS))
        .collect()
}

/// The daemon request mix of one measured phase (`phase` 0 is the fixed
/// rate, each ladder rung has its own): each group of four consecutive
/// requests holds one bench-name request and three inline template
/// requests, in seeded order. Bench requests cycle through the 16 keys and
/// inline requests through every inline program, each in seeded rounds,
/// so every seed sends the same multiset of programs and only the order
/// changes. Each inline request carries its own generated float input,
/// distinct across phases. Returns one payload per request.
pub fn serve_mix(seed: u64, phase: u64, count: usize) -> Vec<Payload> {
    let mut rng = Rng::stream(seed, 4 + phase * 1000);
    let keys = corpus();
    let mut bench_rounds = Rounds {
        n: keys.len(),
        queue: Vec::new(),
    };
    let mut inline_rounds = Rounds {
        n: INLINE_PROGRAMS,
        queue: Vec::new(),
    };
    let mut bench_slot = 0;
    (0..count)
        .map(|k| {
            if k % 4 == 0 {
                bench_slot = rng.below(4);
            }
            if k % 4 == bench_slot {
                let p = keys[bench_rounds.next(&mut rng)];
                Payload::Bench {
                    name: p.bench.name,
                    version: p.version,
                }
            } else {
                let (t, n, c) = inline_program(inline_rounds.next(&mut rng));
                Payload::Inline {
                    source: instantiate(t, n, c),
                    input: inline_input(seed, (phase << 32) | k as u64, n),
                }
            }
        })
        .collect()
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The wire line (with trailing newline) of one analyze request.
pub fn request_line(id: u64, payload: &Payload) -> String {
    let mut out = format!("{{\"op\":\"analyze\",\"id\":\"{id}\"");
    match payload {
        Payload::Bench { name, version } => {
            out.push_str(&format!(
                ",\"bench\":\"{name}\",\"version\":\"{}\"",
                version.name()
            ));
        }
        Payload::Inline { source, input } => {
            out.push_str(",\"source\":");
            json_str(&mut out, source);
            out.push_str(",\"inputs\":{\"in\":[");
            for (i, v) in input.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{v}"));
            }
            out.push_str("]}");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit_bytes(pool: &[Edit]) -> String {
        pool.iter().map(|e| e.describe() + "\n").collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_sequences() {
        assert_eq!(cold_batch_order().len(), 4 + 12 * COLD_FACTORS.len());
        let (a, b) = (edit_pool(7), edit_pool(7));
        assert_eq!(edit_bytes(&a), edit_bytes(&b));
        assert_eq!(
            session_sequence(7, 2, a.len()),
            session_sequence(7, 2, b.len())
        );
        let lines = |seed| {
            serve_mix(seed, 0, 300)
                .iter()
                .enumerate()
                .map(|(i, p)| request_line(i as u64, p))
                .collect::<String>()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8), "the seed must matter");
        assert_ne!(serve_mix(7, 0, 300), serve_mix(7, 1, 300), "phases differ");
        assert_ne!(edit_bytes(&edit_pool(8)), edit_bytes(&a));
    }

    #[test]
    fn the_pool_holds_both_edit_kinds_and_sessions_repeat_only_earlier_edits() {
        let pool = edit_pool(3);
        for p in corpus() {
            let of = |k: EditKind| {
                pool.iter()
                    .filter(|e| e.kind == k && e.program.name() == p.name())
                    .count()
            };
            assert!(
                of(EditKind::Constant) <= CONSTANTS_PER_PROGRAM,
                "{}",
                p.name()
            );
            assert!(
                of(EditKind::OperatorFlip) <= FLIPS_PER_PROGRAM,
                "{}",
                p.name()
            );
        }
        let flips = pool
            .iter()
            .filter(|e| e.kind == EditKind::OperatorFlip)
            .count();
        assert!(flips >= 8, "most programs have a flip: {flips}");
        assert!(
            pool.len() - flips >= 36,
            "most programs have three constants"
        );
        let seq = session_sequence(3, 0, pool.len());
        assert_eq!(seq.len(), pool.len() + SESSION_REPEATS);
        for (at, &(i, repeat)) in seq.iter().enumerate() {
            if repeat {
                assert!(seq[..at].contains(&(i, false)), "repeat before first use");
            }
        }
    }

    #[test]
    fn every_generated_edit_compiles_and_traces() {
        for edit in edit_pool(11) {
            let files = edit.files();
            let refs: Vec<(&str, &str)> = files
                .iter()
                .map(|(n, s)| (n.as_str(), s.as_str()))
                .collect();
            let program = minc::compile_files(&edit.program.name(), &refs)
                .unwrap_or_else(|e| panic!("{}: {e}", edit.describe()));
            let cfg = (edit.program.bench.analysis_input)();
            let run =
                trace::run(&program, &cfg).unwrap_or_else(|e| panic!("{}: {e}", edit.describe()));
            assert!(run.ddg.is_some_and(|g| g.len() > 0), "{}", edit.describe());
        }
    }

    #[test]
    fn every_inline_template_compiles_and_traces() {
        for t in 0..TEMPLATES.len() {
            for n in INLINE_SIZES {
                for c in INLINE_CONSTANTS {
                    let src = instantiate(t, n, c);
                    let program = minc::compile_files("inline", &[("inline", &src)])
                        .unwrap_or_else(|e| panic!("{}: {e}", TEMPLATES[t].0));
                    let cfg = trace::RunConfig::default().with_f64("in", &inline_input(1, 0, n));
                    let run = trace::run(&program, &cfg)
                        .unwrap_or_else(|e| panic!("{} n={n}: {e}", TEMPLATES[t].0));
                    assert!(run.ddg.is_some_and(|g| g.len() > 0));
                }
            }
        }
    }

    #[test]
    fn literal_scanning_skips_identifiers_and_comments() {
        let src = "x1.5 = a2 * 0.25; // 9.75\ny = -1.0 + b - 2.5;";
        let lits: Vec<&str> = float_literals(src)
            .iter()
            .map(|&(s, e)| &src[s..e])
            .collect();
        assert_eq!(lits, vec!["0.25", "1.0", "2.5"]);
        let b = src.as_bytes();
        let at = |lit: &str| src.find(lit).unwrap();
        assert!(operator_before(b, at("0.25")).is_some());
        assert!(
            operator_before(b, at("1.0")).is_none(),
            "unary minus is not flipped"
        );
        assert!(operator_before(b, at("2.5")).is_some());
    }

    #[test]
    fn request_lines_are_one_json_object_per_line() {
        let payloads = serve_mix(5, 0, 48);
        for (i, p) in payloads.iter().enumerate() {
            let line = request_line(i as u64, p);
            assert_eq!(line.matches('\n').count(), 1);
            let doc = obs::json::parse(line.trim_end()).expect("valid JSON");
            assert_eq!(
                doc.get("id").and_then(|v| v.as_str()),
                Some(i.to_string().as_str())
            );
        }
        let bench = payloads
            .iter()
            .filter(|p| matches!(p, Payload::Bench { .. }))
            .count();
        assert_eq!(bench, 12, "one bench request per group of four");
        assert_eq!(
            serve_warmup(5).len(),
            16 + INLINE_PROGRAMS + STORE_FILL_REQUESTS
        );
    }
}
