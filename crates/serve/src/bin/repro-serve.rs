//! The daemon entrypoint. Binds the unix socket, serves until a wire
//! `shutdown`, then drains and exits.
//!
//! ```text
//! repro-serve --socket /tmp/repro.sock --workers 2 --admission 64 \
//!             --quota-burst 100 --quota-rate 50 --obs
//! ```

use repro_serve::server::{ServeConfig, Server};
use repro_serve::QuotaConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro-serve [--socket PATH] [--workers N] [--threads N]\n\
         \x20                  [--admission N] [--window N] [--cache-capacity N]\n\
         \x20                  [--cache-capacity-bytes N]\n\
         \x20                  [--quota-burst N] [--quota-rate PER_SEC]\n\
         \x20                  [--budget-ms MS] [--deadline-ms MS] [--max-line-bytes N]\n\
         \x20                  [--watchdog-ms MS] [--stall-timeout-ms MS] [--probe-timeout-ms MS]\n\
         \x20                  [--slo-latency-ms MS] [--slo-target F] [--flight-capacity N]\n\
         \x20                  [--blackbox-out PATH] [--cache-dir DIR] [--obs]\n\
         \n\
         \x20 --socket PATH        unix socket to listen on (default repro-serve.sock)\n\
         \x20 --workers N          concurrent analyses (default 2)\n\
         \x20 --threads N          match-pool threads (default 2)\n\
         \x20 --admission N        admission queue bound (default 64)\n\
         \x20 --window N           per-connection in-flight window (default 8)\n\
         \x20 --cache-capacity N   match-cache entries, 0 = unbounded (default 4096)\n\
         \x20 --cache-capacity-bytes N  match-cache bytes, 0 = unbounded (default 0);\n\
         \x20                      whichever cap trips first drives eviction\n\
         \x20 --quota-burst N      tokens per tenant bucket, 0 = quotas off (default 0)\n\
         \x20 --quota-rate R       bucket refill, tokens/second (default 0)\n\
         \x20 --budget-ms MS       default per-sub-DDG match budget (default 60000)\n\
         \x20 --deadline-ms MS     default whole-request deadline (default 10000)\n\
         \x20 --max-line-bytes N   request-line cap; longer lines get protocol_error (default 262144)\n\
         \x20 --watchdog-ms MS     watchdog sweep interval (default 100)\n\
         \x20 --stall-timeout-ms MS  supersede a worker busy this long on one request (default 10000)\n\
         \x20 --probe-timeout-ms MS  startup wait for a predecessor daemon's ping answer (default 500)\n\
         \x20 --slo-latency-ms MS  an ok answer slower than this counts as an SLO miss (default 2000)\n\
         \x20 --slo-target F       availability objective in (0,1); burn = bad_frac/(1-F) (default 0.99)\n\
         \x20 --flight-capacity N  flight-recorder ring capacity in events (default 4096)\n\
         \x20 --blackbox-out PATH  where automatic blackbox dumps land (default SOCKET.blackbox.json)\n\
         \x20 --cache-dir DIR      persistent query cache: loaded at startup, rewritten on\n\
         \x20                      clean shutdown (default: memory-only)\n\
         \x20 --obs                enable span tracing (for trace_dump)"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: got {value:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut config = ServeConfig::default();
    let mut quota = QuotaConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => config.socket = parse(&arg, args.next()),
            "--workers" => config.workers = parse(&arg, args.next()),
            "--threads" => config.analysis_threads = parse(&arg, args.next()),
            "--admission" => config.admission_capacity = parse(&arg, args.next()),
            "--window" => config.conn_window = parse(&arg, args.next()),
            "--cache-capacity" => config.cache_capacity = parse(&arg, args.next()),
            "--cache-capacity-bytes" => config.cache_capacity_bytes = parse(&arg, args.next()),
            "--quota-burst" => quota.burst = parse(&arg, args.next()),
            "--quota-rate" => quota.refill_per_sec = parse(&arg, args.next()),
            "--budget-ms" => config.default_budget_ms = parse(&arg, args.next()),
            "--deadline-ms" => {
                let ms: u64 = parse(&arg, args.next());
                config.default_deadline_ms = if ms == 0 { None } else { Some(ms) };
            }
            "--max-line-bytes" => config.max_line_bytes = parse(&arg, args.next()),
            "--watchdog-ms" => config.watchdog_interval_ms = parse(&arg, args.next()),
            "--stall-timeout-ms" => config.stall_timeout_ms = parse(&arg, args.next()),
            "--probe-timeout-ms" => config.probe_timeout_ms = parse(&arg, args.next()),
            "--slo-latency-ms" => config.slo.latency_threshold_ms = parse(&arg, args.next()),
            "--slo-target" => {
                let target: f64 = parse(&arg, args.next());
                if !(0.0..1.0).contains(&target) {
                    eprintln!("--slo-target must be in (0,1): got {target}");
                    std::process::exit(2);
                }
                config.slo.target = target;
            }
            "--flight-capacity" => {
                let capacity: usize = parse(&arg, args.next());
                if !obs::flight::configure(capacity) {
                    eprintln!(
                        "repro-serve: flight recorder already sized, --flight-capacity ignored"
                    );
                }
            }
            "--blackbox-out" => config.blackbox_path = Some(parse(&arg, args.next())),
            "--cache-dir" => config.cache_dir = Some(parse(&arg, args.next())),
            "--obs" => obs::enable(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    config.quota = quota;

    let socket = config.socket.clone();
    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("repro-serve: cannot bind {}: {e}", socket.display());
        std::process::exit(1);
    });
    eprintln!("repro-serve: listening on {}", socket.display());
    server.join();
    eprintln!("repro-serve: drained and stopped");
}
