//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <scan|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, the workload's model
//! outputs and simulated-statistics digest, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics). A
//! traced run also writes its host spans as Chrome Trace JSON under
//! `out/` in the package directory.

use perfbench::{result_json, run, Config, Kind};
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <scan|serve|ingest> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        kind: Kind::Scan,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds.is_finite() && (0.0..=60.0).contains(&cfg.seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.kind = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let start = Instant::now();
    // One host worker everywhere: tables, clusters and sessions.
    std::env::set_var("HIPE_WORKERS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    let outcome = run(&cfg, start);
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.kind.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        match m.samples {
            Some(n) => println!("{:<34} {:>16.6} {} (n={n})", m.name, m.value, m.unit),
            None => println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!("sim_digest {:#018x}", outcome.sim_digest);
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    if let Some(json) = &outcome.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", cfg.kind.name(), cfg.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
