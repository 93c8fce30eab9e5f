//! `suite` — runs the benchmark spine.
//!
//! ```text
//! suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! suite --seed <n> [--seconds <s>] [--trace] [--smoke] [--out <file>]
//! ```
//!
//! With `--workload` it runs that one workload in this process and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). Without it,
//! it runs all five workloads, **each in a child process of its own** —
//! the store, the memo tables and the metric registry are process-global,
//! so a fresh process per workload is what makes `peak_rss_mb` and the
//! intern/memo counts mean anything — prints every metric by name with
//! its unit, and writes one result file for `benchcmp`.
//!
//! The suite measures the program's **defaults**: every `CO_*` variable is
//! removed from the environment before anything else runs, and the result
//! is stamped with the core count, the commit and the compiler.

use benchspine::json::{self, Value};
use benchspine::{Outcome, RunConfig, Workload, WORKLOADS};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// `--smoke`: same code paths, op counts cut so all five workloads finish
/// in a few seconds.
const SMOKE_SECONDS: f64 = 0.3;
const DEFAULT_SECONDS: f64 = 15.0;
const SETUP_REPS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// As given, or the default for the mode (`--smoke` or not).
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seconds = None;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--out" => args.out = Some(value("--out")?),
            "--smoke" => args.smoke = true,
            // `--trace` alone means 1; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(args)
}

/// Removes every `CO_*` variable, so the program under test resolves its
/// defaults. Must run before any other thread exists and before any
/// layer reads its lazily-parsed knobs — i.e. first thing in `main`.
fn scrub_co_env() {
    for name in co_env() {
        std::env::remove_var(name);
    }
}

/// The `CO_*` variables the program can still see (none, by construction;
/// reported so a result file proves it).
fn co_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("CO_"))
        .collect();
    names.sort();
    names
}

fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

/// Runs one workload in this process and prints its result.
fn run_one(w: &Workload, cfg: &RunConfig, trace: bool) -> ExitCode {
    println!(
        "# {} seed={} seconds={} trace={}",
        w.name,
        cfg.seed,
        cfg.seconds,
        u8::from(trace)
    );
    let outcome: Outcome = if trace {
        let span_file = benchspine::out_dir().join(format!("trace-{}.jsonl", w.name));
        let traced = (w.trace)(cfg, &span_file);
        let r = &traced.reconciliation;
        println!(
            "reconciled: {} (unexplained remainder {:.2}% of the ops' traced time{})",
            r.reconciled(),
            r.unexplained_pct,
            r.parts_vs_handle_pct.map_or(String::new(), |d| format!(
                "; replayed parts vs whole handle {d:+.2}%"
            )),
        );
        println!("spans: {}", span_file.display());
        traced.into()
    } else {
        (w.run)(cfg).into()
    };
    for (m, value) in &outcome.metrics {
        println!("{} {} {}", m.name, number(*value), m.unit);
    }
    let mut line = format!(
        "info: {{\"co_env\": [{}], \"nproc\": {}",
        co_env()
            .iter()
            .map(|n| json::quote(n))
            .collect::<Vec<_>>()
            .join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (name, value) in &outcome.info {
        let _ = write!(line, ", {}: {}", json::quote(name), number(*value));
    }
    println!("{line}}}");
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(m, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                number(*value),
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", "),
    );
    ExitCode::SUCCESS
}

/// One child's output: its `info:` line and its result line, as printed
/// (they go into the result file verbatim) and parsed.
struct ChildResult {
    info_line: String,
    result_line: String,
    info: Value,
    result: Value,
}

/// Runs one workload in a child process of its own.
fn spawn_one(name: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the suite binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {name} child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("the {name} child printed nothing"))?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info: "))
        .ok_or(format!("the {name} child printed no info line"))?;
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("reconciled:") || l.starts_with("spans:"))
    {
        println!("  {line}");
    }
    Ok(ChildResult {
        info_line: info.to_owned(),
        result_line: last.to_owned(),
        info: json::parse(info).map_err(|e| format!("{name} info line: {e}"))?,
        result: json::parse(last).map_err(|e| format!("{name} result line: {e}"))?,
    })
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

fn print_metrics(result: &Value) {
    for (name, m) in result.get("metrics").map_or(&[][..], Value::members) {
        println!(
            "  {name:<28} {:>16} {}",
            m.get("value")
                .and_then(Value::as_f64)
                .map_or("?".to_owned(), |v| format!("{v:.3}")),
            m.get("unit").and_then(Value::as_str).unwrap_or("?"),
        );
    }
}

/// Runs all five workloads, one child process each, and writes the
/// result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut entries = Vec::new();
    let mut seen_co_env: Vec<String> = Vec::new();
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let plain = spawn_one(w.name, args, false)?;
        print_metrics(&plain.result);
        let attempted = plain
            .result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let failed = plain
            .result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "  {:<28} {:>16} ratio",
            "error_rate",
            format!("{:.6}", failed / attempted.max(1.0))
        );
        for (name, v) in plain.info.members() {
            if let Some(v) = v.as_f64() {
                println!("  ({name} {v:.3})");
            }
        }
        all_correct &= plain.result.get("correct").and_then(Value::as_bool) == Some(true);
        seen_co_env.extend(
            plain
                .info
                .get("co_env")
                .map_or(&[][..], Value::elements)
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned)),
        );
        let mut entry = format!(
            "    {}: {{\"result\": {}, \"info\": {}",
            json::quote(w.name),
            plain.result_line,
            plain.info_line
        );
        if args.trace {
            let traced = spawn_one(w.name, args, true)?;
            print_metrics(&traced.result);
            all_correct &= traced.result.get("correct").and_then(Value::as_bool) == Some(true);
            let _ = write!(
                entry,
                ", \"traced\": {}, \"traced_info\": {}",
                traced.result_line, traced.info_line
            );
        }
        entry.push('}');
        entries.push(entry);
    }
    seen_co_env.sort();
    seen_co_env.dedup();
    let stamp = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"nproc\": {}, \"commit\": {}, \"rustc\": {}, \"co_env\": [{}]}}",
        args.seed,
        number(args.seconds),
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json::quote(&command_line("git", &["rev-parse", "HEAD"])),
        json::quote(&command_line("rustc", &["--version"])),
        seen_co_env.iter().map(|n| json::quote(n)).collect::<Vec<_>>().join(", "),
    );
    let file = format!(
        "{{\n  \"stamp\": {stamp},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    let path = args.out.clone().map_or_else(
        || {
            let kind = if args.smoke { "smoke" } else { "suite" };
            benchspine::out_dir().join(format!("{kind}-seed{}.json", args.seed))
        },
        std::path::PathBuf::from,
    );
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("stamp: {stamp}");
    println!("result file: {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    scrub_co_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("suite: {e}");
            eprintln!("usage: suite [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "suite: unknown workload {name}; the workloads are {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            };
            let cfg = RunConfig {
                seed: args.seed,
                seconds: args.seconds,
                setup_reps: if args.smoke { 1 } else { SETUP_REPS },
            };
            run_one(w, &cfg, args.trace)
        }
        None => match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("suite: at least one workload reported failed ops");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("suite: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
