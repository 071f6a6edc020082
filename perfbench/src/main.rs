//! `perfbench`: run one workload, or every workload each in its own
//! process, and print its metrics by name with their units. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use perfbench::workloads::{self, RunArgs, RunResult, Size, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Variables through which the library injects faults, crashes or
/// watch rules. The benchmark passes explicit fault-free profiles, and
/// a set variable would still reach the constructors that read it.
const PINNED_ENV: [&str; 4] = [
    "CONSENT_CHAOS",
    "CONSENT_IO_CHAOS",
    "CONSENT_CRASHPOINT",
    "CONSENT_WATCH",
];

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Cli { workload, args })
}

/// A metric value as JSON: every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    format!("{v}")
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report(cli: &Cli, r: &RunResult) -> ExitCode {
    let a = &cli.args;
    println!(
        "workload {} seed {} seconds {} trace {} reps {}",
        cli.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        r.reps.len()
    );
    let reps: Vec<String> = r.reps.iter().map(|s| format!("{s:.4}")).collect();
    println!("rep_s {}", reps.join(" "));
    let speeds: Vec<String> = r.speeds.iter().map(|v| format!("{v:.4}")).collect();
    println!("host_speed {}", speeds.join(" "));
    println!("digest {} fnv64={:016x}", cli.workload, r.digest);
    println!(
        "error_rate {} ({} failed of {} operations)",
        r.checked.failed as f64 / r.checked.attempted.max(1) as f64,
        r.checked.failed,
        r.checked.attempted
    );
    for (name, value, unit) in &r.metrics {
        println!("{name} {value} {unit}");
    }
    let finite = r.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = finite && r.checked.attempted > 0 && r.checked.failed == 0;
    let metrics: Vec<(String, f64, String)> = r
        .metrics
        .iter()
        .map(|&(n, v, u)| {
            (
                n.to_string(),
                if v.is_finite() { v } else { 0.0 },
                u.to_string(),
            )
        })
        .collect();
    println!(
        "{}",
        result_json(correct, r.checked.attempted, r.checked.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload in a child process of its own, so peak memory
/// and the process-global recorders are per workload, then print one
/// combined result with metrics named `<workload>.<metric>`.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let a = &cli.args;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let Ok(doc) = consent_util::Json::parse(last) else {
            eprintln!("perfbench: {name} printed no result");
            return ExitCode::from(1);
        };
        correct &=
            out.status.success() && doc.get("correct").and_then(|c| c.as_bool()) == Some(true);
        let count = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        if let Some(fields) = doc.get("metrics").and_then(|m| m.as_object()) {
            for (metric, v) in fields {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
                let unit = v.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                metrics.push((format!("{name}.{metric}"), value, unit.to_string()));
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; unset it, the benchmark runs fault-free profiles only");
        return ExitCode::from(2);
    }
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&cli);
    }
    match workloads::run(&cli.workload, &cli.args) {
        Ok(r) => report(&cli, &r),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cli.workload);
            ExitCode::from(1)
        }
    }
}
