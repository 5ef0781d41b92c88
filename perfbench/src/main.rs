//! Benchmark command. Usage:
//!
//! ```text
//! columbia-perfbench --workload <nsu3d_wcycle|cart3d_rk|aero_db|all>
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Prints a human-readable report and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! a correctness check fails and 2 on a usage error or a refused
//! `COLUMBIA_*` knob.

use std::process::ExitCode;

use columbia_perfbench::common::{Kind, Outcome, RunConfig, Size};
use columbia_perfbench::{refused_knobs, run_workload, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (use {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, cfg })
}

/// Print one workload's report; returns its JSON metric entries.
fn report(name: &str, cfg: &RunConfig, out: &mut Outcome) -> Vec<(String, f64, &'static str)> {
    println!(
        "== {name} (trace {}, seed {}, seconds {}) ==",
        cfg.trace as u8, cfg.seed, cfg.seconds
    );
    for n in &out.notes {
        println!("  {n}");
    }
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(metric, unit) in wanted {
        let found = out.metrics.iter().find(|m| m.name == metric);
        let (value, label) = match found {
            Some(m) => (
                m.value,
                match m.kind {
                    Kind::Measured => "measured",
                    Kind::Derived => "derived",
                },
            ),
            None => (0.0, "not exercised by this workload"),
        };
        if !value.is_finite() {
            out.failed += 1;
            out.errors.push(format!("metric {metric} is not finite"));
        }
        println!("  {metric} = {value} {unit} [{label}]");
        json.push((metric.to_string(), value, unit));
    }
    if !out.deterministic.is_empty() {
        println!("  -- deterministic section --");
        for (k, v) in &out.deterministic {
            println!("  det {name}.{k} = {v}");
        }
    }
    println!(
        "  failed_frac = {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    json
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_knobs(std::env::vars());
    if !refused.is_empty() {
        eprintln!(
            "error: refusing to run: {} would change the measured program",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    for name in &names {
        let mut out = run_workload(name, &args.cfg).expect("workload names are validated");
        let entries = report(name, &args.cfg, &mut out);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.failed == 0 && !out.digest_mismatch && out.attempted > 0;
        for (metric, v, unit) in entries {
            let key = if names.len() > 1 {
                format!("{name}/{metric}")
            } else {
                metric
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
