//! Smoke test at tiny sizes: every named metric is emitted and matches
//! `BENCHMARK.json`, the deterministic section repeats, refused knobs stop
//! the run, and corrupted outputs trip the correctness gates.

use std::process::Command;

use columbia_core::{AeroDatabase, CaseStatus, DatabaseEntry, DatabaseServer, ServePolicy};
use columbia_mg::ConvergenceHistory;
use columbia_perfbench::common::{fold_passes, Outcome, Pass};
use columbia_perfbench::{aero, gate, refused_knobs, END_TO_END, PER_LAYER, WORKLOADS};

fn bench(args: &[&str], env: &[(&str, &str)]) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_columbia-perfbench"));
    cmd.args(args).args(["--size", "tiny", "--seconds", "0"]);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("some output")
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let entries = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("{\"name\": \"")
            .skip(1)
            .map(|e| {
                let name = &e[..e.find('"').expect("name closes")];
                let unit_at = e.find("\"unit\": \"").expect("unit present") + 9;
                let unit = &e[unit_at..unit_at + e[unit_at..].find('"').expect("unit closes")];
                format!("{name} {unit}")
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<String> {
        list.iter().map(|(n, u)| format!("{n} {u}")).collect()
    };
    assert_eq!(entries("end_to_end"), ours(&END_TO_END));
    assert_eq!(entries("per_layer"), ours(&PER_LAYER));
    for w in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "{w} listed");
    }
}

#[test]
fn every_metric_is_emitted_and_sections_repeat() {
    for w in WORKLOADS {
        let (code, out) = bench(&["--workload", w, "--trace", "0"], &[]);
        assert_eq!(code, 0, "{w} end-to-end run failed:\n{out}");
        let line = last_line(&out);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for (name, unit) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(line.contains(&entry), "{w}: {name} missing from {line}");
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{w}: {unit}"
            );
        }

        let traced = || {
            let (code, out) = bench(&["--workload", w, "--trace", "1"], &[]);
            assert_eq!(code, 0, "{w} traced run failed:\n{out}");
            for (name, _) in PER_LAYER {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(last_line(&out).contains(&entry), "{w}: {name} missing");
            }
            out.lines()
                .filter(|l| l.trim_start().starts_with("det "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let first = traced();
        assert!(!first.is_empty(), "{w}: no deterministic section");
        assert_eq!(first, traced(), "{w}: deterministic section differs");
    }
}

#[test]
fn refused_knobs_stop_the_run() {
    let (code, out) = bench(
        &["--workload", "aero_db"],
        &[("COLUMBIA_KERNELS", "scalar")],
    );
    assert_eq!(code, 2);
    assert!(out.is_empty(), "no result may be printed: {out}");
    let env = |k: &str, v: &str| (k.to_string(), v.to_string());
    assert!(refused_knobs([env("COLUMBIA_EXECUTOR", "threads"), env("HOME", "/")]).is_empty());
    assert_eq!(
        refused_knobs([
            env("COLUMBIA_EXECUTOR", "events"),
            env("COLUMBIA_FAULT_SEED", "7"),
            env("COLUMBIA_DB_CACHE", "8"),
            env("COLUMBIA_SLOW_TESTS", "1"),
        ])
        .len(),
        3
    );
}

fn history(residuals: &[f64]) -> ConvergenceHistory {
    ConvergenceHistory {
        residuals: residuals.to_vec(),
    }
}

#[test]
fn corrupted_outputs_trip_the_gates() {
    let good = history(&[1.0, 0.1, 0.01]);
    assert!(gate::history("h", &good, 1.5).is_ok());
    assert!(gate::history("h", &history(&[1.0, f64::NAN, 0.01]), 1.5).is_err());
    assert!(gate::history("h", &history(&[1.0, 0.5, 0.2]), 1.5).is_err());
    assert!(gate::histories_agree(&good, &good).is_ok());
    assert!(gate::histories_agree(&good, &history(&[1.0, 0.1, 0.0101])).is_err());
    assert!(gate::residual_falls("r", 1.0, 0.5).is_ok());
    assert!(gate::residual_falls("r", 1.0, 1.5).is_err());
    assert!(gate::residual_falls("r", 1.0, f64::INFINITY).is_err());
    let loads = [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]];
    assert!(gate::loads_agree(&loads, &loads).is_ok());
    let mut off = loads;
    off[0][2] += 1e-6;
    assert!(gate::loads_agree(&loads, &off).is_err());

    // A served answer with one flipped bit is caught.
    let entries = columbia_bench::database::synthetic_entries();
    let db = AeroDatabase::from_entries(&entries).expect("complete table");
    let mut server = DatabaseServer::new(db.clone(), &ServePolicy::default());
    let storm = aero::storm(5, 2, 32);
    let mut resp = server.serve_batch(&storm[0]);
    assert!(gate::served(&db, &storm[0], &resp).is_ok());
    let r = resp[7].as_mut().expect("strict answer");
    r.force.x = f64::from_bits(r.force.x.to_bits() ^ 1);
    assert!(gate::served(&db, &storm[0], &resp).is_err());

    // A quarantined case fails the fill gate.
    let mut fill: Vec<DatabaseEntry> = entries;
    assert!(gate::fill(&fill).is_ok());
    fill[3].status = CaseStatus::Quarantined {
        attempts: 2,
        reason: "injected".into(),
    };
    assert!(gate::fill(&fill).is_err());
}

#[test]
fn differing_deterministic_sections_void_the_run() {
    let pass = |digest: &str| {
        let mut p = Pass::default();
        p.measured("x", 1.0, "s");
        p.det("state.digest", digest);
        p
    };
    let mut same = Outcome::default();
    fold_passes(&mut same, vec![pass("ab"), pass("ab")]);
    assert!(!same.digest_mismatch);
    let mut differ = Outcome::default();
    fold_passes(&mut differ, vec![pass("ab"), pass("cd")]);
    assert!(differ.digest_mismatch);
}
