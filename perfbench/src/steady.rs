//! The steadiness self-check: runs a workload N times in child
//! processes (seeds `seed`, `seed + 1`, …), and reports each end-to-end
//! metric's median and quartiles against the bound `BENCHMARK.json`
//! fixes for it. It also flags any latency percentile whose rank sits
//! where the neighbouring sorted samples differ by more than the
//! metric's bound — a percentile on such a cliff jumps past its bound
//! when one sample moves across it.

use crate::stats;
use regbal_eval::{json, Json};
use std::collections::BTreeMap;
use std::process::Command;

fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Whether a percentile sits on a cliff, from its neighbours `[lo, hi]`
/// as the run's detail line gives them.
fn cliff(detail: &Json, value: f64, key: &str, bound: f64) -> bool {
    detail
        .get(key)
        .and_then(Json::as_arr)
        .and_then(|v| Some((v.first()?.as_f64()?, v.get(1)?.as_f64()?)))
        .is_some_and(|(lo, hi)| stats::on_cliff(&[lo, value, hi], 2, bound))
}

/// Runs the check; returns the process exit code (0 = steady).
pub fn check(workload: &str, seed: u64, seconds: f64, runs: usize) -> i32 {
    match check_inner(workload, seed, seconds, runs) {
        Ok(steady) => i32::from(!steady),
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn check_inner(workload: &str, seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut flags = Vec::new();
    let mut steady = true;
    for i in 0..runs as u64 {
        let run_seed = seed + i;
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &run_seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("spawning a run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        if !out.status.success() || lines.len() < 2 {
            return Err(format!(
                "run with seed {run_seed} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let result =
            json::parse(lines[lines.len() - 1]).map_err(|e| format!("result line: {e}"))?;
        let detail =
            json::parse(lines[lines.len() - 2]).map_err(|e| format!("detail line: {e}"))?;
        let detail = detail.get("detail").ok_or("no detail line")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            steady = false;
            flags.push(format!("seed {run_seed}: incorrect run"));
        }
        let metrics = result.get("metrics").ok_or("result has no metrics")?;
        if let Json::Obj(members) = metrics {
            for (name, m) in members {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(value);
            }
        }
        let metric = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        for (name, key) in [
            ("latency_p50_ms", "p50_neighbours_ms"),
            ("latency_tail_ms", "tail_neighbours_ms"),
        ] {
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            if cliff(detail, metric(name), key, bound) {
                flags.push(format!(
                    "seed {run_seed}: {name} sits on a cliff ({key} {})",
                    detail.get(key).map(Json::compact).unwrap_or_default()
                ));
            }
        }
        println!("seed {run_seed}: {}", metrics.compact());
    }
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, v) in &values {
        let (q1, q2, q3) = stats::quartiles(v);
        let spread = (q3 - q1) / q2.abs().max(1e-12);
        let bound = bounds.get(name).copied().unwrap_or(0.0);
        let verdict = if spread <= bound { "" } else { "  UNSTEADY" };
        if !verdict.is_empty() {
            steady = false;
        }
        println!("{name:<18} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {bound:>8.3}{verdict}");
    }
    for flag in &flags {
        println!("flag: {flag}");
    }
    if !flags.is_empty() {
        steady = false;
    }
    println!("{}", if steady { "steady" } else { "NOT steady" });
    Ok(steady)
}
