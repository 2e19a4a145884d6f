//! The `eval-sweep` workload: full paper sweeps,
//! `run_eval(EvalConfig::full())` with fresh caches and two workers —
//! 5 scenarios × 5 strategies × `Nreg` {32, 48, 64, 96, 128} at 64
//! packets. One operation is one cell, its latency the `elapsed_ms` the
//! sweep records for it (compile and simulate on a pool worker); a
//! sweep is one timed segment, and work is counted in cells.

use crate::spans::Tracer;
use crate::stats;
use crate::{Ctx, Metrics};
use regbal_eval::{
    all_strategies, run_eval, scenarios, validate_json, AllocCache, CellStatus, CompileCtx,
    EvalConfig, EvalReport,
};
use regbal_ir::Func;
use regbal_sim::{Chip, RunReport, SimConfig};
use regbal_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Sweep workers (the host the benchmark is sized for has two CPUs).
const WORKERS: usize = 2;
/// Nominal seconds of one sweep (two-CPU host): a run of 10 s makes 10
/// sweeps, 1250 cells.
const SWEEP_S: f64 = 1.05;

fn config(seed: u64) -> EvalConfig {
    EvalConfig {
        workers: WORKERS,
        seed,
        ..EvalConfig::full()
    }
}

/// One chip run of a scenario's PUs over its seeded workloads, the way
/// the sweep measures a cell. Returns iterations per thousand cycles
/// and the per-PU reports.
fn chip_run(
    funcs: &[Vec<Func>],
    workloads: &[Vec<Workload>],
    config: &EvalConfig,
    t: &mut Tracer,
) -> (f64, Vec<RunReport>) {
    let mut chip = Chip::new(SimConfig::default(), funcs.len());
    for w in workloads.iter().flatten() {
        w.prepare(chip.memory_mut(), config.seed + w.slot as u64);
    }
    for (pu, pu_funcs) in funcs.iter().enumerate() {
        for f in pu_funcs {
            chip.add_thread(pu, f.clone());
        }
    }
    let reports = t.time("sim.run", || {
        chip.run(config.cycle_budget, config.granularity)
    });
    let cycles = reports.iter().map(|r| r.cycles).max().unwrap_or(0).max(1);
    let iterations: u64 = reports
        .iter()
        .flat_map(|r| r.threads.iter().map(|s| s.iterations))
        .sum();
    (iterations as f64 * 1000.0 / cycles as f64, reports)
}

/// Gates of one sweep: the document validates, and every measured
/// cell's checksum matches the reference.
fn check(report: &EvalReport) -> Result<(), String> {
    validate_json(&report.to_json()).map_err(|e| format!("validate_json: {e}"))?;
    for s in &report.scenarios {
        for c in &s.cells {
            match &c.status {
                CellStatus::Ok if !c.checksum_ok => {
                    return Err(format!(
                        "{} {} {}: checksum mismatch",
                        s.name, c.strategy, c.nreg
                    ))
                }
                CellStatus::Timeout | CellStatus::Error(_) => {
                    return Err(format!(
                        "{} {} {}: {:?}",
                        s.name, c.strategy, c.nreg, c.status
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// The deterministic part of a sweep, for comparing sweeps.
fn fingerprint(report: &EvalReport) -> Vec<(String, u64, bool)> {
    report
        .scenarios
        .iter()
        .flat_map(|s| {
            s.cells.iter().map(|c| {
                (
                    format!("{} {} {} {:?}", s.name, c.strategy, c.nreg, c.status),
                    c.cycles,
                    c.checksum_ok,
                )
            })
        })
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Metrics, String> {
    let probe = crate::host::Probe::new(WORKERS);
    let mut setup = Vec::new();
    let mut cfg = config(ctx.seed);
    for _ in 0..crate::SETUPS {
        let ((), secs) = probe.time(|| {
            cfg = config(ctx.seed);
            // Warm-up: the CI smoke sweep (same code paths, small sizes).
            black_box(run_eval(&EvalConfig {
                workers: WORKERS,
                seed: ctx.seed,
                ..EvalConfig::smoke()
            }));
        });
        setup.push(secs);
    }
    let mut m = Metrics::new(setup);

    let mut reports = Vec::new();
    let sweeps = crate::segments(ctx.seconds, SWEEP_S);
    crate::timed(&mut m, &probe, sweeps, |_, a| {
        let report = run_eval(&cfg);
        let cells = report.scenarios.iter().flat_map(|s| &s.cells);
        for ms in cells.clone().filter_map(|c| c.elapsed_ms) {
            a.push(ms);
        }
        let count = cells.count();
        reports.push(report);
        count as f64
    });

    // Gates and code speed, outside the timed loop. A sweep that fails
    // a gate fails every cell of it.
    let first = fingerprint(&reports[0]);
    for report in &reports {
        let cells = report
            .scenarios
            .iter()
            .map(|s| s.cells.len())
            .sum::<usize>() as u64;
        m.attempted += cells;
        if let Err(e) = check(report) {
            m.fail(cells, e);
        } else if fingerprint(report) != first {
            m.fail(cells, "sweeps differ".into());
        }
    }
    let suite = scenarios();
    let mut speeds = Vec::new();
    let off = &mut Tracer::new(false);
    for (scenario, s) in suite.iter().zip(&reports[0].scenarios) {
        let workloads = scenario.workloads(cfg.packets);
        let funcs: Vec<Vec<Func>> = workloads
            .iter()
            .map(|pu| pu.iter().map(|w| w.func.clone()).collect())
            .collect();
        let (reference, _) = chip_run(&funcs, &workloads, &cfg, off);
        for c in &s.cells {
            m.requests += 1;
            if c.status == CellStatus::Ok {
                m.allocated += 1;
                speeds.push(c.throughput_ipkc / reference);
            }
        }
    }
    m.code_speed = stats::geomean(&speeds);

    if ctx.trace {
        trace_pass(&cfg, &mut m)?;
    }
    Ok(m)
}

/// The traced run: one sweep untraced and one inside a span (their
/// difference is the tracing overhead), then every cell compiled and
/// simulated serially under spans with a fresh allocation cache.
fn trace_pass(cfg: &EvalConfig, m: &mut Metrics) -> Result<(), String> {
    let mut t = Tracer::new(true);
    let start = Instant::now();
    black_box(run_eval(cfg));
    let untraced = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let report = t.time("eval.run", || run_eval(cfg));
    m.overhead_ms = Some(start.elapsed().as_secs_f64() * 1e3 - untraced);
    check(&report)?;

    let mut cell_ms: Vec<f64> = report
        .scenarios
        .iter()
        .flat_map(|s| s.cells.iter().filter_map(|c| c.elapsed_ms))
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    let cells = report.scenarios.iter().flat_map(|s| &s.cells);
    let ok = cells.clone().filter(|c| c.status == CellStatus::Ok).count();
    let infeasible = cells
        .filter(|c| matches!(c.status, CellStatus::Infeasible(_)))
        .count();
    let wall = report.timing.as_ref().map_or(0.0, |t| t.wall_ms);
    let threads = report.timing.as_ref().map_or(1, |t| t.threads);
    m.layer.insert(
        "eval.cell_ms_p50",
        if cell_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&cell_ms, 50.0)
        },
    );
    m.layer
        .insert("eval.cell_ms_max", cell_ms.last().copied().unwrap_or(0.0));
    m.layer.insert(
        "eval.pool_efficiency",
        cell_ms.iter().sum::<f64>() / (threads as f64 * wall).max(1e-9),
    );
    m.layer.insert("eval.cells_ok", ok as f64);
    m.layer.insert("eval.cells_infeasible", infeasible as f64);

    // Serial decomposition: Strategy::compile_cached per PU, Chip::run
    // per cell, sharing one allocation cache across the sweep as
    // run_eval does.
    let cache = AllocCache::new(cfg.nreg_sweep.clone());
    let strategies = all_strategies();
    let mut request = 0u64;
    for (index, scenario) in scenarios().iter().enumerate() {
        let workloads = scenario.workloads(cfg.packets);
        let cctx = CompileCtx {
            cache: &cache,
            scenario: index,
        };
        for strategy in &strategies {
            for &nreg in &cfg.nreg_sweep {
                t.set_request(request);
                request += 1;
                t.enter("eval.cell");
                let mut compiled = Vec::new();
                for (pu, pu_workloads) in workloads.iter().enumerate() {
                    let funcs: Vec<Func> = pu_workloads.iter().map(|w| w.func.clone()).collect();
                    match t.time("eval.compile", || {
                        strategy.compile_cached(&funcs, nreg, pu, &cctx)
                    }) {
                        Ok(c) => compiled.push(c.funcs),
                        Err(_) => break,
                    }
                }
                if compiled.len() == workloads.len() {
                    let (_, reports) = chip_run(&compiled, &workloads, cfg, &mut t);
                    for r in &reports {
                        crate::gates::count_sim(&mut t, r);
                    }
                }
                t.exit();
            }
        }
    }
    t.set("eval.cost_computes", cache.cost_computes() as f64);
    m.absorb(&t);
    m.layer.insert("eval.sim_ms", t.total_ms("sim.run"));
    Ok(())
}
