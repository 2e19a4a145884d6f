//! The `device-64` workload: one operation is one `run_device` of the
//! 64-PU device on the serial event core (`ChipCore::Event`), running
//! a program Ladder-compiled at `Nreg` 64 once during set-up. Work is
//! counted in simulated instructions.

use crate::spans::Tracer;
use crate::{Ctx, Metrics};
use regbal_eval::{
    compile_program, device_scenarios, reference_program, run_device, DeviceEvalConfig,
    DeviceOutcome, Ladder,
};
use regbal_sim::device::{ChipCore, PKT_BASE};
use regbal_sim::{DeviceSpec, Memory};
use regbal_workloads::{expected_total_digest, fill_packets};
use std::hint::black_box;
use std::time::Instant;

const NREG: usize = 64;
/// Nominal seconds of one device run (two-CPU host).
const RUN_S: f64 = 0.135;

fn spec() -> DeviceSpec {
    device_scenarios()
        .into_iter()
        .find(|s| s.spec.pus == 64)
        .expect("the device family has a 64-PU member")
        .spec
}

fn instructions(outcome: &DeviceOutcome) -> u64 {
    outcome
        .reports
        .iter()
        .flat_map(|r| r.threads.iter().map(|t| t.instructions))
        .sum()
}

/// The gates of one run: every offered packet processed, every PU
/// halted, the digest equal to the host model's.
fn check(spec: &DeviceSpec, outcome: &DeviceOutcome, expected: u32) -> Result<(), String> {
    if !outcome.halted {
        return Err("device did not halt within the cycle budget".into());
    }
    if outcome.processed != u64::from(spec.packets) {
        return Err(format!(
            "processed {} of {} packets",
            outcome.processed, spec.packets
        ));
    }
    if outcome.digest != expected {
        return Err(format!(
            "digest {:08x}, expected {expected:08x}",
            outcome.digest
        ));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Metrics, String> {
    // The event core runs on one thread.
    let probe = crate::host::Probe::new(1);
    let budget = DeviceEvalConfig::full().cycle_budget;
    let spec = spec();
    let mut setup = Vec::new();
    let mut program = None;
    let mut expected = 0;
    for _ in 0..crate::SETUPS {
        let (compiled, secs) = probe.time(|| {
            let mut packets = Memory::new(0, 0, spec.sim_config().sdram_size, 0);
            fill_packets(&mut packets, PKT_BASE, spec.packets, ctx.seed);
            expected = expected_total_digest(&packets, spec.packets);
            let compiled = compile_program(&spec, &Ladder, NREG);
            if let Ok(compiled) = &compiled {
                // Warm-up: one device run.
                black_box(run_device(
                    &spec,
                    compiled,
                    ChipCore::Event,
                    budget,
                    ctx.seed,
                    false,
                ));
            }
            compiled
        });
        program = Some(compiled?);
        setup.push(secs);
    }
    let program = program.expect("at least one set-up");
    let mut m = Metrics::new(setup);

    let mut outcomes = Vec::new();
    let runs = crate::segments(ctx.seconds, RUN_S);
    crate::timed(&mut m, &probe, runs, |_, a| {
        let start = Instant::now();
        let outcome = run_device(&spec, &program, ChipCore::Event, budget, ctx.seed, false);
        a.push(start.elapsed().as_secs_f64() * 1e3);
        let work = instructions(&outcome) as f64;
        outcomes.push(outcome);
        work
    });

    for outcome in &outcomes {
        m.attempted += 1;
        if let Err(e) = check(&spec, outcome, expected) {
            m.fail(1, e);
        } else if outcome.reports != outcomes[0].reports {
            m.fail(1, "device runs differ".into());
        }
    }
    // One sanitized run and the virtual-register reference, untimed.
    let sanitized = run_device(&spec, &program, ChipCore::Event, budget, ctx.seed, true);
    if sanitized.sanitizer_violations != 0 {
        m.fail(
            1,
            format!("{} sanitizer violation(s)", sanitized.sanitizer_violations),
        );
    }
    let reference = run_device(
        &spec,
        &reference_program(&spec),
        ChipCore::Event,
        budget,
        ctx.seed,
        false,
    );
    check(&spec, &reference, expected)?;
    m.code_speed = reference.cycles as f64 / outcomes[0].cycles.max(1) as f64;
    m.requests = 1;
    m.allocated = 1;

    if ctx.trace {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        black_box(run_device(
            &spec,
            &program,
            ChipCore::Event,
            budget,
            ctx.seed,
            false,
        ));
        let untraced = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let outcome = t.time("device.run", || {
            run_device(&spec, &program, ChipCore::Event, budget, ctx.seed, false)
        });
        m.overhead_ms = Some(start.elapsed().as_secs_f64() * 1e3 - untraced);
        check(&spec, &outcome, expected)?;
        t.count("device.instructions", instructions(&outcome) as f64);
        t.count("device.cycles", outcome.cycles as f64);
        t.set_request(1);
        t.time("device.compile", || compile_program(&spec, &Ladder, NREG))?;
        m.absorb(&t);
    }
    Ok(m)
}
