//! Correctness gates shared by the allocation workloads: an allocated
//! request is simulated against its virtual-register reference on the
//! same seeded packets (output must match, the clobber sanitizer must
//! stay silent), and a verdict is compared with what the one-shot
//! `regbal alloc --json` prints for the same inputs.

use crate::spans::Tracer;
use regbal_ir::{Func, Inst, MemSpace};
use regbal_serve::{ServeStrategy, Verdict};
use regbal_sim::{RunReport, SanitizerConfig, SimConfig, Simulator, StopWhen};
use regbal_workloads::{Kernel, Workload};
use std::path::Path;

/// Cycle budget of one gate simulation; a run still going at this
/// point counts as not halting.
const CYCLE_BUDGET: u64 = 20_000_000;

/// What the one-shot CLI answers for one request: the pretty document
/// plus newline it prints, or the error message it exits with.
pub type OneShot = Result<String, String>;

/// The served / computed answer rendered the way the CLI renders it.
pub fn cli_form(verdict: &Result<String, String>) -> OneShot {
    match verdict {
        Ok(doc) => Ok(format!("{doc}\n")),
        Err(message) => Err(message.clone()),
    }
}

/// Runs `regbal alloc --json` in-process on `text` replicated `nthd`
/// times. The module is written to a file under `work`, which the
/// caller owns.
pub fn one_shot(
    work: &Path,
    text: &str,
    nthd: usize,
    nreg: usize,
    strategy: ServeStrategy,
) -> Result<OneShot, String> {
    let file = work.join(format!("{:016x}.rba", regbal_serve::content_hash(text)));
    std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
    let file = file.to_string_lossy().into_owned();
    let mut args: Vec<String> = vec!["alloc".into(), "--json".into()];
    args.extend(strategy.cli_flags().iter().map(|s| s.to_string()));
    args.push("--nreg".into());
    args.push(nreg.to_string());
    args.extend((0..nthd).map(|_| file.clone()));
    let mut out = String::new();
    Ok(regbal_cli::run_cli(&args, &mut out).map(|()| out))
}

/// Simulation of one allocated request next to its reference.
#[derive(Debug, Clone)]
pub struct SimCheck {
    /// Reference cycles ÷ allocated cycles over the same packets: the
    /// allocated code's packet throughput relative to the reference.
    pub speed: f64,
    /// Instructions of the allocated programs ÷ the virtual ones.
    pub growth: (usize, usize),
    /// The allocated run's report.
    pub report: RunReport,
}

/// One simulation of `funcs` over `kernel`'s seeded packets. Every
/// replica is built at slot 0, so the threads share one packet region
/// and one output region. Returns the report, the output bytes and
/// whether every thread halted.
fn run(
    funcs: Vec<Func>,
    sanitizer: Option<SanitizerConfig>,
    kernel: Kernel,
    packets: u32,
    seed: u64,
    t: &mut Tracer,
) -> (RunReport, Vec<u8>, bool) {
    let mut sim = Simulator::new(SimConfig::default());
    kernel.prepare(sim.memory_mut(), 0, packets, seed);
    for func in funcs {
        sim.add_thread(func);
    }
    if let Some(config) = sanitizer {
        sim.enable_sanitizer(config);
    }
    let report = t.time("sim.run", || sim.run(StopWhen::Cycles(CYCLE_BUDGET)));
    let (addr, len) = Workload::new(kernel, 0, packets).output_region();
    let out = sim.memory().read_bytes(MemSpace::Scratch, addr, len);
    (report, out, sim.all_halted())
}

/// Whether the virtual programs keep state in memory outside the
/// output region: a store to any space but scratch (`drr`'s deficit
/// table, `wraps-rx`'s credit vector, `l2l3fwd-rx`'s rings, `url`'s hit
/// counters). Every replica of a request is built at slot 0, so such
/// programs read and rewrite one shared table, and their joint output
/// depends on where the threads switch, which spill code moves. The
/// replicas of every other program read the same packets and write
/// the same bytes to the same output region, whatever the interleaving.
pub fn shares_state(funcs: &[Func]) -> bool {
    funcs.iter().any(|f| {
        f.iter_insts().any(|(_, _, inst)| match inst {
            Inst::Store { space, .. } | Inst::StoreBurst { space, .. } => {
                *space != MemSpace::Scratch
            }
            _ => false,
        })
    })
}

/// Simulates the verdict's code next to the virtual-register
/// reference. All threads run together with the clobber sanitizer
/// armed: every thread must halt, the sanitizer must stay silent, and
/// the joint output must equal the joint reference run's; the cycle
/// counts give the relative throughput. For programs that
/// [`shares_state`], output is instead compared thread by thread, each
/// allocated thread run alone against its virtual program run alone.
pub fn simulate(
    funcs: &[Func],
    verdict: &Verdict,
    kernel: Kernel,
    packets: u32,
    seed: u64,
    t: &mut Tracer,
) -> Result<SimCheck, String> {
    let off = &mut Tracer::new(false);
    let (reference, expected, _) = run(funcs.to_vec(), None, kernel, packets, seed, off);
    let (compiled, sanitizer) = verdict
        .compiled(funcs)
        .map_err(|e| format!("rewrite: {e}"))?;
    let growth = (
        compiled.iter().map(Func::num_insts).sum(),
        funcs.iter().map(Func::num_insts).sum(),
    );
    let (report, out, halted) = run(compiled.clone(), Some(sanitizer), kernel, packets, seed, t);
    if !halted {
        return Err("allocated code did not halt".into());
    }
    let violations = report.sanitizer_violations().count();
    if violations != 0 {
        return Err(format!("{violations} sanitizer violation(s)"));
    }
    if !shares_state(funcs) {
        if out != expected {
            return Err("output differs from the virtual-register reference".into());
        }
    } else {
        for (i, (virt, phys)) in funcs.iter().zip(compiled).enumerate() {
            let (_, expected, _) = run(vec![virt.clone()], None, kernel, packets, seed, off);
            let (_, out, halted) = run(vec![phys], None, kernel, packets, seed, off);
            if !halted || out != expected {
                return Err(format!(
                    "thread {i}: output differs from the virtual-register reference"
                ));
            }
        }
    }
    Ok(SimCheck {
        speed: reference.cycles as f64 / report.cycles.max(1) as f64,
        growth,
        report,
    })
}

/// Adds a simulation's work counters to the tracer's `sim.*` counts.
pub fn count_sim(t: &mut Tracer, report: &RunReport) {
    t.count(
        "sim.instructions",
        report.threads.iter().map(|s| s.instructions).sum::<u64>() as f64,
    );
    t.count("sim.cycles", report.cycles as f64);
    t.count("sim.idle_cycles", report.idle_cycles as f64);
    t.count(
        "sim.ctx_switches",
        report.threads.iter().map(|s| s.ctx_switches).sum::<u64>() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_programs_with_in_memory_state_are_compared_thread_by_thread() {
        let sharing: Vec<&str> = Kernel::ALL
            .iter()
            .filter(|k| shares_state(&[k.build(0, 4)]))
            .map(|k| k.name())
            .collect();
        assert_eq!(sharing, ["drr", "url", "l2l3fwd-rx", "wraps-rx"]);
    }
}
