//! The `alloc-spill` workload and the one-shot allocation operation it
//! times: `load_module` → `replicate` → `allocate` →
//! `Verdict::compiled` → `verdict_doc`, exactly the one-shot
//! `regbal alloc --json` path. The layer probe that decomposes one
//! request into the analysis, interference-graph and engine stages
//! lives here too; the `serve-trace` workload reuses it for its
//! misses.

use crate::gates::{self, OneShot};
use crate::host::Probe;
use crate::spans::Tracer;
use crate::stats;
use crate::{Ctx, Metrics, Row};
use regbal_analysis::{ProgramInfo, SpillCosts};
use regbal_core::{allocate_threads_stats, estimate_bounds, verify, EngineConfig, MultiAllocation};
use regbal_igraph::{build_big, build_gig, build_iigs};
use regbal_ir::{parse_module, Func};
use regbal_serve::{allocate, kernel_text, replicate, verdict_doc, ServeStrategy, Verdict};
use regbal_workloads::Kernel;
use std::hint::black_box;
use std::time::Instant;

/// Threads per request.
pub const NTHD: usize = 4;
/// Register-file size per request: the degraded regime for most kernels.
pub const NREG: usize = 32;
/// Packets per thread in the kernel programs and the simulation gate.
pub const PACKETS: u32 = 8;
/// Nominal seconds of one pass over the list (two-CPU host). A run
/// of 10 s makes 13 passes: the ten samples beyond the tail rank are
/// then all `wraps-rx` ladder walks, the slowest request of the list,
/// so the tail is one too, and the median sits between the two
/// `fir2dim` requests (11.0 and 11.8 ms as measured), the adjacent pair nearest in
/// cost of the list.
pub const PASS_S: f64 = 0.75;
/// The two degraded-path strategies.
pub const STRATEGIES: [ServeStrategy; 2] = [ServeStrategy::BalancedSpill, ServeStrategy::Ladder];

/// One allocation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The kernel the module text was built from.
    pub kernel: Kernel,
    /// The module text.
    pub text: String,
    /// Threads (replicas of the module's root).
    pub nthd: usize,
    /// Register-file size.
    pub nreg: usize,
    /// Strategy.
    pub strategy: ServeStrategy,
}

impl Request {
    /// `kernel/strategy` — the row label of the traced table.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kernel.name(), self.strategy.name())
    }
}

/// The fixed request list: every kernel × both strategies at
/// `NTHD`×`NREG`, in an order shuffled by `seed`. Every seed yields the
/// same multiset of requests; only the order changes.
pub fn request_list(seed: u64) -> Vec<Request> {
    let mut list: Vec<Request> = Kernel::ALL
        .iter()
        .flat_map(|&kernel| {
            let text = kernel_text(kernel, PACKETS);
            STRATEGIES.map(|strategy| Request {
                kernel,
                text: text.clone(),
                nthd: NTHD,
                nreg: NREG,
                strategy,
            })
        })
        .collect();
    crate::shuffle(&mut list, seed);
    list
}

/// What one operation returned: the `regbal-alloc/1` document
/// (pretty) or the one-shot error message, plus the verdict.
pub struct OpOut {
    /// The document or the does-not-fit message.
    pub answer: Result<String, String>,
    /// The verdict and the replicated programs it was computed for.
    pub verdict: Option<(Vec<Func>, Verdict)>,
}

/// `regbal_serve::load_module` (parse, then inline every root) inside
/// an `ir.load` span: the timed and the traced operation run the same
/// code. The layer probe parses the module once more on its own, so the
/// `ir.parse` share of `ir.load` can be told from the rest.
pub fn load(text: &str, t: &mut Tracer) -> Result<Vec<Func>, String> {
    t.time("ir.load", || regbal_serve::load_module(text))
        .map_err(|e| e.to_string())
}

/// The span name of an allocation under `strategy`.
pub fn core_span(strategy: ServeStrategy) -> &'static str {
    match strategy {
        ServeStrategy::Ladder => "core.ladder",
        ServeStrategy::BalancedSpill => "core.spill",
        ServeStrategy::Balanced => "core.balanced",
    }
}

/// One timed operation: the library's one-shot path, with a span
/// around each call when traced.
pub fn op(req: &Request, t: &mut Tracer) -> OpOut {
    t.enter("op");
    let out = match load(&req.text, t) {
        Err(message) => OpOut {
            answer: Err(message),
            verdict: None,
        },
        Ok(roots) => {
            let funcs = replicate(&roots, req.nthd);
            let verdict = t.time(core_span(req.strategy), || {
                allocate(&funcs, req.nreg, req.strategy)
            });
            match verdict {
                Err(failure) => OpOut {
                    answer: Err(failure.message),
                    verdict: None,
                },
                Ok(verdict) => {
                    let compiled = t.time("core.rewrite", || verdict.compiled(&funcs));
                    let doc = t.time("serve.doc", || {
                        verdict_doc(&funcs, req.nreg, &verdict).pretty()
                    });
                    match compiled {
                        Err(e) => OpOut {
                            answer: Err(format!("rewrite failed: {e}")),
                            verdict: None,
                        },
                        Ok(code) => {
                            black_box(code);
                            OpOut {
                                answer: Ok(doc),
                                verdict: Some((funcs, verdict)),
                            }
                        }
                    }
                }
            }
        }
    };
    t.exit();
    out
}

/// The balancing allocation behind a verdict (the ladder's only when
/// it settled on a balancing rung).
fn balancing(verdict: &Verdict) -> Option<&MultiAllocation> {
    match verdict {
        Verdict::Balanced(a) => Some(a),
        Verdict::Spill(h) => Some(&h.alloc),
        Verdict::Ladder(l) => l.balanced_alloc(),
    }
}

/// The spill-path counters of one verdict.
pub fn count_verdict(t: &mut Tracer, verdict: &Verdict) {
    match verdict {
        Verdict::Balanced(_) => {}
        Verdict::Spill(h) => {
            t.count("core.spill_picks", h.picks.len() as f64);
            t.count("core.spilled_ranges", h.spills.iter().sum::<usize>() as f64);
            t.count(
                "core.scratch_spills",
                h.scratch_spills.iter().sum::<usize>() as f64,
            );
        }
        Verdict::Ladder(l) => {
            let summaries = l.thread_summaries();
            t.count("core.spill_picks", l.spill_picks().len() as f64);
            t.count(
                "core.spilled_ranges",
                summaries.iter().map(|s| s.spills).sum::<usize>() as f64,
            );
            t.count(
                "core.scratch_spills",
                l.scratch_spills().iter().sum::<usize>() as f64,
            );
            t.count("core.ladder_degradations", l.degraded_count() as f64);
            t.count("core.ladder_retries", l.retries.len() as f64);
        }
    }
}

/// The layer probe: parses the request's module text, then calls the
/// analysis, interference-graph, bounds and engine entry points on its
/// threads, one span each, the way the allocator calls them
/// internally. Engine counters come from `allocate_threads_stats`
/// (present only when plain balancing fits).
pub fn probe(text: &str, funcs: &[Func], nreg: usize, verdict: Option<&Verdict>, t: &mut Tracer) {
    t.enter("probe");
    black_box(t.time("ir.parse", || parse_module(text)).is_ok());
    for func in funcs {
        let info = t.time("analysis.info", || ProgramInfo::compute(func));
        black_box(t.time("analysis.spillcost", || SpillCosts::compute(func)));
        let gig = t.time("igraph.gig", || build_gig(&info));
        black_box(t.time("igraph.big", || build_big(&info)));
        black_box(t.time("igraph.iig", || build_iigs(&info, &gig)));
        black_box(t.time("core.bounds", || estimate_bounds(&info)));
    }
    let descent = t.time("core.descent", || {
        allocate_threads_stats(funcs, nreg, EngineConfig::default())
    });
    t.count("core.descents", 1.0);
    if let Ok((_, stats)) = &descent {
        t.count("core.descent_init_ms", stats.init.as_secs_f64() * 1e3);
        t.count("core.descent_search_ms", stats.search.as_secs_f64() * 1e3);
        t.count("core.descent_verify_ms", stats.verify.as_secs_f64() * 1e3);
        t.count("core.iterations", stats.iterations as f64);
        t.count("core.candidates_evaluated", stats.evaluated as f64);
        t.count("core.candidates_cached", stats.cached as f64);
    }
    if let Some(alloc) = verdict.and_then(balancing) {
        let threads: Vec<_> = alloc.threads.iter().map(|r| r.alloc.clone()).collect();
        black_box(
            t.time("core.verify", || {
                verify::check_threads(&threads, alloc.nreg)
            })
            .is_ok(),
        );
    }
    t.exit();
}

/// Gates one request outside the timed loop. Every timed answer must
/// equal what the one-shot CLI prints for the request, and an allocated
/// verdict must simulate to the reference output with a silent
/// sanitizer. Each wrong answer is one failed operation; a verdict that
/// fails simulation fails every operation that returned it. Returns
/// the allocated code's relative throughput.
pub fn gate(
    ctx: &Ctx,
    req: &Request,
    out: &OpOut,
    answers: &[Result<String, String>],
    m: &mut Metrics,
) -> Option<f64> {
    let ops = answers.len() as u64;
    m.attempted += ops;
    m.requests += 1;
    m.allocated += u64::from(out.answer.is_ok());
    let expected: OneShot =
        match gates::one_shot(&ctx.work, &req.text, req.nthd, req.nreg, req.strategy) {
            Ok(expected) => expected,
            Err(e) => {
                m.fail(ops, e);
                return None;
            }
        };
    let wrong = answers
        .iter()
        .filter(|a| gates::cli_form(a) != expected)
        .count() as u64;
    if wrong > 0 {
        m.fail(
            wrong,
            format!(
                "{}: {wrong} answer(s) differ from the one-shot CLI",
                req.label()
            ),
        );
    }
    let (funcs, verdict) = out.verdict.as_ref()?;
    match gates::simulate(
        funcs,
        verdict,
        req.kernel,
        PACKETS,
        ctx.seed,
        &mut Tracer::new(false),
    ) {
        Ok(check) => Some(check.speed),
        Err(e) => {
            m.fail(ops - wrong, format!("{}: {e}", req.label()));
            None
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Metrics, String> {
    // The engine runs its descents on every CPU.
    let probe = Probe::new(crate::host::cpus());
    let mut setup = Vec::new();
    let mut list = Vec::new();
    for _ in 0..crate::SETUPS {
        let secs;
        (list, secs) = probe.time(|| {
            let list = request_list(ctx.seed);
            // Warm-up: one operation of every request, so lazily built
            // state and page faults are paid before timing.
            for req in &list {
                black_box(op(req, &mut Tracer::new(false)).answer.is_ok());
            }
            list
        });
        setup.push(secs);
    }
    let mut m = Metrics::new(setup);

    // Timed: a fixed number of passes over the list.
    let mut first: Vec<Option<OpOut>> = (0..list.len()).map(|_| None).collect();
    let mut answers: Vec<Vec<Result<String, String>>> = vec![Vec::new(); list.len()];
    let off = &mut Tracer::new(false);
    let passes = crate::segments(ctx.seconds, PASS_S);
    crate::timed(&mut m, &probe, passes, |_, a| {
        for (i, req) in list.iter().enumerate() {
            let start = Instant::now();
            let out = op(req, off);
            a.push(start.elapsed().as_secs_f64() * 1e3);
            answers[i].push(out.answer.clone());
            if first[i].is_none() {
                first[i] = Some(out);
            }
        }
        list.len() as f64
    });

    // Gates, outside the timed loop.
    let mut speeds = Vec::new();
    let mut rows = Vec::new();
    for (i, req) in list.iter().enumerate() {
        let out = first[i].take().expect("every request ran");
        speeds.extend(gate(ctx, req, &out, &answers[i], &mut m));
        let own: Vec<f64> = m
            .latencies_ms
            .iter()
            .skip(i)
            .step_by(list.len())
            .copied()
            .collect();
        rows.push((req.label(), stats::median(&own)));
    }
    m.code_speed = stats::geomean(&speeds);

    if ctx.trace {
        trace_pass(ctx, &list, &mut m, &rows)?;
    }
    Ok(m)
}

/// The traced run: the same list once untraced and once traced (their
/// difference is the tracing overhead), then the layer probe and the
/// simulation gate under spans, and one table row per kernel ×
/// strategy.
fn trace_pass(
    ctx: &Ctx,
    list: &[Request],
    m: &mut Metrics,
    medians: &[(String, f64)],
) -> Result<(), String> {
    let t = &mut Tracer::new(true);
    let off = &mut Tracer::new(false);
    let start = Instant::now();
    for req in list {
        black_box(op(req, off).answer.is_ok());
    }
    let untraced = start.elapsed().as_secs_f64() * 1e3;
    let mut outs = Vec::new();
    let start = Instant::now();
    for (i, req) in list.iter().enumerate() {
        t.set_request(i as u64);
        outs.push(op(req, t));
    }
    let traced = start.elapsed().as_secs_f64() * 1e3;
    m.overhead_ms = Some(traced - untraced);

    let mut growth = (0usize, 0usize);
    for (i, (req, out)) in list.iter().zip(&outs).enumerate() {
        t.set_request(i as u64);
        let before: std::collections::BTreeMap<&str, f64> = t.counters().clone();
        let funcs = match &out.verdict {
            Some((funcs, _)) => funcs.clone(),
            None => replicate(&load(&req.text, off)?, req.nthd),
        };
        let verdict = out.verdict.as_ref().map(|(_, v)| v);
        probe(&req.text, &funcs, req.nreg, verdict, t);
        if let Some(v) = verdict {
            count_verdict(t, v);
            let check = gates::simulate(&funcs, v, req.kernel, PACKETS, ctx.seed, t)?;
            gates::count_sim(t, &check.report);
            growth.0 += check.growth.0;
            growth.1 += check.growth.1;
        }
        let delta = |name: &str| t.counter(name) - before.get(name).copied().unwrap_or(0.0);
        let label = req.label();
        let latency = medians
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |r| r.1);
        m.rows.push(Row {
            label,
            values: vec![
                ("latency_ms", latency),
                ("allocated", f64::from(u8::from(out.answer.is_ok()))),
                ("core.iterations", delta("core.iterations")),
                (
                    "core.candidates_evaluated",
                    delta("core.candidates_evaluated"),
                ),
                ("core.spill_picks", delta("core.spill_picks")),
                ("core.spilled_ranges", delta("core.spilled_ranges")),
                ("core.scratch_spills", delta("core.scratch_spills")),
                (
                    "core.ladder_degradations",
                    delta("core.ladder_degradations"),
                ),
                ("core.ladder_retries", delta("core.ladder_retries")),
            ],
        });
    }
    if growth.1 > 0 {
        t.set("core.code_growth", growth.0 as f64 / growth.1 as f64);
    }
    m.absorb(t);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn a_seeded_wrong_output_is_a_failed_operation() {
        let work = PathBuf::from(".perfbench-work").join(format!("gate-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            trace: false,
            work: work.clone(),
        };
        let req = request_list(1)
            .into_iter()
            .find(|r| r.label() == "crc/ladder")
            .unwrap();
        let out = op(&req, &mut Tracer::new(false));
        let right = out.answer.clone();
        assert!(right.is_ok());

        let mut m = Metrics::new(vec![0.0]);
        let speed = gate(&ctx, &req, &out, &[right.clone(), right.clone()], &mut m);
        assert!(speed.is_some_and(|s| s > 0.0));
        assert_eq!((m.attempted, m.failed), (2, 0));

        // One of three answers has a register count off by one.
        let wrong = right
            .clone()
            .map(|doc| doc.replacen("\"pr\": ", "\"pr\": 1", 1));
        assert_ne!(wrong, right);
        let mut m = Metrics::new(vec![0.0]);
        gate(&ctx, &req, &out, &[right.clone(), wrong, right], &mut m);
        assert_eq!((m.attempted, m.failed), (3, 1));
        assert_eq!(m.failures.len(), 1);
        std::fs::remove_dir_all(work).unwrap();
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}
