//! The regbal benchmark: one command that runs a named workload against
//! the library crates in-process, checks every output, and prints the
//! end-to-end metrics (or, traced, the per-layer metrics) as the last
//! line of standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --workload <name> --seed <n> --seconds <n> --steady <runs>
//! ```
//!
//! See `RATIONALE.md` beside this package for why each workload exists
//! and what it bypasses.

mod alloc;
mod device;
mod eval;
mod gates;
mod host;
mod serve;
mod spans;
mod stats;
mod steady;

use host::{Attempt, Probe};
use spans::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["alloc-spill", "serve-trace", "eval-sweep", "device-64"];

/// Where a run writes its per-layer file, relative to the working
/// directory.
const OUT_DIR: &str = "perfbench-out";

/// Per-run settings.
pub struct Ctx {
    /// Workload seed: request lists, traces and packets derive from it.
    pub seed: u64,
    /// Nominal measured time; sizes the request list (see [`segments`]).
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Scratch directory for module files and server cache
    /// directories; removed when the run ends.
    pub work: PathBuf,
}

/// One row of the traced per-request table.
pub struct Row {
    /// What the row describes.
    pub label: String,
    /// Named values.
    pub values: Vec<(&'static str, f64)>,
}

/// Everything a workload measured.
pub struct Metrics {
    /// Normalised duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Normalised latency of every timed operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Measured wall time, seconds.
    pub wall_s: f64,
    /// Work completed in the measured time (unit per workload).
    pub work: f64,
    /// Work per normalised second of each timed segment; `work_per_s`
    /// is their median.
    pub rates: Vec<f64>,
    /// Segments run again because the host's speed changed during
    /// them, and kept segments during which it still changed.
    pub reruns: usize,
    /// See [`Metrics::reruns`].
    pub drifting: usize,
    /// Median host-speed probe reading of the timed segments, ms.
    pub probe_ms: f64,
    /// Median latency as measured, before normalisation, ms.
    pub raw_p50_ms: f64,
    /// Operations attempted / failed.
    pub attempted: u64,
    /// Operations that failed a gate.
    pub failed: u64,
    /// Distinct requests (or cells) answered, and of those, answered
    /// with code.
    pub requests: u64,
    /// See [`Metrics::requests`].
    pub allocated: u64,
    /// Geometric-mean simulated throughput relative to the reference.
    pub code_speed: f64,
    /// Traced minus untraced time of the same operations, ms.
    pub overhead_ms: Option<f64>,
    /// Traced per-request rows.
    pub rows: Vec<Row>,
    /// Per-layer values computed by the workload itself.
    pub layer: BTreeMap<&'static str, f64>,
    /// Self time per span name and counters of the traced run.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// See [`Metrics::self_ms`].
    pub counters: BTreeMap<&'static str, f64>,
    /// Recorded spans (name, start ns, end ns, parent, request).
    pub spans: Vec<spans::Span>,
    /// Why operations failed.
    pub failures: Vec<String>,
}

impl Metrics {
    /// Metrics with the given set-up times and nothing measured yet.
    pub fn new(setup_s: Vec<f64>) -> Metrics {
        Metrics {
            setup_s,
            latencies_ms: Vec::new(),
            wall_s: 0.0,
            work: 0.0,
            rates: Vec::new(),
            reruns: 0,
            drifting: 0,
            probe_ms: 0.0,
            raw_p50_ms: 0.0,
            attempted: 0,
            failed: 0,
            requests: 0,
            allocated: 0,
            code_speed: 1.0,
            overhead_ms: None,
            rows: Vec::new(),
            layer: BTreeMap::new(),
            self_ms: BTreeMap::new(),
            counters: BTreeMap::new(),
            spans: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Counts `ops` failed operations for `why`.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Takes the traced run's spans and counters.
    pub fn absorb(&mut self, t: &Tracer) {
        self.self_ms = t.self_ms();
        self.counters = t.counters().clone();
        self.spans = t.spans().to_vec();
    }
}

/// How many segments (list passes, sessions, sweeps, device runs) a
/// run of `seconds` holds, at the nominal `segment_s` each segment
/// takes on the two-CPU host the benchmark was sized on. The count
/// depends only on the arguments, never on elapsed time, so every run
/// with the same arguments sends the same request list.
pub fn segments(seconds: f64, segment_s: f64) -> usize {
    ((seconds / segment_s).round() as usize).max(1)
}

/// Runs `count` timed segments next to the host-speed probe (see
/// [`host::run_segments`]); `segment` records the raw latency of each
/// operation in the attempt and returns the work it completed. Records
/// the normalised latencies and per-segment rates in `m`.
pub fn timed(
    m: &mut Metrics,
    probe: &Probe,
    count: usize,
    segment: impl FnMut(usize, &mut Attempt) -> f64,
) {
    let measured = host::run_segments(probe, count, segment);
    m.wall_s = measured.wall_s;
    m.reruns = measured.reruns;
    m.drifting = measured.drifting;
    m.probe_ms = measured.probe_ms;
    let raw: Vec<f64> = measured
        .kept
        .iter()
        .flat_map(|k| k.raw_ms.iter().copied())
        .collect();
    if !raw.is_empty() {
        m.raw_p50_ms = stats::median(&raw);
    }
    for kept in measured.kept {
        m.latencies_ms.extend(kept.latencies_ms);
        m.rates.push(kept.rate);
        m.work += kept.work;
    }
}

/// One step of the splitmix64 generator.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("code_speed", "ratio"),
    ("alloc_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics: name and unit. A metric whose layer does no
/// work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("ir.parse_ms", "ms"),
    ("ir.inline_ms", "ms"),
    ("analysis.info_ms", "ms"),
    ("analysis.spillcost_ms", "ms"),
    ("igraph.gig_ms", "ms"),
    ("igraph.big_ms", "ms"),
    ("igraph.iig_ms", "ms"),
    ("core.bounds_ms", "ms"),
    ("core.descent_ms", "ms"),
    ("core.descent_init_ms", "ms"),
    ("core.descent_search_ms", "ms"),
    ("core.descent_verify_ms", "ms"),
    ("core.iterations", "count"),
    ("core.candidates_evaluated", "count"),
    ("core.candidates_cached", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.spill_ms", "ms"),
    ("core.ladder_ms", "ms"),
    ("core.balanced_ms", "ms"),
    ("core.spill_picks", "count"),
    ("core.spilled_ranges", "count"),
    ("core.scratch_spills", "count"),
    ("core.ladder_degradations", "count"),
    ("core.ladder_retries", "count"),
    ("core.rewrite_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.code_growth", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.ctx_switches", "count"),
    ("sim.idle_share", "ratio"),
    ("sim.ns_per_instr", "ns"),
    ("device.compile_ms", "ms"),
    ("device.run_ms", "ms"),
    ("device.instructions", "count"),
    ("device.cycles", "count"),
    ("device.ns_per_instr", "ns"),
    ("eval.run_ms", "ms"),
    ("eval.compile_ms", "ms"),
    ("eval.sim_ms", "ms"),
    ("eval.cell_ms_p50", "ms"),
    ("eval.cell_ms_max", "ms"),
    ("eval.cost_computes", "count"),
    ("eval.pool_efficiency", "ratio"),
    ("eval.cells_ok", "count"),
    ("eval.cells_infeasible", "count"),
    ("serve.parse_ms", "ms"),
    ("serve.hash_ms", "ms"),
    ("serve.alloc_ms", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.descents", "count"),
    ("serve.descent_reuses", "count"),
    ("serve.evictions", "count"),
    ("serve.disk_writes", "count"),
    ("serve.admission_wait_p99_us", "us"),
    ("serve.queue_high_water", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats a JSON number with every digit Rust's shortest round-trip
/// form gives (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn metric_json(out: &mut String, values: &[(&str, f64, &str)]) {
    out.push('{');
    for (i, (name, value, unit)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push('}');
}

/// The per-layer value of `name` from the traced run.
fn layer_value(m: &Metrics, name: &str) -> f64 {
    let counter = |n: &str| m.counters.get(n).copied().unwrap_or(0.0);
    let own = |n: &str| m.self_ms.get(n).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    if let Some(v) = m.layer.get(name) {
        return *v;
    }
    match name {
        "trace.overhead_ms" => m.overhead_ms.unwrap_or(0.0),
        // The rest of `load_module` after its parse: root discovery and
        // inlining.
        "ir.inline_ms" => (own("ir.load") - own("ir.parse")).max(0.0),
        "core.memo_hit_ratio" => ratio(
            counter("core.candidates_cached"),
            counter("core.candidates_cached") + counter("core.candidates_evaluated"),
        ),
        "sim.idle_share" => ratio(counter("sim.idle_cycles"), counter("sim.cycles")),
        "sim.ns_per_instr" => ratio(own("sim.run") * 1e6, counter("sim.instructions")),
        "device.ns_per_instr" => ratio(own("device.run") * 1e6, counter("device.instructions")),
        _ => match m.counters.get(name) {
            Some(v) => *v,
            None => name.strip_suffix("_ms").map_or(0.0, own),
        },
    }
}

/// What the latency percentiles were computed from, for the report and
/// the steadiness check.
fn latency_detail(sorted: &[f64]) -> (f64, f64, String) {
    let n = sorted.len();
    let p50_rank = stats::nearest_rank(n, 50.0);
    let (tail_pct, tail_rank, tail) = stats::tail(sorted);
    let around = |rank: usize| {
        let i = rank - 1;
        format!(
            "[{}, {}]",
            num(sorted[i.saturating_sub(1)]),
            num(sorted[(i + 1).min(n - 1)])
        )
    };
    let detail = format!(
        "\"samples\": {n}, \"p50_rank\": {p50_rank}, \"p50_neighbours_ms\": {}, \
         \"tail_percentile\": {}, \"tail_rank\": {tail_rank}, \"tail_neighbours_ms\": {}",
        around(p50_rank),
        num(tail_pct),
        around(tail_rank)
    );
    (sorted[p50_rank - 1], tail, detail)
}

fn report(workload: &str, ctx: &Ctx, m: &Metrics) -> String {
    let mut sorted = m.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        sorted.push(0.0);
    }
    let (p50, tail, detail) = latency_detail(&sorted);
    let mut out = String::new();
    let failures: Vec<String> = m.failures.iter().map(|f| format!("{f:?}")).collect();
    let _ =
        writeln!(
        out,
        "{{\"detail\": {{\"workload\": \"{workload}\", \"seed\": {}, {detail}, \"wall_s\": {}, \
         \"work\": {}, \"probe_ms\": {}, \"raw_p50_ms\": {}, \"reruns\": {}, \"drifting\": {}, \"setup_runs_s\": [{}], \"failures\": [{}]}}}}",
        ctx.seed,
        num(m.wall_s),
        num(m.work),
        num(m.probe_ms),
        num(m.raw_p50_ms),
        m.reruns,
        m.drifting,
        m.setup_s.iter().map(|s| num(*s)).collect::<Vec<_>>().join(", "),
        failures.join(", ")
    );
    let values: Vec<(&str, f64, &str)> = if ctx.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, layer_value(m, n), u))
            .collect()
    } else {
        let ok_ratio = if m.requests > 0 {
            m.allocated as f64 / m.requests as f64
        } else {
            0.0
        };
        let values = [
            stats::median(&m.setup_s),
            p50,
            tail,
            if m.rates.is_empty() {
                0.0
            } else {
                stats::median(&m.rates)
            },
            m.code_speed,
            ok_ratio,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };
    let correct = m.failed == 0 && m.attempted > 0;
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        m.attempted.max(1),
        m.failed
    );
    metric_json(&mut out, &values);
    out.push('}');
    out
}

/// Writes the traced run's machine-readable per-layer file.
fn write_layers(workload: &str, ctx: &Ctx, m: &Metrics) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = PathBuf::from(OUT_DIR).join(format!("{workload}.layers.json"));
    let mut s = String::new();
    let map = |m: &BTreeMap<&'static str, f64>| {
        m.iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = write!(
        s,
        "{{\"schema\": \"regbal-perfbench-layers/1\", \"workload\": \"{workload}\", \"seed\": {}, \
         \"tracing_overhead_ms\": {}, \"self_ms\": {{{}}}, \"counters\": {{{}}}, \"metrics\": {{{}}}, \"rows\": [",
        ctx.seed,
        num(m.overhead_ms.unwrap_or(0.0)),
        map(&m.self_ms),
        map(&m.counters),
        PER_LAYER
            .iter()
            .map(|&(n, _)| format!("\"{n}\": {}", num(layer_value(m, n))))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (i, row) in m.rows.iter().enumerate() {
        let values: Vec<String> = row
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        let _ = write!(
            s,
            "{}{{\"label\": \"{}\", {}}}",
            if i > 0 { ", " } else { "" },
            row.label,
            values.join(", ")
        );
    }
    s.push_str("], \"spans\": [");
    for (i, span) in m.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}[\"{}\", {}, {}, {}, {}]",
            if i > 0 { ", " } else { "" },
            span.name,
            span.start_ns,
            span.end_ns,
            span.parent.map_or(-1, |p| p as i64),
            span.request
        );
    }
    s.push_str("]}\n");
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Prints the traced table (one row per request) to stdout.
fn print_rows(m: &Metrics) {
    for row in &m.rows {
        let values: Vec<String> = row
            .values
            .iter()
            .map(|(k, v)| format!("{k}={}", num(*v)))
            .collect();
        println!("row {:<28} {}", row.label, values.join(" "));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<String, String> {
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let result = match args.workload.as_str() {
        "alloc-spill" => alloc::run(&ctx),
        "serve-trace" => serve::run(&ctx),
        "eval-sweep" => eval::run(&ctx),
        _ => device::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    let m = result?;
    if ctx.trace {
        print_rows(&m);
        let path = write_layers(&args.workload, &ctx, &m)?;
        eprintln!("per-layer file: {}", path.display());
    }
    for failure in &m.failures {
        eprintln!("failed: {failure}");
    }
    Ok(report(&args.workload, &ctx, &m))
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
        Ok(args) => match args.steady {
            Some(runs) => steady::check(&args.workload, args.seed, args.seconds, runs),
            None => match run(&args) {
                Ok(line) => {
                    println!("{line}");
                    0
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    1
                }
            },
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lists_repeat_per_seed_and_keep_their_multiset() {
        let label = |l: &[alloc::Request]| l.iter().map(|r| r.label()).collect::<Vec<_>>();
        let a = alloc::request_list(7);
        assert_eq!(a.len(), 22);
        assert_eq!(label(&a), label(&alloc::request_list(7)));
        let b = alloc::request_list(8);
        assert_ne!(label(&a), label(&b), "the seed orders the list");
        let (mut sa, mut sb) = (label(&a), label(&b));
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "every seed sends the same requests");
        assert!(a
            .iter()
            .zip(&alloc::request_list(7))
            .all(|(x, y)| x.text == y.text));

        let lines = |seed| {
            serve::sessions(seed, 3)
                .iter()
                .flat_map(|s| s.lines.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(3), lines(3));
        assert_ne!(lines(3), lines(4));
    }

    #[test]
    fn segment_counts_depend_only_on_the_arguments() {
        assert_eq!(segments(15.0, 0.75), 20);
        assert_eq!(segments(0.1, 5.0), 1);
        let mut m = Metrics::new(vec![0.1]);
        timed(&mut m, &Probe::new(1), 3, |_, a| {
            a.push(1.0);
            5.0
        });
        assert_eq!((m.rates.len(), m.latencies_ms.len(), m.work), (3, 3, 15.0));
    }

    #[test]
    fn reports_end_with_the_result_line() {
        let ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: false,
            work: PathBuf::new(),
        };
        let mut m = Metrics::new(vec![0.5, 0.4, 0.6]);
        m.latencies_ms = (1..=20).map(f64::from).collect();
        m.rates = vec![9.0, 10.0, 12.0];
        m.attempted = 20;
        m.requests = 4;
        m.allocated = 3;
        m.fail(1, "seeded wrong output".into());
        let text = report("alloc-spill", &ctx, &m);
        let last = text.lines().last().unwrap();
        let doc = regbal_eval::json::parse(last).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
        let metric = |n: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
        };
        assert_eq!(metric("setup_s"), Some(0.5));
        assert_eq!(metric("latency_p50_ms"), Some(10.0));
        assert_eq!(metric("latency_tail_ms"), Some(20.0));
        assert_eq!(metric("work_per_s"), Some(10.0));
        assert_eq!(metric("alloc_ok_ratio"), Some(0.75));
        let keys: Vec<&str> = match &doc {
            regbal_eval::Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
