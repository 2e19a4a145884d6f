//! The `serve-trace` workload: seeded `regbal-trace/1` traffic served
//! by a fresh resident server (`serve_lines_metered` over in-process
//! pipes, default `ServeConfig`, one worker, an empty `--cache-dir`),
//! one request in flight, cold. One operation is one served request,
//! timed from the write of its line to the read of its response.

use crate::alloc;
use crate::gates;
use crate::host::Attempt;
use crate::spans::Tracer;
use crate::stats;
use crate::{Ctx, Metrics};
use regbal_eval::{json, Json};
use regbal_serve::replay::pipe;
use regbal_serve::{
    allocate, content_hash, materialize, parse_request, replicate, request_line,
    serve_lines_metered, verdict_doc, MaterializedRequest, ServeConfig, ServeEnd, ServeMetrics,
    ServeStrategy,
};
use regbal_workloads::{generate_trace, TraceConfig};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

/// Requests per session trace. The slowest requests of a session are
/// its cold starts: the first `balanced-spill` or `ladder` request for
/// a hungry kernel at 4 threads computes the whole-sweep spill descent
/// (80–400 ms for `md5` and `wraps-rx`), about two per session. Below
/// them lies a continuum, `md5` at 4 threads and `Nreg` 32–37 under the
/// degraded strategies (35–75 ms, slower the smaller `Nreg`). With
/// 100-request sessions the cold starts numbered about ten per 1900
/// requests, so the tail rank fell on either side of the boundary
/// depending on the seed (107–184 ms over ten seeds). Three long
/// sessions hold about six cold starts and enough `md5` requests that
/// the tail lands well inside the `md5` continuum, where neighbouring
/// samples are close.
pub const SESSION_REQUESTS: usize = 1000;
/// Packets per thread in the trace's kernel programs and the
/// simulation gate (the trace generator's default).
const PACKETS: u32 = 4;
/// Nominal seconds one session takes to serve (two-CPU host); a run of
/// 10 s holds 3 sessions, 3000 requests.
const SESSION_S: f64 = 4.0;
/// The set-up's warm-up: the first requests of a session generated
/// from a fixed seed, so its cost (cold starts included) is the same
/// whatever `--seed` is.
const WARM_SEED: u64 = 0;
/// See [`WARM_SEED`].
const WARM_REQUESTS: usize = 50;
/// Requests between two host-speed probe readings inside a timed
/// session (about 0.4 s on the two-CPU host).
const MARK_EVERY: usize = 100;
/// Largest step of the register-budget walk. The generator's default
/// (12) walks so slowly that a 100-request session spends anywhere from
/// 2 % to 21 % of its requests at 4 threads under `Nreg` 48, depending
/// on the seed; at 48 that share stays within 14–20 %.
pub const NREG_DRIFT: usize = 48;

/// One cold session: a generated trace and its request lines.
pub struct Session {
    /// Position of the session's first request in the whole list (the
    /// traced run's request ids).
    pub first_id: u64,
    /// The materialised requests.
    pub wire: Vec<MaterializedRequest>,
    /// One protocol line per request.
    pub lines: Vec<String>,
}

/// The request list of a seed: `count` traces of [`SESSION_REQUESTS`]
/// requests, each from its own derived seed, each to be served cold on
/// a fresh server.
pub fn sessions(seed: u64, count: usize) -> Vec<Session> {
    (0..count as u64)
        .map(|i| {
            let config = TraceConfig {
                requests: SESSION_REQUESTS,
                packets: PACKETS,
                nreg_drift: NREG_DRIFT,
                seed: crate::splitmix(seed ^ (i << 32)),
                ..TraceConfig::default()
            };
            let wire = materialize(&generate_trace(&config), config.packets);
            let lines = wire
                .iter()
                .enumerate()
                .map(|(id, req)| request_line(id as u64, req, false))
                .collect();
            Session {
                first_id: i * SESSION_REQUESTS as u64,
                wire,
                lines,
            }
        })
        .collect()
}

/// What one served session returned.
struct Served {
    /// Response lines, in request order.
    responses: Vec<String>,
    /// Per-request latency, ms.
    latencies_ms: Vec<f64>,
    /// The server's `stats` counters at shutdown.
    stats: Json,
    /// Admission-queue metrics.
    metrics: regbal_serve::MetricsSnapshot,
}

/// Serves one session on a fresh server with an empty cache directory.
/// A timed session records each latency in `attempt` and reads the
/// host-speed probe every [`MARK_EVERY`] requests.
fn serve(
    session: &Session,
    dir: &std::path::Path,
    t: &mut Tracer,
    mut attempt: Option<&mut Attempt>,
) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = ServeConfig {
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let metrics = ServeMetrics::default();
    let (mut request_tx, request_rx) = pipe();
    let (response_tx, response_rx) = pipe();
    let served = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut cache = config.open_cache()?;
            let end = serve_lines_metered(request_rx, response_tx, &config, &mut cache, &metrics)?;
            Ok::<_, std::io::Error>((end, cache.stats_json()))
        });
        let mut responses = BufReader::new(response_rx);
        let mut out = Vec::with_capacity(session.lines.len());
        let mut latencies = Vec::with_capacity(session.lines.len());
        let mut client = || -> Result<(), String> {
            for (i, line) in session.lines.iter().enumerate() {
                if let Some(a) = attempt.as_deref_mut() {
                    if i > 0 && i % MARK_EVERY == 0 {
                        a.mark();
                    }
                }
                t.set_request(session.first_id + i as u64);
                t.enter("op");
                let sent = Instant::now();
                writeln!(request_tx, "{line}").map_err(|e| format!("send: {e}"))?;
                let mut response = String::new();
                match responses.read_line(&mut response) {
                    Ok(0) => return Err("server closed early".into()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                if let Some(a) = attempt.as_deref_mut() {
                    a.push(ms);
                }
                latencies.push(ms);
                t.exit();
                out.push(response.trim_end().to_string());
            }
            Ok(())
        };
        let driven = client();
        let _ = writeln!(request_tx, r#"{{"id": "bye", "kind": "shutdown"}}"#);
        let mut ack = String::new();
        let _ = responses.read_line(&mut ack);
        drop(request_tx);
        let ended = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        driven?;
        match ended {
            Ok((ServeEnd::Shutdown, stats)) => Ok(Served {
                responses: out,
                latencies_ms: latencies,
                stats,
                metrics: metrics.snapshot(),
            }),
            Ok((ServeEnd::Eof, _)) => Err("server ended before shutdown".to_string()),
            Err(e) => Err(format!("server transport error: {e}")),
        }
    });
    let _ = std::fs::remove_dir_all(dir);
    served
}

/// The answer a response carries: the pretty `alloc` document or the
/// error message.
fn answer(line: &str) -> Result<(Result<String, String>, bool), String> {
    let doc = json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    let cached = doc.get("cached").and_then(Json::as_bool).unwrap_or(false);
    match (doc.get("alloc"), doc.get("error")) {
        (Some(alloc), _) => Ok((Ok(alloc.pretty()), cached)),
        (None, Some(error)) => Ok((
            Err(error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()),
            cached,
        )),
        (None, None) => Err(format!("malformed response: {line}")),
    }
}

type Key = (u64, usize, usize, ServeStrategy);

fn key(req: &MaterializedRequest) -> Key {
    (req.hash, req.nthd, req.nreg, req.strategy)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Metrics, String> {
    // The server's engine runs its descents on every CPU.
    let probe = crate::host::Probe::new(crate::host::cpus());
    let mut setup = Vec::new();
    let mut list = Vec::new();
    for i in 0..crate::SETUPS {
        let (warmed, secs) = probe.time(|| {
            list = sessions(ctx.seed, crate::segments(ctx.seconds, SESSION_S));
            let mut warm = sessions(WARM_SEED, 1).remove(0);
            warm.wire.truncate(WARM_REQUESTS);
            warm.lines.truncate(WARM_REQUESTS);
            let dir = ctx.work.join(format!("warm-{i}"));
            serve(&warm, &dir, &mut Tracer::new(false), None)
        });
        black_box(warmed?);
        setup.push(secs);
    }
    let mut m = Metrics::new(setup);

    // Timed: every session on a fresh server; each attempt at a session
    // (see `crate::timed`) is kept for the gates with its session index.
    let mut served: Vec<(usize, Served)> = Vec::new();
    let off = &mut Tracer::new(false);
    let mut error = None;
    let mut attempts = 0;
    crate::timed(&mut m, &probe, list.len(), |s, a| {
        attempts += 1;
        let dir = ctx.work.join(format!("s{attempts}"));
        match serve(&list[s], &dir, off, Some(a)) {
            Ok(session) => {
                let n = session.responses.len() as f64;
                served.push((s, session));
                n
            }
            Err(e) => {
                error = Some(e);
                0.0
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }

    // Gates: every response must equal the one-shot answer of its key
    // (the `regbal_serve::oneshot` functions the CLI prints through),
    // and every distinct allocated key must simulate to the reference.
    let mut expected: HashMap<Key, Result<String, String>> = HashMap::new();
    let mut speeds = Vec::new();
    for req in list.iter().flat_map(|s| &s.wire) {
        if expected.contains_key(&key(req)) {
            continue;
        }
        let funcs = replicate(
            &regbal_serve::load_module(&req.text).map_err(|e| e.to_string())?,
            req.nthd,
        );
        let answer = match allocate(&funcs, req.nreg, req.strategy) {
            Ok(verdict) => {
                match gates::simulate(
                    &funcs,
                    &verdict,
                    req.kernel,
                    PACKETS,
                    ctx.seed,
                    &mut Tracer::new(false),
                ) {
                    Ok(check) => speeds.push(check.speed),
                    Err(e) => m.fail(1, format!("{}: {e}", request_label(req))),
                }
                Ok(verdict_doc(&funcs, req.nreg, &verdict).pretty())
            }
            Err(failure) => Err(failure.message),
        };
        expected.insert(key(req), answer);
    }
    // Every attempt is gated; the first of each session is counted in
    // `alloc_ok_ratio`, so re-runs leave it unchanged.
    let mut counted = vec![false; list.len()];
    for (s, served) in &served {
        let first = !std::mem::replace(&mut counted[*s], true);
        for (req, line) in list[*s].wire.iter().zip(&served.responses) {
            m.attempted += 1;
            match answer(line) {
                Ok((got, _)) if expected.get(&key(req)) == Some(&got) => {
                    if first {
                        m.requests += 1;
                        m.allocated += u64::from(got.is_ok());
                    }
                }
                _ => m.fail(
                    1,
                    format!("response to {} differs from one-shot", request_label(req)),
                ),
            }
        }
    }
    m.code_speed = stats::geomean(&speeds);
    if ctx.trace {
        trace_pass(ctx, &list, &mut m)?;
    }
    Ok(m)
}

fn request_label(req: &MaterializedRequest) -> String {
    format!(
        "{} nthd {} nreg {} {}",
        req.kernel.name(),
        req.nthd,
        req.nreg,
        req.strategy.name()
    )
}

/// The traced run: the list served once untraced and once traced, the
/// protocol parse and content hash of every line, and the allocation
/// and layer probe of every miss key.
fn trace_pass(ctx: &Ctx, list: &[Session], m: &mut Metrics) -> Result<(), String> {
    let mut t = Tracer::new(true);
    let off = &mut Tracer::new(false);
    let start = Instant::now();
    for (s, session) in list.iter().enumerate() {
        serve(session, &ctx.work.join(format!("u{s}")), off, None)?;
    }
    let untraced = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut traced = Vec::new();
    for (s, session) in list.iter().enumerate() {
        traced.push(serve(
            session,
            &ctx.work.join(format!("t{s}")),
            &mut t,
            None,
        )?);
    }
    m.overhead_ms = Some(start.elapsed().as_secs_f64() * 1e3 - untraced);

    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut wait_p99 = 0.0f64;
    let mut high_water = 0.0f64;
    for (session, served) in list.iter().zip(&traced) {
        for (line, ms) in served.responses.iter().zip(&served.latencies_ms) {
            let (_, cached) = answer(line)?;
            if cached {
                hits.push(*ms)
            } else {
                misses.push(*ms)
            }
        }
        for name in ["descents", "descent_reuses", "evictions", "disk_writes"] {
            *counters.entry(name).or_insert(0.0) +=
                served.stats.get(name).and_then(Json::as_u64).unwrap_or(0) as f64;
        }
        wait_p99 = wait_p99.max(served.metrics.admission_wait_p99_us as f64);
        high_water = high_water.max(served.metrics.queue_depth_high_water as f64);
        for line in &session.lines {
            black_box(t.time("serve.parse", || parse_request(line)));
        }
        for req in &session.wire {
            black_box(t.time("serve.hash", || content_hash(&req.text)));
        }
    }

    // Each miss key once: its allocation, then the layer probe.
    let mut seen = std::collections::HashSet::new();
    for (s, session) in list.iter().enumerate() {
        for (i, req) in session.wire.iter().enumerate() {
            if !seen.insert((s, key(req))) {
                continue;
            }
            t.set_request(session.first_id + i as u64);
            let funcs = replicate(&alloc::load(&req.text, &mut t)?, req.nthd);
            t.enter("serve.alloc");
            let verdict = t
                .time(alloc::core_span(req.strategy), || {
                    allocate(&funcs, req.nreg, req.strategy)
                })
                .ok();
            t.exit();
            alloc::probe(&req.text, &funcs, req.nreg, verdict.as_ref(), &mut t);
            if let Some(v) = &verdict {
                alloc::count_verdict(&mut t, v);
            }
        }
    }
    m.absorb(&t);
    m.layer.insert("serve.alloc_ms", t.total_ms("serve.alloc"));
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&v, 50.0)
        }
    };
    let total = (hits.len() + misses.len()).max(1) as f64;
    m.layer.insert("serve.hit_ratio", hits.len() as f64 / total);
    m.layer.insert("serve.hit_ms_p50", sorted(hits));
    m.layer.insert("serve.miss_ms_p50", sorted(misses));
    m.layer.insert("serve.descents", counters["descents"]);
    m.layer
        .insert("serve.descent_reuses", counters["descent_reuses"]);
    m.layer.insert("serve.evictions", counters["evictions"]);
    m.layer.insert("serve.disk_writes", counters["disk_writes"]);
    m.layer.insert("serve.admission_wait_p99_us", wait_p99);
    m.layer.insert("serve.queue_high_water", high_water);
    Ok(())
}
