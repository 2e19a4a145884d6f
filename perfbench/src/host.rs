//! Host-speed normalisation of the timed segments.
//!
//! The benchmark runs on shared virtual machines whose speed changes
//! from second to second and for minutes at a time: the hypervisor
//! steals CPU time, and neighbours sharing a physical core or its
//! caches slow every memory access. Measured on a two-vCPU host, the
//! same deterministic device run took 135–510 ms. The program's speed
//! is what the benchmark is after, so each timed segment is measured
//! next to a [`Probe`], a fixed piece of work that belongs to the
//! benchmark, not the program: sorting random keys and filling a hash
//! map, branchy general-purpose code like the allocator's and the
//! simulator's. Over 96 s of device runs on a host switching between
//! its fast and slow states, the probe's reading correlated 0.87 with
//! the adjacent run's time, and scaling by it cut the spread of
//! 12-second medians from 0.37 to 0.04; tight arithmetic loops and
//! pointer chases did not slow down with the host and tracked nothing.
//! A time measured between two probe readings is scaled by [`REF_MS`]
//! over their mean, giving the time the operation would take on a host
//! on which the probe reads `REF_MS`. A change to the program does not
//! move the probe, so it shows in full; a change of host speed moves
//! both and cancels.
//!
//! A segment during which the readings drift apart by more than
//! [`DRIFT`] straddled a change of host speed, so no reading describes
//! it well; [`run_segments`] runs such a segment again (the same
//! requests in the same order) while its re-run budget lasts, and keeps
//! the attempt with the least drift.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The probe's reading, ms, on the two-vCPU Xeon VM the benchmark was
/// sized on, in that host's fast state; normalised times are in
/// milliseconds of a host on which the probe reads this.
pub const REF_MS: f64 = 2.5;
/// Largest relative spread of a segment's probe readings for which the
/// segment is kept without a re-run.
pub const DRIFT: f64 = 0.3;
/// Share of the first pass's wall time that re-runs may add.
pub const RERUN_SHARE: f64 = 0.5;

/// Keys sorted per reading.
const SORT_KEYS: u64 = 1 << 16;
/// Inserts and lookups of the hash-map part of a reading.
const MAP_OPS: u64 = 30_000;
/// Distinct keys of the hash map.
const MAP_KEYS: u64 = 3_000;

/// The probe: a fixed amount of the benchmark's own work.
pub struct Probe {
    keys: Vec<u32>,
    threads: usize,
}

/// The CPUs the host gives this process: the threads a probe for a
/// workload that keeps every CPU busy runs on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Probe {
    /// A probe whose compute work runs on `threads` threads at once, as
    /// many as the measured operations keep busy: each CPU of a shared
    /// host can be in its own state.
    pub fn new(threads: usize) -> Probe {
        Probe {
            keys: (0..SORT_KEYS).map(|i| crate::splitmix(i) as u32).collect(),
            threads: threads.max(1),
        }
    }

    /// The compute work of one reading on one thread: the wall time,
    /// ms, of sorting 64 Ki random keys and of filling and querying a
    /// hash map of vectors.
    fn compute(keys: &[u32]) -> f64 {
        let mut keys = keys.to_vec();
        let start = Instant::now();
        keys.sort_unstable();
        // A fixed hasher: the same work on every reading of every run.
        let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..MAP_OPS {
            map.entry(crate::splitmix(i) % MAP_KEYS)
                .or_default()
                .push(i);
        }
        let found: usize = (0..MAP_OPS)
            .filter_map(|i| map.get(&(i % (2 * MAP_KEYS))))
            .map(Vec::len)
            .sum();
        black_box((keys, found));
        start.elapsed().as_secs_f64() * 1e3
    }

    /// One reading, ms: the work on every probe thread at once, the
    /// mean of their times.
    pub fn read(&self) -> f64 {
        let keys = &self.keys;
        if self.threads == 1 {
            Probe::compute(keys)
        } else {
            std::thread::scope(|scope| {
                let others: Vec<_> = (1..self.threads)
                    .map(|_| scope.spawn(|| Probe::compute(keys)))
                    .collect();
                let own = Probe::compute(keys);
                let sum: f64 = others
                    .into_iter()
                    .map(|h| h.join().expect("the probe's compute work does not panic"))
                    .sum();
                (own + sum) / self.threads as f64
            })
        }
    }

    /// Runs `f` between two readings; returns its output and its
    /// normalised duration in seconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.read();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let after = self.read();
        (out, secs * REF_MS / ((before + after) / 2.0))
    }
}

/// One attempt at a segment: the raw latency of each operation and the
/// probe readings taken between operations.
pub struct Attempt<'p> {
    probe: &'p Probe,
    latencies_ms: Vec<f64>,
    /// (operations timed before the reading, reading in ms).
    readings: Vec<(usize, f64)>,
}

impl<'p> Attempt<'p> {
    fn new(probe: &'p Probe) -> Attempt<'p> {
        Attempt {
            probe,
            latencies_ms: Vec::new(),
            readings: Vec::new(),
        }
    }

    /// Records the raw latency of one operation, ms.
    pub fn push(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }

    /// Reads the probe between two operations. [`run_segments`] reads
    /// it before and after every segment; a long segment marks in
    /// between so each operation is scaled by readings close to it.
    pub fn mark(&mut self) {
        let reading = self.probe.read();
        self.readings.push((self.latencies_ms.len(), reading));
    }

    /// Relative spread of the readings: (max − min) / min.
    fn drift(&self) -> f64 {
        let (lo, hi) = self
            .readings
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &(_, r)| {
                (lo.min(r), hi.max(r))
            });
        (hi - lo) / lo
    }

    /// Latencies scaled by the readings on either side of each one.
    fn normalised(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.latencies_ms.len());
        let mut k = 0;
        for (i, ms) in self.latencies_ms.iter().enumerate() {
            while k + 2 < self.readings.len() && self.readings[k + 1].0 <= i {
                k += 1;
            }
            let mean = (self.readings[k].1 + self.readings[k + 1].1) / 2.0;
            out.push(ms * REF_MS / mean);
        }
        out
    }

    /// Mean of the readings.
    fn mean_reading(&self) -> f64 {
        self.readings.iter().map(|r| r.1).sum::<f64>() / self.readings.len() as f64
    }
}

/// What the kept attempt at a segment measured, normalised.
pub struct Kept {
    /// Normalised latency of each operation, ms.
    pub latencies_ms: Vec<f64>,
    /// The same latencies as measured, ms.
    pub raw_ms: Vec<f64>,
    /// Work per normalised second.
    pub rate: f64,
    /// Work completed.
    pub work: f64,
}

/// What [`run_segments`] measured.
pub struct Segments {
    /// The kept attempt of each segment, in segment order.
    pub kept: Vec<Kept>,
    /// Attempts run beyond one per segment.
    pub reruns: usize,
    /// Kept attempts whose readings still drift past [`DRIFT`].
    pub drifting: usize,
    /// Wall time of every attempt, seconds.
    pub wall_s: f64,
    /// Median probe reading of the kept attempts, ms.
    pub probe_ms: f64,
}

/// Runs `count` segments, each between probe readings; `segment` times
/// its operations into the attempt and returns the work it completed.
/// Segments whose readings drift past [`DRIFT`] run again, the worst
/// first, while the re-run budget lasts.
pub fn run_segments(
    probe: &Probe,
    count: usize,
    mut segment: impl FnMut(usize, &mut Attempt) -> f64,
) -> Segments {
    let start = Instant::now();
    let mut attempt = |i: usize| {
        let mut a = Attempt::new(probe);
        a.mark();
        let begun = Instant::now();
        let work = segment(i, &mut a);
        let secs = begun.elapsed().as_secs_f64();
        a.mark();
        let drift = a.drift();
        let kept = Kept {
            latencies_ms: a.normalised(),
            raw_ms: a.latencies_ms.clone(),
            rate: work / (secs * REF_MS / a.mean_reading()).max(1e-12),
            work,
        };
        let readings: Vec<f64> = a.readings.iter().map(|r| r.1).collect();
        (drift, kept, readings)
    };
    let mut best: Vec<(f64, Kept, Vec<f64>)> = (0..count).map(&mut attempt).collect();
    let budget = start.elapsed().as_secs_f64() * (1.0 + RERUN_SHARE);
    let mut reruns = 0;
    'passes: loop {
        let mut pending: Vec<usize> = (0..count).filter(|&i| best[i].0 > DRIFT).collect();
        pending.sort_by(|&a, &b| best[b].0.total_cmp(&best[a].0));
        if pending.is_empty() {
            break;
        }
        for i in pending {
            if start.elapsed().as_secs_f64() >= budget {
                break 'passes;
            }
            reruns += 1;
            let again = attempt(i);
            if again.0 < best[i].0 {
                best[i] = again;
            }
        }
    }
    let readings: Vec<f64> = best.iter().flat_map(|b| b.2.iter().copied()).collect();
    Segments {
        drifting: best.iter().filter(|b| b.0 > DRIFT).count(),
        probe_ms: crate::stats::median(&readings),
        kept: best.into_iter().map(|b| b.1).collect(),
        reruns,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_scaled_by_the_readings_around_them() {
        let probe = Probe::new(1);
        let mut a = Attempt::new(&probe);
        a.readings.push((0, 2.0 * REF_MS));
        a.push(10.0);
        a.push(20.0);
        a.readings.push((2, 2.0 * REF_MS));
        a.push(30.0);
        a.readings.push((3, REF_MS));
        // Twice as slow a host: halved; the last sample sits between a
        // 2× and a 1× reading.
        let n = a.normalised();
        assert_eq!(n[..2], [5.0, 10.0]);
        assert!((n[2] - 30.0 / 1.5).abs() < 1e-12);
        assert!((a.drift() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drifting_segments_run_again_and_keep_every_segment() {
        let probe = Probe::new(1);
        let mut calls = [0; 3];
        let out = run_segments(&probe, 3, |i, a| {
            calls[i] += 1;
            // Long enough that the re-run budget covers one attempt.
            std::thread::sleep(std::time::Duration::from_millis(40));
            a.push(1.0);
            // Segment 1 starts on a far slower host on its first attempt.
            if i == 1 && calls[1] == 1 {
                a.readings[0].1 = 1e6;
            }
            4.0
        });
        assert_eq!(out.kept.len(), 3);
        assert!(calls[1] >= 2, "the drifting segment ran again");
        assert!(out
            .kept
            .iter()
            .all(|k| k.latencies_ms.len() == 1 && k.work == 4.0));
    }
}
