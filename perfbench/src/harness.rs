//! What every workload shares: arguments, the cluster geometry, counter
//! deltas, the run record and the final JSON line.

use dataframe::Context;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rowstore::Row;
use sparklet::{Cluster, ClusterConfig, RegistrySnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::snb;

/// The explicit cluster every workload runs on: 2 workers × 1 executor ×
/// 2 cores. No simulated dispatch RTT.
pub const GEOMETRY: ClusterConfig = ClusterConfig {
    workers: 2,
    executors_per_worker: 1,
    cores_per_executor: 2,
    max_task_attempts: 4,
    skew_ratio: 2.0,
};

/// A run still going after this long is reported as hung.
pub const WATCHDOG: Duration = Duration::from_secs(170);

static PHASE: std::sync::Mutex<&str> = std::sync::Mutex::new("start");

/// Name the step the run is in (printed if the watchdog fires).
pub fn phase(name: &'static str) {
    *PHASE.lock().unwrap() = name;
}

/// Exit with an error, naming the current step, if the run outlives
/// `limit` (a deadlock in the program must not hang the benchmark).
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: still running after {} s, in step `{}`; giving up",
            limit.as_secs(),
            PHASE.lock().unwrap()
        );
        std::process::exit(3);
    });
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.unwrap_or(10.0);
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A fresh context on [`GEOMETRY`], checked to run without a simulated
/// dispatch round trip.
pub fn new_context() -> Arc<Context> {
    let ctx = Context::new(Cluster::new(GEOMETRY));
    assert_eq!(
        ctx.cluster().scheduler().dispatch_rtt_ns(),
        0,
        "the benchmark measures the program, not an injected RTT"
    );
    ctx
}

/// Break the catalog's reference cycles (registered tables hold the
/// context) so a discarded set-up frees its data.
pub fn discard(ctx: &Arc<Context>) {
    for name in ctx.table_names() {
        let _ = ctx.deregister_table(&name);
    }
}

/// Run set-up `reps` times, timing only `build` (not `prepare`, which
/// copies the generated inputs); keep the last result. Earlier results
/// go to `discard_fn`.
pub fn timed_setups<I, T>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
    mut discard_fn: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(old) = kept.take() {
            discard_fn(old);
        }
        let inputs = prepare();
        let t0 = Instant::now();
        let built = build(inputs);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (kept.expect("at least one set-up"), times)
}

/// `n` batches of 1 K fresh edges over `persons` people, from `seed`.
pub fn edge_batches(persons: u64, n: usize, seed: u64) -> Vec<Vec<Row>> {
    let fresh = snb::generate(snb::SnbConfig {
        persons,
        avg_degree: (n as u64 * 1000).div_ceil(persons),
        theta: 0.8,
        seed,
    });
    let mut edges = fresh.edges;
    edges.truncate(n * 1000);
    assert_eq!(edges.len(), n * 1000, "enough fresh edges for the batches");
    edges.chunks(1000).map(<[Row]>::to_vec).collect()
}

/// Uniform person ids drawn from `seed`.
pub fn sample_ids(persons: u64, n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..persons as i64)).collect()
}

/// Counter/gauge/histogram deltas between two registry snapshots.
pub struct Delta {
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
}

impl Delta {
    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counters.get(name).copied().unwrap_or(0);
        let b = self.before.counters.get(name).copied().unwrap_or(0);
        a.saturating_sub(b)
    }

    pub fn hist_sum(&self, name: &str) -> u64 {
        let a = self.after.histograms.get(name).map_or(0, |h| h.sum);
        let b = self.before.histograms.get(name).map_or(0, |h| h.sum);
        a.saturating_sub(b)
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.counter("index.cache.hits");
        let misses = self.counter("index.cache.misses");
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

pub fn snapshot(ctx: &Arc<Context>) -> RegistrySnapshot {
    ctx.cluster().registry().merged()
}

const MIB: f64 = (1u64 << 20) as f64;

/// The governor's `memory.resident_peak_bytes` gauge, in MiB.
pub fn resident_peak_mb(ctx: &Arc<Context>) -> f64 {
    ctx.cluster()
        .registry()
        .gauge_value("memory.resident_peak_bytes") as f64
        / MIB
}

/// Governed resident bytes once the run is quiet, in MiB: after a
/// retirement sweep, so no superseded version still counts. Unlike the
/// peak, it does not depend on whether a reader happened to pin an old
/// version across two appends.
pub fn resident_mb(ctx: &Arc<Context>) -> f64 {
    ctx.cluster().sweep_retired();
    ctx.cluster().memory().resident_bytes() as f64 / MIB
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Validity or correctness problems; any entry makes the run failed.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable record lines printed before the JSON line.
    pub record: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.record.push(s.into());
    }

    /// Record a validity check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.record.push(format!("check ok: {what}"));
        } else {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The record header: host cores, git revision, actual cluster geometry
/// and run parameters.
pub fn header(args: &Args, clients: usize, budget: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let g = GEOMETRY;
    format!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={} git_rev={} \
         cluster={}w×{}e×{}c (total {} cores, {} default partitions) clients={} budget={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores,
        git_rev(),
        g.workers,
        g.executors_per_worker,
        g.cores_per_executor,
        g.total_cores(),
        g.default_partitions(),
        clients,
        budget
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without spawning git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
