//! Closed-loop session clients: each client submits a query through
//! `Context::submit_sql`, waits for it, keeps the hashes of its result
//! rows and submits the next. The results are checked after the window,
//! so checking does not take CPU from the program while it is measured.
//! Shared by the serving workloads.

use crate::harness::{self, Args, Delta, Report};
use crate::layers;
use crate::oracle::{row_hash, Checksum};
use crate::stats;
use crate::trace;
use dataframe::Context;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rowstore::Row;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One generated read.
#[derive(Debug, Clone)]
pub struct Op {
    pub tenant: usize,
    pub q: usize,
    pub id: i64,
    pub sql: String,
}

/// Draws the next op from a client's RNG.
pub type Pick<'a> = dyn Fn(&mut StdRng) -> Op + Sync + 'a;
/// Validates one op's result, given the hashes of its rows.
pub type Check<'a> = dyn Fn(&Op, &[u64]) -> Result<(), String> + Sync + 'a;

/// A finished read kept for a later replay check.
#[derive(Debug, Clone)]
pub struct Kept {
    pub op: Op,
    pub result: Checksum,
}

#[derive(Default)]
pub struct Outcome {
    pub latencies_us: Vec<f64>,
    /// Completion time of each successful op, seconds into the window.
    pub done_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub rows_returned: u64,
    pub wall_s: f64,
    pub errors: Vec<String>,
    pub kept: Vec<Kept>,
}

impl Outcome {
    /// Completed ops per second: the median over the window's whole
    /// one-second slices, so a short stall of the host moves it less than
    /// a plain count over the whole window would (the plain rate when
    /// the window is under 2 s).
    pub fn ops_per_s(&self) -> f64 {
        let counts = self.slice_counts();
        if counts.len() < 2 {
            return self.done_s.len() as f64 / self.wall_s;
        }
        stats::median(&counts)
    }

    /// Median completions per untraced and per traced slice of an
    /// alternating window (see [`trace::alternate`]).
    pub fn untraced_traced_rates(&self) -> (f64, f64) {
        let counts = self.slice_counts();
        let rate = |traced: bool| {
            let mine: Vec<f64> = (0..counts.len() as u64)
                .filter(|&s| trace::traced_slice(s) == traced)
                .map(|s| counts[s as usize])
                .collect();
            if mine.is_empty() {
                self.done_s.len() as f64 / self.wall_s
            } else {
                stats::median(&mine)
            }
        };
        (rate(false), rate(true))
    }

    fn slice_counts(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.wall_s.floor() as usize];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut(t as usize) {
                *c += 1.0;
            }
        }
        counts
    }
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

pub fn next_op_id() -> u64 {
    NEXT_OP.fetch_add(1, Relaxed)
}

/// Submit one statement through the session and wait for it, inside
/// `op` / `session.submit` / `session.wait` spans.
pub fn submit_and_wait(ctx: &Arc<Context>, sql: &str) -> Result<Vec<Row>, String> {
    trace::with_op(next_op_id(), || {
        trace::span("op", || {
            let handle =
                trace::span("session.submit", || ctx.submit_sql(sql)).map_err(|e| e.to_string())?;
            trace::span("session.wait", || handle.wait()).map_err(|e| e.to_string())
        })
    })
}

/// Run `clients` closed-loop clients for `window`. Client `c` draws its
/// ops from its own RNG seeded by `seed` and `c`. After the window,
/// `check` validates every result; the first `keep` ops of each client
/// are kept with their result checksums.
pub fn run(
    ctx: &Arc<Context>,
    clients: usize,
    seed: u64,
    window: Duration,
    keep: usize,
    pick: &Pick<'_>,
    check: &Check<'_>,
) -> Outcome {
    crate::harness::phase("serving window");
    let total = Mutex::new(Outcome::default());
    let start = Instant::now();
    let deadline = start + window;
    std::thread::scope(|s| {
        for c in 0..clients {
            let total = &total;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (c as u64 + 1)));
                let mut mine = Outcome::default();
                let mut done: Vec<(Op, Vec<u64>)> = Vec::new();
                while Instant::now() < deadline {
                    let op = pick(&mut rng);
                    mine.attempted += 1;
                    let t0 = Instant::now();
                    let result = submit_and_wait(ctx, &op.sql);
                    let us = t0.elapsed().as_nanos() as f64 / 1e3;
                    match result {
                        Ok(rows) => {
                            mine.latencies_us.push(us);
                            mine.done_s.push(start.elapsed().as_secs_f64());
                            done.push((op, rows.iter().map(|r| row_hash(r)).collect()));
                        }
                        Err(e) => {
                            mine.failed += 1;
                            mine.errors.push(format!("{}: {e}", op.sql));
                        }
                    }
                }
                for (i, (op, hashes)) in done.into_iter().enumerate() {
                    mine.rows_returned += hashes.len() as u64;
                    if let Err(e) = check(&op, &hashes) {
                        mine.failed += 1;
                        mine.errors.push(e);
                    }
                    if i < keep {
                        let mut result = Checksum::default();
                        hashes.iter().for_each(|&h| result.add_hash(h));
                        mine.kept.push(Kept { op, result });
                    }
                }
                mine.errors.truncate(5);
                let mut t = total.lock().unwrap();
                t.latencies_us.extend(mine.latencies_us);
                t.done_s.extend(mine.done_s);
                t.attempted += mine.attempted;
                t.failed += mine.failed;
                t.rows_returned += mine.rows_returned;
                t.errors.extend(mine.errors);
                t.kept.extend(mine.kept);
            });
        }
    });
    let mut out = total.into_inner().unwrap();
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Warm-up before a measured window: let lazy state settle.
pub fn warmup(args: &Args) -> Duration {
    Duration::from_secs_f64((args.seconds * 0.1).clamp(0.2, 1.0))
}

/// The end-to-end metrics of a serving window.
pub fn record_serve(r: &mut Report, out: &Outcome, d: &Delta, setup_times: &[f64]) {
    r.attempted += out.attempted;
    r.failed += out.failed;
    for e in &out.errors {
        r.line(format!("failed op: {e}"));
    }
    let t = stats::tail(&out.latencies_us);
    r.line(format!(
        "setup: {} runs, {:?} s",
        setup_times.len(),
        setup_times
    ));
    r.line(format!(
        "window: {:.2} s, {} ops, {:.1} ops/s; latency {}",
        out.wall_s,
        out.latencies_us.len(),
        out.ops_per_s(),
        t.describe("µs")
    ));
    r.line(format!(
        "failed_ratio: {} / {} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    r.line(format!(
        "stages per op: {:.2}; interleaves per op: {:.3}",
        d.counter("stage.launched") as f64 / out.latencies_us.len().max(1) as f64,
        d.counter("scheduler.interleaves") as f64 / out.latencies_us.len().max(1) as f64
    ));
    r.metric("setup_s", stats::median(setup_times), "s");
    r.metric("ops_per_s", out.ops_per_s(), "ops/s");
    r.metric("op_p50_us", t.p50, "us");
    r.metric("op_p99_us", t.tail, "us");
}

/// The window of a traced run, traced in alternate one-second slices.
/// Reports the tracing overhead (untraced vs traced slices) and the
/// window's per-op counter metrics; returns the window.
pub fn traced_window(
    r: &mut Report,
    ctx: &Arc<Context>,
    clients: usize,
    args: &Args,
    keep: usize,
    pick: &Pick<'_>,
    check: &Check<'_>,
) -> Outcome {
    let before = harness::snapshot(ctx);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let out = std::thread::scope(|s| {
        s.spawn(|| trace::alternate(start, &stop));
        let out = run(ctx, clients, args.seed, args.window(), keep, pick, check);
        stop.store(true, Relaxed);
        out
    });
    let d = Delta {
        before,
        after: harness::snapshot(ctx),
    };
    r.attempted += out.attempted;
    r.failed += out.failed;
    for e in &out.errors {
        r.line(format!("failed op: {e}"));
    }
    let (untraced, traced) = out.untraced_traced_rates();
    layers::overhead_metrics(r, untraced, traced);
    layers::window_metrics(r, &d, out.latencies_us.len() as u64, out.rows_returned);
    out
}
