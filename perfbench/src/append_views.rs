//! `append-views`: one writer appends 1 K-row batches of fresh edges to a
//! tracked, indexed SNB `edges` table through `append_table`, while three
//! standing views stay inside the delta grammar: a filter + project on
//! `weight`, `edges ⋈ persons` on `edge_source = id` (both index keys),
//! and a count grouped by `edge_source`. One reader client runs SQ2 and
//! SQ4 through `submit_sql` against the latest version.
//!
//! The primary op is the append: `append_table` returns once every view
//! reflects the batch. The writer appends on a fixed schedule (one batch
//! per [`PERIOD`]) so each run appends about the same number of rows;
//! throughput is per second of writer time.

use crate::harness::{self, discard, new_context, timed_setups, Args, Delta, Report};
use crate::harness::{edge_batches, sample_ids};
use crate::layers;
use crate::oracle::{row_hash, Checksum};
use crate::point_serve::PERSONS;
use crate::serve::submit_and_wait;
use crate::stats;
use crate::trace;
use dataframe::{col, lit, AggFunc, Context, DataFrame};
use indexed_df::{ContextViewExt, IndexedDataFrame, ViewHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rowstore::Row;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::snb;

/// One append per period.
const PERIOD: Duration = Duration::from_millis(50);
const VIEWS: [&str; 3] = ["light_edges", "light_edge_owners", "out_degree"];
const LIGHT: f64 = 0.05;

struct Setup {
    ctx: Arc<Context>,
    persons: IndexedDataFrame,
    views: Vec<ViewHandle>,
}

fn view_df(ctx: &Arc<Context>, name: &str) -> DataFrame {
    let edges = ctx.table("edges").expect("edges");
    match name {
        "light_edges" => edges.filter(col("weight").lt(lit(LIGHT))).select(&[
            "edge_source",
            "edge_dest",
            "weight",
        ]),
        "light_edge_owners" => edges
            .filter(col("weight").lt(lit(LIGHT)))
            .join(ctx.table("persons").expect("persons"), "edge_source", "id")
            .select(&["edge_source", "edge_dest", "name", "city"]),
        "out_degree" => edges
            .group_by(&["edge_source"])
            .agg(vec![(AggFunc::Count, None, "n")]),
        other => unreachable!("view {other}"),
    }
}

/// Cluster, both indexes, tracking, and materialization of the views.
fn build(persons: Vec<Row>, edges: Vec<Row>) -> Setup {
    let ctx = new_context();
    let persons = IndexedDataFrame::from_rows(&ctx, snb::person_schema(), persons, "id")
        .expect("persons frame");
    persons.cache_index().expect("persons index");
    ctx.track_indexed_table("persons", &persons)
        .expect("track persons");
    let edges = IndexedDataFrame::from_rows(&ctx, snb::edge_schema(), edges, "edge_source")
        .expect("edges frame");
    edges.cache_index().expect("edges index");
    ctx.track_indexed_table("edges", &edges)
        .expect("track edges");
    let views = VIEWS
        .iter()
        .map(|v| {
            ctx.register_view(v, &view_df(&ctx, v))
                .expect("view registers")
        })
        .collect();
    Setup {
        ctx,
        persons,
        views,
    }
}

/// A finished read, checked after the window against the append log.
struct Read {
    q: usize,
    id: i64,
    /// Appends committed before submit / started before the result.
    lo: usize,
    hi: usize,
    result: Checksum,
    row_hashes: Vec<u64>,
}

#[derive(Default)]
struct Window {
    append_ms: Vec<f64>,
    /// The one-second slice of the window each append started in.
    append_slice: Vec<u64>,
    read_us: Vec<f64>,
    reads: Vec<Read>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    wall_s: f64,
}

/// Run writer and reader for `window`; batches `first..` are appended.
/// With `alternate`, tracing is on in odd one-second slices only.
fn run_window(
    ctx: &Arc<Context>,
    batches: &[Vec<Row>],
    first: usize,
    window: Duration,
    seed: u64,
    alternate: bool,
) -> Window {
    let started = AtomicUsize::new(first);
    let committed = AtomicUsize::new(first);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (writer, reader) = std::thread::scope(|s| {
        if alternate {
            s.spawn(|| trace::alternate(start, &stop));
        }
        let writer = s.spawn(|| {
            let mut w = Window::default();
            let mut due = Instant::now();
            let mut next = first;
            while start.elapsed() < window {
                assert!(next < batches.len(), "pre-generated batches ran out");
                w.attempted += 1;
                started.store(next + 1, SeqCst);
                let slice = start.elapsed().as_secs();
                let t0 = Instant::now();
                let result = trace::with_op(crate::serve::next_op_id(), || {
                    trace::span("append_table", || {
                        ctx.append_table("edges", batches[next].clone())
                    })
                });
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                committed.store(next + 1, SeqCst);
                next += 1;
                match result {
                    Ok(()) => {
                        w.append_ms.push(ms);
                        w.append_slice.push(slice);
                    }
                    Err(e) => {
                        w.failed += 1;
                        w.errors.push(format!("append {next}: {e}"));
                    }
                }
                due += PERIOD;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                } else {
                    due = now;
                }
            }
            stop.store(true, SeqCst);
            w
        });
        let reader = s.spawn(|| {
            let mut w = Window::default();
            let mut rng = StdRng::seed_from_u64(seed);
            while !stop.load(SeqCst) {
                let q = if rng.gen_bool(0.5) { 2 } else { 4 };
                let id = rng.gen_range(0..PERSONS as i64);
                let sql = snb::short_read_sql(q, "persons", "edges", id);
                w.attempted += 1;
                let lo = committed.load(SeqCst);
                let t0 = Instant::now();
                let result = submit_and_wait(ctx, &sql);
                let us = t0.elapsed().as_nanos() as f64 / 1e3;
                let hi = started.load(SeqCst);
                match result {
                    Ok(rows) => {
                        w.read_us.push(us);
                        w.reads.push(Read {
                            q,
                            id,
                            lo,
                            hi,
                            result: Checksum::of(&rows),
                            row_hashes: rows.iter().map(|r| row_hash(r)).collect(),
                        });
                    }
                    Err(e) => {
                        w.failed += 1;
                        w.errors.push(format!("SQ{q}({id}): {e}"));
                    }
                }
            }
            w
        });
        (
            writer.join().expect("writer"),
            reader.join().expect("reader"),
        )
    });
    let mut w = writer;
    w.wall_s = start.elapsed().as_secs_f64();
    w.read_us = reader.read_us;
    w.reads = reader.reads;
    w.attempted += reader.attempted;
    w.failed += reader.failed;
    w.errors.extend(reader.errors);
    w
}

/// The edges of each source: its base rows, then its appended rows in
/// append order with their batch index.
struct AppendLog {
    by_src: HashMap<i64, KeyHistory>,
}

/// One source's base rows and its appended rows with their batch index.
type KeyHistory = (Vec<Row>, Vec<(usize, Row)>);

impl AppendLog {
    fn new(base: &[Row], batches: &[Vec<Row>]) -> AppendLog {
        let mut by_src: HashMap<i64, KeyHistory> = HashMap::new();
        for e in base {
            by_src
                .entry(e[0].as_i64().unwrap())
                .or_default()
                .0
                .push(e.clone());
        }
        for (b, batch) in batches.iter().enumerate() {
            for e in batch {
                by_src
                    .entry(e[0].as_i64().unwrap())
                    .or_default()
                    .1
                    .push((b, e.clone()));
            }
        }
        AppendLog { by_src }
    }

    /// Whether `read` matches the table at some version in `lo..=hi`.
    fn check(&self, read: &Read) -> Result<(), String> {
        let empty = (Vec::new(), Vec::new());
        let (base, appended) = self.by_src.get(&read.id).unwrap_or(&empty);
        let visible = |v: usize| {
            base.iter()
                .chain(appended.iter().filter(move |(b, _)| *b < v).map(|(_, e)| e))
        };
        match read.q {
            4 => {
                let mut sum = Checksum::default();
                for e in visible(read.lo) {
                    sum.add_hash(row_hash(&e[2..3]));
                }
                if sum == read.result {
                    return Ok(());
                }
                for (_, e) in appended
                    .iter()
                    .filter(|(b, _)| (read.lo..read.hi).contains(b))
                {
                    sum.add_hash(row_hash(&e[2..3]));
                    if sum == read.result {
                        return Ok(());
                    }
                }
                Err(format!(
                    "SQ4({}) read {} rows, matching no version in {}..={}",
                    read.id, read.result.rows, read.lo, read.hi
                ))
            }
            2 => {
                let counts_ok = (read.lo..=read.hi)
                    .any(|v| visible(v).count().min(10) as u64 == read.result.rows);
                let mut pool: Vec<u64> = visible(read.hi).map(|e| row_hash(e)).collect();
                let members_ok =
                    read.row_hashes
                        .iter()
                        .all(|h| match pool.iter().position(|p| p == h) {
                            Some(i) => {
                                pool.swap_remove(i);
                                true
                            }
                            None => false,
                        });
                if counts_ok && members_ok {
                    Ok(())
                } else {
                    Err(format!(
                        "SQ2({}) read {} rows, not 10 (or all) of the person's edges in versions {}..={}",
                        read.id, read.result.rows, read.lo, read.hi
                    ))
                }
            }
            q => Err(format!("SQ{q} is not part of this workload")),
        }
    }
}

/// Batches one run can use: the warm-up, the window and the probes.
fn batch_budget(args: &Args) -> usize {
    ((args.seconds + 2.0) / PERIOD.as_secs_f64()).ceil() as usize + 16
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    r.line(harness::header(args, 2, "0 (accounting only)"));
    let data = crate::point_serve::generate(args.seed);
    let batches = edge_batches(PERSONS, batch_budget(args), args.seed ^ 0xadd);
    r.line(format!(
        "data: {} persons, {} edges, {} pre-generated 1 K-edge batches; one writer appends every {} ms, \
         one reader runs SQ2/SQ4; views: {}",
        data.persons.len(),
        data.edges.len(),
        batches.len(),
        PERIOD.as_millis(),
        VIEWS.join(", ")
    ));

    let reps = if args.trace { 1 } else { harness::SETUP_REPS };
    let (setup, setup_times) = timed_setups(
        reps,
        || (data.persons.clone(), data.edges.clone()),
        |(p, e)| build(p, e),
        |s: Setup| {
            for v in VIEWS {
                s.ctx.drop_view(v);
            }
            discard(&s.ctx)
        },
    );
    let ctx = &setup.ctx;
    for v in &setup.views {
        r.check(
            v.is_incremental(),
            format!("view {} is incremental", v.name()),
        );
    }

    // Warm-up: a short stretch of the same mix.
    let warm = run_window(
        ctx,
        &batches,
        0,
        Duration::from_millis(500),
        args.seed ^ 0xaaaa,
        false,
    );
    let mut next_batch = warm.append_ms.len() + count_failed_appends(&warm);
    r.attempted += warm.attempted;
    r.failed += warm.failed;
    check_reads(&mut r, &data.edges, &batches, &warm);

    let plans: Vec<String> = [2, 4]
        .iter()
        .map(|&q| {
            ctx.sql(&snb::short_read_sql(q, "persons", "edges", 7))
                .and_then(|df| df.explain())
                .unwrap_or_else(|e| format!("plan failed: {e}"))
        })
        .collect();
    let indexed_share = layers::indexed_share(&plans);
    r.check(
        indexed_share == 1.0,
        format!("rule.indexed_share == 1.0 (got {indexed_share})"),
    );

    let before = harness::snapshot(ctx);
    let w = run_window(
        ctx,
        &batches,
        next_batch,
        args.window(),
        args.seed,
        args.trace,
    );
    let d = Delta {
        before,
        after: harness::snapshot(ctx),
    };
    if args.trace {
        layers::overhead_metrics(
            &mut r,
            appends_per_writer_s(&w, false),
            appends_per_writer_s(&w, true),
        );
    }
    next_batch += w.append_ms.len() + count_failed_appends(&w);
    r.attempted += w.attempted;
    r.failed += w.failed;
    for e in w.errors.iter().take(5) {
        r.line(format!("failed op: {e}"));
    }
    check_reads(&mut r, &data.edges, &batches, &w);

    let appends = w.append_ms.len();
    let fallbacks = d.counter("view.fallbacks");
    r.check(
        fallbacks == 0,
        format!("view.fallbacks == 0 (got {fallbacks})"),
    );
    r.check(
        d.counter("memory.evictions") == 0,
        "memory.evictions == 0 during the window",
    );
    r.check(
        d.cache_hit_ratio() == 1.0,
        format!("cache.hit_ratio == 1.0 (got {})", d.cache_hit_ratio()),
    );
    if args.trace {
        layers::put(&mut r, "rule.indexed_share", indexed_share);
        layers::window_metrics(
            &mut r,
            &d,
            appends as u64,
            w.reads.iter().map(|x| x.result.rows).sum(),
        );
        layers::view_counter_metrics(&mut r, &d, appends, appends);
        let ids = sample_ids(PERSONS, 512, args.seed ^ 0x1d5);
        let probe = layers::probe(
            &mut r,
            &layers::Targets {
                ctx,
                persons: &setup.persons,
                persons_table: "persons",
                person_ids: &ids,
                main: None,
                exchange_schema: snb::edge_schema(),
                exchange_rows: &data.edges[..10_000],
                twin_base: &data.edges,
                batches: &batches[next_batch..next_batch + 8],
                view_probe: false,
            },
        );
        trace::set_enabled(false);
        let append_p50_ns = stats::median(&w.append_ms) * 1e6;
        layers::put(
            &mut r,
            "view.refresh_self_ns",
            append_p50_ns - probe.frame_append_ns,
        );
        check_views(&mut r, ctx, &setup.views);
        layers::finish_trace(&mut r, &args.workload, args.seed);
        return r;
    }

    let t = stats::tail(&w.append_ms);
    let writer_s: f64 = w.append_ms.iter().sum::<f64>() / 1e3;
    let reads = stats::tail(&w.read_us);
    r.line(format!(
        "setup: {} runs, {:?} s",
        setup_times.len(),
        setup_times
    ));
    r.line(format!(
        "window: {:.2} s, {appends} appends ({} rows) in {writer_s:.3} s of writer time; append latency {}",
        w.wall_s,
        appends * 1000,
        t.describe("ms")
    ));
    r.line(format!(
        "append_rows_per_s: {:.1}; append_p50_ms: {:.3}; append_p99_ms: {:.3} (p{:.1})",
        appends as f64 * 1000.0 / writer_s,
        t.p50,
        t.tail,
        t.tail_pct
    ));
    r.line(format!(
        "reader: {} reads, {:.1} reads/s; latency {}",
        w.read_us.len(),
        w.read_us.len() as f64 / w.wall_s,
        reads.describe("µs")
    ));
    r.line(format!(
        "views: {} refreshes, {} delta rows, {fallbacks} fallbacks; {} versions retired",
        d.counter("view.refreshes"),
        d.counter("view.delta_rows"),
        d.counter("memory.retired_versions")
    ));
    r.line(format!(
        "failed_ratio: {} / {} = {}",
        w.failed,
        w.attempted,
        w.failed as f64 / w.attempted.max(1) as f64
    ));
    check_views(&mut r, ctx, &setup.views);
    r.metric("setup_s", stats::median(&setup_times), "s");
    r.metric("ops_per_s", appends as f64 / writer_s, "ops/s");
    r.metric("op_p50_us", t.p50 * 1e3, "us");
    r.metric("op_p99_us", t.tail * 1e3, "us");
    let resident = harness::resident_mb(ctx);
    r.line(format!(
        "resident: {resident:.3} MiB after the window, peak {:.3} MiB",
        harness::resident_peak_mb(ctx)
    ));
    r.metric("resident_mb", resident, "MiB");
    r
}

fn count_failed_appends(w: &Window) -> usize {
    w.errors.iter().filter(|e| e.starts_with("append")).count()
}

/// Appends per second of writer time over the untraced (`traced` false)
/// or traced slices of an alternating window.
fn appends_per_writer_s(w: &Window, traced: bool) -> f64 {
    let ms: Vec<f64> = w
        .append_ms
        .iter()
        .zip(&w.append_slice)
        .filter(|(_, &s)| trace::traced_slice(s) == traced)
        .map(|(&ms, _)| ms)
        .collect();
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
}

/// Check every read of the window against the append log.
fn check_reads(r: &mut Report, base: &[Row], batches: &[Vec<Row>], w: &Window) {
    let log = AppendLog::new(base, batches);
    let mut bad = 0;
    for read in &w.reads {
        if let Err(e) = log.check(read) {
            bad += 1;
            if bad <= 5 {
                r.line(format!("failed op: {e}"));
            }
        }
    }
    r.failed += bad;
    r.line(format!(
        "reads checked against the append log: {} ({bad} wrong)",
        w.reads.len()
    ));
}

/// Each view must equal a recompute of its plan at the end of the run.
fn check_views(r: &mut Report, ctx: &Arc<Context>, views: &[ViewHandle]) {
    for v in views {
        let fresh = view_df(ctx, v.name()).collect().expect("recompute");
        let (got, want) = (Checksum::of(&v.rows()), Checksum::of(&fresh));
        r.check(
            got == want,
            format!("view {} equals a recompute ({} rows)", v.name(), want.rows),
        );
    }
}
