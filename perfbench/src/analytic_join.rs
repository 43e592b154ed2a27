//! `analytic-join`: one client runs serial passes of seven queries
//! through `Context::sql` / DataFrame `collect`: the Table III L and XL
//! joins (1 M-row indexed `edges` build, columnar probes of 1 K and 10 K
//! rows), US Flights Q1, Q3 and Q4 (200 K flights indexed on `tailNum`
//! and on `flightNum`), and the index-oblivious SNB SQ5 projection and
//! SQ6 group-by over a 200 K-edge indexed table.

use crate::harness::{self, discard, new_context, timed_setups, Args, Delta, Report};
use crate::layers;
use crate::oracle::Checksum;
use crate::stats;
use crate::trace;
use dataframe::{gather, Context, DataFrame, PlanError};
use indexed_df::IndexedDataFrame;
use rowstore::Row;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{flights, join_scales, register_columnar, register_indexed, snb, JoinScale};

const BUILD_ROWS: u64 = 1_000_000;
const FLIGHTS: u64 = 200_000;
const SNB_PERSONS: u64 = 20_000;

/// The pass, in order; the first five are the joins.
const QUERIES: [&str; 7] = [
    "t3-L",
    "t3-XL",
    "flights-Q1",
    "flights-Q3",
    "flights-Q4",
    "SQ5",
    "SQ6",
];
const JOINS: usize = 5;

struct Inputs {
    edges: Vec<Row>,
    probe_l: Vec<Row>,
    probe_xl: Vec<Row>,
    flights: Vec<Row>,
    planes: Vec<Row>,
    snb: snb::SnbData,
}

fn generate(seed: u64) -> Inputs {
    let mut w = join_scales::generate(BUILD_ROWS, seed);
    let take = |w: &mut join_scales::JoinWorkload, scale: JoinScale| {
        std::mem::take(
            &mut w
                .probes
                .iter_mut()
                .find(|(s, _)| *s == scale)
                .expect("scale generated")
                .1,
        )
    };
    let probe_l = take(&mut w, JoinScale::L);
    let probe_xl = take(&mut w, JoinScale::XL);
    let f = flights::generate(flights::FlightsConfig {
        flights: FLIGHTS,
        planes: 2_000,
        seed,
    });
    Inputs {
        edges: w.data.edges,
        probe_l,
        probe_xl,
        flights: f.flights,
        planes: f.planes,
        snb: snb::generate(snb::SnbConfig {
            persons: SNB_PERSONS,
            avg_degree: 10,
            theta: 0.8,
            seed: seed ^ 0x5eb,
        }),
    }
}

struct Tables {
    ctx: Arc<Context>,
    /// Indexed handles (`None` in the vanilla oracle context).
    edges: Option<IndexedDataFrame>,
    snb_persons: Option<IndexedDataFrame>,
}

/// Register every table: indexed (`indexed`) or all vanilla columnar
/// (the oracle context).
fn build(inp: Inputs, indexed: bool) -> Tables {
    let ctx = new_context();
    let idx = |name: &str, schema, rows, col: &str| {
        if indexed {
            Some(register_indexed(&ctx, name, schema, rows, col))
        } else {
            register_columnar(&ctx, name, schema, rows);
            None
        }
    };
    let edges = idx("edges", snb::edge_schema(), inp.edges, "edge_source");
    register_columnar(&ctx, "probe_l", snb::probe_schema(), inp.probe_l);
    register_columnar(&ctx, "probe_xl", snb::probe_schema(), inp.probe_xl);
    if indexed {
        idx(
            "flights_str",
            flights::flights_schema(),
            inp.flights.clone(),
            "tailNum",
        );
    }
    let flights_int = if indexed {
        "flights_int"
    } else {
        "flights_str"
    };
    idx(
        flights_int,
        flights::flights_schema(),
        inp.flights,
        "flightNum",
    );
    register_columnar(&ctx, "planes", flights::planes_schema(), inp.planes);
    idx(
        "snb_edges",
        snb::edge_schema(),
        inp.snb.edges,
        "edge_source",
    );
    let snb_persons = idx("snb_persons", snb::person_schema(), inp.snb.persons, "id");
    if !indexed {
        ctx.register_table("flights_int", ctx.provider("flights_str").expect("flights"));
    }
    Tables {
        ctx,
        edges,
        snb_persons,
    }
}

fn query(ctx: &Arc<Context>, i: usize) -> Result<DataFrame, PlanError> {
    match QUERIES[i] {
        "t3-L" => Ok(ctx
            .table("edges")?
            .join(ctx.table("probe_l")?, "edge_source", "edge_source")),
        "t3-XL" => {
            Ok(ctx
                .table("edges")?
                .join(ctx.table("probe_xl")?, "edge_source", "edge_source"))
        }
        "flights-Q1" => flights::query(ctx, 1, "flights_str", "flights_int", "planes"),
        "flights-Q3" => flights::query(ctx, 3, "flights_str", "flights_int", "planes"),
        "flights-Q4" => flights::query(ctx, 4, "flights_str", "flights_int", "planes"),
        "SQ5" => ctx.sql(&snb::short_read_sql(5, "snb_persons", "snb_edges", 0)),
        "SQ6" => ctx.sql(&snb::short_read_sql(6, "snb_persons", "snb_edges", 0)),
        other => unreachable!("query {other}"),
    }
}

/// Plan and run query `i`, inside `op` / `sql.plan` / `sql.exec` spans.
fn run_query(ctx: &Arc<Context>, i: usize) -> Result<Vec<Row>, PlanError> {
    trace::with_op(crate::serve::next_op_id(), || {
        trace::span("op", || {
            let phys = trace::span("sql.plan", || query(ctx, i)?.physical_plan())?;
            trace::span("sql.exec", || Ok(gather(phys.execute(ctx)?)))
        })
    })
}

#[derive(Default)]
struct Window {
    latencies_us: Vec<f64>,
    per_query_ms: [Vec<f64>; QUERIES.len()],
    join_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    pass_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    rows: u64,
    errors: Vec<String>,
    wall_s: f64,
}

impl Window {
    /// Queries per second at the median pass time (a pass is every
    /// query once), so one slow pass moves it less than a plain count.
    fn ops_per_s(&self) -> f64 {
        QUERIES.len() as f64 / (stats::median(&self.pass_ms) / 1e3)
    }

    /// The same rate over the untraced and over the traced passes of an
    /// alternating window (odd passes traced).
    fn untraced_traced_rates(&self) -> (f64, f64) {
        let rate = |traced: bool| {
            let mine: Vec<f64> = self
                .pass_ms
                .iter()
                .enumerate()
                .filter(|(k, _)| (k % 2 == 1) == traced)
                .map(|(_, &ms)| ms)
                .collect();
            QUERIES.len() as f64 / (stats::median(&mine) / 1e3)
        };
        (rate(false), rate(true))
    }
}

/// Serial passes until `window` has elapsed: at least one (two when
/// `alternate`), and a started pass finishes. With `alternate`, odd
/// passes are traced and even ones are not; tracing is left on.
fn passes(ctx: &Arc<Context>, window: Duration, oracle: &[Checksum], alternate: bool) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    loop {
        if alternate {
            trace::set_enabled(w.pass_ms.len() % 2 == 1);
        }
        let pass_start = Instant::now();
        let (mut join, mut scan) = (0.0, 0.0);
        for i in 0..QUERIES.len() {
            w.attempted += 1;
            let t0 = Instant::now();
            let result = run_query(ctx, i);
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            let verdict = match result {
                Ok(rows) if Checksum::of(&rows) == oracle[i] => Ok(rows.len()),
                Ok(rows) => Err(format!(
                    "{}: {} rows, checksum differs from the vanilla run ({} rows)",
                    QUERIES[i],
                    rows.len(),
                    oracle[i].rows
                )),
                Err(e) => Err(format!("{}: {e}", QUERIES[i])),
            };
            match verdict {
                Ok(n) => {
                    w.rows += n as u64;
                    w.latencies_us.push(us);
                    w.per_query_ms[i].push(us / 1e3);
                }
                Err(e) => {
                    w.failed += 1;
                    if w.errors.len() < 5 {
                        w.errors.push(e);
                    }
                }
            }
            if i < JOINS {
                join += us / 1e3;
            } else {
                scan += us / 1e3;
            }
        }
        w.join_ms.push(join);
        w.scan_ms.push(scan);
        w.pass_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
        if start.elapsed() >= window && (!alternate || w.pass_ms.len() >= 2) {
            break;
        }
    }
    if alternate {
        trace::set_enabled(true);
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    r.line(harness::header(args, 1, "0 (accounting only)"));
    let inp = generate(args.seed);
    r.line(format!(
        "data: {} indexed edges (probes L {} / XL {} rows), {} flights indexed on tailNum and \
         flightNum, {} planes, SNB {} persons / {} edges",
        inp.edges.len(),
        inp.probe_l.len(),
        inp.probe_xl.len(),
        inp.flights.len(),
        inp.planes.len(),
        inp.snb.persons.len(),
        inp.snb.edges.len()
    ));
    // Oracle: the same queries on vanilla columnar tables. Set-ups draw
    // fresh inputs from the seed so no copy outlives its table.
    let oracle: Vec<Checksum> = {
        let vanilla = build(inp, false);
        let sums = (0..QUERIES.len())
            .map(|i| {
                let rows = query(&vanilla.ctx, i)
                    .and_then(|df| df.collect())
                    .expect("vanilla run");
                Checksum::of(&rows)
            })
            .collect();
        discard(&vanilla.ctx);
        sums
    };
    r.line(format!(
        "oracle (vanilla columnar run) rows: {}",
        QUERIES
            .iter()
            .zip(&oracle)
            .map(|(q, c)| format!("{q}={}", c.rows))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let reps = if args.trace { 1 } else { harness::SETUP_REPS };
    let (t, setup_times) = timed_setups(
        reps,
        || generate(args.seed),
        |i| build(i, true),
        |t: Tables| discard(&t.ctx),
    );
    let ctx = &t.ctx;

    let plans: Vec<String> = (0..JOINS)
        .map(|i| {
            query(ctx, i)
                .and_then(|df| df.explain())
                .unwrap_or_else(|e| format!("plan failed: {e}"))
        })
        .collect();
    let indexed_share = layers::indexed_share(&plans);
    r.check(
        indexed_share == 1.0,
        format!("rule.indexed_share == 1.0 over the five joins (got {indexed_share})"),
    );

    // Warm-up: one pass.
    let warm = passes(ctx, Duration::ZERO, &oracle, false);
    r.attempted += warm.attempted;
    r.failed += warm.failed;
    for e in &warm.errors {
        r.line(format!("failed op: {e}"));
    }

    if args.trace {
        traced(args, &mut r, &t, &oracle);
        layers::put(&mut r, "rule.indexed_share", indexed_share);
        return r;
    }

    let before = harness::snapshot(ctx);
    let w = passes(ctx, args.window(), &oracle, false);
    let d = Delta {
        before,
        after: harness::snapshot(ctx),
    };
    r.attempted += w.attempted;
    r.failed += w.failed;
    for e in &w.errors {
        r.line(format!("failed op: {e}"));
    }
    let tail = stats::tail(&w.latencies_us);
    r.line(format!(
        "setup: {} runs, {:?} s",
        setup_times.len(),
        setup_times
    ));
    r.line(format!(
        "window: {:.2} s, {} passes, {} queries, {:.2} queries/s; latency {}",
        w.wall_s,
        w.join_ms.len(),
        w.latencies_us.len(),
        w.ops_per_s(),
        tail.describe("µs")
    ));
    r.line(format!(
        "join_ms (median pass over the five joins): {:.3}; scan_ms (median pass over SQ5 + SQ6): {:.3}",
        stats::median(&w.join_ms),
        stats::median(&w.scan_ms)
    ));
    for (q, ms) in QUERIES.iter().zip(&w.per_query_ms) {
        if !ms.is_empty() {
            r.line(format!(
                "  {q:<11} median {:8.3} ms over {} runs",
                stats::median(ms),
                ms.len()
            ));
        }
    }
    r.line(format!(
        "failed_ratio: {} / {} = {}",
        w.failed,
        w.attempted,
        w.failed as f64 / w.attempted.max(1) as f64
    ));
    r.metric("setup_s", stats::median(&setup_times), "s");
    r.metric("ops_per_s", w.ops_per_s(), "ops/s");
    r.metric("op_p50_us", tail.p50, "us");
    r.metric("op_p99_us", tail.tail, "us");
    let resident = harness::resident_mb(ctx);
    r.line(format!(
        "resident: {resident:.3} MiB after the window, peak {:.3} MiB",
        harness::resident_peak_mb(ctx)
    ));
    r.metric("resident_mb", resident, "MiB");
    r.check(
        d.counter("memory.evictions") == 0,
        "memory.evictions == 0 during the window",
    );
    r.check(
        d.cache_hit_ratio() == 1.0,
        format!("cache.hit_ratio == 1.0 (got {})", d.cache_hit_ratio()),
    );
    r
}

fn traced(args: &Args, r: &mut Report, t: &Tables, oracle: &[Checksum]) {
    let ctx = &t.ctx;
    // Only the XL probe and the SNB edges are needed from here on.
    let Inputs { probe_xl, snb, .. } = generate(args.seed);
    let before = harness::snapshot(ctx);
    let w = passes(ctx, args.window(), oracle, true);
    let d = Delta {
        before,
        after: harness::snapshot(ctx),
    };
    r.attempted += w.attempted;
    r.failed += w.failed;
    for e in &w.errors {
        r.line(format!("failed op: {e}"));
    }
    let (untraced, traced) = w.untraced_traced_rates();
    layers::overhead_metrics(r, untraced, traced);
    layers::window_metrics(r, &d, w.latencies_us.len() as u64, w.rows);

    let ids = harness::sample_ids(SNB_PERSONS, 512, args.seed ^ 0x1d5);
    let batches = harness::edge_batches(SNB_PERSONS, 8, args.seed ^ 0xba7c);
    layers::probe_and_finish(
        r,
        args,
        &layers::Targets {
            ctx,
            persons: t.snb_persons.as_ref().expect("indexed"),
            persons_table: "snb_persons",
            person_ids: &ids,
            main: t.edges.as_ref(),
            exchange_schema: snb::probe_schema(),
            exchange_rows: &probe_xl,
            twin_base: &snb.edges,
            batches: &batches,
            view_probe: true,
        },
    );
}
