//! `point-serve`: two closed-loop clients submit the indexed SNB short
//! reads SQ1, SQ2, SQ3, SQ4 and SQ7 through `Context::submit_sql(..)
//! .wait()` against one 20 K-person / 200 K-edge graph indexed on `id`
//! and `edge_source`. Memory budget 0.

use crate::harness::{self, discard, new_context, timed_setups, Args, Delta, Report};
use crate::layers;
use crate::serve::{self, Check, Op, Pick};
use crate::snb_oracle::{SnbOracle, SERVE_QUERIES};
use dataframe::Context;
use indexed_df::IndexedDataFrame;
use rand::rngs::StdRng;
use rand::Rng;
use rowstore::Row;
use std::sync::Arc;
use workloads::{register_indexed, snb};

pub const PERSONS: u64 = 20_000;
const AVG_DEGREE: u64 = 10;
const CLIENTS: usize = 2;

struct Served {
    ctx: Arc<Context>,
    persons: IndexedDataFrame,
    edges: IndexedDataFrame,
}

/// Cluster creation, index build and registration of one SNB graph.
fn build(persons: Vec<Row>, edges: Vec<Row>) -> Served {
    let ctx = new_context();
    let persons = register_indexed(&ctx, "persons", snb::person_schema(), persons, "id");
    let edges = register_indexed(&ctx, "edges", snb::edge_schema(), edges, "edge_source");
    Served {
        ctx,
        persons,
        edges,
    }
}

/// The SNB graph of `point-serve` and `append-views`.
pub fn generate(seed: u64) -> snb::SnbData {
    snb::generate(snb::SnbConfig {
        persons: PERSONS,
        avg_degree: AVG_DEGREE,
        theta: 0.8,
        seed,
    })
}

/// The plans of the index-column queries, for `rule.indexed_share`.
pub fn explain_serve_queries(ctx: &Arc<Context>, persons: &str, edges: &str) -> Vec<String> {
    SERVE_QUERIES
        .iter()
        .map(|&q| {
            let sql = snb::short_read_sql(q, persons, edges, 7);
            ctx.sql(&sql)
                .and_then(|df| df.explain())
                .unwrap_or_else(|e| format!("plan failed: {e}"))
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    r.line(harness::header(args, CLIENTS, "0 (accounting only)"));
    let data = generate(args.seed);
    let oracle = SnbOracle::new(&data.persons, &data.edges);
    r.line(format!(
        "data: {} persons, {} edges; indexed on persons.id and edges.edge_source",
        data.persons.len(),
        data.edges.len()
    ));

    let reps = if args.trace { 1 } else { harness::SETUP_REPS };
    let (served, setup_times) = timed_setups(
        reps,
        || (data.persons.clone(), data.edges.clone()),
        |(p, e)| build(p, e),
        |s: Served| discard(&s.ctx),
    );
    let ctx = &served.ctx;

    let pick = |rng: &mut StdRng| {
        let q = SERVE_QUERIES[rng.gen_range(0..SERVE_QUERIES.len())];
        let id = rng.gen_range(0..PERSONS as i64);
        Op {
            tenant: 0,
            q,
            id,
            sql: snb::short_read_sql(q, "persons", "edges", id),
        }
    };
    let check = |op: &Op, hashes: &[u64]| oracle.check(op.q, op.id, hashes);

    // Warm-up: let lazy state settle before measuring.
    let warm = serve::run(
        ctx,
        CLIENTS,
        args.seed ^ 0xaaaa,
        serve::warmup(args),
        0,
        &pick,
        &check,
    );
    r.attempted += warm.attempted;
    r.failed += warm.failed;

    let plans = explain_serve_queries(ctx, "persons", "edges");
    let indexed_share = layers::indexed_share(&plans);
    r.check(
        indexed_share == 1.0,
        format!("rule.indexed_share == 1.0 (got {indexed_share})"),
    );

    if args.trace {
        traced(args, &mut r, &served, &data, &pick, &check);
        layers::put(&mut r, "rule.indexed_share", indexed_share);
        return r;
    }

    let before = harness::snapshot(ctx);
    let out = serve::run(ctx, CLIENTS, args.seed, args.window(), 0, &pick, &check);
    let d = Delta {
        before,
        after: harness::snapshot(ctx),
    };
    serve::record_serve(&mut r, &out, &d, &setup_times);
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

/// Traced run: the window untraced then traced, then the layer probes.
fn traced(
    args: &Args,
    r: &mut Report,
    served: &Served,
    data: &snb::SnbData,
    pick: &Pick<'_>,
    check: &Check<'_>,
) {
    serve::traced_window(r, &served.ctx, CLIENTS, args, 0, pick, check);
    let ids = harness::sample_ids(PERSONS, 512, args.seed ^ 0x1d5);
    let batches = harness::edge_batches(PERSONS, 8, args.seed ^ 0xba7c);
    layers::probe_and_finish(
        r,
        args,
        &layers::Targets {
            ctx: &served.ctx,
            persons: &served.persons,
            persons_table: "persons",
            person_ids: &ids,
            main: Some(&served.edges),
            exchange_schema: snb::edge_schema(),
            exchange_rows: &data.edges[..10_000],
            twin_base: &data.edges,
            batches: &batches,
            view_probe: true,
        },
    );
}
