//! `oversize-serve`: the `point-serve` loop over eight SNB tenants (5 K
//! persons each, 8 partitions per table), each query's tenant drawn from
//! a Zipf distribution with θ = 0.9, under a memory budget of ⅓ of the
//! ungoverned resident peak with the default `CostSpill` policy. The
//! only workload larger than the program's cache: it exercises the
//! governor, the spill codec and the partition-miss path.

use crate::harness::{self, discard, new_context, timed_setups, Args, Delta, Report};
use crate::layers;
use crate::serve::{self, Check, Op, Pick};
use crate::snb_oracle::{SnbOracle, SERVE_QUERIES};
use dataframe::Context;
use indexed_df::IndexedDataFrame;
use rand::rngs::StdRng;
use rand::Rng;
use rowstore::{Row, Schema};
use sparklet::EvictionPolicy;
use std::sync::Arc;
use workloads::{snb, Zipf};

const TENANTS: usize = 8;
const PERSONS: u64 = 5_000;
const PARTITIONS: usize = 8;
const THETA: f64 = 0.9;
const CLIENTS: usize = 2;
/// Kept ops per client replayed on the unbudgeted context.
const REPLAY_PER_CLIENT: usize = 150;

fn tenant_data(seed: u64, t: usize) -> snb::SnbData {
    snb::generate(snb::SnbConfig {
        persons: PERSONS,
        avg_degree: 10,
        theta: 0.8,
        seed: seed.wrapping_mul(31).wrapping_add(t as u64 + 1),
    })
}

fn register(
    ctx: &Arc<Context>,
    name: &str,
    schema: Arc<Schema>,
    rows: Vec<Row>,
    col: &str,
) -> IndexedDataFrame {
    let idf = IndexedDataFrame::builder(ctx, schema, col)
        .expect("index column")
        .rows(rows)
        .partitions(PARTITIONS)
        .build()
        .expect("frame builds");
    idf.cache_index().expect("index build");
    idf.register(name).expect("registration");
    idf
}

/// Every tenant's tables on `ctx`; returns tenant 1's frames.
fn register_tenants(
    ctx: &Arc<Context>,
    tenants: Vec<snb::SnbData>,
) -> (IndexedDataFrame, IndexedDataFrame) {
    let mut first = None;
    for (t, data) in tenants.into_iter().enumerate() {
        let p = register(
            ctx,
            &format!("persons_{t}"),
            snb::person_schema(),
            data.persons,
            "id",
        );
        let e = register(
            ctx,
            &format!("edges_{t}"),
            snb::edge_schema(),
            data.edges,
            "edge_source",
        );
        first.get_or_insert((p, e));
    }
    first.expect("at least one tenant")
}

struct Setup {
    /// The unbudgeted calibration context, kept as the replay reference.
    reference: Arc<Context>,
    ctx: Arc<Context>,
    budget: u64,
    persons: IndexedDataFrame,
    edges: IndexedDataFrame,
}

/// Calibrate the budget on an ungoverned build, then build again under
/// it. Both builds count as set-up.
fn build(calibration: Vec<snb::SnbData>, served: Vec<snb::SnbData>) -> Setup {
    let reference = new_context();
    register_tenants(&reference, calibration);
    let peak = reference
        .cluster()
        .registry()
        .gauge_value("memory.resident_peak_bytes");
    let budget = peak / 3;
    let ctx = new_context();
    ctx.cluster().set_memory_policy(EvictionPolicy::CostSpill);
    ctx.cluster().set_memory_budget(budget);
    let (persons, edges) = register_tenants(&ctx, served);
    Setup {
        reference,
        ctx,
        budget,
        persons,
        edges,
    }
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let data: Vec<snb::SnbData> = (0..TENANTS).map(|t| tenant_data(args.seed, t)).collect();
    let oracles: Vec<SnbOracle> = data
        .iter()
        .map(|d| SnbOracle::new(&d.persons, &d.edges))
        .collect();
    let copy = || {
        data.iter()
            .map(|d| snb::SnbData {
                persons: d.persons.clone(),
                edges: d.edges.clone(),
                config: d.config,
            })
            .collect::<Vec<_>>()
    };

    let reps = if args.trace { 1 } else { harness::SETUP_REPS };
    // Set-up builds twice, so `prepare` hands it two copies.
    let (setup, setup_times) = timed_setups(
        reps,
        || (copy(), copy()),
        |(calibration, served)| build(calibration, served),
        |s: Setup| {
            discard(&s.ctx);
            discard(&s.reference);
        },
    );
    let ctx = &setup.ctx;
    r.line(harness::header(
        args,
        CLIENTS,
        &format!(
            "{} bytes = ⅓ of the ungoverned resident peak, CostSpill",
            setup.budget
        ),
    ));
    r.line(format!(
        "data: {TENANTS} tenants × ({PERSONS} persons + {} edges), {PARTITIONS} partitions per \
         table, tenant ~ Zipf(θ = {THETA})",
        data[0].edges.len()
    ));

    let zipf = Zipf::new(TENANTS as u64, THETA);
    let pick = |rng: &mut StdRng| {
        let tenant = zipf.sample(rng) as usize - 1;
        let q = SERVE_QUERIES[rng.gen_range(0..SERVE_QUERIES.len())];
        let id = rng.gen_range(0..PERSONS as i64);
        Op {
            tenant,
            q,
            id,
            sql: snb::short_read_sql(
                q,
                &format!("persons_{tenant}"),
                &format!("edges_{tenant}"),
                id,
            ),
        }
    };
    let check = |op: &Op, hashes: &[u64]| oracles[op.tenant].check(op.q, op.id, hashes);

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

    if args.trace {
        traced(args, &mut r, &setup, &data, &pick, &check);
        return r;
    }

    let before = harness::snapshot(ctx);
    let out = serve::run(
        ctx,
        CLIENTS,
        args.seed,
        args.window(),
        REPLAY_PER_CLIENT,
        &pick,
        &check,
    );
    let d = Delta {
        before,
        after: harness::snapshot(ctx),
    };
    serve::record_serve(&mut r, &out, &d, &setup_times);
    replay_on_reference(&mut r, &setup.reference, &out.kept);
    let peak = ctx
        .cluster()
        .registry()
        .gauge_value("memory.resident_peak_bytes");
    r.line(format!(
        "memory: peak {peak} B against budget {} B; window: {} evictions, {} unspills, {} recomputes, \
         cache hit ratio {:.3}",
        setup.budget,
        d.counter("memory.evictions"),
        d.counter("memory.unspills"),
        d.counter("memory.recomputes"),
        d.cache_hit_ratio()
    ));
    let resident = harness::resident_mb(ctx);
    r.line(format!(
        "resident: {resident:.3} MiB after the window, peak {:.3} MiB",
        harness::resident_peak_mb(ctx)
    ));
    r.metric("resident_mb", resident, "MiB");
    r.check(
        d.counter("memory.evictions") > 0,
        "memory.evictions > 0 during the window (the working set exceeds the cache)",
    );
    r.check(
        peak <= setup.budget,
        format!("resident peak {peak} ≤ budget {}", setup.budget),
    );
    r
}

/// The same queries on the unbudgeted context must give the same rows.
fn replay_on_reference(r: &mut Report, reference: &Arc<Context>, kept: &[serve::Kept]) {
    harness::phase("replay on the unbudgeted context");
    let mut bad = 0;
    for k in kept {
        let rows = reference
            .sql(&k.op.sql)
            .and_then(|df| df.collect())
            .map_err(|e| e.to_string());
        let same = matches!(&rows, Ok(rows) if crate::oracle::Checksum::of(rows) == k.result);
        if !same {
            bad += 1;
            if bad <= 5 {
                r.line(format!(
                    "failed op: {} differs on the unbudgeted context",
                    k.op.sql
                ));
            }
        }
    }
    r.failed += bad;
    r.line(format!(
        "replayed {} ops on the unbudgeted context: {bad} differ",
        kept.len()
    ));
}

fn traced(
    args: &Args,
    r: &mut Report,
    setup: &Setup,
    data: &[snb::SnbData],
    pick: &Pick<'_>,
    check: &Check<'_>,
) {
    let ctx = &setup.ctx;
    let out = serve::traced_window(r, ctx, CLIENTS, args, REPLAY_PER_CLIENT, pick, check);
    replay_on_reference(r, &setup.reference, &out.kept);
    let plans = crate::point_serve::explain_serve_queries(ctx, "persons_0", "edges_0");
    layers::put(r, "rule.indexed_share", layers::indexed_share(&plans));
    let ids = harness::sample_ids(PERSONS, 512, args.seed ^ 0x1d5);
    let batches = harness::edge_batches(PERSONS, 8, args.seed ^ 0xba7c);
    layers::probe_and_finish(
        r,
        args,
        &layers::Targets {
            ctx,
            persons: &setup.persons,
            persons_table: "persons_0",
            person_ids: &ids,
            main: Some(&setup.edges),
            exchange_schema: snb::edge_schema(),
            exchange_rows: &data[0].edges[..10_000],
            twin_base: &data[0].edges,
            batches: &batches,
            view_probe: true,
        },
    );
}
