//! The per-layer ledger of a traced run.
//!
//! Two sources feed it. Counter deltas over the traced window give work
//! per op where the work happens (stages, operators, shuffle, memory).
//! Direct calls into each layer's public functions, on the workload's
//! own tables, give that layer's cost without the layers above it; the
//! differences between neighbouring layers are their self times.

use crate::harness::{self, Args, Delta, Report};
use crate::stats::median;
use crate::trace;
use dataframe::{col, gather, lit, Context};
use indexed_df::{ContextViewExt, IndexedDataFrame};
use rowstore::{Row, Schema, Value};
use sparklet::partition_of;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Operators whose histograms the ledger splits per op. The first two
/// are the indexed operators; the record prints every one, the metrics
/// sum them into indexed and other operator time.
pub const OPERATORS: [&str; 12] = [
    "indexed_lookup",
    "join.indexed",
    "join.adaptive",
    "join.broadcast",
    "join.shuffled",
    "join.sortmerge",
    "filter",
    "project",
    "sort",
    "limit",
    "scan",
    "agg",
];
const INDEXED_OPERATORS: usize = 2;

/// Every per-layer metric, in print order, with its unit. A traced run
/// reports each of them on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.probe_ns", "ns"),
    ("partition.lookup_ns", "ns"),
    ("partition.decode_ns", "ns"),
    ("partition.bulk_insert_ns_per_row", "ns/row"),
    ("partition.snapshot_ns", "ns"),
    ("index.bytes_per_data_byte", "ratio"),
    ("frame.get_rows_ns", "ns"),
    ("dispatch.self_ns", "ns"),
    ("stage.noop_1_ns", "ns"),
    ("stage.noop_p_ns", "ns"),
    ("stage.per_op", "1/op"),
    ("task.attempt_failures", "count"),
    ("task.terminal_failures", "count"),
    ("sql.plan_ns", "ns"),
    ("sql.exec_ns", "ns"),
    ("sql.direct_ns", "ns"),
    ("rule.indexed_share", "ratio"),
    ("session.submit_ns", "ns"),
    ("session.wait_ns", "ns"),
    ("session.self_ns", "ns"),
    ("scheduler.interleaves_per_op", "1/op"),
    ("session.rejected", "count"),
    ("op.indexed.ns_per_op", "ns/op"),
    ("op.other.ns_per_op", "ns/op"),
    ("operator.vectorized_share", "ratio"),
    ("scan.rows_per_result", "ratio"),
    ("shuffle.exchange_ns_per_row", "ns/row"),
    ("shuffle.bytes_per_query", "B/op"),
    ("shuffle.rows_per_query", "rows/op"),
    ("broadcast.bytes_per_query", "B/op"),
    ("adaptive.decisions_per_op", "1/op"),
    ("cache.hit_ratio", "ratio"),
    ("memory.unspills_per_op", "1/op"),
    ("memory.unspilled_bytes_per_op", "B/op"),
    ("memory.evictions", "count"),
    ("memory.spills", "count"),
    ("memory.admit_rejects", "count"),
    ("memory.recomputes", "count"),
    ("memory.retired_versions_per_append", "1/append"),
    ("memory.resident_peak_mb", "MiB"),
    ("frame.append_ns", "ns"),
    ("view.refresh_self_ns", "ns"),
    ("view.delta_rows_per_append", "rows"),
    ("view.fallback_ratio", "ratio"),
    ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"),
    ("trace.overhead_pct", "%"),
    ("ledger.get_rows_over_lookup", "ratio"),
    ("ledger.session_over_direct", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Add per-layer metric `name` with its declared unit.
pub fn put(r: &mut Report, name: &'static str, value: f64) {
    r.metric(name, value, unit_of(name));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Work per op over the traced window, from counter deltas.
pub fn window_metrics(r: &mut Report, d: &Delta, ops: u64, rows_returned: u64) {
    let ops_f = ops.max(1) as f64;
    let per_op = |v: u64| v as f64 / ops_f;
    put(r, "stage.per_op", per_op(d.counter("stage.launched")));
    put(
        r,
        "task.attempt_failures",
        d.counter("task.attempt_failures") as f64,
    );
    put(
        r,
        "task.terminal_failures",
        d.counter("task.terminal_failures") as f64,
    );
    put(
        r,
        "scheduler.interleaves_per_op",
        per_op(d.counter("scheduler.interleaves")),
    );
    put(r, "session.rejected", d.counter("session.rejected") as f64);
    let op_ns: Vec<u64> = OPERATORS
        .iter()
        .map(|op| d.hist_sum(&format!("op.{op}.ns")))
        .collect();
    r.line(format!(
        "operator time per op (µs): {}",
        OPERATORS
            .iter()
            .zip(&op_ns)
            .filter(|(_, &ns)| ns > 0)
            .map(|(op, &ns)| format!("{op} {:.2}", per_op(ns) / 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let (indexed, other) = op_ns.split_at(INDEXED_OPERATORS);
    put(r, "op.indexed.ns_per_op", per_op(indexed.iter().sum()));
    put(r, "op.other.ns_per_op", per_op(other.iter().sum()));
    let vectorized = d.counter("operator.vectorized") as f64;
    let fallback = d.counter("operator.fallback") as f64;
    put(
        r,
        "operator.vectorized_share",
        ratio(vectorized, vectorized + fallback),
    );
    put(
        r,
        "scan.rows_per_result",
        ratio(d.counter("op.scan.rows_in") as f64, rows_returned as f64),
    );
    put(
        r,
        "shuffle.bytes_per_query",
        per_op(d.counter("shuffle.bytes")),
    );
    put(
        r,
        "shuffle.rows_per_query",
        per_op(d.counter("shuffle.rows")),
    );
    put(
        r,
        "broadcast.bytes_per_query",
        per_op(d.counter("broadcast.bytes")),
    );
    let decisions: u64 = ["join_demotions", "salted_joins", "splits", "coalesces"]
        .iter()
        .map(|k| d.counter(&format!("adaptive.{k}")))
        .sum();
    put(r, "adaptive.decisions_per_op", per_op(decisions));
    put(r, "cache.hit_ratio", d.cache_hit_ratio());
    put(
        r,
        "memory.unspills_per_op",
        per_op(d.counter("memory.unspills")),
    );
    put(
        r,
        "memory.unspilled_bytes_per_op",
        per_op(d.counter("memory.unspilled_bytes")),
    );
    let peak = d
        .after
        .gauges
        .get("memory.resident_peak_bytes")
        .copied()
        .unwrap_or(0);
    put(
        r,
        "memory.resident_peak_mb",
        peak as f64 / (1u64 << 20) as f64,
    );
    for name in [
        "memory.evictions",
        "memory.spills",
        "memory.admit_rejects",
        "memory.recomputes",
    ] {
        put(r, name, d.counter(name) as f64);
    }
}

/// Tracing overhead: the same window untraced and traced.
pub fn overhead_metrics(r: &mut Report, untraced: f64, traced: f64) {
    put(r, "trace.ops_per_s_untraced", untraced);
    put(r, "trace.ops_per_s_traced", traced);
    let pct = 100.0 * (untraced - traced) / untraced;
    put(r, "trace.overhead_pct", pct);
    r.line(format!(
        "tracing overhead: {untraced:.1} ops/s untraced vs {traced:.1} traced ({pct:+.2} %)"
    ));
}

/// Time `f` into `samples` (ns) inside a span named `name`.
fn timed<R>(name: &'static str, samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    trace::span(name, || {
        let t0 = Instant::now();
        let r = f();
        samples.push(t0.elapsed().as_nanos() as f64);
        r
    })
}

/// What the direct-call probes run against.
pub struct Targets<'a> {
    pub ctx: &'a Arc<Context>,
    /// Indexed `persons` (on `id`) registered as `persons_table`: the
    /// SQ1 path of the ROADMAP item 1 ledger.
    pub persons: &'a IndexedDataFrame,
    pub persons_table: &'a str,
    pub person_ids: &'a [i64],
    /// The workload's main indexed table (bulk insert, snapshot, index
    /// size); `None` uses the untracked twin.
    pub main: Option<&'a IndexedDataFrame>,
    /// Rows pushed through one direct `exchange_rows` call.
    pub exchange_schema: Arc<Schema>,
    pub exchange_rows: &'a [Row],
    /// Edge rows for the untracked twin table and the batches appended
    /// to it (SNB edge schema).
    pub twin_base: &'a [Row],
    pub batches: &'a [Vec<Row>],
    /// Also time `append_table` on a tracked twin with one filter view
    /// (workloads that do not append themselves).
    pub view_probe: bool,
}

/// Medians the workload may combine with its own window numbers.
pub struct ProbeOut {
    pub frame_append_ns: f64,
    pub view_append_ns: Option<f64>,
}

const KEY_REPS: usize = 4096;
const KEY_BATCH: usize = 8;
const CALL_REPS: usize = 600;

/// Direct calls into each layer. Reports the partition, frame, stage,
/// SQL, session and shuffle metrics plus the SQ1 ledger table.
pub fn probe(r: &mut Report, t: &Targets) -> ProbeOut {
    let ctx = t.ctx;
    let cluster = ctx.cluster();
    let keys: Vec<Value> = t
        .person_ids
        .iter()
        .cycle()
        .take(KEY_REPS)
        .map(|&k| Value::Int64(k))
        .collect();
    let n_parts = t.persons.num_partitions();
    let parts: Vec<_> = (0..n_parts).map(|p| t.persons.partition(p)).collect();
    let part_of = |k: &Value| &parts[partition_of(k.key_hash(), n_parts)];

    harness::phase("probe: partition");
    // cTrie + rowstore: probe (no decode) and lookup (decode), each in
    // its own warm pass over the keys, timed per batch of KEY_BATCH keys.
    for k in &keys {
        black_box(part_of(k).lookup(k));
    }
    let (mut probe_ns, mut lookup_ns) = (Vec::new(), Vec::new());
    for batch in keys.chunks(KEY_BATCH) {
        timed("partition.probe", &mut probe_ns, || {
            let mut bytes = 0usize;
            for k in batch {
                black_box(part_of(k).probe(k, |b| bytes += b.len()));
            }
            black_box(bytes)
        });
    }
    for batch in keys.chunks(KEY_BATCH) {
        timed("partition.lookup", &mut lookup_ns, || {
            for k in batch {
                black_box(part_of(k).lookup(k));
            }
        });
    }
    let per_key =
        |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|ns| ns / KEY_BATCH as f64).collect() };
    let (probe_ns, lookup_ns) = (per_key(probe_ns), per_key(lookup_ns));
    let probe_p50 = median(&probe_ns);
    let lookup_p50 = median(&lookup_ns);

    harness::phase("probe: get_rows");
    // Frame: one-task stage around the same lookup.
    let mut get_rows_ns = Vec::new();
    for k in keys.iter().take(CALL_REPS * 2) {
        timed("frame.get_rows", &mut get_rows_ns, || {
            black_box(t.persons.get_rows(k).expect("get_rows"))
        });
    }
    let get_rows_p50 = median(&get_rows_ns);

    harness::phase("probe: noop stages");
    // Stage dispatch with a no-op closure: 1 task and P tasks.
    let p_tasks = harness::GEOMETRY.default_partitions();
    let (mut noop_1, mut noop_p) = (Vec::new(), Vec::new());
    for _ in 0..CALL_REPS {
        timed("stage.noop_1", &mut noop_1, || {
            cluster.run_stage_partitions(1, |_| ()).expect("noop stage")
        });
        timed("stage.noop_p", &mut noop_p, || {
            cluster
                .run_stage_partitions(p_tasks, |_| ())
                .expect("noop stage")
        });
    }

    harness::phase("probe: sql and session");
    // SQL: parse + optimize + plan, then execute; and the session path.
    let sq1 = |k: i64| workloads::snb::short_read_sql(1, t.persons_table, "unused", k);
    let (mut plan_ns, mut direct_ns) = (Vec::new(), Vec::new());
    let (mut submit_ns, mut wait_ns) = (Vec::new(), Vec::new());
    for &k in t.person_ids.iter().cycle().take(CALL_REPS) {
        let text = sq1(k);
        let t0 = Instant::now();
        trace::span("sql.direct", || {
            let phys = timed("sql.plan", &mut plan_ns, || {
                ctx.sql(&text)
                    .and_then(|df| df.physical_plan())
                    .expect("SQ1 plans")
            });
            trace::span("sql.exec", || {
                black_box(gather(phys.execute(ctx).expect("SQ1 runs")))
            });
        });
        direct_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        trace::span("session.total", || {
            let handle = timed("session.submit", &mut submit_ns, || {
                ctx.submit_sql(&text).expect("SQ1 admitted")
            });
            black_box(handle.wait().expect("SQ1 runs"));
        });
        wait_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let direct_p50 = median(&direct_ns);
    let wait_p50 = median(&wait_ns);

    put(r, "partition.probe_ns", probe_p50);
    put(r, "partition.lookup_ns", lookup_p50);
    put(r, "partition.decode_ns", lookup_p50 - probe_p50);
    put(r, "frame.get_rows_ns", get_rows_p50);
    put(r, "dispatch.self_ns", get_rows_p50 - lookup_p50);
    put(r, "stage.noop_1_ns", median(&noop_1));
    put(r, "stage.noop_p_ns", median(&noop_p));
    put(r, "sql.plan_ns", median(&plan_ns));
    put(r, "sql.exec_ns", direct_p50 - median(&plan_ns));
    put(r, "sql.direct_ns", direct_p50);
    put(r, "session.submit_ns", median(&submit_ns));
    put(r, "session.wait_ns", wait_p50);
    put(r, "session.self_ns", wait_p50 - direct_p50);
    put(r, "ledger.get_rows_over_lookup", get_rows_p50 / lookup_p50);
    put(r, "ledger.session_over_direct", wait_p50 / direct_p50);

    r.line(format!(
        "ROADMAP item 1 ledger, SQ1 on `{}` (p50; {} keys for the partition rows, {} calls for the others):",
        t.persons_table, KEY_REPS, CALL_REPS
    ));
    r.line(format!(
        "  IndexedPartition::lookup        {:>9.2} µs",
        lookup_p50 / 1e3
    ));
    r.line(format!(
        "  IndexedDataFrame::get_rows      {:>9.2} µs  {:>6.1}× lookup   (target ≤ 5×)",
        get_rows_p50 / 1e3,
        get_rows_p50 / lookup_p50
    ));
    r.line(format!(
        "  ctx.sql(..).collect()           {:>9.2} µs  (plan {:.2} µs)",
        direct_p50 / 1e3,
        median(&plan_ns) / 1e3
    ));
    r.line(format!(
        "  ctx.submit_sql(..).wait()       {:>9.2} µs  {:>6.2}× direct   (target ≤ 1.2×)",
        wait_p50 / 1e3,
        wait_p50 / direct_p50
    ));

    harness::phase("probe: frame append");
    // Frame append on an untracked twin: new version + index replay.
    let twin = IndexedDataFrame::from_rows(
        ctx,
        workloads::snb::edge_schema(),
        t.twin_base.to_vec(),
        "edge_source",
    )
    .expect("twin frame");
    twin.cache_index().expect("twin index");
    let mut append_ns = Vec::new();
    for batch in t.batches {
        let next = timed("frame.append", &mut append_ns, || {
            let next = twin.append_rows(batch.clone());
            next.cache_index().expect("append version builds");
            next
        });
        drop(next);
    }
    let frame_append_ns = median(&append_ns);
    put(r, "frame.append_ns", frame_append_ns);

    harness::phase("probe: partition writes");
    // Partition writes on the main table: snapshot, bulk insert into it.
    let main = t.main.unwrap_or(&twin);
    let main_parts: Vec<_> = (0..main.num_partitions())
        .map(|p| main.partition(p))
        .collect();
    let (mut snap_ns, mut bulk_ns_per_row) = (Vec::new(), Vec::new());
    for (i, batch) in t.batches.iter().enumerate() {
        let part = &main_parts[i % main_parts.len()];
        let mut snap = timed("partition.snapshot", &mut snap_ns, || part.snapshot());
        let t0 = Instant::now();
        trace::span("partition.bulk_insert", || {
            snap.bulk_insert(batch).expect("bulk insert")
        });
        bulk_ns_per_row.push(t0.elapsed().as_nanos() as f64 / batch.len() as f64);
    }
    put(r, "partition.snapshot_ns", median(&snap_ns));
    put(
        r,
        "partition.bulk_insert_ns_per_row",
        median(&bulk_ns_per_row),
    );
    put(
        r,
        "index.bytes_per_data_byte",
        main.index_bytes() as f64 / main.data_bytes().max(1) as f64,
    );

    harness::phase("probe: exchange");
    // Shuffle: one direct exchange of the given rows.
    let n_out = harness::GEOMETRY.default_partitions();
    let mut exchange_ns_per_row = Vec::new();
    for _ in 0..5 {
        let mut inputs: Vec<Vec<(u64, Row)>> = vec![Vec::new(); n_out];
        for (i, row) in t.exchange_rows.iter().enumerate() {
            inputs[i % n_out].push((row[0].key_hash(), row.clone()));
        }
        let t0 = Instant::now();
        trace::span("shuffle.exchange_rows", || {
            black_box(
                sparklet::exchange_rows(cluster, &t.exchange_schema, inputs, n_out)
                    .expect("exchange"),
            )
        });
        exchange_ns_per_row.push(t0.elapsed().as_nanos() as f64 / t.exchange_rows.len() as f64);
    }
    put(
        r,
        "shuffle.exchange_ns_per_row",
        median(&exchange_ns_per_row),
    );

    harness::phase("probe: view appends");
    // The same appends through the view manager, with one standing view.
    let view_append_ns = t.view_probe.then(|| {
        let tracked = IndexedDataFrame::from_rows(
            ctx,
            workloads::snb::edge_schema(),
            t.twin_base.to_vec(),
            "edge_source",
        )
        .expect("tracked twin");
        tracked.cache_index().expect("tracked twin index");
        let df = ctx
            .track_indexed_table("probe_edges", &tracked)
            .expect("track twin");
        drop(tracked);
        ctx.register_view(
            "probe_view",
            &df.filter(col("weight").lt(lit(0.05)))
                .select(&["edge_source", "edge_dest", "weight"]),
        )
        .expect("probe view");
        let mut ns = Vec::new();
        for batch in t.batches {
            timed("view.append_table", &mut ns, || {
                ctx.append_table("probe_edges", batch.clone())
                    .expect("probe append")
            });
        }
        median(&ns)
    });
    ProbeOut {
        frame_append_ns,
        view_append_ns,
    }
}

/// View metrics from the probe's own appends (workloads that do not
/// append in their window).
fn view_probe_metrics(r: &mut Report, pd: &Delta, probe: &ProbeOut, batches: usize) {
    let view_ns = probe.view_append_ns.expect("view probe ran");
    put(r, "view.refresh_self_ns", view_ns - probe.frame_append_ns);
    // Each batch was appended twice: to the untracked and the tracked twin.
    view_counter_metrics(r, pd, batches, 2 * batches);
}

/// View counters per view-maintained append and version retirements per
/// append of any kind, over a delta.
pub fn view_counter_metrics(r: &mut Report, d: &Delta, view_appends: usize, appends: usize) {
    put(
        r,
        "view.delta_rows_per_append",
        d.counter("view.delta_rows") as f64 / view_appends.max(1) as f64,
    );
    let refreshes = d.counter("view.refreshes").max(1) as f64;
    put(
        r,
        "view.fallback_ratio",
        d.counter("view.fallbacks") as f64 / refreshes,
    );
    put(
        r,
        "memory.retired_versions_per_append",
        d.counter("memory.retired_versions") as f64 / appends.max(1) as f64,
    );
}

/// Probe the layers after a traced window, report the probe's own view
/// metrics (workloads that do not append) and the trace ledger.
pub fn probe_and_finish(r: &mut Report, args: &Args, t: &Targets) {
    let snap = harness::snapshot(t.ctx);
    let probe_out = probe(r, t);
    trace::set_enabled(false);
    let pd = Delta {
        before: snap,
        after: harness::snapshot(t.ctx),
    };
    view_probe_metrics(r, &pd, &probe_out, t.batches.len());
    finish_trace(r, &args.workload, args.seed);
}

/// Print the self-time ledger of the recorded spans and write them out.
pub fn finish_trace(r: &mut Report, workload: &str, seed: u64) {
    let spans = trace::drain();
    let ledger = trace::ledger(&spans);
    r.line(format!(
        "self-time ledger ({} spans; self = duration − time covered by child spans):",
        spans.len()
    ));
    r.line(format!(
        "  {:<24} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_p50_us"
    ));
    for (name, row) in &ledger {
        r.line(format!(
            "  {:<24} {:>8} {:>12.3} {:>12.3} {:>12.2}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            median(&row.self_samples) / 1e3
        ));
    }
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl"));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => r.line(format!("spans written to {}", path.display())),
        Err(e) => r.line(format!("spans not written ({}): {e}", path.display())),
    }
}

/// Share of `queries` whose physical plan uses an indexed operator.
pub fn indexed_share(plans: &[String]) -> f64 {
    let indexed = plans.iter().filter(|p| p.contains("Indexed")).count();
    indexed as f64 / plans.len().max(1) as f64
}
