//! Shuffle microbench: throughput of the serialized row exchange
//! (`exchange_rows`: rows packed into length-prefixed wire blocks and
//! decoded per reduce partition, exact byte accounting) — the path every
//! index build, append and shuffled join takes. Not a paper figure: the
//! regression record for the shuffle, which the paper's Fig. 10 shows
//! dominating append time.
//!
//! Workload: rows with a string payload, keyed by an Int64 column. Row
//! generation is excluded from the timed region (the exchange consumes its
//! inputs, so each rep gets fresh inputs built outside the clock).

use crate::perf::Perf;
use crate::{banner, write_csv, Opts, Stats};
use dataframe::Context;
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shuffle_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("payload", DataType::Utf8),
        Field::new("v", DataType::Int64),
    ])
}

/// Keyed input partitions: `rows` rows spread over `parts` partitions.
fn make_inputs(rows: usize, parts: usize) -> Vec<Vec<(u64, Row)>> {
    let per = rows.div_ceil(parts);
    (0..parts)
        .map(|p| {
            (0..per.min(rows.saturating_sub(p * per)))
                .map(|i| {
                    let k = (p * per + i) as i64 % 10_000;
                    let row: Row = vec![
                        Value::Int64(k),
                        Value::Utf8(format!("payload-{p}-{i:08}")),
                        Value::Int64(i as i64),
                    ];
                    (Value::Int64(k).key_hash(), row)
                })
                .collect()
        })
        .collect()
}

fn cluster_ctx(workers: usize) -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig {
        workers,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    }))
}

/// Time `reps` runs (after one warmup), building fresh inputs outside the
/// clock because the exchange consumes them.
fn time_exchange(
    reps: usize,
    rows: usize,
    parts: usize,
    mut run: impl FnMut(Vec<Vec<(u64, Row)>>),
) -> Vec<Duration> {
    run(make_inputs(rows, parts)); // warmup
    (0..reps)
        .map(|_| {
            let inputs = make_inputs(rows, parts);
            let start = Instant::now();
            run(inputs);
            start.elapsed()
        })
        .collect()
}

pub fn shuffle(opts: &Opts) {
    banner("shuffle — serialized row exchange throughput");
    let rows = (200_000 * opts.scale) as usize;
    let parts = 8;
    let num_out = 8;
    let reps = opts.reps.max(1);
    let workers = opts.workers_or(4);
    let schema = shuffle_schema();

    let mut perf = Perf::start("shuffle");
    println!("path        rows      mean_ms   std_ms  mrows_per_s");
    let label = "serialized";
    let ctx = cluster_ctx(workers);
    perf.attach(label, &ctx);
    let samples = time_exchange(reps, rows, parts, |inputs| {
        sparklet::exchange_rows(ctx.cluster(), &schema, inputs, num_out).unwrap();
    });
    let s = Stats::of(&samples);
    let mrows = rows as f64 / 1e6 / (s.mean_ms / 1e3);
    println!(
        "{label:<10}  {rows:>8}  {:>8.2}  {:>7.2}  {mrows:>11.2}",
        s.mean_ms, s.std_ms
    );
    perf.extra(&format!("{label}_ms"), s.mean_ms);
    perf.extra(&format!("{label}_mrows_per_s"), mrows);
    perf.extra("rows", rows as f64);

    write_csv(
        opts,
        "shuffle.csv",
        "path,rows,mean_ms,std_ms,mrows_per_s",
        &[format!(
            "{label},{rows},{:.3},{:.3},{mrows:.3}",
            s.mean_ms, s.std_ms
        )],
    );
    perf.finish(opts);
}
