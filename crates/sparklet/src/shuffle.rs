//! Shuffle: hash-partitioned row exchange between partitions.
//!
//! The paper's Indexed DataFrame is hash partitioned on the index column;
//! index creation, appends and indexed joins all shuffle rows to the
//! partition responsible for their key (§III-C). Fig. 10 shows append time
//! is dominated by exactly this shuffle, so rows travel in a **serialized
//! wire format**: the map side packs each partition's rows into
//! length-prefixed binary blocks (the `rowstore` codec), one per
//! destination, and the reduce side decodes them. Bytes are accounted
//! *exactly* from block lengths, and allocation is amortized into one
//! buffer per (map, reduce) pair.
//!
//! Two exchanges share that map side and one reduce body, and differ only
//! in the reduce plan they hand it:
//!
//! * [`exchange_rows`] runs the identity plan — one task per output
//!   partition;
//! * [`exchange_rows_adaptive`] runs [`plan_reduce_tasks`], which splits
//!   oversized partitions and coalesces near-empty ones.
//!
//! Broadcasts carry no data through this module: operators share one
//! materialized copy per alive worker themselves and record the traffic
//! with [`account_broadcast`].
//!
//! Retry safety: cluster stages may re-run a task after a panic or a
//! mid-stage worker loss, so no stage task ever consumes its input. The map
//! stage reads its input rows through an `Arc` snapshot and the reduce
//! stage reads the committed blocks the same way; serialization and
//! deserialization are pure, so a retried attempt re-produces
//! byte-identical blocks or row-identical outputs.

use crate::cluster::{Cluster, StageError, TaskSpec};
use crate::metrics::{SpanKind, SpanRecord};
use rowstore::{BlockReader, BlockWriter, Row, Schema, Value};
use std::sync::Arc;
use std::time::Instant;

/// Estimated in-memory size of a row (8 bytes per value plus string
/// payloads): the byte measure of broadcast accounting and of the planner's
/// runtime size statistics. Shuffles account exact wire bytes instead.
pub fn row_bytes(row: &Row) -> usize {
    row.iter()
        .map(|v| match v {
            Value::Utf8(s) => 8 + s.len(),
            _ => 8,
        })
        .sum()
}

/// Deterministically map a key hash to an output partition.
#[inline]
pub fn partition_of(key_hash: u64, num_partitions: usize) -> usize {
    // Multiply-shift avoids the pathologies of `hash % n` for power-of-two n
    // combined with low-entropy hashes.
    ((key_hash as u128 * num_partitions as u128) >> 64) as usize
}

/// Per-partition observations from one exchange's committed map side — the
/// "free statistics pass" that adaptive execution feeds on. Rows and bytes
/// are exact (block headers and block lengths), not estimates.
#[derive(Debug, Clone, Default)]
pub struct ExchangeStats {
    pub per_partition_rows: Vec<u64>,
    pub per_partition_bytes: Vec<u64>,
}

impl ExchangeStats {
    pub fn total_rows(&self) -> u64 {
        self.per_partition_rows.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.per_partition_bytes.iter().sum()
    }

    /// Rounded mean rows per partition with a one-row floor (same rounding
    /// rule the byte-skew detector uses, so thresholds compose).
    pub fn mean_rows(&self) -> u64 {
        let n = self.per_partition_rows.len() as u64;
        if n == 0 || self.total_rows() == 0 {
            return 0;
        }
        ((self.total_rows() + n / 2) / n).max(1)
    }

    /// Indices of partitions whose row count exceeds the configured skew
    /// threshold.
    pub fn skewed_partitions(&self, config: &crate::ClusterConfig) -> Vec<usize> {
        let mean = self.mean_rows();
        if mean == 0 {
            return Vec::new();
        }
        let threshold = config.skew_threshold(mean as f64);
        self.per_partition_rows
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Metric and skew accounting of one committed exchange.
///
/// The per-partition byte histogram is what shows a hot key (one bucket far
/// above the rest), and `shuffle.skewed_partitions` counts partitions
/// receiving more than `skew_ratio ×` the mean (configurable via
/// [`crate::ClusterConfig::skew_ratio`], default 2.0 — the historical
/// hard-coded rule). The mean is *rounded* with a one-byte floor:
/// truncating `bytes / num_out` is 0 for exchanges smaller than their
/// fan-out, which silently disabled skew detection. The largest partition's
/// row count is also published as the `shuffle.max_partition_rows` gauge
/// (merged by max across exchanges).
fn record_exchange(
    cluster: &Cluster,
    start: Instant,
    per_partition_rows: &[u64],
    per_partition_bytes: &[u64],
) {
    let num_out = per_partition_bytes.len() as u64;
    let rows: u64 = per_partition_rows.iter().sum();
    let bytes: u64 = per_partition_bytes.iter().sum();
    let reg = cluster.registry();
    reg.counter("phase.shuffle_ns")
        .add(start.elapsed().as_nanos() as u64);
    reg.counter("shuffle.exchanges").inc();
    reg.counter("shuffle.rows").add(rows);
    reg.counter("shuffle.bytes").add(bytes);
    if let Some(&max_rows) = per_partition_rows.iter().max() {
        reg.gauge("shuffle.max_partition_rows").set_max(max_rows);
    }
    let part_hist = reg.histogram("shuffle.partition_bytes");
    let mean = if bytes == 0 {
        0
    } else {
        ((bytes + num_out / 2) / num_out).max(1)
    };
    let threshold = cluster.config().skew_threshold(mean as f64);
    let mut skewed = 0u64;
    for &b in per_partition_bytes {
        part_hist.record(b);
        if mean > 0 && b > threshold {
            skewed += 1;
        }
    }
    reg.counter("shuffle.skewed_partitions").add(skewed);
}

/// The shuffle wire format for `Row` streams: rows are packed into
/// length-prefixed binary blocks (`rowstore`'s row codec inside
/// [`BlockWriter`] framing) keyed by destination partition. One block per
/// (map partition, reduce partition) pair, so a whole bucket costs one
/// amortized buffer instead of a `Vec`/`String` pair per value, and the
/// shuffle's byte accounting is *exact* — block lengths, not estimates.
pub struct ShuffleCodec {
    schema: Arc<Schema>,
}

impl ShuffleCodec {
    pub fn new(schema: Arc<Schema>) -> ShuffleCodec {
        ShuffleCodec { schema }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Serialize one map partition into `num_out` destination blocks.
    /// Panics if a row does not match the wire schema — that is a planner
    /// bug, and the resulting task failure surfaces as a [`StageError`]
    /// after retries rather than silently corrupting the stream.
    pub fn encode_buckets(&self, items: &[(u64, Row)], num_out: usize) -> Vec<Vec<u8>> {
        let mut writers: Vec<BlockWriter> = (0..num_out).map(|_| BlockWriter::new()).collect();
        for (h, row) in items {
            writers[partition_of(*h, num_out)]
                .push(&self.schema, row)
                .unwrap_or_else(|e| panic!("shuffle codec: row does not match wire schema: {e}"));
        }
        writers.into_iter().map(BlockWriter::finish).collect()
    }

    /// Rows recorded in a block's header (for pre-sizing the reduce side).
    pub fn block_rows(&self, block: &[u8]) -> usize {
        BlockReader::new(&self.schema, block)
            .map(|r| r.num_rows())
            .unwrap_or(0)
    }
}

/// Hash-partition `Row` streams through the serialized wire format, one
/// reduce task per output partition.
///
/// Map side (one cluster task per input partition): pack each partition's
/// rows into `num_out` length-prefixed blocks. Reduce side (one cluster
/// task per output partition, on the partition's home worker): decode
/// block `j` of every map output into a vector pre-sized from the block
/// headers.
///
/// Output partition `j` holds map partition 0's rows for `j` (in input
/// order), then map partition 1's, and so on.
pub fn exchange_rows(
    cluster: &Cluster,
    schema: &Arc<Schema>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
) -> Result<Vec<Vec<Row>>, StageError> {
    let one_task_per_partition = |rows: &[u64]| {
        (0..rows.len())
            .map(|j| ReduceTask::Whole { parts: vec![j] })
            .collect()
    };
    exchange_rows_planned(cluster, schema, inputs, num_out, one_task_per_partition)
        .map(|(out, _)| out)
}

/// One task of a reduce plan.
///
/// `Whole` decodes one or more *entire* output partitions (several when
/// near-empty partitions are coalesced into one task); `Slice` decodes the
/// row range `[skip, skip + take)` of a single oversized partition's
/// concatenated map-order stream. Slices exploit the length-prefixed wire
/// format: skipping a row costs one 4-byte read, not a decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceTask {
    Whole {
        parts: Vec<usize>,
    },
    Slice {
        part: usize,
        skip: usize,
        take: usize,
    },
}

/// Plan the reduce side from the map side's exact per-partition row counts:
/// split partitions above the configured skew threshold into near-mean row
/// ranges, coalesce runs of near-empty partitions (< ¼ of the mean) into
/// single tasks, and leave the rest one-task-per-partition.
///
/// The plan is a pure function of the committed map outputs and the cluster
/// config, computed once on the driver — a retried reduce task re-executes
/// *its* plan entry read-only, so a mid-stage worker loss can never
/// double-apply a split.
pub fn plan_reduce_tasks(config: &crate::ClusterConfig, rows: &[u64]) -> Vec<ReduceTask> {
    let num_out = rows.len();
    let total: u64 = rows.iter().sum();
    let mean = if num_out == 0 || total == 0 {
        0
    } else {
        ((total + num_out as u64 / 2) / num_out as u64).max(1)
    };
    if mean == 0 {
        return vec![ReduceTask::Whole {
            parts: (0..num_out).collect(),
        }];
    }
    let threshold = config.skew_threshold(mean as f64);
    // Cap the fan-out of one hot partition: more slices than task slots
    // only adds scheduling overhead.
    let max_slices = config.total_cores().clamp(2, 16);

    let mut plan: Vec<ReduceTask> = Vec::with_capacity(num_out);
    let mut pending: Vec<usize> = Vec::new(); // coalesce accumulator
    let mut pending_rows = 0u64;
    let flush = |pending: &mut Vec<usize>, pending_rows: &mut u64, plan: &mut Vec<ReduceTask>| {
        if !pending.is_empty() {
            plan.push(ReduceTask::Whole {
                parts: std::mem::take(pending),
            });
            *pending_rows = 0;
        }
    };

    for (j, &r) in rows.iter().enumerate() {
        if r > threshold {
            flush(&mut pending, &mut pending_rows, &mut plan);
            let slices = (r.div_ceil(mean) as usize).clamp(2, max_slices);
            let chunk = (r as usize).div_ceil(slices);
            let mut skip = 0usize;
            while skip < r as usize {
                let take = chunk.min(r as usize - skip);
                plan.push(ReduceTask::Slice {
                    part: j,
                    skip,
                    take,
                });
                skip += take;
            }
        } else if r * 4 < mean {
            pending.push(j);
            pending_rows += r;
            if pending_rows >= mean || pending.len() >= 8 {
                flush(&mut pending, &mut pending_rows, &mut plan);
            }
        } else {
            flush(&mut pending, &mut pending_rows, &mut plan);
            plan.push(ReduceTask::Whole { parts: vec![j] });
        }
    }
    flush(&mut pending, &mut pending_rows, &mut plan);
    plan
}

/// Adaptive [`exchange_rows`]: identical map side, but the reduce side runs
/// the split/coalesce plan of [`plan_reduce_tasks`] instead of rigidly one
/// task per output partition — no worker serializes behind one hot bucket,
/// and near-empty buckets stop costing a task dispatch each.
///
/// The returned outputs are **bit-identical** to [`exchange_rows`]'s:
/// slices of a split partition are decoded in row order and reassembled by
/// `skip` offset, and a coalesced task keeps one output `Vec` per
/// partition. Only the task decomposition changes.
///
/// Decisions are observable: `adaptive.splits` / `adaptive.coalesces`
/// counters and one `Operator` trace span per decision.
pub fn exchange_rows_adaptive(
    cluster: &Cluster,
    schema: &Arc<Schema>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
) -> Result<(Vec<Vec<Row>>, ExchangeStats), StageError> {
    exchange_rows_planned(cluster, schema, inputs, num_out, |rows| {
        plan_reduce_tasks(cluster.config(), rows)
    })
}

/// The body of both row exchanges: serialize on the map side, read exact
/// per-partition statistics off the committed blocks, let `plan_reduce`
/// turn the row counts into reduce tasks, decode, and reassemble.
fn exchange_rows_planned(
    cluster: &Cluster,
    schema: &Arc<Schema>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
    plan_reduce: impl FnOnce(&[u64]) -> Vec<ReduceTask>,
) -> Result<(Vec<Vec<Row>>, ExchangeStats), StageError> {
    assert!(num_out > 0);
    let start = Instant::now();
    let codec = Arc::new(ShuffleCodec::new(Arc::clone(schema)));
    let num_in = inputs.len();

    // Map side: one encode task per input partition. The source rows die
    // with the stage; only the packed blocks (`blocks[map][reduce]`)
    // travel on.
    let inputs = Arc::new(inputs);
    let map_codec = Arc::clone(&codec);
    let blocks: Arc<Vec<Vec<Vec<u8>>>> =
        Arc::new(cluster.run_stage_partitions(num_in, move |ctx| {
            map_codec.encode_buckets(&inputs[ctx.partition], num_out)
        })?);

    // The free statistics pass: exact per-partition rows and bytes from the
    // committed block headers/lengths — no extra cluster stage.
    let mut stats = ExchangeStats {
        per_partition_rows: vec![0; num_out],
        per_partition_bytes: vec![0; num_out],
    };
    for map_out in blocks.iter() {
        for (j, block) in map_out.iter().enumerate() {
            stats.per_partition_rows[j] += codec.block_rows(block) as u64;
            stats.per_partition_bytes[j] += block.len() as u64;
        }
    }

    let plan = plan_reduce(&stats.per_partition_rows);
    record_reduce_plan_decisions(cluster, &plan, &stats);

    // Reduce side: one task per plan entry, each decoding a list of
    // `(part, skip, take)` row ranges — a whole partition is the range
    // `(j, 0, rows[j])`. `ctx.partition` carries the plan index; locality
    // follows the entry's first partition. Tasks are dispatched
    // heaviest-first (longest-processing-time order) so a hot partition's
    // work starts immediately. Tasks only read the shared blocks, and the
    // plan was fixed above from committed map outputs, so a retried
    // attempt re-decodes the same ranges.
    let ranges: Vec<Vec<(usize, usize, usize)>> = plan
        .iter()
        .map(|task| match task {
            ReduceTask::Whole { parts } => parts
                .iter()
                .map(|&j| (j, 0, stats.per_partition_rows[j] as usize))
                .collect(),
            ReduceTask::Slice { part, skip, take } => vec![(*part, *skip, *take)],
        })
        .collect();
    let mut specs: Vec<TaskSpec> = ranges
        .iter()
        .enumerate()
        .map(|(i, r)| TaskSpec {
            partition: i,
            preferred_worker: Some(cluster.worker_for_partition(r[0].0)),
        })
        .collect();
    let weight = |i: usize| -> usize { ranges[i].iter().map(|&(_, _, take)| take).sum() };
    // Stable: equal weights keep plan order.
    specs.sort_by_key(|spec| std::cmp::Reverse(weight(spec.partition)));
    let ranges = Arc::new(ranges);
    let pieces: Vec<Vec<(usize, usize, Vec<Row>)>> = cluster.run_stage(&specs, move |ctx| {
        ranges[ctx.partition]
            .iter()
            .map(|&(part, skip, take)| {
                let mut out = Vec::with_capacity(take);
                decode_slice(&codec, &blocks, part, skip, take, &mut out);
                (part, skip, out)
            })
            .collect()
    })?;

    // Reassemble: pieces of each partition ordered by row offset — the
    // concatenation is the partition's map-order row stream.
    let mut per_part: Vec<Vec<(usize, Vec<Row>)>> = (0..num_out).map(|_| Vec::new()).collect();
    for (part, skip, rows) in pieces.into_iter().flatten() {
        per_part[part].push((skip, rows));
    }
    let outputs: Vec<Vec<Row>> = per_part
        .into_iter()
        .zip(&stats.per_partition_rows)
        .map(|(mut part, &total)| {
            part.sort_by_key(|(skip, _)| *skip);
            let mut part = part.into_iter().map(|(_, rows)| rows);
            let mut out = part.next().unwrap_or_default();
            out.reserve(total as usize - out.len());
            for rows in part {
                out.extend(rows);
            }
            out
        })
        .collect();

    cluster
        .registry()
        .counter("shuffle.blocks")
        .add((num_in * num_out) as u64);
    record_exchange(
        cluster,
        start,
        &stats.per_partition_rows,
        &stats.per_partition_bytes,
    );
    Ok((outputs, stats))
}

/// Decode rows `[skip, skip + take)` of partition `part`'s concatenated
/// map-order stream. Whole blocks before the range are skipped by header
/// count; a partial block prefix is skipped row-by-row via the length
/// prefixes ([`BlockReader::skip_rows`]) without decoding.
fn decode_slice(
    codec: &ShuffleCodec,
    blocks: &[Vec<Vec<u8>>],
    part: usize,
    mut skip: usize,
    mut take: usize,
    out: &mut Vec<Row>,
) {
    for map_out in blocks {
        if take == 0 {
            return;
        }
        let block = &map_out[part];
        let n = codec.block_rows(block);
        if skip >= n {
            skip -= n;
            continue;
        }
        let mut reader = BlockReader::new(codec.schema(), block)
            .unwrap_or_else(|e| panic!("shuffle codec: corrupt block header: {e}"));
        reader
            .skip_rows(skip)
            .unwrap_or_else(|e| panic!("shuffle codec: corrupt block: {e}"));
        skip = 0;
        for row in reader {
            out.push(row.unwrap_or_else(|e| panic!("shuffle codec: corrupt block: {e}")));
            take -= 1;
            if take == 0 {
                break;
            }
        }
    }
}

/// Emit the counters and per-decision trace spans for one adaptive reduce
/// plan: one `adaptive.split[...]` span per split partition and one
/// `adaptive.coalesce[...]` span per multi-partition task.
fn record_reduce_plan_decisions(cluster: &Cluster, plan: &[ReduceTask], stats: &ExchangeStats) {
    let reg = cluster.registry();
    let trace = cluster.trace();
    let parent = trace.current_parent();
    let mut split_parts: Vec<usize> = Vec::new();
    for task in plan {
        match task {
            ReduceTask::Slice { part, .. } => {
                if split_parts.last() != Some(part) {
                    split_parts.push(*part);
                }
            }
            ReduceTask::Whole { parts } if parts.len() > 1 => {
                reg.counter("adaptive.coalesces").inc();
                trace.record(|| SpanRecord {
                    id: trace.next_span_id(),
                    parent,
                    kind: SpanKind::Operator,
                    name: format!(
                        "adaptive.coalesce[parts={parts:?} rows={}]",
                        parts
                            .iter()
                            .map(|&j| stats.per_partition_rows[j])
                            .sum::<u64>()
                    ),
                    start_us: trace.now_us(),
                    dur_us: 0,
                    worker: -1,
                    partition: parts[0] as i64,
                });
            }
            ReduceTask::Whole { .. } => {}
        }
    }
    for part in split_parts {
        reg.counter("adaptive.splits").inc();
        let slices = plan
            .iter()
            .filter(|t| matches!(t, ReduceTask::Slice { part: p, .. } if *p == part))
            .count();
        trace.record(|| SpanRecord {
            id: trace.next_span_id(),
            parent,
            kind: SpanKind::Operator,
            name: format!(
                "adaptive.split[part={part} rows={} slices={slices}]",
                stats.per_partition_rows[part]
            ),
            start_us: trace.now_us(),
            dur_us: 0,
            worker: -1,
            partition: part as i64,
        });
    }
}

/// Record broadcast traffic for `unique_bytes` materialized once and
/// handed to `copies` workers. Operators broadcast their own structures
/// (the broadcast-hash join's build table, the indexed join's probe rows)
/// as one `Arc` shared by every worker's tasks — the memory behaviour of
/// Spark's torrent broadcast after all chunks arrive — and call this to
/// account for it: `broadcast.copies` and `broadcast.bytes` count one
/// payload of wire traffic *per alive worker* (each worker fetches the
/// value once), while `broadcast.unique_bytes` records the deduplicated
/// in-memory footprint.
///
/// Besides the cumulative traffic counters, the broadcast is registered in
/// the memory governor's *live* ledger, refcounted on the workers that
/// actually hold a copy. The cumulative counters never decrease (they are
/// traffic, not occupancy); the ledger is what [`Cluster::kill_worker`]
/// reconciles so `broadcast.live_{copies,bytes}` drop when the copies die
/// with their worker instead of drifting upward forever.
pub fn account_broadcast(cluster: &Cluster, unique_bytes: u64, copies: u64) {
    let reg = cluster.registry();
    reg.counter("broadcast.bytes").add(unique_bytes * copies);
    reg.counter("broadcast.unique_bytes").add(unique_bytes);
    reg.counter("broadcast.copies").add(copies);
    // Every caller hands one copy to each currently-alive worker (the
    // `copies` count and this list can differ only under a concurrent
    // kill, in which case the kill's reconcile pass fixes the ledger).
    let holders = cluster.alive_workers();
    cluster.memory().register_broadcast(unique_bytes, &holders);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use rowstore::{DataType, Field};

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for n in [1usize, 3, 7, 16, 64] {
            for h in [0u64, 1, u64::MAX, 0xdeadbeef, 42] {
                let p = partition_of(h, n);
                assert!(p < n);
                assert_eq!(p, partition_of(h, n));
            }
        }
    }

    #[test]
    fn partition_of_spreads_hashes() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..10_000u64 {
            let h = rowstore::Value::Int64(i as i64).key_hash();
            counts[partition_of(h, n)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 500, "partition {i} underfilled: {c}");
        }
    }

    #[test]
    fn exchange_outputs_are_presized() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![(0..1000).map(|k| keyed_row(k, "x")).collect()];
        let out = exchange_rows(&c, &wire_schema(), inputs, 4).unwrap();
        for p in &out {
            assert_eq!(
                p.capacity(),
                p.len(),
                "block headers must pre-size each output exactly"
            );
        }
    }

    #[test]
    fn exchange_single_output() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![
            vec![keyed_row(1, "a"), keyed_row(2, "b")],
            vec![keyed_row(3, "c")],
        ];
        let out = exchange_rows(&c, &wire_schema(), inputs, 1).unwrap();
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn skew_detected_even_on_tiny_exchanges() {
        // Regression: with a truncating mean, 4 bytes over 8 partitions gave
        // mean = 4/8 = 0 and the `mean > 0` guard silently disabled skew
        // detection. The rounded mean (floor 1) flags the hot partition.
        let c = Cluster::new(ClusterConfig::test_small());
        let hot = [4, 0, 0, 0, 0, 0, 0, 0];
        record_exchange(&c, Instant::now(), &hot, &hot);
        assert_eq!(c.registry().counter_value("shuffle.skewed_partitions"), 1);

        // The same shape through a real exchange: four rows of one hot key
        // into eight partitions.
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![(0..4).map(|_| keyed_row(42, "")).collect()];
        exchange_rows(&c, &wire_schema(), inputs, 8).unwrap();
        assert_eq!(
            c.registry().counter_value("shuffle.skewed_partitions"),
            1,
            "the hot partition must be flagged"
        );
    }

    /// One row over [`wire_schema`], keyed by the hash of `k`.
    fn keyed_row(k: i64, tag: &str) -> (u64, Row) {
        let row: Row = vec![Value::Int64(k), Value::Utf8(tag.into()), Value::Null];
        (Value::Int64(k).key_hash(), row)
    }

    fn wire_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
            Field::nullable("opt", DataType::Int64),
        ])
    }

    #[test]
    fn exchange_rows_roundtrips_and_accounts_exact_bytes() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let inputs: Vec<Vec<(u64, Row)>> = (0..3)
            .map(|p| {
                (0..100i64)
                    .map(|i| {
                        let row: Row = vec![
                            Value::Int64(i),
                            Value::Utf8(format!("p{p}-{i}")),
                            if i % 3 == 0 {
                                Value::Null
                            } else {
                                Value::Int64(p)
                            },
                        ];
                        (Value::Int64(i).key_hash(), row)
                    })
                    .collect()
            })
            .collect();
        let mut expected: Vec<Row> = inputs
            .iter()
            .flat_map(|p| p.iter().map(|(_, r)| r.clone()))
            .collect();
        let out = exchange_rows(&c, &schema, inputs, 4).unwrap();
        // Keys co-located: every key's 3 copies land in one partition.
        for i in 0..100i64 {
            let p = partition_of(Value::Int64(i).key_hash(), 4);
            let n = out[p].iter().filter(|r| r[0] == Value::Int64(i)).count();
            assert_eq!(n, 3, "key {i} not co-located");
        }
        let mut delivered: Vec<Row> = out.into_iter().flatten().collect();
        let fmt = |r: &Row| format!("{r:?}");
        delivered.sort_by_key(fmt);
        expected.sort_by_key(fmt);
        assert_eq!(delivered, expected);

        let r = c.registry();
        assert_eq!(r.counter_value("shuffle.exchanges"), 1);
        assert_eq!(r.counter_value("shuffle.rows"), 300);
        assert!(r.counter_value("phase.shuffle_ns") > 0);
        // Exact wire accounting: 12 blocks (3 maps × 4 reducers), each with
        // a 4-byte header, plus a 4-byte length prefix per row.
        assert_eq!(r.counter_value("shuffle.blocks"), 12);
        let bytes = r.counter_value("shuffle.bytes");
        assert!(bytes > 300 * 4, "length prefixes alone exceed this");
        let h = r.histogram_snapshot("shuffle.partition_bytes").unwrap();
        assert_eq!(h.count, 4, "one sample per output partition");
        assert_eq!(h.sum, bytes);
    }

    #[test]
    fn exchange_rows_panics_on_schema_mismatch_surface_as_stage_error() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let bad_row: Row = vec![Value::Utf8("not an int".into()), Value::Int64(1)];
        let inputs: Vec<Vec<(u64, Row)>> = vec![vec![(7, bad_row)]];
        let err = exchange_rows(&c, &schema, inputs, 2).unwrap_err();
        assert!(matches!(err, StageError::TaskFailed { .. }));
    }

    #[test]
    fn account_broadcast_charges_each_alive_worker_once() {
        let c = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        c.kill_worker(1);
        account_broadcast(&c, 4, c.alive_workers().len() as u64);
        // Copies-vs-bytes distinction: wire traffic per worker, memory once.
        let r = c.registry();
        assert_eq!(r.counter_value("broadcast.copies"), 2);
        assert_eq!(r.counter_value("broadcast.bytes"), 8); // 4 bytes × 2 workers
        assert_eq!(r.counter_value("broadcast.unique_bytes"), 4);
        assert_eq!(
            c.memory().broadcast_live(),
            (2, 8),
            "the dead worker holds no copy"
        );
    }

    #[test]
    fn broadcast_ledger_reconciled_on_worker_death() {
        // Regression: broadcast occupancy accounting was append-only — a
        // worker dying with its refcounted copy left broadcast.unique_bytes
        // and broadcast.copies permanently inflated. The live ledger must
        // shrink on kill while the cumulative traffic counters stay put.
        let c = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        account_broadcast(&c, 100, 3);
        assert_eq!(c.memory().broadcast_live(), (3, 300));
        let r = c.registry();
        assert_eq!(r.gauge_value("broadcast.live_copies"), 3);
        assert_eq!(r.gauge_value("broadcast.live_bytes"), 300);
        c.kill_worker(2);
        assert_eq!(
            c.memory().broadcast_live(),
            (2, 200),
            "the dead worker's copy must leave the live ledger"
        );
        assert_eq!(r.gauge_value("broadcast.live_copies"), 2);
        assert_eq!(r.gauge_value("broadcast.live_bytes"), 200);
        assert_eq!(r.counter_value("broadcast.reclaimed_copies"), 1);
        assert_eq!(r.counter_value("broadcast.reclaimed_bytes"), 100);
        // Cumulative traffic is history, not occupancy: unchanged by death.
        assert_eq!(r.counter_value("broadcast.copies"), 3);
        assert_eq!(r.counter_value("broadcast.unique_bytes"), 100);
        // A second kill of the same worker must not double-reclaim.
        c.kill_worker(2);
        assert_eq!(r.counter_value("broadcast.reclaimed_copies"), 1);
    }

    #[test]
    fn row_bytes_accounts_strings() {
        let row: Row = vec![Value::Int64(1), Value::Utf8("abcde".into())];
        assert_eq!(row_bytes(&row), 8 + 8 + 5);
    }

    #[test]
    fn reduce_plan_splits_hot_and_coalesces_empty() {
        let config = ClusterConfig::test_small(); // skew_ratio 2.0, 4 cores
                                                  // Partition 1 is hot (mean = round(1040/8) = 130, threshold 260);
                                                  // partitions 4..8 are near-empty (< mean/4).
        let rows = vec![100, 800, 100, 20, 5, 5, 5, 5];
        let plan = plan_reduce_tasks(&config, &rows);
        let slices: Vec<_> = plan
            .iter()
            .filter(|t| matches!(t, ReduceTask::Slice { part: 1, .. }))
            .collect();
        assert!(slices.len() >= 2, "hot partition must split: {plan:?}");
        let covered: usize = slices
            .iter()
            .map(|t| match t {
                ReduceTask::Slice { take, .. } => *take,
                _ => 0,
            })
            .sum();
        assert_eq!(covered, 800, "slices must cover every row exactly once");
        assert!(
            plan.iter()
                .any(|t| matches!(t, ReduceTask::Whole { parts } if parts.len() > 1)),
            "near-empty partitions must coalesce: {plan:?}"
        );
        // Every partition appears exactly once across Whole tasks.
        let mut whole_parts: Vec<usize> = plan
            .iter()
            .flat_map(|t| match t {
                ReduceTask::Whole { parts } => parts.clone(),
                _ => vec![],
            })
            .collect();
        whole_parts.sort_unstable();
        assert_eq!(whole_parts, vec![0, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn reduce_plan_uniform_input_is_one_task_per_partition() {
        let config = ClusterConfig::test_small();
        let rows = vec![100u64; 8];
        let plan = plan_reduce_tasks(&config, &rows);
        assert_eq!(plan.len(), 8);
        assert!(plan
            .iter()
            .all(|t| matches!(t, ReduceTask::Whole { parts } if parts.len() == 1)));
    }

    fn skewed_row_inputs(maps: usize, rows_per_map: i64) -> Vec<Vec<(u64, Row)>> {
        // ~70% of rows share one hot key; the rest spread uniformly.
        let hot = Value::Int64(42).key_hash();
        (0..maps)
            .map(|p| {
                (0..rows_per_map)
                    .map(|i| {
                        let (h, k) = if i % 10 < 7 {
                            (hot, 42)
                        } else {
                            let k = i * maps as i64 + p as i64;
                            (Value::Int64(k).key_hash(), k)
                        };
                        let row: Row = vec![
                            Value::Int64(k),
                            Value::Utf8(format!("p{p}-{i}")),
                            if i % 3 == 0 {
                                Value::Null
                            } else {
                                Value::Int64(i)
                            },
                        ];
                        (h, row)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn adaptive_exchange_is_bit_identical_to_static() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let inputs = skewed_row_inputs(3, 400);
        let static_out = exchange_rows(&c, &schema, inputs.clone(), 4).unwrap();
        // The static exchange runs the identity plan: no split, no coalesce.
        assert_eq!(c.registry().counter_value("adaptive.splits"), 0);
        assert_eq!(c.registry().counter_value("adaptive.coalesces"), 0);
        let (adaptive_out, stats) = exchange_rows_adaptive(&c, &schema, inputs, 4).unwrap();
        // Ordered equality, not multiset: the reassembled slices must
        // reproduce the exact static row order in every partition.
        assert_eq!(adaptive_out, static_out);
        assert_eq!(stats.total_rows(), 1200);
        assert!(
            c.registry().counter_value("adaptive.splits") >= 1,
            "the hot partition must have split"
        );
        let spans = c.trace().spans();
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Operator && s.name.starts_with("adaptive.split[")),
            "split decisions must be traced"
        );
    }

    #[test]
    fn adaptive_exchange_coalesces_near_empty_partitions() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        // One dominant key into many output partitions → most buckets hold
        // nearly nothing and must coalesce. 96% of rows share the hot key.
        let hot = Value::Int64(42).key_hash();
        let inputs: Vec<Vec<(u64, Row)>> = (0..2)
            .map(|p: i64| {
                (0..500i64)
                    .map(|i| {
                        let (h, k) = if i % 25 != 0 {
                            (hot, 42)
                        } else {
                            let k = i * 2 + p;
                            (Value::Int64(k).key_hash(), k)
                        };
                        let row: Row = vec![
                            Value::Int64(k),
                            Value::Utf8(format!("p{p}-{i}")),
                            Value::Null,
                        ];
                        (h, row)
                    })
                    .collect()
            })
            .collect();
        let static_out = exchange_rows(&c, &schema, inputs.clone(), 16).unwrap();
        let (adaptive_out, _) = exchange_rows_adaptive(&c, &schema, inputs, 16).unwrap();
        assert_eq!(adaptive_out, static_out);
        assert!(
            c.registry().counter_value("adaptive.coalesces") >= 1,
            "near-empty buckets must coalesce"
        );
    }

    #[test]
    fn adaptive_exchange_survives_mid_stage_worker_kill() {
        // A worker dies while the split reduce plan runs. Retries re-execute
        // the same plan entries read-only — the output must stay *ordered*
        // identical to the static exchange, proving a split is never
        // double-applied.
        for attempt in 0..3 {
            let c = Cluster::new(ClusterConfig {
                workers: 3,
                executors_per_worker: 2,
                cores_per_executor: 2,
                max_task_attempts: 6,
                skew_ratio: 2.0,
            });
            let schema = wire_schema();
            let inputs = skewed_row_inputs(6, 500);
            let reference = exchange_rows(&c, &schema, inputs.clone(), 4).unwrap();
            let killer = c.clone();
            let chaos = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2 + attempt));
                killer.kill_worker(1);
            });
            let (out, _) = exchange_rows_adaptive(&c, &schema, inputs, 4).unwrap();
            chaos.join().unwrap();
            assert_eq!(out, reference, "attempt {attempt}");
        }
    }

    #[test]
    fn skew_ratio_is_configurable() {
        // With a huge ratio nothing is skewed and nothing splits.
        let c = Cluster::new(ClusterConfig {
            skew_ratio: 1000.0,
            ..ClusterConfig::test_small()
        });
        let schema = wire_schema();
        let inputs = skewed_row_inputs(3, 400);
        exchange_rows_adaptive(&c, &schema, inputs, 4).unwrap();
        assert_eq!(c.registry().counter_value("shuffle.skewed_partitions"), 0);
        assert_eq!(c.registry().counter_value("adaptive.splits"), 0);
    }

    #[test]
    fn max_partition_rows_gauge_tracks_hottest_bucket() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![(0..50).map(|_| keyed_row(7, "hot")).collect()];
        exchange_rows(&c, &wire_schema(), inputs, 4).unwrap();
        assert_eq!(
            c.registry().gauge_value("shuffle.max_partition_rows"),
            50,
            "all 50 rows land in one bucket"
        );
    }
}
