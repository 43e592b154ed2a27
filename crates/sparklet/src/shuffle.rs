//! Shuffle: hash-partitioned data exchange between partitions.
//!
//! The paper's Indexed DataFrame is hash partitioned on the index column;
//! index creation, appends and indexed joins all shuffle rows to the
//! partition responsible for their key (§III-C). Fig. 10 shows append time
//! is dominated by exactly this shuffle, so this layer is built to move
//! data without copying it:
//!
//! * [`exchange`] is **move-based**: a read-only counting stage sizes every
//!   destination, then the driver drains the owned inputs into pre-sized
//!   outputs — each item is moved exactly once and never cloned (the
//!   signature has no `Clone` bound, so the compiler enforces it).
//! * [`exchange_rows`] is the **serialized wire path** for `Row` streams:
//!   the map side packs rows into length-prefixed binary blocks (the
//!   `rowstore` codec), the reduce side decodes bucket `j` of every map
//!   output. Bytes are accounted *exactly* from block lengths, and
//!   allocation is amortized into one buffer per (map, reduce) pair.
//! * [`broadcast`] materializes **one** copy and refcounts it per alive
//!   worker (torrent-broadcast dedup) instead of deep-copying per worker.
//!
//! Retry safety: cluster stages may re-run a task after a panic or a
//! mid-stage worker loss, so no stage task ever consumes its input. Both
//! exchange variants snapshot their inputs behind an `Arc` and run only
//! *read-only* work (counting / serializing / deserializing) on the
//! cluster; a retried attempt therefore re-produces identical tallies or
//! byte-identical blocks. The destructive hand-off — moving items into
//! their output partitions — happens exactly once, after the stage has
//! committed, when the snapshot is sole-owned again.

use crate::cluster::{Cluster, StageError, TaskSpec};
use crate::metrics::{SpanKind, SpanRecord};
use rowstore::{BlockReader, BlockWriter, Row, Schema, Value};
use std::sync::Arc;
use std::time::Instant;

/// Items that can cross the simulated network (for byte accounting).
pub trait ShuffleItem: Send + 'static {
    fn approx_bytes(&self) -> usize;
}

impl ShuffleItem for Vec<u8> {
    fn approx_bytes(&self) -> usize {
        self.len()
    }
}

impl ShuffleItem for Row {
    fn approx_bytes(&self) -> usize {
        self.iter()
            .map(|v| match v {
                Value::Utf8(s) => 8 + s.len(),
                _ => 8,
            })
            .sum()
    }
}

impl<T: ShuffleItem> ShuffleItem for (u64, T) {
    fn approx_bytes(&self) -> usize {
        8 + self.1.approx_bytes()
    }
}

/// Deterministically map a key hash to an output partition.
#[inline]
pub fn partition_of(key_hash: u64, num_partitions: usize) -> usize {
    // Multiply-shift avoids the pathologies of `hash % n` for power-of-two n
    // combined with low-entropy hashes.
    ((key_hash as u128 * num_partitions as u128) >> 64) as usize
}

/// Reclaim sole ownership of a stage-input snapshot after its stage
/// completed. The stage driver observes the final task's *result* a few
/// instructions before the task closure (holding the other `Arc` clone)
/// finishes dropping, so ownership can be contended very briefly — spin
/// with `yield_now` instead of falling back to a copy.
fn unwrap_unique<T>(mut shared: Arc<T>) -> T {
    loop {
        match Arc::try_unwrap(shared) {
            Ok(v) => return v,
            Err(still_shared) => {
                shared = still_shared;
                std::thread::yield_now();
            }
        }
    }
}

/// Per-partition observations from one exchange's counting stage — the
/// "free statistics pass" that adaptive execution feeds on. Rows and bytes
/// are exact (block headers / block lengths on the wire path, counting
/// tallies on the move path), not estimates.
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

/// Shared metric/skew accounting for every exchange flavor.
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

/// Hash-partition each input partition's `(key_hash, item)` pairs into
/// `num_out` output partitions and exchange them — **without cloning a
/// single item** (note the missing `Clone` bound).
///
/// The map side runs as one read-only cluster task per input partition: a
/// counting pass over the key hashes that sizes every destination bucket
/// and accounts its bytes. Because the tasks only read the snapshot, a
/// retried attempt (after a task panic or mid-stage worker loss)
/// re-produces the same tallies. Once the stage commits, the driver drains
/// the owned inputs into pre-sized outputs: one pointer-sized move per
/// item — the simulated network transfer. Output partition `j` holds input
/// partition 0's items for `j` (in input order), then input partition 1's,
/// and so on; the intra-partition order is deterministic.
///
/// Returns `num_out` vectors, or the [`StageError`] of the counting stage.
pub fn exchange<T: ShuffleItem + Sync>(
    cluster: &Cluster,
    inputs: Vec<Vec<(u64, T)>>,
    num_out: usize,
) -> Result<Vec<Vec<T>>, StageError> {
    assert!(num_out > 0);
    let start = Instant::now();
    let num_in = inputs.len();
    let inputs = Arc::new(inputs);

    // Map side: count rows and bytes per destination, in parallel on the
    // cluster. Read-only → safe to re-run on retry.
    let inputs_for_tasks = Arc::clone(&inputs);
    let tallies: Vec<(Vec<usize>, Vec<u64>)> =
        cluster.run_stage_partitions(num_in, move |ctx| {
            let mut counts = vec![0usize; num_out];
            let mut bytes = vec![0u64; num_out];
            for (h, item) in &inputs_for_tasks[ctx.partition] {
                let j = partition_of(*h, num_out);
                counts[j] += 1;
                bytes[j] += item.approx_bytes() as u64;
            }
            (counts, bytes)
        })?;

    let mut per_partition_bytes = vec![0u64; num_out];
    let mut per_partition_rows = vec![0u64; num_out];
    let mut outputs: Vec<Vec<T>> = (0..num_out)
        .map(|j| {
            let c: usize = tallies.iter().map(|(counts, _)| counts[j]).sum();
            per_partition_rows[j] = c as u64;
            Vec::with_capacity(c)
        })
        .collect();
    for (j, b) in per_partition_bytes.iter_mut().enumerate() {
        *b = tallies.iter().map(|(_, bytes)| bytes[j]).sum();
    }

    // The "network": reclaim the snapshot (every map closure has finished)
    // and move each item straight into its pre-sized destination.
    for part in unwrap_unique(inputs) {
        for (h, item) in part {
            outputs[partition_of(h, num_out)].push(item);
        }
    }

    record_exchange(cluster, start, &per_partition_rows, &per_partition_bytes);
    Ok(outputs)
}

/// The pre-zero-copy reference exchange: map tasks clone every item into
/// buckets, reduce tasks clone every bucket into outputs. Kept as the
/// regression baseline for the shuffle throughput bench (`figures --
/// shuffle`) and the clone-counting tests; production call sites use
/// [`exchange`] or [`exchange_rows`].
pub fn exchange_cloning<T: ShuffleItem + Clone + Sync>(
    cluster: &Cluster,
    inputs: Vec<Vec<(u64, T)>>,
    num_out: usize,
) -> Result<Vec<Vec<T>>, StageError> {
    assert!(num_out > 0);
    let start = Instant::now();
    let inputs = Arc::new(inputs);

    let inputs_for_tasks = Arc::clone(&inputs);
    let buckets: Vec<Vec<Vec<T>>> = cluster.run_stage_partitions(inputs.len(), move |ctx| {
        let mut out: Vec<Vec<T>> = (0..num_out).map(|_| Vec::new()).collect();
        for (h, item) in &inputs_for_tasks[ctx.partition] {
            out[partition_of(*h, num_out)].push(item.clone());
        }
        out
    })?;

    let buckets = Arc::new(buckets);
    let regrouped: Vec<(Vec<T>, u64, u64)> = cluster.run_stage_partitions(num_out, move |ctx| {
        let mut out: Vec<T> = Vec::new();
        let mut rows = 0u64;
        let mut bytes = 0u64;
        for map_out in buckets.iter() {
            let bucket = &map_out[ctx.partition];
            rows += bucket.len() as u64;
            bytes += bucket.iter().map(|i| i.approx_bytes() as u64).sum::<u64>();
            out.extend(bucket.iter().cloned());
        }
        (out, rows, bytes)
    })?;

    let mut outputs: Vec<Vec<T>> = Vec::with_capacity(num_out);
    let mut per_partition_rows: Vec<u64> = Vec::with_capacity(num_out);
    let mut per_partition_bytes: Vec<u64> = Vec::with_capacity(num_out);
    for (out, r, b) in regrouped {
        per_partition_rows.push(r);
        per_partition_bytes.push(b);
        outputs.push(out);
    }
    record_exchange(cluster, start, &per_partition_rows, &per_partition_bytes);
    Ok(outputs)
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

    /// Decode every row of a block, appending to `out`.
    pub fn decode_into(&self, block: &[u8], out: &mut Vec<Row>) {
        let reader = BlockReader::new(&self.schema, block)
            .unwrap_or_else(|e| panic!("shuffle codec: corrupt block header: {e}"));
        for row in reader {
            out.push(row.unwrap_or_else(|e| panic!("shuffle codec: corrupt block: {e}")));
        }
    }
}

/// Hash-partition `Row` streams through the serialized wire format.
///
/// Map side (one cluster task per input partition): pack each partition's
/// rows into `num_out` length-prefixed blocks. Reduce side (one cluster
/// task per output partition): decode block `j` of every map output into a
/// vector pre-sized from the block headers. Both sides only *read* their
/// `Arc` snapshot (serialization and deserialization are pure), so a task
/// retried after a panic or mid-stage worker loss re-produces
/// byte-identical blocks / row-identical outputs, and the source rows are
/// freed as soon as the map stage commits — only packed bytes cross the
/// stage boundary.
///
/// Output partition `j` holds map partition 0's rows for `j` (in input
/// order), then map partition 1's, and so on.
pub fn exchange_rows(
    cluster: &Cluster,
    schema: &Arc<Schema>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
) -> Result<Vec<Vec<Row>>, StageError> {
    exchange_rows_stats(cluster, schema, inputs, num_out).map(|(out, _)| out)
}

/// [`exchange_rows`] that also returns the per-partition row/byte
/// [`ExchangeStats`] the counting stage produced — the statistics are free
/// (the map side already wrote exact row counts and block lengths into the
/// wire headers), so consumers that want to *act* on them (adaptive join
/// operators, skew-aware index builds) pay nothing extra.
pub fn exchange_rows_stats(
    cluster: &Cluster,
    schema: &Arc<Schema>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
) -> Result<(Vec<Vec<Row>>, ExchangeStats), StageError> {
    assert!(num_out > 0);
    let start = Instant::now();
    let codec = Arc::new(ShuffleCodec::new(Arc::clone(schema)));
    let (blocks, num_in) = map_side_blocks(cluster, &codec, inputs, num_out)?;

    // Reduce side: decode bucket j of every map output. Blocks are shared
    // read-only via Arc → retry-safe; bytes are exact block lengths.
    let blocks_for_tasks = Arc::clone(&blocks);
    let reduce_codec = Arc::clone(&codec);
    let regrouped: Vec<(Vec<Row>, u64, u64)> =
        cluster.run_stage_partitions(num_out, move |ctx| {
            let total_rows: usize = blocks_for_tasks
                .iter()
                .map(|m| reduce_codec.block_rows(&m[ctx.partition]))
                .sum();
            let mut out: Vec<Row> = Vec::with_capacity(total_rows);
            let mut bytes = 0u64;
            for map_out in blocks_for_tasks.iter() {
                let block = &map_out[ctx.partition];
                bytes += block.len() as u64;
                reduce_codec.decode_into(block, &mut out);
            }
            (out, total_rows as u64, bytes)
        })?;

    let mut outputs: Vec<Vec<Row>> = Vec::with_capacity(num_out);
    let mut stats = ExchangeStats::default();
    for (out, r, b) in regrouped {
        stats.per_partition_rows.push(r);
        stats.per_partition_bytes.push(b);
        outputs.push(out);
    }
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

/// The committed map side of a row exchange: one encoded block per
/// (map partition, reduce partition) pair, `Arc`-shared into reduce tasks.
type BlockMatrix = Arc<Vec<Vec<Vec<u8>>>>;

/// Run the serializing map side of a row exchange and return the committed
/// block matrix (`blocks[map][reduce]`). Shared by the static and adaptive
/// reduce paths; the source rows are freed as soon as the stage commits.
fn map_side_blocks(
    cluster: &Cluster,
    codec: &Arc<ShuffleCodec>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
) -> Result<(BlockMatrix, usize), StageError> {
    let num_in = inputs.len();
    let inputs = Arc::new(inputs);
    let inputs_for_tasks = Arc::clone(&inputs);
    let map_codec = Arc::clone(codec);
    let blocks: Vec<Vec<Vec<u8>>> = cluster.run_stage_partitions(num_in, move |ctx| {
        map_codec.encode_buckets(&inputs_for_tasks[ctx.partition], num_out)
    })?;
    // The source rows die here; only the packed blocks travel on.
    drop(inputs);
    Ok((Arc::new(blocks), num_in))
}

/// One task of an adaptive reduce plan.
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

/// Plan the reduce side from the counting stage's per-partition row counts:
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
    assert!(num_out > 0);
    let start = Instant::now();
    let codec = Arc::new(ShuffleCodec::new(Arc::clone(schema)));
    let (blocks, num_in) = map_side_blocks(cluster, &codec, inputs, num_out)?;

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

    let plan = plan_reduce_tasks(cluster.config(), &stats.per_partition_rows);
    record_reduce_plan_decisions(cluster, &plan, &stats);

    // Reduce side: one task per plan entry. Tasks only read the shared
    // block matrix → retry-safe; the plan itself was fixed above from
    // committed map outputs, so a retried attempt re-runs the same slice.
    // `ctx.partition` carries the plan index (the task body looks its
    // entry up); locality still follows the home partition's worker.
    // Dispatch is weighted — heaviest slices first — so the hot
    // partition's work starts immediately.
    let specs_idx: Vec<TaskSpec> = plan
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let home = match t {
                ReduceTask::Whole { parts } => parts[0],
                ReduceTask::Slice { part, .. } => *part,
            };
            TaskSpec {
                partition: i,
                preferred_worker: Some(cluster.worker_for_partition(home)),
            }
        })
        .collect();
    let weights: Vec<u64> = plan
        .iter()
        .map(|t| match t {
            ReduceTask::Whole { parts } => parts.iter().map(|&j| stats.per_partition_rows[j]).sum(),
            ReduceTask::Slice { take, .. } => *take as u64,
        })
        .collect();
    let plan_for_tasks: Arc<Vec<ReduceTask>> = Arc::new(plan.clone());

    let blocks_for_tasks = Arc::clone(&blocks);
    let reduce_codec = Arc::clone(&codec);
    let piece_results: Vec<Vec<(usize, usize, Vec<Row>)>> =
        cluster.run_stage_weighted(&specs_idx, &weights, move |ctx| {
            let task = &plan_for_tasks[ctx.partition];
            let mut pieces: Vec<(usize, usize, Vec<Row>)> = Vec::new();
            match task {
                ReduceTask::Whole { parts } => {
                    for &j in parts {
                        let total: usize = blocks_for_tasks
                            .iter()
                            .map(|m| reduce_codec.block_rows(&m[j]))
                            .sum();
                        let mut out = Vec::with_capacity(total);
                        for map_out in blocks_for_tasks.iter() {
                            reduce_codec.decode_into(&map_out[j], &mut out);
                        }
                        pieces.push((j, 0, out));
                    }
                }
                ReduceTask::Slice { part, skip, take } => {
                    let mut out = Vec::with_capacity(*take);
                    decode_slice(
                        &reduce_codec,
                        &blocks_for_tasks,
                        *part,
                        *skip,
                        *take,
                        &mut out,
                    );
                    pieces.push((*part, *skip, out));
                }
            }
            pieces
        })?;

    // Reassemble: pieces of each partition ordered by row offset — the
    // concatenation is byte-for-byte what the static reduce would produce.
    let mut per_part: Vec<Vec<(usize, Vec<Row>)>> = (0..num_out).map(|_| Vec::new()).collect();
    for pieces in piece_results {
        for (j, skip, rows) in pieces {
            per_part[j].push((skip, rows));
        }
    }
    let outputs: Vec<Vec<Row>> = per_part
        .into_iter()
        .enumerate()
        .map(|(j, mut pieces)| {
            pieces.sort_by_key(|(skip, _)| *skip);
            let mut out = Vec::with_capacity(stats.per_partition_rows[j] as usize);
            for (_, rows) in pieces {
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

/// Replicate `data` to every alive worker (a broadcast variable): **one**
/// materialized copy, refcounted per alive worker — the memory behaviour
/// of Spark's torrent broadcast after all chunks arrive, where workers
/// share the reassembled value instead of deep-copying it per reference.
/// Dead workers get `None` — never a silently empty copy a task could
/// mistake for real (empty) data.
///
/// Metrics keep the copies-vs-bytes distinction: `broadcast.copies` and
/// `broadcast.bytes` account one payload of wire traffic *per alive
/// worker* (each worker fetches the value over the network exactly once),
/// while `broadcast.unique_bytes` records the deduplicated in-memory
/// footprint.
pub fn broadcast<T: ShuffleItem>(cluster: &Cluster, data: Vec<T>) -> Vec<Option<Arc<Vec<T>>>> {
    let unique_bytes: u64 = data.iter().map(|i| i.approx_bytes() as u64).sum();
    let shared = Arc::new(data);
    let handles: Vec<Option<Arc<Vec<T>>>> = (0..cluster.num_workers())
        .map(|w| cluster.is_alive(w).then(|| Arc::clone(&shared)))
        .collect();
    let copies = handles.iter().flatten().count() as u64;
    account_broadcast(cluster, unique_bytes, copies);
    handles
}

/// Record broadcast traffic for `unique_bytes` materialized once and
/// handed to `copies` workers (shared by [`broadcast`] and the operators
/// that broadcast their own structures, e.g. the broadcast-hash join's
/// build table).
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
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

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
    fn exchange_groups_by_key() {
        let c = Cluster::new(ClusterConfig::test_small());
        let num_out = 4;
        // Two input partitions with interleaved keys.
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = vec![
            (0..100u64).map(|k| (k, vec![k as u8])).collect(),
            (0..100u64).map(|k| (k, vec![k as u8])).collect(),
        ];
        let out = exchange(&c, inputs, num_out).unwrap();
        assert_eq!(out.len(), num_out);
        assert_eq!(out.iter().map(|p| p.len()).sum::<usize>(), 200);
        // Same key must land in the same output partition from both inputs.
        for k in 0..100u64 {
            let p = partition_of(k, num_out);
            let count = out[p].iter().filter(|b| b[0] == k as u8).count();
            assert_eq!(count, 2, "key {k} not co-located");
        }
        let r = c.registry();
        let bytes = r.counter_value("shuffle.bytes");
        assert!(bytes >= 200);
        assert!(r.counter_value("phase.shuffle_ns") > 0);
        assert_eq!(r.counter_value("shuffle.exchanges"), 1);
        assert_eq!(r.counter_value("shuffle.rows"), 200);
        let h = r.histogram_snapshot("shuffle.partition_bytes").unwrap();
        assert_eq!(h.count, num_out as u64, "one sample per output partition");
        assert_eq!(h.sum, bytes);
    }

    #[test]
    fn exchange_outputs_are_presized() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = vec![(0..1000u64)
            .map(|k| (rowstore::Value::Int64(k as i64).key_hash(), vec![k as u8]))
            .collect()];
        let out = exchange(&c, inputs, 4).unwrap();
        for p in &out {
            assert_eq!(
                p.capacity(),
                p.len(),
                "counting pass must pre-size each bucket exactly"
            );
        }
    }

    #[test]
    fn exchange_single_output() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs: Vec<Vec<(u64, Vec<u8>)>> =
            vec![vec![(1, vec![1]), (2, vec![2])], vec![(3, vec![3])]];
        let out = exchange(&c, inputs, 1).unwrap();
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn exchange_survives_mid_stage_worker_kill() {
        // Kill a worker from inside a map task: the map attempts running
        // there are discarded as WorkerLost and retried on survivors, and
        // the exchange still delivers every input item exactly once.
        let c = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 2,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        let killer = c.clone();
        let chaos = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            killer.kill_worker(1);
        });
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = (0..6)
            .map(|p| {
                (0..2000u64)
                    .map(|k| (k * 7 + p, vec![p as u8, k as u8]))
                    .collect()
            })
            .collect();
        // Whether or not the kill lands inside the stage, the multiset of
        // delivered items must equal the input multiset.
        let out = exchange(&c, inputs.clone(), 4).unwrap();
        let mut delivered: Vec<Vec<u8>> = out.into_iter().flatten().collect();
        let mut expected: Vec<Vec<u8>> =
            inputs.into_iter().flatten().map(|(_, item)| item).collect();
        delivered.sort();
        expected.sort();
        assert_eq!(delivered, expected);
        chaos.join().unwrap();
    }

    /// An item whose clones are counted. The zero-copy exchange must never
    /// clone (its signature does not even admit it — this test pins the
    /// runtime behaviour too, via the cloning baseline as a positive
    /// control in the same test to avoid counter cross-talk).
    #[derive(Debug, PartialEq)]
    struct CloneCounter(u64);

    static CLONES: AtomicUsize = AtomicUsize::new(0);

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Relaxed);
            CloneCounter(self.0)
        }
    }

    impl ShuffleItem for CloneCounter {
        fn approx_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn exchange_performs_zero_clones() {
        let c = Cluster::new(ClusterConfig::test_small());
        let make_inputs = || -> Vec<Vec<(u64, CloneCounter)>> {
            (0..4)
                .map(|p| (0..500u64).map(|k| (k * 13 + p, CloneCounter(k))).collect())
                .collect()
        };

        CLONES.store(0, Relaxed);
        let out = exchange(&c, make_inputs(), 8).unwrap();
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 2000);
        assert_eq!(
            CLONES.load(Relaxed),
            0,
            "move-based exchange must not clone any item"
        );

        // Positive control: the cloning baseline really does clone, so the
        // counter instrument is live.
        let out = exchange_cloning(&c, make_inputs(), 8).unwrap();
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 2000);
        assert!(
            CLONES.load(Relaxed) >= 2 * 2000,
            "cloning baseline clones map-side and reduce-side"
        );
    }

    #[test]
    fn skew_detected_even_on_tiny_exchanges() {
        // Regression: with a truncating mean, 4 one-byte items into 8
        // partitions gave mean = 4/8 = 0 and the `mean > 0` guard silently
        // disabled skew detection. The rounded mean (floor 1) catches the
        // deliberately hot key below.
        let c = Cluster::new(ClusterConfig::test_small());
        let hot = rowstore::Value::Int64(42).key_hash();
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = vec![(0..4).map(|_| (hot, vec![0u8])).collect()];
        exchange(&c, inputs, 8).unwrap();
        assert_eq!(
            c.registry().counter_value("shuffle.skewed_partitions"),
            1,
            "the hot partition (4 bytes vs rounded mean 1) must be flagged"
        );
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
        assert_eq!(r.counter_value("shuffle.rows"), 300);
        // Exact wire accounting: 12 blocks (3 maps × 4 reducers), each with
        // a 4-byte header, plus a 4-byte length prefix per row.
        assert_eq!(r.counter_value("shuffle.blocks"), 12);
        assert!(
            r.counter_value("shuffle.bytes") > 300 * 4,
            "length prefixes alone exceed this"
        );
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
    fn broadcast_shares_one_copy_across_alive_workers() {
        let c = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        c.kill_worker(1);
        let copies = broadcast(&c, vec![vec![1u8, 2, 3], vec![4u8]]);
        assert_eq!(copies.len(), 3);
        assert_eq!(copies[0].as_ref().unwrap().len(), 2);
        assert!(copies[1].is_none(), "dead worker gets nothing");
        assert_eq!(copies[2].as_ref().unwrap().len(), 2);
        assert!(
            Arc::ptr_eq(copies[0].as_ref().unwrap(), copies[2].as_ref().unwrap()),
            "torrent dedup: every worker refs the same materialized value"
        );
        // Copies-vs-bytes distinction: wire traffic per worker, memory once.
        let r = c.registry();
        assert_eq!(r.counter_value("broadcast.copies"), 2);
        assert_eq!(r.counter_value("broadcast.bytes"), 8); // 4 bytes × 2 workers
        assert_eq!(r.counter_value("broadcast.unique_bytes"), 4);
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
        broadcast(&c, vec![vec![0u8; 100]]);
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
    fn row_shuffle_item_accounts_strings() {
        let row: Row = vec![Value::Int64(1), Value::Utf8("abcde".into())];
        assert_eq!(row.approx_bytes(), 8 + 8 + 5);
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
        let hot = Value::Int64(7).key_hash();
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = vec![(0..50).map(|_| (hot, vec![1u8])).collect()];
        exchange(&c, inputs, 4).unwrap();
        assert_eq!(
            c.registry().gauge_value("shuffle.max_partition_rows"),
            50,
            "all 50 rows land in one bucket"
        );
    }
}
