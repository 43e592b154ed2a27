//! Property-based tests of the shuffle exchange and scheduling invariants.

use proptest::prelude::*;
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{
    exchange_rows, exchange_rows_adaptive, partition_of, Cluster, ClusterConfig, ShuffleCodec,
    TaskSpec,
};
use std::sync::Arc;

/// Wire schema for the serialized-exchange properties: a key column, a
/// variable-length string and a nullable column.
fn wire_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("s", DataType::Utf8),
        Field::nullable("opt", DataType::Int64),
    ])
}

/// Strategy for one partition of keyed rows over [`wire_schema`], with
/// keys drawn from `keys`.
fn keyed_rows(
    max: usize,
    keys: impl Strategy<Value = i64>,
) -> impl Strategy<Value = Vec<(u64, Row)>> {
    proptest::collection::vec(
        (
            keys,
            "[a-zA-Z0-9 ]{0,12}",
            proptest::option::of(any::<i64>()),
        ),
        0..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(k, s, opt)| {
                let key = Value::Int64(k);
                let row: Row = vec![
                    key.clone(),
                    Value::Utf8(s),
                    opt.map(Value::Int64).unwrap_or(Value::Null),
                ];
                (key.key_hash(), row)
            })
            .collect()
    })
}

/// Keys where three rows in four share one hot key: skewed enough that the
/// adaptive exchange splits and coalesces reduce partitions.
fn hot_or_any_key() -> impl Strategy<Value = i64> {
    prop_oneof![3 => Just(7i64), 1 => any::<i64>()]
}

/// The exact expected output of `exchange_rows`: partition `j` holds map
/// partition 0's rows for `j` in input order, then map partition 1's, ...
fn reference_exchange(inputs: &[Vec<(u64, Row)>], num_out: usize) -> Vec<Vec<Row>> {
    let mut out: Vec<Vec<Row>> = (0..num_out).map(|_| Vec::new()).collect();
    for part in inputs {
        for (h, row) in part {
            out[partition_of(*h, num_out)].push(row.clone());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The adaptive exchange is a keyed permutation: no row lost, none
    /// duplicated, each in the partition its hash owns — and, whatever its
    /// split/coalesce plan, in exactly the reference order.
    #[test]
    fn exchange_is_a_keyed_permutation(
        inputs in proptest::collection::vec(keyed_rows(60, hot_or_any_key()), 1..6),
        num_out in 1usize..9,
    ) {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let expected = reference_exchange(&inputs, num_out);
        let total_in: u64 = inputs.iter().map(|p| p.len() as u64).sum();
        let (out, stats) =
            exchange_rows_adaptive(&cluster, &wire_schema(), inputs, num_out).unwrap();
        prop_assert_eq!(stats.total_rows(), total_in);
        prop_assert_eq!(out, expected);
    }

    /// The adaptive exchange stays exact even when a worker is killed while
    /// it runs: lost map and reduce attempts (slices included) are retried
    /// on survivors, and none is applied twice.
    #[test]
    fn exchange_preserves_multiset_under_worker_kill(
        inputs in proptest::collection::vec(keyed_rows(80, hot_or_any_key()), 1..6),
        num_out in 1usize..7,
        victim in 0usize..3,
        delay_us in 0u64..400,
    ) {
        let cluster = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        let expected = reference_exchange(&inputs, num_out);
        let killer = cluster.clone();
        let chaos = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            killer.kill_worker(victim);
        });
        let (out, _) = exchange_rows_adaptive(&cluster, &wire_schema(), inputs, num_out).unwrap();
        chaos.join().unwrap();
        prop_assert_eq!(out, expected);
    }

    /// The serialized exchange round-trips arbitrary rows exactly through
    /// the wire format: multiset equality is implied by something stronger —
    /// per-partition sequences match the deterministic reference (stable
    /// intra-partition order), and every row sits in the partition its key
    /// hash owns.
    #[test]
    fn serialized_exchange_roundtrips_rows_exactly(
        inputs in proptest::collection::vec(keyed_rows(40, any::<i64>()), 1..5),
        num_out in 1usize..9,
    ) {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let expected = reference_exchange(&inputs, num_out);
        let out = exchange_rows(&cluster, &schema, inputs, num_out).unwrap();
        prop_assert_eq!(out, expected);
    }

    /// Same exact round-trip, with a worker killed while the exchange runs:
    /// retried map attempts re-serialize byte-identical blocks from the
    /// snapshot, so even the per-partition row order is unchanged.
    #[test]
    fn serialized_exchange_exact_under_worker_kill(
        inputs in proptest::collection::vec(keyed_rows(60, any::<i64>()), 1..5),
        num_out in 1usize..7,
        victim in 0usize..3,
        delay_us in 0u64..400,
    ) {
        let cluster = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        let schema = wire_schema();
        let expected = reference_exchange(&inputs, num_out);
        let killer = cluster.clone();
        let chaos = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            killer.kill_worker(victim);
        });
        let out = exchange_rows(&cluster, &schema, inputs, num_out).unwrap();
        chaos.join().unwrap();
        prop_assert_eq!(out, expected);
    }

    /// partition_of spreads arbitrary u64 hashes into valid range and is a
    /// pure function.
    #[test]
    fn partition_of_pure_and_bounded(h in any::<u64>(), n in 1usize..1000) {
        let p = partition_of(h, n);
        prop_assert!(p < n);
        prop_assert_eq!(p, partition_of(h, n));
    }

    /// Scheduling always lands tasks on alive workers and honors locality
    /// when the preferred worker lives.
    #[test]
    fn scheduler_respects_liveness(
        dead in proptest::collection::hash_set(0usize..4, 0..3),
        prefs in proptest::collection::vec(proptest::option::of(0usize..4), 1..30),
    ) {
        let cluster = Cluster::new(ClusterConfig {
            workers: 4,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        for w in &dead {
            cluster.kill_worker(*w);
        }
        let tasks: Vec<TaskSpec> = prefs
            .iter()
            .enumerate()
            .map(|(i, p)| TaskSpec { partition: i, preferred_worker: *p })
            .collect();
        let dead2 = Arc::new(dead.clone());
        let placements = cluster
            .run_stage(&tasks, move |tc| (tc.worker, tc.non_local))
            .unwrap();
        for (spec, (worker, non_local)) in tasks.iter().zip(&placements) {
            prop_assert!(!dead2.contains(worker), "task ran on dead worker {worker}");
            if let Some(p) = spec.preferred_worker {
                if !dead2.contains(&p) {
                    prop_assert_eq!(*worker, p, "alive preference ignored");
                    prop_assert!(!non_local);
                }
            }
        }
    }
}

/// The exchange accounts every row, and exactly the wire bytes of its
/// blocks.
#[test]
fn exchange_metrics_account_rows_and_bytes() {
    let cluster = Cluster::new(ClusterConfig::test_small());
    let inputs: Vec<Vec<(u64, Row)>> = (0..4)
        .map(|p| {
            (0..250i64)
                .map(|i| {
                    let row: Row = vec![Value::Int64(i), Value::Utf8("x".repeat(10)), Value::Null];
                    (i as u64 * 31 + p, row)
                })
                .collect()
        })
        .collect();
    let codec = ShuffleCodec::new(wire_schema());
    let wire_bytes: usize = inputs
        .iter()
        .flat_map(|p| codec.encode_buckets(p, 8))
        .map(|block| block.len())
        .sum();
    let out = exchange_rows(&cluster, &wire_schema(), inputs, 8).unwrap();
    assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 1000);
    let r = cluster.registry();
    assert_eq!(r.counter_value("shuffle.rows"), 1000);
    assert_eq!(r.counter_value("shuffle.bytes"), wire_bytes as u64);
}
