//! Catalog integration: an [`IndexedDataFrame`] is a [`TableProvider`], so
//! regular SQL / DataFrame queries can scan it — the "fall back to a
//! regular Spark Row RDD" arrow of Fig. 2. Index-aware physical planning
//! lives in [`crate::rule`].

use crate::frame::IndexedDataFrame;
use dataframe::TableProvider;
use rowstore::{Row, Schema};
use std::any::Any;
use std::sync::Arc;

impl TableProvider for IndexedDataFrame {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(self.schema())
    }

    fn num_partitions(&self) -> usize {
        self.num_partitions()
    }

    fn scan_partition(&self, partition: usize) -> Vec<Row> {
        self.inner.get_partition(partition).scan()
    }

    fn num_rows(&self) -> usize {
        self.num_rows()
    }

    fn estimated_bytes(&self) -> usize {
        // Cheap estimate from lineage (materialization must not be forced
        // by join planning): rows × (8 bytes per fixed column + header).
        self.num_rows() * (self.schema().arity() * 8 + rowstore::RECORD_HEADER)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    /// Evaluate predicates directly on the encoded rows of the Indexed
    /// Batch RDD, decoding only referenced columns, and materialize only
    /// surviving rows (and only projected columns). This is the efficient
    /// fallback path of Fig. 2 for non-indexable predicates.
    fn scan_partition_pushdown(
        &self,
        partition: usize,
        predicate: Option<&dataframe::BoundExpr>,
        projection: Option<&[usize]>,
    ) -> Vec<Row> {
        let part = self.inner.get_partition(partition);
        let schema = self.schema();
        let mut out = Vec::new();
        part.for_each_row(|_, bytes| {
            if let Some(p) = predicate {
                let col = |c| {
                    rowstore::codec::decode_column(schema, bytes, c)
                        .unwrap_or(rowstore::Value::Null)
                };
                if !dataframe::BoundExpr::is_true(&p.eval_with(&col)) {
                    return;
                }
            }
            let row = match projection {
                Some(cols) => cols
                    .iter()
                    .map(|&c| {
                        rowstore::codec::decode_column(schema, bytes, c)
                            .expect("stored column decodes")
                    })
                    .collect(),
                None => rowstore::codec::decode_row(schema, bytes).expect("stored row decodes"),
            };
            out.push(row);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::Context;
    use rowstore::{DataType, Field, Value};
    use sparklet::{Cluster, ClusterConfig};

    #[test]
    fn provider_scan_returns_all_rows() {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int64(i % 20), Value::Utf8(format!("v{i}"))])
            .collect();
        let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "k").unwrap();
        let total: usize = (0..TableProvider::num_partitions(&idf))
            .map(|p| idf.scan_partition(p).len())
            .sum();
        assert_eq!(total, 200);
        assert_eq!(TableProvider::num_rows(&idf), 200);
        assert!(idf.estimated_bytes() > 0);
    }

    #[test]
    fn registered_table_is_queryable_via_sql_fallback() {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 2)])
            .collect();
        let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "k").unwrap();
        idf.register("events").unwrap();
        // Non-indexed predicate (range on the data column): falls back to a
        // row scan; results must still be exact.
        let n = ctx
            .sql("SELECT * FROM events WHERE v < 50")
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(n, 25);
    }

    #[test]
    fn row_layout_scan_does_not_vectorize() {
        // The row-layout Indexed DataFrame exposes no columnar source, so
        // its scans stay on the row fallback: the fallback counter moves,
        // the vectorized counter doesn't.
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..60)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 2)])
            .collect();
        let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "k").unwrap();
        idf.register("events").unwrap();
        let reg = ctx.cluster().registry();
        let (vec_before, fb_before) = (
            reg.counter_value("operator.vectorized"),
            reg.counter_value("operator.fallback"),
        );
        let n = ctx
            .sql("SELECT * FROM events WHERE v < 50")
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(n, 25);
        assert_eq!(
            reg.counter_value("operator.vectorized"),
            vec_before,
            "no vectorized operator ran"
        );
        assert!(reg.counter_value("operator.fallback") > fb_before);
    }
}
