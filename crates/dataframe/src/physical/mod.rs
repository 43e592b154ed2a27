//! Physical execution plans.
//!
//! An [`ExecPlan`] executes against the cluster and returns materialized
//! row partitions. Operators are trait objects so extension libraries can
//! add their own (the Indexed DataFrame's indexed lookup/join operators
//! plug in exactly here — the "strategies" of §III-B).

pub mod adaptive;
pub mod agg;
pub mod filter;
pub mod join;
pub mod limit;
pub mod pipeline;
pub mod project;
pub mod scan;
pub mod sort;

use crate::context::Context;
use rowstore::{Row, Schema, Value};
use sparklet::StageError;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Output of a physical operator: one `Vec<Row>` per partition.
pub type Partitions = Vec<Vec<Row>>;

/// Errors raised while executing a physical plan. Today every execution
/// failure is a cluster stage that exhausted its task retries; the enum
/// leaves room for operator-level failures (spill, codec, ...) without
/// another signature change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A cluster stage failed even after per-task retries.
    Stage(StageError),
}

impl From<StageError> for ExecError {
    fn from(e: StageError) -> Self {
        ExecError::Stage(e)
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Stage(e) => write!(f, "stage execution failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A physical operator.
pub trait ExecPlan: Send + Sync {
    /// Output schema.
    fn schema(&self) -> Arc<Schema>;
    /// Execute on the cluster, returning materialized partitions. Stage
    /// failures (a task exhausting its retries, or no alive workers)
    /// surface as [`ExecError`] instead of panicking the driver.
    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError>;
    /// One-line description plus indented children (for `explain`).
    fn describe(&self, indent: usize) -> String;

    /// Execute and hand the output over as columnar partitions instead of
    /// rows, when this operator can produce them without materializing a
    /// single `Row` (the fused pipeline). `None` means "row output only" —
    /// consumers then call [`ExecPlan::execute`] as usual.
    fn execute_columnar(
        &self,
        _ctx: &Arc<Context>,
    ) -> Option<Result<Vec<Arc<crate::column::ColumnarPartition>>, ExecError>> {
        None
    }

    /// Downcast hook for planner fusion: a fused pipeline returns itself so
    /// the planner can push a LIMIT into it without `as_any` gymnastics.
    fn as_pipeline(&self) -> Option<&pipeline::ColumnarPipelineExec> {
        None
    }
}

/// Total row count across partitions (for rows_in/rows_out accounting).
pub fn count_rows(parts: &Partitions) -> u64 {
    parts.iter().map(|p| p.len() as u64).sum()
}

/// Instrument one operator's own work: counts `op.<name>.calls`,
/// `op.<name>.rows_in` / `rows_out`, times the body into the
/// `op.<name>.ns` histogram, and records an operator span. While the body
/// runs, the operator span is installed as the trace parent, so the
/// cluster stages it launches (and their tasks) nest beneath it —
/// reconstructing the operator → stage → task hierarchy.
///
/// Callers should execute child operators *before* entering the body so
/// the measured time covers only this operator's own work.
pub fn observe_operator(
    ctx: &Arc<Context>,
    name: &str,
    rows_in: u64,
    f: impl FnOnce() -> Result<Partitions, ExecError>,
) -> Result<Partitions, ExecError> {
    observe_operator_with(ctx, name, rows_in, count_rows, f)
}

/// [`observe_operator`] generalized over the output container, so operators
/// producing columnar partitions (the fused pipeline) record the same
/// span + counter + histogram shape as row-producing ones. `count_out`
/// extracts rows_out from a successful result.
pub fn observe_operator_with<T>(
    ctx: &Arc<Context>,
    name: &str,
    rows_in: u64,
    count_out: impl FnOnce(&T) -> u64,
    f: impl FnOnce() -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    let cluster = ctx.cluster();
    let trace = cluster.trace();
    let span_id = trace.next_span_id();
    let parent = trace.set_parent(span_id);
    let start_us = trace.now_us();
    let start = std::time::Instant::now();
    let result = f();
    let dur = start.elapsed();
    trace.set_parent(parent);
    trace.record(|| sparklet::SpanRecord {
        id: span_id,
        parent,
        kind: sparklet::SpanKind::Operator,
        name: name.to_string(),
        start_us,
        dur_us: dur.as_micros() as u64,
        worker: -1,
        partition: -1,
    });
    let reg = cluster.registry();
    reg.counter(&format!("op.{name}.calls")).inc();
    reg.counter(&format!("op.{name}.rows_in")).add(rows_in);
    reg.histogram(&format!("op.{name}.ns"))
        .record(dur.as_nanos() as u64);
    if let Ok(out) = &result {
        reg.counter(&format!("op.{name}.rows_out"))
            .add(count_out(out));
    }
    result
}

/// Count one operator invocation that ran the vectorized batch path
/// (`operator.vectorized`) or fell back to row-at-a-time where a
/// vectorized alternative exists (`operator.fallback`).
pub fn count_path(ctx: &Arc<Context>, vectorized: bool) {
    let name = if vectorized {
        "operator.vectorized"
    } else {
        "operator.fallback"
    };
    ctx.cluster().registry().counter(name).inc();
}

/// Flatten partitions into a single row vector (driver-side collect).
pub fn gather(parts: Partitions) -> Vec<Row> {
    let total = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

/// A join/grouping key wrapper giving [`Value`] hash-consistent equality
/// (Int32/Int64 cross-width equality, byte-wise strings). Null keys never
/// equal anything — callers must filter them out before building tables,
/// matching inner equi-join semantics.
///
/// `repr(transparent)` licenses [`KeyWrap::from_ref`], the borrowed-key
/// probe used on join hot paths: hash tables keyed by `KeyWrap` can be
/// probed with a `&Value` straight out of the row, with no per-probe-row
/// clone.
#[derive(Debug, Clone)]
#[repr(transparent)]
pub struct KeyWrap(pub Value);

impl KeyWrap {
    /// View a borrowed [`Value`] as a borrowed key — sound because the
    /// wrapper is `repr(transparent)` over its single field.
    #[inline]
    pub fn from_ref(v: &Value) -> &KeyWrap {
        // SAFETY: KeyWrap is #[repr(transparent)] over Value, so the
        // pointer cast preserves layout and validity.
        unsafe { &*(v as *const Value as *const KeyWrap) }
    }
}

impl PartialEq for KeyWrap {
    fn eq(&self, other: &Self) -> bool {
        self.0.sql_eq(&other.0)
    }
}
impl Eq for KeyWrap {}

impl Hash for KeyWrap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.key_hash());
    }
}

/// A multi-column grouping key.
#[derive(Debug, Clone)]
pub struct GroupKey(pub Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| {
                // Group-by treats NULL as its own group (unlike joins).
                (a.is_null() && b.is_null()) || a.sql_eq(b)
            })
    }
}
impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(rowstore::rows_key_hash(&self.0));
    }
}

/// Format helper shared by operator `describe` implementations (public so
/// extension crates can render their own operators consistently).
pub fn describe_node(indent: usize, line: &str, children: &[&dyn ExecPlan]) -> String {
    let mut out = format!("{}{}\n", "  ".repeat(indent), line);
    for c in children {
        out.push_str(&c.describe(indent + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywrap_cross_width_equality() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(KeyWrap(Value::Int32(7)), "seven");
        assert_eq!(m.get(&KeyWrap(Value::Int64(7))), Some(&"seven"));
        assert_eq!(m.get(&KeyWrap(Value::Int64(8))), None);
    }

    #[test]
    fn keywrap_borrowed_probe_matches_owned_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(KeyWrap(Value::Int64(7)), "seven");
        let probe = Value::Int32(7); // borrowed straight out of a row
        assert_eq!(m.get(KeyWrap::from_ref(&probe)), Some(&"seven"));
        assert_eq!(m.get(KeyWrap::from_ref(&Value::Int64(8))), None);
    }

    #[test]
    fn keywrap_null_never_matches() {
        assert_ne!(KeyWrap(Value::Null), KeyWrap(Value::Null));
    }

    #[test]
    fn groupkey_null_is_a_group() {
        assert_eq!(
            GroupKey(vec![Value::Null, Value::Int64(1)]),
            GroupKey(vec![Value::Null, Value::Int64(1)])
        );
        assert_ne!(GroupKey(vec![Value::Null]), GroupKey(vec![Value::Int64(0)]));
    }

    #[test]
    fn gather_flattens_in_order() {
        let parts: Partitions = vec![
            vec![vec![Value::Int64(1)]],
            vec![],
            vec![vec![Value::Int64(2)], vec![Value::Int64(3)]],
        ];
        let rows = gather(parts);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2][0], Value::Int64(3));
    }
}
