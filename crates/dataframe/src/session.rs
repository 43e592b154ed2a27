//! SQL sessions: asynchronous query submission over the shared cluster.
//!
//! [`Context::submit_sql`] turns the one-shot `ctx.sql(..).collect()` path
//! into a *serving* interface: the statement is parsed, optimized and
//! physically planned synchronously (snapshotting the provider set — DDL
//! after submission cannot tear the running query), admission control is
//! consulted (typed rejection when the wait queue is full), and execution
//! is attributed to a scheduler [`QueryRef`] so its tasks interleave
//! fairly with other queries'. The returned [`QueryHandle`] supports
//! `poll` / `wait` / `cancel`.
//!
//! Thread model — pooled, caller-runs drivers. The driver body (admission
//! wait, then execution) is stored in the handle as a claimable job and
//! handed to the context's cached [`DriverPool`]. Whoever claims it first
//! runs it, exactly once:
//!
//! * [`QueryHandle::wait`] claims it if no driver has started it and runs
//!   it inline on the caller's thread — the common submit-then-wait path
//!   pays no thread hand-off;
//! * otherwise a pool driver runs it. Every unclaimed job has a driver of
//!   its own (an idle thread is reserved per job, or one is spawned when
//!   none is idle), so a query nobody waits for — polled, dropped, or
//!   queued behind a full admission controller — still makes progress, and
//!   cancel-on-drop still releases its pins.
//!
//! [`QueryHandle::poll`] never runs the job. Driver threads are cached for
//! reuse and exit when the [`Context`] drops.
//!
//! Per-session observability (all in the cluster registry, asserted in
//! `tests/metrics_e2e.rs`):
//!
//! * `session.queue_ns` — histogram of submit → admission latency;
//! * `session.exec_ns` — histogram of admission → completion latency;
//! * `session.admitted` / `session.rejected` / `session.cancelled` —
//!   admission outcomes;
//! * `session.inline_runs` — jobs run by their waiter instead of a pool
//!   driver;
//! * `session.driver_threads` — gauge of the driver pool's threads (set
//!   by each submitting context; one context per cluster is the norm).

use crate::expr::PlanError;
use crate::physical::{gather, ExecError};
use rowstore::Row;
use sparklet::{Admission, AdmitError, Counter, Gauge, Histogram, QueryRef, Registry, StageError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::context::{Context, TablePinGuard};

type QueryResult = Result<Vec<Row>, PlanError>;

/// A query's driver body: admission wait, then execution.
type DriverJob = Box<dyn FnOnce() -> QueryResult + Send>;

/// Shared completion slot between the query's driver and the handle.
///
/// Also owns the query's [`TablePinGuard`]: the pins live here (not as a
/// plain local of the driver) so that *every* way a query can end —
/// normal completion, admission rejection, cancellation, or a panic
/// escaping execution — releases them through the same `finish` path.
#[derive(Default)]
struct HandleShared {
    result: Mutex<Option<QueryResult>>,
    done: Condvar,
    pins: Mutex<Option<TablePinGuard>>,
    /// The driver body until the waiter or a pool driver claims it.
    job: Mutex<Option<DriverJob>>,
}

impl HandleShared {
    /// Take the driver body; `None` once someone else claimed it.
    fn claim(&self) -> Option<DriverJob> {
        self.job.lock().unwrap().take()
    }

    fn finish(&self, result: QueryResult) {
        // Release table pins before publishing the result: a waiter that
        // observes completion may immediately deregister the table.
        drop(self.pins.lock().unwrap().take());
        *self.result.lock().unwrap() = Some(result);
        self.done.notify_all();
    }
}

/// Session metric handles, resolved once per context so the submit and
/// driver paths record without a registry lookup.
struct SessionMetrics {
    queue_ns: Arc<Histogram>,
    exec_ns: Arc<Histogram>,
    admitted: Arc<Counter>,
    inline_runs: Arc<Counter>,
    driver_threads: Arc<Gauge>,
}

#[derive(Default)]
struct PoolState {
    /// Submitted queries no driver has taken yet (a waiter that claims a
    /// job inline removes its entry).
    pending: VecDeque<Arc<HandleShared>>,
    /// Threads not running a job. Each re-checks `pending` under the lock
    /// before sleeping, so `pending.len() <= idle` means every pending job
    /// has a driver on its way.
    idle: usize,
    drivers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
    metrics: SessionMetrics,
}

/// The context's cached pool of query-driver threads. It grows to the
/// peak number of concurrently driven queries and never shrinks while the
/// context lives; dropping it (with the context) lets the threads exit.
pub(crate) struct DriverPool {
    shared: Arc<PoolShared>,
}

impl DriverPool {
    pub(crate) fn new(registry: &Registry) -> DriverPool {
        DriverPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState::default()),
                wake: Condvar::new(),
                metrics: SessionMetrics {
                    queue_ns: registry.histogram("session.queue_ns"),
                    exec_ns: registry.histogram("session.exec_ns"),
                    admitted: registry.counter("session.admitted"),
                    inline_runs: registry.counter("session.inline_runs"),
                    driver_threads: registry.gauge("session.driver_threads"),
                },
            }),
        }
    }

    /// Queue `query`'s job for a driver: wake an idle thread, or spawn one
    /// when every idle thread is already spoken for.
    fn submit(&self, query: Arc<HandleShared>) {
        let mut st = self.shared.state.lock().unwrap();
        st.pending.push_back(query);
        let spawn = st.pending.len() > st.idle;
        if spawn {
            st.idle += 1;
            let pool = Arc::clone(&self.shared);
            let driver = std::thread::Builder::new()
                .name("session-driver".into())
                .spawn(move || pool.drive())
                .expect("failed to spawn query driver");
            st.drivers.push(driver);
        }
        // Re-published on every submit so the gauge survives a registry
        // reset.
        let threads = st.drivers.len() as u64;
        self.shared.metrics.driver_threads.set(threads);
        drop(st);
        if !spawn {
            self.shared.wake.notify_one();
        }
    }
}

impl Drop for DriverPool {
    fn drop(&mut self) {
        // The flag is set under the lock, so no idle driver checks it and
        // then misses the wake-up.
        let drivers = {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            std::mem::take(&mut st.drivers)
        };
        self.shared.wake.notify_all();
        // Every job holds the context, so no job is left to run. The last
        // `Arc<Context>` may drop on a driver thread as it publishes a
        // result: that thread cannot join itself and exits on its own.
        let me = std::thread::current().id();
        for driver in drivers {
            if driver.thread().id() != me {
                let _ = driver.join();
            }
        }
        self.shared.metrics.driver_threads.set(0);
    }
}

impl PoolShared {
    /// Body of one driver thread.
    fn drive(&self) {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(query) = st.pending.pop_front() {
                // Claimed under the pool lock, so a driver only leaves the
                // idle count for a job it will really run.
                let Some(job) = query.claim() else { continue };
                st.idle -= 1;
                drop(st);
                let result = job();
                // Idle again *before* publishing: a client that submits its
                // next query as soon as this one completes reuses this
                // thread instead of spawning another.
                self.state.lock().unwrap().idle += 1;
                query.finish(result);
                drop(query);
                st = self.state.lock().unwrap();
            } else if st.shutdown {
                return;
            } else {
                st = self.wake.wait(st).unwrap();
            }
        }
    }

    /// Drop `query` from the pending list after its waiter claimed it.
    fn forget(&self, query: &Arc<HandleShared>) {
        let mut st = self.state.lock().unwrap();
        if let Some(i) = st.pending.iter().position(|q| Arc::ptr_eq(q, query)) {
            st.pending.remove(i);
        }
    }
}

/// Render a panic payload the way `std` would print it.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "query driver panicked".to_string())
}

/// Handle to a query submitted with [`Context::submit_sql`].
pub struct QueryHandle {
    shared: Arc<HandleShared>,
    pool: Arc<PoolShared>,
    query: QueryRef,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("query", &self.query.id())
            .field("finished", &self.shared.result.lock().unwrap().is_some())
            .finish()
    }
}

impl QueryHandle {
    /// The scheduler-wide query id.
    pub fn id(&self) -> u64 {
        self.query.id()
    }

    /// Non-blocking: `Some(result)` once the query finished (the result
    /// stays available for repeated polls), `None` while it runs. Never
    /// runs the query itself: a pool driver does.
    pub fn poll(&self) -> Option<QueryResult> {
        self.shared.result.lock().unwrap().clone()
    }

    /// Block until the query finishes and return its result. If no driver
    /// has started the query yet, it runs inline on the calling thread.
    pub fn wait(&self) -> QueryResult {
        if let Some(job) = self.shared.claim() {
            self.pool.forget(&self.shared);
            self.pool.metrics.inline_runs.inc();
            self.shared.finish(job());
        }
        let mut slot = self.shared.result.lock().unwrap();
        while slot.is_none() {
            slot = self.shared.done.wait(slot).unwrap();
        }
        slot.as_ref().expect("slot filled").clone()
    }

    /// Request cooperative cancellation: a query waiting for admission
    /// aborts immediately; a running query fails at its next task
    /// dispatch / queued-task pop (tasks already running finish). A
    /// query that already completed keeps its result.
    pub fn cancel(&self) {
        self.query.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.query.is_cancelled()
    }
}

impl Drop for QueryHandle {
    /// Dropping the last observer of an unfinished query cancels it:
    /// nobody can consume the result, so holding its admission slot and
    /// table pins any longer only starves other queries. A query still
    /// queued for admission aborts immediately (releasing its pins); a
    /// running query fails at its next task dispatch. Finished queries
    /// are unaffected.
    fn drop(&mut self) {
        if self.shared.result.lock().unwrap().is_none() {
            self.query.cancel();
        }
    }
}

fn is_cancellation(err: &PlanError) -> bool {
    matches!(
        err,
        PlanError::Exec(ExecError::Stage(StageError::Cancelled { .. }))
    )
}

impl Context {
    /// Submit a SQL statement for asynchronous execution. Planning —
    /// including snapshotting every scanned table's provider into the
    /// physical plan — happens synchronously, so the returned handle's
    /// result is immune to concurrent `register_table` /
    /// `deregister_table` calls. Admission is also decided synchronously
    /// when the queue is full: the typed [`PlanError::Admission`] is
    /// returned instead of a handle.
    pub fn submit_sql(self: &Arc<Self>, sql: &str) -> Result<QueryHandle, PlanError> {
        self.submit_sql_weighted(sql, 1)
    }

    /// [`Context::submit_sql`] with an explicit fairness weight: the
    /// scheduler serves `weight` consecutive tasks of this query per
    /// round-robin turn (≥1; higher = larger share of the pool).
    pub fn submit_sql_weighted(
        self: &Arc<Self>,
        sql: &str,
        weight: u32,
    ) -> Result<QueryHandle, PlanError> {
        let df = self.sql(sql)?;
        // Provider snapshot: ScanExec nodes hold their `Arc<dyn
        // TableProvider>` from this point on.
        let phys = df.physical_plan()?;
        let pins = self.pin_tables(df.plan().referenced_tables());

        let scheduler = self.cluster().scheduler();
        let query = scheduler.new_query(weight);
        let admission = match scheduler.try_admit(&query) {
            Ok(a) => a,
            Err(e) => {
                self.cluster().registry().counter("session.rejected").inc();
                return Err(PlanError::Admission(e.to_string()));
            }
        };

        let pool = Arc::clone(&self.drivers().shared);
        let ctx = Arc::clone(self);
        let driven = query.clone();
        let submitted = Instant::now();
        #[cfg(test)]
        let sql_probe = sql.to_string();
        // The driver body: owns the admission wait (so `submit_sql` never
        // blocks) and the execution itself. The table pins live in the
        // handle and are released by `finish` on every exit path,
        // including a panic escaping execution.
        let job: DriverJob = Box::new(move || {
            let metrics = &ctx.drivers().shared.metrics;
            let registry = ctx.cluster().registry();
            let admitted = match admission {
                Admission::Ready(guard) => Ok(guard),
                Admission::Queued(ticket) => ticket.wait(),
            };
            metrics
                .queue_ns
                .record(submitted.elapsed().as_nanos() as u64);
            match admitted {
                Err(e) => {
                    if matches!(e, AdmitError::Cancelled { .. }) {
                        registry.counter("session.cancelled").inc();
                    } else {
                        registry.counter("session.rejected").inc();
                    }
                    Err(PlanError::Admission(e.to_string()))
                }
                Ok(_slot) => {
                    metrics.admitted.inc();
                    let exec_start = Instant::now();
                    // Worker-task panics are already converted to typed
                    // `StageError`s by the cluster; this guards the driver
                    // side (planning glue, gather, provider code running on
                    // this thread). Without it a panic here would leave
                    // `finish` uncalled: waiters would block forever and the
                    // table pins would leak until process exit.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(test)]
                        tests::inject_test_panic(&sql_probe);
                        ctx.cluster().with_query(&driven, || {
                            phys.execute(&ctx).map(gather).map_err(PlanError::from)
                        })
                    }));
                    metrics
                        .exec_ns
                        .record(exec_start.elapsed().as_nanos() as u64);
                    let result = match outcome {
                        Ok(r) => r,
                        Err(payload) => {
                            registry.counter("session.driver_panics").inc();
                            Err(PlanError::Internal(panic_text(payload.as_ref())))
                        }
                    };
                    if result.as_ref().is_err_and(is_cancellation) {
                        registry.counter("session.cancelled").inc();
                    }
                    result
                    // `_slot` drops here: the admission slot frees and a
                    // queued query wakes up.
                }
            }
        });
        let shared = Arc::new(HandleShared::default());
        *shared.pins.lock().unwrap() = Some(pins);
        *shared.job.lock().unwrap() = Some(job);
        self.drivers().submit(Arc::clone(&shared));
        Ok(QueryHandle {
            shared,
            pool,
            query,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use rowstore::{DataType, Field, Schema, Value};
    use sparklet::{Cluster, ClusterConfig};

    /// Marker-based panic injection: a submitted statement containing
    /// this identifier panics on the driver thread right after
    /// admission. Keyed on the SQL text (not a global flag) so parallel
    /// tests in this module cannot trip each other's injection.
    pub(super) const PANIC_MARKER: &str = "panic_in_driver";

    pub(super) fn inject_test_panic(sql: &str) {
        if sql.contains(PANIC_MARKER) {
            panic!("injected driver panic");
        }
    }

    fn ctx_with_table(rows: i64) -> Arc<Context> {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let data: Vec<Row> = (0..rows)
            .map(|i| vec![Value::Int64(i % 10), Value::Int64(i)])
            .collect();
        ctx.register_table("t", Arc::new(ColumnarTable::from_rows(schema, data, 4)));
        ctx
    }

    #[test]
    fn submit_poll_wait_roundtrip() {
        let ctx = ctx_with_table(100);
        let handle = ctx.submit_sql("SELECT * FROM t WHERE k = 3").unwrap();
        let rows = handle.wait().unwrap();
        assert_eq!(rows.len(), 10);
        // Result is sticky: poll after wait still sees it.
        assert_eq!(handle.poll().unwrap().unwrap().len(), 10);
        // Matches the synchronous path bit for bit.
        let mut expect = ctx
            .sql("SELECT * FROM t WHERE k = 3")
            .unwrap()
            .collect()
            .unwrap();
        let mut got = rows;
        expect.sort_by_key(|r| format!("{r:?}"));
        got.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(got, expect);
    }

    #[test]
    fn submit_errors_on_unknown_table() {
        let ctx = ctx_with_table(10);
        let err = ctx.submit_sql("SELECT * FROM nope").unwrap_err();
        assert_eq!(err, PlanError::UnknownTable("nope".into()));
    }

    #[test]
    fn ddl_after_submit_cannot_tear_the_query() {
        let ctx = ctx_with_table(5000);
        let handle = ctx
            .submit_sql("SELECT k, count(*) AS n FROM t GROUP BY k")
            .unwrap();
        // Replace the provider mid-flight: the running query planned
        // against the old snapshot and must not notice.
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        ctx.register_table(
            "t",
            Arc::new(ColumnarTable::from_rows(
                schema,
                vec![vec![Value::Int64(0)]],
                1,
            )),
        );
        let rows = handle.wait().unwrap();
        assert_eq!(rows.len(), 10, "snapshot saw the original 10 groups");
    }

    #[test]
    fn deregister_fails_while_pinned_then_succeeds() {
        let ctx = ctx_with_table(2000);
        let handle = ctx
            .submit_sql("SELECT k, count(*) AS n FROM t GROUP BY k")
            .unwrap();
        // The pin is taken synchronously in submit_sql; if the query is
        // still running the deregister must fail typed, and once it
        // finishes the pin releases and deregistration succeeds.
        match ctx.deregister_table("t") {
            Err(PlanError::TablePinned(t)) => {
                assert_eq!(t, "t");
                handle.wait().unwrap();
                // Pins release when the driver thread finishes; give it
                // a moment.
                for _ in 0..500 {
                    if ctx.table_pin_count("t") == 0 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                assert!(ctx.deregister_table("t").unwrap().is_some());
            }
            // The query already finished and released its pin before we
            // got here — the deregister legitimately removed the table.
            Ok(Some(_)) => {
                handle.wait().unwrap();
            }
            other => panic!(
                "unexpected deregister outcome: {:?}",
                other.map(|o| o.is_some())
            ),
        }
    }

    #[test]
    fn admission_queue_full_rejects_synchronously() {
        let ctx = ctx_with_table(100);
        ctx.cluster().scheduler().set_admission_limits(1, 0);
        // Occupy the only slot out-of-band so the next submit must reject.
        let blocker = ctx.cluster().scheduler().new_query(1);
        let _slot = ctx.cluster().scheduler().admit(&blocker).unwrap();
        let err = ctx.submit_sql("SELECT * FROM t").unwrap_err();
        assert!(matches!(err, PlanError::Admission(_)), "got {err:?}");
        assert_eq!(
            ctx.cluster().registry().counter_value("session.rejected"),
            1
        );
        assert_eq!(ctx.table_pin_count("t"), 0, "rejected submit leaves no pin");
    }

    #[test]
    fn driver_panic_releases_pins_and_reports_internal() {
        let ctx = ctx_with_table(100);
        let handle = ctx
            .submit_sql(&format!("SELECT k AS {PANIC_MARKER} FROM t"))
            .unwrap();
        // The panic is caught on the driver thread and surfaced as a
        // typed internal error — `wait` must not hang.
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, PlanError::Internal(_)), "got {err:?}");
        assert_eq!(
            ctx.cluster()
                .registry()
                .counter_value("session.driver_panics"),
            1
        );
        // `finish` releases pins before publishing the result, so the
        // table is deregistrable as soon as `wait` returns.
        assert_eq!(ctx.table_pin_count("t"), 0, "panic path must release pins");
        assert!(ctx.deregister_table("t").unwrap().is_some());
    }

    #[test]
    fn dropping_queued_handle_cancels_and_releases_pins() {
        let ctx = ctx_with_table(100);
        ctx.cluster().scheduler().set_admission_limits(1, 4);
        // Occupy the only slot so the submitted query queues for
        // admission — the window where pins used to be unreclaimable.
        let blocker = ctx.cluster().scheduler().new_query(1);
        let slot = ctx.cluster().scheduler().admit(&blocker).unwrap();
        let handle = ctx.submit_sql("SELECT * FROM t").unwrap();
        assert_eq!(ctx.table_pin_count("t"), 1);
        drop(handle);
        // Dropping the unfinished handle cancels the query; the driver
        // thread aborts its admission wait and finishes, releasing the
        // pin without the blocker ever yielding its slot.
        for _ in 0..500 {
            if ctx.table_pin_count("t") == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(ctx.table_pin_count("t"), 0);
        assert!(ctx.deregister_table("t").unwrap().is_some());
        drop(slot);
    }

    /// Poll until `cond` holds (bounded) and report whether it did.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        for _ in 0..2000 {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn unwaited_query_completes_via_poll_and_releases_pins() {
        let ctx = ctx_with_table(100);
        let handle = ctx.submit_sql("SELECT * FROM t WHERE k = 3").unwrap();
        // Nobody waits: a pool driver must run the query on its own.
        assert!(eventually(|| handle.poll().is_some()), "query never ran");
        assert_eq!(handle.poll().unwrap().unwrap().len(), 10);
        assert_eq!(ctx.table_pin_count("t"), 0, "finished query keeps no pin");
        let registry = ctx.cluster().registry();
        assert_eq!(registry.counter_value("session.inline_runs"), 0);
        assert_eq!(registry.counter_value("session.admitted"), 1);
        // Waiting after completion returns the same result.
        assert_eq!(handle.wait().unwrap().len(), 10);
    }

    #[test]
    fn one_admission_slot_reverse_order_waits_all_finish() {
        let ctx = ctx_with_table(200);
        ctx.cluster().scheduler().set_admission_limits(1, 16);
        let handles: Vec<QueryHandle> = (0..8)
            .map(|i| {
                ctx.submit_sql(&format!("SELECT * FROM t WHERE k = {i}"))
                    .unwrap()
            })
            .collect();
        // The last submission queues behind seven others for the single
        // slot; its waiter runs it inline and blocks on admission while
        // pool drivers carry the earlier queries through.
        for (i, handle) in handles.iter().enumerate().rev() {
            let rows = handle.wait().unwrap();
            assert_eq!(rows.len(), 20, "query {i}");
        }
        let registry = ctx.cluster().registry();
        assert_eq!(registry.counter_value("session.admitted"), 8);
        assert_eq!(ctx.table_pin_count("t"), 0);
    }

    #[test]
    fn sequential_submits_reuse_one_driver_thread() {
        let ctx = ctx_with_table(100);
        for i in 0..1000 {
            let handle = ctx
                .submit_sql(&format!("SELECT * FROM t WHERE v = {i}"))
                .unwrap();
            assert_eq!(handle.wait().unwrap().len(), usize::from(i < 100));
        }
        let registry = ctx.cluster().registry();
        assert_eq!(
            registry.gauge_value("session.driver_threads"),
            1,
            "one client at a time never needs a second driver"
        );
        assert!(registry.counter_value("session.inline_runs") > 0);
        // Each admitted query records both latencies exactly once, whichever
        // thread ran it.
        assert_eq!(registry.counter_value("session.admitted"), 1000);
        for h in ["session.queue_ns", "session.exec_ns"] {
            assert_eq!(registry.histogram_snapshot(h).unwrap().count, 1000, "{h}");
        }
    }

    #[test]
    fn dropping_the_context_stops_its_driver_threads() {
        let ctx = ctx_with_table(100);
        let handles: Vec<QueryHandle> = (0..4)
            .map(|_| ctx.submit_sql("SELECT * FROM t").unwrap())
            .collect();
        for handle in &handles {
            handle.wait().unwrap();
        }
        let pool = Arc::downgrade(&ctx.drivers().shared);
        let cluster = Arc::clone(ctx.cluster());
        drop(handles);
        drop(ctx);
        // The drop joins every driver before returning.
        assert_eq!(
            pool.strong_count(),
            0,
            "driver threads outlived the context"
        );
        assert_eq!(cluster.registry().gauge_value("session.driver_threads"), 0);
    }

    #[test]
    fn cancel_while_queued_for_admission() {
        let ctx = ctx_with_table(100);
        ctx.cluster().scheduler().set_admission_limits(1, 4);
        let blocker = ctx.cluster().scheduler().new_query(1);
        let slot = ctx.cluster().scheduler().admit(&blocker).unwrap();
        let handle = ctx.submit_sql("SELECT * FROM t").unwrap();
        handle.cancel();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, PlanError::Admission(_)), "got {err:?}");
        drop(slot);
        assert!(ctx.cluster().registry().counter_value("session.cancelled") >= 1);
    }
}
