//! Benchmark-side span tracing.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions: name, start, end, parent span and op id. They stay
//! in memory while the run measures and are written out when it ends.
//! Tracing is off unless switched on, so untraced runs pay one relaxed
//! atomic load per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    tracer().on.store(on, Relaxed);
}

/// Whether one-second slice `slice` of an alternating window is traced.
pub fn traced_slice(slice: u64) -> bool {
    slice % 2 == 1
}

/// Switch tracing on in the odd one-second slices since `start` and off
/// in the even ones until `stop` is set, so traced and untraced work
/// share whatever the host does during the window. Leaves tracing on.
pub fn alternate(start: Instant, stop: &AtomicBool) {
    loop {
        let slice = start.elapsed().as_secs();
        set_enabled(traced_slice(slice));
        let next = start + Duration::from_secs(slice + 1);
        while Instant::now() < next {
            if stop.load(Relaxed) {
                set_enabled(true);
                return;
            }
            let left = next.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(20)));
        }
    }
}

/// Run `f` as op `op`: spans opened inside it carry the op id.
pub fn with_op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    let prev = OP.with(|o| o.replace(op));
    let r = f();
    OP.with(|o| o.set(prev));
    r
}

/// Run `f` inside a span named `name` (a no-op wrapper when tracing is
/// off). The span's parent is the innermost open span on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = tracer();
    if !t.on.load(Relaxed) {
        return f();
    }
    let id = t.next_id.fetch_add(1, Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = t.epoch.elapsed().as_nanos() as u64;
    let r = f();
    let end = t.epoch.elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    let op = OP.with(Cell::get);
    t.spans.lock().unwrap().push(Span {
        id,
        parent,
        op,
        name,
        start_ns: start,
        end_ns: end,
    });
    r
}

/// Take every recorded span, leaving the buffer empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().unwrap())
}

/// Per-name self-time totals of a span set.
#[derive(Debug, Clone, Default)]
pub struct LedgerRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_samples: Vec<f64>,
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, LedgerRow> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let own = dur.saturating_sub(covered);
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += own;
        row.self_samples.push(own as f64);
    }
    rows
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            span(4, 1, "c", 90, 120),
        ];
        let l = ledger(&spans);
        // Children cover [10, 60) and [90, 100) of the root.
        assert_eq!(l["root"].self_ns, 40);
        assert_eq!(l["a"].self_ns, 30);
        assert_eq!(l["c"].total_ns, 30);
    }
}
