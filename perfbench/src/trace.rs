//! Span tracing around the benchmark's calls into the program's layers.
//!
//! With tracing on, every wrapped call records a span (name, start, end,
//! parent, request id). Spans stay in memory and are written out when the
//! run ends, together with each layer's self time: its span durations minus
//! the time covered by its child spans. With tracing off, [`span`] is a
//! direct call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// At most this many spans are kept; later ones are counted as dropped.
const MAX_SPANS: usize = 400_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span (0 = none): the innermost open span on the
    /// recording thread, or the span a spawned thread adopted.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id for spans of one served request (0 = not a request).
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(span: Span) {
    let mut spans = SPANS.lock().expect("span buffer poisoned");
    if spans.len() < MAX_SPANS {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` inside a span named `name` (a direct call when tracing is off).
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied().unwrap_or(0);
        o.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|o| o.borrow_mut().pop());
    push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        request,
    });
    out
}

/// Id of the innermost span open on this thread (0 = none).
pub fn current() -> u32 {
    OPEN.with(|o| o.borrow().last().copied().unwrap_or(0))
}

/// Makes `parent` (a span open on another thread) the parent of the spans
/// this thread records from now on; call first thing in a spawned thread.
pub fn adopt(parent: u32) {
    if parent != 0 {
        OPEN.with(|o| o.borrow_mut().push(parent));
    }
}

/// Records a span whose bounds the caller measured (e.g. a request's round
/// trip, which is not one call), as a child of the innermost open span.
pub fn record(name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        request,
    });
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer poisoned").clone()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Per-layer totals: (name, count, total ms, self ms), by name. A span's
/// self time is its duration minus the part of it that the union of its
/// child spans covers (children on other threads may overlap).
pub fn layer_table(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let covered = |s: &Span| -> u64 {
        let Some(kids) = children.get(&s.id) else {
            return 0;
        };
        let mut kids: Vec<(u64, u64)> = kids
            .iter()
            .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
            .filter(|&(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut total, mut reach) = (0, 0);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                total += b - a;
                reach = b;
            }
        }
        total
    };
    let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let children = covered(s);
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += s.dur_ns().saturating_sub(children);
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name, n, total as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// Writes every span and the per-layer table under `dir`, named after the
/// run; returns the two paths.
pub fn write_out(dir: &str, run: &str) -> std::io::Result<(String, String)> {
    let spans = spans();
    std::fs::create_dir_all(dir)?;
    let spans_path = format!("{dir}/{run}.spans.tsv");
    let mut text = String::from("id\tparent\tname\tstart_ns\tend_ns\trequest\n");
    for s in &spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
        );
    }
    std::fs::write(&spans_path, text)?;
    let layers_path = format!("{dir}/{run}.layers.tsv");
    let mut text = String::from("layer\tspans\ttotal_ms\tself_ms\n");
    for (name, n, total, own) in layer_table(&spans) {
        let _ = writeln!(text, "{name}\t{n}\t{total:.3}\t{own:.3}");
    }
    let _ = writeln!(
        text,
        "# dropped spans beyond {MAX_SPANS}: {}",
        DROPPED.load(Ordering::Relaxed)
    );
    std::fs::write(&layers_path, text)?;
    Ok((spans_path, layers_path))
}
