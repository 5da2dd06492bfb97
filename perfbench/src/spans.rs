//! Benchmark-side spans, layer self times and the wall-clock ledger.
//!
//! Every span is recorded by the benchmark around its own calls into
//! the library (nothing inside the program is instrumented). Spans live
//! in memory while a traced repetition runs and are written out at the
//! end as Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) and
//! `chrome://tracing` open directly.
//!
//! Self time: a span's duration minus the part covered by its children
//! on the same lane (thread). A *parallel* span (`width > 1`) is a
//! fan-out: its children run on `width` worker lanes, and the ledger
//! charges each child `self / width` of wall time, plus the fan-out's
//! idle lane time (`width × duration − child coverage`) divided by
//! `width` to the fan-out's own layer. That way the layer shares of one
//! repetition add up to its wall time, and whatever the spans do not
//! cover is reported as unaccounted.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process — the one clock
/// every span and item timing uses.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// This thread's lane number: 0 for the first thread that asks (the
/// benchmark's main thread), then 1, 2, … in order of first use.
pub fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    }
    LANE.with(|cell| match cell.get() {
        Some(l) => l,
        None => {
            let l = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(l));
            l
        }
    })
}

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// Returned by a disabled log; every operation on it is a no-op.
pub const NO_SPAN: SpanId = usize::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (`run_trace`, `decode`, …).
    pub name: &'static str,
    /// The repository layer the time belongs to (`testbed.data`, …).
    pub layer: &'static str,
    /// Thread lane ([`lane`]).
    pub lane: u32,
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// End, [`now_ns`] clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Worker lanes of a fan-out span; 1 for an ordinary span.
    pub width: u32,
}

impl Span {
    /// Duration in nanoseconds (0 for an unclosed or inverted span).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store. Disabled logs record nothing, so untraced
/// repetitions pay one branch per would-be span.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned: a recording thread panicked")
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let mut spans = self.spans();
        spans.push(Span {
            name,
            layer,
            lane: lane(),
            start_ns,
            end_ns,
            parent: parent.filter(|&p| p != NO_SPAN),
            width: 1,
        });
        spans.len() - 1
    }

    /// Closes span `id` at `end_ns`.
    pub fn close_at(&self, id: SpanId, end_ns: u64) {
        if id != NO_SPAN {
            if let Some(span) = self.spans().get_mut(id) {
                span.end_ns = end_ns;
            }
        }
    }

    /// Closes span `id` now.
    pub fn close(&self, id: SpanId) {
        self.close_at(id, now_ns());
    }

    /// Runs `edit` over the recorded spans (post-processing on the main
    /// thread once the workers are done).
    pub fn edit<R>(&self, edit: impl FnOnce(&mut Vec<Span>) -> R) -> R {
        edit(&mut self.spans())
    }

    /// Moves the recorded spans out, leaving the log empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Self time of every span in nanoseconds: duration minus the
/// durations of its children on the same lane. Children on other lanes
/// (a fan-out's workers) are not subtracted; [`ledger`] accounts them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            if let Some(parent) = spans.get(p) {
                if parent.lane == span.lane && parent.width <= 1 {
                    covered[p] = covered[p].saturating_add(span.dur_ns());
                }
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Where the wall time of one root span went, by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// The root span's duration, seconds.
    pub wall_s: f64,
    /// Wall-time share per layer, seconds.
    pub layers: BTreeMap<&'static str, f64>,
    /// Root time no child span covers, seconds.
    pub unaccounted_s: f64,
}

impl Ledger {
    /// Adds `other` into `self` (summing repetitions).
    pub fn merge(&mut self, other: &Ledger) {
        self.wall_s += other.wall_s;
        self.unaccounted_s += other.unaccounted_s;
        for (layer, s) in &other.layers {
            *self.layers.entry(layer).or_insert(0.0) += s;
        }
    }

    /// `unaccounted / wall` (0 for an empty ledger).
    pub fn unaccounted_frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.unaccounted_s / self.wall_s
        } else {
            0.0
        }
    }

    /// Sum of the layer shares, seconds.
    pub fn accounted_s(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Splits the wall time of `root` across the layers of its descendant
/// spans (see the module docs for the fan-out rule). The root's own
/// self time is the unaccounted remainder.
pub fn ledger(spans: &[Span], root: SpanId) -> Ledger {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent.filter(|&p| p < spans.len()) {
            children[p].push(id);
        }
    }
    let selfs = self_times(spans);
    let mut out = Ledger::default();
    let Some(root_span) = spans.get(root) else {
        return out;
    };
    out.wall_s = root_span.dur_ns() as f64 / 1e9;
    out.unaccounted_s = selfs[root] as f64 / 1e9;
    // (span, divisor) — the divisor is the width of the nearest
    // enclosing fan-out, compounded.
    let mut stack: Vec<(SpanId, f64)> = children[root].iter().map(|&c| (c, 1.0)).collect();
    while let Some((id, div)) = stack.pop() {
        let span = &spans[id];
        let share = if span.width > 1 {
            let width = f64::from(span.width);
            let coverage: u64 = children[id].iter().map(|&c| spans[c].dur_ns()).sum();
            let idle = (span.dur_ns() as f64 * width - coverage as f64).max(0.0);
            for &c in &children[id] {
                stack.push((c, div * width));
            }
            idle / width
        } else {
            for &c in &children[id] {
                stack.push((c, div));
            }
            selfs[id] as f64
        };
        *out.layers.entry(span.layer).or_insert(0.0) += share / div / 1e9;
    }
    out
}

/// Per-layer self time summed over every span, seconds — busy time as
/// threads experienced it (parallel lanes add up).
pub fn busy_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.layer).or_insert(0.0) += self_ns as f64 / 1e9;
    }
    out
}

/// Renders `spans` as Chrome trace-event JSON ("X" complete events,
/// microseconds, one `tid` per lane, the parent id and layer in
/// `args`), preceded by one metadata event carrying `stamp`.
pub fn chrome_trace_json(spans: &[Span], stamp: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut args = String::new();
    for (i, (k, v)) in stamp.iter().enumerate() {
        if i > 0 {
            args.push(',');
        }
        let _ = write!(args, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"perfbench\",{args}}}}}"
    );
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"width\":{}}}}}",
            json_escape(s.name),
            json_escape(s.layer),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.width,
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Minimal JSON string escaping for names and stamp values.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
