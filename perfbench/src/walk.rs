//! Observing one shard walk from outside.
//!
//! `Dataset::for_each_path_sharded` (and `runner::for_each_path`, which
//! wraps it) runs three phases: classify every shard, regenerate the
//! untrusted ones in a parallel fan-out (each worker writes its shard
//! as soon as the path is simulated), then load and visit every shard
//! in catalog order. The benchmark sees only its two closures, so the
//! phases are reconstructed from when those closures run:
//!
//! * classify: call start → first regeneration start (or first visit
//!   when nothing regenerates; the first shard's load is folded in);
//! * fan-out: first regeneration start → first visit start, `width`
//!   worker lanes; on each lane, the gap between one regeneration's end
//!   and the next one's start is that shard's encode + write. The last
//!   write on each lane overlaps the lane's idle tail and is counted as
//!   idle;
//! * decode: previous visit end → next visit start (load + parse of
//!   that shard);
//! * return: last visit end → call end.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use tputpred_testbed::runner::run_trace;
use tputpred_testbed::{PathConfig, PathData, Preset, TraceData};

use crate::checks::digest_path;
use crate::spans::{lane, now_ns, Span, SpanId, SpanLog};

/// Layer of the simulation work inside one trace (netsim, tcp and
/// probes as orchestrated by the testbed runner), which the benchmark
/// cannot split by crate from outside; the traced run splits it by
/// epoch phase from the runner's existing `stage.*` scopes.
pub const SIM_LAYER: &str = "sim";

/// The regeneration closure's side: runs on worker lanes.
pub struct GenProbe<'a> {
    log: &'a SpanLog,
    root: SpanId,
    fanout: OnceLock<SpanId>,
    trace_ns: Mutex<Vec<((usize, usize), u64)>>,
    digests: Mutex<BTreeMap<usize, u64>>,
}

impl<'a> GenProbe<'a> {
    /// A probe whose spans hang under `root`.
    pub fn new(log: &'a SpanLog, root: SpanId) -> Self {
        GenProbe {
            log,
            root,
            fanout: OnceLock::new(),
            trace_ns: Mutex::new(Vec::new()),
            digests: Mutex::new(BTreeMap::new()),
        }
    }

    /// Generates path `id` trace by trace — the body of
    /// `runner::generate_path`, with each `run_trace` call timed — and
    /// digests the in-memory result.
    pub fn generate(&self, preset: &Preset, config: &PathConfig, id: usize) -> PathData {
        let start = now_ns();
        let fanout = *self.fanout.get_or_init(|| {
            self.log
                .push("fanout", "testbed.runner", Some(self.root), start, start)
        });
        let path_span = self.log.push(
            "generate_path",
            "testbed.runner",
            Some(fanout),
            start,
            start,
        );
        let traces: Vec<TraceData> = (0..preset.traces_per_path)
            .map(|t| {
                let s = now_ns();
                let trace = run_trace(config, t, preset);
                let e = now_ns();
                self.log.push("run_trace", SIM_LAYER, Some(path_span), s, e);
                self.trace_ns
                    .lock()
                    .expect("trace timing list poisoned")
                    .push(((id, t), e.saturating_sub(s)));
                trace
            })
            .collect();
        let data = PathData {
            config: config.clone(),
            traces,
        };
        let s = now_ns();
        let d = digest_path(&data);
        self.log
            .push("digest", "bench.digest", Some(path_span), s, now_ns());
        self.digests
            .lock()
            .expect("digest map poisoned")
            .insert(id, d);
        self.log.close(path_span);
        data
    }

    /// Per-trace simulation times in nanoseconds, in (path, trace)
    /// order whatever order the workers finished in.
    pub fn trace_ns(&self) -> Vec<u64> {
        let mut timed = self
            .trace_ns
            .lock()
            .expect("trace timing list poisoned")
            .clone();
        timed.sort_unstable();
        timed.into_iter().map(|(_, ns)| ns).collect()
    }

    /// In-memory digests of the regenerated paths, by catalog index.
    pub fn digests(&self) -> BTreeMap<usize, u64> {
        self.digests.lock().expect("digest map poisoned").clone()
    }
}

/// The visitor's side: runs on the calling thread.
pub struct VisitProbe<'a> {
    log: &'a SpanLog,
    root: SpanId,
    layer: &'static str,
    first_start: Option<u64>,
    prev_end: Option<u64>,
    /// Per-shard time (decode + visit) for every shard after the first,
    /// nanoseconds.
    pub shard_ns: Vec<u64>,
}

impl<'a> VisitProbe<'a> {
    /// A probe whose visit spans carry `layer`.
    pub fn new(log: &'a SpanLog, root: SpanId, layer: &'static str) -> Self {
        VisitProbe {
            log,
            root,
            layer,
            first_start: None,
            prev_end: None,
            shard_ns: Vec::new(),
        }
    }

    /// Times one visit; `f` receives the visit span for its children.
    pub fn time_visit<R>(&mut self, f: impl FnOnce(SpanId) -> R) -> R {
        let start = now_ns();
        match self.prev_end {
            Some(prev) => {
                self.log
                    .push("decode", "testbed.data", Some(self.root), prev, start);
            }
            None => self.first_start = Some(start),
        }
        let span = self
            .log
            .push("visit", self.layer, Some(self.root), start, start);
        let out = f(span);
        let end = now_ns();
        self.log.close_at(span, end);
        if let Some(prev) = self.prev_end {
            self.shard_ns.push(end.saturating_sub(prev));
        }
        self.prev_end = Some(end);
        out
    }
}

/// Reconstructs the classify, fan-out, write and return spans of one
/// walk that ran from `t0` to `t_end` (see the module docs). `workers`
/// is the fan-out's configured worker count.
pub fn finish_walk(
    log: &SpanLog,
    root: SpanId,
    t0: u64,
    t_end: u64,
    gen: Option<&GenProbe<'_>>,
    visits: &VisitProbe<'_>,
    workers: usize,
) {
    if !log.enabled() {
        return;
    }
    let main_lane = lane();
    let visits_start = visits.first_start.unwrap_or(t_end);
    let fanout = gen.and_then(|g| g.fanout.get().copied());
    log.edit(|spans| {
        let mut classify_end = visits_start;
        if let Some(fan) = fanout {
            let kids: Vec<SpanId> = (0..spans.len())
                .filter(|&i| spans[i].parent == Some(fan))
                .collect();
            let fan_start = kids
                .iter()
                .map(|&k| spans[k].start_ns)
                .min()
                .unwrap_or(visits_start);
            let width = workers.clamp(1, kids.len().max(1)) as u32;
            spans[fan].lane = main_lane;
            spans[fan].start_ns = fan_start;
            spans[fan].end_ns = visits_start.max(fan_start);
            spans[fan].width = width;
            classify_end = fan_start;
            // Encode + write gaps between consecutive regenerations on
            // one lane.
            let mut by_lane: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            for &k in &kids {
                by_lane
                    .entry(spans[k].lane)
                    .or_default()
                    .push((spans[k].start_ns, spans[k].end_ns));
            }
            for (worker_lane, mut runs) in by_lane {
                runs.sort_unstable();
                for pair in runs.windows(2) {
                    spans.push(Span {
                        name: "write_shard",
                        layer: "testbed.data",
                        lane: worker_lane,
                        start_ns: pair[0].1,
                        end_ns: pair[1].0.max(pair[0].1),
                        parent: Some(fan),
                        width: 1,
                    });
                }
            }
        }
        spans.push(Span {
            name: "classify",
            layer: "testbed.data",
            lane: main_lane,
            start_ns: t0,
            end_ns: classify_end.max(t0),
            parent: Some(root),
            width: 1,
        });
        if let Some(prev) = visits.prev_end {
            spans.push(Span {
                name: "return",
                layer: "testbed.data",
                lane: main_lane,
                start_ns: prev,
                end_ns: t_end.max(prev),
                parent: Some(root),
                width: 1,
            });
        }
    });
}
