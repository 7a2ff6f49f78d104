//! Spans recorded from the benchmark's own files, and a stamping sink for
//! the product's existing runtime events.
//!
//! Spans carry name, start, end and parent, stay in memory, and are
//! written once at the end as Chrome-trace JSON (`chrome://tracing`,
//! Perfetto). Recording is off unless [`enable`] was called, and the
//! end-to-end numbers always come from runs where it was not.
//!
//! The product's `RuntimeEvent`s carry no timestamps; [`StampingSink`]
//! stamps them on receipt and pairs those that pair: `Post → Deliver` of
//! one object is a message's queue wait, `Prefetch → Load` a look-ahead
//! load's latency. The sink type exists in every build; attaching it
//! needs the product's `audit` feature, which this crate's `trace`
//! feature forwards to.

use crate::json::Value;
use mrts::audit::{EventSink, RuntimeEvent};
use mrts::ids::ObjectId;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    /// `NaN` while the span is open.
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Small per-thread number, in order of first use.
    pub track: u32,
}

struct Collector {
    t0: Instant,
    spans: Vec<Span>,
    tracks: u32,
}

// Relaxed: the flag publishes no data; a thread that misses the switch
// merely skips a span.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();

thread_local! {
    /// Open spans of this thread (innermost last) and its track number.
    static OPEN: RefCell<(Vec<usize>, Option<u32>)> = const { RefCell::new((Vec::new(), None)) };
}

fn collector() -> MutexGuard<'static, Collector> {
    COLLECTOR
        .get_or_init(|| {
            Mutex::new(Collector {
                t0: Instant::now(),
                spans: Vec::new(),
                tracks: 0,
            })
        })
        .lock()
        // A panic while recording leaves at worst one open span: the
        // data is still valid, so keep it.
        .unwrap_or_else(|e| e.into_inner())
}

/// Start recording spans (for the rest of the process).
pub fn enable() {
    drop(collector());
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since recording started.
fn now_us(c: &Collector) -> f64 {
    c.t0.elapsed().as_secs_f64() * 1e6
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<usize>);

/// Open a span on the current thread; a no-op unless recording is on.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let mut c = collector();
    let id = c.spans.len();
    let (parent, track) = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let track = *o.1.get_or_insert_with(|| {
            c.tracks += 1;
            c.tracks
        });
        let parent = o.0.last().copied();
        o.0.push(id);
        (parent, track)
    });
    let start_us = now_us(&c);
    c.spans.push(Span {
        name,
        start_us,
        end_us: f64::NAN,
        parent,
        track,
    });
    SpanGuard(Some(id))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let mut c = collector();
        c.spans[id].end_us = now_us(&c);
        OPEN.with(|o| o.borrow_mut().0.retain(|&open| open != id));
    }
}

/// Every closed span recorded so far.
pub fn snapshot() -> Vec<Span> {
    if COLLECTOR.get().is_none() {
        return Vec::new();
    }
    closed_spans(&collector().spans)
}

/// `all` without its open spans. `parent` indexes the result; a span whose
/// parent is still open becomes a root.
fn closed_spans(all: &[Span]) -> Vec<Span> {
    let mut kept = 0;
    let new_index: Vec<Option<usize>> = all
        .iter()
        .map(|s| {
            s.end_us.is_finite().then(|| {
                kept += 1;
                kept - 1
            })
        })
        .collect();
    all.iter()
        .filter(|s| s.end_us.is_finite())
        .map(|s| Span {
            parent: s.parent.and_then(|p| new_index[p]),
            ..s.clone()
        })
        .collect()
}

/// Self time of each span: its duration minus the part its direct
/// children cover. Indexed like `spans`; parents refer to indices of the
/// same slice.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

// ----- product events -----------------------------------------------------

/// Latency samples and activity counts derived from stamped events.
#[derive(Clone, Debug, Default)]
pub struct EventDigest {
    pub msg_wait_us: Vec<f64>,
    pub load_latency_us: Vec<f64>,
    pub unloads: u64,
    pub elided_unloads: u64,
    pub budget_enforcements: u64,
    pub events: u64,
    /// Paired look-ahead loads as `(node, start_us, end_us)`, capped.
    pub load_spans: Vec<(u16, f64, f64)>,
}

/// Keep the trace file loadable: beyond this many load spans only the
/// latency samples are kept.
const MAX_LOAD_SPANS: usize = 20_000;

#[derive(Default)]
struct SinkState {
    posted: HashMap<ObjectId, VecDeque<f64>>,
    prefetched: HashMap<ObjectId, f64>,
    digest: EventDigest,
}

/// An `EventSink` that timestamps the product's events on receipt.
pub struct StampingSink {
    t0: Instant,
    state: Mutex<SinkState>,
}

impl StampingSink {
    /// `t0` should be the collector's origin so product events and harness
    /// spans share one time axis; [`StampingSink::aligned`] does that.
    pub fn new(t0: Instant) -> StampingSink {
        StampingSink {
            t0,
            state: Mutex::new(SinkState::default()),
        }
    }

    pub fn aligned() -> StampingSink {
        StampingSink::new(collector().t0)
    }

    pub fn digest(&self) -> EventDigest {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .digest
            .clone()
    }
}

impl EventSink for StampingSink {
    fn record(&self, ev: &RuntimeEvent) {
        let t = self.t0.elapsed().as_secs_f64() * 1e6;
        // Poison: a worker panicked mid-record; the samples so far stand.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.digest.events += 1;
        match *ev {
            RuntimeEvent::Post { oid, .. } => st.posted.entry(oid).or_default().push_back(t),
            RuntimeEvent::Deliver { oid, .. } => {
                if let Some(t_post) = st.posted.get_mut(&oid).and_then(VecDeque::pop_front) {
                    st.digest.msg_wait_us.push(t - t_post);
                }
            }
            RuntimeEvent::Prefetch { oid, .. } => {
                st.prefetched.insert(oid, t);
            }
            RuntimeEvent::Load { node, oid, .. } => {
                if let Some(t_issue) = st.prefetched.remove(&oid) {
                    st.digest.load_latency_us.push(t - t_issue);
                    if st.digest.load_spans.len() < MAX_LOAD_SPANS {
                        st.digest.load_spans.push((node, t_issue, t));
                    }
                }
            }
            RuntimeEvent::Unload { .. } => st.digest.unloads += 1,
            RuntimeEvent::ElidedUnload { .. } => st.digest.elided_unloads += 1,
            RuntimeEvent::Budget { enforced: true, .. } => st.digest.budget_enforcements += 1,
            _ => {}
        }
    }
}

// ----- export -----------------------------------------------------------------

/// Render spans and paired load events as a Chrome-trace document.
pub fn chrome_trace(workload: &str, spans: &[Span], events: &EventDigest) -> Value {
    let own = self_times_us(spans);
    let mut out = Vec::with_capacity(spans.len() + events.load_spans.len());
    for (i, s) in spans.iter().enumerate() {
        let mut args = Value::obj();
        args.set("id", i)
            .set("workload", workload)
            .set("self_us", own[i]);
        if let Some(p) = s.parent {
            args.set("parent", p);
        }
        let mut e = Value::obj();
        e.set("name", s.name)
            .set("ph", "X")
            .set("ts", s.start_us)
            .set("dur", s.end_us - s.start_us)
            .set("pid", 1u64)
            .set("tid", u64::from(s.track))
            .set("args", args);
        out.push(e);
    }
    for &(node, start, end) in &events.load_spans {
        let mut args = Value::obj();
        args.set("workload", workload);
        let mut e = Value::obj();
        e.set("name", "mrts.prefetch_to_load")
            .set("ph", "X")
            .set("ts", start)
            .set("dur", end - start)
            .set("pid", 2u64)
            .set("tid", u64::from(node))
            .set("args", args);
        out.push(e);
    }
    let mut doc = Value::obj();
    doc.set("traceEvents", out).set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts::ids::ObjectId;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        enable();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let spans = snapshot();
        // Other tests may record spans too; find ours by name.
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = spans.iter().position(|s| s.name == "inner").unwrap();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        let own = self_times_us(&spans);
        let dur = |i: usize| spans[i].end_us - spans[i].start_us;
        assert!(dur(outer) >= dur(inner));
        assert!((own[outer] - (dur(outer) - dur(inner))).abs() < 1e-6);
        assert!(own[inner] >= 3_000.0);
        let doc = chrome_trace("w", &spans, &EventDigest::default());
        let text = doc.render();
        assert!(text.contains("\"outer\"") && text.contains("\"self_us\""));
        crate::json::parse(&text).unwrap();
    }

    #[test]
    fn dropping_open_spans_remaps_parents() {
        let s = |name, end_us, parent| Span {
            name,
            start_us: 0.0,
            end_us,
            parent,
            track: 1,
        };
        // 0 is still open; 2 is its child, 3 is 1's child.
        let all = [
            s("open", f64::NAN, None),
            s("a", 9.0, None),
            s("orphan", 2.0, Some(0)),
            s("a.child", 4.0, Some(1)),
        ];
        let closed = closed_spans(&all);
        let names: Vec<_> = closed.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "orphan", "a.child"]);
        assert_eq!(closed[1].parent, None);
        assert_eq!(closed[2].parent, Some(0));
        assert_eq!(self_times_us(&closed), [5.0, 2.0, 4.0]);
    }

    #[test]
    fn sink_pairs_posts_with_deliveries_and_prefetches_with_loads() {
        let sink = StampingSink::new(Instant::now());
        let a = ObjectId::new(0, 1);
        let b = ObjectId::new(1, 2);
        sink.record(&RuntimeEvent::Post { node: 0, oid: a });
        sink.record(&RuntimeEvent::Post { node: 0, oid: a });
        sink.record(&RuntimeEvent::Deliver { node: 0, oid: a });
        sink.record(&RuntimeEvent::Deliver { node: 0, oid: b }); // never posted
        sink.record(&RuntimeEvent::Prefetch {
            node: 1,
            oid: b,
            inflight_objects: 1,
            window_objects: 4,
            inflight_bytes: 10,
            window_bytes: 100,
        });
        sink.record(&RuntimeEvent::Load {
            node: 1,
            oid: b,
            footprint: 10,
        });
        sink.record(&RuntimeEvent::Load {
            node: 1,
            oid: a, // demand load: no Prefetch to pair with
            footprint: 10,
        });
        sink.record(&RuntimeEvent::Unload {
            node: 1,
            oid: a,
            footprint: 10,
        });
        let d = sink.digest();
        assert_eq!(d.msg_wait_us.len(), 1);
        assert_eq!(d.load_latency_us.len(), 1);
        assert_eq!(d.load_spans.len(), 1);
        assert_eq!((d.unloads, d.elided_unloads, d.events), (1, 0, 8));
        assert!(d.msg_wait_us[0] >= 0.0 && d.load_latency_us[0] >= 0.0);
    }
}
