//! In-memory span recording for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (nothing inside the program is instrumented). Each span has a
//! name (`layer.operation`), start, end and parent. A disabled tracer
//! records nothing, so untraced rounds pay one branch per call.

use std::time::Instant;

use cellsync_wire::Json;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span (`None` when the tracer is disabled).
pub type SpanId = Option<usize>;

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only while enabled.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (used to alternate traced and
    /// untraced rounds when measuring the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the tracer currently records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// A disabled tracer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin, false)
    }

    /// Moves another thread's spans into this tracer; its root spans
    /// become children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            s
        }));
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its children cover, summed over spans of the layer
    /// (the name up to the first `.`). Children of one span do not
    /// overlap except across client threads, whose spans are clamped
    /// so self time never goes negative.
    pub fn self_ms_by_layer(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut layers: Vec<(String, f64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(*children);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            match layers.iter_mut().find(|(l, _)| l == layer) {
                Some((_, ms)) => *ms += own as f64 / 1e6,
                None => layers.push((layer.to_string(), own as f64 / 1e6)),
            }
        }
        layers.sort_by(|a, b| a.0.cmp(&b.0));
        layers
    }

    /// The trace document written at the end of a traced run.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        let self_ms = self
            .self_ms_by_layer()
            .into_iter()
            .map(|(layer, ms)| (layer, Json::Num(ms)))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("self_ms".into(), Json::Obj(self_ms)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}
