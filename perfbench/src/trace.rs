//! Span recording for the traced run.
//!
//! Spans are opened and closed around calls into each layer from the
//! benchmark's own code: a root span per client request, a child per
//! generator call and per `KvStore` / `Txn` call, plus spans around epoch
//! checkpoints, reopenings and WAL recovery. Each span has a name, start,
//! end, parent span and request id. Memory stays bounded: every span
//! feeds a per-name aggregate (count, total time, self time = duration
//! minus the time its child spans cover), and only spans of every 256th
//! request — up to [`RAW_CAP`] per recorder — are kept raw. Recorders are
//! per thread and merged when the run ends.

use std::time::Instant;
use txfix_core::json::Json;

/// Raw spans kept per recorder.
pub const RAW_CAP: usize = 4096;
/// Raw spans are kept for requests whose id is a multiple of this.
const SAMPLE_EVERY: u64 = 256;

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    thread: u64,
    next_id: u64,
    stack: Vec<Open>,
    aggs: Vec<(&'static str, Agg)>,
    raw: Vec<Span>,
}

impl Tracer {
    /// A recorder for one thread; span ids are unique per `thread`, and
    /// times are measured from the shared `origin`.
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            thread,
            next_id: 1,
            stack: Vec::with_capacity(8),
            aggs: Vec::new(),
            raw: Vec::with_capacity(RAW_CAP),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) {
        let id = self.thread << 48 | self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open { id, parent, name, request, start_ns, child_ns: 0 });
    }

    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without a matching begin");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = match self.aggs.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, agg)) => agg,
            None => {
                self.aggs.push((open.name, Agg::default()));
                &mut self.aggs.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if open.request.is_multiple_of(SAMPLE_EVERY) && self.raw.len() < RAW_CAP {
            self.raw.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                request: open.request,
                thread: self.thread,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        for (name, a) in other.aggs {
            match self.aggs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, agg)) => {
                    agg.count += a.count;
                    agg.total_ns += a.total_ns;
                    agg.self_ns += a.self_ns;
                }
                None => self.aggs.push((name, a)),
            }
        }
        self.raw.extend(other.raw);
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.iter().find(|(n, _)| *n == name).map(|(_, a)| *a).unwrap_or_default()
    }

    /// Seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.agg(name).total_ns as f64 / 1e9
    }

    pub fn spans(&self) -> u64 {
        self.aggs.iter().map(|(_, a)| a.count).sum()
    }

    pub fn to_json(&self) -> Json {
        let mut aggs: Vec<_> = self.aggs.clone();
        aggs.sort_by_key(|(n, _)| *n);
        let ns = |v: u64| Json::Number(v as f64);
        Json::obj([
            (
                "aggregates",
                Json::list(aggs.iter().map(|(name, a)| {
                    Json::obj([
                        ("name", Json::str(*name)),
                        ("count", Json::int(a.count)),
                        ("total_ns", ns(a.total_ns)),
                        ("self_ns", ns(a.self_ns)),
                    ])
                })),
            ),
            (
                "spans",
                Json::list(self.raw.iter().map(|s| {
                    Json::obj([
                        ("id", Json::int(s.id)),
                        ("parent", Json::int(s.parent)),
                        ("name", Json::str(s.name)),
                        ("request", Json::int(s.request)),
                        ("thread", Json::int(s.thread)),
                        ("start_ns", ns(s.start_ns)),
                        ("end_ns", ns(s.end_ns)),
                    ])
                })),
            ),
        ])
    }
}

/// Run `f` inside a span when tracing, or bare otherwise.
#[inline]
pub fn span<T>(tr: &mut Option<Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            t.begin(name, req);
            let out = f();
            t.end();
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(Instant::now(), 1);
        tr.begin("outer", 0);
        tr.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        tr.end();
        tr.end();
        let (outer, inner) = (tr.agg("outer"), tr.agg("inner"));
        assert!(inner.total_ns >= 5_000_000 && outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(tr.spans(), 2);
        assert_eq!(tr.raw[0].parent, tr.raw[1].id, "inner closes first and names outer");
    }
}
