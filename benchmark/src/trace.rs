//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written as Chrome `trace_event` JSON
//! when the run ends. A layer's self time is its span minus the part of
//! that interval its child spans cover.

use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The query class (or `sim`) the request belongs to.
    pub class: &'static str,
    /// Spans of one replayed request share this number.
    pub request: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sums over the spans of one name within one class.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotal {
    pub class: &'static str,
    pub name: &'static str,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    class: &'static str,
    request: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            class: "",
            request: 0,
        }
    }

    /// The instant span times count from, for spans recorded elsewhere.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next request; spans opened from now on carry its
    /// number and `class`.
    pub fn begin_request(&mut self, class: &'static str) {
        self.request += 1;
        self.class = class;
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(name, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a finished span, for durations a layer measured itself.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            class: self.class,
            request: self.request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times one call as a leaf span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = call();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, by span id.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                children[p].push((lo, hi));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                // Children may overlap (shards run on two threads): count
                // the union of their intervals once.
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    covered += hi.saturating_sub(lo.max(reach));
                    reach = reach.max(hi);
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time and duration summed per `(class, span name)`, in order of
    /// first appearance.
    pub fn by_name(&self) -> Vec<NameTotal> {
        let mut out: Vec<NameTotal> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let at = match out
                .iter()
                .position(|t| (t.class, t.name) == (s.class, s.name))
            {
                Some(at) => at,
                None => {
                    out.push(NameTotal {
                        class: s.class,
                        name: s.name,
                        self_ns: 0,
                        total_ns: 0,
                    });
                    out.len() - 1
                }
            };
            out[at].self_ns += own;
            out[at].total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Per request, the time its stages took: the summed durations of the
    /// spans directly under its `request` root, with the request's class.
    /// Stages run one after another on one thread, so they never overlap.
    pub fn staged_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        let mut slot = vec![None; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                None if s.name == "request" => {
                    slot[id] = Some(out.len());
                    out.push((s.class, 0));
                }
                Some(p) => {
                    if let Some(at) = slot[p] {
                        out[at].1 += s.end_ns - s.start_ns;
                    }
                }
                None => {}
            }
        }
        out
    }

    /// Chrome `trace_event` JSON: one complete ("X") event per span, one
    /// process per workload, one thread lane per query class.
    pub fn chrome_events(&self, workload: &str, pid: usize) -> Vec<Json> {
        let mut lanes: Vec<&str> = Vec::new();
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(pid as f64)),
            ("args", Json::obj([("name", Json::str(workload))])),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            let tid = match lanes.iter().position(|c| *c == s.class) {
                Some(t) => t,
                None => {
                    lanes.push(s.class);
                    events.push(Json::obj([
                        ("name", Json::str("thread_name")),
                        ("ph", Json::str("M")),
                        ("pid", Json::Num(pid as f64)),
                        ("tid", Json::Num((lanes.len() - 1) as f64)),
                        ("args", Json::obj([("name", Json::str(s.class))])),
                    ]));
                    lanes.len() - 1
                }
            };
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("request", Json::Num(f64::from(s.request))),
                        ("class", Json::str(s.class)),
                    ]),
                ),
            ]));
        }
        events
    }
}

/// Wraps events of one or more workloads as a Chrome trace document.
pub fn chrome_document(events: Vec<Json>) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new();
        r.begin_request("point");
        let root = r.add("request", None, 0, 100);
        let a = r.add("a", Some(root), 10, 40);
        r.add("a.inner", Some(a), 15, 25);
        // Overlaps `a` by 10 and runs 20 past the parent's end.
        r.add("b", Some(root), 30, 120);
        assert_eq!(r.self_times(), vec![10, 20, 10, 90]);
        let by_name = r.by_name();
        assert_eq!(
            (by_name[0].name, by_name[0].self_ns, by_name[0].total_ns),
            ("request", 10, 100)
        );
        assert_eq!(by_name.len(), 4);
        // `a` and `b` are the stages; `a.inner` is inside one of them.
        assert_eq!(r.staged_ns(), vec![("point", 30 + 90)]);
        r.begin_request("scan");
        r.add("probe", None, 200, 300);
        let second = r.add("request", None, 300, 400);
        r.add("a", Some(second), 310, 350);
        assert_eq!(r.staged_ns(), vec![("point", 120), ("scan", 40)]);
    }

    #[test]
    fn same_name_sums_within_a_class_only() {
        let mut r = Recorder::new();
        r.begin_request("point");
        r.add("ipc.encode", None, 0, 5);
        r.add("ipc.encode", None, 5, 12);
        r.begin_request("scan");
        r.add("ipc.encode", None, 12, 20);
        let totals: Vec<(&str, u64)> = r.by_name().iter().map(|t| (t.class, t.self_ns)).collect();
        assert_eq!(totals, vec![("point", 12), ("scan", 8)]);
    }

    #[test]
    fn chrome_document_has_one_complete_event_per_span() {
        let mut r = Recorder::new();
        r.begin_request("scan");
        let root = r.open("request", None);
        r.time("wire.encode", Some(root), || ());
        r.close(root);
        let doc = chrome_document(r.chrome_events("local_duplex", 1));
        let parsed = Json::parse(&doc.to_string()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[1].get("cat").and_then(Json::as_str), Some("wire"));
        let args = complete[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("request").and_then(Json::as_f64), Some(1.0));
    }
}
