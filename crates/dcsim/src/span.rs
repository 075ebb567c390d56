//! Causal span tracing over virtual time.
//!
//! A [`Span`] is one named interval of simulated time attributed to a
//! component (a node, the scheduler, the network fabric), optionally
//! linked to a parent span, carrying free-form key/value attributes.
//! Spans are collected by a [`Tracer`] sink while a simulation runs and
//! frozen into a [`Trace`] afterwards.
//!
//! Because the simulator is deterministic — virtual clock, seeded RNG,
//! FIFO event ties — the same seed produces the *byte-identical* trace
//! export every run. That makes the tracer a correctness tool: tests
//! assert on span counts and shapes, not just aggregate numbers.
//!
//! Two exports are provided, both hand-rolled on std only:
//!
//! * [`Trace::to_chrome_json`] — Chrome `trace_event` JSON, loadable in
//!   Perfetto or `chrome://tracing`. One track (tid) per component.
//! * [`Trace::critical_path_summary`] — plain-text "top stall
//!   contributors" over the job's critical path, computed from the span
//!   tree (task spans link to their producers via the `deps` attribute).
//!
//! # Well-formedness
//!
//! A finished [`Trace`] maintains, and [`Trace::validate`] checks:
//!
//! 1. span ids are unique and strictly increasing in storage order;
//! 2. every parent id exists, and a parent is always opened before its
//!    children (`parent.id < child.id`);
//! 3. `end >= start` for every span;
//! 4. child intervals nest inside their parent's interval;
//! 5. spans are canonically ordered by `(start, id)`, so per-component
//!    timestamps are monotone.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Identifier of one span within a trace. Real spans start at 1;
/// [`SpanId::NONE`] is the sentinel handed out by a disabled tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Sentinel id returned when tracing is disabled.
    pub const NONE: SpanId = SpanId(0);

    /// True if this is the disabled-tracer sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Span taxonomy. The category drives the `cat` field of the Chrome
/// export and the grouping of the critical-path summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Whole-job root span.
    Job,
    /// Per-task umbrella span (dispatch through output durability).
    Task,
    /// Scheduler decision + control message delivering a task to a node.
    Dispatch,
    /// Task sitting ready but not running (slot or input waits).
    Wait,
    /// Task executing on a device.
    Run,
    /// One future-resolution round trip (pull or push).
    Resolve,
    /// A single control-plane message hop.
    Control,
    /// A data transfer.
    Data,
    /// Memory-tier read or write.
    TierAccess,
    /// Demotion of bytes to a colder tier.
    Spill,
    /// Replica write for fault tolerance.
    Replicate,
    /// Erasure-coded shard write.
    EcWrite,
    /// Lineage-based re-execution of a lost output.
    Recovery,
    /// Sandbox/runtime cold start before first execution.
    ColdStart,
    /// Placement decision (candidates considered, choice made).
    Placement,
    /// Autoscaler provisioning or retiring devices.
    Autoscale,
    /// Control-plane failover: scheduler election + state reconstruction.
    Election,
}

impl Category {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Job => "job",
            Category::Task => "task",
            Category::Dispatch => "dispatch",
            Category::Wait => "wait",
            Category::Run => "run",
            Category::Resolve => "resolve",
            Category::Control => "control",
            Category::Data => "data",
            Category::TierAccess => "tier",
            Category::Spill => "spill",
            Category::Replicate => "replicate",
            Category::EcWrite => "ec",
            Category::Recovery => "recovery",
            Category::ColdStart => "coldstart",
            Category::Placement => "placement",
            Category::Autoscale => "autoscale",
            Category::Election => "election",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One traced interval of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub component: String,
    pub category: Category,
    pub start: SimTime,
    pub end: SimTime,
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Looks up an attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Collects spans during a simulation run.
///
/// A disabled tracer costs one branch per call and records nothing,
/// handing out [`SpanId::NONE`] so instrumentation sites need no
/// conditionals of their own.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// Creates a tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// True if spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Records a complete span in one call.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: &str,
        component: &str,
        category: Category,
        parent: Option<SpanId>,
        start: SimTime,
        end: SimTime,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.alloc();
        self.spans.push(Span {
            id,
            parent: parent.filter(|p| !p.is_none()),
            name: name.to_string(),
            component: component.to_string(),
            category,
            start,
            end,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
        id
    }

    /// Opens a span whose end is not yet known (placeholder `end =
    /// start`); close it with [`Tracer::close`]. Opening before children
    /// keeps parent ids smaller than child ids.
    pub fn open(
        &mut self,
        name: &str,
        component: &str,
        category: Category,
        parent: Option<SpanId>,
        start: SimTime,
    ) -> SpanId {
        self.span(name, component, category, parent, start, start, &[])
    }

    /// Sets the end time of an open span. No-op for the disabled
    /// sentinel; panics on an unknown real id (an instrumentation bug).
    pub fn close(&mut self, id: SpanId, end: SimTime) {
        if id.is_none() {
            return;
        }
        let s = self.get_mut(id);
        debug_assert!(end >= s.start, "span {id} closed before it started");
        s.end = s.end.max(end);
    }

    /// Appends an attribute to an already-recorded span.
    pub fn attr(&mut self, id: SpanId, key: &str, value: &str) {
        if id.is_none() {
            return;
        }
        self.get_mut(id)
            .attrs
            .push((key.to_string(), value.to_string()));
    }

    /// Extends a span's interval to cover `end` (used when late children
    /// — e.g. replica writes landing after task finish — must stay
    /// nested).
    pub fn cover(&mut self, id: SpanId, end: SimTime) {
        self.close(id, end);
    }

    /// Latest end time across recorded spans (`SimTime::ZERO` when
    /// empty). Useful for closing a root span over all its children.
    pub fn latest_end(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn alloc(&mut self) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        id
    }

    fn get_mut(&mut self, id: SpanId) -> &mut Span {
        // Ids are dense from 1 in emission order.
        self.spans
            .get_mut((id.0 - 1) as usize)
            .unwrap_or_else(|| panic!("unknown span id {id}"))
    }

    /// Freezes the tracer into a canonically-ordered [`Trace`].
    pub fn finish(self) -> Trace {
        let mut spans = self.spans;
        spans.sort_by_key(|s| (s.start, s.id));
        Trace { spans }
    }
}

/// An immutable, canonically-ordered collection of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// All spans, ordered by `(start, id)`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans in a category.
    pub fn count_category(&self, category: Category) -> usize {
        self.spans.iter().filter(|s| s.category == category).count()
    }

    /// Checks the well-formedness contract (see module docs). Returns a
    /// description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut by_id: BTreeMap<SpanId, &Span> = BTreeMap::new();
        for s in &self.spans {
            if s.id.is_none() {
                return Err(format!("span {:?} has the sentinel id", s.name));
            }
            if by_id.insert(s.id, s).is_some() {
                return Err(format!("duplicate span id {}", s.id));
            }
            if s.end < s.start {
                return Err(format!(
                    "span {} ({}) ends {} before it starts {}",
                    s.id, s.name, s.end, s.start
                ));
            }
        }
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = by_id.get(&p).ok_or_else(|| {
                    format!("span {} ({}) has missing parent {}", s.id, s.name, p)
                })?;
                if parent.id >= s.id {
                    return Err(format!(
                        "span {} ({}) opened before its parent {}",
                        s.id, s.name, p
                    ));
                }
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        s.id,
                        s.name,
                        s.start,
                        s.end,
                        parent.id,
                        parent.name,
                        parent.start,
                        parent.end
                    ));
                }
            }
        }
        let mut last: Option<(SimTime, SpanId)> = None;
        for s in &self.spans {
            let key = (s.start, s.id);
            if let Some(prev) = last {
                if key < prev {
                    return Err(format!(
                        "trace not canonically ordered at span {} ({})",
                        s.id, s.name
                    ));
                }
            }
            last = Some(key);
        }
        // Canonical order implies per-component monotone starts; check
        // the stated property directly anyway.
        let mut per_component: BTreeMap<&str, SimTime> = BTreeMap::new();
        for s in &self.spans {
            let entry = per_component.entry(&s.component).or_insert(s.start);
            if s.start < *entry {
                return Err(format!(
                    "component {} timestamps not monotone at span {}",
                    s.component, s.id
                ));
            }
            *entry = s.start;
        }
        Ok(())
    }

    /// Serializes to Chrome `trace_event` JSON (the "JSON Array Format"
    /// wrapped in an object), loadable in Perfetto and
    /// `chrome://tracing`. Timestamps are microseconds with nanosecond
    /// precision; each component gets its own thread track.
    pub fn to_chrome_json(&self) -> String {
        let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            let next = tids.len() as u64 + 1;
            tids.entry(&s.component).or_insert(next);
        }
        let mut out = String::with_capacity(128 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"skadi-sim\"}}",
        );
        // Components sorted by tid for a stable, readable track order.
        let mut by_tid: Vec<(&str, u64)> = tids.iter().map(|(c, t)| (*c, *t)).collect();
        by_tid.sort_by_key(|(_, t)| *t);
        for (component, tid) in &by_tid {
            out.push_str(&format!(
                ",{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(component)
            ));
        }
        for s in &self.spans {
            let tid = tids[s.component.as_str()];
            out.push_str(&format!(
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span_id\":{}",
                escape_json(&s.name),
                s.category.as_str(),
                format_us(s.start.as_nanos()),
                format_us(s.duration().as_nanos()),
                s.id
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            for (k, v) in &s.attrs {
                out.push_str(&format!(",\"{}\":\"{}\"", escape_json(k), escape_json(v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Walks the critical path: starting from the latest-finishing task
    /// span, repeatedly steps to the latest-finishing producer named in
    /// the task's `deps` attribute. Returns spans in execution order.
    pub fn critical_path(&self) -> Vec<&Span> {
        let tasks: BTreeMap<&str, &Span> = self
            .spans
            .iter()
            .filter(|s| s.category == Category::Task)
            .filter_map(|s| s.attr("task").map(|t| (t, s)))
            .collect();
        let mut cur = match tasks.values().max_by_key(|s| (s.end, s.id)) {
            Some(s) => *s,
            None => return Vec::new(),
        };
        let mut path = vec![cur];
        for _ in 0..tasks.len() {
            let next = cur
                .attr("deps")
                .into_iter()
                .flat_map(|d| d.split(','))
                .filter(|d| !d.is_empty())
                .filter_map(|d| tasks.get(d).copied())
                .max_by_key(|s| (s.end, s.id));
            match next {
                Some(s) => {
                    path.push(s);
                    cur = s;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// Plain-text per-job critical-path summary: the top `top` stall
    /// contributors (non-`Run` child spans of tasks on the critical
    /// path), grouped by span name.
    pub fn critical_path_summary(&self, top: usize) -> String {
        let path = self.critical_path();
        if path.is_empty() {
            return "critical path: no task spans in trace\n".to_string();
        }
        let on_path: Vec<SpanId> = path.iter().map(|s| s.id).collect();
        let mut compute = SimDuration::ZERO;
        let mut stalls: BTreeMap<&str, (SimDuration, usize)> = BTreeMap::new();
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            if !on_path.contains(&p) {
                continue;
            }
            if s.category == Category::Run {
                compute += s.duration();
            } else {
                let e = stalls.entry(&s.name).or_insert((SimDuration::ZERO, 0));
                e.0 += s.duration();
                e.1 += 1;
            }
        }
        let first = path.first().expect("non-empty path");
        let last = path.last().expect("non-empty path");
        let span_time = last.end.saturating_since(first.start);
        let stall_total: SimDuration = stalls.values().map(|(d, _)| *d).sum();
        let mut ranked: Vec<(&str, SimDuration, usize)> =
            stalls.iter().map(|(n, (d, c))| (*n, *d, *c)).collect();
        ranked.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {} tasks ({}), end-to-end {}, compute {}, stalls {}\n",
            path.len(),
            path.iter()
                .filter_map(|s| s.attr("task"))
                .collect::<Vec<_>>()
                .join(" -> "),
            span_time,
            compute,
            stall_total,
        ));
        out.push_str(&format!(
            "top {} stall contributors:\n",
            top.min(ranked.len())
        ));
        for (name, dur, count) in ranked.iter().take(top) {
            let pct = if stall_total > SimDuration::ZERO {
                dur.as_nanos() as f64 * 100.0 / stall_total.as_nanos() as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {name:<20} {dur:>12}  {pct:5.1}%  ({count} spans)\n"
            ));
        }
        out
    }
}

/// Formats nanoseconds as a microsecond value with up to three decimal
/// places and no trailing zeros (keeps exports compact and byte-stable).
fn format_us(nanos: u64) -> String {
    let whole = nanos / 1_000;
    let frac = nanos % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:03}");
        s.trim_end_matches('0').to_string()
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON well-formedness check (std-only), used by tests and the
/// CLI to sanity-check exports. Accepts exactly the RFC 8259 grammar;
/// returns false on trailing garbage.
pub fn json_is_wellformed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0;
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') || !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6);
                    match hex {
                        Some(h) if h.iter().all(u8::is_ascii_hexdigit) => *pos += 6,
                        _ => return false,
                    }
                }
                _ => return false,
            },
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == digits_start {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.span("x", "c", Category::Run, None, t(0), t(1), &[]);
        assert!(id.is_none());
        tr.close(id, t(5));
        tr.attr(id, "k", "v");
        assert!(tr.is_empty());
        assert!(tr.finish().is_empty());
    }

    #[test]
    fn open_close_and_nesting() {
        let mut tr = Tracer::new(true);
        let root = tr.open("job", "driver", Category::Job, None, t(0));
        let child = tr.span(
            "task.run",
            "node-1",
            Category::Run,
            Some(root),
            t(2),
            t(8),
            &[("task", "a")],
        );
        tr.close(root, t(10));
        let trace = tr.finish();
        assert_eq!(trace.len(), 2);
        trace.validate().expect("well-formed");
        let s = &trace.spans()[1];
        assert_eq!(s.id, child);
        assert_eq!(s.attr("task"), Some("a"));
        assert_eq!(s.duration(), SimDuration::from_micros(6));
    }

    #[test]
    fn validate_catches_missing_parent() {
        let mut tr = Tracer::new(true);
        tr.span("x", "c", Category::Run, Some(SpanId(99)), t(0), t(1), &[]);
        let err = tr.finish().validate().unwrap_err();
        assert!(err.contains("missing parent"), "{err}");
    }

    #[test]
    fn validate_catches_escaping_child() {
        let mut tr = Tracer::new(true);
        let p = tr.span("p", "c", Category::Task, None, t(5), t(10), &[]);
        tr.span("kid", "c", Category::Run, Some(p), t(4), t(9), &[]);
        let err = tr.finish().validate().unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn canonical_order_sorts_by_start_then_id() {
        let mut tr = Tracer::new(true);
        tr.span("late", "c", Category::Run, None, t(9), t(10), &[]);
        tr.span("early", "c", Category::Run, None, t(1), t(2), &[]);
        let trace = tr.finish();
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["early", "late"]);
        trace.validate().expect("well-formed");
    }

    #[test]
    fn chrome_export_is_wellformed_json() {
        let mut tr = Tracer::new(true);
        let root = tr.open("job", "driver", Category::Job, None, t(0));
        for i in 0..20 {
            tr.span(
                "task.run",
                &format!("node-{}", i % 3),
                Category::Run,
                Some(root),
                t(i),
                t(i + 1),
                &[("task", &format!("t{i}")), ("quote", "a\"b")],
            );
        }
        tr.close(root, t(30));
        let json = tr.finish().to_chrome_json();
        assert!(json_is_wellformed(&json), "bad JSON: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("a\\\"b"));
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let build = || {
            let mut tr = Tracer::new(true);
            let root = tr.open("job", "driver", Category::Job, None, t(0));
            let a = tr.span("task.run", "n1", Category::Run, Some(root), t(1), t(4), &[]);
            tr.attr(a, "task", "a");
            tr.close(root, t(5));
            tr.finish().to_chrome_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn critical_path_follows_deps() {
        let mut tr = Tracer::new(true);
        let a = tr.span(
            "task",
            "n1",
            Category::Task,
            None,
            t(0),
            t(10),
            &[("task", "a"), ("deps", "")],
        );
        tr.span("task.run", "n1", Category::Run, Some(a), t(1), t(10), &[]);
        let b = tr.span(
            "task",
            "n2",
            Category::Task,
            None,
            t(10),
            t(30),
            &[("task", "b"), ("deps", "a")],
        );
        tr.span(
            "task.wait",
            "n2",
            Category::Wait,
            Some(b),
            t(10),
            t(18),
            &[],
        );
        tr.span("task.run", "n2", Category::Run, Some(b), t(18), t(30), &[]);
        let trace = tr.finish();
        let path: Vec<&str> = trace
            .critical_path()
            .iter()
            .filter_map(|s| s.attr("task"))
            .collect();
        assert_eq!(path, vec!["a", "b"]);
        let summary = trace.critical_path_summary(5);
        assert!(summary.contains("2 tasks (a -> b)"), "{summary}");
        assert!(summary.contains("task.wait"), "{summary}");
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert!(json_is_wellformed("{}"));
        assert!(json_is_wellformed("[1, 2.5, -3e4, \"x\\n\", true, null]"));
        assert!(json_is_wellformed("{\"a\":{\"b\":[{}]}}"));
        assert!(!json_is_wellformed("{"));
        assert!(!json_is_wellformed("{\"a\":}"));
        assert!(!json_is_wellformed("[1,]"));
        assert!(!json_is_wellformed("{} extra"));
        assert!(!json_is_wellformed("\"unterminated"));
    }

    #[test]
    fn format_us_trims_zeros() {
        assert_eq!(super::format_us(0), "0");
        assert_eq!(super::format_us(1_000), "1");
        assert_eq!(super::format_us(1_500), "1.5");
        assert_eq!(super::format_us(1_234), "1.234");
        assert_eq!(super::format_us(999), "0.999");
    }
}
