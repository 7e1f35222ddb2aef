//! The benchmark's own span recorder: spans are opened and closed
//! around the calls into each layer, kept in memory, and written as
//! Chrome trace-event JSON when the run ends. Nothing inside the
//! program is hooked; `DSK_TRACE` stays off.

use std::fmt::Write as _;

use crate::epoch::now_s;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Process-clock seconds ([`now_s`]).
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Trial the span belongs to (its request identifier).
    pub trial: usize,
    /// Counts taken at the same boundary (phase walls, words, ...).
    pub counts: Vec<(String, f64)>,
}

#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    open: Vec<usize>,
    trial: usize,
}

impl Recorder {
    pub fn set_trial(&mut self, trial: usize) {
        self.trial = trial;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &str) -> usize {
        let parent = self.open.last().copied();
        let id = self.add(parent, name, now_s(), f64::NAN, Vec::new());
        self.open.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without an open span");
        self.spans[id].end = now_s();
    }

    /// Record an already-measured span (rank 0's in-epoch stamps, which
    /// come back in the outcome value) under `parent`.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: f64,
        end: f64,
        counts: Vec<(String, f64)>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            trial: self.trial,
            counts,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start - children).max(0.0)
    }

    /// Total duration of the spans named `name` within `trial`.
    pub fn total(&self, name: &str, trial: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.trial == trial)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing):
    /// one complete event per span on a single track, nested by time,
    /// with parent, trial, self time and counts as arguments.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"dsk-benchmark {workload}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("", |p| self.spans[p].name.as_str());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":\"{parent}\",\
                 \"trial\":{},\"self_us\":{:.3}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.trial,
                self.self_time(id) * 1e6,
            );
            for (k, v) in s.counts.iter().filter(|(_, v)| v.is_finite()) {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
