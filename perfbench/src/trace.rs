//! Host-clock spans around each layer call the benchmark makes.
//!
//! Every pass times its layers through one [`Clock`]. An untraced pass
//! keeps only what `setup_s`, `run_s` and `total_s` need and drops its
//! spans when the pass ends; a traced pass also attaches counts and keeps
//! its spans in memory until the run writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed layer call.
#[derive(Debug)]
struct Span {
    /// Layer name, `<module>.<stage>`.
    name: &'static str,
    /// Pass this span belongs to.
    pass: u32,
    /// Index of the enclosing span in the same clock, if any.
    parent: Option<usize>,
    /// Start, in nanoseconds since the clock was created.
    start_ns: u64,
    /// End, in nanoseconds since the clock was created.
    end_ns: u64,
    /// Counts recorded at this boundary (traced passes only).
    counts: Vec<(&'static str, f64)>,
}

impl Span {
    fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle to an open span, returned by [`Clock::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Span recorder for a whole run.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    pass_start: usize,
    traced: bool,
    /// Machine-speed scale of each ended pass, by pass number (see
    /// [`crate::speed`]).
    scales: Vec<f64>,
}

impl Clock {
    /// A clock with no spans.
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            pass_start: 0,
            traced: false,
            scales: Vec::new(),
        }
    }

    /// Begin pass `pass`; `traced` decides whether its spans are kept and
    /// whether counts are recorded.
    pub fn begin_pass(&mut self, pass: u32, traced: bool) {
        self.open.clear();
        self.pass = pass;
        self.pass_start = self.spans.len();
        self.traced = traced;
    }

    /// Whether the current pass is traced.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// End the current pass, whose host timings scale by `scale` to
    /// reference-machine seconds. The spans of an untraced or failed pass
    /// are dropped; a failed pass may have left spans open.
    pub fn end_pass(&mut self, ok: bool, scale: f64) {
        self.open.clear();
        debug_assert_eq!(self.scales.len(), self.pass as usize, "passes are numbered 0, 1, …");
        self.scales.push(scale);
        if !self.traced || !ok {
            self.spans.truncate(self.pass_start);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent,
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        // Stamp last, so the bookkeeping above is not inside the span.
        self.spans[id].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn close(&mut self, span: SpanId) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = end;
    }

    /// Attach a count to `span` (a no-op on an untraced pass).
    pub fn count(&mut self, span: SpanId, key: &'static str, value: f64) {
        if self.traced {
            self.spans[span.0].counts.push((key, value));
        }
    }

    /// Summed duration of the current pass's spans named `name`, in
    /// seconds (0 when there is none).
    pub fn pass_total_s(&self, name: &str) -> f64 {
        self.spans[self.pass_start..].iter().filter(|s| s.name == name).map(Span::dur_s).sum()
    }

    /// Self time of every span of every kept pass, summed per pass and
    /// layer and scaled to reference-machine seconds: a span's duration
    /// minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut per_pass: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let scale = self.scales.get(s.pass as usize).copied().unwrap_or(1.0);
            *per_pass.entry((s.name, s.pass)).or_default() += (s.dur_s() - child_s[i]) * scale;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), v) in per_pass {
            out.entry(name).or_default().push(v);
        }
        out
    }

    /// The kept spans as JSON lines, in raw host nanoseconds, each with
    /// its pass's scale to reference-machine time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let scale = self.scales.get(s.pass as usize).copied().unwrap_or(1.0);
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"scale\":{scale},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.name, s.pass, s.start_ns, s.end_ns
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}
