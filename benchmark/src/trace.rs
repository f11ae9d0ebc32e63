//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's own files only (the library is
//! untouched), kept in per-thread buffers while a rep runs, and written to
//! `out/trace-<workload>.json` when the run ends.  A disabled buffer costs
//! one branch per call site, and end-to-end metrics always come from runs
//! with every buffer disabled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No span": the parent of a root span, and the token a disabled or full
/// buffer hands out.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `concurrent.commit`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, or [`NO_SPAN`].
    pub parent: u32,
    /// The rep the span belongs to: spans of one rep share it.
    pub rep: u32,
    /// The client thread that recorded it.
    pub thread: u32,
}

/// A per-thread span buffer with stack-discipline nesting.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    enabled: bool,
    rep: u32,
    thread: u32,
    cap: usize,
    open: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer that records nothing.
    pub fn off() -> Self {
        SpanBuf {
            origin: Instant::now(),
            enabled: false,
            rep: 0,
            thread: 0,
            cap: 0,
            open: NO_SPAN,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording buffer for `thread` in `rep`, holding at most `cap`
    /// spans (further spans are counted as dropped, not recorded).
    pub fn on(origin: Instant, rep: u32, thread: u32, cap: usize) -> Self {
        SpanBuf {
            origin,
            enabled: true,
            rep,
            thread,
            cap,
            open: NO_SPAN,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
        }
    }

    /// `true` iff this buffer records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A sibling buffer for another thread of the same rep.
    pub fn fork(&self, thread: u32) -> Self {
        if self.enabled {
            SpanBuf::on(self.origin, self.rep, thread, self.cap)
        } else {
            SpanBuf::off()
        }
    }

    /// Opens a span nested in the currently open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_SPAN;
        }
        let idx = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open,
            rep: self.rep,
            thread: self.thread,
        });
        self.open = idx;
        idx
    }

    /// Closes the span `enter` returned.
    #[inline]
    pub fn exit(&mut self, token: u32) {
        if token == NO_SPAN {
            return;
        }
        let span = &mut self.spans[token as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open = span.parent;
    }

    /// Moves `other`'s spans into this buffer (parent links rebased).
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Totals per span name, in name order.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Serializes a trace as one JSON document.
pub fn render_json(workload: &str, seed: u64, buf: &SpanBuf) -> String {
    let mut out = String::with_capacity(64 + buf.spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped\": {}, \"spans\": [",
        buf.dropped
    );
    for (i, s) in buf.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "\n{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}, \"thread\": {}}}",
            s.name, s.start_ns, s.end_ns, s.rep, s.thread
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = SpanBuf::off();
        let t = buf.enter("x.y");
        assert_eq!(t, NO_SPAN);
        buf.exit(t);
        assert!(buf.spans().is_empty());
        assert!(!buf.fork(1).enabled());
    }

    #[test]
    fn nesting_links_parents_and_self_time_excludes_children() {
        let mut buf = SpanBuf::on(Instant::now(), 3, 0, 16);
        let outer = buf.enter("a.outer");
        let inner = buf.enter("b.inner");
        buf.exit(inner);
        buf.exit(outer);
        let root = buf.enter("a.outer");
        buf.exit(root);
        let spans = buf.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_SPAN);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_SPAN);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let totals = summarize(spans);
        assert_eq!(totals["a.outer"].count, 2);
        assert_eq!(
            totals["a.outer"].self_ns,
            totals["a.outer"].total_ns - totals["b.inner"].total_ns
        );
    }

    #[test]
    fn full_buffer_counts_drops_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = SpanBuf::on(origin, 0, 0, 1);
        let t = a.enter("a.one");
        let refused = a.enter("a.two");
        assert_eq!(refused, NO_SPAN);
        a.exit(refused);
        a.exit(t);
        assert_eq!(a.dropped(), 1);

        let mut b = a.fork(1);
        let outer = b.enter("b.outer");
        b.exit(outer);
        let mut c = SpanBuf::on(origin, 0, 2, 4);
        let o = c.enter("c.outer");
        let i = c.enter("c.inner");
        c.exit(i);
        c.exit(o);
        a.absorb(b);
        a.absorb(c);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, 2, "inner's parent index was rebased");
        let json = render_json("w", 7, &a);
        assert!(json.contains("\"dropped\": 1"));
        assert!(json.contains("\"name\": \"c.inner\""));
    }
}
