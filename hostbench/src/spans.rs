//! Spans the benchmark records around its own calls into each layer, kept
//! in memory and written out as a Chrome trace when the run ends.
//!
//! Spans on the one benchmark thread nest strictly, so a span's children
//! never overlap and its self time is its duration minus theirs.

use std::time::Instant;

use hetsolve::obs::{Json, TraceBuilder};

/// One timed call: name, start, end (seconds since the recorder began)
/// and the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. A disabled recorder records nothing and reads no clock,
/// so untraced runs pay only a branch per call site.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_s = self.t0.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let v = f();
        self.end();
        v
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every closed span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_s();
            }
        }
        own
    }

    /// Total self time and call count per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut rows: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += own;
                    r.2 += 1;
                }
                None => rows.push((s.name, own, 1)),
            }
        }
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// The spans as a Chrome trace (viewable in Perfetto): one complete
    /// event per span, carrying its id, parent id and self time.
    pub fn to_trace(&self, title: &str) -> TraceBuilder {
        let mut t = TraceBuilder::new();
        t.set_meta("subsystem", Json::from(title));
        t.name_process(1, "hostbench");
        t.name_thread(1, 1, "benchmark thread");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut args = vec![
                ("id".to_string(), Json::from(i)),
                ("self_us".to_string(), Json::from(own * 1e6)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::from(p)));
            }
            t.span(
                1,
                1,
                layer,
                s.name,
                s.start_s * 1e6,
                s.duration_s() * 1e6,
                args,
            );
        }
        t
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        r.begin("outer");
        r.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.time("inner", || ());
        r.end();
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = r.self_times();
        let children = spans[1].duration_s() + spans[2].duration_s();
        assert!((own[0] - (spans[0].duration_s() - children)).abs() < 1e-12);
        let by_name = r.self_time_by_name();
        assert_eq!(
            by_name.iter().find(|x| x.0 == "inner").map(|x| x.2),
            Some(2)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        assert_eq!(r.time("x", || 7), 7);
        assert!(r.spans().is_empty());
    }
}
