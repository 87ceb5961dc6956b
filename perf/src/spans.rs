//! Spans recorded by the benchmark's own code around its calls into each
//! layer. They are kept in memory and written out once, as Chrome-trace
//! JSON, when the traced pass ends; nothing inside the engine is touched.

use std::time::Instant;

/// One closed span. `parent` indexes the tracer's spans.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

/// Collects the spans of one traced job; every span shares `job_id`.
/// Single-threaded on purpose: only the benchmark's driver thread opens
/// spans, so nesting is a stack.
#[derive(Debug)]
pub struct Tracer {
    pub job_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(job_id: &str) -> Self {
        Tracer {
            job_id: job_id.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open, and returns `f`'s result with the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        let secs = self.spans[id].secs();
        (out, secs)
    }

    /// Duration of the first span called `name`; 0 when there is none.
    pub fn secs_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, Span::secs)
    }

    /// A span's duration minus the part its direct children cover.
    /// Children of one parent never overlap here (one thread, one stack),
    /// so the covered part is the sum of their durations.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        (self.spans[id].secs() - children).max(0.0)
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, carrying its parent, self time and the job id.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":0,\"args\":{{\"job\":\"{}\",\"id\":{},\"parent\":{},\
                     \"self_us\":{}}}}}",
                    s.name,
                    s.start_us,
                    s.end_us - s.start_us,
                    self.job_id,
                    id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    (self.self_secs(id) * 1e6).round() as u64,
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new("job-1");
        t.span("outer", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| {
                t.span("b.inner", |_| ());
            });
        });
        let names: Vec<(&str, Option<usize>)> = t
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b.inner", Some(2))
            ]
        );
        let outer = t.spans[0].secs();
        let kids = t.spans[1].secs() + t.spans[2].secs();
        assert!(t.spans[1].secs() >= 0.002);
        assert!((t.self_secs(0) - (outer - kids)).abs() < 1e-9);
        let json = t.chrome_trace();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"job\":\"job-1\""));
    }
}
