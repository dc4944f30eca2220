//! In-memory span recorder for the traced run.
//!
//! A span covers one public call into a layer of the program. Spans
//! are kept in memory and serialized once, when the run ends, so that
//! recording costs two clock reads and a push per call.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the call belongs to (`workload`, `cluster`, ...);
    /// `bench` for the root span that encloses a whole pipeline.
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The traced pipeline run this span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with no spans, starting at run 0.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next run; later spans carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer for the spans of `run`, in seconds: each
    /// span's duration minus its children's. The root span's self time
    /// is reported under its own layer (`bench`), which is the time no
    /// layer call covers. The rows sum to the roots' durations exactly.
    pub fn self_times(&self, run: u32) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.run == run) {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut rows: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            let secs = own as f64 / 1e9;
            match rows.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(row) => row.1 += secs,
                None => rows.push((s.layer, secs)),
            }
        }
        rows
    }

    /// Total duration of the spans called `name` in `run`, in seconds.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"run\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.run, s.layer, s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_tile_the_root() {
        let mut tr = Tracer::new();
        let run = tr.next_run();
        let root = tr.begin("bench", "pipeline");
        tr.call("workload", "gen", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tr.call("cluster", "run", || {
            std::hint::black_box((0..20_000u64).sum::<u64>())
        });
        tr.end(root);
        let rows = tr.self_times(run);
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        let wall = tr.spans()[root].secs();
        assert!((sum - wall).abs() < 1e-9, "rows {sum} vs root {wall}");
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["bench", "workload", "cluster"]
        );
        assert_eq!(tr.spans()[1].parent, Some(root));
        assert!(tr.self_times(run + 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_in_order() {
        let mut tr = Tracer::new();
        let a = tr.begin("bench", "a");
        let _b = tr.begin("bench", "b");
        tr.end(a);
    }
}
