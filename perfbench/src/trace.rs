//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code opens one span per query and one per call into
//! an engine layer (name, start, end, parent, query id). While tracing, each
//! layer call also runs under `rsv_metrics::collect`, so its work counters
//! are recorded where the work happens. With tracing off every hook is a
//! single branch, so the untraced run executes the same query code.

use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use rsv_core::join::JoinTimings;
use rsv_core::metrics::{self, Counters};

/// One timed interval of a traced query.
pub struct Span {
    pub name: &'static str,
    pub query: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counters of a layer call; `None` for the query span and for the
    /// join phases taken from `JoinTimings`.
    pub counters: Option<Counters>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and per-query notes while enabled; does nothing otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Id of the next traced query.
    queries: u32,
    open: Option<usize>,
    spans: Vec<Span>,
    /// Facts the benchmark observed per traced query, such as the rows a
    /// semi-join passed: `(query id, key, value)`.
    notes: Vec<(u32, &'static str, u64)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            queries: 0,
            open: None,
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the span of one query: layer spans recorded until
    /// [`Tracer::end_query`] become its children.
    pub fn begin_query(&mut self) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            name: "query",
            query: self.queries,
            parent: None,
            start_ns,
            end_ns: start_ns,
            counters: None,
        });
    }

    pub fn end_query(&mut self) {
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = self.now();
            self.queries += 1;
        }
    }

    /// Runs one call into an engine layer, as a span with its work counters.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let (r, sink) = metrics::collect(f);
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            query: self.queries,
            parent: self.open,
            start_ns,
            end_ns,
            counters: Some(sink.total()),
        });
        r
    }

    /// Records the partition, build and probe times a join reported as
    /// children of the join span just closed, laid end to end from its
    /// start (the join measures them as sums, not as intervals).
    pub fn join_phases(&mut self, t: &JoinTimings) {
        if !self.on {
            return;
        }
        let parent = self.spans.len() - 1;
        let mut at = self.spans[parent].start_ns;
        for (name, d) in [
            ("partition", t.partition),
            ("hashtab.build", t.build),
            ("hashtab.probe", t.probe),
        ] {
            let ns = d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                query: self.queries,
                parent: Some(parent),
                start_ns: at,
                end_ns: at + ns,
                counters: None,
            });
            at += ns;
        }
    }

    pub fn note(&mut self, key: &'static str, value: usize) {
        if self.on {
            self.notes.push((self.queries, key, value as u64));
        }
    }

    /// Per span, the summed duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.ns();
            }
        }
        sums
    }

    /// Spans whose direct children together last longer than they do.
    pub fn overfull_spans(&self) -> Vec<&Span> {
        self.spans
            .iter()
            .zip(self.child_ns())
            .filter(|(s, c)| *c > s.ns())
            .map(|(s, _)| s)
            .collect()
    }

    /// Spans and notes grouped by traced query.
    pub fn by_query(&self) -> Vec<QueryTrace<'_>> {
        let mut out: Vec<QueryTrace<'_>> = (0..self.queries)
            .map(|_| QueryTrace {
                spans: Vec::new(),
                notes: Vec::new(),
            })
            .collect();
        for (s, c) in self.spans.iter().zip(self.child_ns()) {
            if let Some(q) = out.get_mut(s.query as usize) {
                q.spans.push((s, c));
            }
        }
        for &(q, key, v) in &self.notes {
            if let Some(q) = out.get_mut(q as usize) {
                q.notes.push((key, v));
            }
        }
        out
    }

    /// Writes `header` and then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (s, c) in self.spans.iter().zip(self.child_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters = s
                .counters
                .as_ref()
                .map_or("null".to_string(), Counters::to_json);
            writeln!(
                w,
                "{{\"query\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{},\"self_us\":{},\"counters\":{counters}}}",
                s.query,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.ns().saturating_sub(c) as f64 / 1e3,
            )?;
        }
        w.flush()
    }
}

/// The spans (each with its children's summed time) and notes of one query.
pub struct QueryTrace<'a> {
    spans: Vec<(&'a Span, u64)>,
    notes: Vec<(&'static str, u64)>,
}

impl QueryTrace<'_> {
    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|(s, _)| s.name == name)
            .map(|(s, _)| s.ns())
            .sum();
        ns as f64 / 1e6
    }

    /// Summed self time (span minus its children) of the spans called
    /// `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum();
        ns as f64 / 1e6
    }

    /// Work counters of every layer call of the query, summed.
    pub fn counters(&self) -> Counters {
        self.counters_where(|_| true)
    }

    /// Work counters of the layer calls called `name`, summed.
    pub fn counters_of(&self, name: &str) -> Counters {
        self.counters_where(|n| n == name)
    }

    fn counters_where(&self, keep: impl Fn(&str) -> bool) -> Counters {
        let mut total = Counters::new();
        for (s, _) in &self.spans {
            if let Some(c) = &s.counters {
                if keep(s.name) {
                    total.add(c);
                }
            }
        }
        total
    }

    /// The value noted under `key` (0 when the query noted none).
    pub fn note(&self, key: &str) -> u64 {
        self.notes
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}
