//! In-memory spans around the benchmark's calls into each layer: name,
//! start, end, parent and query id. Written out as JSON lines when the run
//! ends; a layer's self time is its span's length minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise every call is a no-op.
pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Self {
        Tracer { enabled: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Begin a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, query: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { id, parent, name, query, start_ns, end_ns: start_ns });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, query);
        let out = f();
        self.end(open);
        out
    }

    /// Spans recorded since `mark` (a previous [`Tracer::len`]).
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.name, s.query, s.start_ns, s.end_ns, self_ns[&s.id]
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its length minus the time its direct children
/// cover. Children of one parent run one after another on the benchmark's
/// thread, so their lengths add up without overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<usize, u64> {
    let mut out: BTreeMap<usize, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(v) = out.get_mut(&p) {
                *v = v.saturating_sub(s.duration_ns());
            }
        }
    }
    out
}
