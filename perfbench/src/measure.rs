//! Measurement plumbing: spans, exact counters and order statistics.

use qaec::TddStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span: a timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

/// An in-memory span recorder around the benchmark's own calls into
/// each layer. A disabled tracer only runs the closures.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new operation: later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = Instant::now();
        out
    }

    /// Renames span `index` (backend spans are named after the report's
    /// `algorithm`, known only once the call returns).
    pub fn rename(&mut self, index: usize, name: &'static str) {
        if self.enabled {
            self.spans[index].name = name;
        }
    }

    /// Index the next span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *out.entry(span.name).or_insert(Duration::ZERO) +=
                (span.end - span.start).saturating_sub(children);
        }
        out
    }

    /// Writes the spans as CSV (`op,name,parent,start_us,end_us`, times
    /// relative to `origin`).
    pub fn write_csv(&self, path: &str, origin: Instant) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op,name,parent,start_us,end_us")?;
        for span in &self.spans {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{:.3},{:.3}",
                span.op,
                span.name,
                parent,
                (span.start - origin).as_secs_f64() * 1e6,
                (span.end - origin).as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// Exact work counters of one round. Every round replays the same
/// seeded operations from fresh state, so these must repeat bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.0.entry(name).or_insert(0) += value;
    }

    pub fn max(&mut self, name: &'static str, value: u64) {
        let entry = self.0.entry(name).or_insert(0);
        *entry = (*entry).max(value);
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Folds one report's decision-diagram statistics in (store bytes
    /// are a gauge: see [`gauge_max`]).
    pub fn add_tdd(&mut self, stats: &TddStats) {
        self.add("tdd.nodes_created", stats.nodes_created);
        self.add("tdd.unique_hits", stats.unique_hits);
        self.add("tdd.add_calls", stats.add_calls);
        self.add("tdd.add_hits", stats.add_hits);
        self.add("tdd.cont_calls", stats.cont_calls);
        self.add("tdd.cont_hits", stats.cont_hits);
        self.add("tdd.gc_runs", stats.gc_runs);
        self.max("tdd.peak_nodes", stats.peak_nodes as u64);
    }
}

/// Raises gauge `name` to at least `value`.
pub fn gauge_max(gauges: &mut BTreeMap<&'static str, f64>, name: &'static str, value: f64) {
    let entry = gauges.entry(name).or_insert(value);
    *entry = entry.max(value);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// High-water resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Thread CPU affinity (Linux `sched_{get,set}affinity`, which the C
/// library std links against already provides).
pub mod affinity {
    /// Words in a `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on (empty if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; returns whether it took.
    pub fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Hands the allocator's free memory back to the system (glibc
/// `malloc_trim`). A round that frees tens of megabytes across several
/// threads' arenas otherwise leaves the next round's resident set, and
/// with it the high-water mark, to chance.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns free
        // heap pages to the system.
        unsafe {
            malloc_trim(0);
        }
    }
}
