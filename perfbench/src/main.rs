//! End-to-end and per-layer benchmark of `qaec`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload check_cold|sweep_warm|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds its inputs from the seed, repeats the workload's fixed
//! sequence of operations in *rounds* until `--seconds` have passed, and
//! prints a human-readable report followed by one JSON line. Each round
//! sets up from fresh state, so every round does the same work: the
//! exact counters of every round must match (the benchmark fails
//! otherwise), and every answer is checked against an independent
//! `qaec-dmsim` reference. See `perfbench/README.md`.

mod check_cold;
mod corpus;
mod measure;
mod serve_mixed;
mod sweep_warm;
mod verify;

use measure::{affinity, geomean, median, ms, percentile, ratio, Counters, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::Answer;

/// How a round runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The user path, untraced (for `serve_mixed`: over the socket).
    Plain,
    /// The user path with spans recorded.
    Traced,
    /// `serve_mixed` only: the request stream through direct calls.
    Direct,
    /// [`Kind::Direct`] with spans recorded.
    DirectTraced,
}

impl Kind {
    fn traced(self) -> bool {
        matches!(self, Kind::Traced | Kind::DirectTraced)
    }

    /// The untraced kind a traced kind's overhead is measured against.
    fn untraced(self) -> Kind {
        match self {
            Kind::Traced => Kind::Plain,
            Kind::DirectTraced => Kind::Direct,
            other => other,
        }
    }
}

/// One timed latency: `ops` operations of latency class `class`.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: usize,
    pub latency: Duration,
    pub ops: u64,
    /// Which CPU the round was pinned to (index into the allowed set).
    pub lane: usize,
}

/// Everything one round measured.
#[derive(Default)]
pub struct Round {
    /// Corpus generation, serialisation and any compile or pre-warm
    /// the round needs before its first timed operation.
    pub setup: Duration,
    /// Wall time of the timed part.
    pub timed: Duration,
    pub samples: Vec<Sample>,
    pub counters: Counters,
    /// Sizes that depend on how concurrent workers interleave, so they
    /// are reported as a median over rounds instead of checked exactly.
    pub gauges: BTreeMap<&'static str, f64>,
    /// One answer per operation, in order.
    pub answers: Vec<Answer>,
}

pub trait Workload {
    /// Latency classes: (name, label) — the corpus pairs with their
    /// backend, or the request kinds.
    fn classes(&self) -> Vec<(String, String)>;
    /// The checker options the workload runs with, for the report.
    fn options(&self) -> String;
    /// Whether latency is reported as percentiles over all operations
    /// (one dominant kind) instead of a per-class geometric mean.
    fn percentiles(&self) -> bool {
        false
    }
    /// Whether rounds run pinned to one CPU each, cycling through the
    /// CPUs the process may use (single-threaded workloads).
    fn pinned(&self) -> bool {
        true
    }
    /// The round kinds a run cycles through after the warm-up round.
    fn schedule(&self, trace: bool) -> Vec<Kind> {
        if trace {
            vec![Kind::Plain, Kind::Traced]
        } else {
            vec![Kind::Plain]
        }
    }
    fn round(&mut self, kind: Kind, tracer: &mut Tracer) -> Round;
    /// Checks the answers of a round against the references.
    fn verify(&mut self, answers: &[Answer]) -> Vec<Result<(), String>>;
    /// `cli.serve` self time per request, for workloads with a server.
    fn serve_self_ms(
        &self,
        _plain: &[Sample],
        _traced_self_ms_per_op: &BTreeMap<&str, f64>,
    ) -> f64 {
        0.0
    }
}

/// The per-layer metrics of a traced run, in output order, with units.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("circuit.qasm.parse_ms", "ms"),
    ("circuit.hash.pair_hash_ms", "ms"),
    ("core.session.compile_ms", "ms"),
    ("tensornet.plan.builds", "count"),
    ("core.alg1.check_ms", "ms"),
    ("core.alg1.sweep_ms", "ms"),
    ("core.engine.terms", "count"),
    ("core.engine.term_ratio", "ratio"),
    ("core.alg2.check_ms", "ms"),
    ("core.alg2.sweep_ms", "ms"),
    ("tdd.nodes_created", "count"),
    ("tdd.unique_hit_ratio", "ratio"),
    ("tdd.add_calls", "count"),
    ("tdd.add_hit_ratio", "ratio"),
    ("tdd.cont_calls", "count"),
    ("tdd.cont_hit_ratio", "ratio"),
    ("tdd.peak_nodes", "count"),
    ("tdd.peak_store_bytes", "bytes"),
    ("tdd.gc_runs", "count"),
    ("mpo.check_ms", "ms"),
    ("mpo.sweep_ms", "ms"),
    ("mpo.bond_max", "count"),
    ("mpo.trunc_error", "fidelity"),
    ("core.service.handle_ms", "ms"),
    ("core.service.hit_ratio", "ratio"),
    ("core.service.compiles", "count"),
    ("core.service.evictions", "count"),
    ("core.service.store_bytes", "bytes"),
    ("cli.serve.self_ms", "ms"),
    ("op.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Timed rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    // `CheckOptions::default()` reads `QAEC_*` variables: a stray one
    // would silently measure a different configuration.
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("QAEC_"))
        .collect();
    if !stray.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", stray.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "check_cold" => Box::new(check_cold::CheckCold::new(args.seed)),
        "sweep_warm" => Box::new(sweep_warm::SweepWarm::new(args.seed)),
        "serve_mixed" => Box::new(serve_mixed::ServeMixed::new(args.seed)),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (check_cold | sweep_warm | serve_mixed)"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(workload.as_mut(), &args, start);
    println!("{result}");
    ExitCode::SUCCESS
}

/// Per-kind totals over the timed rounds.
#[derive(Default)]
struct Totals {
    rounds: usize,
    timed: Duration,
    ops: u64,
    samples: Vec<Sample>,
    gauges: BTreeMap<&'static str, Vec<f64>>,
    /// (CPU lane, timed seconds) of each round.
    round_timed: Vec<(usize, f64)>,
}

/// The reference answers and counters of one round kind: its first
/// round, checked against the references.
struct Expected {
    answers: Vec<Answer>,
    ok: Vec<bool>,
    counters: Counters,
    /// Per answer index: later rounds that answered differently.
    mismatches: Vec<u64>,
    rounds: u64,
}

fn run(workload: &mut dyn Workload, args: &Args, start: Instant) -> String {
    let mut tracer = Tracer::default();
    let mut setups = Vec::new();
    let mut expected: BTreeMap<Kind, Expected> = BTreeMap::new();
    let mut totals: BTreeMap<Kind, Totals> = BTreeMap::new();
    let mut notes: Vec<String> = Vec::new();
    let mut consistent = true;
    let mut first_timed: Option<Duration> = None;

    let mut settle = |kind: Kind, round: &Round, workload: &mut dyn Workload, timed: bool| {
        let entry = expected.entry(kind).or_insert_with(|| {
            let checks = workload.verify(&round.answers);
            for message in checks.iter().filter_map(|c| c.as_ref().err()) {
                notes.push(format!("WRONG ANSWER: {message}"));
            }
            Expected {
                answers: round.answers.clone(),
                ok: checks.iter().map(Result::is_ok).collect(),
                counters: round.counters.clone(),
                mismatches: vec![0; round.answers.len()],
                rounds: 0,
            }
        });
        if round.counters != entry.counters {
            consistent = false;
            notes.push(format!(
                "COUNTERS DIFFER between rounds of one run ({kind:?}): {:?} vs {:?}",
                entry.counters.0, round.counters.0
            ));
        }
        if !timed {
            return;
        }
        entry.rounds += 1;
        if round.answers.len() != entry.answers.len() {
            consistent = false;
            notes.push(format!(
                "{kind:?} round answered {} operations, expected {}",
                round.answers.len(),
                entry.answers.len()
            ));
        }
        for (i, slot) in entry.mismatches.iter_mut().enumerate() {
            if round.answers.get(i) != Some(&entry.answers[i]) {
                *slot += 1;
            }
        }
    };

    // Single-threaded workloads run each round pinned to one CPU, taking
    // the allowed CPUs in turn: the CPUs of a shared host can differ in
    // speed, and a thread the scheduler migrates mid-round would mix
    // them at random. Per-pair latencies combine the CPUs' medians.
    let cpus = if workload.pinned() {
        affinity::allowed()
    } else {
        Vec::new()
    };
    let lanes = cpus.len().max(1);
    let pin = |round: usize| {
        if let Some(&cpu) = cpus.get(round % lanes) {
            affinity::set(&[cpu]);
        }
    };

    // The warm-up round: untimed, and the reference every later round
    // of its kind is compared with.
    pin(0);
    let warm = workload.round(Kind::Plain, &mut tracer);
    setups.push(warm.setup);
    settle(Kind::Plain, &warm, workload, false);
    drop(warm);

    let schedule = workload.schedule(args.trace);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut index = 0;
    // Whole cycles only, so every kind spends equal rounds on each CPU.
    let cycle = schedule.len() * lanes;
    while Instant::now() < deadline || index < MIN_ROUNDS * schedule.len() || index % cycle != 0 {
        let kind = schedule[index % schedule.len()];
        // Every kind visits every CPU equally often.
        let lane = (index / schedule.len()) % lanes;
        index += 1;
        pin(lane);
        tracer.set_enabled(kind.traced());
        let mut round = workload.round(kind, &mut tracer);
        for sample in &mut round.samples {
            sample.lane = lane;
        }
        first_timed.get_or_insert(start.elapsed());
        setups.push(round.setup);
        settle(kind, &round, workload, true);
        let total = totals.entry(kind).or_default();
        total.rounds += 1;
        total.timed += round.timed;
        total.ops += round.answers.len() as u64;
        total.round_timed.push((lane, round.timed.as_secs_f64()));
        total.samples.extend(round.samples);
        for (name, value) in round.gauges {
            total.gauges.entry(name).or_default().push(value);
        }
    }
    if !cpus.is_empty() {
        affinity::set(&cpus);
    }
    let peak_rss = measure::peak_rss_mb();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (kind, exp) in &expected {
        let total_ops = totals.get(kind).map_or(0, |t| t.ops);
        attempted += total_ops;
        for (i, &ok) in exp.ok.iter().enumerate() {
            failed += if ok { exp.mismatches[i] } else { exp.rounds };
        }
        if exp.mismatches.iter().any(|&m| m > 0) {
            notes.push(format!(
                "{kind:?}: some rounds answered differently from the first"
            ));
        }
    }
    let correct = failed == 0 && consistent;

    // ---- human-readable report ----
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: available_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("effective options: {}", workload.options());
    for note in &notes {
        println!("{note}");
    }
    let plain = totals.get(&Kind::Plain).expect("at least one plain round");
    let classes = workload.classes();
    println!(
        "{:<28} {:<22} {:>6} {:>11} {:>11}",
        "class", "backend", "n", "median_ms", "p90_ms*"
    );
    let mut class_medians = Vec::new();
    for (c, (name, label)) in classes.iter().enumerate() {
        let per_op = |s: &Sample| ms(s.latency) / s.ops as f64;
        let values: Vec<f64> = plain
            .samples
            .iter()
            .filter(|s| s.class == c)
            .map(per_op)
            .collect();
        if values.is_empty() {
            continue;
        }
        // The geometric mean of the per-CPU medians.
        let lane_medians: Vec<f64> = (0..lanes)
            .filter_map(|lane| {
                let on_lane: Vec<f64> = plain
                    .samples
                    .iter()
                    .filter(|s| s.class == c && s.lane == lane)
                    .map(per_op)
                    .collect();
                (!on_lane.is_empty()).then(|| median(&on_lane))
            })
            .collect();
        let m = geomean(&lane_medians);
        class_medians.push(m);
        // A percentile is printed only with at least ten samples beyond it.
        let p90 = if values.len() >= 100 {
            format!("{:.4}", percentile(&values, 0.9))
        } else {
            "-".to_string()
        };
        println!(
            "{name:<28} {label:<22} {:>6} {m:>11.4} {p90:>11}",
            values.len()
        );
    }
    println!("(* only for classes with at least 100 samples)");
    let all: Vec<f64> = plain
        .samples
        .iter()
        .map(|s| ms(s.latency) / s.ops as f64)
        .collect();
    let (latency, slow) = if workload.percentiles() {
        let n = all.len();
        println!(
            "latency_p50_ms={:.4} (n={n}) latency_p99_ms={:.4} (n={n}, {} beyond) latency_geomean_ms={:.4}",
            percentile(&all, 0.5),
            percentile(&all, 0.99),
            n - (0.99 * n as f64).ceil() as usize,
            geomean(&class_medians)
        );
        (percentile(&all, 0.5), percentile(&all, 0.99))
    } else {
        let mean = class_medians.iter().sum::<f64>() / class_medians.len() as f64;
        println!(
            "latency_geomean_ms={:.4} latency_mean_of_medians_ms={mean:.4} (over {} pairs)",
            geomean(&class_medians),
            class_medians.len()
        );
        (geomean(&class_medians), mean)
    };
    let setup_values: Vec<f64> = setups.iter().map(|d| d.as_secs_f64()).collect();
    println!(
        "rounds={} ops={} timed_s={:.3} setup_median_s={:.5} (of {}) first_timed_op_after_s={:.3} error_rate={:.6}",
        plain.rounds,
        plain.ops,
        plain.timed.as_secs_f64(),
        median(&setup_values),
        setups.len(),
        first_timed.unwrap_or_default().as_secs_f64(),
        ratio(failed as f64, attempted.max(1) as f64)
    );
    // Throughput from the median round on each CPU (a round is a fixed
    // amount of work), averaged over the CPUs: slow outlier rounds on a
    // shared host then move it less than a total over all rounds would.
    let lane_round_s: Vec<f64> = (0..lanes)
        .filter_map(|lane| {
            let times: Vec<f64> = plain
                .round_timed
                .iter()
                .filter(|(l, _)| *l == lane)
                .map(|(_, t)| *t)
                .collect();
            (!times.is_empty()).then(|| median(&times))
        })
        .collect();
    let round_s = lane_round_s.iter().sum::<f64>() / lane_round_s.len() as f64;
    let ops_per_s = plain.ops as f64 / plain.rounds as f64 / round_s;
    println!(
        "timed part per round (s): median per CPU {lane_round_s:?}, all {:?}",
        plain
            .round_timed
            .iter()
            .map(|(_, t)| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let mut counters = Counters::default();
    for exp in expected.values() {
        for (k, v) in &exp.counters.0 {
            counters.0.entry(k).or_insert(*v);
        }
    }
    println!("counters per round: {:?}", counters.0);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("ops_per_s".into(), ops_per_s, "1/s"));
        metrics.push(("latency_ms".into(), latency, "ms"));
        metrics.push(("latency_slow_ms".into(), slow, "ms"));
        metrics.push(("peak_rss_mb".into(), peak_rss, "MiB"));
        metrics.push(("setup_s".into(), median(&setup_values), "s"));
    } else {
        let traced_kind = *schedule
            .iter()
            .find(|k| k.traced())
            .expect("a traced round kind");
        let traced = &totals[&traced_kind];
        let untraced = &totals[&traced_kind.untraced()];
        let per_op = |t: &Totals| t.timed.as_secs_f64() / t.ops as f64;
        let self_ms: BTreeMap<&str, f64> = tracer
            .self_times()
            .into_iter()
            .map(|(name, d)| (name, ms(d) / traced.ops as f64))
            .collect();
        let _ = std::fs::create_dir_all(".bench_trace");
        let path = format!(".bench_trace/{}-seed{}.csv", args.workload, args.seed);
        if let Err(e) = tracer.write_csv(&path, start) {
            println!("could not write {path}: {e}");
        }
        println!("traced self time per op (ms): {self_ms:?}");
        // An exact counter, or else a gauge's median over the rounds of
        // the first kind that has it.
        let c = |name: &str| -> f64 {
            counters.0.get(name).map_or_else(
                || {
                    totals
                        .values()
                        .find_map(|t| t.gauges.get(name))
                        .map_or(0.0, |values| median(values))
                },
                |&v| v as f64,
            )
        };
        let layer = |name: &str| -> f64 {
            let span = name.strip_suffix("_ms").unwrap_or(name);
            if let Some(v) = self_ms.get(span) {
                return *v;
            }
            match name {
                "tensornet.plan.builds" => c("plan.builds"),
                "core.engine.terms" => c("engine.terms_computed"),
                "core.engine.term_ratio" => {
                    ratio(c("engine.terms_computed"), c("engine.total_terms"))
                }
                "tdd.unique_hit_ratio" => ratio(
                    c("tdd.unique_hits"),
                    c("tdd.unique_hits") + c("tdd.nodes_created"),
                ),
                "tdd.add_hit_ratio" => ratio(c("tdd.add_hits"), c("tdd.add_calls")),
                "tdd.cont_hit_ratio" => ratio(c("tdd.cont_hits"), c("tdd.cont_calls")),
                "mpo.trunc_error" => f64::from_bits(counters.get("mpo.trunc_error_bits")),
                "core.service.hit_ratio" => {
                    ratio(c("service.hits"), c("service.hits") + c("service.misses"))
                }
                "core.service.compiles" => c("service.compiles"),
                "core.service.evictions" => c("service.evictions"),
                "core.service.store_bytes" => c("service.store_bytes"),
                "op.self_ms" => self_ms.get("op").copied().unwrap_or(0.0),
                "cli.serve.self_ms" => workload.serve_self_ms(&plain.samples, &self_ms),
                "trace.overhead_ratio" => per_op(traced) / per_op(untraced),
                n if n.ends_with("_ms") => 0.0,
                n => c(n),
            }
        };
        for (name, unit) in LAYER_METRICS {
            let value = layer(name);
            metrics.push((name.to_string(), value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit `{}` prints (non-finite as 0, which
/// JSON cannot carry).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
