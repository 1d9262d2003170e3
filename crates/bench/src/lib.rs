//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§V).
//!
//! Three binaries regenerate the artifacts:
//!
//! * `table1` — Table I: Qiskit-baseline vs Algorithm II vs Algorithm I
//!   across the 21 benchmark circuits (time, TDD node counts, TO/MO);
//! * `fig7` — Fig. 7: `log10(t1/t2)` as the number of noise sites grows;
//! * `table2` — Table II: Algorithm I with a shared computed table
//!   ("Opt.") vs fresh tables per term ("Ori.").
//!
//! Criterion micro-benches live under `benches/`.

use qaec::{
    check_equivalence, fidelity_alg1, fidelity_alg2, mpo_favored, AlgorithmChoice, AlgorithmUsed,
    CacheOutcome, CheckOptions, Checker, QaecError, Service, ServiceConfig, ServiceQuery,
    ServiceReply, ServiceRequest, StoreReclaimMode, SweepPoint, TermOrder, Verdict,
};
use qaec_circuit::generators::{
    bernstein_vazirani_all_ones, ghz, grover_dac21, mod_mul_7x1_mod15, qft, quantum_volume,
    randomized_benchmarking, tile, QftStyle,
};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_cli::json;
use std::time::{Duration, Instant};

/// Seed namespace for noise placement, fixed so every run of the harness
/// sees the same noisy circuits.
pub const NOISE_SEED: u64 = 0xDAC2021;

/// One row of Table I.
#[derive(Clone)]
pub struct BenchCase {
    /// Row label (the paper's `Circuit` column).
    pub name: &'static str,
    /// The ideal benchmark circuit.
    pub ideal: Circuit,
    /// Number of depolarizing noise sites (the paper's `k` column).
    pub noises: usize,
}

impl BenchCase {
    fn new(name: &'static str, ideal: Circuit, noises: usize) -> Self {
        BenchCase {
            name,
            ideal,
            noises,
        }
    }

    /// The noisy implementation: `noises` depolarizing sites with
    /// `p = 0.999` at seeded-random positions (§V-A).
    pub fn noisy(&self) -> Circuit {
        insert_random_noise(
            &self.ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            self.noises,
            NOISE_SEED ^ self.name.len() as u64,
        )
    }
}

/// The 21 rows of Table I, with the paper's qubit/gate/noise counts.
pub fn table1_suite() -> Vec<BenchCase> {
    vec![
        BenchCase::new("rb", randomized_benchmarking(2, 7, NOISE_SEED), 6),
        BenchCase::new("qft2", qft(2, QftStyle::DecomposedNoSwaps), 2),
        BenchCase::new("grover", grover_dac21(), 4),
        BenchCase::new("qft3", qft(3, QftStyle::DecomposedNoSwaps), 7),
        BenchCase::new("qv_n3d5", quantum_volume(3, 5, NOISE_SEED), 2),
        BenchCase::new("bv4", bernstein_vazirani_all_ones(4), 7),
        BenchCase::new("7x1mod15", mod_mul_7x1_mod15(), 3),
        BenchCase::new("bv5", bernstein_vazirani_all_ones(5), 6),
        BenchCase::new("qft5", qft(5, QftStyle::DecomposedNoSwaps), 3),
        BenchCase::new("qv_n5d5", quantum_volume(5, 5, NOISE_SEED), 3),
        BenchCase::new("bv6", bernstein_vazirani_all_ones(6), 14),
        BenchCase::new("qv_n6d5", quantum_volume(6, 5, NOISE_SEED), 1),
        BenchCase::new("qft7", qft(7, QftStyle::DecomposedNoSwaps), 6),
        BenchCase::new("qv_n7d5", quantum_volume(7, 5, NOISE_SEED), 2),
        BenchCase::new("bv9", bernstein_vazirani_all_ones(9), 6),
        BenchCase::new("qv_n9d5", quantum_volume(9, 5, NOISE_SEED), 3),
        BenchCase::new("qft9", qft(9, QftStyle::DecomposedNoSwaps), 2),
        BenchCase::new("qft10", qft(10, QftStyle::DecomposedNoSwaps), 2),
        BenchCase::new("bv13", bernstein_vazirani_all_ones(13), 4),
        BenchCase::new("bv14", bernstein_vazirani_all_ones(14), 4),
        BenchCase::new("bv16", bernstein_vazirani_all_ones(16), 9),
    ]
}

/// The outcome of one measured run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Succeeded with fidelity value, wall time and max TDD nodes
    /// (0 for the dense baseline).
    Done {
        /// Fidelity computed.
        fidelity: f64,
        /// Wall-clock time.
        time: Duration,
        /// Max intermediate TDD nodes (0 for the baseline).
        nodes: usize,
        /// Trace terms contracted (1 for Algorithm II, 0 for the
        /// baseline where the notion does not apply).
        terms: usize,
    },
    /// Timed out (the paper's "TO").
    TimedOut,
    /// Out of memory bound (the paper's "MO").
    OutOfMemory,
}

impl Outcome {
    /// Renders the paper's `time (s)` cell.
    pub fn time_cell(&self) -> String {
        match self {
            Outcome::Done { time, .. } => format!("{:.2}", time.as_secs_f64()),
            Outcome::TimedOut => "TO".into(),
            Outcome::OutOfMemory => "MO".into(),
        }
    }

    /// Renders the paper's `nodes` cell.
    pub fn nodes_cell(&self) -> String {
        match self {
            Outcome::Done { nodes, .. } if *nodes > 0 => nodes.to_string(),
            Outcome::Done { .. } => "-".into(),
            Outcome::TimedOut => "TO".into(),
            Outcome::OutOfMemory => "MO".into(),
        }
    }

    /// The fidelity, if the run finished.
    pub fn fidelity(&self) -> Option<f64> {
        match self {
            Outcome::Done { fidelity, .. } => Some(*fidelity),
            _ => None,
        }
    }

    /// The wall time, if the run finished.
    pub fn time(&self) -> Option<Duration> {
        match self {
            Outcome::Done { time, .. } => Some(*time),
            _ => None,
        }
    }
}

/// Runs the dense superoperator baseline (the Qiskit
/// `process_fidelity` substitute) under the paper's 8 GB bound, with an
/// in-flight deadline.
pub fn run_baseline(ideal: &Circuit, noisy: &Circuit, timeout: Duration) -> Outcome {
    let start = Instant::now();
    let deadline = Some(start + timeout);
    // The memory estimate rejects before allocation, mirroring Qiskit's MO.
    let operator = match qaec_dmsim::Operator::from_circuit(ideal) {
        Ok(op) => op,
        Err(qaec_dmsim::SimError::MemoryExceeded { .. }) => return Outcome::OutOfMemory,
        Err(_) => return Outcome::OutOfMemory,
    };
    match qaec_dmsim::SuperOp::from_circuit_opts(
        noisy,
        qaec_dmsim::memory::PAPER_MEMORY_BOUND,
        deadline,
    ) {
        Ok(superop) => {
            let fidelity = qaec_dmsim::process_fidelity::process_fidelity(&superop, &operator);
            let time = start.elapsed();
            if time > timeout {
                Outcome::TimedOut
            } else {
                Outcome::Done {
                    fidelity,
                    time,
                    nodes: 0,
                    terms: 0,
                }
            }
        }
        Err(qaec_dmsim::SimError::DeadlineExceeded) => Outcome::TimedOut,
        Err(qaec_dmsim::SimError::MemoryExceeded { .. }) => Outcome::OutOfMemory,
        Err(_) => Outcome::OutOfMemory,
    }
}

/// Runs Algorithm II with a deadline.
pub fn run_alg2(ideal: &Circuit, noisy: &Circuit, timeout: Duration) -> Outcome {
    run_alg2_with_stats(ideal, noisy, timeout, 1).0
}

/// Runs Algorithm II on `threads` plan workers, also returning the
/// run's decision-diagram statistics — rows report their `store_bytes`
/// footprint from here (zeroed statistics on TO/MO).
pub fn run_alg2_with_stats(
    ideal: &Circuit,
    noisy: &Circuit,
    timeout: Duration,
    threads: usize,
) -> (Outcome, qaec::TddStats) {
    let opts = CheckOptions {
        deadline: Some(Instant::now() + timeout),
        threads,
        ..CheckOptions::default()
    };
    let start = Instant::now();
    match fidelity_alg2(ideal, noisy, &opts) {
        Ok(report) => (
            Outcome::Done {
                fidelity: report.fidelity,
                time: start.elapsed(),
                nodes: report.max_nodes,
                terms: 1,
            },
            report.stats,
        ),
        Err(QaecError::Timeout) => (Outcome::TimedOut, qaec::TddStats::default()),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Runs Algorithm I exactly (all terms) with a deadline.
pub fn run_alg1(ideal: &Circuit, noisy: &Circuit, timeout: Duration) -> Outcome {
    run_alg1_with(ideal, noisy, timeout, true)
}

/// Runs Algorithm I with the shared computed table on or off — the
/// "Opt." / "Ori." configurations of Table II.
pub fn run_alg1_with(
    ideal: &Circuit,
    noisy: &Circuit,
    timeout: Duration,
    reuse_tables: bool,
) -> Outcome {
    let opts = CheckOptions {
        deadline: Some(Instant::now() + timeout),
        reuse_tables,
        term_order: TermOrder::Lexicographic,
        ..CheckOptions::default()
    };
    let start = Instant::now();
    match fidelity_alg1(ideal, noisy, None, &opts) {
        Ok(report) => Outcome::Done {
            fidelity: report.fidelity_lower,
            time: start.elapsed(),
            nodes: report.max_nodes,
            terms: report.terms_computed,
        },
        Err(QaecError::Timeout) => Outcome::TimedOut,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Runs Algorithm I in ε-decision mode on the work-stealing engine with
/// an explicit thread count, returning the outcome and the verdict.
/// Best-first term order, so light-noise checks stop after a handful of
/// heavy terms.
pub fn run_alg1_epsilon(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: f64,
    threads: usize,
    timeout: Duration,
) -> (Outcome, Option<Verdict>) {
    let opts = CheckOptions {
        deadline: Some(Instant::now() + timeout),
        threads,
        term_order: TermOrder::BestFirst,
        ..CheckOptions::default()
    };
    let start = Instant::now();
    match fidelity_alg1(ideal, noisy, Some(epsilon), &opts) {
        Ok(report) => (
            Outcome::Done {
                fidelity: report.fidelity_lower,
                time: start.elapsed(),
                nodes: report.max_nodes,
                terms: report.terms_computed,
            },
            report.verdict,
        ),
        Err(QaecError::Timeout) => (Outcome::TimedOut, None),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Re-measures fast cells for stability: runs `f` up to `max_repeats`
/// times (stopping once the accumulated time exceeds one second) and
/// returns the best (minimum-time) successful outcome, or the first
/// non-success. Timing noise on sub-millisecond cells otherwise dominates
/// ratio plots like Fig. 7 / Table II.
/// The host's visible core count (`available_parallelism`, 1 when
/// unknown). Printed into the bench artifact so a gate reading can be
/// interpreted against the machine that produced it — the speedup
/// gates below only arm when at least 4 cores are visible.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn measure_best(max_repeats: usize, mut f: impl FnMut() -> Outcome) -> Outcome {
    let mut best: Option<Outcome> = None;
    let mut spent = Duration::ZERO;
    for _ in 0..max_repeats.max(1) {
        let outcome = f();
        match &outcome {
            Outcome::Done { time, .. } => {
                spent += *time;
                let better = match &best {
                    Some(Outcome::Done { time: bt, .. }) => time < bt,
                    _ => true,
                };
                if better {
                    best = Some(outcome);
                }
                if spent > Duration::from_secs(1) {
                    break;
                }
            }
            other => return other.clone(),
        }
    }
    best.expect("at least one run")
}

/// One measured run, as serialised into the per-run JSON artifacts
/// (`--json` on the table/figure binaries, `BENCH_PR.json` /
/// `BENCH_BASELINE.json` for the CI smoke gate).
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Scenario label, unique within one artifact.
    pub name: String,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Trace terms contracted per second (0 when terms don't apply).
    pub terms_per_sec: f64,
    /// Largest intermediate decision diagram, in nodes.
    pub max_nodes: usize,
    /// The computed fidelity (or lower bound, for early-stopped runs).
    pub fidelity: f64,
    /// Warm-store bytes held when the run finished
    /// (`SharedTddStore::bytes_used` — the serving scenarios report
    /// their session cache's total, shared-store scenarios their run's
    /// store; 0 where the notion does not apply). Absent in older
    /// artifacts — parsed tolerantly as 0.
    pub store_bytes: u64,
    /// High-water shared-store footprint across the run
    /// (`SharedTddStore::peak_bytes_used` — survives epoch-based
    /// reclamation swaps, so reclaim-on rows report the true peak, not
    /// the post-reclaim residue; 0 where `store_bytes` would be).
    /// Absent in older artifacts — parsed tolerantly as 0.
    pub peak_store_bytes: u64,
}

impl RunRecord {
    /// Builds a record from a finished [`Outcome`]; `None` for TO/MO.
    pub fn from_outcome(name: impl Into<String>, outcome: &Outcome) -> Option<RunRecord> {
        match outcome {
            Outcome::Done {
                fidelity,
                time,
                nodes,
                terms,
            } => {
                let secs = time.as_secs_f64();
                Some(RunRecord {
                    name: name.into(),
                    wall_ms: secs * 1e3,
                    terms_per_sec: if secs > 0.0 {
                        *terms as f64 / secs
                    } else {
                        0.0
                    },
                    max_nodes: *nodes,
                    fidelity: *fidelity,
                    store_bytes: 0,
                    peak_store_bytes: 0,
                })
            }
            _ => None,
        }
    }
}

/// Serialises records as a stable, human-diffable JSON array (the
/// [`json`] writer; scenario names are sanitised, never escaped — they
/// are harness-chosen identifiers, never data).
pub fn records_to_json(records: &[RunRecord]) -> String {
    let objects: Vec<json::Object> = records
        .iter()
        .map(|r| {
            json::Object::new()
                .string("name", &r.name)
                .number("wall_ms", r.wall_ms, 3)
                .number("terms_per_sec", r.terms_per_sec, 3)
                .int("max_nodes", r.max_nodes as u64)
                .number("fidelity", r.fidelity, 12)
                .int("store_bytes", r.store_bytes)
                .int("peak_store_bytes", r.peak_store_bytes)
        })
        .collect();
    json::array(&objects)
}

/// Parses the JSON produced by [`records_to_json`] (flat objects, no
/// string escapes — exactly the artifact shape, nothing more).
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn records_from_json(text: &str) -> Result<Vec<RunRecord>, String> {
    fn str_field(object: &str, key: &str) -> Result<String, String> {
        let tagged = format!("\"{key}\":");
        let rest = object
            .split_once(&tagged)
            .ok_or_else(|| format!("missing field `{key}` in `{object}`"))?
            .1
            .trim_start();
        let rest = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("field `{key}` is not a string in `{object}`"))?;
        Ok(rest
            .split_once('"')
            .ok_or_else(|| format!("unterminated string for `{key}`"))?
            .0
            .to_string())
    }
    fn num_field(object: &str, key: &str) -> Result<f64, String> {
        let tagged = format!("\"{key}\":");
        let rest = object
            .split_once(&tagged)
            .ok_or_else(|| format!("missing field `{key}` in `{object}`"))?
            .1
            .trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end]
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("bad number for `{key}`: {e}"))
    }

    let mut records = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| "unterminated object".to_string())?;
        let object = &rest[open..open + close + 1];
        records.push(RunRecord {
            name: str_field(object, "name")?,
            wall_ms: num_field(object, "wall_ms")?,
            terms_per_sec: num_field(object, "terms_per_sec")?,
            max_nodes: num_field(object, "max_nodes")? as usize,
            fidelity: num_field(object, "fidelity")?,
            // Tolerant: baselines written before the serving layer
            // carry no store_bytes column.
            store_bytes: num_field(object, "store_bytes").unwrap_or(0.0) as u64,
            peak_store_bytes: num_field(object, "peak_store_bytes").unwrap_or(0.0) as u64,
        });
        rest = &rest[open + close + 1..];
    }
    Ok(records)
}

/// Serialises a full bench artifact: the detected host core count (the
/// hardware context the speedup gates were measured in) as an envelope
/// around the per-run rows.
pub fn artifact_to_json(host_cores: usize, records: &[RunRecord]) -> String {
    let rows = records_to_json(records);
    format!(
        "{{\"host_cores\": {host_cores}, \"rows\": {}}}\n",
        rows.trim_end()
    )
}

/// Parses either artifact shape: the enveloped `{"host_cores": …,
/// "rows": […]}` written by `bench_smoke`, or the legacy bare array
/// (returned with `None` for the core count) that older baselines and
/// the table/figure harnesses' `--json` output still use.
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn artifact_from_json(text: &str) -> Result<(Option<usize>, Vec<RunRecord>), String> {
    let trimmed = text.trim_start();
    if !trimmed.starts_with('{') {
        return Ok((None, records_from_json(text)?));
    }
    let (head, rows) = trimmed
        .split_once("\"rows\":")
        .ok_or_else(|| "artifact object has no `rows` array".to_string())?;
    let cores = head.split_once("\"host_cores\":").and_then(|(_, rest)| {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse::<usize>().ok()
    });
    Ok((cores, records_from_json(rows)?))
}

/// Writes records to `path` as a bare JSON array (the legacy artifact
/// shape the table/figure harnesses emit).
///
/// # Errors
///
/// Propagates the I/O error message.
pub fn write_records(path: &str, records: &[RunRecord]) -> Result<(), String> {
    std::fs::write(path, records_to_json(records)).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes the enveloped artifact (host core count + rows) to `path` —
/// what `bench_smoke` emits for `BENCH_PR.json` / `BENCH_BASELINE.json`.
///
/// # Errors
///
/// Propagates the I/O error message.
pub fn write_artifact(path: &str, host_cores: usize, records: &[RunRecord]) -> Result<(), String> {
    std::fs::write(path, artifact_to_json(host_cores, records))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Reads the rows of an artifact written by [`write_records`] or
/// [`write_artifact`] (both shapes accepted).
///
/// # Errors
///
/// Propagates I/O and parse error messages.
pub fn read_records(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    artifact_from_json(&text).map(|(_, rows)| rows)
}

/// The reduced "smoke" preset behind the `bench-smoke` CI job: a set of
/// paper-table scenarios small enough to finish in seconds but broad
/// enough to cover both algorithms, the sequential and the work-stealing
/// parallel engine paths, ε early termination, and both Algorithm I
/// numerics (one-worker exact interning and the multi-worker grid).
///
/// Besides measuring, this *asserts* the cross-run invariants the
/// scenarios imply (parallel ε verdict equals the sequential one, early
/// exit computes fewer terms than exact mode, fidelities agree across
/// algorithms, the shared store records cross-thread unique-table hits),
/// so a semantics regression fails the job even when timings look fine.
///
/// # Panics
///
/// Panics when a scenario times out or an invariant breaks — in CI
/// that's exactly the failure signal.
pub fn run_smoke_suite(timeout: Duration) -> Vec<RunRecord> {
    let mut records = Vec::new();
    fn push(records: &mut Vec<RunRecord>, name: &str, outcome: &Outcome) {
        let record = RunRecord::from_outcome(name, outcome)
            .unwrap_or_else(|| panic!("smoke scenario `{name}` did not finish: {outcome:?}"));
        records.push(record);
    }

    // Fig. 7 QFT workload: qft3 with 4 depolarizing sites (256 terms).
    let qft3 = qft(3, QftStyle::DecomposedNoSwaps);
    let qft3_noisy = insert_random_noise(
        &qft3,
        &NoiseChannel::Depolarizing { p: 0.999 },
        4,
        NOISE_SEED + 4,
    );
    let exact = measure_best(2, || run_alg1(&qft3, &qft3_noisy, timeout));
    push(&mut records, "qft3_k4_alg1_exact", &exact);

    // The same workload through the ε-aware engine, sequential and on 4
    // work-stealing threads: verdicts must agree and early exit must
    // compute fewer terms than exact mode. Both cells run sub-10ms, so
    // `measure_best` smooths thread-spawn/scheduler jitter (the verdict
    // is deterministic per configuration; any repeat's will do).
    let mut verdict_seq = None;
    let eps_seq = measure_best(3, || {
        let (outcome, verdict) = run_alg1_epsilon(&qft3, &qft3_noisy, 1e-4, 1, timeout);
        verdict_seq = verdict;
        outcome
    });
    push(&mut records, "qft3_k4_alg1_eps1e-4_seq", &eps_seq);
    let mut verdict_par = None;
    let eps_par = measure_best(3, || {
        let (outcome, verdict) = run_alg1_epsilon(&qft3, &qft3_noisy, 1e-4, 4, timeout);
        verdict_par = verdict;
        outcome
    });
    push(&mut records, "qft3_k4_alg1_eps1e-4_t4", &eps_par);
    assert_eq!(
        verdict_seq, verdict_par,
        "parallel ε verdict diverged from sequential"
    );
    if let (
        Outcome::Done {
            terms: exact_terms, ..
        },
        Outcome::Done {
            terms: par_terms, ..
        },
    ) = (&exact, &eps_par)
    {
        assert!(
            par_terms < exact_terms,
            "parallel ε run must stop early: {par_terms} vs exact {exact_terms}"
        );
    }

    // Parallel exact mode on a second QFT workload, checked against
    // Algorithm II's collective value.
    let qft4 = qft(4, QftStyle::DecomposedNoSwaps);
    let qft4_noisy = insert_random_noise(
        &qft4,
        &NoiseChannel::Depolarizing { p: 0.999 },
        3,
        NOISE_SEED + 3,
    );
    let par_exact = measure_best(2, || {
        let opts = CheckOptions {
            deadline: Some(Instant::now() + timeout),
            threads: 4,
            term_order: TermOrder::Lexicographic,
            ..CheckOptions::default()
        };
        let start = Instant::now();
        match fidelity_alg1(&qft4, &qft4_noisy, None, &opts) {
            Ok(report) => Outcome::Done {
                fidelity: report.fidelity_lower,
                time: start.elapsed(),
                nodes: report.max_nodes,
                terms: report.terms_computed,
            },
            Err(QaecError::Timeout) => Outcome::TimedOut,
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
    push(&mut records, "qft4_k3_alg1_exact_t4", &par_exact);
    let alg2 = measure_best(2, || run_alg2(&qft4, &qft4_noisy, timeout));
    push(&mut records, "qft4_k3_alg2", &alg2);
    if let (Some(f1), Some(f2)) = (par_exact.fidelity(), alg2.fidelity()) {
        assert!((f1 - f2).abs() < 1e-6, "alg1-parallel {f1} vs alg2 {f2}");
    }

    // The same qft4 workload on 4 workers sharing one store, with its
    // store footprint: the shared store must record cross-thread
    // unique-table hits — the Table II "Opt." sharing, recovered in
    // parallel.
    let mut shared_stats = qaec::TddStats::default();
    let shared_outcome = measure_best(2, || {
        let opts = CheckOptions {
            deadline: Some(Instant::now() + timeout),
            threads: 4,
            term_order: TermOrder::Lexicographic,
            ..CheckOptions::default()
        };
        let start = Instant::now();
        let report = fidelity_alg1(&qft4, &qft4_noisy, None, &opts).expect("qft4 shared scenario");
        shared_stats = report.stats;
        Outcome::Done {
            fidelity: report.fidelity_lower,
            time: start.elapsed(),
            nodes: report.max_nodes,
            terms: report.terms_computed,
        }
    });
    push(&mut records, "qft4_k3_alg1_t4_shared", &shared_outcome);
    let row = records.last_mut().expect("just pushed");
    row.store_bytes = shared_stats.store_bytes;
    row.peak_store_bytes = shared_stats.peak_store_bytes;
    println!(
        "shared-store sharing (qft4_k3, 4 workers): {} nodes created, \
         {} cross-thread unique hits",
        shared_stats.nodes_created, shared_stats.cross_unique_hits,
    );
    assert!(
        shared_stats.cross_unique_hits > 0,
        "shared store must record cross-worker unique-table hits"
    );

    // Two more Table I rows (benchmark-gate coverage): the Grover row on
    // Algorithm II and the qft5 row on exact Algorithm I.
    let grover = grover_dac21();
    let grover_noisy = insert_random_noise(
        &grover,
        &NoiseChannel::Depolarizing { p: 0.999 },
        4,
        NOISE_SEED ^ "grover".len() as u64,
    );
    let grover_alg2 = measure_best(2, || run_alg2(&grover, &grover_noisy, timeout));
    push(&mut records, "grover_k4_alg2", &grover_alg2);

    let qft5 = qft(5, QftStyle::DecomposedNoSwaps);
    let qft5_noisy = insert_random_noise(
        &qft5,
        &NoiseChannel::Depolarizing { p: 0.999 },
        3,
        NOISE_SEED ^ "qft5".len() as u64,
    );
    let qft5_alg1 = measure_best(2, || run_alg1(&qft5, &qft5_noisy, timeout));
    push(&mut records, "qft5_k3_alg1_exact", &qft5_alg1);

    // Compile-once session sweep (the paper's Table-I-shaped workload):
    // the qft5 row re-checked at 8 noise strengths through ONE
    // `CompiledCheck` — validation, network construction and min-fill
    // planning paid once, Kraus weights re-instantiated per point on the
    // compiled plan over one warm shared store — against 8 cold
    // `check_equivalence` calls on the same re-parameterised pairs.
    // Gated: the sweep must build exactly one contraction plan (the
    // cold path builds 8) and finish ≥2× faster (re-confirmed on the
    // 4-vCPU ubuntu-latest runner; the default options now route this
    // sweep through the width-8 lane engine, which widens the measured
    // margin further), with every per-point fidelity and verdict
    // bit-identical to the cold path, at 1 and 4 threads.
    let sweep_eps = 1e-3;
    let sweep_strengths = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97];
    let qft5_seed = NOISE_SEED ^ "qft5".len() as u64;
    let session_opts = |threads: usize| CheckOptions {
        deadline: Some(Instant::now() + timeout),
        threads,
        ..CheckOptions::default()
    };
    let run_sweep = |threads: usize| -> (Duration, Vec<SweepPoint>, u64) {
        let builds_before = qaec_tensornet::plan::build_count();
        let start = Instant::now();
        let compiled = Checker::new(&qft5, &qft5_noisy)
            .options(session_opts(threads))
            .compile()
            .expect("qft5 session compiles");
        let points = compiled
            .sweep_noise(sweep_eps, &sweep_strengths)
            .expect("qft5 noise sweep");
        let elapsed = start.elapsed();
        let builds = qaec_tensornet::plan::build_count() - builds_before;
        (elapsed, points, builds)
    };
    // Best-of-3 on both sides: the ≥2× gate compares their ratio, and
    // the ~tens-of-ms cells on shared CI runners need the minimum on
    // each side to shake preemption noise out (the measured margin is
    // ~2.4–2.8×, so only a systematic slowdown should trip it).
    let (mut sweep_time, mut sweep_points, sweep_builds) = run_sweep(1);
    for _ in 0..2 {
        let (t, points, builds) = run_sweep(1);
        assert_eq!(builds, sweep_builds);
        if t < sweep_time {
            (sweep_time, sweep_points) = (t, points);
        }
    }
    assert_eq!(
        sweep_builds, 1,
        "a compile-once sweep must build exactly one contraction plan"
    );

    let run_cold = || -> (Duration, Vec<qaec::EquivalenceReport>, u64) {
        let builds_before = qaec_tensornet::plan::build_count();
        let start = Instant::now();
        let reports: Vec<qaec::EquivalenceReport> = sweep_strengths
            .iter()
            .map(|&p| {
                // The same noise positions (same seed) at strength `p` —
                // exactly the pair the session's sweep point checks.
                let cold_noisy =
                    insert_random_noise(&qft5, &NoiseChannel::Depolarizing { p }, 3, qft5_seed);
                check_equivalence(&qft5, &cold_noisy, sweep_eps, &session_opts(1))
                    .expect("cold qft5 check")
            })
            .collect();
        let elapsed = start.elapsed();
        let builds = qaec_tensornet::plan::build_count() - builds_before;
        (elapsed, reports, builds)
    };
    let (mut cold_time, cold_reports, cold_builds) = run_cold();
    for _ in 0..2 {
        let (t, _, _) = run_cold();
        cold_time = cold_time.min(t);
    }
    assert_eq!(
        cold_builds,
        sweep_strengths.len() as u64,
        "the cold path replans every point"
    );
    for (k, (point, report)) in sweep_points.iter().zip(&cold_reports).enumerate() {
        assert_eq!(
            point.fidelity.to_bits(),
            report.fidelity_bounds.0.to_bits(),
            "sweep point {k}: fidelity must be bit-identical to the cold path"
        );
        assert_eq!(point.verdict, report.verdict, "sweep point {k}");
    }
    // Thread count must not change what a sweep reports (Algorithm II
    // resolves the shared canonical store at every count).
    let (_, sweep_t4, _) = run_sweep(4);
    for (k, (p1, p4)) in sweep_points.iter().zip(&sweep_t4).enumerate() {
        assert_eq!(
            p1.fidelity.to_bits(),
            p4.fidelity.to_bits(),
            "sweep point {k}: t1 vs t4 fidelity drifted"
        );
        assert_eq!(p1.max_nodes, p4.max_nodes, "sweep point {k}: max_nodes");
    }
    let speedup = cold_time.as_secs_f64() / sweep_time.as_secs_f64();
    println!(
        "compile-once sweep (qft5_k3 ×{} points): {:.1}ms vs {:.1}ms cold — {speedup:.2}x",
        sweep_strengths.len(),
        sweep_time.as_secs_f64() * 1e3,
        cold_time.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 2.0,
        "a compiled sweep must beat cold re-checking ≥2x: {speedup:.2}x"
    );
    let sweep_max_nodes = sweep_points.iter().map(|p| p.max_nodes).max().unwrap_or(0);
    let last_fidelity = sweep_points.last().map_or(0.0, |p| p.fidelity);
    push(
        &mut records,
        "qft5_k3_sweep8_session",
        &Outcome::Done {
            fidelity: last_fidelity,
            time: sweep_time,
            nodes: sweep_max_nodes,
            terms: sweep_strengths.len(),
        },
    );
    push(
        &mut records,
        "qft5_k3_sweep8_cold",
        &Outcome::Done {
            fidelity: cold_reports.last().map_or(0.0, |r| r.fidelity_bounds.0),
            time: cold_time,
            nodes: cold_reports.iter().map(|r| r.max_nodes).max().unwrap_or(0),
            terms: sweep_strengths.len(),
        },
    );

    // Vectorised lane sweep (the multi-lane weight engine end to end):
    // the same compiled qft5 sweep with its 8 points batched into ONE
    // width-8 lane contraction, against eight single-point sweeps on one
    // compiled session (a one-point sweep always runs the scalar
    // per-point path). The per-point results must be bit-identical —
    // the lane engine's whole contract — and every point of the batch
    // must carry the batch's shared single-traversal statistics, so a
    // silent scalar fallback (a lane divergence on this preset) fails
    // the job instead of just running slower.
    let lane_session = || {
        Checker::new(&qft5, &qft5_noisy)
            .options(CheckOptions {
                algorithm: AlgorithmChoice::AlgorithmII,
                deadline: Some(Instant::now() + timeout),
                threads: 1,
                ..CheckOptions::default()
            })
            .compile()
            .expect("qft5 lane session compiles")
    };
    let run_lane_sweep = || -> (Duration, Vec<SweepPoint>) {
        let compiled = lane_session();
        let start = Instant::now();
        let points = compiled
            .sweep_noise(sweep_eps, &sweep_strengths)
            .expect("qft5 lane sweep");
        (start.elapsed(), points)
    };
    let run_replay = || -> (Duration, Vec<SweepPoint>) {
        let compiled = lane_session();
        let start = Instant::now();
        let points = sweep_strengths
            .iter()
            .flat_map(|&p| compiled.sweep_noise(sweep_eps, &[p]).expect("qft5 replay"))
            .collect();
        (start.elapsed(), points)
    };
    // Best-of-3 per side: the gate below compares their ratio.
    let (mut lane_time, lane_points) = run_lane_sweep();
    for _ in 0..2 {
        lane_time = lane_time.min(run_lane_sweep().0);
    }
    let (mut replay_time, replay_points) = run_replay();
    for _ in 0..2 {
        replay_time = replay_time.min(run_replay().0);
    }
    for (k, (lane, replay)) in lane_points.iter().zip(&replay_points).enumerate() {
        assert_eq!(
            lane.fidelity.to_bits(),
            replay.fidelity.to_bits(),
            "lane point {k}: fidelity must be bit-identical to the scalar replay"
        );
        assert_eq!(lane.verdict, replay.verdict, "lane point {k}: verdict");
    }
    let head = &lane_points[0];
    for (k, point) in lane_points.iter().enumerate() {
        assert_eq!(
            point.stats, head.stats,
            "lane point {k} must report the width-8 batch's single traversal"
        );
    }
    assert!(head.stats.cont_calls > 0, "the lane batch did real work");
    let lane_speedup = replay_time.as_secs_f64() / lane_time.as_secs_f64();
    println!(
        "lane sweep (qft5_k3 ×{} points, width 8): {:.1}ms vs {:.1}ms scalar replay — \
         {lane_speedup:.2}x",
        sweep_strengths.len(),
        lane_time.as_secs_f64() * 1e3,
        replay_time.as_secs_f64() * 1e3,
    );
    // ≥1.5× from 4-vCPU runner measurements (~2× there — one traversal
    // amortises eight passes of hashing and cache probing). Both sides
    // are single-threaded, but 1-core containers time-share the harness
    // itself, so the gate only arms where CI actually runs it.
    let cores = detected_cores();
    if cores >= 4 {
        assert!(
            lane_speedup >= 1.5,
            "the lane engine must beat per-point replay ≥1.5x: {lane_speedup:.2}x"
        );
    } else {
        println!("lane-sweep speedup gate skipped: only {cores} core(s) visible");
    }
    push(
        &mut records,
        "qft5_k3_sweep8_lanes8",
        &Outcome::Done {
            fidelity: lane_points.last().map_or(0.0, |p| p.fidelity),
            time: lane_time,
            nodes: lane_points.iter().map(|p| p.max_nodes).max().unwrap_or(0),
            terms: sweep_strengths.len(),
        },
    );
    push(
        &mut records,
        "qft5_k3_sweep8_replay1",
        &Outcome::Done {
            fidelity: replay_points.last().map_or(0.0, |p| p.fidelity),
            time: replay_time,
            nodes: replay_points.iter().map(|p| p.max_nodes).max().unwrap_or(0),
            terms: sweep_strengths.len(),
        },
    );

    // One wide-noise Algorithm II row from Table I territory.
    let bv5 = bernstein_vazirani_all_ones(5);
    let bv5_noisy = insert_random_noise(
        &bv5,
        &NoiseChannel::Depolarizing { p: 0.999 },
        6,
        NOISE_SEED + 6,
    );
    let bv5_alg2 = measure_best(2, || run_alg2(&bv5, &bv5_noisy, timeout));
    push(&mut records, "bv5_k6_alg2", &bv5_alg2);

    // Plan-level parallel Algorithm II on a simultaneous (tiled)
    // workload: four disjoint 6-qubit QV blocks, whose doubled network
    // decomposes into four independent contraction branches. The shared
    // canonical store makes `--threads` a pure performance knob, so t1
    // and t4 must report bit-identical fidelity and `max_nodes`.
    let sim = tile(&quantum_volume(6, 5, NOISE_SEED), 4);
    let sim_noisy = insert_random_noise(
        &sim,
        &NoiseChannel::Depolarizing { p: 0.999 },
        8,
        NOISE_SEED + 8,
    );
    // Best-of-5 on the two speedup cells: the ≥1.3× gate below compares
    // their ratio, and ~400ms cells on shared CI runners need the extra
    // repeats to shake scheduler noise out of the minimum.
    let mut alg2_t1_stats = qaec::TddStats::default();
    let alg2_t1 = measure_best(5, || {
        let (outcome, stats) = run_alg2_with_stats(&sim, &sim_noisy, timeout, 1);
        alg2_t1_stats = stats;
        outcome
    });
    push(&mut records, "qv6x4_k8_alg2_t1_shared", &alg2_t1);
    let row = records.last_mut().expect("just pushed");
    row.store_bytes = alg2_t1_stats.store_bytes;
    row.peak_store_bytes = alg2_t1_stats.peak_store_bytes;
    let mut alg2_t4_stats = qaec::TddStats::default();
    let alg2_t4 = measure_best(5, || {
        let (outcome, stats) = run_alg2_with_stats(&sim, &sim_noisy, timeout, 4);
        alg2_t4_stats = stats;
        outcome
    });
    push(&mut records, "qv6x4_k8_alg2_t4_shared", &alg2_t4);
    let row = records.last_mut().expect("just pushed");
    row.store_bytes = alg2_t4_stats.store_bytes;
    row.peak_store_bytes = alg2_t4_stats.peak_store_bytes;
    if let (
        Outcome::Done {
            fidelity: f1,
            time: t1,
            nodes: n1,
            ..
        },
        Outcome::Done {
            fidelity: f4,
            time: t4,
            nodes: n4,
            ..
        },
    ) = (&alg2_t1, &alg2_t4)
    {
        assert_eq!(
            f1.to_bits(),
            f4.to_bits(),
            "parallel alg2 fidelity must be bit-identical to sequential"
        );
        assert_eq!(n1, n4, "parallel alg2 max_nodes must match sequential");
        // The wall-time payoff is only measurable with real cores under
        // the pool; single-core runners (and CI under heavy contention)
        // time-share the workers and cannot show a speedup.
        let cores = detected_cores();
        if cores >= 4 {
            let speedup = t1.as_secs_f64() / t4.as_secs_f64();
            println!("parallel-alg2 speedup (qv6x4_k8, 4 workers, {cores} cores): {speedup:.2}x");
            // ≥1.3× re-confirmed on the 4-vCPU ubuntu-latest runner
            // (measured ~1.6–1.9× there; the margin absorbs noisy
            // neighbours without letting a real scheduling regression
            // through).
            assert!(
                speedup >= 1.3,
                "plan-level parallelism must pay off on the tiled workload: {speedup:.2}x < 1.3x"
            );
        } else {
            println!(
                "parallel-alg2 speedup gate skipped: only {cores} core(s) visible \
                 (t1 {:.1}ms vs t4 {:.1}ms)",
                t1.as_secs_f64() * 1e3,
                t4.as_secs_f64() * 1e3,
            );
        }
    }

    // Epoch-based store reclamation on the tiled qv6x4 workload, scalar
    // per-point path (eight single-point sweeps on one session, so every
    // point is its own traversal and its own quiescent boundary).
    // Reclaim-off accumulates all 8
    // points' arenas in one append-only store; reclaim-on retires them
    // at each point boundary. Gated: every fidelity and verdict
    // bit-identical between the two modes, and the reclaim-off peak
    // footprint at least 1.5× the reclaim-on peak (measured ~3–5× —
    // the margin only guards against reclamation silently not
    // happening).
    let reclaim_opts = |reclaim: StoreReclaimMode| CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        deadline: Some(Instant::now() + timeout),
        threads: 1,
        store_reclaim: reclaim,
        ..CheckOptions::default()
    };
    let run_reclaim_sweep = |reclaim: StoreReclaimMode| -> (Duration, Vec<SweepPoint>, u64, u64) {
        let compiled = Checker::new(&sim, &sim_noisy)
            .options(reclaim_opts(reclaim))
            .compile()
            .expect("qv6x4 reclaim session compiles");
        let start = Instant::now();
        let points: Vec<SweepPoint> = sweep_strengths
            .iter()
            .flat_map(|&p| {
                compiled
                    .sweep_noise(sweep_eps, &[p])
                    .expect("qv6x4 reclaim sweep")
            })
            .collect();
        let elapsed = start.elapsed();
        (
            elapsed,
            points,
            compiled.warm_store_bytes() as u64,
            compiled.warm_store_peak_bytes() as u64,
        )
    };
    let (off_time, off_points, off_bytes, off_peak) = run_reclaim_sweep(StoreReclaimMode::Off);
    let (on_time, on_points, on_bytes, on_peak) = run_reclaim_sweep(StoreReclaimMode::On);
    for (k, (a, b)) in off_points.iter().zip(&on_points).enumerate() {
        assert_eq!(
            a.fidelity.to_bits(),
            b.fidelity.to_bits(),
            "sweep point {k}: reclamation must not move a fidelity bit"
        );
        assert_eq!(a.verdict, b.verdict, "sweep point {k}: verdict");
    }
    let peak_reduction = off_peak as f64 / on_peak.max(1) as f64;
    println!(
        "store reclamation (qv6x4_k8 ×{} points, scalar): peak {off_peak} B off vs {on_peak} B on \
         — {peak_reduction:.2}x reduction",
        sweep_strengths.len(),
    );
    assert!(
        peak_reduction >= 1.5,
        "reclaim-on must cut the multi-point peak ≥1.5x: {peak_reduction:.2}x \
         ({off_peak} B vs {on_peak} B)"
    );
    let reclaim_row = |name: &str, time: Duration, points: &[SweepPoint]| -> RunRecord {
        RunRecord::from_outcome(
            name,
            &Outcome::Done {
                fidelity: points.last().map_or(0.0, |p| p.fidelity),
                time,
                nodes: points.iter().map(|p| p.max_nodes).max().unwrap_or(0),
                terms: sweep_strengths.len(),
            },
        )
        .expect("reclaim record")
    };
    let mut off_record = reclaim_row("qv6x4_k8_sweep8_reclaim_off", off_time, &off_points);
    off_record.store_bytes = off_bytes;
    off_record.peak_store_bytes = off_peak;
    records.push(off_record);
    let mut on_record = reclaim_row("qv6x4_k8_sweep8_reclaim_on", on_time, &on_points);
    on_record.store_bytes = on_bytes;
    on_record.peak_store_bytes = on_peak;
    records.push(on_record);

    // Serving layer: the repeated-pair request stream a long-lived
    // `qaec serve` answers — 9 check requests over 3 distinct qft3
    // pairs through one `Service`, Algorithm II sessions (so every
    // session holds a warm store the cache can account). Gated: the
    // service builds exactly one contraction plan per DISTINCT pair
    // (3, not 9 — the session cache absorbs the repeats), the repeats
    // are hits, and every cached answer is bit-identical to a cold
    // one-shot check of the same pair.
    let service_eps = 1e-3;
    let service_opts = CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        deadline: Some(Instant::now() + timeout),
        ..CheckOptions::default()
    };
    let service_pairs: Vec<Circuit> = (0..3)
        .map(|k| {
            insert_random_noise(
                &qft3,
                &NoiseChannel::Depolarizing { p: 0.999 },
                2,
                NOISE_SEED + 10 + k as u64,
            )
        })
        .collect();
    let service_requests: Vec<ServiceRequest> = (0..9)
        .map(|k| ServiceRequest {
            ideal: qft3.clone(),
            noisy: service_pairs[k % 3].clone(),
            query: ServiceQuery::Check {
                epsilon: service_eps,
            },
            algorithm: None,
        })
        .collect();
    let run_service = || {
        let service = Service::new(ServiceConfig {
            options: service_opts.clone(),
            cache_bytes: None,
        });
        let builds_before = qaec_tensornet::plan::build_count();
        let start = Instant::now();
        let responses = service.handle_batch(&service_requests);
        let elapsed = start.elapsed();
        let builds = qaec_tensornet::plan::build_count() - builds_before;
        (elapsed, builds, service.stats(), responses)
    };
    let (mut service_time, service_builds, service_stats, service_responses) = run_service();
    {
        // Best-of-2 on the timing; the structural gates must hold on
        // every run.
        let (t, builds, _, _) = run_service();
        assert_eq!(builds, service_builds);
        service_time = service_time.min(t);
    }
    assert_eq!(
        service_builds, 3,
        "the session cache must compile one plan per distinct pair, not per request"
    );
    assert_eq!(
        (
            service_stats.misses,
            service_stats.hits,
            service_stats.compiles
        ),
        (3, 6, 3),
        "9 requests over 3 pairs: 3 misses, 6 hits, 3 compiles"
    );
    assert!(
        service_stats.store_bytes > 0,
        "Algorithm II sessions hold a warm store the cache can account"
    );
    let service_reports: Vec<&qaec::EquivalenceReport> = service_responses
        .iter()
        .map(|response| {
            match response
                .result
                .as_ref()
                .expect("service check scenario succeeds")
            {
                ServiceReply::Check(report) => report,
                _ => panic!("check requests yield check replies"),
            }
        })
        .collect();
    for (k, response) in service_responses.iter().enumerate() {
        let expected = if k < 3 {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Hit
        };
        assert_eq!(response.cache, expected, "request {k}");
        assert_eq!(
            service_reports[k].fidelity_bounds.0.to_bits(),
            service_reports[k % 3].fidelity_bounds.0.to_bits(),
            "request {k}: repeats of a pair must answer bit-identically"
        );
    }
    for (k, noisy) in service_pairs.iter().enumerate() {
        let cold = check_equivalence(&qft3, noisy, service_eps, &service_opts)
            .expect("cold service comparator");
        assert_eq!(
            service_reports[k].fidelity_bounds.0.to_bits(),
            cold.fidelity_bounds.0.to_bits(),
            "pair {k}: cached answer must be bit-identical to a cold one-shot check"
        );
        assert_eq!(service_reports[k].verdict, cold.verdict, "pair {k}");
    }
    println!(
        "service stream (9 req / 3 pairs): {:.1}ms, {} — plans built: {service_builds}",
        service_time.as_secs_f64() * 1e3,
        service_stats,
    );
    let mut service_record = RunRecord::from_outcome(
        "service_9req_3pairs_alg2",
        &Outcome::Done {
            fidelity: service_reports[8].fidelity_bounds.0,
            time: service_time,
            nodes: service_reports
                .iter()
                .map(|r| r.max_nodes)
                .max()
                .unwrap_or(0),
            terms: service_requests.len(),
        },
    )
    .expect("service record");
    service_record.store_bytes = service_stats.store_bytes;
    service_record.peak_store_bytes = service_stats.peak_store_bytes;
    records.push(service_record);

    // Algorithm III (MPO) on the portfolio's wide, weakly-coupled
    // workload: eight noisy 3-qubit QFT blocks tiled to 24 qubits —
    // past the width heuristic's floor, disjoint enough that the
    // superoperator MPO stays near identity on tiny bonds while the
    // exact backend pays for the full doubled network. Gated: the
    // certified interval decides at the bench ε with the exact
    // backend's verdict, and the MPO check runs ≥2× faster than the
    // exact Algorithm II check on the same pair.
    let wide_block = qft(3, QftStyle::DecomposedNoSwaps);
    let wide_noisy_block = insert_random_noise(
        &wide_block,
        &NoiseChannel::Depolarizing { p: 0.998 },
        1,
        NOISE_SEED + 24,
    );
    let wide = tile(&wide_block, 8);
    let wide_noisy = tile(&wide_noisy_block, 8);
    assert!(
        mpo_favored(&wide_noisy),
        "the tiled 24-qubit pair must be portfolio-favored"
    );
    let mpo_eps = 0.2;
    let run_wide_mpo = || -> (Duration, qaec::EquivalenceReport) {
        let start = Instant::now();
        let mut compiled = Checker::new(&wide, &wide_noisy)
            .options(CheckOptions {
                algorithm: AlgorithmChoice::Mpo,
                deadline: Some(Instant::now() + timeout),
                ..CheckOptions::default()
            })
            .compile()
            .expect("wide mpo session compiles");
        let report = compiled.check(mpo_eps).expect("wide mpo check");
        (start.elapsed(), report)
    };
    let run_wide_exact = || -> (Duration, qaec::EquivalenceReport) {
        let start = Instant::now();
        let report = check_equivalence(
            &wide,
            &wide_noisy,
            mpo_eps,
            &CheckOptions {
                algorithm: AlgorithmChoice::AlgorithmII,
                deadline: Some(Instant::now() + timeout),
                ..CheckOptions::default()
            },
        )
        .expect("wide exact check");
        (start.elapsed(), report)
    };
    // Best-of-3 per side: the ≥2× gate compares their ratio.
    let (mut mpo_time, mpo_report) = run_wide_mpo();
    for _ in 0..2 {
        mpo_time = mpo_time.min(run_wide_mpo().0);
    }
    let (mut wide_exact_time, wide_exact_report) = run_wide_exact();
    for _ in 0..2 {
        wide_exact_time = wide_exact_time.min(run_wide_exact().0);
    }
    assert_eq!(mpo_report.algorithm, AlgorithmUsed::Mpo);
    assert_ne!(
        mpo_report.verdict,
        Verdict::Inconclusive,
        "the certified interval must decide the bench ε"
    );
    assert_eq!(
        mpo_report.verdict, wide_exact_report.verdict,
        "MPO and exact verdicts must agree on the wide workload"
    );
    let (lo, hi) = mpo_report.fidelity_bounds;
    let wide_exact_f = wide_exact_report.fidelity_bounds.0;
    assert!(
        lo - 1e-12 <= wide_exact_f && wide_exact_f <= hi + 1e-12,
        "certified interval [{lo}, {hi}] must contain the exact fidelity {wide_exact_f}"
    );
    let mpo_speedup = wide_exact_time.as_secs_f64() / mpo_time.as_secs_f64();
    println!(
        "mpo wide/shallow (qft3×8, 24 qubits): {:.1}ms vs {:.1}ms exact — {mpo_speedup:.2}x, \
         bond {} trunc {:.1e}",
        mpo_time.as_secs_f64() * 1e3,
        wide_exact_time.as_secs_f64() * 1e3,
        mpo_report.bond_max.unwrap_or(0),
        mpo_report.trunc_error.unwrap_or(0.0),
    );
    assert!(
        mpo_speedup >= 2.0,
        "the MPO backend must beat exact Algorithm II ≥2x on the wide workload: {mpo_speedup:.2}x"
    );
    push(
        &mut records,
        "qft3x8_wide24_mpo",
        &Outcome::Done {
            fidelity: (lo + hi) / 2.0,
            time: mpo_time,
            nodes: mpo_report.max_nodes,
            terms: 1,
        },
    );
    push(
        &mut records,
        "qft3x8_wide24_alg2",
        &Outcome::Done {
            fidelity: wide_exact_f,
            time: wide_exact_time,
            nodes: wide_exact_report.max_nodes,
            terms: 1,
        },
    );

    // The portfolio's routing, end to end: `Auto` must answer the wide
    // tiled pair from the MPO pass and an entangling-heavy pair (a GHZ
    // chain coupling every qubit into one component) from an exact
    // backend — `method_used` asserted on both rows.
    let run_auto = |ideal: &Circuit, noisy: &Circuit| -> (Duration, qaec::EquivalenceReport) {
        let start = Instant::now();
        let mut compiled = Checker::new(ideal, noisy)
            .options(CheckOptions {
                deadline: Some(Instant::now() + timeout),
                ..CheckOptions::default()
            })
            .compile()
            .expect("auto session compiles");
        let report = compiled.check(mpo_eps).expect("auto check");
        (start.elapsed(), report)
    };
    let (auto_wide_time, auto_wide_report) = run_auto(&wide, &wide_noisy);
    assert_eq!(
        auto_wide_report.algorithm,
        AlgorithmUsed::Mpo,
        "Auto must route the wide, weakly-coupled pair to the MPO pass"
    );
    assert_eq!(
        auto_wide_report.verdict, wide_exact_report.verdict,
        "the portfolio's verdict must agree with the exact backend"
    );
    let heavy = ghz(8);
    let heavy_noisy = insert_random_noise(
        &heavy,
        &NoiseChannel::Depolarizing { p: 0.999 },
        2,
        NOISE_SEED + 25,
    );
    assert!(
        !mpo_favored(&heavy_noisy),
        "a fully-coupled GHZ chain must not be portfolio-favored"
    );
    let (auto_heavy_time, auto_heavy_report) = run_auto(&heavy, &heavy_noisy);
    assert_ne!(
        auto_heavy_report.algorithm,
        AlgorithmUsed::Mpo,
        "Auto must route the entangling-heavy pair to an exact backend"
    );
    println!(
        "auto portfolio: wide24 via {} ({:.1}ms), ghz8 via {} ({:.1}ms)",
        auto_wide_report.algorithm,
        auto_wide_time.as_secs_f64() * 1e3,
        auto_heavy_report.algorithm,
        auto_heavy_time.as_secs_f64() * 1e3,
    );
    push(
        &mut records,
        "auto_portfolio_wide24",
        &Outcome::Done {
            fidelity: (auto_wide_report.fidelity_bounds.0 + auto_wide_report.fidelity_bounds.1)
                / 2.0,
            time: auto_wide_time,
            nodes: auto_wide_report.max_nodes,
            terms: 1,
        },
    );
    push(
        &mut records,
        "auto_portfolio_ghz8",
        &Outcome::Done {
            fidelity: auto_heavy_report.fidelity_bounds.0,
            time: auto_heavy_time,
            nodes: auto_heavy_report.max_nodes,
            terms: auto_heavy_report.terms_computed,
        },
    );

    // Every shared-store row must account its real warm-store footprint
    // — `store_bytes` silently reading 0 on non-service rows was
    // exactly the reporting bug this gate pins down.
    for record in &records {
        if record.name.ends_with("_shared") {
            assert!(
                record.store_bytes > 0,
                "shared-store row `{}` must report its store footprint",
                record.name
            );
        }
        // The high-water mark can never read below the bytes still
        // held — a row violating that has its columns crossed.
        if record.store_bytes > 0 {
            assert!(
                record.peak_store_bytes >= record.store_bytes,
                "row `{}`: peak {} B below current {} B",
                record.name,
                record.peak_store_bytes,
                record.store_bytes
            );
        }
    }

    records
}

/// One gated metric that regressed against the committed baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Scenario name.
    pub name: String,
    /// Which gate tripped: `"wall_ms"` or `"max_nodes"`.
    pub metric: &'static str,
    /// The PR's measured value.
    pub pr: f64,
    /// The committed baseline value.
    pub baseline: f64,
}

/// Compares a PR artifact against the committed baseline: every scenario
/// present in both must not exceed `max_ratio ×` the baseline on either
/// gated metric — wall time *or* `max_nodes`, the paper's Table I memory
/// proxy (decision-diagram blow-ups are regressions even when the wall
/// clock hides them). Returns the offending rows.
pub fn regressions(pr: &[RunRecord], baseline: &[RunRecord], max_ratio: f64) -> Vec<Regression> {
    let mut offending = Vec::new();
    for b in baseline {
        if let Some(p) = pr.iter().find(|p| p.name == b.name) {
            // Few-millisecond baselines are mostly timer/scheduler noise
            // on shared CI runners; hold those to an absolute floor
            // instead of a ratio.
            let allowed = (b.wall_ms * max_ratio).max(5.0);
            if p.wall_ms > allowed {
                offending.push(Regression {
                    name: b.name.clone(),
                    metric: "wall_ms",
                    pr: p.wall_ms,
                    baseline: b.wall_ms,
                });
            }
            // Node counts are deterministic (no timer noise), but tiny
            // diagrams get an absolute floor so a 10→25-node wobble on a
            // toy scenario doesn't gate the build.
            let allowed_nodes = ((b.max_nodes as f64) * max_ratio).max(64.0);
            if p.max_nodes as f64 > allowed_nodes {
                offending.push(Regression {
                    name: b.name.clone(),
                    metric: "max_nodes",
                    pr: p.max_nodes as f64,
                    baseline: b.max_nodes as f64,
                });
            }
        }
    }
    offending
}

/// Parses `--flag value` style arguments shared by the harness binaries.
pub struct HarnessArgs {
    /// Per-run timeout (default 120 s; the paper used 3600 s).
    pub timeout: Duration,
    /// Optional row-name filter (comma separated).
    pub only: Option<Vec<String>>,
    /// Maximum noise count for the sweep binaries.
    pub max_noises: usize,
    /// Skip the dense baseline column.
    pub skip_baseline: bool,
    /// Write per-run JSON records here (`--json PATH`).
    pub json: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, ignoring unknown flags.
    pub fn parse() -> Self {
        let mut args = HarnessArgs {
            timeout: Duration::from_secs(120),
            only: None,
            max_noises: 8,
            skip_baseline: false,
            json: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--timeout" => {
                    if let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) {
                        args.timeout = Duration::from_secs(v);
                    }
                }
                "--only" => {
                    if let Some(v) = it.next() {
                        args.only = Some(v.split(',').map(str::to_string).collect());
                    }
                }
                "--max-noises" => {
                    if let Some(v) = it.next().and_then(|v| v.parse::<usize>().ok()) {
                        args.max_noises = v;
                    }
                }
                "--skip-baseline" => args.skip_baseline = true,
                "--json" => args.json = it.next(),
                other => eprintln!("ignoring unknown flag `{other}`"),
            }
        }
        args
    }

    /// Writes collected records to `--json` if requested, reporting on
    /// stderr so table output stays clean.
    pub fn emit_json(&self, records: &[RunRecord]) {
        if let Some(path) = &self.json {
            match write_records(path, records) {
                Ok(()) => eprintln!("wrote {} run records to {path}", records.len()),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_inventory() {
        let suite = table1_suite();
        assert_eq!(suite.len(), 21);
        // Spot-check the paper's (n, |G|, k) columns.
        let find = |name: &str| {
            suite
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        for (name, n, g, k) in [
            ("rb", 2, 7, 6),
            ("qft2", 2, 7, 2),
            ("grover", 3, 96, 4),
            ("bv6", 6, 17, 14),
            ("qft10", 10, 235, 2),
            ("bv16", 16, 47, 9),
        ] {
            let case = find(name);
            assert_eq!(case.ideal.n_qubits(), n, "{name} qubits");
            assert_eq!(case.ideal.gate_count(), g, "{name} gates");
            assert_eq!(case.noises, k, "{name} noises");
            assert_eq!(case.noisy().noise_count(), k, "{name} inserted noises");
        }
    }

    #[test]
    fn runners_agree_on_a_small_case() {
        let case = &table1_suite()[1]; // qft2, k = 2
        let noisy = case.noisy();
        let timeout = Duration::from_secs(60);
        let baseline = run_baseline(&case.ideal, &noisy, timeout);
        let alg2 = run_alg2(&case.ideal, &noisy, timeout);
        let alg1 = run_alg1(&case.ideal, &noisy, timeout);
        let (Some(fb), Some(f2), Some(f1)) =
            (baseline.fidelity(), alg2.fidelity(), alg1.fidelity())
        else {
            panic!("small case must not TO/MO");
        };
        assert!((fb - f2).abs() < 1e-7);
        assert!((fb - f1).abs() < 1e-7);
    }

    #[test]
    fn baseline_mo_at_seven_qubits() {
        let case = table1_suite()
            .into_iter()
            .find(|c| c.name == "qft7")
            .expect("qft7");
        let noisy = case.noisy();
        assert!(matches!(
            run_baseline(&case.ideal, &noisy, Duration::from_secs(5)),
            Outcome::OutOfMemory
        ));
    }

    #[test]
    fn expired_timeouts_surface_as_to() {
        let case = &table1_suite()[3]; // qft3, k = 7 → enough terms to trip
        let noisy = case.noisy();
        let zero = Duration::from_secs(0);
        assert!(matches!(
            run_alg1(&case.ideal, &noisy, zero),
            Outcome::TimedOut
        ));
        assert!(matches!(
            run_alg2(&case.ideal, &noisy, zero),
            Outcome::TimedOut
        ));
        assert!(matches!(
            run_baseline(&case.ideal, &noisy, zero),
            Outcome::TimedOut
        ));
    }

    #[test]
    fn artifact_envelope_round_trips_and_reads_legacy_arrays() {
        let records = vec![RunRecord {
            name: "qft5_k3_sweep8_lanes8".into(),
            wall_ms: 3.25,
            terms_per_sec: 2461.5,
            max_nodes: 310,
            fidelity: 0.991234567890,
            store_bytes: 0,
            peak_store_bytes: 0,
        }];
        let text = artifact_to_json(4, &records);
        assert!(
            text.starts_with("{\"host_cores\": 4, \"rows\": ["),
            "{text}"
        );
        let (cores, rows) = artifact_from_json(&text).expect("envelope parses");
        assert_eq!(cores, Some(4));
        assert_eq!(rows, records);
        // Legacy bare arrays still parse, with no recorded core count.
        let legacy = records_to_json(&records);
        let (cores, rows) = artifact_from_json(&legacy).expect("legacy parses");
        assert_eq!(cores, None);
        assert_eq!(rows, records);
    }

    #[test]
    fn json_records_round_trip() {
        let records = vec![
            RunRecord {
                name: "qft3_k4_alg1_exact".into(),
                wall_ms: 12.345,
                terms_per_sec: 20736.5,
                max_nodes: 87,
                fidelity: 0.996005996001,
                store_bytes: 4096,
                peak_store_bytes: 8192,
            },
            RunRecord {
                name: "bv5_k6_alg2".into(),
                wall_ms: 0.75,
                terms_per_sec: 0.0,
                max_nodes: 1024,
                fidelity: 0.994014980015,
                store_bytes: 0,
                peak_store_bytes: 0,
            },
        ];
        let text = records_to_json(&records);
        let parsed = records_from_json(&text).expect("parse");
        assert_eq!(parsed.len(), 2);
        for (a, b) in records.iter().zip(&parsed) {
            assert_eq!(a.name, b.name);
            assert!((a.wall_ms - b.wall_ms).abs() < 1e-3);
            assert!((a.terms_per_sec - b.terms_per_sec).abs() < 1e-3);
            assert_eq!(a.max_nodes, b.max_nodes);
            assert!((a.fidelity - b.fidelity).abs() < 1e-9);
            assert_eq!(a.store_bytes, b.store_bytes);
            assert_eq!(a.peak_store_bytes, b.peak_store_bytes);
        }
        assert!(records_from_json("[]").expect("empty").is_empty());
        assert!(records_from_json("[{\"name\": \"x\"}]").is_err());

        // Artifacts written before the serving layer carry no
        // store_bytes column — they must still parse, as 0.
        let legacy = "[\n  {\"name\": \"old\", \"wall_ms\": 1.0, \"terms_per_sec\": 2.0, \
                      \"max_nodes\": 3, \"fidelity\": 0.5}\n]\n";
        let parsed = records_from_json(legacy).expect("legacy parses");
        assert_eq!(parsed[0].store_bytes, 0);
        assert_eq!(parsed[0].peak_store_bytes, 0);

        // Hostile characters in names are sanitised, never emitted raw.
        let hostile = vec![RunRecord {
            name: "qft\"3\\k4\n".into(),
            wall_ms: 1.0,
            terms_per_sec: 2.0,
            max_nodes: 3,
            fidelity: 0.5,
            store_bytes: 0,
            peak_store_bytes: 0,
        }];
        let parsed = records_from_json(&records_to_json(&hostile)).expect("parse");
        assert_eq!(parsed[0].name, "qft_3_k4_");
    }

    #[test]
    fn record_from_outcome_computes_rates() {
        let done = Outcome::Done {
            fidelity: 0.5,
            time: Duration::from_millis(500),
            nodes: 7,
            terms: 100,
        };
        let r = RunRecord::from_outcome("x", &done).expect("record");
        assert!((r.wall_ms - 500.0).abs() < 1e-9);
        assert!((r.terms_per_sec - 200.0).abs() < 1e-9);
        assert!(RunRecord::from_outcome("to", &Outcome::TimedOut).is_none());
    }

    #[test]
    fn regression_gate_flags_only_true_slowdowns() {
        let record = |name: &str, wall_ms: f64| RunRecord {
            name: name.into(),
            wall_ms,
            terms_per_sec: 0.0,
            max_nodes: 0,
            fidelity: 1.0,
            store_bytes: 0,
            peak_store_bytes: 0,
        };
        let baseline = vec![
            record("fast", 10.0),
            record("slow", 100.0),
            record("tiny", 0.01),
            record("gone", 50.0),
        ];
        let pr = vec![
            record("fast", 19.0),  // < 2× — fine
            record("slow", 201.0), // > 2× — regression
            record("tiny", 4.9),   // 490× but under the 5 ms noise floor
            record("new", 999.0),  // not in baseline — ignored
        ];
        let offending = regressions(&pr, &baseline, 2.0);
        assert_eq!(offending.len(), 1);
        assert_eq!(offending[0].name, "slow");
        assert_eq!(offending[0].metric, "wall_ms");
    }

    #[test]
    fn regression_gate_covers_max_nodes() {
        let record = |name: &str, max_nodes: usize| RunRecord {
            name: name.into(),
            wall_ms: 1.0,
            terms_per_sec: 0.0,
            max_nodes,
            fidelity: 1.0,
            store_bytes: 0,
            peak_store_bytes: 0,
        };
        let baseline = vec![record("big", 1000), record("toy", 10), record("grown", 200)];
        let pr = vec![
            record("big", 2500),  // > 2× — memory regression
            record("toy", 60),    // 6× but under the 64-node floor
            record("grown", 399), // < 2× — fine
        ];
        let offending = regressions(&pr, &baseline, 2.0);
        assert_eq!(offending.len(), 1);
        assert_eq!(offending[0].name, "big");
        assert_eq!(offending[0].metric, "max_nodes");
        assert_eq!(offending[0].pr, 2500.0);
    }

    #[test]
    fn outcome_cells() {
        assert_eq!(Outcome::TimedOut.time_cell(), "TO");
        assert_eq!(Outcome::OutOfMemory.nodes_cell(), "MO");
        let done = Outcome::Done {
            fidelity: 0.5,
            time: Duration::from_millis(1500),
            nodes: 7,
            terms: 3,
        };
        assert_eq!(done.time_cell(), "1.50");
        assert_eq!(done.nodes_cell(), "7");
        assert_eq!(done.fidelity(), Some(0.5));
    }
}
