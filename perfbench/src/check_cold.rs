//! `check_cold`: what one `qaec check` costs. Each operation takes a
//! fresh pair from QASM text to a verdict — parse both circuits,
//! compile, check at ε — with nothing cached across operations.

use crate::corpus::{check_corpus, Recipe, Rng};
use crate::measure::{gauge_max, Tracer};
use crate::verify::{check_decision, Answer, References};
use crate::{Kind, Round, Sample, Workload};
use qaec::{AlgorithmUsed, CheckOptions, Checker, EquivalenceReport, TddStats};
use qaec_circuit::qasm;
use qaec_tensornet::plan::build_count;
use std::time::Instant;

pub struct CheckCold {
    seed: u64,
    corpus: Vec<Recipe>,
    /// The backend each pair routed to (filled by the warm-up round).
    backends: Vec<String>,
    references: References,
}

impl CheckCold {
    pub fn new(seed: u64) -> CheckCold {
        let corpus = check_corpus(seed);
        CheckCold {
            seed,
            backends: vec![String::new(); corpus.len()],
            corpus,
            references: References::default(),
        }
    }
}

fn options() -> CheckOptions {
    CheckOptions {
        threads: 1,
        ..CheckOptions::default()
    }
}

/// The span a backend call is attributed to.
pub fn backend_span(algorithm: AlgorithmUsed, call: &str) -> &'static str {
    match (algorithm, call) {
        (AlgorithmUsed::AlgorithmI, "check") => "core.alg1.check",
        (AlgorithmUsed::AlgorithmII, "check") => "core.alg2.check",
        (AlgorithmUsed::Mpo, "check") => "mpo.check",
        (AlgorithmUsed::AlgorithmI, _) => "core.alg1.sweep",
        (AlgorithmUsed::AlgorithmII, _) => "core.alg2.sweep",
        (AlgorithmUsed::Mpo, _) => "mpo.sweep",
    }
}

/// Folds one check report into the round's counters and gauges.
pub fn count_report(round: &mut Round, report: &EquivalenceReport) {
    count_stats(round, &report.stats);
    let counters = &mut round.counters;
    counters.add("engine.terms_computed", report.terms_computed as u64);
    counters.add("engine.total_terms", report.total_terms as u64);
    if let Some(bond) = report.bond_max {
        counters.max("mpo.bond_max", bond as u64);
    }
    if let Some(error) = report.trunc_error {
        // Non-negative floats order like their bit patterns.
        counters.max("mpo.trunc_error_bits", error.to_bits());
    }
}

/// Folds decision-diagram statistics into the round. Store bytes are a
/// gauge: with two workers on one shared store they depend on how the
/// workers interleave.
pub fn count_stats(round: &mut Round, stats: &TddStats) {
    round.counters.add_tdd(stats);
    gauge_max(
        &mut round.gauges,
        "tdd.peak_store_bytes",
        stats.peak_store_bytes as f64,
    );
}

/// One check from QASM text to verdict, with a span around each layer.
fn check_one(
    tracer: &mut Tracer,
    ideal: &str,
    noisy: &str,
    epsilon: f64,
) -> Result<EquivalenceReport, String> {
    let ideal = tracer.span("circuit.qasm.parse", |_| qasm::parse(ideal));
    let noisy = tracer.span("circuit.qasm.parse", |_| qasm::parse(noisy));
    let (ideal, noisy) = (
        ideal.map_err(|e| e.to_string())?,
        noisy.map_err(|e| e.to_string())?,
    );
    let mut compiled = tracer
        .span("core.session.compile", |_| {
            Checker::new(&ideal, &noisy).options(options()).compile()
        })
        .map_err(|e| e.to_string())?;
    let mark = tracer.mark();
    let report = tracer
        .span("check", |_| compiled.check(epsilon))
        .map_err(|e| e.to_string())?;
    tracer.rename(mark, backend_span(report.algorithm, "check"));
    Ok(report)
}

impl Workload for CheckCold {
    fn classes(&self) -> Vec<(String, String)> {
        self.corpus
            .iter()
            .zip(&self.backends)
            .map(|(r, b)| (r.name.clone(), b.clone()))
            .collect()
    }

    fn options(&self) -> String {
        format!("{:?}", options())
    }

    fn round(&mut self, _kind: Kind, tracer: &mut Tracer) -> Round {
        let setup_start = Instant::now();
        let corpus = check_corpus(self.seed);
        let texts: Vec<(String, String)> = corpus
            .iter()
            .map(|recipe| {
                let (ideal, noisy) = recipe.pair();
                (qasm::write(&ideal), qasm::write(&noisy))
            })
            .collect();
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        Rng::new(self.seed, 5).shuffle(&mut order);
        let mut round = Round {
            setup: setup_start.elapsed(),
            ..Round::default()
        };

        let plans_before = build_count();
        let timed_start = Instant::now();
        for &pair in &order {
            tracer.next_op();
            let start = Instant::now();
            let (ideal, noisy) = &texts[pair];
            let result = tracer.span("op", |t| check_one(t, ideal, noisy, corpus[pair].epsilon));
            round.samples.push(Sample {
                class: pair,
                latency: start.elapsed(),
                ops: 1,
                lane: 0,
            });
            let answer = match result {
                Ok(report) => {
                    count_report(&mut round, &report);
                    self.backends[pair] = report.algorithm.to_string();
                    Answer::Report {
                        recipe: pair,
                        strength: corpus[pair].strength,
                        verdict: report.verdict,
                        bounds: report.fidelity_bounds,
                        algorithm: report.algorithm,
                    }
                }
                Err(e) => Answer::Line(format!("error: {e}")),
            };
            round.answers.push(answer);
        }
        round.timed = timed_start.elapsed();
        round
            .counters
            .add("plan.builds", build_count() - plans_before);
        round
    }

    fn verify(&mut self, answers: &[Answer]) -> Vec<Result<(), String>> {
        answers
            .iter()
            .map(|answer| match answer {
                Answer::Report {
                    recipe,
                    strength,
                    verdict,
                    bounds,
                    algorithm,
                } => {
                    let recipe = &self.corpus[*recipe];
                    let reference = self.references.get(recipe, *strength);
                    check_decision(recipe, reference, *verdict, *bounds, *algorithm)
                }
                Answer::Line(line) => Err(line.clone()),
            })
            .collect()
    }
}
