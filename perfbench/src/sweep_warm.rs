//! `sweep_warm`: noise characterisation on compiled sessions. Set-up
//! parses and compiles every pair; the timed part runs a fixed number
//! of 16-point `sweep_noise` calls per pair, each on a fresh seeded
//! strength grid, on the warm session. One operation is one point.

use crate::check_cold::{backend_span, count_stats};
use crate::corpus::{strength_grids, sweep_corpus, Recipe};
use crate::measure::Tracer;
use crate::verify::{check_decision, Answer, References};
use crate::{Kind, Round, Sample, Workload};
use qaec::{AlgorithmChoice, AlgorithmUsed, CheckOptions, Checker, CompiledCheck};
use qaec_circuit::qasm;
use qaec_tensornet::plan::build_count;
use std::time::Instant;

/// Sweeps per pair per round: the first runs on a cold store, the
/// later ones zoom in on a store the earlier ones warmed.
const SWEEPS: usize = 3;

pub struct SweepWarm {
    seed: u64,
    corpus: Vec<Recipe>,
    backends: Vec<String>,
    references: References,
}

impl SweepWarm {
    pub fn new(seed: u64) -> SweepWarm {
        let corpus = sweep_corpus(seed);
        SweepWarm {
            seed,
            backends: vec![String::new(); corpus.len()],
            corpus,
            references: References::default(),
        }
    }
}

/// The options of a pair. Under `Auto` a sweep on an MPO-routed session
/// escalates to the exact fallback, so the wide tiles are compiled for
/// the MPO engine explicitly to measure its sweep.
fn options(recipe: &Recipe) -> CheckOptions {
    let mut options = CheckOptions {
        threads: 1,
        ..CheckOptions::default()
    };
    if recipe.copies > 1 {
        options.algorithm = AlgorithmChoice::Mpo;
    }
    options
}

impl Workload for SweepWarm {
    fn classes(&self) -> Vec<(String, String)> {
        self.corpus
            .iter()
            .zip(&self.backends)
            .map(|(r, b)| (r.name.clone(), b.clone()))
            .collect()
    }

    fn options(&self) -> String {
        format!(
            "{:?}; tiled pairs with algorithm: {:?}",
            options(&self.corpus[0]),
            AlgorithmChoice::Mpo
        )
    }

    fn round(&mut self, _kind: Kind, tracer: &mut Tracer) -> Round {
        let setup_start = Instant::now();
        let corpus = sweep_corpus(self.seed);
        let sessions: Vec<CompiledCheck> = corpus
            .iter()
            .map(|recipe| {
                let (ideal, noisy) = recipe.pair();
                let ideal = qasm::parse(&qasm::write(&ideal)).expect("generated QASM parses");
                let noisy = qasm::parse(&qasm::write(&noisy)).expect("generated QASM parses");
                Checker::new(&ideal, &noisy)
                    .options(options(recipe))
                    .compile()
                    .expect("corpus pairs are valid")
            })
            .collect();
        // grids[pair][sweep]
        let grids: Vec<Vec<Vec<f64>>> = (0..corpus.len())
            .map(|pair| strength_grids(self.seed, pair, SWEEPS))
            .collect();
        let mut round = Round {
            setup: setup_start.elapsed(),
            ..Round::default()
        };

        let plans_before = build_count();
        let timed_start = Instant::now();
        for sweep in 0..SWEEPS {
            for (pair, (session, pair_grids)) in sessions.iter().zip(&grids).enumerate() {
                let grid = &pair_grids[sweep];
                let algorithm = session.algorithm();
                tracer.next_op();
                let start = Instant::now();
                let points = tracer.span("op", |t| {
                    t.span(backend_span(algorithm, "sweep"), |_| {
                        session.sweep_noise(corpus[pair].epsilon, grid)
                    })
                });
                round.samples.push(Sample {
                    class: pair,
                    latency: start.elapsed(),
                    ops: grid.len() as u64,
                    lane: 0,
                });
                self.backends[pair] = algorithm.to_string();
                match points {
                    Ok(points) => {
                        for (point, &strength) in points.iter().zip(grid) {
                            // Lane-batched points each carry their
                            // batch's statistics; the sum is still exact.
                            count_stats(&mut round, &point.stats);
                            if algorithm == AlgorithmUsed::Mpo {
                                round.counters.max("mpo.bond_max", point.max_nodes as u64);
                            }
                            round.answers.push(Answer::Report {
                                recipe: pair,
                                strength,
                                verdict: point.verdict,
                                bounds: (point.fidelity, point.fidelity),
                                algorithm,
                            });
                        }
                    }
                    Err(e) => round
                        .answers
                        .extend(grid.iter().map(|_| Answer::Line(format!("error: {e}")))),
                }
            }
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
            .map(|answer| {
                let Answer::Report {
                    recipe: index,
                    strength,
                    verdict,
                    bounds,
                    algorithm,
                } = answer
                else {
                    return Err(format!("{answer:?}"));
                };
                let recipe = &self.corpus[*index];
                let reference = self.references.get(recipe, *strength);
                if *algorithm != AlgorithmUsed::Mpo {
                    return check_decision(recipe, reference, *verdict, *bounds, *algorithm);
                }
                // An MPO sweep point reports the midpoint of its
                // interval; a one-shot MPO check of the re-parameterised
                // pair gives the interval itself.
                let (ideal, noisy) = recipe.pair_at(*strength);
                let report = Checker::new(&ideal, &noisy)
                    .options(options(recipe))
                    .compile()
                    .and_then(|mut c| c.check(recipe.epsilon))
                    .map_err(|e| e.to_string())?;
                let (lo, hi) = report.fidelity_bounds;
                if bounds.0 < lo || bounds.0 > hi {
                    return Err(format!(
                        "{}: MPO sweep point {:.12} outside its interval [{lo:.12}, {hi:.12}]",
                        recipe.name, bounds.0
                    ));
                }
                check_decision(recipe, reference, *verdict, (lo, hi), AlgorithmUsed::Mpo)
            })
            .collect()
    }
}
