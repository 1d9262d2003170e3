//! Answers and their check against the independent references.

use crate::corpus::Recipe;
use qaec::{AlgorithmUsed, Verdict};
use std::collections::HashMap;

/// What one operation answered, in a form two rounds can compare
/// exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// A decision on corpus pair `recipe` at channel strength
    /// `strength`, with the fidelity interval it was taken on.
    Report {
        recipe: usize,
        strength: f64,
        verdict: Verdict,
        bounds: (f64, f64),
        algorithm: AlgorithmUsed,
    },
    /// A serve response line with its timing fields removed.
    Line(String),
}

/// Slack for an exact backend: its value must match the reference to
/// this absolute tolerance.
pub const EXACT_TOL: f64 = 1e-9;
/// Slack for an MPO interval: float rounding of the dense reference
/// and of the 12-decimal wire rendering.
pub const INTERVAL_TOL: f64 = 1e-12;

/// Reference fidelities, each computed once per process.
#[derive(Default)]
pub struct References(HashMap<(String, u64), f64>);

impl References {
    pub fn get(&mut self, recipe: &Recipe, strength: f64) -> f64 {
        *self
            .0
            .entry((recipe.name.clone(), strength.to_bits()))
            .or_insert_with(|| recipe.reference_at(strength))
    }
}

/// Checks one decision against the reference: the verdict must be the
/// one the reference fidelity gives at the pair's ε, and the reported
/// interval must contain the reference (to [`EXACT_TOL`] for the exact
/// backends, [`INTERVAL_TOL`] for an MPO interval).
pub fn check_decision(
    recipe: &Recipe,
    reference: f64,
    verdict: Verdict,
    bounds: (f64, f64),
    algorithm: AlgorithmUsed,
) -> Result<(), String> {
    let expected = Verdict::decide(reference, recipe.epsilon);
    if verdict != expected {
        return Err(format!(
            "{}: verdict {verdict} but the reference {reference:.12} gives {expected}",
            recipe.name
        ));
    }
    let tol = if algorithm == AlgorithmUsed::Mpo {
        INTERVAL_TOL
    } else {
        EXACT_TOL
    };
    if reference < bounds.0 - tol || reference > bounds.1 + tol {
        return Err(format!(
            "{}: reference {reference:.12} outside [{:.12}, {:.12}] ({algorithm})",
            recipe.name, bounds.0, bounds.1
        ));
    }
    Ok(())
}
