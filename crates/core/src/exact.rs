//! Exact equivalence checking of noiseless circuits.
//!
//! The classical (pre-NISQ) problem the paper's related work addresses
//! with decision diagrams: are two unitary circuits equal up to a global
//! phase? Since `|tr(U†V)| = d` iff `V = e^{iθ}U` (the Cauchy–Schwarz
//! equality case), a *single* miter-trace contraction decides it — the
//! same machinery as Algorithm I with zero noise sites, so the noisy
//! checker subsumes the exact one.

use crate::error::QaecError;
use crate::miter::{build_trace_network, identity_map, Alg1Template};
use crate::optimize::{cancel_inverse_pairs, eliminate_swaps};
use crate::options::CheckOptions;
use qaec_circuit::Circuit;
use qaec_math::C64;
use qaec_tdd::{contract_network_opts, DriverOptions, TddManager};
use std::time::{Duration, Instant};

/// The outcome of an exact check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExactVerdict {
    /// `V = U` exactly (global phase 1).
    Equal,
    /// `V = e^{iθ}U` with the reported phase `θ ∈ (−π, π]`, `θ ≠ 0`.
    EqualUpToGlobalPhase {
        /// The relative global phase.
        theta: f64,
    },
    /// The circuits implement different unitaries; the process fidelity
    /// `|tr(U†V)|²/d²` quantifies how different.
    NotEquivalent {
        /// `|tr(U†V)|²/d² < 1`.
        fidelity: f64,
    },
}

/// Full report of an exact equivalence check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactReport {
    /// The decision.
    pub verdict: ExactVerdict,
    /// The raw miter trace `tr(U†V)`.
    pub trace: C64,
    /// Largest intermediate diagram, in nodes.
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Decides whether two noiseless circuits implement the same unitary (up
/// to global phase), by one trace-miter contraction.
///
/// Uses `options` for the contraction strategy, variable order, §IV-C
/// optimisations and deadline; the tolerance on `||tr| − d|` is `1e-9·d`.
///
/// # Errors
///
/// * [`QaecError::WidthMismatch`] if the circuits differ in width;
/// * [`QaecError::IdealNotUnitary`] if either circuit contains noise;
/// * [`QaecError::Timeout`] if `options.deadline` expires.
///
/// # Example
///
/// ```
/// use qaec::exact::{check_unitary_equivalence, ExactVerdict};
/// use qaec::CheckOptions;
/// use qaec_circuit::{Circuit, Gate};
///
/// // H·X·H = Z.
/// let mut lhs = Circuit::new(1);
/// lhs.h(0).x(0).h(0);
/// let mut rhs = Circuit::new(1);
/// rhs.z(0);
/// let report = check_unitary_equivalence(&lhs, &rhs, &CheckOptions::default())?;
/// assert_eq!(report.verdict, ExactVerdict::Equal);
/// # Ok::<(), qaec::QaecError>(())
/// ```
pub fn check_unitary_equivalence(
    left: &Circuit,
    right: &Circuit,
    options: &CheckOptions,
) -> Result<ExactReport, QaecError> {
    if left.n_qubits() != right.n_qubits() {
        return Err(QaecError::WidthMismatch {
            ideal: right.n_qubits(),
            noisy: left.n_qubits(),
        });
    }
    if !left.is_unitary() || !right.is_unitary() {
        return Err(QaecError::IdealNotUnitary);
    }
    let start = Instant::now();

    // Miter: left followed by right†, traced — tr(right† · left).
    let mut template = Alg1Template::build(right, left);
    let n_wires = template.n_wires;
    let final_map = if options.swap_elimination {
        eliminate_swaps(&mut template.elements, n_wires)
    } else {
        identity_map(n_wires)
    };
    if options.local_optimization {
        cancel_inverse_pairs(&mut template.elements, n_wires);
    }
    let elements = template.instantiate(&[]);
    let built = build_trace_network(&elements, n_wires, &final_map, options.var_order);
    let plan = built.network.plan(options.strategy);

    let mut manager = TddManager::new();
    let result = contract_network_opts(
        &mut manager,
        &built.network,
        &plan,
        &built.order,
        DriverOptions {
            deadline: options.deadline,
        },
    )
    .map_err(|_| QaecError::Timeout)?;
    let trace = manager.edge_scalar(result.root).expect("closed network");

    let d = (1u64 << left.n_qubits()) as f64;
    let verdict = if (trace.abs() - d).abs() <= 1e-9 * d {
        let theta = trace.arg();
        if theta.abs() <= 1e-9 {
            ExactVerdict::Equal
        } else {
            ExactVerdict::EqualUpToGlobalPhase { theta }
        }
    } else {
        ExactVerdict::NotEquivalent {
            fidelity: (trace.norm_sqr() / (d * d)).min(1.0),
        }
    };
    Ok(ExactReport {
        verdict,
        trace,
        max_nodes: result.max_nodes,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::generators::{qft, random_circuit, QftStyle};
    use qaec_circuit::{Gate, NoiseChannel};

    fn opts() -> CheckOptions {
        CheckOptions::default()
    }

    #[test]
    fn circuit_equals_itself() {
        for seed in 0..4u64 {
            let c = random_circuit(3, 15, seed);
            let report = check_unitary_equivalence(&c, &c, &opts()).unwrap();
            assert_eq!(report.verdict, ExactVerdict::Equal, "seed {seed}");
        }
    }

    #[test]
    fn textbook_identities() {
        // HXH = Z, HZH = X, S² = Z.
        let cases: Vec<(Vec<Gate>, Vec<Gate>)> = vec![
            (vec![Gate::H, Gate::X, Gate::H], vec![Gate::Z]),
            (vec![Gate::H, Gate::Z, Gate::H], vec![Gate::X]),
            (vec![Gate::S, Gate::S], vec![Gate::Z]),
            (vec![Gate::T, Gate::T], vec![Gate::S]),
        ];
        for (lhs, rhs) in cases {
            let mut a = Circuit::new(1);
            for g in &lhs {
                a.gate(*g, &[0]);
            }
            let mut b = Circuit::new(1);
            for g in &rhs {
                b.gate(*g, &[0]);
            }
            let report = check_unitary_equivalence(&a, &b, &opts()).unwrap();
            assert_eq!(report.verdict, ExactVerdict::Equal, "{lhs:?} vs {rhs:?}");
        }
    }

    #[test]
    fn global_phase_detected() {
        // Rz(2π) = −I: phase π relative to the identity.
        let mut a = Circuit::new(1);
        a.gate(Gate::Rz(2.0 * std::f64::consts::PI), &[0]);
        let b = Circuit::new(1);
        let report = check_unitary_equivalence(&a, &b, &opts()).unwrap();
        match report.verdict {
            ExactVerdict::EqualUpToGlobalPhase { theta } => {
                assert!((theta.abs() - std::f64::consts::PI).abs() < 1e-9);
            }
            other => panic!("expected phase verdict, got {other:?}"),
        }
    }

    #[test]
    fn different_unitaries_rejected_with_fidelity() {
        let mut a = Circuit::new(1);
        a.h(0);
        let mut b = Circuit::new(1);
        b.x(0);
        let report = check_unitary_equivalence(&a, &b, &opts()).unwrap();
        match report.verdict {
            ExactVerdict::NotEquivalent { fidelity } => {
                assert!((fidelity - 0.5).abs() < 1e-9);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn single_gate_perturbation_detected() {
        let c = qft(4, QftStyle::DecomposedNoSwaps);
        let mut perturbed = c.clone();
        perturbed.t(2); // extra T gate
        let report = check_unitary_equivalence(&c, &perturbed, &opts()).unwrap();
        assert!(matches!(report.verdict, ExactVerdict::NotEquivalent { .. }));
    }

    #[test]
    fn qft_decompositions_agree() {
        // The decomposed QFT equals the native one (no swaps) exactly.
        for n in 2..=5 {
            let a = qft(n, QftStyle::NoSwaps);
            let b = qft(n, QftStyle::DecomposedNoSwaps);
            let report = check_unitary_equivalence(&a, &b, &opts()).unwrap();
            assert_eq!(report.verdict, ExactVerdict::Equal, "qft{n}");
        }
    }

    #[test]
    fn optimisations_preserve_verdicts() {
        let a = qft(4, QftStyle::Textbook);
        let b = qft(4, QftStyle::Textbook);
        let options = CheckOptions {
            local_optimization: true,
            swap_elimination: true,
            ..CheckOptions::default()
        };
        let report = check_unitary_equivalence(&a, &b, &options).unwrap();
        assert_eq!(report.verdict, ExactVerdict::Equal);
        // Fully cancelled miter: the trace costs almost nothing.
        assert!(
            report.max_nodes <= 2,
            "miter should vanish: {}",
            report.max_nodes
        );
    }

    #[test]
    fn noisy_inputs_rejected() {
        let mut a = Circuit::new(1);
        a.noise(NoiseChannel::BitFlip { p: 0.9 }, &[0]);
        let b = Circuit::new(1);
        assert_eq!(
            check_unitary_equivalence(&a, &b, &opts()),
            Err(QaecError::IdealNotUnitary)
        );
        assert!(matches!(
            check_unitary_equivalence(&b, &Circuit::new(2), &opts()),
            Err(QaecError::WidthMismatch { .. })
        ));
    }
}
