//! Algorithm II: calculate all trace terms collectively.
//!
//! A single contraction of the doubled network computes
//! `Σᵢ |tr(U†Eᵢ)|² = tr((U† ⊗ Uᵀ) · M_E)` at the cost of twice the
//! qubits — the right trade when noise sites are plentiful (every gate on
//! a real device is noisy).
//!
//! ## Parallelism
//!
//! There are no independent trace terms to steal here, so `threads > 1`
//! parallelises *inside* the contraction: the plan's step DAG is
//! dispatched critical-path-first to a worker pool over one
//! [`SharedTddStore`] ([`qaec_tdd::par_driver`]). Because every plan
//! step interns its weights in a scope of its own, each step's result
//! is a pure function of its operands, so the fidelity and `max_nodes`
//! are **bit-identical for every thread count**, one included
//! (`--threads` stays a pure performance knob).

use crate::error::QaecError;
use crate::miter::{build_trace_network, identity_map, Alg2Template, BuiltNetwork};
use crate::optimize::{cancel_inverse_pairs, eliminate_swaps};
use crate::options::CheckOptions;
use crate::validate;
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_tdd::{
    contract_network_lanes, contract_network_parallel, LaneError, ParallelOptions, SharedTddStore,
    TddManager, TddStats,
};
use qaec_tensornet::plan::PlanCost;
use qaec_tensornet::ContractionPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of an Algorithm II run.
#[derive(Clone, Debug, PartialEq)]
pub struct Alg2Report {
    /// The Jamiolkowski fidelity (exact up to floating point).
    pub fidelity: f64,
    /// Largest intermediate diagram, in nodes (Table I's `nodes`).
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Static cost estimates of the contraction plan.
    pub plan_cost: PlanCost,
    /// Decision-diagram statistics of the single contraction (merged
    /// across workers for parallel runs).
    pub stats: TddStats,
}

/// Computes the Jamiolkowski fidelity with Algorithm II.
///
/// # Errors
///
/// * [`QaecError::WidthMismatch`] / [`QaecError::IdealNotUnitary`] on
///   invalid inputs;
/// * [`QaecError::Timeout`] if `options.deadline` expires mid-contraction.
pub fn fidelity_alg2(
    ideal: &Circuit,
    noisy: &Circuit,
    options: &CheckOptions,
) -> Result<Alg2Report, QaecError> {
    validate(ideal, noisy, None)?;
    fidelity_alg2_prevalidated(ideal, noisy, options)
}

/// [`fidelity_alg2`] minus input validation, for callers (the top-level
/// checker) that already validated once — so `check_equivalence` never
/// validates the same pair twice. One-shot: compiles the doubled-network
/// artifacts and runs a single contraction; `elapsed` covers both.
pub(crate) fn fidelity_alg2_prevalidated(
    ideal: &Circuit,
    noisy: &Circuit,
    options: &CheckOptions,
) -> Result<Alg2Report, QaecError> {
    let start = Instant::now();
    let artifacts = Alg2Artifacts::compile(ideal, noisy, options);
    let mut report = artifacts.run(options, None)?;
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Outcome of one multi-lane Algorithm II batch
/// ([`Alg2Artifacts::run_channels_lanes`]): one fidelity per lane, plus
/// the single traversal's shared evidence.
#[derive(Clone, Debug)]
pub(crate) struct Alg2LaneReport {
    /// Per-lane Jamiolkowski fidelities, bit-identical to the scalar
    /// per-point replay.
    pub(crate) fidelities: Vec<f64>,
    /// Largest intermediate *lane-diagram* node count for the batch.
    pub(crate) max_nodes: usize,
    /// Wall-clock time of the whole batch (instantiation + contraction).
    pub(crate) elapsed: Duration,
    /// Lane-engine statistics of the batch's single traversal.
    pub(crate) stats: TddStats,
}

/// The compiled, reusable part of an Algorithm II check: the doubled
/// miter template (noise sites still substitutable), the base network
/// for the compiled channels, and the contraction plan + variable order
/// every instantiation shares. A noise-sweep point re-fills the noise
/// holes and contracts on the *same* plan — no replanning.
#[derive(Clone, Debug)]
pub(crate) struct Alg2Artifacts {
    pub(crate) template: Alg2Template,
    final_map: Vec<usize>,
    built: BuiltNetwork,
    plan: ContractionPlan,
    plan_cost: PlanCost,
    d: f64,
}

impl Alg2Artifacts {
    /// Builds the doubled template, applies the §IV-C optimisations, and
    /// plans the contraction once. Planning uses the component-parallel
    /// planner on `options.threads` workers (tiled workloads' doubled
    /// networks decompose into independent components; the emitted plan
    /// is worker-count independent).
    ///
    /// Callers must have validated the circuit pair.
    pub(crate) fn compile(ideal: &Circuit, noisy: &Circuit, options: &CheckOptions) -> Self {
        let mut template = Alg2Template::build(ideal, noisy);
        let width = template.width;
        let final_map = if options.swap_elimination {
            eliminate_swaps(&mut template.elements, width)
        } else {
            identity_map(width)
        };
        if options.local_optimization {
            cancel_inverse_pairs(&mut template.elements, width);
        }

        let elements = template.instantiate(&template.channels);
        let built = build_trace_network(&elements, width, &final_map, options.var_order);
        let plan = built
            .network
            .plan_parallel(options.strategy, options.threads.max(1));
        let plan_cost = plan.cost(&built.network);
        Alg2Artifacts {
            template,
            final_map,
            built,
            plan,
            plan_cost,
            d: (1u64 << noisy.n_qubits()) as f64,
        }
    }

    /// One contraction of the compiled (base) network.
    pub(crate) fn run(
        &self,
        options: &CheckOptions,
        warm_store: Option<&Arc<SharedTddStore>>,
    ) -> Result<Alg2Report, QaecError> {
        self.run_network(&self.built, options, warm_store)
    }

    /// One contraction of a noise-sweep point: the noise holes are
    /// re-filled with `channels` (same sites, same arities), the wire
    /// bookkeeping is re-laid (cheap, linear), and the compiled plan and
    /// variable order are reused — the plan depends only on the element
    /// structure, which re-instantiation preserves.
    pub(crate) fn run_channels(
        &self,
        channels: &[NoiseChannel],
        options: &CheckOptions,
        warm_store: Option<&Arc<SharedTddStore>>,
    ) -> Result<Alg2Report, QaecError> {
        let elements = self.template.instantiate(channels);
        let built = build_trace_network(
            &elements,
            self.template.width,
            &self.final_map,
            options.var_order,
        );
        debug_assert!(
            built.order == self.built.order,
            "re-instantiation must preserve the index structure"
        );
        self.run_network(&built, options, warm_store)
    }

    /// One multi-lane contraction of `L` noise-sweep points at once: the
    /// template is re-instantiated per lane (same element structure, so
    /// the compiled plan and order apply to every lane), and all `L`
    /// networks are contracted in a single traversal by the lane engine
    /// ([`qaec_tdd::lanes`]).
    ///
    /// Returns `Ok(None)` on lane divergence — the engine could not keep
    /// every lane bit-identical to its scalar run, and the caller must
    /// replay the batch per point on [`Alg2Artifacts::run_channels`]. On
    /// success each lane's fidelity is bit-identical to the per-point
    /// replay; `max_nodes` counts *lane-diagram* nodes (one shared
    /// skeleton, not comparable to scalar `max_nodes`), and the
    /// statistics cover the whole batch's single traversal.
    ///
    /// The lane snap replicates `store`'s canonical interning, so the
    /// session's warm-store tolerance is the one the lanes must match;
    /// the store's arenas themselves are untouched (the lane manager is
    /// private to the batch).
    pub(crate) fn run_channels_lanes<const L: usize>(
        &self,
        points: &[Vec<NoiseChannel>],
        options: &CheckOptions,
        store: &Arc<SharedTddStore>,
    ) -> Result<Option<Alg2LaneReport>, QaecError> {
        debug_assert_eq!(points.len(), L);
        let start = Instant::now();
        let networks: Vec<_> = points
            .iter()
            .map(|channels| {
                let elements = self.template.instantiate(channels);
                let built = build_trace_network(
                    &elements,
                    self.template.width,
                    &self.final_map,
                    options.var_order,
                );
                debug_assert!(
                    built.order == self.built.order,
                    "re-instantiation must preserve the index structure"
                );
                built.network
            })
            .collect();
        match contract_network_lanes::<L>(
            store.tolerance(),
            &networks,
            &self.plan,
            &self.built.order,
            options.deadline,
        ) {
            Ok(outcome) => {
                let fidelities = outcome
                    .scalars
                    .iter()
                    .map(|trace| {
                        (trace.re / (self.d * self.d))
                            .clamp(0.0, 1.0 + 1e-9)
                            .min(1.0)
                    })
                    .collect();
                Ok(Some(Alg2LaneReport {
                    fidelities,
                    max_nodes: outcome.max_nodes,
                    elapsed: start.elapsed(),
                    stats: outcome.stats,
                }))
            }
            Err(LaneError::Divergence(_)) => Ok(None),
            Err(LaneError::Timeout) => Err(QaecError::Timeout),
        }
    }

    fn run_network(
        &self,
        built: &BuiltNetwork,
        options: &CheckOptions,
        warm_store: Option<&Arc<SharedTddStore>>,
    ) -> Result<Alg2Report, QaecError> {
        let start = Instant::now();
        let store = match warm_store {
            Some(store) => Arc::clone(store),
            None => SharedTddStore::for_workers(options.threads),
        };
        // Statistics fence: a warm (session-reused) store reports only
        // this contraction's allocation delta.
        let epoch = store.reset_between_runs();
        let outcome = contract_network_parallel(
            &store,
            &built.network,
            &self.plan,
            &built.order,
            ParallelOptions {
                workers: options.threads.max(1),
                deadline: options.deadline,
            },
        )
        .map_err(|_| QaecError::Timeout)?;
        let reader = TddManager::new_shared(&store);
        let trace = reader
            .edge_scalar(outcome.result.root)
            .expect("closed network");
        let mut stats = outcome.stats;
        // Allocation counters are store-owned: merged exactly once.
        stats.merge(&store.stats_since(epoch));

        // Σ|tr(U†Eᵢ)|² is real and non-negative; the imaginary part is
        // round-off.
        let fidelity = (trace.re / (self.d * self.d))
            .clamp(0.0, 1.0 + 1e-9)
            .min(1.0);

        Ok(Alg2Report {
            fidelity,
            max_nodes: outcome.result.max_nodes,
            elapsed: start.elapsed(),
            plan_cost: self.plan_cost,
            stats,
        })
    }
}
