//! The work-stealing parallel term engine: sequential/parallel agreement
//! on bounds and verdicts, `max_terms`/`deadline` composition, early
//! ε-exit on the Fig. 7 QFT workloads, thread-count determinism of the
//! Monte-Carlo estimator, and — on the shared concurrent TDD store that
//! every multi-worker run uses — *bit-identical* results across every
//! thread count.

use proptest::prelude::*;
use qaec::{
    check_equivalence, fidelity_alg1, fidelity_monte_carlo, AlgorithmChoice, CheckOptions,
    QaecError, TermOrder, Verdict,
};
use qaec_circuit::generators::{qft, random_circuit, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use std::time::{Duration, Instant};

fn with_threads(threads: usize, term_order: TermOrder) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmI,
        threads,
        term_order,
        ..CheckOptions::default()
    }
}

/// Strategy: a small random noisy instance described by seeds.
fn instance() -> impl proptest::strategy::Strategy<Value = (Circuit, Circuit)> {
    (
        1usize..=3,
        2usize..=10,
        any::<u64>(),
        1usize..=3,
        any::<u64>(),
        900u32..=999,
    )
        .prop_map(|(n, gates, seed, noises, noise_seed, p_millis)| {
            let ideal = random_circuit(n, gates, seed);
            let noisy = insert_random_noise(
                &ideal,
                &NoiseChannel::Depolarizing {
                    p: p_millis as f64 / 1000.0,
                },
                noises,
                noise_seed,
            );
            (ideal, noisy)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The multi-worker acceptance property: `threads ∈ {2, 3, 4}`
    /// produce **bit-identical** fidelity bounds and term counts
    /// (`f64::to_bits` equality). The one-worker run (exact run-long
    /// interning) must still agree with them to interning-tolerance
    /// accuracy.
    #[test]
    fn shared_store_runs_are_bit_identical_across_thread_counts((ideal, noisy) in instance()) {
        for term_order in [TermOrder::Lexicographic, TermOrder::BestFirst] {
            let reference = fidelity_alg1(
                &ideal, &noisy, None, &with_threads(2, term_order),
            ).expect("two-worker shared");
            for threads in [3usize, 4] {
                let par = fidelity_alg1(
                    &ideal, &noisy, None, &with_threads(threads, term_order),
                ).expect("parallel shared");
                prop_assert_eq!(
                    par.fidelity_lower.to_bits(), reference.fidelity_lower.to_bits(),
                    "{:?} t={}: lower {} vs {}",
                    term_order, threads, par.fidelity_lower, reference.fidelity_lower
                );
                prop_assert_eq!(
                    par.fidelity_upper.to_bits(), reference.fidelity_upper.to_bits(),
                    "{:?} t={}: upper {} vs {}",
                    term_order, threads, par.fidelity_upper, reference.fidelity_upper
                );
                prop_assert_eq!(par.terms_computed, reference.terms_computed);
            }
            let one_worker = fidelity_alg1(
                &ideal, &noisy, None, &with_threads(1, term_order),
            ).expect("sequential");
            prop_assert!(
                (reference.fidelity_lower - one_worker.fidelity_lower).abs() < 1e-8,
                "interning families diverged: grid {} vs run-long {}",
                reference.fidelity_lower, one_worker.fidelity_lower
            );
        }
    }

    /// ε-decision mode: parallel verdicts agree with sequential ones for
    /// ε ∈ {1e-2, 1e-4} in both term orders (skipping razor-edge
    /// instances where fidelity sits within 1e-9 of the threshold), and
    /// across shared-store runs the decided *bounds* are bit-identical
    /// too — the ordered reducer freezes the decision at the
    /// sequential-prefix point whatever the scheduling.
    #[test]
    fn parallel_epsilon_verdicts_match_sequential((ideal, noisy) in instance()) {
        let exact = fidelity_alg1(&ideal, &noisy, None, &CheckOptions::default())
            .expect("exact")
            .fidelity_lower;
        for term_order in [TermOrder::Lexicographic, TermOrder::BestFirst] {
            for eps in [1e-2f64, 1e-4] {
                if (exact - (1.0 - eps)).abs() < 1e-9 {
                    continue; // razor edge: fp ordering may legitimately flip
                }
                let seq = check_equivalence(&ideal, &noisy, eps, &with_threads(1, term_order))
                    .expect("sequential");
                let reference =
                    check_equivalence(&ideal, &noisy, eps, &with_threads(2, term_order))
                        .expect("two-worker shared");
                prop_assert_eq!(
                    reference.verdict, seq.verdict,
                    "{:?} t=2 ε={}: exact fidelity {}", term_order, eps, exact
                );
                for threads in [3usize, 4] {
                    let par =
                        check_equivalence(&ideal, &noisy, eps, &with_threads(threads, term_order))
                            .expect("parallel shared");
                    prop_assert_eq!(
                        par.verdict, seq.verdict,
                        "{:?} t={} ε={}: exact fidelity {}", term_order, threads, eps, exact
                    );
                    prop_assert_eq!(
                        par.fidelity_bounds.0.to_bits(),
                        reference.fidelity_bounds.0.to_bits(),
                        "shared ε bounds must be bit-stable ({:?} t={} ε={})",
                        term_order, threads, eps
                    );
                    prop_assert_eq!(
                        par.fidelity_bounds.1.to_bits(),
                        reference.fidelity_bounds.1.to_bits()
                    );
                    prop_assert_eq!(par.terms_computed, reference.terms_computed);
                }
            }
        }
    }
}

/// The acceptance workload: a Fig. 7 QFT circuit, ε = 1e-4, 4 threads.
/// The parallel ε run must return the sequential verdict while computing
/// strictly fewer terms than exact mode.
#[test]
fn parallel_epsilon_early_exits_on_fig7_qft_workloads() {
    for (n, k) in [(3usize, 4usize), (4, 3)] {
        let ideal = qft(n, QftStyle::DecomposedNoSwaps);
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            k,
            0xDAC2021 + k as u64,
        );
        let exact = fidelity_alg1(&ideal, &noisy, None, &with_threads(1, TermOrder::BestFirst))
            .expect("exact");
        let seq = fidelity_alg1(
            &ideal,
            &noisy,
            Some(1e-4),
            &with_threads(1, TermOrder::BestFirst),
        )
        .expect("sequential ε");
        let par = fidelity_alg1(
            &ideal,
            &noisy,
            Some(1e-4),
            &with_threads(4, TermOrder::BestFirst),
        )
        .expect("parallel ε");
        assert_eq!(par.verdict, seq.verdict, "qft{n} k={k}");
        assert!(par.verdict.is_some(), "qft{n} k={k} must decide early");
        assert!(
            par.terms_computed < exact.terms_computed,
            "qft{n} k={k}: parallel ε computed {} of {} terms — no early exit",
            par.terms_computed,
            exact.terms_computed
        );
    }
}

#[test]
fn parallel_epsilon_respects_expired_deadline() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 3, 4);
    let options = CheckOptions {
        threads: 4,
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..CheckOptions::default()
    };
    assert_eq!(
        fidelity_alg1(&ideal, &noisy, Some(1e-4), &options).unwrap_err(),
        QaecError::Timeout
    );
}

/// Regression for the old fixed-chunk path: `threads > 1` with an ε
/// used to silently fall back to one core *or* ignore `max_terms`; now
/// both compose, and capped runs keep the bounds open.
#[test]
fn parallel_max_terms_and_epsilon_compose() {
    let ideal = random_circuit(2, 8, 17);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.9 }, 3, 18);
    let options = CheckOptions {
        threads: 4,
        max_terms: Some(3),
        term_order: TermOrder::Lexicographic,
        ..CheckOptions::default()
    };
    let report = fidelity_alg1(&ideal, &noisy, None, &options).expect("capped parallel");
    assert!(report.terms_computed <= 3);
    assert!(report.total_terms > 3);
    assert!(
        report.fidelity_upper > report.fidelity_lower,
        "capped parallel bounds collapsed: [{}, {}]",
        report.fidelity_lower,
        report.fidelity_upper
    );
}

/// The Monte-Carlo sample stream is a function of the seed alone: thread
/// count changes only which worker contracts which distinct string. On
/// the canonical grid every string's trace is scheduling-independent,
/// so the estimate is **bit-identical** for every multi-worker count;
/// the one-worker run is bit-reproducible on its own and agrees with
/// them to the weight-interning tolerance.
#[test]
fn monte_carlo_estimate_is_thread_count_stable() {
    let ideal = random_circuit(2, 8, 41);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::BitFlip { p: 0.9 }, 2, 42);
    let mc = |threads: usize| {
        fidelity_monte_carlo(
            &ideal,
            &noisy,
            400,
            7,
            &with_threads(threads, TermOrder::BestFirst),
        )
        .expect("mc")
    };
    let reference = mc(1);
    let repeat = mc(1);
    // One worker → bitwise identical.
    assert_eq!(reference.estimate, repeat.estimate);
    assert_eq!(reference.std_error, repeat.std_error);
    let shared_reference = mc(2);
    for threads in [2usize, 3, 4] {
        let shared = mc(threads);
        // Identical sampling; interning-level numerical drift only.
        assert!(
            (reference.estimate - shared.estimate).abs() < 1e-7,
            "t={threads}: {} vs {}",
            reference.estimate,
            shared.estimate
        );
        assert_eq!(
            reference.distinct_strings, shared.distinct_strings,
            "t={threads}"
        );
        assert_eq!(reference.samples, shared.samples, "t={threads}");
        assert_eq!(
            shared.estimate.to_bits(),
            shared_reference.estimate.to_bits(),
            "t={threads}: shared-store MC must be bit-stable"
        );
        assert_eq!(
            shared.std_error.to_bits(),
            shared_reference.std_error.to_bits()
        );
    }
}

/// Every worker's decision-diagram statistics end up merged in the
/// report, and the ε-decision path carries them up to the checker.
#[test]
fn reports_carry_merged_worker_stats() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.99 }, 2, 5);
    let seq = fidelity_alg1(
        &ideal,
        &noisy,
        None,
        &with_threads(1, TermOrder::Lexicographic),
    )
    .expect("sequential");
    let par = fidelity_alg1(
        &ideal,
        &noisy,
        None,
        &with_threads(4, TermOrder::Lexicographic),
    )
    .expect("parallel");
    assert!(seq.stats.cont_calls > 0);
    assert!(par.stats.cont_calls > 0);
    assert!(par.stats.nodes_created >= seq.stats.nodes_created / 2);

    let checked = check_equivalence(&ideal, &noisy, 0.05, &with_threads(4, TermOrder::BestFirst))
        .expect("check");
    assert_eq!(checked.verdict, Verdict::Equivalent);
    assert!(checked.stats.nodes_created > 0);
}

/// The shared store's structure-sharing payoff, stats-level: a 4-worker
/// run records cross-thread unique-table hits, and reports true
/// (non-double-counted) allocation totals ≈ the sequential run's, not
/// workers × that.
#[test]
fn shared_store_reduces_aggregate_allocations() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 4, 6);
    let shared = fidelity_alg1(
        &ideal,
        &noisy,
        None,
        &with_threads(4, TermOrder::Lexicographic),
    )
    .expect("shared parallel");
    let sequential = fidelity_alg1(
        &ideal,
        &noisy,
        None,
        &with_threads(1, TermOrder::Lexicographic),
    )
    .expect("sequential");
    assert!(
        shared.stats.cross_unique_hits > 0,
        "4 workers on 256 terms must share structure across threads"
    );
    // Store-aware attribution: the shared total is one global count, in
    // the same ballpark as the sequential build — not workers × that.
    assert!(
        shared.stats.nodes_created <= sequential.stats.nodes_created * 2,
        "shared {} vs sequential {} — double counting?",
        shared.stats.nodes_created,
        sequential.stats.nodes_created
    );
}

/// Cross-term computed-table seeding: on shared-store runs, workers
/// import the heaviest completed term's contraction cache before each
/// new batch, the imports land (seed_imports) and pay off (seed_hits),
/// and — because seeded entries are value-identical to recomputation on
/// the canonical shared store — the result stays bit-identical to a
/// run with a different worker count. A one-worker run never seeds:
/// it has nobody to import from, and its run-long scope is not
/// canonical.
#[test]
fn cont_cache_seeding_imports_pay_off_and_preserve_results() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 4, 6);
    let run = |threads: usize| {
        fidelity_alg1(
            &ideal,
            &noisy,
            None,
            &with_threads(threads, TermOrder::BestFirst),
        )
        .expect("alg1")
    };
    let seeded = run(4);
    assert!(
        seeded.stats.seed_imports > 0,
        "4 workers over 256 terms must import at least one snapshot entry"
    );
    assert!(
        seeded.stats.seed_hits > 0,
        "imported cont-cache entries must serve at least one hit"
    );
    assert_eq!(
        seeded.fidelity_lower.to_bits(),
        run(2).fidelity_lower.to_bits(),
        "seeding may only transplant work, never change values"
    );
    let one_worker = run(1);
    assert_eq!(one_worker.stats.seed_imports, 0);
    assert_eq!(one_worker.stats.seed_hits, 0);
}

/// The three fixed pairs the one-worker golden test pins: the smoke
/// fixture pair, the same pair with its noise turned into the identity
/// channel (`depolarizing(1.0)`), and a random three-qubit pair with
/// three depolarizing sites (64 trace terms).
fn golden_pairs() -> Vec<(&'static str, Circuit, Circuit)> {
    let parse = |text: &str| qaec_circuit::qasm::parse(text).expect("fixture parses");
    let qft3 = include_str!("../fixtures/smoke/qft3.qasm");
    let depol = include_str!("../fixtures/smoke/qft3_depol.qasm");
    let ideal = random_circuit(3, 12, 5);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.97 }, 3, 9);
    vec![
        ("smoke_qft3", parse(qft3), parse(depol)),
        (
            "identity_depol1",
            parse(qft3),
            parse(&depol.replace("depolarizing(0.999)", "depolarizing(1.0)")),
        ),
        ("random_depol", ideal, noisy),
    ]
}

/// One-worker results, bit for bit: Algorithm I `fidelity_lower` /
/// `fidelity_upper` and Monte-Carlo `estimate` / `std_error` as
/// `f64::to_bits`, pinned so a change to the node store or to weight
/// interning cannot move a one-worker answer by even one ulp.
#[test]
fn one_worker_results_are_pinned_bit_for_bit() {
    const GOLDEN: [(&str, [u64; 4]); 3] = [
        (
            "smoke_qft3",
            [
                4607164413408707185,
                4607164413408707185,
                4607159900801880563,
                4567911030049346685,
            ],
        ),
        (
            "identity_depol1",
            [
                4607182418800017408,
                4607182418800017408,
                4607182418800017408,
                0,
            ],
        ),
        (
            "random_depol",
            [
                4606395847110698641,
                4606395847110698641,
                4606304216872680160,
                4579714320430973825,
            ],
        ),
    ];
    let options = with_threads(1, TermOrder::BestFirst);
    for ((name, ideal, noisy), (golden_name, golden)) in golden_pairs().iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        let alg1 = fidelity_alg1(ideal, noisy, None, &options).expect("alg1");
        let mc = fidelity_monte_carlo(ideal, noisy, 400, 7, &options).expect("mc");
        let got = [
            alg1.fidelity_lower.to_bits(),
            alg1.fidelity_upper.to_bits(),
            mc.estimate.to_bits(),
            mc.std_error.to_bits(),
        ];
        assert_eq!(
            got, golden,
            "{name}: one-worker results moved (lower {}, upper {}, mc {} ± {})",
            alg1.fidelity_lower, alg1.fidelity_upper, mc.estimate, mc.std_error
        );
    }
}
