//! Early termination, deadlines and resource limits.

use qaec::{
    check_equivalence, fidelity_alg1, fidelity_alg2, AlgorithmChoice, CheckOptions, QaecError,
    TermOrder, Verdict,
};
use qaec_circuit::generators::{qft, random_circuit, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use std::time::{Duration, Instant};

#[test]
fn best_first_decides_faster_than_lexicographic() {
    // Many light noise sites: the identity string carries ~99% of the
    // mass, so best-first should decide ε-equivalence in one term.
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.9995 }, 4, 8);
    let base = CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmI,
        // One worker: the exact decide-after-one-term count below is a
        // statement about the sequential decision sequence.
        threads: 1,
        ..CheckOptions::default()
    };

    let best = check_equivalence(
        &ideal,
        &noisy,
        0.05,
        &CheckOptions {
            term_order: TermOrder::BestFirst,
            ..base.clone()
        },
    )
    .expect("best-first");
    assert_eq!(best.verdict, Verdict::Equivalent);
    assert_eq!(best.terms_computed, 1);

    let lex = check_equivalence(
        &ideal,
        &noisy,
        0.05,
        &CheckOptions {
            term_order: TermOrder::Lexicographic,
            ..base
        },
    )
    .expect("lexicographic");
    assert_eq!(lex.verdict, Verdict::Equivalent);
    // Lexicographic happens to start at the all-identity term too, so it
    // also stops at one; the point is both verdicts agree.
    assert_eq!(best.verdict, lex.verdict);
}

#[test]
fn decide_and_exact_agree() {
    for seed in 0..4u64 {
        let ideal = random_circuit(2, 10, seed);
        let noisy =
            insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.95 }, 2, seed + 9);
        let opts = CheckOptions {
            algorithm: AlgorithmChoice::AlgorithmI,
            ..CheckOptions::default()
        };
        let exact = fidelity_alg1(&ideal, &noisy, None, &opts).expect("exact");
        for eps in [0.001, 0.05, 0.3, 0.9] {
            let report = check_equivalence(&ideal, &noisy, eps, &opts).expect("decide");
            let expected = if exact.fidelity_lower > 1.0 - eps {
                Verdict::Equivalent
            } else {
                Verdict::NotEquivalent
            };
            // Skip razor-edge comparisons.
            if (exact.fidelity_lower - (1.0 - eps)).abs() < 1e-9 {
                continue;
            }
            assert_eq!(report.verdict, expected, "seed {seed}, ε = {eps}");
            assert!(report.fidelity_bounds.0 <= exact.fidelity_lower + 1e-9);
            assert!(report.fidelity_bounds.1 >= exact.fidelity_lower - 1e-9);
        }
    }
}

#[test]
fn expired_deadline_times_out() {
    let ideal = qft(4, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 3, 4);
    let opts = CheckOptions {
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..CheckOptions::default()
    };
    assert_eq!(
        fidelity_alg1(&ideal, &noisy, None, &opts).unwrap_err(),
        QaecError::Timeout
    );
    assert_eq!(
        fidelity_alg2(&ideal, &noisy, &opts).unwrap_err(),
        QaecError::Timeout
    );
}

#[test]
fn generous_deadline_succeeds() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 2, 4);
    let opts = CheckOptions {
        deadline: Some(Instant::now() + Duration::from_secs(600)),
        ..CheckOptions::default()
    };
    assert!(fidelity_alg2(&ideal, &noisy, &opts).is_ok());
}

#[test]
fn max_terms_caps_work_but_keep_bounds_sound() {
    let ideal = random_circuit(2, 8, 3);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.9 }, 3, 5);
    let exact = fidelity_alg1(&ideal, &noisy, None, &CheckOptions::default())
        .expect("exact")
        .fidelity_lower;
    for cap in [1usize, 4, 16] {
        let capped = fidelity_alg1(
            &ideal,
            &noisy,
            None,
            &CheckOptions {
                max_terms: Some(cap),
                ..CheckOptions::default()
            },
        )
        .expect("capped");
        assert!(capped.terms_computed <= cap);
        assert!(capped.fidelity_lower <= exact + 1e-9, "cap {cap}");
        assert!(capped.fidelity_upper >= exact - 1e-9, "cap {cap}");
    }
}

#[test]
fn zero_noise_alg1_is_single_term() {
    let c = random_circuit(3, 12, 2);
    let report = fidelity_alg1(&c, &c, None, &CheckOptions::default()).expect("alg1");
    assert_eq!(report.total_terms, 1);
    assert_eq!(report.terms_computed, 1);
    assert!((report.fidelity_lower - 1.0).abs() < 1e-9);
}

#[test]
fn auto_choice_boundary_is_inclusive_at_threshold() {
    use qaec::{auto_choice, AlgorithmUsed, AUTO_TERM_THRESHOLD};
    // Two depolarizing sites = 16 terms = exactly the threshold → Alg I.
    let mut at = Circuit::new(1);
    at.noise(NoiseChannel::Depolarizing { p: 0.9 }, &[0])
        .noise(NoiseChannel::Depolarizing { p: 0.9 }, &[0]);
    assert_eq!(at.kraus_term_count(), AUTO_TERM_THRESHOLD);
    assert_eq!(auto_choice(&at), AlgorithmUsed::AlgorithmI);
    // One more bit-flip doubles it → Alg II.
    let mut over = at.clone();
    over.noise(NoiseChannel::BitFlip { p: 0.9 }, &[0]);
    assert_eq!(auto_choice(&over), AlgorithmUsed::AlgorithmII);
}

#[test]
fn empty_circuits_are_equivalent() {
    let a = Circuit::new(3);
    let report = check_equivalence(&a, &a, 0.5, &CheckOptions::default()).expect("check");
    assert_eq!(report.verdict, Verdict::Equivalent);
    assert!((report.fidelity_bounds.0 - 1.0).abs() < 1e-12);
}
