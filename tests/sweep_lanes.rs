//! The vectorised (multi-lane) noise sweep against its scalar
//! reference path.
//!
//! The contract under test: lanes are a pure performance mechanism.
//! Batching sweep points into multi-lane contractions (greedy widths
//! 8, 4 and 2) must change *nothing* observable per point — fidelities
//! bit-identical to single-point sweeps, which always run the scalar
//! per-point path, at every lane width and thread count; ragged tails
//! handled; and the ε-aware `sweep_noise_verdicts` agreeing with the
//! exact sweep and with itself run point by point.
//!
//! Thread counts are always set explicitly (the CI thread-sanity pass
//! overrides the default via `QAEC_THREADS`, and these tests pin exact
//! configurations).

use qaec::{AlgorithmChoice, CheckOptions, Checker, CompiledCheck};
use qaec_circuit::generators::{qft, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};

/// A QFT with several depolarizing sites — the sweep workload shape
/// (every site re-parameterised per point).
fn fixture(n: usize, sites: usize) -> (Circuit, Circuit) {
    let ideal = qft(n, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(
        &ideal,
        &NoiseChannel::Depolarizing { p: 0.999 },
        sites,
        0xC0FFEE + n as u64,
    );
    (ideal, noisy)
}

fn options(algorithm: AlgorithmChoice, threads: usize) -> CheckOptions {
    CheckOptions {
        algorithm,
        threads,
        ..CheckOptions::default()
    }
}

fn compile(ideal: &Circuit, noisy: &Circuit, opts: &CheckOptions) -> CompiledCheck {
    Checker::new(ideal, noisy)
        .options(opts.clone())
        .compile()
        .expect("compile")
}

/// Nine strengths: a ragged tail for every lane width > 1
/// (9 = 8+1 = 4+4+1 = 2·4+1).
const STRENGTHS: [f64; 9] = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97, 0.96];
const EPSILON: f64 = 0.02;

/// Sweep lengths {2, 3, 4, 6, 7, 9} × threads {1, 4}: between them the
/// greedy batching runs every lane width (2, 4 and 8) and every ragged
/// tail, and each sweep is bit-identical to the same points swept one
/// at a time (the scalar per-point replay) on one compiled session.
#[test]
fn lane_sweep_is_bitwise_identical_to_scalar_replay() {
    let (ideal, noisy) = fixture(3, 4);
    for threads in [1usize, 4] {
        let opts = options(AlgorithmChoice::AlgorithmII, threads);
        let replay = compile(&ideal, &noisy, &opts);
        let scalar: Vec<_> = STRENGTHS
            .iter()
            .flat_map(|&p| replay.sweep_noise(EPSILON, &[p]).expect("scalar point"))
            .collect();
        for len in [2usize, 3, 4, 6, 7, 9] {
            let swept = compile(&ideal, &noisy, &opts)
                .sweep_noise(EPSILON, &STRENGTHS[..len])
                .expect("lane sweep");
            assert_eq!(swept.len(), len);
            for (i, (lane, reference)) in swept.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    lane.fidelity.to_bits(),
                    reference.fidelity.to_bits(),
                    "{len} points t{threads} point {i}: {} != {}",
                    lane.fidelity,
                    reference.fidelity
                );
                assert_eq!(
                    lane.verdict, reference.verdict,
                    "{len} points t{threads} point {i}"
                );
            }
        }
    }
}

/// The lane path must also be thread-count independent on its own:
/// batches contract sequentially, so `threads` cannot change a bit.
#[test]
fn lane_sweep_is_thread_count_independent() {
    let (ideal, noisy) = fixture(3, 4);
    let t1 = compile(&ideal, &noisy, &options(AlgorithmChoice::AlgorithmII, 1))
        .sweep_noise(EPSILON, &STRENGTHS)
        .expect("t1 sweep");
    let t4 = compile(&ideal, &noisy, &options(AlgorithmChoice::AlgorithmII, 4))
        .sweep_noise(EPSILON, &STRENGTHS)
        .expect("t4 sweep");
    for (a, b) in t1.iter().zip(&t4) {
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.max_nodes, b.max_nodes);
    }
}

/// Observable proof the batching engaged (and did not silently fall
/// back): every point of a width-8 batch reports the batch's shared
/// single-traversal evidence — identical statistics, node counts and
/// elapsed time — while the ragged ninth point ran alone on the scalar
/// path.
#[test]
fn lane_batches_report_shared_batch_evidence() {
    let (ideal, noisy) = fixture(3, 4);
    let points = compile(&ideal, &noisy, &options(AlgorithmChoice::AlgorithmII, 1))
        .sweep_noise(EPSILON, &STRENGTHS)
        .expect("sweep");
    assert_eq!(points.len(), 9);
    let head = &points[0];
    for (i, point) in points.iter().take(8).enumerate() {
        assert_eq!(point.stats, head.stats, "batch point {i} stats");
        assert_eq!(point.max_nodes, head.max_nodes, "batch point {i} nodes");
        assert_eq!(point.elapsed, head.elapsed, "batch point {i} elapsed");
    }
    // The lane traversal did real decision-diagram work exactly once.
    assert!(head.stats.cont_calls > 0);
}

/// `sweep_noise_verdicts` (ε-aware, early-exit) agrees with the exact
/// sweep's decisions and with itself run one strength at a time, on
/// both backends at one and two threads (Algorithm I's exact and grid
/// interning). The ε is chosen to split the strength range, so
/// both verdicts actually occur.
#[test]
fn verdicts_sweep_matches_exact_sweep_and_point_by_point_runs() {
    let (ideal, noisy) = fixture(3, 4);
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        for threads in [1usize, 2] {
            let opts = options(algorithm, threads);
            let compiled = compile(&ideal, &noisy, &opts);
            let verdicts = compiled
                .sweep_noise_verdicts(EPSILON, &STRENGTHS)
                .expect("verdict sweep");
            assert_eq!(verdicts.len(), STRENGTHS.len());
            let exact = compiled
                .sweep_noise(EPSILON, &STRENGTHS)
                .expect("exact sweep");
            for (i, (v, point)) in verdicts.iter().zip(&exact).enumerate() {
                assert_eq!(*v, point.verdict, "{algorithm:?} t{threads} point {i}");
            }
            for (i, &strength) in STRENGTHS.iter().enumerate() {
                let single = compiled
                    .sweep_noise_verdicts(EPSILON, &[strength])
                    .expect("single-point verdict");
                assert_eq!(single[0], verdicts[i], "{algorithm:?} t{threads} point {i}");
            }
            let seen: std::collections::HashSet<_> =
                verdicts.iter().map(|v| format!("{v}")).collect();
            assert_eq!(seen.len(), 2, "ε must split the range: {verdicts:?}");
        }
    }
}
