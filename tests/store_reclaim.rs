//! Epoch-based store reclamation (`CheckOptions::store_reclaim`) is a
//! pure memory knob.
//!
//! The contract under test: retiring the session's shared store for a
//! compact successor at quiescent boundaries changes *nothing*
//! observable but the footprint — every sweep fidelity and verdict is
//! bit-identical with reclamation on, off or auto, at every thread
//! count, on lane batches and on the scalar per-point path; and on a
//! multi-point scalar sweep the reclaim-on peak footprint stays
//! strictly (in fact multiples) below the append-only reclaim-off peak.
//!
//! Options are always set explicitly (the CI thread-sanity and
//! reclamation passes override the defaults via environment variables,
//! and these tests pin exact configurations).

use qaec::{AlgorithmChoice, CheckOptions, Checker, CompiledCheck, StoreReclaimMode, SweepPoint};
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
        0xEC0 + n as u64,
    );
    (ideal, noisy)
}

fn options(threads: usize, reclaim: StoreReclaimMode) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        threads,
        store_reclaim: reclaim,
        ..CheckOptions::default()
    }
}

fn compile(ideal: &Circuit, noisy: &Circuit, opts: &CheckOptions) -> CompiledCheck {
    Checker::new(ideal, noisy)
        .options(opts.clone())
        .compile()
        .expect("compile")
}

/// Eight distinct strengths: every point interns a fresh set of Kraus
/// weights, so an append-only store grows at every point.
const STRENGTHS: [f64; 8] = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97];
const EPSILON: f64 = 0.02;

/// The eight strengths as one sweep (a single width-8 lane batch) or,
/// with `lanes` off, as eight single-point sweeps on the same session
/// (the scalar per-point path, each point its own quiescent boundary).
fn sweep(compiled: &CompiledCheck, lanes: bool) -> Vec<SweepPoint> {
    if lanes {
        compiled.sweep_noise(EPSILON, &STRENGTHS).expect("sweep")
    } else {
        STRENGTHS
            .iter()
            .flat_map(|&p| compiled.sweep_noise(EPSILON, &[p]).expect("point"))
            .collect()
    }
}

/// Reclamation modes {off, on, auto} × threads {1, 4} × lanes on/off:
/// every configuration's 8-point sweep is bit-identical to the
/// reclaim-off single-thread scalar reference. Interning is pure (a
/// function of the value, or of the scope's values), and no engine
/// value depends on an id, so swapping stores between points cannot
/// move a bit.
#[test]
fn reclaim_modes_are_bit_identical_across_threads_and_lanes() {
    let (ideal, noisy) = fixture(3, 4);
    let reference = sweep(
        &compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off)),
        false,
    );
    assert_eq!(reference.len(), STRENGTHS.len());
    for threads in [1usize, 4] {
        for lanes in [false, true] {
            for reclaim in [
                StoreReclaimMode::Off,
                StoreReclaimMode::On,
                StoreReclaimMode::Auto,
            ] {
                let swept = sweep(&compile(&ideal, &noisy, &options(threads, reclaim)), lanes);
                assert_eq!(swept.len(), reference.len());
                for (i, (point, expected)) in swept.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        point.fidelity.to_bits(),
                        expected.fidelity.to_bits(),
                        "t{threads} lanes={lanes} {reclaim:?} point {i}: \
                         {} != {}",
                        point.fidelity,
                        expected.fidelity
                    );
                    assert_eq!(
                        point.verdict, expected.verdict,
                        "t{threads} lanes={lanes} {reclaim:?} point {i}"
                    );
                }
            }
        }
    }
}

/// Repeated queries keep their answers across reclamation too — the
/// session's cached knowledge is scalars, never store ids, so a swap
/// between queries is invisible.
#[test]
fn queries_survive_reclamation_between_them() {
    let (ideal, noisy) = fixture(3, 3);
    let mut off = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let mut on = compile(&ideal, &noisy, &options(1, StoreReclaimMode::On));
    let f_off = off.fidelity().expect("fidelity off");
    let f_on = on.fidelity().expect("fidelity on");
    assert_eq!(f_off.to_bits(), f_on.to_bits());
    for epsilon in [0.2, 0.05, 0.01] {
        assert_eq!(
            off.verdict(epsilon).expect("verdict off"),
            on.verdict(epsilon).expect("verdict on"),
            "epsilon {epsilon}"
        );
    }
}

/// The memory contract: on a multi-point scalar sweep, reclaim-on
/// retires every point's arenas at the point boundary, so its peak
/// footprint is about one point's worth — strictly below (gated well
/// below) the reclaim-off store that accumulates all eight points. The
/// current footprint drops the same way. Fidelities stay bit-equal
/// while it happens.
#[test]
fn reclaim_on_peaks_strictly_below_reclaim_off() {
    let (ideal, noisy) = fixture(4, 5);
    let off = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let off_points = sweep(&off, false);
    let peak_off = off.warm_store_peak_bytes();
    let on = compile(&ideal, &noisy, &options(1, StoreReclaimMode::On));
    let on_points = sweep(&on, false);
    let peak_on = on.warm_store_peak_bytes();
    for (a, b) in off_points.iter().zip(&on_points) {
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        assert_eq!(a.verdict, b.verdict);
    }
    assert!(peak_on > 0, "the store did work");
    assert!(
        peak_on < peak_off,
        "reclaim-on peak {peak_on} B must stay below reclaim-off {peak_off} B"
    );
    assert!(
        on.warm_store_bytes() < off.warm_store_bytes(),
        "reclaim-on current footprint {} B must stay below reclaim-off {} B",
        on.warm_store_bytes(),
        off.warm_store_bytes()
    );
}
