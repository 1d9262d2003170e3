//! Seeded circuit pairs and their independent reference fidelities.
//!
//! Every pair is a [`Recipe`]: a noise-free block, a noise placement and
//! a channel strength, optionally tiled into disjoint copies. The
//! program under test only ever sees the circuits a recipe builds (as
//! QASM text); the benchmark keeps the recipe so it can rebuild the pair
//! at any strength and compute its reference with `qaec-dmsim`.

use qaec_circuit::generators::{
    bernstein_vazirani_all_ones, cuccaro_adder, grover_dac21, qft, quantum_volume, tile, QftStyle,
};
use qaec_circuit::noise_insertion::{insert_random_noise, noise_after_each_gate};
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_dmsim::process_fidelity::{jamiolkowski_fidelity_kraus, process_fidelity_baseline};

/// Small deterministic generator (splitmix64) for everything the seed
/// decides: circuit seeds, noise positions, orders, grids and streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The noise-free block a recipe starts from.
#[derive(Clone, Copy, Debug)]
pub enum Block {
    Qft(usize),
    Grover,
    Bv(usize),
    Qv { n: usize, depth: usize, seed: u64 },
    Adder(usize),
}

impl Block {
    fn circuit(self) -> Circuit {
        match self {
            Block::Qft(n) => qft(n, QftStyle::DecomposedNoSwaps),
            Block::Grover => grover_dac21(),
            Block::Bv(n) => bernstein_vazirani_all_ones(n),
            Block::Qv { n, depth, seed } => quantum_volume(n, depth, seed),
            Block::Adder(w) => cuccaro_adder(w),
        }
    }
}

/// Where the noise goes.
#[derive(Clone, Copy, Debug)]
pub enum Placement {
    /// `count` sites at seeded random positions.
    Random { count: usize, seed: u64 },
    /// One site after every gate (the device-noise regime).
    EveryGate,
}

/// Which one-parameter channel the sites carry.
#[derive(Clone, Copy, Debug)]
pub enum Channel {
    Depolarizing,
    AmplitudeDamping,
}

/// How the reference fidelity of one block is computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reference {
    /// `jamiolkowski_fidelity_kraus`: enumerates Kraus strings (few terms).
    Kraus,
    /// `process_fidelity_baseline`: dense superoperators (small blocks).
    Dense,
}

/// One seeded circuit pair.
#[derive(Clone, Debug)]
pub struct Recipe {
    pub name: String,
    pub block: Block,
    pub placement: Placement,
    pub channel: Channel,
    /// The channel parameter the pair is built with.
    pub strength: f64,
    /// Disjoint copies of the noisy block (1 = untiled).
    pub copies: usize,
    pub epsilon: f64,
    pub reference: Reference,
}

impl Recipe {
    fn channel_at(&self, strength: f64) -> NoiseChannel {
        match self.channel {
            Channel::Depolarizing => NoiseChannel::Depolarizing { p: strength },
            Channel::AmplitudeDamping => NoiseChannel::AmplitudeDamping { gamma: strength },
        }
    }

    /// The (ideal, noisy) pair of one block at `strength`.
    fn block_pair(&self, strength: f64) -> (Circuit, Circuit) {
        let ideal = self.block.circuit();
        let channel = self.channel_at(strength);
        let noisy = match self.placement {
            Placement::Random { count, seed } => insert_random_noise(&ideal, &channel, count, seed),
            Placement::EveryGate => noise_after_each_gate(&ideal, &channel),
        };
        (ideal, noisy)
    }

    /// The full (ideal, noisy) pair at `strength`.
    pub fn pair_at(&self, strength: f64) -> (Circuit, Circuit) {
        let (ideal, noisy) = self.block_pair(strength);
        if self.copies == 1 {
            (ideal, noisy)
        } else {
            (tile(&ideal, self.copies), tile(&noisy, self.copies))
        }
    }

    pub fn pair(&self) -> (Circuit, Circuit) {
        self.pair_at(self.strength)
    }

    /// The reference `F_J` at `strength`. A tiled pair is a tensor
    /// product of identical blocks and `F_J` factorises over tensor
    /// products, so its reference is the block's raised to `copies`.
    pub fn reference_at(&self, strength: f64) -> f64 {
        let (ideal, noisy) = self.block_pair(strength);
        let block = match self.reference {
            Reference::Kraus => jamiolkowski_fidelity_kraus(&ideal, &noisy),
            Reference::Dense => process_fidelity_baseline(&ideal, &noisy),
        }
        .expect("reference blocks are small, noise-free ideals");
        block.powi(self.copies as i32)
    }
}

fn recipe(
    name: &str,
    block: Block,
    placement: Placement,
    channel: Channel,
    copies: usize,
    epsilon: f64,
    reference: Reference,
) -> Recipe {
    let strength = match channel {
        Channel::Depolarizing => 0.999,
        Channel::AmplitudeDamping => 0.002,
    };
    Recipe {
        name: name.to_string(),
        block,
        placement,
        channel,
        strength,
        copies,
        epsilon,
        reference,
    }
}

/// `count` random sites with a seed drawn from `rng`.
fn sites(rng: &mut Rng, count: usize) -> Placement {
    Placement::Random {
        count,
        seed: rng.next_u64(),
    }
}

fn qv(rng: &mut Rng, n: usize, depth: usize) -> Block {
    Block::Qv {
        n,
        depth,
        seed: rng.next_u64(),
    }
}

use Channel::{AmplitudeDamping as Ad, Depolarizing as Dep};
use Reference::{Dense, Kraus};

/// The `check_cold` corpus: the paper's families in all three regimes
/// `Auto` routes to — at most 16 Kraus terms (Algorithm I), noise
/// everywhere or many terms (Algorithm II), and wide tiles of small
/// blocks (the MPO backend). Each check takes tens of milliseconds at
/// most, so no single pair dominates the corpus.
pub fn check_corpus(seed: u64) -> Vec<Recipe> {
    let rng = &mut Rng::new(seed, 1);
    vec![
        recipe(
            "qft5+2dep",
            Block::Qft(5),
            sites(rng, 2),
            Dep,
            1,
            0.001,
            Kraus,
        ),
        recipe(
            "grover3+2dep",
            Block::Grover,
            sites(rng, 2),
            Dep,
            1,
            0.01,
            Kraus,
        ),
        recipe("bv6+2dep", Block::Bv(6), sites(rng, 2), Dep, 1, 0.01, Kraus),
        recipe(
            "adder2+2ad",
            Block::Adder(2),
            sites(rng, 2),
            Ad,
            1,
            0.003,
            Kraus,
        ),
        recipe(
            "qft5+3dep",
            Block::Qft(5),
            sites(rng, 3),
            Dep,
            1,
            0.01,
            Kraus,
        ),
        recipe(
            "qv3x2+3dep",
            qv(rng, 3, 2),
            sites(rng, 3),
            Dep,
            1,
            0.002,
            Kraus,
        ),
        recipe(
            "grover3+3dep",
            Block::Grover,
            sites(rng, 3),
            Dep,
            1,
            0.002,
            Kraus,
        ),
        recipe(
            "adder1+dep/gate",
            Block::Adder(1),
            Placement::EveryGate,
            Dep,
            1,
            0.02,
            Dense,
        ),
        recipe(
            "qft3+dep/gate",
            Block::Qft(3),
            Placement::EveryGate,
            Dep,
            1,
            0.05,
            Dense,
        ),
        recipe(
            "tile(qft3+1dep,4)",
            Block::Qft(3),
            sites(rng, 1),
            Dep,
            4,
            0.01,
            Kraus,
        ),
        recipe(
            "tile(qft3+dep/gate,3)",
            Block::Qft(3),
            Placement::EveryGate,
            Dep,
            3,
            0.1,
            Dense,
        ),
        recipe(
            "tile(adder1+2ad,3)",
            Block::Adder(1),
            sites(rng, 2),
            Ad,
            3,
            0.01,
            Kraus,
        ),
    ]
}

/// The `sweep_warm` corpus: Algorithm II pairs where lane batching
/// engages, two Algorithm I pairs (per-point replay) and two wide tiles
/// swept on the MPO engine. Only the Algorithm I noise sites and the
/// strength grids come from the seed: random blocks or sites on the
/// other pairs change the cost of a sweep severalfold from seed to seed
/// (they can switch lane batching on or off), which would drown any
/// change to the program.
pub fn sweep_corpus(seed: u64) -> Vec<Recipe> {
    let rng = &mut Rng::new(seed, 2);
    let fixed = |count, placement_seed| Placement::Random {
        count,
        seed: placement_seed,
    };
    let qv3x2 = Block::Qv {
        n: 3,
        depth: 2,
        seed: 7,
    };
    vec![
        recipe(
            "adder1+dep/gate",
            Block::Adder(1),
            Placement::EveryGate,
            Dep,
            1,
            0.05,
            Dense,
        ),
        recipe(
            "qft3+dep/gate",
            Block::Qft(3),
            Placement::EveryGate,
            Dep,
            1,
            0.1,
            Dense,
        ),
        recipe("qv3x2+3dep", qv3x2, fixed(3, 11), Dep, 1, 0.02, Kraus),
        recipe(
            "grover3+3dep",
            Block::Grover,
            fixed(3, 13),
            Dep,
            1,
            0.02,
            Kraus,
        ),
        recipe(
            "qft5+2dep",
            Block::Qft(5),
            sites(rng, 2),
            Dep,
            1,
            0.02,
            Kraus,
        ),
        recipe(
            "qft4+2dep",
            Block::Qft(4),
            sites(rng, 2),
            Dep,
            1,
            0.02,
            Kraus,
        ),
        recipe(
            "tile(qft3+1dep,4)",
            Block::Qft(3),
            fixed(1, 17),
            Dep,
            4,
            0.05,
            Kraus,
        ),
        recipe(
            "tile(qft3+dep/gate,3)",
            Block::Qft(3),
            Placement::EveryGate,
            Dep,
            3,
            0.3,
            Dense,
        ),
    ]
}

/// One strength grid per sweep: 16 depolarizing strengths in a window
/// that narrows sweep by sweep around a seeded centre, as a user
/// zooming in on a noise level would ask for.
pub fn strength_grids(seed: u64, pair: usize, sweeps: usize) -> Vec<Vec<f64>> {
    let rng = &mut Rng::new(seed, 100 + pair as u64);
    // Strengths stay within [0.987, 0.997]: valid, and far from ε. The
    // window moves a little with the seed; how wide it is, which sets
    // how much the points of one lane batch differ, does not.
    let centre = 0.991 + 0.002 * rng.unit();
    (0..sweeps)
        .map(|k| {
            let half = 0.004 / (1u64 << k) as f64;
            (0..16)
                .map(|i| centre - half + 2.0 * half * i as f64 / 15.0)
                .collect()
        })
        .collect()
}

/// The `serve_mixed` hot set: pairs compiled during set-up, each always
/// asked at the same ε so every later request is answered from the
/// cached session.
pub fn hot_corpus(seed: u64) -> Vec<Recipe> {
    let rng = &mut Rng::new(seed, 3);
    vec![
        recipe(
            "qft5+2dep",
            Block::Qft(5),
            sites(rng, 2),
            Dep,
            1,
            0.001,
            Kraus,
        ),
        recipe(
            "grover3+2dep",
            Block::Grover,
            sites(rng, 2),
            Dep,
            1,
            0.01,
            Kraus,
        ),
        recipe("bv6+2dep", Block::Bv(6), sites(rng, 2), Dep, 1, 0.01, Kraus),
        recipe(
            "qft5+3dep",
            Block::Qft(5),
            sites(rng, 3),
            Dep,
            1,
            0.01,
            Kraus,
        ),
        recipe(
            "qv3x3+3dep",
            qv(rng, 3, 3),
            sites(rng, 3),
            Dep,
            1,
            0.002,
            Kraus,
        ),
        recipe(
            "adder1+dep/gate",
            Block::Adder(1),
            Placement::EveryGate,
            Dep,
            1,
            0.02,
            Dense,
        ),
        recipe(
            "tile(qft3+1dep,4)",
            Block::Qft(3),
            sites(rng, 1),
            Dep,
            4,
            0.01,
            Kraus,
        ),
        recipe(
            "tile(adder1+2ad,3)",
            Block::Adder(1),
            sites(rng, 2),
            Ad,
            3,
            0.01,
            Kraus,
        ),
    ]
}

/// The `serve_mixed` cold set: `count` distinct pairs of one family
/// (Algorithm II, alike in cost), each requested once. Placements that
/// repeat an earlier pair are drawn again, so every request misses.
pub fn cold_corpus(seed: u64, count: usize) -> Vec<Recipe> {
    let rng = &mut Rng::new(seed, 4);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let name = format!("cold{}:qft4+3dep", out.len());
        let candidate = recipe(&name, Block::Qft(4), sites(rng, 3), Dep, 1, 0.01, Kraus);
        let (ideal, noisy) = candidate.pair();
        if seen.insert(qaec_circuit::pair_hash(&ideal, &noisy)) {
            out.push(candidate);
        }
    }
    out
}
