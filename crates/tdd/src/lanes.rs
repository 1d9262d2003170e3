//! The multi-lane TDD engine: one contraction traversal carrying `L`
//! structurally-identical diagrams whose weights differ per lane.
//!
//! A noise sweep re-contracts the *same* network shape — same plan, same
//! elimination sets, same node skeleton — with only the Kraus weights
//! changing between points. [`contract_network_lanes`] exploits that: an
//! edge weight becomes a [`LaneC64`] lane vector (`[f64; L]` re/im per
//! lane), so hashing, memoization and node construction are paid once
//! for `L` sweep points instead of once per point.
//!
//! ## The determinism invariant
//!
//! The scalar reference path is the plan driver over a shared store with
//! **scoped** interning ([`crate::TddManager::new_shared_scoped`]): each
//! leaf conversion and each plan step is one weight scope, values glue
//! to the scope's first-seen representative within tolerance, and
//! representatives store their exact bits. The lane engine runs the
//! **same glue per lane** — per-lane representative maps, reset at the
//! same scope boundaries — so as long as every control-flow decision the
//! scalar engine takes is *lane-uniform*, each lane of the lane run is
//! bit-identical to the corresponding scalar run.
//!
//! Where lanes would have to disagree — one lane's weight gluing to
//! zero while another's does not, one lane preferring the low child's
//! normalisation weight while another prefers the high's, operand order
//! in `add` differing between lanes, a scalar id fast path (`x·1`,
//! `x/1`, `x/x`) firing in some lanes only — the engine does not guess:
//! it aborts the whole batch with [`LaneDivergence`] and the caller
//! falls back to the scalar per-point replay. Divergence is a *performance*
//! event, never a correctness event. (One residual case is undetectable
//! in principle: two per-lane subgraphs coinciding structurally under
//! *different* lane nodes. For sweeps over distinct noise strengths the
//! weights involved differ lane-to-lane, which is exactly what the
//! detectable checks key on; the end-to-end bit-identity tests in
//! `tests/sweep_lanes.rs` pin the behaviour.)
//!
//! The lane manager is private and single-threaded: a batch is one
//! sequential plan execution, so lane results are independent of
//! `threads` by construction.

use crate::fxhash::FxHashMap;
use crate::manager::{TddStats, DEADLINE_PROBE_INTERVAL};
use qaec_math::{LaneC64, C64};
use qaec_tensornet::{ContractionPlan, PlanStep, Tensor, TensorNetwork, VarOrder};
use std::time::Instant;

/// The lane batch hit a control-flow decision that is not lane-uniform;
/// the caller must replay the batch on the scalar reference path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneDivergence {
    /// Which uniformity check fired (diagnostic only).
    pub reason: &'static str,
}

impl std::fmt::Display for LaneDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane divergence: {}", self.reason)
    }
}

impl std::error::Error for LaneDivergence {}

/// Why a lane contraction stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneError {
    /// Lanes disagreed on a value-dependent decision — fall back to the
    /// scalar per-point path.
    Divergence(LaneDivergence),
    /// The armed deadline expired mid-contraction.
    Timeout,
}

impl From<LaneDivergence> for LaneError {
    fn from(d: LaneDivergence) -> Self {
        LaneError::Divergence(d)
    }
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneError::Divergence(d) => d.fmt(f),
            LaneError::Timeout => write!(f, "contraction deadline exceeded"),
        }
    }
}

impl std::error::Error for LaneError {}

#[inline]
fn diverge(reason: &'static str) -> LaneDivergence {
    LaneDivergence { reason }
}

/// Result of one lane batch: the closed network's scalar per lane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaneOutcome<const L: usize> {
    /// The contracted scalar of lane `i`'s network.
    pub scalars: [C64; L],
    /// Largest intermediate *lane-diagram* node count (one shared
    /// skeleton for all lanes — not comparable to scalar `max_nodes`).
    pub max_nodes: usize,
    /// Plan steps executed.
    pub steps: usize,
    /// Lane-manager statistics (one traversal for the whole batch).
    pub stats: TddStats,
}

// Handles. The lane manager owns a private arena, so plain indices —
// slot 0 is the terminal node / the all-zero weight, slot 1 the
// all-one weight, mirroring the scalar stores.
const TERMINAL: u32 = 0;
const TERMINAL_VAR: u32 = u32::MAX;
const W_ZERO: u32 = 0;
const W_ONE: u32 = 1;

/// An edge of the lane diagram: node handle plus lane-weight handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LaneEdge {
    node: u32,
    weight: u32,
}

impl LaneEdge {
    const ZERO: LaneEdge = LaneEdge {
        node: TERMINAL,
        weight: W_ZERO,
    };
    const ONE: LaneEdge = LaneEdge {
        node: TERMINAL,
        weight: W_ONE,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct LaneNode {
    var: u32,
    low: LaneEdge,
    high: LaneEdge,
}

/// Bit pattern of the exact one (`1.0`); the exact `+0.0` is bit zero.
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// One lane's scope representatives: bucket → first-seen values.
type GlueBuckets = FxHashMap<(i64, i64), Vec<(f64, f64)>>;

/// One lane's mirror of the scoped scalar intern
/// (the per-step scoped family in `crate::manager`): zero box → exact zero,
/// already-resolved bits → their glued value, tolerance match against a
/// scope representative → the representative's exact bits, else the
/// value becomes the scope's representative for its neighbourhood.
/// Returns the value the scalar run would *store* — gluing state (and
/// therefore representative election order) is per lane, exactly as `L`
/// independent scalar runs would evolve it.
fn glue_component(
    glue: &mut GlueBuckets,
    resolved: &mut FxHashMap<(u64, u64), (f64, f64)>,
    tol: f64,
    re: f64,
    im: f64,
) -> (f64, f64) {
    if re.abs() <= tol && im.abs() <= tol {
        return (0.0, 0.0);
    }
    let bits = (re.to_bits(), im.to_bits());
    if let Some(&v) = resolved.get(&bits) {
        return v;
    }
    // Bucket width 2·tol: the 3×3 probe covers every representative
    // within tol (Chebyshev); keys saturate for huge values, so the
    // probe saturates too — both exactly as in the scalar engine.
    let w = 2.0 * tol;
    let (kr, ki) = ((re / w).round() as i64, (im / w).round() as i64);
    for dr in -1..=1i64 {
        for di in -1..=1i64 {
            if let Some(reps) = glue.get(&(kr.saturating_add(dr), ki.saturating_add(di))) {
                for &(vr, vi) in reps {
                    if (vr - re).abs() <= tol && (vi - im).abs() <= tol {
                        resolved.insert(bits, (vr, vi));
                        return (vr, vi);
                    }
                }
            }
        }
    }
    glue.entry((kr, ki)).or_default().push((re, im));
    resolved.insert(bits, (re, im));
    (re, im)
}

/// The private, single-threaded lane store + computed tables.
struct LaneManager<const L: usize> {
    tol: f64,
    /// Per-lane scope representatives (bucket → first-seen values), the
    /// lane mirror of the scoped scalar glue. Reset per weight scope.
    glue: Vec<GlueBuckets>,
    /// Per-lane bits → glued value, the probe short-circuit. Reset per
    /// weight scope.
    resolved: Vec<FxHashMap<(u64, u64), (f64, f64)>>,
    weights: Vec<LaneC64<L>>,
    weight_map: FxHashMap<[(u64, u64); L], u32>,
    nodes: Vec<LaneNode>,
    unique: FxHashMap<LaneNode, u32>,
    add_cache: FxHashMap<(LaneEdge, LaneEdge), LaneEdge>,
    cont_cache: FxHashMap<(u32, u32, u32, u32), LaneEdge>,
    elim_sets: Vec<Box<[u32]>>,
    elim_ids: FxHashMap<Vec<u32>, u32>,
    deadline: Option<Instant>,
    probe_budget: u32,
    expired: bool,
    stats: TddStats,
}

impl<const L: usize> LaneManager<L> {
    fn with_tolerance(tol: f64) -> Self {
        assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
        let mut m = LaneManager {
            tol,
            glue: (0..L).map(|_| FxHashMap::default()).collect(),
            resolved: (0..L).map(|_| FxHashMap::default()).collect(),
            weights: Vec::new(),
            weight_map: FxHashMap::default(),
            nodes: Vec::new(),
            unique: FxHashMap::default(),
            add_cache: FxHashMap::default(),
            cont_cache: FxHashMap::default(),
            elim_sets: Vec::new(),
            elim_ids: FxHashMap::default(),
            deadline: None,
            probe_budget: DEADLINE_PROBE_INTERVAL,
            expired: false,
            stats: TddStats::default(),
        };
        m.nodes.push(LaneNode {
            var: TERMINAL_VAR,
            low: LaneEdge::ZERO,
            high: LaneEdge::ZERO,
        });
        m.weights.push(LaneC64::ZERO);
        m.weights.push(LaneC64::splat(C64::ONE));
        m
    }

    /// Opens a new weight scope, mirroring
    /// [`crate::TddManager::begin_weight_scope`]: per-lane glue state and
    /// the computed tables reset together (cached entries embed the
    /// outgoing scope's representative-glued weights). Interned weights
    /// and nodes persist — they mirror the shared store's global
    /// exact-bits family.
    fn begin_scope(&mut self) {
        for g in &mut self.glue {
            g.clear();
        }
        for r in &mut self.resolved {
            r.clear();
        }
        self.add_cache.clear();
        self.cont_cache.clear();
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.probe_budget = DEADLINE_PROBE_INTERVAL;
        self.expired = false;
    }

    #[inline]
    fn deadline_exceeded(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.expired {
            return true;
        }
        self.probe_budget -= 1;
        if self.probe_budget == 0 {
            self.probe_budget = DEADLINE_PROBE_INTERVAL;
            if Instant::now() >= deadline {
                self.expired = true;
                return true;
            }
        }
        false
    }

    /// Interns a lane weight after per-lane scope gluing.
    ///
    /// The zero box must be lane-uniform: the scalar `is_zero` fast
    /// paths are *structural* (a zero weight makes the whole edge the
    /// terminal zero edge and guards `wdiv`), so a lane that glues to
    /// zero while another does not cannot be represented.
    ///
    /// A lane that glues to *exactly* `(1.0, +0.0)` maps to the scalar
    /// id `ONE` in that lane's reference run — the shared store
    /// pre-seeds the exact-one bits onto `WeightId::ONE`, so the
    /// exact-bits find-or-insert returns `ONE` for them. All lanes one
    /// is therefore `W_ONE`. *Mixed* exact-one lanes are representable
    /// but poisoned: the scalar `x·1`, `x/1`, `x/x` id fast paths would
    /// fire in the one-lanes only, returning the other operand's stored
    /// bits *without re-gluing*, while a computed product/quotient runs
    /// through the glue and may land on a different scope
    /// representative. `wmul`/`wdiv` diverge lazily when such a weight
    /// reaches an actual computation (see [`Self::mixed_exact_one`]).
    fn intern(&mut self, v: LaneC64<L>) -> Result<u32, LaneDivergence> {
        debug_assert!(v.is_finite(), "non-finite lane weight");
        let mut glued = LaneC64::ZERO;
        let mut zeros = 0usize;
        let mut ones = 0usize;
        for i in 0..L {
            let (re, im) = glue_component(
                &mut self.glue[i],
                &mut self.resolved[i],
                self.tol,
                v.re[i],
                v.im[i],
            );
            glued.re[i] = re;
            glued.im[i] = im;
            if re.to_bits() == 0 && im.to_bits() == 0 {
                zeros += 1;
            } else if re.to_bits() == ONE_BITS && im.to_bits() == 0 {
                ones += 1;
            }
        }
        if zeros == L {
            return Ok(W_ZERO);
        }
        if zeros > 0 {
            return Err(diverge("some lanes glue to zero"));
        }
        if ones == L {
            return Ok(W_ONE);
        }
        let key: [(u64, u64); L] =
            std::array::from_fn(|i| (glued.re[i].to_bits(), glued.im[i].to_bits()));
        if let Some(&id) = self.weight_map.get(&key) {
            return Ok(id);
        }
        let id = self.weights.len() as u32;
        self.weights.push(glued);
        self.weight_map.insert(key, id);
        Ok(id)
    }

    #[inline]
    fn wvalue(&self, w: u32) -> LaneC64<L> {
        self.weights[w as usize]
    }

    /// True when *some* (but not all) lanes of `w` hold the exact one.
    /// Those lanes' scalar runs would take an id fast path (`x·1`,
    /// `x/1`) that skips the glue, while the other lanes compute and
    /// re-glue — lane-uniform computation cannot reproduce both.
    #[inline]
    fn mixed_exact_one(&self, w: u32) -> bool {
        if w == W_ONE {
            return false;
        }
        let v = self.wvalue(w);
        (0..L).any(|i| v.re[i].to_bits() == ONE_BITS && v.im[i].to_bits() == 0)
    }

    /// Interned product — handle fast paths are exact because stored
    /// lane values carry the scalar runs' exact bits (ZERO/ONE handles
    /// ⟺ every lane is the exact zero/one ⟺ every scalar id is
    /// ZERO/ONE), mirroring the shared store's `wmul`. Mixed exact-one
    /// operands diverge: their scalar fast path fires per lane.
    fn wmul(&mut self, a: u32, b: u32) -> Result<u32, LaneDivergence> {
        if a == W_ZERO || b == W_ZERO {
            return Ok(W_ZERO);
        }
        if a == W_ONE {
            return Ok(b);
        }
        if b == W_ONE {
            return Ok(a);
        }
        if self.mixed_exact_one(a) || self.mixed_exact_one(b) {
            return Err(diverge("some lanes multiply by the exact one"));
        }
        let v = self.wvalue(a) * self.wvalue(b);
        self.intern(v)
    }

    fn wadd(&mut self, a: u32, b: u32) -> Result<u32, LaneDivergence> {
        if a == W_ZERO {
            return Ok(b);
        }
        if b == W_ZERO {
            return Ok(a);
        }
        let v = self.wvalue(a) + self.wvalue(b);
        self.intern(v)
    }

    fn wdiv(&mut self, a: u32, b: u32) -> Result<u32, LaneDivergence> {
        assert!(b != W_ZERO, "division by the zero weight");
        if a == W_ZERO {
            return Ok(W_ZERO);
        }
        if b == W_ONE {
            return Ok(a);
        }
        if a == b {
            // Same handle ⇒ every lane's stored bits are equal ⇒ every
            // scalar run's ids are equal (exact-bits interning is
            // globally pure), so every scalar run takes the `x/x ⇒ ONE`
            // fast path too.
            return Ok(W_ONE);
        }
        if self.mixed_exact_one(b) {
            return Err(diverge("some lanes divide by the exact one"));
        }
        // Handles differ, but a single lane's bits may still coincide —
        // that lane's scalar run would return `ONE` via the id check
        // while the computed quotient re-glues. (A mixed one in `a` is
        // fine: the scalar `wdiv` has no `a.is_one()` shortcut.)
        let (va, vb) = (self.wvalue(a), self.wvalue(b));
        for i in 0..L {
            if va.re[i].to_bits() == vb.re[i].to_bits() && va.im[i].to_bits() == vb.im[i].to_bits()
            {
                return Err(diverge("some lanes divide bit-equal weights"));
            }
        }
        let v = va / vb;
        self.intern(v)
    }

    fn wscale_real(&mut self, a: u32, factor: f64) -> Result<u32, LaneDivergence> {
        if factor == 0.0 {
            return Ok(W_ZERO);
        }
        if a == W_ZERO {
            return Ok(a);
        }
        let v = self.wvalue(a).scale(factor);
        self.intern(v)
    }

    #[inline]
    fn var(&self, n: u32) -> u32 {
        self.nodes[n as usize].var
    }

    fn terminal(&mut self, v: LaneC64<L>) -> Result<LaneEdge, LaneDivergence> {
        Ok(LaneEdge {
            node: TERMINAL,
            weight: self.intern(v)?,
        })
    }

    /// The scalar-engine node constructor, with its two value-dependent
    /// decisions checked for lane uniformity: the low/high reduction and
    /// the normalisation-weight pick.
    fn make_node(
        &mut self,
        var: u32,
        low: LaneEdge,
        high: LaneEdge,
    ) -> Result<LaneEdge, LaneDivergence> {
        debug_assert!(
            self.var(low.node) > var && self.var(high.node) > var,
            "child variable above parent in the order"
        );
        if low == high {
            // Canonical interning: equal handles mean every lane's pair
            // is equal, so every scalar run reduces too.
            return Ok(low);
        }
        if low.weight == W_ZERO && high.weight == W_ZERO {
            return Ok(LaneEdge::ZERO);
        }
        if low.node == high.node && low.weight != high.weight {
            // Handles differ, but a single lane's weights may still
            // coincide — that lane's scalar run would reduce the node
            // away while the lane diagram keeps it.
            let (vl, vh) = (self.wvalue(low.weight), self.wvalue(high.weight));
            for i in 0..L {
                if vl.re[i].to_bits() == vh.re[i].to_bits()
                    && vl.im[i].to_bits() == vh.im[i].to_bits()
                {
                    return Err(diverge("some lanes reduce equal children"));
                }
            }
        }
        let ml = self.wvalue(low.weight).abs();
        let mh = self.wvalue(high.weight).abs();
        let mut pick_low_all = true;
        let mut pick_high_all = true;
        for i in 0..L {
            if ml[i] + self.tol >= mh[i] {
                pick_high_all = false;
            } else {
                pick_low_all = false;
            }
        }
        let norm = if pick_low_all {
            low.weight
        } else if pick_high_all {
            high.weight
        } else {
            return Err(diverge("lanes disagree on the normalisation weight"));
        };
        let new_low = LaneEdge {
            node: low.node,
            weight: if low.weight == norm {
                W_ONE
            } else {
                self.wdiv(low.weight, norm)?
            },
        };
        let new_high = LaneEdge {
            node: high.node,
            weight: if high.weight == norm {
                W_ONE
            } else {
                self.wdiv(high.weight, norm)?
            },
        };
        let key = LaneNode {
            var,
            low: new_low,
            high: new_high,
        };
        let node = match self.unique.get(&key) {
            Some(&id) => {
                self.stats.unique_hits += 1;
                id
            }
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(key);
                self.unique.insert(key, id);
                self.stats.nodes_created += 1;
                self.stats.peak_nodes = self.stats.peak_nodes.max(self.nodes.len() - 1);
                id
            }
        };
        Ok(LaneEdge { node, weight: norm })
    }

    fn cofactors(&mut self, e: LaneEdge, var: u32) -> Result<(LaneEdge, LaneEdge), LaneDivergence> {
        let node = self.nodes[e.node as usize];
        if e.node == TERMINAL || node.var > var {
            return Ok((e, e));
        }
        debug_assert_eq!(node.var, var, "edge root above requested variable");
        let low = LaneEdge {
            node: node.low.node,
            weight: self.wmul(e.weight, node.low.weight)?,
        };
        let high = LaneEdge {
            node: node.high.node,
            weight: self.wmul(e.weight, node.high.weight)?,
        };
        Ok((low, high))
    }

    fn intern_elim_set(&mut self, levels: Vec<u32>) -> u32 {
        debug_assert!(levels.windows(2).all(|w| w[0] < w[1]), "levels sorted");
        if let Some(&id) = self.elim_ids.get(&levels) {
            return id;
        }
        let id = self.elim_sets.len() as u32;
        self.elim_sets.push(levels.clone().into_boxed_slice());
        self.elim_ids.insert(levels, id);
        id
    }

    /// `ops::try_add`, lane form. Operand order is decided by weight
    /// *values*, so it must be lane-uniform; exact-value ties fall back
    /// to lane handles, where either order is value-symmetric (same
    /// argument as the scalar engine's handle tie-break).
    fn add(&mut self, a: LaneEdge, b: LaneEdge) -> Result<LaneEdge, LaneError> {
        self.stats.add_calls += 1;
        if self.deadline_exceeded() {
            return Err(LaneError::Timeout);
        }
        if a.weight == W_ZERO {
            return Ok(b);
        }
        if b.weight == W_ZERO {
            return Ok(a);
        }
        if a.node == b.node {
            let w = self.wadd(a.weight, b.weight)?;
            if w == W_ZERO {
                return Ok(LaneEdge::ZERO);
            }
            return Ok(LaneEdge {
                node: a.node,
                weight: w,
            });
        }
        let (a, b) = {
            let va = self.wvalue(a.weight);
            let vb = self.wvalue(b.weight);
            let mut any_lt = false;
            let mut any_gt = false;
            for i in 0..L {
                match vb.re[i]
                    .total_cmp(&va.re[i])
                    .then(vb.im[i].total_cmp(&va.im[i]))
                {
                    std::cmp::Ordering::Less => any_lt = true,
                    std::cmp::Ordering::Greater => any_gt = true,
                    std::cmp::Ordering::Equal => {}
                }
            }
            let swap = match (any_lt, any_gt) {
                (true, true) => return Err(diverge("lanes disagree on add operand order").into()),
                (true, false) => true,
                (false, true) => false,
                (false, false) => (b.node, b.weight) < (a.node, a.weight),
            };
            if swap {
                (b, a)
            } else {
                (a, b)
            }
        };
        let ratio = self.wdiv(b.weight, a.weight)?;
        let na = LaneEdge {
            node: a.node,
            weight: W_ONE,
        };
        let nb = LaneEdge {
            node: b.node,
            weight: ratio,
        };
        let key = (na, nb);
        if let Some(&hit) = self.add_cache.get(&key) {
            self.stats.add_hits += 1;
            return Ok(LaneEdge {
                node: hit.node,
                weight: self.wmul(hit.weight, a.weight)?,
            });
        }
        let x = self.var(na.node).min(self.var(nb.node));
        let (a0, a1) = self.cofactors(na, x)?;
        let (b0, b1) = self.cofactors(nb, x)?;
        let low = self.add(a0, b0)?;
        let high = self.add(a1, b1)?;
        let result = self.make_node(x, low, high)?;
        self.add_cache.insert(key, result);
        Ok(LaneEdge {
            node: result.node,
            weight: self.wmul(result.weight, a.weight)?,
        })
    }

    /// `ops::cont_rec`, lane form. The id-based operand order is
    /// value-transparent exactly as in the scalar engine (both operands
    /// reduced to unit weight, symmetric recursion), so lane node ids
    /// differing from scalar node ids cannot change any value.
    fn cont_rec(
        &mut self,
        a: LaneEdge,
        b: LaneEdge,
        set_id: u32,
        k: usize,
    ) -> Result<LaneEdge, LaneError> {
        self.stats.cont_calls += 1;
        if self.deadline_exceeded() {
            return Err(LaneError::Timeout);
        }
        let w = self.wmul(a.weight, b.weight)?;
        if w == W_ZERO {
            return Ok(LaneEdge::ZERO);
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            let remaining = self.elim_sets[set_id as usize].len() - k;
            let weight = self.wscale_real(w, (remaining as f64).exp2())?;
            return Ok(LaneEdge {
                node: TERMINAL,
                weight,
            });
        }
        let (na, nb) = if b.node < a.node {
            (b.node, a.node)
        } else {
            (a.node, b.node)
        };
        let key = (na, nb, set_id, k as u32);
        if let Some(&hit) = self.cont_cache.get(&key) {
            self.stats.cont_hits += 1;
            return Ok(LaneEdge {
                node: hit.node,
                weight: self.wmul(hit.weight, w)?,
            });
        }
        let x = self.var(na).min(self.var(nb));
        let mut kk = k;
        {
            let elim = &self.elim_sets[set_id as usize];
            while kk < elim.len() && elim[kk] < x {
                kk += 1;
            }
        }
        let skips = (kk - k) as f64;
        let ea = LaneEdge {
            node: na,
            weight: W_ONE,
        };
        let eb = LaneEdge {
            node: nb,
            weight: W_ONE,
        };
        let (a0, a1) = self.cofactors(ea, x)?;
        let (b0, b1) = self.cofactors(eb, x)?;
        let eliminate_x = {
            let elim = &self.elim_sets[set_id as usize];
            kk < elim.len() && elim[kk] == x
        };
        let mut result = if eliminate_x {
            let low = self.cont_rec(a0, b0, set_id, kk + 1)?;
            let high = self.cont_rec(a1, b1, set_id, kk + 1)?;
            self.add(low, high)?
        } else {
            let low = self.cont_rec(a0, b0, set_id, kk)?;
            let high = self.cont_rec(a1, b1, set_id, kk)?;
            self.make_node(x, low, high)?
        };
        if skips > 0.0 {
            result = LaneEdge {
                node: result.node,
                weight: self.wscale_real(result.weight, skips.exp2())?,
            };
        }
        self.cont_cache.insert(key, result);
        Ok(LaneEdge {
            node: result.node,
            weight: self.wmul(result.weight, w)?,
        })
    }

    /// `convert::from_tensor` over `L` same-shape tensors at once.
    fn convert_tensors(
        &mut self,
        tensors: [&Tensor; L],
        order: &VarOrder,
    ) -> Result<LaneEdge, LaneDivergence> {
        // One tensor = one weight scope, as in the scalar conversion.
        self.begin_scope();
        let sorted: Vec<Tensor> = tensors.iter().map(|t| t.sorted_by(order)).collect();
        debug_assert!(
            sorted.iter().all(|t| t.indices() == sorted[0].indices()),
            "lane tensors must share one index structure"
        );
        let levels: Vec<u32> = sorted[0]
            .indices()
            .iter()
            .map(|&i| order.level(i))
            .collect();
        let datas: [&[C64]; L] = std::array::from_fn(|i| sorted[i].data());
        self.build(datas, &levels)
    }

    fn build(&mut self, datas: [&[C64]; L], levels: &[u32]) -> Result<LaneEdge, LaneDivergence> {
        if levels.is_empty() {
            let mut v = LaneC64::ZERO;
            for (i, data) in datas.iter().enumerate() {
                v.re[i] = data[0].re;
                v.im[i] = data[0].im;
            }
            return self.terminal(v);
        }
        let half = datas[0].len() / 2;
        let lows: [&[C64]; L] = std::array::from_fn(|i| &datas[i][..half]);
        let highs: [&[C64]; L] = std::array::from_fn(|i| &datas[i][half..]);
        let low = self.build(lows, &levels[1..])?;
        let high = self.build(highs, &levels[1..])?;
        self.make_node(levels[0], low, high)
    }

    /// Distinct reachable lane-diagram nodes, including the terminal.
    fn node_count(&self, e: LaneEdge) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![e.node];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if n != TERMINAL {
                let node = self.nodes[n as usize];
                stack.push(node.low.node);
                stack.push(node.high.node);
            }
        }
        seen.len()
    }
}

/// Contracts `L` structurally-identical networks in one plan execution.
///
/// `networks[i]` is lane `i`'s instantiation — same tensors in the same
/// slots with the same index structure, only the values differing (a
/// noise sweep batch). `tolerance` must match the scalar reference
/// store's ([`crate::SharedTddStore::tolerance`]), or the per-lane glue
/// stops replicating the reference values.
///
/// On success every `scalars[i]` is bit-identical to contracting
/// `networks[i]` alone over a shared store with scoped interning
/// ([`crate::TddManager::new_shared_scoped`]) with the same plan and
/// order. On [`LaneError::Divergence`] nothing useful was computed
/// and the caller replays the batch per point; on [`LaneError::Timeout`]
/// the armed `deadline` expired.
///
/// # Errors
///
/// [`LaneError::Divergence`] / [`LaneError::Timeout`] as above.
///
/// # Panics
///
/// Panics if `networks.len() != L`, the networks disagree on tensor
/// count, the plan does not match, or a network is left open (lane
/// contraction serves closed trace networks only).
pub fn contract_network_lanes<const L: usize>(
    tolerance: f64,
    networks: &[TensorNetwork],
    plan: &ContractionPlan,
    order: &VarOrder,
    deadline: Option<Instant>,
) -> Result<LaneOutcome<L>, LaneError> {
    assert_eq!(networks.len(), L, "expected {L} lane networks");
    let n_tensors = networks[0].tensors().len();
    assert!(
        networks.iter().all(|n| n.tensors().len() == n_tensors),
        "lane networks must agree on tensor count"
    );
    let mut m = LaneManager::<L>::with_tolerance(tolerance);
    m.set_deadline(deadline);

    let mut slots: Vec<Option<LaneEdge>> = Vec::with_capacity(plan.n_slots.max(n_tensors));
    for t in 0..n_tensors {
        let tensors: [&Tensor; L] = std::array::from_fn(|i| &networks[i].tensors()[t]);
        slots.push(Some(m.convert_tensors(tensors, order)?));
    }
    slots.resize(plan.n_slots.max(slots.len()), None);

    let mut max_nodes = slots
        .iter()
        .flatten()
        .map(|&e| m.node_count(e))
        .max()
        .unwrap_or(1);

    for step in &plan.steps {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Err(LaneError::Timeout);
            }
        }
        let result = match step {
            PlanStep::Contract {
                a,
                b,
                eliminate,
                result,
            } => {
                let ea = slots[*a].take().expect("operand a live");
                let eb = slots[*b].take().expect("operand b live");
                let mut levels: Vec<u32> = eliminate.iter().map(|&i| order.level(i)).collect();
                levels.sort_unstable();
                let set = m.intern_elim_set(levels);
                // One plan step = one weight scope, as in the scalar driver.
                m.begin_scope();
                let e = m.cont_rec(ea, eb, set, 0)?;
                slots[*result] = Some(e);
                e
            }
            PlanStep::SumOut {
                t,
                eliminate,
                result,
            } => {
                let et = slots[*t].take().expect("operand live");
                let mut levels: Vec<u32> = eliminate.iter().map(|&i| order.level(i)).collect();
                levels.sort_unstable();
                let set = m.intern_elim_set(levels);
                m.begin_scope();
                let e = m.cont_rec(et, LaneEdge::ONE, set, 0)?;
                slots[*result] = Some(e);
                e
            }
        };
        max_nodes = max_nodes.max(m.node_count(result));
    }

    let mut root = (0..slots.len())
        .rev()
        .find_map(|i| slots[i].take())
        .unwrap_or(LaneEdge::ONE);
    if plan.free_loops > 0 {
        // Fresh scope for the final scaling, as in the scalar driver.
        m.begin_scope();
        root = LaneEdge {
            node: root.node,
            weight: m.wscale_real(root.weight, (plan.free_loops as f64).exp2())?,
        };
    }
    assert_eq!(
        root.node, TERMINAL,
        "lane contraction expects a closed network"
    );
    let value = m.wvalue(root.weight);
    let scalars: [C64; L] = std::array::from_fn(|i| value.lane(i));
    Ok(LaneOutcome {
        scalars,
        max_nodes,
        steps: plan.steps.len(),
        stats: m.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contract_network, SharedTddStore, TddManager};
    use qaec_math::Matrix;
    use qaec_tensornet::{IndexId, Strategy, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A closed random network shape: a ring of 2x2 matrices, scaled per
    /// lane so lane values differ but structure does not.
    fn ring(n: usize, scale: f64, rng_seed: u64) -> TensorNetwork {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut net = TensorNetwork::new();
        for k in 0..n {
            let input = IndexId(k as u32);
            let output = IndexId(((k + 1) % n) as u32);
            let data: Vec<C64> = (0..4)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)) * scale)
                .collect();
            let m = Matrix::from_rows(&[vec![data[0], data[1]], vec![data[2], data[3]]]);
            net.add(Tensor::from_matrix(&m, &[output], &[input]));
        }
        net
    }

    fn scalar_reference(net: &TensorNetwork, plan: &ContractionPlan, order: &VarOrder) -> C64 {
        let store = SharedTddStore::new();
        let mut m = TddManager::new_shared_scoped(&store);
        let result = contract_network(&mut m, net, plan, order);
        m.edge_scalar(result.root).expect("closed network")
    }

    #[test]
    fn lane_batch_is_bitwise_identical_to_scalar_shared_store_runs() {
        const L: usize = 4;
        let n = 5;
        let order = VarOrder::from_sequence((0..n as u32).map(IndexId));
        // Same seed per lane → same structure; different scale → lane
        // weights differ everywhere (no accidental per-lane equality).
        let scales = [1.0, 0.875, 0.75, 0.625];
        let networks: Vec<TensorNetwork> = scales.iter().map(|&s| ring(n, s, 7)).collect();
        let plan = networks[0].plan(Strategy::MinFill);
        let outcome = contract_network_lanes::<L>(1e-10, &networks, &plan, &order, None)
            .expect("no divergence expected for distinct scales");
        for (i, net) in networks.iter().enumerate() {
            let reference = scalar_reference(net, &plan, &order);
            assert_eq!(
                outcome.scalars[i].re.to_bits(),
                reference.re.to_bits(),
                "lane {i} re"
            );
            assert_eq!(
                outcome.scalars[i].im.to_bits(),
                reference.im.to_bits(),
                "lane {i} im"
            );
        }
        assert!(outcome.max_nodes >= 1);
        assert_eq!(outcome.steps, plan.steps.len());
        assert!(outcome.stats.cont_calls > 0);
    }

    #[test]
    fn identical_lanes_reproduce_the_scalar_run() {
        const L: usize = 2;
        let n = 4;
        let order = VarOrder::from_sequence((0..n as u32).map(IndexId));
        let networks: Vec<TensorNetwork> = (0..L).map(|_| ring(n, 1.0, 11)).collect();
        let plan = networks[0].plan(Strategy::Sequential);
        let outcome =
            contract_network_lanes::<L>(1e-10, &networks, &plan, &order, None).expect("uniform");
        let reference = scalar_reference(&networks[0], &plan, &order);
        for lane in outcome.scalars {
            assert_eq!(lane.re.to_bits(), reference.re.to_bits());
            assert_eq!(lane.im.to_bits(), reference.im.to_bits());
        }
    }

    #[test]
    fn mixed_zero_lanes_diverge_instead_of_guessing() {
        const L: usize = 2;
        // Lane 0 carries a zero tensor, lane 1 a non-zero one: the very
        // first intern sees a mixed zero mask and must refuse.
        let mut zero_net = TensorNetwork::new();
        let mut one_net = TensorNetwork::new();
        let z = Matrix::from_rows(&[vec![C64::ZERO, C64::ZERO], vec![C64::ZERO, C64::ZERO]]);
        let o = Matrix::from_rows(&[vec![C64::ONE, C64::ZERO], vec![C64::ZERO, C64::ONE]]);
        zero_net.add(Tensor::from_matrix(&z, &[IndexId(0)], &[IndexId(1)]));
        one_net.add(Tensor::from_matrix(&o, &[IndexId(0)], &[IndexId(1)]));
        zero_net.close_index(IndexId(0));
        zero_net.close_index(IndexId(1));
        one_net.close_index(IndexId(0));
        one_net.close_index(IndexId(1));
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let plan = zero_net.plan(Strategy::Sequential);
        let result = contract_network_lanes::<L>(1e-10, &[zero_net, one_net], &plan, &order, None);
        assert!(
            matches!(result, Err(LaneError::Divergence(_))),
            "mixed zero/non-zero lanes must diverge, got {result:?}"
        );
    }

    #[test]
    fn expired_deadline_aborts_the_lane_contraction() {
        const L: usize = 2;
        let n = 6;
        let order = VarOrder::from_sequence((0..n as u32).map(IndexId));
        let networks: Vec<TensorNetwork> = [1.0, 0.5].iter().map(|&s| ring(n, s, 3)).collect();
        let plan = networks[0].plan(Strategy::MinFill);
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let result = contract_network_lanes::<L>(1e-10, &networks, &plan, &order, Some(expired));
        assert_eq!(result.unwrap_err(), LaneError::Timeout);
    }

    #[test]
    fn glue_matches_the_scoped_scalar_stored_values() {
        // Interning the same value sequence through a single-lane
        // manager and through a scoped shared-store manager must store
        // identical bits: zero box, fresh representatives, round-off
        // twins that glue to an earlier representative, the exact one,
        // and huge values (exact bits, no grid in the scoped family).
        let store = SharedTddStore::new();
        let mut scalar = TddManager::new_shared_scoped(&store);
        let mut lanes = LaneManager::<1>::with_tolerance(store.tolerance());
        let tol = store.tolerance();
        let sequence = [
            C64::new(5e-11, -5e-11),
            C64::new(0.25, -0.75),
            C64::new(0.25 + 0.4 * tol, -0.75 - 0.4 * tol), // glues to the rep above
            C64::new(1.0 + 1e-12, -1e-13),                 // a rep near one, not one
            C64::ONE,
            C64::new(3.5e12, -1.0),
            C64::new(-0.125, 0.5),
        ];
        for z in sequence {
            let scalar_id = scalar.intern_weight(z);
            let reference = scalar.weight_value(scalar_id);
            let lane_id = lanes.intern(LaneC64::splat(z)).expect("one lane");
            let stored = lanes.wvalue(lane_id);
            assert_eq!(stored.re[0].to_bits(), reference.re.to_bits(), "{z} re");
            assert_eq!(stored.im[0].to_bits(), reference.im.to_bits(), "{z} im");
            // Handle classes must match too: the scalar ZERO/ONE ids
            // are exactly the lane W_ZERO/W_ONE handles.
            assert_eq!(lane_id == W_ZERO, scalar_id == crate::WeightId::ZERO);
            assert_eq!(lane_id == W_ONE, scalar_id == crate::WeightId::ONE);
        }
        // A new scope forgets the representatives on both sides.
        scalar.begin_weight_scope();
        lanes.begin_scope();
        let z = C64::new(0.25 + 0.4 * tol, -0.75 - 0.4 * tol);
        let scalar_id = scalar.intern_weight(z);
        let reference = scalar.weight_value(scalar_id);
        let lane_id = lanes.intern(LaneC64::splat(z)).expect("one lane");
        let stored = lanes.wvalue(lane_id);
        assert_eq!(stored.re[0].to_bits(), reference.re.to_bits());
        assert_eq!(reference.re, z.re, "fresh scope: the twin is its own rep");
    }

    #[test]
    fn mixed_exact_one_lanes_diverge_on_arithmetic() {
        let mut m = LaneManager::<2>::with_tolerance(1e-10);
        let mut mixed = LaneC64::ZERO;
        mixed.re = [1.0, 0.5];
        mixed.im = [0.0, 0.0];
        let w = m.intern(mixed).expect("mixed exact-one lanes intern fine");
        assert!(m.mixed_exact_one(w));
        let mut other = LaneC64::ZERO;
        other.re = [0.25, 0.75];
        other.im = [0.125, -0.5];
        let o = m.intern(other).expect("plain weight");
        assert!(
            m.wmul(w, o).is_err(),
            "multiplying a mixed exact-one weight must diverge"
        );
        assert!(
            m.wdiv(o, w).is_err(),
            "dividing by a mixed exact-one weight must diverge"
        );
        // Dividing *by* a plain weight with a mixed-one numerator is
        // fine — the scalar wdiv has no a.is_one() shortcut.
        assert!(m.wdiv(w, o).is_ok());
    }

    #[test]
    fn bitwise_equal_lane_weights_under_distinct_handles_diverge_on_division() {
        let mut m = LaneManager::<2>::with_tolerance(1e-10);
        let mut a = LaneC64::ZERO;
        a.re = [0.25, 0.5];
        a.im = [0.0, 0.0];
        let wa = m.intern(a).expect("weight a");
        let mut b = LaneC64::ZERO;
        b.re = [0.25, 0.75];
        b.im = [0.0, 0.0];
        let wb = m.intern(b).expect("weight b");
        assert_ne!(wa, wb);
        assert!(
            m.wdiv(wa, wb).is_err(),
            "lane 0 divides bit-equal values (scalar takes x/x ⇒ ONE) — must diverge"
        );
    }
}
