//! The work-stealing ε-aware parallel term engine.
//!
//! Algorithm I and the Monte-Carlo estimator both reduce to "contract
//! many instantiations of one miter template". This module runs those
//! contractions on a pool of workers that *pull* work from a shared
//! source instead of being handed fixed chunks, so that:
//!
//! * ε-decisions compose with `threads > 1`: every worker folds its
//!   terms into a shared ordered reducer and broadcasts a stop signal
//!   the moment either bound resolves, in either term order;
//! * `max_terms`, `deadline` and `term_order` behave identically in
//!   sequential and parallel runs;
//! * slow terms don't stall the run: a worker that finishes its batch
//!   steals the next one from the shared enumerator, so load balances
//!   even when term costs vary by orders of magnitude;
//! * all workers hash-cons nodes and intern weights into one TDD store
//!   ([`SharedTddStore`], sized to the worker count), recovering
//!   cross-thread structure sharing; each worker keeps only its
//!   computed tables thread-local.
//!
//! ## Interning and exactness
//!
//! A multi-worker run interns weights on the store's canonical grid, so
//! a term's value does not depend on which worker computed which
//! earlier term, and computed-table entries can be seeded from one
//! worker to another. A one-worker run needs neither: its manager glues
//! weights in one scope for the whole run, seeded with exact 0 and 1
//! ([`TddManager::new_run_scoped`]), so its values carry no grid
//! rounding. The two agree to about 1e-10; a verdict whose margin is
//! below that can differ between `threads = 1` and `threads > 1`.
//!
//! ## Bit-identical parallel results
//!
//! Two mechanisms make every multi-worker run reproduce the same result
//! *bit for bit*, whatever the thread count or scheduling:
//!
//! 1. The store's canonical weight interning makes every term's value a
//!    pure function of the term alone (see [`qaec_tdd::store`]).
//! 2. The ordered reducer folds completed terms strictly in enumeration
//!    order: workers deposit `(sequence, value, mass)` and the reducer
//!    advances a gapless frontier, so partial sums — and therefore the
//!    ε-decision point, the verdict, the reported bounds and the
//!    reported term count — are those of the sequential prefix. Terms
//!    completed beyond the frontier when a decision lands are simply
//!    discarded from the report (work wasted, semantics unchanged).
//!
//! A one-worker run follows the same decision semantics and is
//! bit-reproducible on its own.

use crate::error::QaecError;
use crate::miter::{build_trace_network, Alg1Template, BuiltNetwork};
use crate::options::{CheckOptions, TermOrder};
use crate::report::Verdict;
use qaec_tdd::fxhash::FxHashMap;
use qaec_tdd::{
    contract_network_opts, run_on_workers, ContCacheKey, DriverOptions, Edge, SharedTddStore,
    TddManager, TddStats,
};
use qaec_tensornet::{ContractionPlan, VarOrder};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use qaec_tdd::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use qaec_tdd::sync::Mutex;
use std::time::Instant;

/// Everything the workers need to instantiate and contract one term.
pub(crate) struct TermEngine<'a> {
    /// The miter with substitutable noise sites.
    pub template: &'a Alg1Template,
    /// Wire remapping from SWAP elimination.
    pub final_map: &'a [usize],
    /// Contraction plan shared by every instantiation.
    pub plan: &'a ContractionPlan,
    /// Decision-diagram variable order shared by every instantiation.
    pub order: &'a VarOrder,
    /// Checker options (threads, tables, deadline).
    pub options: &'a CheckOptions,
    /// `d²` normalisation for `|tr(U†Eᵢ)|²`.
    pub d2: f64,
    /// A warm store to reuse instead of allocating a fresh one
    /// (compile-once sessions sweeping many queries over one store).
    /// Per-run statistics are epoch-fenced so each run reports its own
    /// delta.
    pub warm_store: Option<&'a Arc<SharedTddStore>>,
}

/// What an ε-aware engine run produced.
pub(crate) struct EngineOutcome {
    /// Sum of folded terms (proven fidelity lower bound).
    pub lower: f64,
    /// Outstanding Kraus mass (upper bound = `lower + remaining`).
    pub remaining: f64,
    /// Terms folded into the bounds (the gapless frontier; for decided
    /// runs, frozen at the decision point).
    pub terms_computed: usize,
    /// Largest intermediate diagram across all workers.
    pub max_nodes: usize,
    /// Early ε-decision, if one was reached.
    pub verdict: Option<Verdict>,
    /// Decision-diagram statistics: every worker's local counters plus
    /// the shared store's allocation counters (merged exactly once).
    pub stats: TddStats,
}

/// What a fixed-job engine run produced (Monte-Carlo path).
pub(crate) struct FixedOutcome {
    /// Per-job term values `|tr(U†E_choice)|²/d²`, in job order.
    pub terms: Vec<f64>,
    /// Largest intermediate diagram across all workers.
    pub max_nodes: usize,
    /// Merged decision-diagram statistics (workers + shared store).
    pub stats: TddStats,
}

/// One fixed-mode worker's haul: `(job index, term value)` pairs, its
/// largest intermediate diagram, and its manager statistics.
type FixedWorkerHaul = (Vec<(usize, f64)>, usize, TddStats);

/// The mutex-guarded work source: the enumerator plus the count of terms
/// already handed out, so `max_terms` caps *pulled* work exactly. Each
/// pulled term carries its sequence number — the fold position the
/// [`Reducer`] will give it, identical in every scheduling.
struct TermQueue {
    enumerator: TermEnumerator,
    pulled: usize,
    cap: Option<usize>,
}

impl TermQueue {
    /// Pulls up to `max` terms into `out` (cleared first). An empty
    /// result means the source is exhausted or capped.
    fn pull(&mut self, max: usize, out: &mut Vec<(usize, Vec<usize>, f64)>) {
        out.clear();
        while out.len() < max {
            if self.cap.is_some_and(|cap| self.pulled >= cap) {
                return;
            }
            match self.enumerator.next_term() {
                Some((choice, mass)) => {
                    out.push((self.pulled, choice, mass));
                    self.pulled += 1;
                }
                None => return,
            }
        }
    }
}

/// The ε-decision at the moment the frontier crossed a threshold, frozen
/// so late-arriving terms cannot perturb the reported result.
#[derive(Clone, Copy, Debug)]
struct Decision {
    verdict: Verdict,
    lower: f64,
    remaining: f64,
    terms: usize,
}

/// Order-restoring accumulator: terms arrive in completion order (any
/// scheduling) and are folded in enumeration order, so the partial sums
/// — and any ε-decision taken on them — are exactly those of the
/// sequential run.
struct Reducer {
    epsilon: Option<f64>,
    /// Completed terms waiting for the frontier: `seq → (value, mass)`.
    /// Bounded by [`PENDING_LIMIT`] plus one in-flight batch per worker
    /// — workers stop pulling new batches while the frontier lags (see
    /// `TermEngine::epsilon_worker`), so one slow term cannot make the
    /// rest of the pool buffer the whole enumeration here.
    pending: HashMap<usize, (f64, f64)>,
    /// Number of terms folded so far (= next sequence to fold).
    folded: usize,
    lower: f64,
    mass_done: f64,
    decision: Option<Decision>,
}

/// Backpressure threshold on [`Reducer::pending`]: workers pause ahead
/// of a stalled frontier once this many completed terms are buffered.
/// Generous enough that ordinary cost skew never trips it (a few MB at
/// worst), small enough that a pathological straggler cannot turn the
/// buffer into the whole term set.
const PENDING_LIMIT: usize = 4096;

impl Reducer {
    fn new(epsilon: Option<f64>) -> Self {
        Reducer {
            epsilon,
            pending: HashMap::new(),
            folded: 0,
            lower: 0.0,
            mass_done: 0.0,
            decision: None,
        }
    }

    /// Outstanding Kraus mass given the folded prefix (CPTP: site masses
    /// sum to 1, so the unfolded terms hold exactly the complement).
    fn remaining(&self) -> f64 {
        (1.0 - self.mass_done).max(0.0)
    }

    /// Deposits one completed term and advances the gapless frontier.
    /// Returns `true` once an ε-decision exists (callers then stop).
    fn submit(&mut self, seq: usize, value: f64, mass: f64) -> bool {
        self.pending.insert(seq, (value, mass));
        while self.decision.is_none() {
            let Some((value, mass)) = self.pending.remove(&self.folded) else {
                break;
            };
            self.folded += 1;
            self.lower += value;
            self.mass_done += mass;
            if let Some(eps) = self.epsilon {
                let remaining = self.remaining();
                // The one boundary-pinning comparison (`Verdict::decide`)
                // applied to both proven bounds: accept when even the
                // lower bound clears 1 − ε, reject when even the upper
                // bound fails it.
                if let Some(verdict) =
                    Verdict::decide_bounds(self.lower, self.lower + remaining, eps)
                {
                    self.decision = Some(Decision {
                        verdict,
                        lower: self.lower,
                        remaining,
                        terms: self.folded,
                    });
                }
            }
        }
        self.decision.is_some()
    }
}

/// The heaviest completed term's contraction-cache snapshot, shipped to
/// workers that pull a new batch on shared-store runs.
struct SeedSlot {
    /// Mass of the term whose cache is stored (`-∞` until first publish).
    mass: f64,
    entries: Arc<FxHashMap<ContCacheKey, Edge>>,
}

/// Cross-worker shared state for an ε-aware run.
struct SharedState {
    queue: Mutex<TermQueue>,
    reducer: Mutex<Reducer>,
    stop: AtomicBool,
    /// `Some` only for multi-worker runs: seeding needs canonical
    /// interning, and one worker has nobody to import from.
    seed: Option<Mutex<SeedSlot>>,
}

/// A worker's private contraction context: its thread-local manager (or
/// a fresh one per term when table reuse is off), the store it attaches
/// managers to, and its local maxima.
struct WorkerCtx<'a> {
    engine: &'a TermEngine<'a>,
    store: Arc<SharedTddStore>,
    /// This worker's id on the store — registered once per logical
    /// worker, so fresh per-term managers (table reuse off) don't
    /// misattribute hits on their own earlier nodes as cross-thread
    /// sharing.
    worker: u32,
    /// Whether other workers run alongside (canonical interning) or
    /// this is the run's only worker (run-long scoped interning).
    canonical: bool,
    manager: Option<TddManager>,
    max_nodes: usize,
    stats: TddStats,
}

impl<'a> WorkerCtx<'a> {
    fn new(engine: &'a TermEngine<'a>, store: Arc<SharedTddStore>, canonical: bool) -> Self {
        let worker = store.register_worker();
        let manager = engine
            .options
            .reuse_tables
            .then(|| new_manager(&store, worker, canonical));
        WorkerCtx {
            engine,
            store,
            worker,
            canonical,
            manager,
            max_nodes: 0,
            stats: TddStats::default(),
        }
    }

    /// Contracts one Kraus selection, returning `|tr(U†E_choice)|²/d²`.
    fn contract(&mut self, choice: &[usize]) -> Result<f64, QaecError> {
        let built = self.engine.build_network(choice);
        let mut fresh = None;
        let manager = match self.manager.as_mut() {
            Some(m) => m,
            None => fresh.insert(new_manager(&self.store, self.worker, self.canonical)),
        };
        let result = contract_network_opts(
            manager,
            &built.network,
            self.engine.plan,
            self.engine.order,
            DriverOptions {
                deadline: self.engine.options.deadline,
            },
        )
        .map_err(|_| QaecError::Timeout)?;
        let trace = manager.edge_scalar(result.root).expect("closed network");
        self.max_nodes = self.max_nodes.max(result.max_nodes);
        if let Some(fresh) = fresh {
            self.stats.merge(&fresh.stats());
        }
        Ok(trace.norm_sqr() / self.engine.d2)
    }

    /// The worker's merged stats after its last term.
    fn into_stats(self) -> (usize, TddStats) {
        let mut stats = self.stats;
        if let Some(m) = &self.manager {
            stats.merge(&m.stats());
        }
        (self.max_nodes, stats)
    }
}

/// A manager on the run's store under the worker's stable id: canonical
/// interning when several workers run, one run-long weight scope when
/// this is the only worker.
fn new_manager(store: &Arc<SharedTddStore>, worker: u32, canonical: bool) -> TddManager {
    if canonical {
        TddManager::new_shared_with_id(store, worker)
    } else {
        TddManager::new_run_scoped(store, worker)
    }
}

impl TermEngine<'_> {
    fn build_network(&self, choice: &[usize]) -> BuiltNetwork {
        let elements = self.template.instantiate(choice);
        build_trace_network(
            &elements,
            self.template.n_wires,
            self.final_map,
            self.options.var_order,
        )
    }

    fn deadline_expired(&self) -> bool {
        self.options.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn worker_count(&self, jobs: usize) -> usize {
        self.options.threads.max(1).min(jobs.max(1))
    }

    /// The run's store: the session's warm store when one was supplied
    /// (value-transparent — both interning families make reuse
    /// bit-identical to a fresh store), else a fresh one sized to the
    /// worker count.
    fn store(&self, workers: usize) -> Arc<SharedTddStore> {
        match self.warm_store {
            Some(store) => Arc::clone(store),
            None => SharedTddStore::for_workers(workers),
        }
    }

    /// Runs the full ε-aware accumulation over every Kraus selection of
    /// the template (`options.term_order`, `options.max_terms`,
    /// `options.deadline` and `options.threads` all respected).
    ///
    /// Bounds, verdicts and term counts always follow sequential-prefix
    /// semantics (see the module docs); across multi-worker counts they
    /// are additionally bit-identical.
    pub(crate) fn run(
        &self,
        epsilon: Option<f64>,
        total_terms: usize,
    ) -> Result<EngineOutcome, QaecError> {
        let workers = self.worker_count(total_terms);
        // One decision per run: several workers intern canonically and
        // seed each other's caches; a lone worker does neither.
        let canonical = workers > 1;
        let store = self.store(workers);
        // Statistics fence: on a warm (session-reused) store this run
        // reports only its own allocation delta; on a fresh store the
        // epoch is zero and the delta equals the totals.
        let epoch = store.reset_between_runs();
        // Small batches keep the stop signal responsive during ε runs;
        // exact runs amortise queue locking with larger ones.
        let batch_size = if epsilon.is_some() {
            1
        } else {
            (total_terms / (workers * 4)).clamp(1, 32)
        };
        let shared = SharedState {
            queue: Mutex::new(TermQueue {
                enumerator: TermEnumerator::new(self.template, self.options.term_order),
                pulled: 0,
                cap: self.options.max_terms,
            }),
            reducer: Mutex::new(Reducer::new(epsilon)),
            stop: AtomicBool::new(false),
            seed: canonical.then(|| {
                Mutex::new(SeedSlot {
                    mass: f64::NEG_INFINITY,
                    entries: Arc::new(FxHashMap::default()),
                })
            }),
        };

        let folded = run_on_workers(workers, |_| {
            self.epsilon_worker(&shared, &store, canonical, batch_size)
        });

        let reducer = shared
            .reducer
            .into_inner()
            .expect("engine reducer poisoned");
        let mut max_nodes = 0usize;
        let mut stats = TddStats::default();
        let mut error = None;
        for outcome in folded {
            match outcome {
                Ok((nodes, worker_stats)) => {
                    max_nodes = max_nodes.max(nodes);
                    stats.merge(&worker_stats);
                }
                Err(e) => error = Some(e),
            }
        }
        // Allocation counters are store-owned: merged exactly once here,
        // never per worker (see `SharedTddStore::stats`), and fenced to
        // this run's epoch.
        stats.merge(&store.stats_since(epoch));
        // A decided verdict outranks a racing deadline in another worker
        // (the sequential loop likewise checks the bounds first).
        if reducer.decision.is_none() {
            if let Some(e) = error {
                return Err(e);
            }
        }

        let (lower, remaining, terms_computed, verdict) = match reducer.decision {
            Some(d) => (d.lower, d.remaining, d.terms, Some(d.verdict)),
            None => {
                let remaining = if reducer.folded == total_terms {
                    0.0
                } else {
                    reducer.remaining()
                };
                (reducer.lower, remaining, reducer.folded, None)
            }
        };
        Ok(EngineOutcome {
            lower,
            remaining,
            terms_computed,
            max_nodes,
            verdict,
            stats,
        })
    }

    /// One worker of [`TermEngine::run`]: steal a batch, contract it,
    /// fold into the shared reducer, stop on the ε-decision.
    fn epsilon_worker(
        &self,
        shared: &SharedState,
        store: &Arc<SharedTddStore>,
        canonical: bool,
        batch_size: usize,
    ) -> Result<(usize, TddStats), QaecError> {
        let mut ctx = WorkerCtx::new(self, Arc::clone(store), canonical);
        let mut batch = Vec::with_capacity(batch_size);
        let mut imported_mass = f64::NEG_INFINITY;
        'steal: loop {
            // ordering: SeqCst — stop is a control-flow flag only (result
            // data travels through the reducer mutex); SeqCst everywhere
            // keeps the flag's reads/writes in one total order at
            // negligible cost off the per-node hot path.
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Backpressure: don't race arbitrarily far past a stalled
            // frontier — the worker contracting the frontier term is
            // never the one waiting here, so this cannot deadlock.
            while shared
                .reducer
                .lock()
                .expect("engine reducer poisoned")
                .pending
                .len()
                >= PENDING_LIMIT
            {
                // ordering: SeqCst — control-flow flag (see loop head).
                if shared.stop.load(Ordering::SeqCst) {
                    break 'steal;
                }
                std::thread::yield_now();
            }
            shared
                .queue
                .lock()
                .expect("engine queue poisoned")
                .pull(batch_size, &mut batch);
            if batch.is_empty() {
                break;
            }
            // Seed this batch from the heaviest completed term's cache,
            // if a heavier snapshot appeared since the last import.
            if let Some(slot) = &shared.seed {
                let snapshot = {
                    let slot = slot.lock().expect("seed slot poisoned");
                    (slot.mass > imported_mass && !slot.entries.is_empty()).then(|| {
                        imported_mass = slot.mass;
                        Arc::clone(&slot.entries)
                    })
                };
                if let (Some(entries), Some(m)) = (snapshot, ctx.manager.as_mut()) {
                    m.seed_cont_cache(&entries);
                }
            }
            for (seq, choice, mass) in batch.drain(..) {
                // ordering: SeqCst — control-flow flag (see loop head).
                if shared.stop.load(Ordering::SeqCst) {
                    break 'steal;
                }
                if self.deadline_expired() {
                    // ordering: SeqCst — control-flow flag (see loop head).
                    shared.stop.store(true, Ordering::SeqCst);
                    return Err(QaecError::Timeout);
                }
                let term = match ctx.contract(&choice) {
                    Ok(term) => term,
                    Err(e) => {
                        // A timeout *inside* a contraction must also stop
                        // the siblings, not just the pre-term check above.
                        // ordering: SeqCst — control-flow flag (loop head).
                        shared.stop.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                };
                // Publish the worker's accumulated cache when this term
                // is the heaviest so far. The O(cache) clone happens
                // *outside* the slot lock (every worker takes it per
                // batch), with a re-check before installing in case a
                // heavier term won the race meanwhile.
                if let (Some(slot), Some(m)) = (&shared.seed, ctx.manager.as_ref()) {
                    let heaviest = mass > slot.lock().expect("seed slot poisoned").mass;
                    if heaviest {
                        let entries = Arc::new(m.snapshot_cont_cache());
                        let mut slot = slot.lock().expect("seed slot poisoned");
                        if mass > slot.mass {
                            slot.mass = mass;
                            slot.entries = entries;
                        }
                    }
                }
                let decided = shared
                    .reducer
                    .lock()
                    .expect("engine reducer poisoned")
                    .submit(seq, term, mass);
                if decided {
                    // ordering: SeqCst — control-flow flag (loop head);
                    // the decision itself came out of the reducer mutex.
                    shared.stop.store(true, Ordering::SeqCst);
                    break 'steal;
                }
            }
        }
        Ok(ctx.into_stats())
    }

    /// Contracts a fixed list of Kraus selections (work-stolen in batches
    /// off a shared cursor), returning each term value in job order. Used
    /// by the Monte-Carlo estimator for parallel trajectory evaluation.
    pub(crate) fn run_fixed(&self, jobs: &[Vec<usize>]) -> Result<FixedOutcome, QaecError> {
        let workers = self.worker_count(jobs.len());
        let canonical = workers > 1;
        let store = self.store(workers);
        let epoch = store.reset_between_runs();
        let batch_size = (jobs.len() / (workers * 4)).clamp(1, 32);
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);

        let fold_worker = || -> Result<FixedWorkerHaul, QaecError> {
            let mut ctx = WorkerCtx::new(self, Arc::clone(&store), canonical);
            let mut values = Vec::new();
            loop {
                // ordering: SeqCst — control-flow stop flag, as in
                // `epsilon_worker`; term values travel through each
                // worker's local vec and the join, not this flag.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // ordering: SeqCst — the RMW's atomicity alone partitions
                // the job range; SeqCst (over Relaxed) keeps every engine
                // control atomic in one total order for free off the hot
                // path.
                let lo = cursor.fetch_add(batch_size, Ordering::SeqCst);
                if lo >= jobs.len() {
                    break;
                }
                let hi = (lo + batch_size).min(jobs.len());
                for (index, choice) in jobs.iter().enumerate().take(hi).skip(lo) {
                    if self.deadline_expired() {
                        // ordering: SeqCst — control-flow flag (loop head).
                        stop.store(true, Ordering::SeqCst);
                        return Err(QaecError::Timeout);
                    }
                    match ctx.contract(choice) {
                        Ok(term) => values.push((index, term)),
                        Err(e) => {
                            // ordering: SeqCst — control-flow flag (above).
                            stop.store(true, Ordering::SeqCst);
                            return Err(e);
                        }
                    }
                }
            }
            let (nodes, stats) = ctx.into_stats();
            Ok((values, nodes, stats))
        };

        let folded = run_on_workers(workers, |_| fold_worker());

        let mut terms = vec![0.0f64; jobs.len()];
        let mut max_nodes = 0usize;
        let mut stats = TddStats::default();
        for outcome in folded {
            let (values, nodes, worker_stats) = outcome?;
            for (index, value) in values {
                terms[index] = value;
            }
            max_nodes = max_nodes.max(nodes);
            stats.merge(&worker_stats);
        }
        stats.merge(&store.stats_since(epoch));
        Ok(FixedOutcome {
            terms,
            max_nodes,
            stats,
        })
    }
}

/// Mixed-radix / best-first enumeration of Kraus selections with their
/// probability masses.
pub(crate) struct TermEnumerator {
    counts: Vec<usize>,
    /// Per site, masses sorted descending (positions, not raw indices).
    masses: Vec<Vec<f64>>,
    /// Per site, sorted position → raw Kraus index.
    sorted_maps: Vec<Vec<usize>>,
    mode: TermOrder,
    // Lexicographic state.
    next_lex: Option<Vec<usize>>,
    // Best-first state.
    heap: BinaryHeap<HeapTerm>,
    seen: HashSet<Vec<usize>>,
}

struct HeapTerm {
    mass: f64,
    choice: Vec<usize>,
}

impl PartialEq for HeapTerm {
    fn eq(&self, other: &Self) -> bool {
        self.mass == other.mass && self.choice == other.choice
    }
}
impl Eq for HeapTerm {}
impl PartialOrd for HeapTerm {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTerm {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mass
            .total_cmp(&other.mass)
            .then_with(|| other.choice.cmp(&self.choice))
    }
}

impl TermEnumerator {
    pub(crate) fn new(template: &Alg1Template, mode: TermOrder) -> Self {
        let counts: Vec<usize> = template.sites.iter().map(|s| s.kraus.len()).collect();
        // Per site: Kraus indices sorted by descending mass, so the
        // all-zero choice over *sorted positions* is the heaviest term.
        let sorted_indices: Vec<Vec<usize>> = template
            .sites
            .iter()
            .map(|s| {
                let mut idx: Vec<usize> = (0..s.masses.len()).collect();
                idx.sort_by(|&a, &b| s.masses[b].total_cmp(&s.masses[a]));
                idx
            })
            .collect();
        let masses: Vec<Vec<f64>> = template
            .sites
            .iter()
            .zip(&sorted_indices)
            .map(|(s, idx)| idx.iter().map(|&i| s.masses[i]).collect())
            .collect();
        let root = vec![0usize; counts.len()];
        let mut e = TermEnumerator {
            counts,
            masses,
            sorted_maps: sorted_indices,
            mode,
            next_lex: Some(root.clone()),
            heap: BinaryHeap::new(),
            seen: HashSet::new(),
        };
        if mode == TermOrder::BestFirst {
            e.heap.push(HeapTerm {
                mass: e.mass_of(&root),
                choice: root.clone(),
            });
            e.seen.insert(root);
        }
        e
    }

    fn mass_of(&self, positions: &[usize]) -> f64 {
        positions
            .iter()
            .enumerate()
            .map(|(site, &p)| self.masses[site][p])
            .product()
    }

    /// Yields `(raw Kraus choice, mass)` or `None` when exhausted.
    pub(crate) fn next_term(&mut self) -> Option<(Vec<usize>, f64)> {
        match self.mode {
            TermOrder::Lexicographic => {
                let current = self.next_lex.take()?;
                // Advance the mixed-radix counter.
                let mut next = current.clone();
                let mut carry = true;
                for (digit, &radix) in next.iter_mut().zip(&self.counts) {
                    if carry {
                        *digit += 1;
                        if *digit == radix {
                            *digit = 0;
                        } else {
                            carry = false;
                        }
                    }
                }
                if !carry && !next.is_empty() {
                    self.next_lex = Some(next);
                }
                let mass = self.mass_of(&current);
                let raw = self.to_raw(&current);
                Some((raw, mass))
            }
            TermOrder::BestFirst => {
                let top = self.heap.pop()?;
                for site in 0..self.counts.len() {
                    if top.choice[site] + 1 < self.counts[site] {
                        let mut succ = top.choice.clone();
                        succ[site] += 1;
                        if self.seen.insert(succ.clone()) {
                            self.heap.push(HeapTerm {
                                mass: self.mass_of(&succ),
                                choice: succ,
                            });
                        }
                    }
                }
                let raw = self.to_raw(&top.choice);
                Some((raw, top.mass))
            }
        }
    }

    fn to_raw(&self, positions: &[usize]) -> Vec<usize> {
        positions
            .iter()
            .enumerate()
            .map(|(site, &p)| self.sorted_maps[site][p])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miter::identity_map;
    use qaec_circuit::generators::{qft, QftStyle};
    use qaec_circuit::noise_insertion::insert_random_noise;
    use qaec_circuit::{Circuit, NoiseChannel};
    use std::collections::HashSet;

    fn template_with(channels: &[NoiseChannel]) -> Alg1Template {
        let mut noisy = Circuit::new(1);
        for ch in channels {
            noisy.noise(ch.clone(), &[0]);
        }
        Alg1Template::build(&Circuit::new(1), &noisy)
    }

    #[test]
    fn lexicographic_covers_every_selection_once() {
        let template = template_with(&[
            NoiseChannel::Depolarizing { p: 0.9 },
            NoiseChannel::BitFlip { p: 0.8 },
        ]);
        let mut e = TermEnumerator::new(&template, TermOrder::Lexicographic);
        let mut seen = HashSet::new();
        let mut total_mass = 0.0;
        while let Some((choice, mass)) = e.next_term() {
            assert!(seen.insert(choice.clone()), "duplicate {choice:?}");
            assert!(choice[0] < 4 && choice[1] < 2);
            total_mass += mass;
        }
        assert_eq!(seen.len(), 8);
        assert!((total_mass - 1.0).abs() < 1e-12, "masses must sum to 1");
    }

    #[test]
    fn best_first_is_non_increasing_and_complete() {
        let template = template_with(&[
            NoiseChannel::Depolarizing { p: 0.7 },
            NoiseChannel::Pauli {
                pi: 0.6,
                px: 0.25,
                py: 0.1,
                pz: 0.05,
            },
        ]);
        let mut e = TermEnumerator::new(&template, TermOrder::BestFirst);
        let mut seen = HashSet::new();
        let mut last = f64::INFINITY;
        while let Some((choice, mass)) = e.next_term() {
            assert!(mass <= last + 1e-12, "mass not descending: {mass} > {last}");
            last = mass;
            assert!(seen.insert(choice));
        }
        assert_eq!(seen.len(), 16);
        // The first term must be the heaviest: 0.7 · 0.6.
        let mut e = TermEnumerator::new(&template, TermOrder::BestFirst);
        let (_, first_mass) = e.next_term().expect("non-empty");
        assert!((first_mass - 0.42).abs() < 1e-12);
    }

    #[test]
    fn best_first_maps_back_to_raw_indices() {
        // Amplitude damping masses are not sorted by Kraus index for
        // large gamma: K1 (decay) can outweigh K0.
        let template = template_with(&[NoiseChannel::AmplitudeDamping { gamma: 0.9 }]);
        let mut e = TermEnumerator::new(&template, TermOrder::BestFirst);
        let (first, first_mass) = e.next_term().expect("some");
        // masses: K0 = (1 + (1−γ))/2 = 0.55, K1 = γ/2 = 0.45 → K0 first.
        assert_eq!(first, vec![0]);
        assert!((first_mass - 0.55).abs() < 1e-12);
        let (second, second_mass) = e.next_term().expect("some");
        assert_eq!(second, vec![1]);
        assert!((second_mass - 0.45).abs() < 1e-12);
    }

    #[test]
    fn zero_sites_yield_single_unit_term() {
        let template = template_with(&[]);
        for order in [TermOrder::Lexicographic, TermOrder::BestFirst] {
            let mut e = TermEnumerator::new(&template, order);
            let (choice, mass) = e.next_term().expect("one term");
            assert!(choice.is_empty());
            assert!((mass - 1.0).abs() < 1e-12);
            assert!(e.next_term().is_none(), "{order:?} must be exhausted");
        }
    }

    #[test]
    fn term_queue_respects_cap_across_pulls() {
        let template = template_with(&[NoiseChannel::Depolarizing { p: 0.9 }]);
        let mut queue = TermQueue {
            enumerator: TermEnumerator::new(&template, TermOrder::Lexicographic),
            pulled: 0,
            cap: Some(3),
        };
        let mut out = Vec::new();
        queue.pull(2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, out[1].0), (0, 1), "sequence numbers are dense");
        queue.pull(2, &mut out);
        assert_eq!(out.len(), 1, "cap must stop the third pull at one term");
        assert_eq!(out[0].0, 2);
        queue.pull(2, &mut out);
        assert!(out.is_empty());
    }

    /// With table reuse off a fresh manager is created per term; all of
    /// one worker's managers must share one store identity, so hits on
    /// nodes that the same worker built during *earlier terms* are not
    /// counted as cross-thread sharing. One worker ⇒ zero cross-thread
    /// hits, exactly.
    #[test]
    fn fresh_per_term_managers_keep_one_worker_identity() {
        let ideal = qft(3, QftStyle::DecomposedNoSwaps);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 2, 9);
        let template = Alg1Template::build(&ideal, &noisy);
        let final_map = identity_map(template.n_wires);
        let options = CheckOptions {
            reuse_tables: false,
            ..CheckOptions::default()
        };
        let first = build_trace_network(
            &template.instantiate(&vec![0; template.sites.len()]),
            template.n_wires,
            &final_map,
            options.var_order,
        );
        let plan = first.network.plan(options.strategy);
        let engine = TermEngine {
            template: &template,
            final_map: &final_map,
            plan: &plan,
            order: &first.order,
            options: &options,
            d2: 64.0,
            warm_store: None,
        };
        let store = SharedTddStore::for_workers(1);
        let mut ctx = WorkerCtx::new(&engine, Arc::clone(&store), false);
        let mut terms = TermEnumerator::new(&template, TermOrder::Lexicographic);
        while let Some((choice, _)) = terms.next_term() {
            ctx.contract(&choice).expect("term");
        }
        let stats = store.stats();
        assert!(
            stats.unique_hits > 0,
            "16 structurally-identical terms must hit the unique table"
        );
        assert_eq!(
            stats.cross_unique_hits, 0,
            "a single worker can never hit across threads"
        );
    }

    #[test]
    fn reducer_folds_out_of_order_terms_in_sequence_order() {
        let mut r = Reducer::new(None);
        // Terms 1 and 2 land before 0: nothing folds until the gap fills.
        assert!(!r.submit(1, 0.25, 0.3));
        assert!(!r.submit(2, 0.125, 0.2));
        assert_eq!(r.folded, 0);
        assert!(!r.submit(0, 0.5, 0.5));
        assert_eq!(r.folded, 3);
        assert!((r.lower - 0.875).abs() < 1e-15);
        assert!((r.remaining() - 0.0).abs() < 1e-12);
        assert!(r.pending.is_empty());
    }

    #[test]
    fn reducer_decides_at_the_sequential_prefix_point() {
        // ε = 0.2: the decision must land exactly when the *prefix* sum
        // crosses 0.8, no matter that a later term arrived first.
        let mut r = Reducer::new(Some(0.2));
        assert!(!r.submit(2, 0.05, 0.06), "gap: nothing folds, no decision");
        assert!(!r.submit(0, 0.5, 0.52));
        let decided = r.submit(1, 0.35, 0.36);
        assert!(decided);
        let d = r.decision.expect("decision");
        assert_eq!(d.verdict, Verdict::Equivalent);
        assert_eq!(d.terms, 2, "term 2 is beyond the deciding prefix");
        assert!((d.lower - 0.85).abs() < 1e-15);
        // The frozen snapshot ignores the already-submitted term 2.
        assert!((d.remaining - (1.0 - 0.52 - 0.36)).abs() < 1e-12);
    }

    #[test]
    fn reducer_rejects_when_upper_bound_collapses() {
        let mut r = Reducer::new(Some(0.05));
        // One heavy term with almost no fidelity: upper bound crashes.
        assert!(r.submit(0, 0.01, 0.9));
        let d = r.decision.expect("decision");
        assert_eq!(d.verdict, Verdict::NotEquivalent);
        assert_eq!(d.terms, 1);
    }
}
