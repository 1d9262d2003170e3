//! Deterministic model checks (`--cfg qaec_model`) for the three
//! cross-thread publication protocols the node store relies on.
//!
//! Each test re-states a production protocol in the minimal shape the
//! `modelcheck` scheduler can explore exhaustively: the protocol's
//! atomics keep their production orderings, and the data they publish is
//! a [`RaceCell`] — a plain cell that aborts the run if an access is not
//! ordered by happens-before. A missing `Release`/`Acquire` pair in the
//! protocol therefore fails the test (see the canary at the bottom,
//! which proves the harness detects exactly that).
//!
//! Protocols 1 and 2 also run in their one-stripe shape: a one-worker
//! store has a single stripe, and two managers can still meet on it (a
//! service may run two queries at once on a one-worker session), so
//! every insertion then shares one push lock, one arena shard and one
//! probe table.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg qaec_model" cargo test -p qaec-tdd model_
//! ```

use modelcheck::cell::RaceCell;
use modelcheck::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use modelcheck::sync::Mutex;
use modelcheck::{model_result, model_with_config, thread, Config};
use std::sync::Arc;

/// Protocol 1 — probe-table publish/lookup
/// ([`crate::store::SharedTddStore::unique_node`]).
///
/// The publisher fills the arena slot, then `Release`-stores a non-zero
/// generation tag into the probe word. A reader that `Acquire`-loads a
/// non-zero tag must see the completed arena write.
#[test]
fn model_probe_publish_lookup() {
    let stats = model_result(|| {
        let probe = Arc::new(AtomicU64::new(0));
        let arena_slot = Arc::new(RaceCell::new(0u64));

        let publisher = {
            let (probe, arena_slot) = (probe.clone(), arena_slot.clone());
            thread::spawn(move || {
                arena_slot.set(42);
                // Production ordering: Release store publishes the slot.
                probe.store(7, Ordering::Release);
            })
        };
        let reader = {
            let (probe, arena_slot) = (probe.clone(), arena_slot.clone());
            thread::spawn(move || {
                // Production ordering: Acquire pairs with the Release above.
                if probe.load(Ordering::Acquire) != 0 {
                    assert_eq!(arena_slot.get(), 42, "probe hit saw a stale arena slot");
                }
            })
        };
        publisher.join().unwrap();
        reader.join().unwrap();
    })
    .expect("probe publish/lookup protocol has a race or ordering bug");
    assert!(
        stats.complete,
        "exploration did not cover all interleavings"
    );
}

/// Protocol 2 — `AppendArena` length publication
/// ([`crate::store`]'s append-only arena).
///
/// `push` writes the slot, then `Release`-stores the grown length;
/// `get(i)` `Acquire`-loads the length and only then indexes. An index
/// below the observed length must therefore be a fully-written slot.
#[test]
fn model_arena_len_publication() {
    let stats = model_result(|| {
        let len = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(RaceCell::new(0u64));

        let writer = {
            let (len, slot) = (len.clone(), slot.clone());
            thread::spawn(move || {
                slot.set(7);
                // Production ordering: Release publishes the slot write.
                len.store(1, Ordering::Release);
            })
        };
        let reader = {
            let (len, slot) = (len.clone(), slot.clone());
            thread::spawn(move || {
                // Production ordering: Acquire pairs with push's Release.
                if len.load(Ordering::Acquire) >= 1 {
                    assert_eq!(slot.get(), 7, "published len exposed an unwritten slot");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    })
    .expect("arena len-publication protocol has a race or ordering bug");
    assert!(
        stats.complete,
        "exploration did not cover all interleavings"
    );
}

/// Exploration cap for the one-stripe models. Two managers contending
/// for one lock need more interleavings than the default cap of 10 000:
/// the DFS exhausts the probe model in 47 733 runs and the arena model
/// in 143 095 (about a minute together).
const ONE_STRIPE_CONFIG: Config = Config {
    max_iterations: 200_000,
    seed: 0,
};

/// Protocol 1 on a one-stripe store: two managers insert through the
/// *same* stripe — one stripe lock and one probe slot (the worst case:
/// both keys land on it, so the later publication overwrites the
/// earlier) — and the second then looks the slot up. The hit must name
/// a fully-written arena entry whichever publication it observes,
/// including the other manager's. (Which arena index each insertion
/// gets is protocol 2's business; here each writes its own slot.)
#[test]
fn model_probe_publish_lookup_one_stripe() {
    let stats = model_with_config(ONE_STRIPE_CONFIG, || {
        let stripe = Arc::new(Mutex::new(()));
        let arena = Arc::new([RaceCell::new(0u64), RaceCell::new(0u64)]);
        let probe = Arc::new(AtomicU64::new(0));

        let insert = |k: usize| {
            let (stripe, arena, probe) = (stripe.clone(), arena.clone(), probe.clone());
            move || {
                let _guard = stripe.lock().unwrap();
                arena[k].set(40 + k as u64);
                // Production ordering: Release publishes the arena entry
                // behind the (non-zero) id.
                probe.store(k as u64 + 1, Ordering::Release);
            }
        };
        let first = thread::spawn(insert(0));
        let second = {
            let insert = insert(1);
            let (arena, probe) = (arena.clone(), probe.clone());
            thread::spawn(move || {
                insert();
                // Production ordering: Acquire pairs with whichever
                // Release publication the slot holds.
                let seen = probe.load(Ordering::Acquire);
                let value = arena[seen as usize - 1].get();
                assert_eq!(value, 39 + seen, "probe hit saw a stale arena slot");
            })
        };
        first.join().unwrap();
        second.join().unwrap();
    })
    .expect("one-stripe probe publish/lookup protocol has a race or ordering bug");
    assert!(
        stats.complete,
        "exploration did not cover all interleavings"
    );
}

/// Protocol 2 on a one-stripe store: two managers append to the one
/// arena shard (serialised by its push lock), and the second then reads
/// every slot below the length it observes. Every such slot must be
/// fully written, whichever append landed first.
#[test]
fn model_arena_len_publication_one_stripe() {
    let stats = model_with_config(ONE_STRIPE_CONFIG, || {
        let push_lock = Arc::new(Mutex::new(()));
        let len = Arc::new(AtomicUsize::new(0));
        let arena = Arc::new([RaceCell::new(0u64), RaceCell::new(0u64)]);

        let push = |value: u64| {
            let (push_lock, len, arena) = (push_lock.clone(), len.clone(), arena.clone());
            move || {
                let _guard = push_lock.lock().unwrap();
                // Production ordering: Relaxed — `len` is only stored under
                // the push lock held here.
                let index = len.load(Ordering::Relaxed);
                arena[index].set(value);
                // Production ordering: Release publishes the slot write.
                len.store(index + 1, Ordering::Release);
            }
        };
        let first = thread::spawn(push(7));
        let second = {
            let push = push(8);
            let (len, arena) = (len.clone(), arena.clone());
            thread::spawn(move || {
                push();
                // Production ordering: Acquire pairs with push's Release.
                let published = len.load(Ordering::Acquire);
                for slot in arena.iter().take(published) {
                    assert_ne!(slot.get(), 0, "published len exposed an unwritten slot");
                }
            })
        };
        first.join().unwrap();
        second.join().unwrap();
    })
    .expect("one-stripe arena len-publication protocol has a race or ordering bug");
    assert!(
        stats.complete,
        "exploration did not cover all interleavings"
    );
}

/// Protocol 3 — `StoreCell` swap vs concurrent sizing reads
/// (`qaec`'s session store cell; reclamation swaps the store while
/// sizing readers grab the current generation).
///
/// The swapper prepares the successor generation's state *before*
/// installing it under the cell mutex; a sizer locks the cell, observes
/// a generation, and reads that generation's state after unlocking. The
/// mutex's release/acquire edge is what orders the preparation before
/// the sizer's read.
#[test]
fn model_store_cell_swap_vs_sizing() {
    let stats = model_result(|| {
        let generations = Arc::new([RaceCell::new(0u64), RaceCell::new(0u64)]);
        generations[0].set(10); // generation 0 exists before any sharing
        let cell = Arc::new(Mutex::new(0usize));

        let swapper = {
            let (cell, generations) = (cell.clone(), generations.clone());
            thread::spawn(move || {
                // Prepare the successor fully before installing it.
                generations[1].set(20);
                *cell.lock().unwrap() = 1;
            })
        };
        let sizer = {
            let (cell, generations) = (cell.clone(), generations.clone());
            thread::spawn(move || {
                // Mirrors StoreCell::get: lock, take an owned handle,
                // unlock, then size the observed generation off-lock.
                let gen = *cell.lock().unwrap();
                let bytes = generations[gen].get();
                assert_eq!(
                    bytes,
                    if gen == 0 { 10 } else { 20 },
                    "sized a half-initialised store generation"
                );
            })
        };
        swapper.join().unwrap();
        sizer.join().unwrap();
    })
    .expect("store-cell swap protocol has a race or ordering bug");
    assert!(
        stats.complete,
        "exploration did not cover all interleavings"
    );
}

/// Canary — protocol 1 with the publish downgraded to `Relaxed`. The
/// harness must flag the unordered arena read as a data race; if this
/// test ever passes the checker has gone blind and the green tests
/// above prove nothing.
#[test]
fn model_canary_relaxed_publish_is_detected() {
    let err = model_result(|| {
        let probe = Arc::new(AtomicU64::new(0));
        let arena_slot = Arc::new(RaceCell::new(0u64));

        let publisher = {
            let (probe, arena_slot) = (probe.clone(), arena_slot.clone());
            thread::spawn(move || {
                arena_slot.set(42);
                // ordering: BUG (deliberate) — Relaxed publication, no
                // release edge; the checker must flag this.
                probe.store(7, Ordering::Relaxed);
            })
        };
        let reader = {
            let (probe, arena_slot) = (probe.clone(), arena_slot.clone());
            thread::spawn(move || {
                // ordering: Acquire as in production — with nothing to
                // acquire from, the slot read below is unordered.
                if probe.load(Ordering::Acquire) != 0 {
                    let _ = arena_slot.get();
                }
            })
        };
        publisher.join().unwrap();
        reader.join().unwrap();
    })
    .expect_err("model checker failed to detect a Relaxed publication race");
    assert!(
        err.contains("data race"),
        "expected a data-race report, got: {err}"
    );
}
