//! The shared Eq. (2) sweep core and its entry sources.
//!
//! Every exact discrete quantification in the workspace — the static
//! [`quantification_discrete`](crate::quantification::exact::quantification_discrete)
//! evaluator, the `V_Pr` fallback, the spiral search's truncated estimate,
//! and the dynamic layer's radius-bounded collect — is the *same* monotone
//! sweep over `(distance, site, weight)` entries in ascending distance
//! order, maintaining running survival products. What differs is only where
//! the ordered entry stream comes from. This module makes that explicit:
//!
//! * [`SweepSource`] — an ordered entry stream (ascending `(distance, site)`
//!   with per-site location ties in the site's own location order);
//! * [`SortedSlab`] — the single-slab source: one flat entry vector, stably
//!   sorted by distance (the classic `O(N log N)` fresh-sweep path). The
//!   dynamic layer's source is its own: the live entries inside the
//!   Lemma 2.1 radius, gathered from per-bucket kd-trees and sorted by
//!   `(distance, site id, location)` (`crate::dynamic`);
//! * [`sweep_sparse`] — the sweep itself. One piece of arithmetic for
//!   every caller, so two sources that emit the same entry sequence produce
//!   **bit-identical** probabilities. It keeps running state only for the
//!   sites it actually draws, keyed by the entry's site key in a per-thread
//!   scratch map reused across sweeps, and returns the `(key, π)` pairs
//!   with `π > 0` in ascending key order, allocated once at their exact
//!   count — `O(drawn sites)` memory and output, however large the site
//!   set or the key space, and on a warm thread no allocation but the
//!   answer. By Lemma 2.1 only sites of `NN≠0(q)` can end with `π > 0`,
//!   so the answer's natural size is `|NN≠0(q)|`, not `n`;
//! * [`sweep`] — the dense form for callers that want all `n` values (the
//!   fresh oracle, spiral search): the drawn sites' values scattered into
//!   zeros.
//!
//! The driver stops early once two sites have fully entered their cdfs
//! (`zeros ≥ 2`): from that point every η-contribution of Eq. (2) is
//! *exactly* `0.0` (the `zeros ≥ 2` branch returns the constant), so
//! truncating the stream changes no output bit. [`sweep_sparse`] reports
//! whether that exit fired: a source that holds only a distance-prefix of
//! the entries (the dynamic layer's collect inside a radius) is exact when
//! it did, and must be re-read in full when it did not.

use std::cell::RefCell;
use std::collections::HashMap;

/// One sweep entry: `(distance to the query, site key, weight)`. The key
/// identifies the site: a dense index for the flat slab, a stable site id
/// for the dynamic layer's collect.
pub type SweepEntry = (f64, usize, f64);

/// Factors below this are treated as exactly zero (weights are normalized,
/// so a fully-dominated point's factor is 0 up to rounding).
pub(crate) const ZERO_THRESH: f64 = 1e-12;

/// An ordered entry stream feeding the Eq. (2) sweep.
///
/// Contract: entries come out in non-decreasing distance, and entries at
/// *equal* distance come out in ascending `(site key, location index)`
/// order — the order a stable distance sort of the canonical flat entry
/// list (sites in ascending key order) produces. Two sources honoring the
/// contract over the same entry multiset are interchangeable bit-for-bit
/// under [`sweep_sparse`] — and so are two sources whose keys differ by a
/// strictly increasing relabeling, up to that relabeling of the output.
pub trait SweepSource {
    /// The next entry, or `None` when the stream is exhausted.
    fn next_entry(&mut self) -> Option<SweepEntry>;
}

/// The single-slab source: a flat entry vector, stably sorted by distance.
///
/// This is the fresh-sweep path — entries pushed in ascending
/// `(site, location)` order keep exactly that order within distance ties.
pub struct SortedSlab {
    entries: std::vec::IntoIter<SweepEntry>,
}

impl SortedSlab {
    /// Sorts `entries` by distance (stable — ties keep push order).
    ///
    /// Uses `f64::total_cmp`, so a corrupt (NaN) distance cannot panic the
    /// sort — NaNs order after every finite distance and the sweep's
    /// arithmetic degrades instead of aborting. Well-formed inputs never
    /// contain one (distances are norms of finite coordinates), which the
    /// debug assertion checks.
    pub fn new(mut entries: Vec<SweepEntry>) -> Self {
        debug_assert!(
            entries.iter().all(|e| e.0.is_finite()),
            "non-finite distance in sweep slab"
        );
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        SortedSlab {
            entries: entries.into_iter(),
        }
    }
}

impl SweepSource for SortedSlab {
    #[inline]
    fn next_entry(&mut self) -> Option<SweepEntry> {
        self.entries.next()
    }
}

/// Running state of one drawn site: its key, `π_i` so far, `G_{q,i}(r)` so
/// far, and the survival factor `1 − G_{q,i}(r)` (clamped at 0).
struct SiteState {
    key: usize,
    pi: f64,
    w_acc: f64,
    factor: f64,
}

/// Multiplicative (Fibonacci) hashing for the sweep's scratch
/// key → state map. Keys are dense indices or stable site ids — integers
/// with no adversary — so SipHash's DoS resistance buys nothing here.
#[derive(Clone, Copy, Default)]
struct FibHasher(u64);

impl std::hash::Hasher for FibHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The product's well-mixed high half becomes the low bits the table
        // indexes by.
        self.0.rotate_left(32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type FibBuild = std::hash::BuildHasherDefault<FibHasher>;

/// The sites a sweep has drawn: key → slot map plus per-slot running
/// state, both `O(drawn sites)`.
struct Drawn {
    slot_of: HashMap<usize, u32, FibBuild>,
    state: Vec<SiteState>,
}

impl Drawn {
    /// The slot of `key`, opening it with the initial state
    /// `(π, G, 1 − G) = (0, 0, 1)` on first sight.
    #[inline]
    fn slot(&mut self, key: usize) -> u32 {
        let state = &mut self.state;
        *self.slot_of.entry(key).or_insert_with(|| {
            state.push(SiteState {
                key,
                pi: 0.0,
                w_acc: 0.0,
                factor: 1.0,
            });
            (state.len() - 1) as u32
        })
    }
}

/// A thread's sweep state, reused across sweeps: the drawn sites and the
/// current tie batch of `(slot, weight)` pairs.
struct Scratch {
    drawn: Drawn,
    batch: Vec<(u32, f64)>,
}

impl Scratch {
    /// Empties the scratch, and gives back the room of a sweep that drew
    /// more than [`KEEP_ENTRIES`] sites, so a rare huge query is not pinned
    /// to the thread afterwards.
    fn reset(&mut self) {
        self.drawn.slot_of.clear();
        self.drawn.state.clear();
        self.batch.clear();
        if self.drawn.state.capacity() > KEEP_ENTRIES {
            self.drawn.slot_of.shrink_to(KEEP_ENTRIES);
            self.drawn.state.shrink_to(KEEP_ENTRIES);
        }
        if self.batch.capacity() > KEEP_ENTRIES {
            self.batch.shrink_to(KEEP_ENTRIES);
        }
    }
}

thread_local! {
    /// Each thread's sweep scratch, so a warm sweep allocates only its
    /// answer.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            drawn: Drawn {
                slot_of: HashMap::with_hasher(FibBuild::new()),
                state: Vec::new(),
            },
            batch: Vec::new(),
        })
    };
}

/// Entries (or drawn sites) a thread's per-query buffers keep room for
/// between queries; a rare larger query (a far query, a full retry, a
/// degenerate tie) gives the rest back when it ends.
pub(crate) const KEEP_ENTRIES: usize = 1 << 14;

/// Runs the Eq. (2) sweep over `source` on the calling thread's scratch,
/// then hands the drawn sites' final states to `emit`: `(emit's value,
/// whether the `zeros ≥ 2` early exit fired)`.
fn run_sweep<S: SweepSource + ?Sized, T>(
    source: &mut S,
    emit: impl FnOnce(&[SiteState]) -> T,
) -> (T, bool) {
    SCRATCH.with_borrow_mut(|scratch| {
        // Reset first: a sweep that panicked mid-query (the engine catches
        // panics per request) leaves its state behind.
        scratch.reset();
        let Scratch { drawn, batch } = scratch;
        let mut product = 1.0f64; // Π over drawn i with factor > 0
        let mut zeros = 0usize; // #{i : factor == 0}
        let mut stopped = false;
        let mut pending = source.next_entry();
        while let Some((d, k0, w0)) = pending {
            batch.clear();
            batch.push((drawn.slot(k0), w0));
            loop {
                pending = source.next_entry();
                match pending {
                    Some((d2, k2, w2)) if d2 == d => batch.push((drawn.slot(k2), w2)),
                    _ => break,
                }
            }
            // Phase 1: all locations at distance exactly d enter their cdfs
            // (ties count against each other — `≤` in Eq. (2)).
            for &(s, w) in batch.iter() {
                let st = &mut drawn.state[s as usize];
                let old = st.factor;
                st.w_acc += w;
                let mut newf = 1.0 - st.w_acc;
                if newf < ZERO_THRESH {
                    newf = 0.0;
                }
                st.factor = newf;
                if old > 0.0 {
                    if newf > 0.0 {
                        product *= newf / old;
                    } else {
                        zeros += 1;
                        product /= old;
                    }
                }
            }
            // Phase 2: each batch member contributes
            // η(p; q) = w · Π_{j≠i} (1 − G_{q,j}(d)).
            for &(s, w) in batch.iter() {
                let st = &mut drawn.state[s as usize];
                let fi = st.factor;
                let eta = if zeros == 0 {
                    w * product / fi
                } else if zeros == 1 && fi == 0.0 {
                    w * product
                } else {
                    0.0
                };
                st.pi += eta;
            }
            // Two sites fully entered: every remaining η is exactly 0.0, so
            // the rest of the stream cannot change any output bit. Stop
            // drawing.
            if zeros >= 2 {
                stopped = true;
                break;
            }
        }
        let out = emit(&drawn.state);
        scratch.reset();
        (out, stopped)
    })
}

/// The Eq. (2) sweep over any ordered entry source, keeping state
/// only for the sites it draws: returns `(key, π_key)` for every drawn key
/// with `π > 0`, in ascending key order, and whether the `zeros ≥ 2` early
/// exit fired. Keys are whatever the source emits — dense indices for the
/// flat slab, stable site ids for the dynamic layer's collect — and may be
/// arbitrarily large: the sweep's memory is `O(drawn sites)`, never
/// `O(max key)`. Every key absent from the output — never drawn, or drawn
/// and left at `π = 0` — has `π = 0` exactly; by Lemma 2.1 the output keys
/// of a sweep over the whole site set lie in `NN≠0(q)`.
///
/// The running state lives in a per-thread scratch that is reused across
/// sweeps, and the answer is allocated once at its exact length, so a
/// sweep on a warm thread allocates only the vector it returns.
///
/// When the exit fired, the answer depends only on the entries up to and
/// including the last batch processed (plus one lookahead entry, read and
/// discarded): any source agreeing with the full stream on that prefix
/// gives the same bits. When it did not, the whole source was consumed.
///
/// Distance ties are processed in batches — Eq. (2)'s cdf uses `≤ r`, so
/// all locations at the same distance enter their cdfs (phase 1) before any
/// of them contributes its η (phase 2). The driver takes `&mut` so callers
/// keep the source and can read its statistics afterwards.
pub fn sweep_sparse<S: SweepSource + ?Sized>(source: &mut S) -> (Vec<(usize, f64)>, bool) {
    run_sweep(source, |state| {
        let positive = || state.iter().filter(|st| st.pi > 0.0);
        let mut out = Vec::with_capacity(positive().count());
        out.extend(positive().map(|st| (st.key, st.pi)));
        out.sort_unstable_by_key(|&(key, _)| key);
        out
    })
}

/// The dense form of [`sweep_sparse`]: all `π_i` for dense site indices
/// `0..n` (every key the source emits must be `< n`), the drawn sites'
/// values scattered into zeros. Bit-identical to a sweep keeping
/// `n`-length state: the per-site arithmetic is the same, and an undrawn
/// or `π = 0` site is exactly `0.0` either way.
pub fn sweep<S: SweepSource + ?Sized>(source: &mut S, n: usize) -> Vec<f64> {
    run_sweep(source, |state| {
        let mut pi = vec![0.0f64; n];
        for st in state.iter().filter(|st| st.pi > 0.0) {
            pi[st.key] = st.pi;
        }
        pi
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-early-exit reference: the full sweep with no termination.
    fn sweep_full(entries: Vec<SweepEntry>, n: usize) -> Vec<f64> {
        let entries = {
            let mut e = entries;
            e.sort_by(|a, b| a.0.total_cmp(&b.0));
            e
        };
        let mut pi = vec![0.0f64; n];
        let mut w_acc = vec![0.0f64; n];
        let mut factors = vec![1.0f64; n];
        let mut product = 1.0f64;
        let mut zeros = 0usize;
        let mut idx = 0;
        while idx < entries.len() {
            let d = entries[idx].0;
            let mut end = idx;
            while end < entries.len() && entries[end].0 == d {
                end += 1;
            }
            for e in &entries[idx..end] {
                let (_, i, w) = *e;
                let old = factors[i];
                w_acc[i] += w;
                let mut newf = 1.0 - w_acc[i];
                if newf < ZERO_THRESH {
                    newf = 0.0;
                }
                factors[i] = newf;
                if old > 0.0 {
                    if newf > 0.0 {
                        product *= newf / old;
                    } else {
                        zeros += 1;
                        product /= old;
                    }
                }
            }
            for e in &entries[idx..end] {
                let (_, i, w) = *e;
                let fi = factors[i];
                let eta = if zeros == 0 {
                    w * product / fi
                } else if zeros == 1 && fi == 0.0 {
                    w * product
                } else {
                    0.0
                };
                pi[i] += eta;
            }
            idx = end;
        }
        pi
    }

    fn pseudo(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn random_entries(n: usize, k: usize, seed: u64, ties: bool) -> Vec<SweepEntry> {
        let mut state = seed.max(1);
        let mut entries = vec![];
        for i in 0..n {
            let mut ws = vec![];
            for _ in 0..k {
                ws.push(pseudo(&mut state) + 0.05);
            }
            let total: f64 = ws.iter().sum();
            for w in ws {
                // With `ties`, distances collide across sites frequently.
                let d = if ties {
                    (pseudo(&mut state) * 8.0).floor()
                } else {
                    pseudo(&mut state) * 50.0
                };
                entries.push((d, i, w / total));
            }
        }
        entries
    }

    /// Runs [`sweep_sparse`] over `source` (whose keys are the reference's
    /// site indices plus `offset`) and checks it against the full dense
    /// reference: exactly the `π > 0` sites, keys strictly ascending,
    /// bit-identical values.
    fn assert_sparse_matches(
        source: &mut dyn SweepSource,
        full: &[f64],
        offset: usize,
        what: &str,
    ) {
        let (got, _) = sweep_sparse(source);
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "keys not strictly ascending: {what}"
        );
        assert!(got.iter().all(|&(_, p)| p > 0.0), "π ≤ 0 reported: {what}");
        let want: Vec<(usize, f64)> = full
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(i, &p)| (i + offset, p))
            .collect();
        assert_eq!(got.len(), want.len(), "answer size: {what}");
        for ((gk, gp), (wk, wp)) in got.iter().zip(&want) {
            assert_eq!(gk, wk, "keys: {what}");
            assert_eq!(gp.to_bits(), wp.to_bits(), "π of key {gk}: {what}");
        }
    }

    fn offset_keys(entries: &[SweepEntry], offset: usize) -> Vec<SweepEntry> {
        entries
            .iter()
            .map(|&(d, i, w)| (d, i + offset, w))
            .collect()
    }

    /// Offsetting every key by 10⁹ proves the sweep holds no key-sized
    /// state: a dense sweep would need a 10⁹-entry vector per query.
    const FAR: usize = 1_000_000_000;

    #[test]
    fn sparse_sweep_is_bit_identical_to_the_full_sweep() {
        for seed in 1u64..20 {
            for ties in [false, true] {
                let entries = random_entries(30, 3, seed, ties);
                let full = sweep_full(entries.clone(), 30);
                for offset in [0, FAR] {
                    let mut slab = SortedSlab::new(offset_keys(&entries, offset));
                    let what = format!("seed {seed} ties {ties} offset {offset}");
                    assert_sparse_matches(&mut slab, &full, offset, &what);
                }
            }
        }
    }

    #[test]
    fn sparse_sweep_handles_a_site_with_equal_distance_locations() {
        // Site 0 enters its whole cdf in one tie batch (three locations at
        // d = 1), alongside other sites' locations at the same distance.
        let entries: Vec<SweepEntry> = vec![
            (1.0, 0, 0.2),
            (1.0, 0, 0.3),
            (1.0, 0, 0.5),
            (0.5, 2, 0.4),
            (1.0, 1, 0.5),
            (1.0, 2, 0.6),
            (2.0, 1, 0.5),
            (0.75, 3, 0.1),
            (3.0, 3, 0.9),
        ];
        let full = sweep_full(entries.clone(), 4);
        assert!(full.iter().filter(|&&p| p > 0.0).count() >= 2);
        for offset in [0, FAR] {
            let mut slab = SortedSlab::new(offset_keys(&entries, offset));
            assert_sparse_matches(&mut slab, &full, offset, &format!("offset {offset}"));
        }
    }

    #[test]
    fn early_exit_is_bit_identical_to_the_full_sweep() {
        for seed in 1u64..20 {
            for ties in [false, true] {
                let entries = random_entries(30, 3, seed, ties);
                let full = sweep_full(entries.clone(), 30);
                let mut slab = SortedSlab::new(entries);
                let early = sweep(&mut slab, 30);
                for (a, b) in early.iter().zip(&full) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} ties {ties}");
                }
            }
        }
    }

    /// A source over a sorted entry list that counts what the sweep reads.
    struct Counted {
        entries: Vec<SweepEntry>,
        read: usize,
    }

    impl SweepSource for Counted {
        fn next_entry(&mut self) -> Option<SweepEntry> {
            let e = self.entries.get(self.read).copied();
            self.read += usize::from(e.is_some());
            e
        }
    }

    #[test]
    fn early_exit_truncates_the_merge_stream() {
        // Two certain sites right next to the query block everything else:
        // the sweep must stop after a handful of entries, not the full 2002,
        // and say so; a prefix that ends before the exit batch must not.
        let mut entries: Vec<SweepEntry> = vec![(0.5, 0, 1.0), (0.75, 1, 1.0)];
        for i in 0..2000 {
            entries.push((2.0 + i as f64, 2 + i, 1.0));
        }
        let mut counted = Counted {
            entries: entries.clone(),
            read: 0,
        };
        let (pi, stopped) = sweep_sparse(&mut counted);
        assert_eq!(pi, vec![(0, 1.0)]);
        assert!(stopped);
        assert!(counted.read <= 3, "read {}", counted.read);
        // The single-slab path still produces the identical answer.
        let mut slab = SortedSlab::new(entries.clone());
        assert_eq!(sweep_sparse(&mut slab), (pi, true));
        // One site alone never lets two factors reach zero.
        let (_, stopped) = sweep_sparse(&mut SortedSlab::new(entries[..1].to_vec()));
        assert!(!stopped);
    }

    /// A source that fails after `after` entries, as a query can inside
    /// the engine's per-request panic guard.
    struct FailsMidway {
        entries: Vec<SweepEntry>,
        read: usize,
        after: usize,
    }

    impl SweepSource for FailsMidway {
        fn next_entry(&mut self) -> Option<SweepEntry> {
            assert!(self.read < self.after, "source failed mid-sweep");
            self.read += 1;
            self.entries.get(self.read - 1).copied()
        }
    }

    /// A sweep that panics leaves its half-drawn state in the thread's
    /// scratch; the next sweep on the thread must not see it.
    #[test]
    fn a_sweep_after_a_failed_one_is_bit_identical() {
        let entries = random_entries(30, 3, 7, false);
        let full = sweep_full(entries.clone(), 30);
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let failed = std::panic::catch_unwind(|| {
            sweep_sparse(&mut FailsMidway {
                entries: sorted.clone(),
                read: 0,
                after: 10,
            })
        });
        assert!(failed.is_err());
        let mut slab = SortedSlab::new(entries);
        assert_sparse_matches(&mut slab, &full, 0, "after a failed sweep");
    }

    #[test]
    fn empty_and_single_sources() {
        let mut slab = SortedSlab::new(vec![]);
        assert!(sweep(&mut slab, 0).is_empty());
        assert_eq!(sweep_sparse(&mut SortedSlab::new(vec![])), (vec![], false));
        assert_eq!(sweep(&mut SortedSlab::new(vec![]), 3), vec![0.0; 3]);
        let mut one = SortedSlab::new(vec![(1.0, 0, 1.0)]);
        assert_eq!(sweep(&mut one, 1), vec![1.0]);
    }
}
