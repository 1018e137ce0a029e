//! The cost-based batch planner.
//!
//! Given the point-set shape (`n`, `N = Σ k_i`, spread `ρ`), the batch
//! composition, and the requested [`Guarantee`], the planner prices every
//! eligible execution strategy as `build + batch · per_query` (in abstract
//! "location visit" units) and picks the cheapest — amortizing index
//! construction over the batch, and charging nothing for structures the
//! engine has already built. The full cost table is recorded in the
//! [`BatchPlan`] so `ExecStats` can report *why* a plan was taken
//! (experiment E25 charts the crossovers).
//!
//! Candidate strategies:
//!
//! * `NN≠0` requests — brute force (Lemma 2.1, `O(N)`/query), the
//!   kd-tree/group-index structure (Theorem 3.2, `O(√N + t)`/query after an
//!   `O(N log N)` build), the Bentley–Saxe buckets every engine holds from
//!   construction (the same query shape once per bucket, no build), or
//!   `V≠0` point location (Theorem 2.14, logarithmic queries after a very
//!   expensive arrangement build — only eligible for small `n`).
//! * quantification requests — the exact Eq. (2) fresh sweep
//!   (`O(N log N)`/query, no build), the exact `quant:merged` k-way merge
//!   over the Bentley–Saxe buckets' sorted summaries (priced by live-bucket
//!   count and the locations whose summary is still cold), spiral search
//!   (Theorem 4.7; needs an additive budget), or Monte Carlo (Theorem 4.3;
//!   needs a probabilistic budget).

use uncertain_nn::quantification::monte_carlo::samples_for_queries;
use uncertain_nn::queries::Guarantee;

/// Execution strategy for the `NN≠0` requests of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonzeroPlan {
    /// Direct Lemma 2.1 evaluation per query.
    Brute,
    /// The Theorem 3.2 kd-tree/group-index structure.
    Index,
    /// `V≠0(P)` + slab point location (Theorem 2.14).
    Diagram,
    /// The Bentley–Saxe bucket structure the engine serves from — zero
    /// build cost (bulk-loaded at construction, its per-bucket indexes kept
    /// warm incrementally by `apply`), queries pay the Theorem 3.2 shape
    /// once per bucket.
    Dynamic,
}

/// Execution strategy for the probability (Threshold/TopK) requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuantPlan {
    /// The exact Eq. (2) sweep over the flat live set (the "fresh" path:
    /// assemble + stable-sort all `N` entries per query).
    Exact,
    /// The exact k-way merge over the Bentley–Saxe buckets' sorted
    /// summaries, with the sweep's early exit — bit-identical to `Exact`,
    /// priced by live-bucket count and the locations whose summary is still
    /// cold (a bucket pays a lazy summary build on first use). Not offered
    /// when a snap grid is configured: snapped answers are certified
    /// interval evaluations over the flat live set, which would silently
    /// bypass the merge and its cost model.
    Merged,
    /// Spiral search truncated retrieval with additive error `eps`.
    Spiral { eps: f64 },
    /// Monte-Carlo vote frequencies over `samples` instantiations.
    MonteCarlo { samples: usize },
}

impl std::fmt::Display for NonzeroPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonzeroPlan::Brute => write!(f, "nonzero:brute"),
            NonzeroPlan::Index => write!(f, "nonzero:index"),
            NonzeroPlan::Diagram => write!(f, "nonzero:diagram"),
            NonzeroPlan::Dynamic => write!(f, "nonzero:dynamic"),
        }
    }
}

impl std::fmt::Display for QuantPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantPlan::Exact => write!(f, "quant:fresh"),
            QuantPlan::Merged => write!(f, "quant:merged"),
            QuantPlan::Spiral { eps } => write!(f, "quant:spiral(ε={eps})"),
            QuantPlan::MonteCarlo { samples } => write!(f, "quant:mc(s={samples})"),
        }
    }
}

/// One row of the planner's cost table.
#[derive(Clone, Debug)]
pub struct PlanEstimate {
    pub name: String,
    /// Estimated one-time build cost (0 when the structure already exists).
    pub build: f64,
    /// Estimated per-query cost.
    pub per_query: f64,
    /// `build + batch · per_query`.
    pub total: f64,
    pub chosen: bool,
}

/// Everything the planner needs to know about the engine and the batch.
#[derive(Clone, Copy, Debug)]
pub struct PlannerInputs {
    /// Number of uncertain points `n`.
    pub n: usize,
    /// Total locations `N = Σ k_i`.
    pub total_locations: usize,
    /// Max locations per point `k`.
    pub max_k: usize,
    /// Probability spread `ρ` (for the spiral budget).
    pub spread: f64,
    /// `NN≠0` requests in the batch.
    pub nonzero_count: usize,
    /// Threshold/TopK requests in the batch.
    pub quant_count: usize,
    /// The engine's requested guarantee.
    pub guarantee: Guarantee,
    /// Largest `n` for which the `V≠0` diagram may be considered.
    pub diagram_cap: usize,
    /// Structures already built (their build cost is sunk).
    pub index_built: bool,
    pub diagram_built: bool,
    pub spiral_built: bool,
    /// Sample count of an already-built Monte-Carlo structure, if any.
    pub mc_built_samples: Option<usize>,
    /// Occupied buckets of the engine's Bentley–Saxe structure (the
    /// per-query fan-out of `nonzero:dynamic` and `quant:merged`).
    pub dynamic_buckets: usize,
    /// Locations in buckets whose quantification summary is **cold** — all
    /// of them before quantification first runs, then the churn since it
    /// last touched the structure. `quant:merged` is charged a one-time lazy
    /// build over exactly these.
    pub dynamic_quant_cold_locations: usize,
    /// Quantification answers are snapped to a cache grid (certified
    /// interval evaluation over the flat live set) — the merged candidate
    /// is not offered, because the snapped evaluator would bypass it.
    pub quant_snapped: bool,
    /// The engine's shard count `S ≥ 1`. With several shards, each
    /// scatter-gather query pays a small per-shard gather constant; a
    /// single shard has nothing to gather. The static index, diagram,
    /// spiral and Monte-Carlo structures are built over the flat live
    /// union, which is partition-independent, so every `S` prices them.
    pub shards: usize,
    /// Observed mean scatter-gather fan-out per read (shards actually
    /// visited), fed back by the engine from prior batches. Under hash
    /// partitioning this equals `shards`; under spatial partitioning the
    /// support-box pruning can make it much smaller, which cheapens
    /// exactly the candidates that scatter per shard (`nonzero:dynamic`,
    /// `quant:merged`) — their gather constant and bucket fan-out scale
    /// with the *expected* touched shards, not the worst case. Clamped to
    /// `[1, shards]` (pass `shards as f64` when no observations exist yet).
    pub expected_shards_touched: f64,
}

/// The planner's decision for one batch, with the full cost table.
#[derive(Clone, Debug, Default)]
pub struct BatchPlan {
    pub nonzero: Option<NonzeroPlan>,
    pub quant: Option<QuantPlan>,
    pub estimates: Vec<PlanEstimate>,
}

impl BatchPlan {
    /// Short human-readable summary, e.g. `"nonzero:index + quant:fresh"`.
    pub fn summary(&self) -> String {
        match (&self.nonzero, &self.quant) {
            (Some(nz), Some(qp)) => format!("{nz} + {qp}"),
            (Some(nz), None) => nz.to_string(),
            (None, Some(qp)) => qp.to_string(),
            (None, None) => "idle".to_string(),
        }
    }
}

fn lg(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Registry counter names for each choosable plan, so dumps show how often
/// the planner picked each strategy over the process lifetime.
fn count_nonzero_choice(p: NonzeroPlan) {
    match p {
        NonzeroPlan::Brute => uncertain_obs::counter!("engine.planner.chosen.nonzero.brute"),
        NonzeroPlan::Index => uncertain_obs::counter!("engine.planner.chosen.nonzero.index"),
        NonzeroPlan::Diagram => uncertain_obs::counter!("engine.planner.chosen.nonzero.diagram"),
        NonzeroPlan::Dynamic => uncertain_obs::counter!("engine.planner.chosen.nonzero.dynamic"),
    }
    .inc();
}

fn count_quant_choice(p: QuantPlan) {
    match p {
        QuantPlan::Exact => uncertain_obs::counter!("engine.planner.chosen.quant.fresh"),
        QuantPlan::Merged => uncertain_obs::counter!("engine.planner.chosen.quant.merged"),
        QuantPlan::Spiral { .. } => uncertain_obs::counter!("engine.planner.chosen.quant.spiral"),
        QuantPlan::MonteCarlo { .. } => uncertain_obs::counter!("engine.planner.chosen.quant.mc"),
    }
    .inc();
}

/// Prices every eligible strategy and returns the cheapest plan per request
/// class. Deterministic: ties break toward the earlier candidate.
pub fn plan(inp: &PlannerInputs) -> BatchPlan {
    uncertain_obs::counter!("engine.planner.plans").inc();
    let n = inp.n as f64;
    let nn = (inp.total_locations as f64).max(1.0);
    let kbar = (nn / n.max(1.0)).max(1.0);
    let mut out = BatchPlan::default();

    // Per-query scatter-gather constants. Strategies over the *flat union*
    // (brute, fresh sweep) pay one fold per shard unconditionally —
    // assembling the union visits every shard. The bucket-structure
    // strategies (dynamic, merged) scatter per shard and benefit from
    // support-box pruning, so they pay only the *observed* expected
    // fan-out, and their per-bucket fan-out shrinks by the same fraction
    // (untouched shards' buckets are never visited). One shard gathers
    // nothing.
    let shards = inp.shards.max(1) as f64;
    let per_shard = if inp.shards > 1 { 4.0 } else { 0.0 };
    let expected = inp.expected_shards_touched.clamp(1.0, shards);
    let gather = per_shard * shards;
    let gather_pruned = per_shard * expected;
    let touched_frac = expected / shards;

    if inp.nonzero_count > 0 {
        let b = inp.nonzero_count as f64;
        let mut cands: Vec<(NonzeroPlan, f64, f64)> = vec![
            // A distance evaluation (sqrt + compare) is ~4 units.
            (NonzeroPlan::Brute, 0.0, 4.0 * nn + gather),
            (
                NonzeroPlan::Index,
                if inp.index_built {
                    0.0
                } else {
                    3.0 * nn * lg(nn)
                },
                // Two stages: group min-max branch-and-bound + kd range
                // reporting — O(√N + t) with a healthy constant (two tree
                // descents with distance evaluations at every node).
                16.0 * (nn.sqrt() + kbar + 24.0),
            ),
        ];
        // Same two-stage query shape as the Theorem 3.2 index, fanned out
        // over the occupied buckets (summed across shards, then scaled down to the fraction of shards a read is expected to
        // actually visit); the build is paid at construction and
        // incrementally by `apply`, so it is never charged here.
        let buckets = (inp.dynamic_buckets.max(1) as f64 * touched_frac).max(1.0);
        cands.push((
            NonzeroPlan::Dynamic,
            0.0,
            16.0 * (nn.sqrt() + kbar + 24.0) + 8.0 * buckets * lg(nn) + gather_pruned,
        ));
        if inp.n >= 2 && inp.n <= inp.diagram_cap {
            // Theorem 2.14: the arrangement has O(k n³) pieces; building it
            // dominates by far, queries are a logarithmic slab search that
            // returns a precomputed label.
            let mu = (kbar * n * n * n).max(2.0);
            cands.push((
                NonzeroPlan::Diagram,
                if inp.diagram_built {
                    0.0
                } else {
                    24.0 * mu * lg(mu)
                },
                2.0 * lg(mu) + 8.0,
            ));
        }
        let chosen = pick(&cands, b);
        for (i, &(p, build, per)) in cands.iter().enumerate() {
            out.estimates.push(PlanEstimate {
                name: p.to_string(),
                build,
                per_query: per,
                total: build + b * per,
                chosen: i == chosen,
            });
        }
        count_nonzero_choice(cands[chosen].0);
        out.nonzero = Some(cands[chosen].0);
    }

    if inp.quant_count > 0 {
        let b = inp.quant_count as f64;
        let mut cands: Vec<(QuantPlan, f64, f64)> =
            vec![(QuantPlan::Exact, 0.0, 6.0 * nn * lg(nn) + gather)];
        if !inp.quant_snapped {
            // Exact k-way merge over warm per-bucket summaries: cold buckets
            // (churned since the last quantification) pay one lazy kd-build,
            // then a query pays the O(live) answer assembly, the early-exit
            // stream draws (a few multiples of k̄), and the per-bucket heap
            // fan-out — sublinear in N, which is the whole point.
            let buckets = (inp.dynamic_buckets.max(1) as f64 * touched_frac).max(1.0);
            let cold = inp.dynamic_quant_cold_locations as f64;
            cands.push((
                QuantPlan::Merged,
                if cold > 0.0 {
                    3.0 * cold * lg(cold)
                } else {
                    0.0
                },
                2.0 * n + 16.0 * (kbar + 2.0) * lg(nn) + 8.0 * buckets * lg(nn) + gather_pruned,
            ));
        }
        let eps_budget = inp.guarantee.slack();
        if inp.n > 0 && eps_budget > 0.0 && eps_budget < 1.0 && inp.spread.is_finite() {
            // Spiral retrieval budget m(ρ, ε) = ⌈ρ k ln(1/ε)⌉ + k − 1.
            let m = (inp.spread * inp.max_k as f64 * (1.0 / eps_budget).ln()).ceil()
                + inp.max_k as f64
                - 1.0;
            let m = m.min(nn).max(1.0);
            cands.push((
                QuantPlan::Spiral { eps: eps_budget },
                if inp.spiral_built {
                    0.0
                } else {
                    3.0 * nn * lg(nn)
                },
                8.0 * m * lg(nn) + n,
            ));
        }
        if inp.n > 0 {
            if let Guarantee::Probabilistic { eps, delta } = inp.guarantee {
                if eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0 {
                    let s = samples_for_queries(eps, delta, inp.n, inp.quant_count.max(1));
                    let build = if inp.mc_built_samples.is_some_and(|have| have >= s) {
                        0.0
                    } else {
                        // One instantiation = n samples + an n-point kd-tree.
                        s as f64 * (kbar * n + 4.0 * n * lg(n))
                    };
                    cands.push((
                        QuantPlan::MonteCarlo { samples: s },
                        build,
                        s as f64 * (2.0 * lg(n) + 8.0),
                    ));
                }
            }
        }
        let chosen = pick(&cands, b);
        for (i, &(p, build, per)) in cands.iter().enumerate() {
            out.estimates.push(PlanEstimate {
                name: p.to_string(),
                build,
                per_query: per,
                total: build + b * per,
                chosen: i == chosen,
            });
        }
        count_quant_choice(cands[chosen].0);
        out.quant = Some(cands[chosen].0);
    }

    out
}

fn pick<P: Copy>(cands: &[(P, f64, f64)], batch: f64) -> usize {
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, &(_, build, per)) in cands.iter().enumerate() {
        let total = build + batch * per;
        if total < best_cost {
            best_cost = total;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize, k: usize, nonzero: usize, quant: usize, g: Guarantee) -> PlannerInputs {
        PlannerInputs {
            n,
            total_locations: n * k,
            max_k: k,
            spread: 4.0,
            nonzero_count: nonzero,
            quant_count: quant,
            guarantee: g,
            diagram_cap: 40,
            index_built: false,
            diagram_built: false,
            spiral_built: false,
            mc_built_samples: None,
            // A bulk-loaded engine: one bucket, summaries warm.
            dynamic_buckets: 1,
            dynamic_quant_cold_locations: 0,
            quant_snapped: false,
            shards: 1,
            expected_shards_touched: 1.0,
        }
    }

    fn cost(p: &BatchPlan, name: &str) -> f64 {
        p.estimates
            .iter()
            .find(|e| e.name.starts_with(name))
            .map(|e| e.total)
            .unwrap()
    }

    #[test]
    fn every_shard_count_prices_the_static_plans() {
        // The static structures are built over the flat live union, which
        // is partition-independent, so S = 4 prices the same candidates as
        // S = 1 — index, spiral and Monte Carlo included.
        let g = Guarantee::Probabilistic {
            eps: 0.05,
            delta: 0.05,
        };
        let mut inp = base(4000, 3, 64, 64, g);
        inp.dynamic_buckets = 12;
        let one = plan(&inp);
        inp.shards = 4;
        inp.expected_shards_touched = 4.0;
        let four = plan(&inp);
        let names = |p: &BatchPlan| {
            p.estimates
                .iter()
                .map(|e| e.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&one), names(&four));
        for want in ["nonzero:index", "quant:spiral", "quant:mc"] {
            assert!(names(&four).iter().any(|n| n.starts_with(want)), "{want}");
        }
        // Static rows are priced identically; only the scatter-gather rows
        // pay the per-shard gather, which one shard does not pay at all.
        for row in ["nonzero:index", "quant:spiral", "quant:mc"] {
            assert_eq!(cost(&one, row), cost(&four, row), "{row}");
        }
        assert_eq!(
            cost(&four, "nonzero:brute"),
            cost(&one, "nonzero:brute") + 64.0 * 4.0 * 4.0
        );
    }

    #[test]
    fn observed_fanout_shifts_the_sharded_crossover() {
        // Same engine shape, same batch — the only input that changes is
        // the observed scatter-gather fan-out. At the worst case (every
        // read touches all 8 shards) the heavy per-bucket fan-out makes
        // brute the cheaper NN≠0 strategy; once pruning is observed to
        // touch ~1 shard per read, the dynamic structure wins. (The batch
        // is small enough that a fresh index build never amortizes.)
        let mut inp = base(667, 3, 8, 0, Guarantee::Exact);
        inp.dynamic_buckets = 96; // summed across 8 shards
        inp.shards = 8;

        inp.expected_shards_touched = 8.0;
        let worst = plan(&inp);
        assert_eq!(worst.nonzero, Some(NonzeroPlan::Brute));

        inp.expected_shards_touched = 1.0;
        let pruned = plan(&inp);
        assert_eq!(pruned.nonzero, Some(NonzeroPlan::Dynamic));

        // The brute row is priced identically in both plans — the feedback
        // only cheapens the strategies that actually scatter per shard.
        assert_eq!(
            cost(&worst, "nonzero:brute"),
            cost(&pruned, "nonzero:brute")
        );
        assert!(cost(&pruned, "nonzero:dynamic") < cost(&worst, "nonzero:dynamic"));
    }

    #[test]
    fn dynamic_candidate_beats_a_cold_index_until_the_batch_amortizes_it() {
        let mut inp = base(5000, 3, 64, 0, Guarantee::Exact);
        inp.dynamic_buckets = 6;
        // For a moderate batch the warm bucket structure wins over paying a
        // fresh O(N log N) index build.
        assert_eq!(plan(&inp).nonzero, Some(NonzeroPlan::Dynamic));
        // A batch large enough to amortize the build prefers the index's
        // lower per-query constant; the dynamic row is still priced.
        inp.nonzero_count = 10_000_000;
        let p = plan(&inp);
        assert!(p.estimates.iter().any(|e| e.name == "nonzero:dynamic"));
        assert_eq!(p.nonzero, Some(NonzeroPlan::Index));
    }

    #[test]
    fn small_sets_use_brute_large_sets_use_index() {
        let small = plan(&base(16, 3, 64, 0, Guarantee::Exact));
        assert_eq!(small.nonzero, Some(NonzeroPlan::Brute));
        // The index beats the bucket structure once the batch amortizes
        // its build against the per-bucket fan-out.
        let large = plan(&base(20_000, 3, 65_536, 0, Guarantee::Exact));
        assert_eq!(large.nonzero, Some(NonzeroPlan::Index));
    }

    #[test]
    fn sunk_build_cost_tips_toward_index() {
        let mut inp = base(600, 3, 2, 0, Guarantee::Exact);
        let cold = plan(&inp);
        inp.index_built = true;
        let warm = plan(&inp);
        // With the build sunk, the index is at least as attractive.
        assert!(cost(&warm, "nonzero:index") <= cost(&cold, "nonzero:index"));
        assert_eq!(warm.nonzero, Some(NonzeroPlan::Index));
    }

    #[test]
    fn diagram_needs_tiny_n_and_huge_batch() {
        let inp = base(8, 2, 2_000_000, 0, Guarantee::Exact);
        let p = plan(&inp);
        assert_eq!(p.nonzero, Some(NonzeroPlan::Diagram));
        // Above the cap the diagram is not even priced.
        let capped = plan(&base(200, 2, 2_000_000, 0, Guarantee::Exact));
        assert!(capped.estimates.iter().all(|e| e.name != "nonzero:diagram"));
    }

    #[test]
    fn merged_quant_wins_when_warm_and_is_never_offered_with_a_snap_grid() {
        // Warm dynamic structure: the merged path's sublinear per-query
        // cost beats the fresh O(N log N) sweep.
        let mut inp = base(4096, 3, 0, 64, Guarantee::Exact);
        inp.dynamic_buckets = 6;
        let warm = plan(&inp);
        assert_eq!(warm.quant, Some(QuantPlan::Merged));
        // Both variants are always priced side by side.
        assert!(warm.estimates.iter().any(|e| e.name == "quant:fresh"));

        // Churn since the last touch shows up as a build charge on exactly
        // the cold locations; a warm structure is charged nothing.
        let merged_build = |p: &BatchPlan| {
            p.estimates
                .iter()
                .find(|e| e.name == "quant:merged")
                .map(|e| e.build)
                .unwrap()
        };
        assert_eq!(merged_build(&warm), 0.0);
        inp.dynamic_quant_cold_locations = 3 * 4096;
        let churned = plan(&inp);
        assert!(merged_build(&churned) > 0.0);
        // The lazy rebuild is still cheaper than even a handful of fresh
        // O(N log N) sweeps, so merged keeps winning under churn…
        assert_eq!(churned.quant, Some(QuantPlan::Merged));
        // …and with the build sunk the total only drops.
        assert!(merged_build(&churned) + 64.0 > merged_build(&warm));

        // A snap grid routes quantification through the flat-set interval
        // evaluator, so the merged candidate is not even priced.
        inp.quant_snapped = true;
        let snapped = plan(&inp);
        assert!(snapped.estimates.iter().all(|e| e.name != "quant:merged"));
        assert_eq!(snapped.quant, Some(QuantPlan::Exact));
    }

    #[test]
    fn guarantee_gates_quant_candidates() {
        // An exact guarantee prices only the two exact evaluators.
        let exact = plan(&base(100, 3, 0, 32, Guarantee::Exact));
        assert_eq!(exact.estimates.len(), 2);
        assert!(exact
            .estimates
            .iter()
            .all(|e| e.name == "quant:fresh" || e.name == "quant:merged"));

        // Spiral's per-query cost undercuts the merge's O(n) answer
        // assembly, so a large enough batch amortizes its build.
        let additive = plan(&base(4000, 3, 0, 4096, Guarantee::Additive(0.05)));
        assert!(matches!(additive.quant, Some(QuantPlan::Spiral { .. })));

        let prob = plan(&base(
            4000,
            3,
            0,
            256,
            Guarantee::Probabilistic {
                eps: 0.05,
                delta: 0.05,
            },
        ));
        // All four candidates priced; the chosen one is recorded.
        assert_eq!(prob.estimates.len(), 4);
        assert_eq!(prob.estimates.iter().filter(|e| e.chosen).count(), 1);
        assert!(prob.quant.is_some());
    }

    #[test]
    fn probabilistic_guarantee_picks_monte_carlo_once_the_batch_amortizes_it() {
        // A huge probability spread blows up the spiral retrieval budget,
        // and at large n each merged answer pays an O(n) assembly, while a
        // Monte-Carlo vote costs O(s log n) — so a batch large enough to
        // amortize the sample build picks Monte Carlo…
        let g = Guarantee::Probabilistic {
            eps: 0.1,
            delta: 0.05,
        };
        let mut inp = base(100_000, 3, 0, 1_000_000, g);
        inp.spread = 1e5;
        let p = plan(&inp);
        assert!(
            matches!(p.quant, Some(QuantPlan::MonteCarlo { .. })),
            "plan: {}",
            p.summary()
        );
        // …and a small batch keeps the exact merged path.
        inp.quant_count = 64;
        assert_eq!(plan(&inp).quant, Some(QuantPlan::Merged));
    }

    #[test]
    fn empty_batch_is_idle() {
        let p = plan(&base(100, 3, 0, 0, Guarantee::Exact));
        assert!(p.nonzero.is_none() && p.quant.is_none());
        assert_eq!(p.summary(), "idle");
    }
}
