//! The cost-based batch planner.
//!
//! Given the point-set shape (`n`, `N = Σ k_i`, spread `ρ`), the batch
//! composition, and the requested [`Guarantee`], the planner prices every
//! eligible execution strategy as `build + batch · per_query` (in abstract
//! "location visit" units) and picks the cheapest — amortizing structure
//! construction over the batch, and charging nothing for structures the
//! engine has already built. The full cost table is recorded in the
//! [`BatchPlan`] so `ExecStats` can report *why* a plan was taken, and the
//! engine feeds the chosen rows' predicted cost back against the observed
//! busy time (experiment E25 charts the crossovers).
//!
//! Each query family has exactly one exact evaluator:
//!
//! * `NN≠0` requests are always answered by the Bentley–Saxe buckets every
//!   engine holds from construction (`nonzero:dynamic`, the Theorem 3.2
//!   query shape once per bucket, no build). Its row is still priced, so
//!   the predicted-vs-observed feedback covers it.
//! * quantification requests take the exact `quant:merged` k-way merge
//!   over the buckets' sorted summaries (priced by live-bucket count and
//!   the locations whose summary is still cold) — or, when a snap grid is
//!   set, the certified snapped evaluator over the flat live set
//!   (`quant:snapped`). Under an approximate [`Guarantee`] the planner
//!   prices that exact evaluator against spiral search (Theorem 4.7; needs
//!   an additive budget) and Monte Carlo (Theorem 4.3; needs a
//!   probabilistic budget).

use uncertain_nn::quantification::monte_carlo::samples_for_queries;
use uncertain_nn::queries::Guarantee;

/// Execution strategy for the `NN≠0` requests of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonzeroPlan {
    /// The Bentley–Saxe bucket structure the engine serves from — zero
    /// build cost (bulk-loaded at construction, its per-bucket indexes kept
    /// warm incrementally by `apply`), queries pay the Theorem 3.2 shape
    /// once per bucket.
    Dynamic,
}

/// Execution strategy for the probability (Threshold/TopK) requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuantPlan {
    /// The exact k-way merge over the Bentley–Saxe buckets' sorted
    /// summaries, with the sweep's early exit — bit-identical to the Eq. (2)
    /// sweep over the flat live set, priced by live-bucket count and the
    /// locations whose summary is still cold (a bucket pays a lazy summary
    /// build on first use). Not offered when a snap grid is configured.
    Merged,
    /// Certified interval evaluation at the query's snap-cell center over
    /// the flat live set (see [`crate::snap`]) — the exact evaluator of an
    /// engine with a snap grid, in place of `Merged`.
    Snapped,
    /// Spiral search truncated retrieval with additive error `eps`.
    Spiral { eps: f64 },
    /// Monte-Carlo vote frequencies over `samples` instantiations.
    MonteCarlo { samples: usize },
}

impl std::fmt::Display for NonzeroPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonzeroPlan::Dynamic => write!(f, "nonzero:dynamic"),
        }
    }
}

impl std::fmt::Display for QuantPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantPlan::Merged => write!(f, "quant:merged"),
            QuantPlan::Snapped => write!(f, "quant:snapped"),
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
    /// The spiral-search structure is already built (its cost is sunk).
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
    /// Quantification answers are snapped to a cache grid, so the exact
    /// candidate is `quant:snapped` (certified interval evaluation over the
    /// flat live set) instead of `quant:merged`.
    pub quant_snapped: bool,
    /// The engine's shard count `S ≥ 1`. With several shards, each
    /// scatter-gather query pays a small per-shard gather constant; a
    /// single shard has nothing to gather. The spiral and Monte-Carlo
    /// structures are built over the flat live union, which is
    /// partition-independent, so every `S` prices them.
    pub shards: usize,
    /// Observed mean scatter-gather fan-out per read (shards actually
    /// visited), fed back by the engine from prior batches. Under hash
    /// partitioning this equals `shards`; under spatial partitioning the
    /// support-box pruning can make it much smaller, which cheapens
    /// exactly the plans that scatter per shard (`nonzero:dynamic`,
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
    /// Short human-readable summary, e.g. `"nonzero:dynamic + quant:merged"`.
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

/// Registry counter names for each choosable quantification plan, so dumps
/// show how often the planner picked each strategy over the process
/// lifetime.
fn count_quant_choice(p: QuantPlan) {
    match p {
        QuantPlan::Merged => uncertain_obs::counter!("engine.planner.chosen.quant.merged"),
        QuantPlan::Snapped => uncertain_obs::counter!("engine.planner.chosen.quant.snapped"),
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

    // Per-query scatter-gather constants. The snapped evaluator runs over
    // the flat union, and assembling the union visits every shard, so it
    // pays one fold per shard unconditionally. The bucket-structure plans
    // (dynamic, merged) scatter per shard and benefit from support-box
    // pruning, so they pay only the *observed* expected fan-out, and their
    // per-bucket fan-out shrinks by the same fraction (untouched shards'
    // buckets are never visited). One shard gathers nothing.
    let shards = inp.shards.max(1) as f64;
    let per_shard = if inp.shards > 1 { 4.0 } else { 0.0 };
    let expected = inp.expected_shards_touched.clamp(1.0, shards);
    let gather = per_shard * shards;
    let gather_pruned = per_shard * expected;
    let touched_frac = expected / shards;
    let buckets = (inp.dynamic_buckets.max(1) as f64 * touched_frac).max(1.0);

    if inp.nonzero_count > 0 {
        // The Theorem 3.2 two-stage query shape — group min-max
        // branch-and-bound + kd range reporting, O(√N + t) with a distance
        // evaluation (~4 units) at every node of two tree descents — once
        // per occupied bucket. The build is paid at construction and
        // incrementally by `apply`, so it is never charged here.
        let per = 16.0 * (nn.sqrt() + kbar + 24.0) + 8.0 * buckets * lg(nn) + gather_pruned;
        let cands = [(NonzeroPlan::Dynamic, 0.0, per)];
        out.nonzero = Some(choose(&cands, inp.nonzero_count as f64, &mut out.estimates));
        uncertain_obs::counter!("engine.planner.chosen.nonzero.dynamic").inc();
    }

    if inp.quant_count > 0 {
        let exact = if inp.quant_snapped {
            // Two shifted Eq. (2) sweeps over the flat union: assemble and
            // sort all N entries per query, no build.
            (QuantPlan::Snapped, 0.0, 6.0 * nn * lg(nn) + gather)
        } else {
            // Exact k-way merge over warm per-bucket summaries: cold buckets
            // (churned since the last quantification) pay one lazy kd-build,
            // then a query pays the early-exit stream draws (a few multiples
            // of k̄) and the per-bucket heap fan-out — sublinear in N, which
            // is the whole point. The `2n` term priced the dense answer the
            // merge used to assemble; answers are now sparse (`O(|NN≠0|)`),
            // so the term is stale and kept only until E25 re-derives it.
            let cold = inp.dynamic_quant_cold_locations as f64;
            (
                QuantPlan::Merged,
                if cold > 0.0 {
                    3.0 * cold * lg(cold)
                } else {
                    0.0
                },
                2.0 * n + 16.0 * (kbar + 2.0) * lg(nn) + 8.0 * buckets * lg(nn) + gather_pruned,
            )
        };
        let mut cands: Vec<(QuantPlan, f64, f64)> = vec![exact];
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
        let chosen = choose(&cands, inp.quant_count as f64, &mut out.estimates);
        count_quant_choice(chosen);
        out.quant = Some(chosen);
    }

    out
}

/// Records every candidate's row in the cost table and returns the cheapest
/// (ties break toward the earlier candidate).
fn choose<P: Copy + std::fmt::Display>(
    cands: &[(P, f64, f64)],
    batch: f64,
    rows: &mut Vec<PlanEstimate>,
) -> P {
    let total = |&(_, build, per): &(P, f64, f64)| build + batch * per;
    let mut chosen = 0;
    for (i, c) in cands.iter().enumerate() {
        if total(c) < total(&cands[chosen]) {
            chosen = i;
        }
    }
    for (i, c) in cands.iter().enumerate() {
        rows.push(PlanEstimate {
            name: c.0.to_string(),
            build: c.1,
            per_query: c.2,
            total: total(c),
            chosen: i == chosen,
        });
    }
    cands[chosen].0
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
        // The spiral and Monte-Carlo structures are built over the flat
        // live union, which is partition-independent, so S = 4 prices the
        // same candidates as S = 1.
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
        // Static rows are priced identically; only the scatter-gather rows
        // pay the per-shard gather, which one shard does not pay at all.
        for row in ["quant:spiral", "quant:mc"] {
            assert_eq!(cost(&one, row), cost(&four, row), "{row}");
        }
        assert_eq!(
            cost(&four, "nonzero:dynamic"),
            cost(&one, "nonzero:dynamic") + 64.0 * 4.0 * 4.0
        );
    }

    #[test]
    fn observed_fanout_shifts_the_sharded_crossover() {
        // Same engine shape, same batch — the only input that changes is
        // the observed scatter-gather fan-out. At the worst case (every
        // read touches all 8 shards) the heavy per-bucket fan-out makes
        // spiral the cheaper quantifier under an additive budget; once
        // pruning is observed to touch ~1 shard per read, the exact merge
        // wins. (The spiral structure is built, so no build cost tips it.)
        let mut inp = base(667, 3, 0, 8, Guarantee::Additive(0.05));
        inp.dynamic_buckets = 96; // summed across 8 shards
        inp.shards = 8;
        inp.spiral_built = true;

        inp.expected_shards_touched = 8.0;
        let worst = plan(&inp);
        assert!(matches!(worst.quant, Some(QuantPlan::Spiral { .. })));

        inp.expected_shards_touched = 1.0;
        let pruned = plan(&inp);
        assert_eq!(pruned.quant, Some(QuantPlan::Merged));

        // The spiral row is priced identically in both plans — the feedback
        // only cheapens the strategies that actually scatter per shard.
        assert_eq!(cost(&worst, "quant:spiral"), cost(&pruned, "quant:spiral"));
        assert!(cost(&pruned, "quant:merged") < cost(&worst, "quant:merged"));
    }

    #[test]
    fn merged_quant_wins_when_warm_and_is_never_offered_with_a_snap_grid() {
        // An exact engine has one exact evaluator: the merged path.
        let mut inp = base(4096, 3, 0, 64, Guarantee::Exact);
        inp.dynamic_buckets = 6;
        let warm = plan(&inp);
        assert_eq!(warm.quant, Some(QuantPlan::Merged));

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
        assert_eq!(churned.quant, Some(QuantPlan::Merged));

        // A snap grid routes quantification through the certified flat-set
        // evaluator, so the merged candidate is not even priced.
        inp.quant_snapped = true;
        let snapped = plan(&inp);
        assert!(snapped.estimates.iter().all(|e| e.name != "quant:merged"));
        assert_eq!(snapped.quant, Some(QuantPlan::Snapped));
    }

    #[test]
    fn guarantee_gates_quant_candidates() {
        // An exact guarantee prices only the exact evaluator.
        let exact = plan(&base(100, 3, 0, 32, Guarantee::Exact));
        assert_eq!(exact.estimates.len(), 1);
        assert_eq!(exact.estimates[0].name, "quant:merged");

        // Spiral's per-query cost undercuts the merge row's priced `2n`
        // answer term, so a large enough batch amortizes its build.
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
        // All three candidates priced; the chosen one is recorded.
        assert_eq!(prob.estimates.len(), 3);
        assert_eq!(prob.estimates.iter().filter(|e| e.chosen).count(), 1);
        assert!(prob.quant.is_some());
    }

    #[test]
    fn probabilistic_guarantee_picks_monte_carlo_once_the_batch_amortizes_it() {
        // A huge probability spread blows up the spiral retrieval budget,
        // and at large n the merge row prices a `2n` answer term, while a
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
