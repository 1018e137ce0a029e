//! The answer check. A sample of every workload's answers is compared, bit
//! for bit, with the core library evaluated on the same live set: NN≠0
//! from `DiscreteSet::nonzero_nn`, TopK and Threshold from the fresh
//! `quantification_discrete` sweep ranked or thresholded the way the
//! engine does it.

use uncertain_engine::server::protocol::Reply;
use uncertain_engine::{QueryRequest, QueryResult, SiteId};
use uncertain_nn::model::DiscreteSet;
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::queries::Guarantee;

/// An answer in a form both the in-process and the wire results map to.
/// Probabilities are kept as bits, so equality is bit identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Ids(Vec<u64>),
    /// `(site id, π bits)`, in answer order, served under an exact
    /// guarantee.
    Ranked(Vec<(u64, u64)>),
    /// A ranked answer served under a non-exact guarantee.
    Inexact,
    Failed(String),
}

fn ranked(items: impl Iterator<Item = (u64, f64)>, guarantee: Guarantee) -> Answer {
    if guarantee != Guarantee::Exact {
        return Answer::Inexact;
    }
    Answer::Ranked(items.map(|(id, p)| (id, p.to_bits())).collect())
}

impl Answer {
    pub fn from_result(r: &QueryResult) -> Answer {
        match r {
            QueryResult::Nonzero(ids) => Answer::Ids(ids.iter().map(|&i| i as u64).collect()),
            QueryResult::Ranked { items, guarantee } => {
                ranked(items.iter().map(|&(i, p)| (i as u64, p)), *guarantee)
            }
            QueryResult::Failed { reason } => Answer::Failed(reason.clone()),
        }
    }

    pub fn from_reply(r: &Reply) -> Answer {
        match r {
            Reply::Nonzero(ids) => Answer::Ids(ids.clone()),
            Reply::Ranked { items, guarantee } => ranked(items.iter().copied(), *guarantee),
            Reply::Error { code, detail } => Answer::Failed(format!("{code:?}: {detail}")),
            other => Answer::Failed(format!("unexpected reply {other:?}")),
        }
    }

    pub fn is_failed(&self) -> bool {
        matches!(self, Answer::Failed(_))
    }
}

/// The core library's answer to `req` over `set`, whose dense index `i` is
/// site `ids[i]`.
pub fn expected(set: &DiscreteSet, ids: &[SiteId], req: &QueryRequest) -> Answer {
    let id = |dense: usize| ids[dense] as u64;
    match *req {
        QueryRequest::Nonzero { q } => {
            let mut out: Vec<u64> = set.nonzero_nn(q).into_iter().map(id).collect();
            out.sort_unstable();
            Answer::Ids(out)
        }
        QueryRequest::TopK { q, k } => {
            let mut items = positive(&quantification_discrete(set, q), |p| p > 0.0);
            items.truncate(k);
            Answer::Ranked(items.into_iter().map(|(i, p)| (id(i), p)).collect())
        }
        QueryRequest::Threshold { q, tau } => {
            let items = positive(&quantification_discrete(set, q), |p| p >= tau);
            Answer::Ranked(items.into_iter().map(|(i, p)| (id(i), p)).collect())
        }
    }
}

/// `(dense index, π bits)` of the entries `keep` accepts, by decreasing π
/// and then increasing index — the engine's ranking order.
fn positive(pi: &[f64], keep: impl Fn(f64) -> bool) -> Vec<(usize, u64)> {
    let mut items: Vec<(usize, f64)> = pi
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, p)| keep(p))
        .collect();
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.into_iter().map(|(i, p)| (i, p.to_bits())).collect()
}

/// Running tally of checked answers.
#[derive(Default)]
pub struct Check {
    pub checked: [u64; 3],
    pub mismatches: u64,
    /// Mean |NN≠0(q)| over the checked NN≠0 answers.
    nonzero_sizes: (u64, u64),
    first: Option<String>,
}

impl Check {
    /// Compares every `(request, answer)` of `sample` with the oracle over
    /// `set` / `ids`.
    pub fn run(&mut self, set: &DiscreteSet, ids: &[SiteId], sample: &[(QueryRequest, Answer)]) {
        for (req, got) in sample {
            let want = expected(set, ids, req);
            self.checked[crate::gen::family(req)] += 1;
            if let Answer::Ids(v) = &want {
                self.nonzero_sizes.0 += v.len() as u64;
                self.nonzero_sizes.1 += 1;
            }
            if *got != want {
                self.mismatches += 1;
                if self.first.is_none() {
                    self.first = Some(format!("{req:?}: got {got:?}, want {want:?}"));
                }
            }
        }
    }

    pub fn total(&self) -> u64 {
        self.checked.iter().sum()
    }

    pub fn answer_size_mean(&self) -> f64 {
        self.nonzero_sizes.0 as f64 / self.nonzero_sizes.1.max(1) as f64
    }

    /// One line for the run log.
    pub fn summary(&self) -> String {
        let fams: Vec<String> = crate::gen::FAMILIES
            .iter()
            .zip(self.checked)
            .map(|(f, c)| format!("{f}={c}"))
            .collect();
        let mut s = format!(
            "answer check: {} checked ({}), {} mismatched",
            self.total(),
            fams.join(" "),
            self.mismatches
        );
        if let Some(first) = &self.first {
            s.push_str(&format!("; first: {first}"));
        }
        s
    }
}
