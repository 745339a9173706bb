//! Answer verification, run outside every timed region.
//!
//! Exact answers must match the reference bit for bit. An approximate
//! answer must be truthful about its achieved rank (the number of
//! elements below the returned splitter) and its rank error, an approximate
//! top-k threshold can never exceed the exact one, and quantile-stream
//! values must be ordered elements of the dataset.

use sampleselect::{QueryKind, QueryStatus};

/// How one answer checked out.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Exact and bit-identical to the reference.
    Exact,
    /// A requested approximation whose claims hold.
    Honest,
    /// An exact query degraded by its deadline, with a truthful rank.
    Degraded,
    /// The answer claims something the reference contradicts.
    Wrong(String),
    /// The server reported a failure instead of an answer.
    Failed(String),
}

impl Verdict {
    /// True for every verified answer, degraded ones included.
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Exact | Verdict::Honest | Verdict::Degraded)
    }
}

/// Bitwise equality, so `-0.0 != 0.0` and NaN payloads count.
pub fn same_bits(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits()
}

/// A dataset sorted once, answering any rank in O(1).
pub struct Reference {
    sorted: Vec<f32>,
}

impl Reference {
    pub fn new(data: &[f32]) -> Self {
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f32::total_cmp);
        Self { sorted }
    }

    /// The `rank`-th smallest element (0-based).
    pub fn at(&self, rank: u64) -> Option<f32> {
        usize::try_from(rank)
            .ok()
            .and_then(|r| self.sorted.get(r).copied())
    }

    fn contains(&self, v: f32) -> bool {
        self.sorted.binary_search_by(|x| x.total_cmp(&v)).is_ok()
    }

    fn exact(&self, rank: u64, got: f32) -> Verdict {
        match self.at(rank) {
            Some(want) if same_bits(got, want) => Verdict::Exact,
            want => Verdict::Wrong(format!("rank {rank}: got {got}, want {want:?}")),
        }
    }

    /// Whether exactly `achieved_rank` elements lie below `got` and the
    /// claimed error is the distance from the asked `rank`.
    fn truthful(&self, rank: u64, got: f32, achieved_rank: u64, rank_error: u64) -> bool {
        let below = self.sorted.partition_point(|x| x.total_cmp(&got).is_lt()) as u64;
        below == achieved_rank && rank_error == achieved_rank.abs_diff(rank)
    }

    /// Check one service answer against the dataset it was asked of.
    pub fn check(&self, kind: &QueryKind, status: &QueryStatus) -> Verdict {
        let n = self.sorted.len() as u64;
        match (kind, status) {
            (_, QueryStatus::Failed { message }) => Verdict::Failed(message.clone()),
            (QueryKind::Exact { rank }, QueryStatus::Exact { value }) => self.exact(*rank, *value),
            (
                QueryKind::Exact { rank },
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                    deadline_degraded: true,
                },
            ) if self.truthful(*rank, *value, *achieved_rank, *rank_error) => Verdict::Degraded,
            (
                QueryKind::Approx { rank },
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    rank_error,
                    deadline_degraded: false,
                },
            ) if self.truthful(*rank, *value, *achieved_rank, *rank_error) => Verdict::Honest,
            (
                QueryKind::TopK { k },
                QueryStatus::TopK {
                    threshold,
                    k: got_k,
                },
            ) if got_k == k && *k >= 1 && *k <= n => self.exact(n - k, *threshold),
            (
                QueryKind::ApproxTopK { k, .. },
                QueryStatus::ApproxTopK {
                    threshold,
                    k: got_k,
                    expected_recall,
                },
            ) if got_k == k && *k >= 1 && *k <= n => {
                let exact = self.at(n - k).expect("k checked against n");
                let recall_ok = *expected_recall > 0.0 && *expected_recall <= 1.0;
                if *threshold <= exact && recall_ok && self.contains(*threshold) {
                    Verdict::Honest
                } else {
                    Verdict::Wrong(format!(
                        "approx top-{k}: threshold {threshold} vs exact {exact}, recall {expected_recall}"
                    ))
                }
            }
            (QueryKind::QuantileStream { .. }, QueryStatus::QuantileStream { windows, values }) => {
                let ordered = values.windows(2).all(|p| p[0] <= p[1]);
                let members = values.iter().all(|&v| self.contains(v));
                if *windows >= 1 && values.len() == 4 && ordered && members {
                    Verdict::Exact
                } else {
                    Verdict::Wrong(format!(
                        "quantile stream: {windows} windows, values {values:?}"
                    ))
                }
            }
            (kind, status) => Verdict::Wrong(format!("{kind:?} answered with {status:?}")),
        }
    }
}
