//! The query generator: closed-loop rounds of micro-batches.
//!
//! Histories follow `wr_serve::QueryLog::synthetic`'s conventions (length
//! uniform in `0..=max_len`, items uniform over `1..n_items`). Two kinds:
//!
//! * `Zipf`: users are drawn Zipf(alpha) over a fixed universe, and a
//!   user's session is a pure function of `(seed, user)`, so hot users
//!   repeat their sessions across the whole run;
//! * `Fresh`: every query is a new session under a new id, so none repeats.
//!
//! Round `r` is a pure function of `(seed, r)`. It is written into request
//! buffers allocated once before timing, so the generator allocates
//! nothing while the program is measured and leaves the program's heap to
//! the program; statistics are computed afterwards by regenerating rounds.

use std::collections::BTreeSet;

use wr_serve::Request;
use wr_tensor::Rng64;

use crate::measure::{fnv1a, sub_seed};

#[derive(Debug, Clone, Copy)]
pub enum TrafficKind {
    Zipf { users: usize, alpha: f64 },
    Fresh,
}

pub struct Traffic {
    kind: TrafficKind,
    n_items: usize,
    max_len: usize,
    seed: u64,
    /// Zipf prefix sums over user ranks.
    cdf: Vec<f64>,
}

/// The make-up of the first rounds of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficStats {
    pub queries: u64,
    /// Queries whose (user, session) pair was already sent earlier.
    pub repeated: u64,
    pub empty: u64,
    pub history_items: u64,
}

impl Traffic {
    pub fn new(kind: TrafficKind, n_items: usize, max_len: usize, seed: u64) -> Traffic {
        let cdf = match kind {
            TrafficKind::Zipf { users, alpha } => {
                let mut total = 0.0f64;
                (0..users)
                    .map(|rank| {
                        total += ((rank + 1) as f64).powf(-alpha);
                        total
                    })
                    .collect()
            }
            TrafficKind::Fresh => Vec::new(),
        };
        Traffic {
            kind,
            n_items,
            max_len,
            seed,
            cdf,
        }
    }

    /// `n` requests whose history buffers hold `max_len` items.
    pub fn buffer(&self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| Request {
                id: 0,
                history: Vec::with_capacity(self.max_len),
            })
            .collect()
    }

    fn fill_history(&self, rng: &mut Rng64, history: &mut Vec<usize>) {
        history.clear();
        let len = rng.below(self.max_len + 1);
        history.extend((0..len).map(|_| 1 + rng.below(self.n_items - 1)));
    }

    /// Overwrite `reqs` with round `r`, reusing their history buffers.
    pub fn fill(&self, r: u64, reqs: &mut [Request]) {
        let mut rng = Rng64::seed_from(sub_seed(self.seed, 1000 + r));
        let n = reqs.len() as u64;
        for (i, req) in reqs.iter_mut().enumerate() {
            match self.kind {
                TrafficKind::Zipf { .. } => {
                    let total = self.cdf.last().copied().unwrap_or(1.0);
                    let target = rng.uniform() as f64 * total;
                    let user = self
                        .cdf
                        .partition_point(|&c| c <= target)
                        .min(self.cdf.len() - 1);
                    let mut session = Rng64::seed_from(
                        self.seed ^ (user as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    req.id = user as u64;
                    self.fill_history(&mut session, &mut req.history);
                }
                TrafficKind::Fresh => {
                    req.id = r * n + i as u64;
                    self.fill_history(&mut rng, &mut req.history);
                }
            }
        }
    }

    /// Statistics of rounds `0..rounds` of `n` requests each.
    pub fn stats(&self, rounds: u64, n: usize) -> TrafficStats {
        let mut buf = self.buffer(n);
        let mut seen = BTreeSet::new();
        let mut st = TrafficStats::default();
        for r in 0..rounds {
            self.fill(r, &mut buf);
            for q in &buf {
                let mut bytes: Vec<u8> = q.id.to_le_bytes().to_vec();
                bytes.extend(q.history.iter().flat_map(|&h| (h as u64).to_le_bytes()));
                if !seen.insert(fnv1a(&bytes)) {
                    st.repeated += 1;
                }
                st.queries += 1;
                st.empty += q.history.is_empty() as u64;
                st.history_items += q.history.len() as u64;
            }
        }
        st
    }
}
