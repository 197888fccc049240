//! Answer checks made apart from the serving and training paths, plus
//! properties the method must have. Every check has a self-test that feeds
//! it a corrupted result and requires a rejection.

use std::ops::Range;

use wr_serve::ScoredItem;
use wr_tensor::Tensor;

/// Relative float bound on one f32 inner product of length 32 against its
/// f64 value: `|s32 - s64| <= SCORE_REL * sum_j |u_j v_j|`. The worst-case
/// f32 accumulation error is about `d * 2^-24 ≈ 1.9e-6` of that sum for
/// d = 32, in any summation order; the bound leaves a 5x margin.
pub const SCORE_REL: f64 = 1e-5;

/// Largest tolerated `|mean|` of any whitened column (f64, over all items).
pub const WHITEN_MEAN_TOL: f64 = 1e-3;

/// Largest tolerated residual of the ridge-whitening identity, relative
/// to the largest raw covariance entry (see [`check_whitened`]).
pub const WHITEN_RIDGE_TOL: f64 = 1e-3;

/// The benchmark's own exact scorer: the item table in f64.
pub struct Oracle {
    v: Vec<f64>,
    n: usize,
    d: usize,
}

/// f64 scores of every item for one user, with per-item float bounds.
pub struct Scored {
    pub score: Vec<f64>,
    pub bound: Vec<f64>,
}

impl Oracle {
    pub fn new(items: &Tensor) -> Oracle {
        Oracle {
            v: items.data().iter().map(|&x| x as f64).collect(),
            n: items.rows(),
            d: items.cols(),
        }
    }

    pub fn n_items(&self) -> usize {
        self.n
    }

    pub fn score(&self, user: &[f32]) -> Scored {
        assert_eq!(user.len(), self.d, "user dim vs item dim");
        let u: Vec<f64> = user.iter().map(|&x| x as f64).collect();
        let mut score = Vec::with_capacity(self.n);
        let mut bound = Vec::with_capacity(self.n);
        for row in self.v.chunks_exact(self.d) {
            let (mut s, mut a) = (0.0f64, 0.0f64);
            for (x, y) in u.iter().zip(row) {
                s += x * y;
                a += (x * y).abs();
            }
            score.push(s);
            bound.push(SCORE_REL * a + 1e-30);
        }
        Scored { score, bound }
    }

    /// Exact top-`k` ids inside `range`, excluding `seen`, by descending
    /// f64 score (ascending id on equal scores).
    pub fn top_k(&self, s: &Scored, k: usize, seen: &[usize], range: Range<usize>) -> Vec<usize> {
        let mut ids: Vec<usize> = range.filter(|i| !seen.contains(i)).collect();
        ids.sort_by(|&a, &b| s.score[b].total_cmp(&s.score[a]).then(a.cmp(&b)));
        ids.truncate(k);
        ids
    }
}

/// How many served items agree with the exact top-k, counting an item
/// whose score ties the k-th exact score within the float bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agreement {
    pub hits: usize,
    pub wanted: usize,
}

/// Check one served list against the oracle inside the catalog window
/// `range`: expected length, ids in range, unseen and distinct, each score
/// equal to its f64 value within the bound, order non-increasing. With
/// `exact`, every item must also be in the exact top-k up to ties.
pub fn check_served(
    oracle: &Oracle,
    s: &Scored,
    served: &[ScoredItem],
    seen: &[usize],
    k: usize,
    range: Range<usize>,
    exact: bool,
) -> Result<Agreement, String> {
    let truth = oracle.top_k(s, k, seen, range.clone());
    if served.len() != truth.len() {
        return Err(format!(
            "served {} items, expected {}",
            served.len(),
            truth.len()
        ));
    }
    for (i, it) in served.iter().enumerate() {
        if !range.contains(&it.item) {
            return Err(format!("item {} outside catalog window {range:?}", it.item));
        }
        if seen.contains(&it.item) {
            return Err(format!("seen item {} served", it.item));
        }
        if served[..i].iter().any(|o| o.item == it.item) {
            return Err(format!("item {} served twice", it.item));
        }
        let err = (it.score as f64 - s.score[it.item]).abs();
        if err > s.bound[it.item] {
            return Err(format!(
                "item {} scored {} but its exact score is {} (bound {:e})",
                it.item, it.score, s.score[it.item], s.bound[it.item]
            ));
        }
        if i > 0 && served[i - 1].score < it.score {
            return Err(format!("list not in descending score order at rank {i}"));
        }
    }
    let mut agree = Agreement {
        hits: 0,
        wanted: truth.len(),
    };
    if let Some(&last) = truth.last() {
        let kth = s.score[last];
        for it in served {
            let tie = s.bound[it.item] + s.bound[last];
            if truth.contains(&it.item) || s.score[it.item] >= kth - tie {
                agree.hits += 1;
            } else if exact {
                return Err(format!(
                    "item {} (exact score {}) is outside the exact top-{k} (k-th {})",
                    it.item, s.score[it.item], kth
                ));
            }
        }
    }
    Ok(agree)
}

/// Two answers to one request must be equal bit for bit.
pub fn same_items(a: &[ScoredItem], b: &[ScoredItem]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("lengths differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.item != y.item || x.score.to_bits() != y.score.to_bits() {
            return Err(format!(
                "rank {i}: ({}, {}) vs ({}, {})",
                x.item, x.score, y.item, y.score
            ));
        }
    }
    Ok(())
}

/// Column means and the full `1/n` covariance of a table, in f64 (the
/// whitening fit's own covariance convention).
pub fn moments(table: &Tensor) -> (Vec<f64>, Vec<f64>) {
    let (n, d) = (table.rows(), table.cols());
    let mut mean = vec![0.0f64; d];
    for r in 0..n {
        for (m, &x) in mean.iter_mut().zip(table.row(r)) {
            *m += x as f64;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut cov = vec![0.0f64; d * d];
    let mut c = vec![0.0f64; d];
    for r in 0..n {
        for ((ci, &x), m) in c.iter_mut().zip(table.row(r)).zip(&mean) {
            *ci = x as f64 - m;
        }
        for i in 0..d {
            let ci = c[i];
            for (acc, &cj) in cov[i * d + i..i * d + d].iter_mut().zip(&c[i..]) {
                *acc += ci * cj;
            }
        }
    }
    for i in 0..d {
        for j in i..d {
            let v = cov[i * d + j] / n as f64;
            cov[i * d + j] = v;
            cov[j * d + i] = v;
        }
    }
    (mean, cov)
}

/// What the whitening check measured.
#[derive(Debug, Clone, Copy)]
pub struct WhitenStats {
    pub max_abs_mean: f64,
    pub max_abs_cov_minus_identity: f64,
    pub min_cov_diagonal: f64,
    pub ridge_residual: f64,
}

/// The whitened table must have mean ≈ 0 and the covariance ZCA whitening
/// with ridge `eps` produces. With raw covariance `C`, the fit uses
/// `W = (C + eps I)^(-1/2)`, so the whitened covariance is
/// `Cw = W C W = C (C + eps I)^(-1)`: `I` in directions whose variance
/// dwarfs `eps`, shrunk by `lambda / (lambda + eps)` elsewhere. The check
/// asserts the identity `Cw (C + eps I) = C` to `WHITEN_RIDGE_TOL` of
/// `max |C|`, and that no direction is amplified (`diag Cw <= 1`, within
/// the same tolerance). `raw_cov` is the raw table's covariance.
pub fn check_whitened(raw_cov: &[f64], white: &Tensor, eps: f64) -> Result<WhitenStats, String> {
    let d = white.cols();
    let (mean, cw) = moments(white);
    let scale = raw_cov.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    let mut residual = 0.0f64;
    for i in 0..d {
        for j in 0..d {
            let mut acc = cw[i * d + j] * eps;
            for k in 0..d {
                acc += cw[i * d + k] * raw_cov[k * d + j];
            }
            residual = residual.max((acc - raw_cov[i * d + j]).abs());
        }
    }
    let mut stats = WhitenStats {
        max_abs_mean: mean.iter().fold(0.0f64, |a, m| a.max(m.abs())),
        max_abs_cov_minus_identity: 0.0,
        min_cov_diagonal: f64::INFINITY,
        ridge_residual: residual / scale,
    };
    let mut max_diag = 0.0f64;
    for i in 0..d {
        for j in 0..d {
            let target = if i == j { 1.0 } else { 0.0 };
            stats.max_abs_cov_minus_identity = stats
                .max_abs_cov_minus_identity
                .max((cw[i * d + j] - target).abs());
        }
        stats.min_cov_diagonal = stats.min_cov_diagonal.min(cw[i * d + i]);
        max_diag = max_diag.max(cw[i * d + i]);
    }
    if stats.max_abs_mean.is_nan() || stats.max_abs_mean > WHITEN_MEAN_TOL {
        return Err(format!(
            "whitened column mean {:e} exceeds {WHITEN_MEAN_TOL:e}",
            stats.max_abs_mean
        ));
    }
    if stats.ridge_residual.is_nan() || stats.ridge_residual > WHITEN_RIDGE_TOL {
        return Err(format!(
            "whitened covariance misses C (C + eps I)^-1 by {:e} of max |C| (limit {WHITEN_RIDGE_TOL:e})",
            stats.ridge_residual
        ));
    }
    if max_diag.is_nan() || max_diag > 1.0 + WHITEN_RIDGE_TOL {
        return Err(format!("whitened variance {max_diag} exceeds 1"));
    }
    Ok(stats)
}

/// Whiten the raw text table as WhitenRec+ does (full ZCA, default
/// ridge), check the result and self-test the check.
pub fn whitening(raw: &Tensor, out: &mut crate::Outcome) {
    let eps = wr_whiten::DEFAULT_EPS as f64;
    let white = wr_models::zoo::whiten_full(raw);
    let (_, raw_cov) = moments(raw);
    if let Some(st) = out.check(
        "whitened table moments",
        check_whitened(&raw_cov, &white, eps),
    ) {
        out.fact("whiten_max_abs_mean", st.max_abs_mean);
        out.fact(
            "whiten_max_abs_cov_minus_identity",
            st.max_abs_cov_minus_identity,
        );
        out.fact("whiten_min_cov_diagonal", st.min_cov_diagonal);
        out.fact("whiten_ridge_residual", st.ridge_residual);
    }
    out.check(
        "self-test of the whitening check",
        self_test_whitening(&raw_cov, &white, eps),
    );
}

/// Training loss must stay finite and end below its first-epoch mean.
pub fn check_loss_trace(epoch_means: &[f64]) -> Result<(), String> {
    if epoch_means.len() < 2 {
        return Err("need at least two epochs to judge the loss".into());
    }
    if let Some(bad) = epoch_means.iter().find(|l| !l.is_finite()) {
        return Err(format!("non-finite epoch loss {bad}"));
    }
    let (first, last) = (epoch_means[0], epoch_means[epoch_means.len() - 1]);
    if last >= first {
        return Err(format!(
            "final epoch loss {last} is not below the first {first}"
        ));
    }
    Ok(())
}

/// Expected NDCG@k of a uniformly random ranking of `n_candidates` items
/// with one relevant item.
pub fn random_ndcg(n_candidates: usize, k: usize) -> f64 {
    if n_candidates == 0 {
        return 0.0;
    }
    let gain: f64 = (0..k.min(n_candidates))
        .map(|r| 1.0 / ((r + 2) as f64).log2())
        .sum();
    gain / n_candidates as f64
}

pub fn check_ndcg(ndcg: f64, random: f64) -> Result<(), String> {
    if ndcg.is_nan() || ndcg <= random {
        return Err(format!(
            "NDCG@10 {ndcg} does not exceed the random-ranking expectation {random}"
        ));
    }
    Ok(())
}

/// Feed `check` a corrupted input; it must reject it.
pub fn must_reject<T>(what: &str, outcome: Result<T, String>) -> Result<(), String> {
    match outcome {
        Err(_) => Ok(()),
        Ok(_) => Err(format!("self-test: the check accepted {what}")),
    }
}

/// Self-tests of the serving checks on a real request: the exact answer
/// passes, and four corruptions of it are each rejected.
pub fn self_test_served(
    oracle: &Oracle,
    s: &Scored,
    seen: &[usize],
    k: usize,
) -> Result<(), String> {
    let range = 0..oracle.n_items();
    let truth = oracle.top_k(s, k, seen, range.clone());
    let as_served = |ids: &[usize]| -> Vec<ScoredItem> {
        ids.iter()
            .map(|&i| ScoredItem {
                item: i,
                score: s.score[i] as f32,
            })
            .collect()
    };
    let good = as_served(&truth);
    check_served(oracle, s, &good, seen, k, range.clone(), true)
        .map_err(|e| format!("self-test: the exact answer was rejected: {e}"))?;
    if truth.len() < 2 {
        return Ok(());
    }
    // The worst unseen item in place of the k-th.
    let all = oracle.top_k(s, oracle.n_items(), seen, range.clone());
    let worst = all[all.len() - 1];
    if !truth.contains(&worst) {
        let mut ids = truth.clone();
        *ids.last_mut().expect("len >= 2") = worst;
        let mut swapped = as_served(&ids);
        swapped.sort_by(|a, b| b.score.total_cmp(&a.score));
        must_reject(
            "a list with the worst item swapped in",
            check_served(oracle, s, &swapped, seen, k, range.clone(), true),
        )?;
    }
    let mut shifted = good.clone();
    shifted[0].score += (s.bound[shifted[0].item] * 100.0).max(1e-3) as f32;
    must_reject(
        "a list with a wrong score",
        check_served(oracle, s, &shifted, seen, k, range.clone(), false),
    )?;
    let mut dup = good.clone();
    dup[1] = dup[0];
    must_reject(
        "a list with a duplicate",
        check_served(oracle, s, &dup, seen, k, range.clone(), false),
    )?;
    let mut reversed = good.clone();
    reversed.reverse();
    must_reject(
        "a list in ascending order",
        check_served(oracle, s, &reversed, seen, k, range.clone(), false),
    )?;
    if let Some(&h) = seen.first() {
        let mut with_seen = good.clone();
        with_seen[0] = ScoredItem {
            item: h,
            score: s.score[h] as f32,
        };
        must_reject(
            "a list with a seen item",
            check_served(oracle, s, &with_seen, seen, k, range, false),
        )?;
    }
    let mut flipped = good.clone();
    flipped[0].score = f32::from_bits(flipped[0].score.to_bits() ^ 1);
    must_reject("a bit-flipped score", same_items(&good, &flipped))?;
    Ok(())
}

/// Self-test of the whitening check: a table with one column scaled by
/// 1.5 (its variance becomes 2.25) and one with a shifted column.
pub fn self_test_whitening(raw_cov: &[f64], table: &Tensor, eps: f64) -> Result<(), String> {
    let d = table.cols();
    let mut scaled = table.clone();
    let mut shifted = table.clone();
    for r in 0..table.rows() {
        scaled.row_mut(r)[d / 2] *= 1.5;
        shifted.row_mut(r)[0] += 0.1;
    }
    must_reject(
        "a table with a scaled column",
        check_whitened(raw_cov, &scaled, eps),
    )?;
    must_reject(
        "a table with a shifted column",
        check_whitened(raw_cov, &shifted, eps),
    )
}

/// Self-test of the training checks.
pub fn self_test_training(epoch_means: &[f64], random: f64) -> Result<(), String> {
    let mut nan = epoch_means.to_vec();
    nan.push(f64::NAN);
    must_reject("a loss trace ending in NaN", check_loss_trace(&nan))?;
    let mut rising = epoch_means.to_vec();
    rising.push(epoch_means.first().copied().unwrap_or(0.0) + 1.0);
    must_reject(
        "a loss trace ending above its start",
        check_loss_trace(&rising),
    )?;
    must_reject("NDCG at the random expectation", check_ndcg(random, random))
}
