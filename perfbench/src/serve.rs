//! `serve-small` and `serve-large`: closed-loop micro-batches through
//! `wr_gateway::Gateway` from one caller thread.
//!
//! Replicas are built as a deployment builds them: dataset, whitening and
//! a model with seeded weights, with no training in the process. Weight
//! values do not change the work serving does, while training in-process
//! changes the allocator state serving then runs in.

use whitenrec::nn::Param;
use whitenrec::ExperimentContext;
use wr_gateway::{Gateway, GatewayResponse};
use wr_serve::Request;
use wr_tensor::Tensor;
use wr_train::{fit, TrainConfig};

use crate::checks::{self, check_served, must_reject, same_items, Agreement, Oracle};
use crate::layers::{
    self, context, contexts, gateway_config, gateway_indices, is_failed, ivf_seed, query_seed,
};
use crate::measure::{
    counters, fnv_word, median, ms_since, now_ns, percentile, samples_beyond, sub_seed, Delta,
};
use crate::traffic::Traffic;
use crate::workload::{ServeWorkload, MODEL, SETUPS};
use crate::{Args, Outcome};

/// Micro-batches of round 0 whose answers are checked against the oracle.
const CHECK_BATCHES: usize = 8;
/// Requests re-served alone and compared with their in-batch answers.
const ALONE_SAMPLE: usize = 8;
/// Requests whose full-probe IVF answer is compared with the oracle.
const FULL_PROBE_SAMPLE: usize = 16;
/// Batches served before timing starts (pool spawn, first-touch pages).
const WARMUP_BATCHES: usize = 4;
/// Capacity reserved for per-batch timings; a run that outgrows it only
/// reallocates.
const MAX_BATCHES: usize = 1 << 16;

struct Replica {
    ctx: ExperimentContext,
    gateway: Gateway,
    /// The weights the gateway's model holds, for an independent twin.
    weights: Vec<Tensor>,
}

/// Build a replica with seeded weights; with `train_epochs > 0` the model
/// is first trained in this process (the replica-state comparison in
/// README.md; no workload does this).
fn build_replica(w: &ServeWorkload, seed: u64, train_epochs: usize) -> Result<Replica, String> {
    let ctx = context(&w.catalog, seed);
    let mut model = ctx.build_model(MODEL);
    if train_epochs > 0 {
        let config = TrainConfig {
            max_epochs: train_epochs,
            ..ctx.train_config
        };
        fit(
            &mut model,
            &mut layers::adam(),
            ctx.warm.train.clone(),
            &layers::validation(&ctx),
            config,
            |_, _| {},
        );
    }
    let weights = model.params().iter().map(Param::get).collect();
    let gateway = Gateway::partitioned(model, w.shards, gateway_config(&ctx, w.batch, w.k))
        .map_err(|e| e.to_string())?;
    let gateway = match w.ivf {
        Some(ivf) => gateway
            .with_ann(ivf.nlist, ivf.nprobe, ivf_seed(seed))
            .map_err(|e| e.to_string())?,
        None => gateway,
    };
    Ok(Replica {
        ctx,
        gateway,
        weights,
    })
}

fn traffic(w: &ServeWorkload, ctx: &ExperimentContext, n_items: usize, seed: u64) -> Traffic {
    Traffic::new(w.traffic, n_items, ctx.model_config.max_seq, seed)
}

/// Serve a few batches of a separate stream before anything is timed.
fn warm_up(w: &ServeWorkload, ctx: &ExperimentContext, gateway: &Gateway, seed: u64) {
    let warm = traffic(w, ctx, gateway.n_items(), sub_seed(seed, 99));
    let mut reqs = warm.buffer(WARMUP_BATCHES * w.batch);
    warm.fill(0, &mut reqs);
    for chunk in reqs.chunks(w.batch) {
        gateway.serve(chunk);
    }
}

/// Digest of one answer: id, degraded flag, items and score bits.
fn response_digest(r: &GatewayResponse) -> u64 {
    let mut h = fnv_word(0xcbf2_9ce4_8422_2325, r.id);
    h = fnv_word(h, r.degraded as u64);
    for it in &r.items {
        h = fnv_word(fnv_word(h, it.item as u64), it.score.to_bits() as u64);
    }
    h
}

pub fn run(w: &ServeWorkload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(w, args, &mut out);
    } else if let Err(e) = untraced(w, args, &mut out) {
        out.errors.push(e);
    }
    out
}

fn untraced(w: &ServeWorkload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut replica = None;
    for i in 0..SETUPS {
        drop(replica.take());
        // The first build counts from process start.
        let t0 = if i == 0 { 0 } else { now_ns() };
        replica = Some(build_replica(w, args.seed, args.train_epochs)?);
        setup_s.push(ms_since(t0) / 1e3);
    }
    let Replica {
        ctx,
        gateway,
        weights,
    } = replica.ok_or("no replica built")?;
    let n_items = gateway.n_items();

    let load = traffic(w, &ctx, n_items, query_seed(args.seed));
    warm_up(w, &ctx, &gateway, args.seed);

    // Everything the timed loop writes is allocated here, so that while the
    // program is measured the benchmark allocates nothing of its own.
    let mut reqs = load.buffer(w.round_batches * w.batch);
    let mut batch_ms: Vec<f64> = Vec::with_capacity(MAX_BATCHES);
    let mut round_qps: Vec<f64> = Vec::with_capacity(MAX_BATCHES / w.round_batches);
    let mut digests: Vec<u64> = Vec::with_capacity(CHECK_BATCHES * w.batch);
    let before = counters();
    let end = now_ns() + (args.seconds * 1e9) as u64;
    let mut round = 0u64;
    loop {
        load.fill(round, &mut reqs);
        let first = batch_ms.len();
        for (b, chunk) in reqs.chunks(w.batch).enumerate() {
            let t0 = now_ns();
            let resp = gateway.serve(chunk);
            batch_ms.push(ms_since(t0));
            out.attempted += chunk.len() as u64;
            out.failed += chunk
                .iter()
                .zip(&resp)
                .filter(|(q, r)| is_failed(q, &r.items, r.degraded, n_items, w.k))
                .count() as u64;
            if round == 0 && b < CHECK_BATCHES {
                digests.extend(resp.iter().map(response_digest));
            }
        }
        round_qps.push(reqs.len() as f64 / (batch_ms[first..].iter().sum::<f64>() / 1e3));
        round += 1;
        if now_ns() >= end {
            break;
        }
    }
    let after = counters();
    for (name, value, _) in Delta::between(&before, &after).per_op(batch_ms.len()) {
        out.fact(name, value);
    }

    // Round 0's first batches again: the answers must be the ones served
    // while timed, and they are then checked against the oracle.
    load.fill(0, &mut reqs);
    let mut kept: Vec<(Vec<Request>, Vec<GatewayResponse>)> = Vec::new();
    for chunk in reqs.chunks(w.batch).take(CHECK_BATCHES) {
        kept.push((chunk.to_vec(), gateway.serve(chunk)));
    }
    let again: Vec<u64> = kept
        .iter()
        .flat_map(|(_, r)| r.iter().map(response_digest))
        .collect();
    if again != digests {
        out.errors
            .push("round 0 answers differ between the timed window and a second serve".into());
    }
    let quality = verify(w, &ctx, &gateway, &weights, &kept, out);
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("throughput", median(&round_qps), "1/s");
    out.metric("latency_p50_ms", median(&batch_ms), "ms");
    out.metric("latency_tail_ms", percentile(&batch_ms, w.tail_pct), "ms");
    out.metric("quality", quality, "ratio");
    out.metric("peak_rss_mb", layers::peak_rss_mb(), "MB");

    out.fact("catalog_items", n_items);
    out.fact("batches", batch_ms.len());
    out.fact("rounds", round_qps.len());
    out.fact(
        "mean_throughput",
        out.attempted as f64 / (batch_ms.iter().sum::<f64>() / 1e3),
    );
    out.fact("tail_percentile", w.tail_pct);
    out.fact(
        "tail_samples_beyond",
        samples_beyond(batch_ms.len(), w.tail_pct),
    );
    let st = load.stats(round, w.round_batches * w.batch);
    out.fact(
        "repeated_session_share",
        st.repeated as f64 / st.queries.max(1) as f64,
    );
    out.fact(
        "empty_history_share",
        st.empty as f64 / st.queries.max(1) as f64,
    );
    out.fact(
        "mean_history_len",
        st.history_items as f64 / st.queries.max(1) as f64,
    );
    out.fact("setup_s_all", format!("{setup_s:?}"));
    out.fact("replica_trained_epochs", args.train_epochs);
    Ok(())
}

/// Check the kept answers and return recall@k against the exact oracle.
fn verify(
    w: &ServeWorkload,
    ctx: &ExperimentContext,
    gateway: &Gateway,
    weights: &[Tensor],
    kept: &[(Vec<Request>, Vec<GatewayResponse>)],
    out: &mut Outcome,
) -> f64 {
    // A second model with the gateway's weights, apart from the gateway.
    let twin = ctx.build_model(MODEL);
    for (p, t) in twin.params().iter().zip(weights) {
        p.set(t.clone());
    }
    let oracle = Oracle::new(&twin.item_representations());
    let n_items = oracle.n_items();
    let exact = w.ivf.is_none();
    let mut total = Agreement::default();
    let mut self_tested = false;
    for (reqs, resps) in kept {
        let users = twin.user_representations(&contexts(reqs));
        for (r, (req, resp)) in reqs.iter().zip(resps).enumerate() {
            if is_failed(req, &resp.items, resp.degraded, n_items, w.k) {
                continue;
            }
            let s = oracle.score(users.row(r));
            let name = format!("oracle top-{} for request {}", w.k, req.id);
            if let Some(a) = out.check(
                &name,
                check_served(
                    &oracle,
                    &s,
                    &resp.items,
                    &req.history,
                    w.k,
                    0..n_items,
                    exact,
                ),
            ) {
                total.hits += a.hits;
                total.wanted += a.wanted;
            }
            if !self_tested && req.history.len() >= 2 {
                out.check(
                    "self-test of the serving checks",
                    checks::self_test_served(&oracle, &s, &req.history, w.k),
                );
                self_tested = true;
            }
        }
    }
    if !self_tested {
        out.errors
            .push("no request was eligible for the serving self-test".into());
    }

    // Served alone == served inside its batch.
    if let Some((reqs, resps)) = kept.first() {
        let stride = (reqs.len() / ALONE_SAMPLE).max(1);
        for (req, resp) in reqs.iter().zip(resps).step_by(stride).take(ALONE_SAMPLE) {
            let alone = gateway.serve(std::slice::from_ref(req));
            let got = alone.first().map(|a| a.items.as_slice()).unwrap_or(&[]);
            out.check(
                &format!("request {} alone == in batch", req.id),
                same_items(got, &resp.items),
            );
        }
    }

    if let Some(indices) = gateway_indices(gateway) {
        full_probe(w, &oracle, twin.as_ref(), &indices, kept, out);
    }

    checks::whitening(&ctx.dataset.embeddings, out);

    if total.wanted == 0 {
        out.errors.push("no served answer was checked".into());
        return f64::NAN;
    }
    total.hits as f64 / total.wanted as f64
}

/// IVF at `nprobe = nlist` must return the exact top-k of each window.
fn full_probe(
    w: &ServeWorkload,
    oracle: &Oracle,
    twin: &dyn wr_train::SeqRecModel,
    indices: &[(std::sync::Arc<wr_ann::IvfIndex>, usize)],
    kept: &[(Vec<Request>, Vec<GatewayResponse>)],
    out: &mut Outcome,
) {
    let Some((reqs, _)) = kept.first() else {
        return;
    };
    let reqs = &reqs[..FULL_PROBE_SAMPLE.min(reqs.len())];
    let users = twin.user_representations(&contexts(reqs));
    for (index, offset) in indices {
        let window = *offset..*offset + index.n_items();
        for (r, req) in reqs.iter().enumerate() {
            let local: Vec<usize> = req
                .history
                .iter()
                .filter(|h| window.contains(h))
                .map(|h| h - offset)
                .collect();
            let (found, _) = index.search(users.row(r), w.k, index.nlist(), &local);
            let global: Vec<wr_serve::ScoredItem> = found
                .iter()
                .map(|s| wr_serve::ScoredItem {
                    item: s.item + offset,
                    score: s.score,
                })
                .collect();
            let s = oracle.score(users.row(r));
            let name = format!(
                "full-probe IVF == exact for request {} in window {window:?}",
                req.id
            );
            out.check(
                &name,
                check_served(oracle, &s, &global, &req.history, w.k, window.clone(), true),
            );
            if r == 0 && global.len() >= 2 {
                // Drop the best item and append the next one down.
                let truth = oracle.top_k(&s, w.k + 1, &req.history, window.clone());
                let mut shifted: Vec<wr_serve::ScoredItem> = global[1..].to_vec();
                if let Some(&next) = truth.get(w.k) {
                    shifted.push(wr_serve::ScoredItem {
                        item: next,
                        score: s.score[next] as f32,
                    });
                    out.check(
                        "self-test of the full-probe check",
                        must_reject(
                            "a full-probe answer missing its best item",
                            check_served(
                                oracle,
                                &s,
                                &shifted,
                                &req.history,
                                w.k,
                                window.clone(),
                                true,
                            ),
                        ),
                    );
                }
            }
        }
    }
}

fn traced(w: &ServeWorkload, args: &Args, out: &mut Outcome) {
    let (ctx, model) = layers::setup_layers(&w.catalog, args.seed, out);
    let gateway = match Gateway::partitioned(model, w.shards, gateway_config(&ctx, w.batch, w.k)) {
        Ok(g) => g,
        Err(e) => {
            out.errors.push(e.to_string());
            return;
        }
    };
    let twin = ctx.build_model(MODEL);
    let (gateway, indices, nprobe) = match w.ivf {
        Some(ivf) => {
            let t0 = now_ns();
            let built = gateway.with_ann(ivf.nlist, ivf.nprobe, ivf_seed(args.seed));
            out.metric("ann.build_s", ms_since(t0) / 1e3, "s");
            match built {
                Ok(g) => {
                    let indices = gateway_indices(&g).unwrap_or_default();
                    (g, indices, ivf.nprobe)
                }
                Err(e) => {
                    out.errors.push(e.to_string());
                    return;
                }
            }
        }
        None => {
            let index = layers::probe_index(&twin.item_representations(), args.seed, out);
            (gateway, vec![(index, 0)], layers::PROBE_NPROBE)
        }
    };
    let n_items = gateway.n_items();
    warm_up(w, &ctx, &gateway, args.seed);
    let load = traffic(w, &ctx, n_items, query_seed(args.seed));
    layers::serving_layers(
        &gateway,
        twin.as_ref(),
        &load,
        w.batch,
        w.k,
        args.seconds,
        &indices,
        nprobe,
        true,
        out,
    );
    let train_rows = layers::training_layers(&ctx, args.seed, 256, out);
    layers::kernels(
        n_items,
        ctx.dataset.embeddings.cols(),
        ctx.model_config.dim,
        train_rows,
        out,
    );
}
