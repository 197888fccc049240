//! Per-layer measurements, taken from outside: each layer's public
//! function is called and timed on its own. Shared by the traced runs of
//! every workload, so every workload reports every layer at its own
//! catalog size (see README.md for which layers sit on which workload's
//! path).

use std::sync::Arc;

use whitenrec::ExperimentContext;
use wr_ann::IvfIndex;
use wr_data::{Batch, Batcher, DatasetSpec, EvalCase};
use wr_gateway::{Gateway, GatewayConfig};
use wr_serve::{
    batch_top_k, merge_top_k, BatcherConfig, MicroBatcher, Request, ScoredItem, ServeConfig,
};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, AdamConfig, SeqRecModel};
use wr_whiten::{GroupWhitening, WhiteningMethod, DEFAULT_EPS};

use crate::checks::same_items;
use crate::measure::{self, counters, mean, median, ms_since, now_ns, sub_seed, timed, Delta};
use crate::traffic::Traffic;
use crate::workload::{Catalog, MODEL};
use crate::Outcome;

/// Seed streams derived from `--seed`.
pub fn model_seed(seed: u64) -> u64 {
    sub_seed(seed, 11)
}
pub fn query_seed(seed: u64) -> u64 {
    sub_seed(seed, 12)
}
pub fn ivf_seed(seed: u64) -> u64 {
    sub_seed(seed, 13)
}
pub fn train_seed(seed: u64) -> u64 {
    sub_seed(seed, 14)
}

/// The IVF configuration timed on workloads whose serving path has none.
const PROBE_NLIST: usize = 32;
pub const PROBE_NPROBE: usize = 8;

/// Training steps timed on workloads whose main loop is serving.
const PROBE_STEPS: usize = 3;

/// Micro-batches per generated round in the serving-layer phases.
const ROUND_BATCHES: usize = 8;

/// Validation cases in one timed validation pass.
const VALID_CAP: usize = 2000;

/// The optimizer `ExperimentContext::run_warm` trains with.
pub fn adam() -> Adam {
    Adam::new(AdamConfig {
        lr: 1e-3,
        weight_decay: 1e-6,
        ..AdamConfig::default()
    })
}

/// A dataset context with the seeded model configuration.
pub fn context(catalog: &Catalog, seed: u64) -> ExperimentContext {
    let mut ctx = ExperimentContext::from_spec(catalog.spec());
    ctx.model_config.seed = model_seed(seed);
    ctx
}

pub fn gateway_config(ctx: &ExperimentContext, batch: usize, k: usize) -> GatewayConfig {
    GatewayConfig {
        serve: ServeConfig {
            k,
            max_batch: batch,
            max_seq: ctx.model_config.max_seq,
            filter_seen: true,
        },
        ..GatewayConfig::default()
    }
}

/// Contexts as the gateway encodes them (empty history → pad context).
pub fn contexts(reqs: &[Request]) -> Vec<&[usize]> {
    reqs.iter()
        .map(|r| MicroBatcher::sanitize(&r.history))
        .collect()
}

/// A request fails when the gateway flags it degraded or answers with
/// fewer items than the catalog can offer it.
/// Allocation-free: it runs between timed batches.
pub fn is_failed(
    req: &Request,
    items: &[ScoredItem],
    degraded: bool,
    n_items: usize,
    k: usize,
) -> bool {
    let h = &req.history;
    let seen = (0..h.len())
        .filter(|&i| h[i] < n_items && !h[..i].contains(&h[i]))
        .count();
    degraded || items.len() != k.min(n_items - seen)
}

/// Validation cases for one timed pass: a deterministic prefix.
pub fn validation(ctx: &ExperimentContext) -> Vec<EvalCase> {
    ctx.warm
        .validation
        .iter()
        .take(VALID_CAP)
        .cloned()
        .collect()
}

/// One validation pass: NDCG@20 with history exclusion.
pub fn validate(model: &dyn SeqRecModel, cases: &[EvalCase]) -> f64 {
    wr_eval::evaluate_cases(cases, &[20], 256, true, |c| model.score(c)).ndcg_at(20) as f64
}

/// Setup layers: dataset build, the two whitening fits WhitenRec+ makes,
/// model build and one catalog projection. Returns the context and model
/// so the caller measures the rest on the same replica.
pub fn setup_layers(
    catalog: &Catalog,
    seed: u64,
    out: &mut Outcome,
) -> (ExperimentContext, Box<dyn SeqRecModel>) {
    let spec: DatasetSpec = catalog.spec();
    let (_, data_ms) = timed(|| spec.build());
    let ctx = context(catalog, seed);
    let emb = &ctx.dataset.embeddings;
    let (_, full_ms) = timed(|| GroupWhitening::fit(emb, 1, WhiteningMethod::Zca, DEFAULT_EPS));
    let (_, relaxed_ms) =
        timed(|| GroupWhitening::fit(emb, ctx.relaxed_groups, WhiteningMethod::Zca, DEFAULT_EPS));
    let (model, build_ms) = timed(|| ctx.build_model(MODEL));
    let project: Vec<f64> = (0..3)
        .map(|_| timed(|| model.item_representations()).1)
        .collect();
    out.metric("data.build_s", data_ms / 1e3, "s");
    out.metric("whiten.fit_ms", full_ms + relaxed_ms, "ms");
    out.metric("model.build_s", build_ms / 1e3, "s");
    out.metric("catalog.project_ms", median(&project), "ms");
    out.fact("catalog_items", ctx.dataset.n_items());
    out.fact("text_dim", emb.cols());
    out.fact(
        "train_sequences",
        Batcher::new(ctx.warm.train.clone(), 1, 1).n_sequences(),
    );
    (ctx, model)
}

/// The per-shard IVF indices a gateway serves with, or `None`.
pub fn gateway_indices(gateway: &Gateway) -> Option<Vec<(Arc<IvfIndex>, usize)>> {
    gateway
        .shards()
        .iter()
        .map(|s| s.ann_index().map(|i| (i.clone(), s.item_offset())))
        .collect()
}

/// Serving layers on `gateway`, whose model has the same weights as
/// `twin`, for `seconds` of whole rounds. Each micro-batch is served
/// twice, back to back: through the gateway as a caller sees it
/// (untraced; with `record_counters`, process and pool counters are
/// summed around these calls), then stage by stage through the public
/// pieces the gateway calls, each timed: encode, the shard fan-out, the
/// merge. Interleaving keeps machine drift out of the comparison. Score,
/// top-k and the IVF probe over `indices` (index, global offset) are then
/// timed apart on the same encoded users.
#[allow(clippy::too_many_arguments)]
pub fn serving_layers(
    gateway: &Gateway,
    twin: &dyn SeqRecModel,
    traffic: &Traffic,
    batch: usize,
    k: usize,
    seconds: f64,
    indices: &[(Arc<IvfIndex>, usize)],
    nprobe: usize,
    record_counters: bool,
    out: &mut Outcome,
) {
    let n_items = gateway.n_items();
    let packer = MicroBatcher::new(BatcherConfig {
        max_batch: batch,
        max_seq: gateway.config().serve.max_seq,
    });
    let items = twin.item_representations();
    let items_t = items.transpose();
    let catalog_ms: Vec<f64> = (0..3)
        .map(|_| timed(|| twin.item_representations()).1)
        .collect();

    let shards = gateway.shards();
    let mut reqs = traffic.buffer(batch * ROUND_BATCHES);
    let mut counted = Delta::default();
    let (mut untraced, mut traced) = (vec![], vec![]);
    let (mut pack, mut encode, mut shard_max, mut merge) = (vec![], vec![], vec![], vec![]);
    let (mut gemm, mut topk, mut ann) = (vec![], vec![], vec![]);
    let (mut scanned, mut queries) = (0usize, 0usize);
    let end = now_ns() + (seconds * 1e9) as u64;
    let mut round = 0u64;
    loop {
        traffic.fill(round, &mut reqs);
        for chunk in reqs.chunks(batch) {
            let c0 = counters();
            let t0 = now_ns();
            let direct = gateway.serve(chunk);
            untraced.push(ms_since(t0));
            counted.add(Delta::between(&c0, &counters()));
            out.attempted += chunk.len() as u64;
            out.failed += chunk
                .iter()
                .zip(&direct)
                .filter(|(q, r)| is_failed(q, &r.items, r.degraded, n_items, k))
                .count() as u64;

            let t_batch = now_ns();
            let hist: Vec<&[usize]> = chunk.iter().map(|r| r.history.as_slice()).collect();
            let (_, pack_ms) = timed(|| packer.pack(&hist));
            let ctxs = contexts(chunk);
            let (users, enc_ms) = timed(|| twin.user_representations(&ctxs));
            let parts: Vec<(Vec<wr_serve::Response>, f64)> =
                wr_runtime::parallel_map(shards.len(), 1, |s| {
                    let t0 = now_ns();
                    let r = shards[s].serve_encoded(chunk, &users);
                    (r, ms_since(t0))
                });
            let (merged, merge_ms) =
                timed(|| {
                    let mut partials: Vec<Vec<ScoredItem>> = Vec::with_capacity(parts.len());
                    (0..chunk.len())
                        .map(|r| {
                            partials.clear();
                            partials.extend(parts.iter().map(|(p, _)| {
                                p.get(r).map(|x| x.items.clone()).unwrap_or_default()
                            }));
                            merge_top_k(k, &partials)
                        })
                        .collect::<Vec<_>>()
                });
            traced.push(ms_since(t_batch));
            pack.push(pack_ms);
            encode.push(enc_ms);
            shard_max.push(parts.iter().map(|(_, t)| *t).fold(0.0, f64::max));
            merge.push(merge_ms);
            // The stage-by-stage path must answer exactly as the gateway.
            for (m, d) in merged.iter().zip(&direct) {
                out.check("traced path == gateway", same_items(m, &d.items));
            }

            let seen: Vec<&[usize]> = chunk.iter().map(|r| r.history.as_slice()).collect();
            let (scores, gemm_ms) = timed(|| users.matmul(&items_t));
            let (_, topk_ms) = timed(|| batch_top_k(&scores, k, &seen));
            gemm.push(gemm_ms);
            topk.push(topk_ms);
            let t0 = now_ns();
            for (index, offset) in indices {
                for (r, req) in chunk.iter().enumerate() {
                    let local: Vec<usize> = req
                        .history
                        .iter()
                        .filter_map(|&h| h.checked_sub(*offset))
                        .filter(|&h| h < index.n_items())
                        .collect();
                    let (_, stats) = index.search(users.row(r), k, nprobe, &local);
                    scanned += stats.rows_scanned;
                }
            }
            ann.push(ms_since(t0));
            queries += chunk.len();
        }
        round += 1;
        if now_ns() >= end {
            break;
        }
    }
    if record_counters {
        for (name, value, unit) in counted.per_op(untraced.len()) {
            out.metric(name, value, unit);
        }
    }
    let users_dim = items.cols();
    let stage_sum = mean(&encode) + mean(&shard_max) + mean(&merge);
    let untraced_mean = mean(&untraced);
    out.metric("batcher.pack_ms", median(&pack), "ms");
    out.metric("encode.batch_ms", median(&encode), "ms");
    out.metric(
        "encode.catalog_fraction",
        median(&catalog_ms) / median(&encode),
        "ratio",
    );
    out.metric("score.gemm_ms", median(&gemm), "ms");
    out.metric(
        "score.gflops",
        2.0 * batch as f64 * users_dim as f64 * n_items as f64 / (median(&gemm) * 1e6),
        "GFLOP/s",
    );
    out.metric("topk.batch_ms", median(&topk), "ms");
    out.metric("ann.search_ms", median(&ann), "ms");
    let per_query = scanned as f64 / queries.max(1) as f64;
    out.metric("ann.rows_scanned_per_query", per_query, "count");
    out.metric("ann.scan_fraction", per_query / n_items as f64, "ratio");
    out.metric("shard.serve_max_ms", median(&shard_max), "ms");
    out.metric("gateway.merge_ms", median(&merge), "ms");
    out.metric("gateway.overhead_ms", untraced_mean - stage_sum, "ms");
    out.metric("trace.untraced_batch_ms", untraced_mean, "ms");
    out.metric("trace.stage_sum_ms", stage_sum, "ms");
    out.metric(
        "trace.unaccounted_fraction",
        (untraced_mean - stage_sum).abs() / untraced_mean,
        "ratio",
    );
    out.metric("trace.overhead_ms", mean(&traced) - untraced_mean, "ms");
    out.fact("trace_batches", untraced.len());
}

/// Training layers on a fresh model over the context's warm split:
/// one shuffled epoch's batches, `PROBE_STEPS` optimisation steps and one
/// validation pass. Returns the rows of the first batch's loss positions
/// (the training-logits gemm height).
pub fn training_layers(
    ctx: &ExperimentContext,
    seed: u64,
    batch: usize,
    out: &mut Outcome,
) -> usize {
    let mut model = ctx.build_model(MODEL);
    let batcher = Batcher::new(ctx.warm.train.clone(), batch, ctx.model_config.max_seq);
    let mut rng = Rng64::seed_from(train_seed(seed));
    let (batches, batch_ms) = timed(|| batcher.epoch(&mut rng));
    let mut opt = adam();
    let steps: Vec<f64> = batches
        .iter()
        .take(PROBE_STEPS)
        .map(|b| timed(|| model.train_step(b, &mut opt, &mut rng)).1)
        .collect();
    let valid = validation(ctx);
    let (_, eval_ms) = timed(|| validate(model.as_ref(), &valid));
    out.metric("train.batch_ms", batch_ms, "ms");
    out.metric("train.step_ms", median(&steps), "ms");
    out.metric("train.eval_ms", eval_ms, "ms");
    batches
        .first()
        .map(|b: &Batch| b.loss_positions.len())
        .unwrap_or(batch)
}

/// Build a probe IVF index over the catalog and time it.
pub fn probe_index(items: &Tensor, seed: u64, out: &mut Outcome) -> Arc<IvfIndex> {
    let (index, ms) = timed(|| IvfIndex::build(items, PROBE_NLIST, ivf_seed(seed)));
    out.metric("ann.build_s", ms / 1e3, "s");
    Arc::new(index.expect("probe IVF build over a finite catalog"))
}

/// Median wall time of `a · b` over a few repetitions, as GFLOP/s.
fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let mut rng = Rng64::seed_from(0x6E44 ^ (m * 31 + k * 7 + n) as u64);
    let a = Tensor::from_vec((0..m * k).map(|_| rng.normal()).collect(), &[m, k]);
    let b = Tensor::from_vec((0..k * n).map(|_| rng.normal()).collect(), &[k, n]);
    let flops = 2.0 * (m * k * n) as f64;
    let reps = ((2e8 / flops).ceil() as usize).clamp(5, 200);
    let times: Vec<f64> = (0..reps)
        .map(|_| timed(|| std::hint::black_box(a.matmul(std::hint::black_box(&b)))).1)
        .collect();
    flops / (median(&times) * 1e6)
}

/// Gemm throughput at the shapes serving and training run. Flops and
/// bytes come from the shapes.
pub fn kernels(n_items: usize, text_dim: usize, dim: usize, train_rows: usize, out: &mut Outcome) {
    let shapes: [(&'static str, usize, usize, usize); 4] = [
        ("gemm.catalog_project.gflops", n_items, text_dim, dim),
        ("gemm.1280x32x32.gflops", 1280, dim, dim),
        ("gemm.1280x32x64.gflops", 1280, dim, 2 * dim),
        ("gemm.train_logits.gflops", train_rows, dim, n_items),
    ];
    for (name, m, k, n) in shapes {
        out.metric(name, gemm_gflops(m, k, n), "GFLOP/s");
        out.fact(
            &format!("{name}.shape"),
            format!(
                "{m}x{k}x{n} flops={} bytes={}",
                2 * m * k * n,
                4 * (m * k + k * n + m * n)
            ),
        );
    }
}

/// Peak resident set size so far.
pub fn peak_rss_mb() -> f64 {
    measure::usage().max_rss_kb as f64 / 1024.0
}
