//! `train`: a WhitenRec+ fit on the warm split with a fixed epoch count,
//! no early stopping and a validation pass every epoch — the loop of
//! `wr_train::fit`, driven from its public pieces so each step is timed.
//!
//! A run repeats whole fits from the same initial weights until its time
//! is spent; every fit must reproduce the first one's losses bit for bit.

use whitenrec::nn::Param;
use whitenrec::ExperimentContext;
use wr_data::{Batcher, EvalCase};
use wr_gateway::Gateway;
use wr_tensor::{Rng64, Tensor};
use wr_train::SeqRecModel;

use crate::checks::{self, random_ndcg};
use crate::layers::{
    self, adam, context, gateway_config, query_seed, train_seed, validate, validation,
};
use crate::measure::{
    counters, median, ms_since, now_ns, percentile, samples_beyond, timed, Delta,
};
use crate::traffic::{Traffic, TrafficKind};
use crate::workload::{TrainWorkload, MODEL, SETUPS};
use crate::{Args, Outcome};

/// Seconds of the serving-layer probe in a traced `train` run.
const SERVING_PROBE_SECONDS: f64 = 1.0;

struct Ready {
    ctx: ExperimentContext,
    model: Box<dyn SeqRecModel>,
    init: Vec<Tensor>,
    batcher: Batcher,
    valid: Vec<EvalCase>,
}

fn setup(w: &TrainWorkload, seed: u64) -> Ready {
    let ctx = context(&w.catalog, seed);
    let model = ctx.build_model(MODEL);
    // Set-up ends with one catalog projection, as a serving replica's does.
    std::hint::black_box(model.item_representations());
    let init = model.params().iter().map(Param::get).collect();
    let batcher = Batcher::new(ctx.warm.train.clone(), w.batch, ctx.model_config.max_seq);
    let valid = validation(&ctx);
    Ready {
        ctx,
        model,
        init,
        batcher,
        valid,
    }
}

#[derive(Default)]
struct FitLog {
    epoch_loss: Vec<f64>,
    epoch_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    step_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    steps: u64,
    failed: u64,
}

/// One fit from the initial weights; steps with a non-finite loss count
/// as failed and stay out of the epoch mean.
fn fit(r: &mut Ready, w: &TrainWorkload, seed: u64) -> FitLog {
    for (p, t) in r.model.params().iter().zip(&r.init) {
        p.set(t.clone());
    }
    let mut opt = adam();
    let mut rng = Rng64::seed_from(train_seed(seed));
    // Reserved up front: the benchmark allocates nothing between steps.
    let steps = w.epochs * r.batcher.n_sequences().div_ceil(w.batch);
    let mut log = FitLog {
        epoch_loss: Vec::with_capacity(w.epochs),
        epoch_ms: Vec::with_capacity(w.epochs),
        batch_ms: Vec::with_capacity(w.epochs),
        step_ms: Vec::with_capacity(steps),
        eval_ms: Vec::with_capacity(w.epochs),
        ..FitLog::default()
    };
    for _ in 0..w.epochs {
        let t_epoch = now_ns();
        let (batches, batch_ms) = timed(|| r.batcher.epoch(&mut rng));
        let (mut sum, mut n) = (0.0f64, 0usize);
        for b in &batches {
            let (loss, ms) = timed(|| r.model.train_step(b, &mut opt, &mut rng));
            log.step_ms.push(ms);
            log.steps += 1;
            if loss.is_finite() {
                sum += loss as f64;
                n += 1;
            } else {
                log.failed += 1;
            }
        }
        let (_, eval_ms) = timed(|| validate(r.model.as_ref(), &r.valid));
        log.batch_ms.push(batch_ms);
        log.eval_ms.push(eval_ms);
        log.epoch_loss.push(sum / n.max(1) as f64);
        log.epoch_ms.push(ms_since(t_epoch));
    }
    log
}

/// Whole fits until `seconds` are spent. Returns every fit's log.
fn fits(r: &mut Ready, w: &TrainWorkload, args: &Args, out: &mut Outcome) -> Vec<FitLog> {
    let end = now_ns() + (args.seconds * 1e9) as u64;
    let mut logs: Vec<FitLog> = Vec::new();
    loop {
        let log = fit(r, w, args.seed);
        out.attempted += log.steps;
        out.failed += log.failed;
        if let Some(first) = logs.first() {
            let same = first
                .epoch_loss
                .iter()
                .zip(&log.epoch_loss)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                out.errors.push(format!(
                    "fit {} losses {:?} differ from the first fit's {:?}",
                    logs.len(),
                    log.epoch_loss,
                    first.epoch_loss
                ));
            }
        }
        logs.push(log);
        if now_ns() >= end {
            break;
        }
    }
    logs
}

pub fn run(w: &TrainWorkload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(w, args, &mut out);
    } else {
        untraced(w, args, &mut out);
    }
    out
}

fn untraced(w: &TrainWorkload, args: &Args, out: &mut Outcome) {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for i in 0..SETUPS {
        drop(ready.take());
        let t0 = if i == 0 { 0 } else { now_ns() };
        ready = Some(setup(w, args.seed));
        setup_s.push(ms_since(t0) / 1e3);
    }
    let Some(mut r) = ready else {
        out.errors.push("no training setup built".into());
        return;
    };
    let logs = fits(&mut r, w, args, out);
    let steps: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.step_ms.iter().copied())
        .collect();
    let epoch_rate: Vec<f64> = logs
        .iter()
        .flat_map(|l| {
            l.epoch_ms
                .iter()
                .map(|ms| r.batcher.n_sequences() as f64 / (ms / 1e3))
        })
        .collect();

    // Quality and checks, on the last fit's final weights.
    let test = &r.ctx.warm.test;
    let n_items = r.ctx.dataset.n_items();
    let ndcg =
        wr_eval::evaluate_cases(test, &[10], 256, true, |c| r.model.score(c)).ndcg_at(10) as f64;
    let random = test
        .iter()
        .map(|c| {
            let mut ctx_items: Vec<usize> = c
                .context
                .iter()
                .copied()
                .filter(|&i| i != c.target)
                .collect();
            ctx_items.sort_unstable();
            ctx_items.dedup();
            random_ndcg(n_items - ctx_items.len(), 10)
        })
        .sum::<f64>()
        / test.len().max(1) as f64;
    let first = &logs[0];
    out.check("training loss", checks::check_loss_trace(&first.epoch_loss));
    out.check("NDCG@10 above random", checks::check_ndcg(ndcg, random));
    out.check(
        "self-test of the training checks",
        checks::self_test_training(&first.epoch_loss, random),
    );
    checks::whitening(&r.ctx.dataset.embeddings, out);

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("throughput", median(&epoch_rate), "1/s");
    out.metric("latency_p50_ms", median(&steps), "ms");
    out.metric("latency_tail_ms", percentile(&steps, w.tail_pct), "ms");
    out.metric("quality", ndcg, "ratio");
    out.metric("peak_rss_mb", layers::peak_rss_mb(), "MB");

    out.fact("catalog_items", n_items);
    out.fact("train_sequences", r.batcher.n_sequences());
    out.fact("fits", logs.len());
    out.fact("steps", steps.len());
    out.fact("tail_percentile", w.tail_pct);
    out.fact(
        "tail_samples_beyond",
        samples_beyond(steps.len(), w.tail_pct),
    );
    out.fact("epoch_loss", format!("{:?}", first.epoch_loss));
    out.fact("ndcg10_random_expectation", random);
    out.fact("test_cases", test.len());
    out.fact("setup_s_all", format!("{setup_s:?}"));
}

fn traced(w: &TrainWorkload, args: &Args, out: &mut Outcome) {
    let (ctx, model) = layers::setup_layers(&w.catalog, args.seed, out);
    let index = layers::probe_index(&model.item_representations(), args.seed, out);
    drop(model);
    let mut r = setup(w, args.seed);
    let before = counters();
    let logs = fits(&mut r, w, args, out);
    let after = counters();
    let steps: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.step_ms.iter().copied())
        .collect();
    for (name, value, unit) in Delta::between(&before, &after).per_op(steps.len()) {
        out.metric(name, value, unit);
    }
    let all = |f: fn(&FitLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (batch_ms, eval_ms, epoch_ms) = (
        all(|l| &l.batch_ms),
        all(|l| &l.eval_ms),
        all(|l| &l.epoch_ms),
    );
    out.metric("train.batch_ms", median(&batch_ms), "ms");
    out.metric("train.step_ms", median(&steps), "ms");
    out.metric("train.eval_ms", median(&eval_ms), "ms");
    let staged: f64 = batch_ms.iter().chain(&steps).chain(&eval_ms).sum();
    out.fact(
        "train_stage_coverage",
        staged / epoch_ms.iter().sum::<f64>(),
    );

    // Serving layers at this catalog size, on a seeded (untrained) replica.
    let n_items = ctx.dataset.n_items();
    match Gateway::partitioned(ctx.build_model(MODEL), 1, gateway_config(&ctx, 64, 10)) {
        Ok(gateway) => {
            let twin = ctx.build_model(MODEL);
            let load = Traffic::new(
                TrafficKind::Fresh,
                n_items,
                ctx.model_config.max_seq,
                query_seed(args.seed),
            );
            layers::serving_layers(
                &gateway,
                twin.as_ref(),
                &load,
                64,
                10,
                SERVING_PROBE_SECONDS,
                &[(index, 0)],
                layers::PROBE_NPROBE,
                false,
                out,
            );
        }
        Err(e) => out.errors.push(e.to_string()),
    }
    let train_rows = r
        .batcher
        .epoch(&mut Rng64::seed_from(train_seed(args.seed)))
        .first()
        .map_or(w.batch, |b| b.loss_positions.len());
    layers::kernels(
        n_items,
        ctx.dataset.embeddings.cols(),
        ctx.model_config.dim,
        train_rows,
        out,
    );
}
