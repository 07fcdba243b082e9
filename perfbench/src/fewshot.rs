//! `fewshot`: pre-train on N1's five source devices, then `transfer_all`
//! with 20 samples to its five unseen GPUs.

use std::time::Instant;

use nasflat::core::{
    fine_tune, hw_init_from_correlation, predict_indices, train_step_on, DeviceSamples,
    PretrainedTask, TrainContext, TrainTape,
};
use nasflat::sample::SamplerContext;
use nasflat::tensor::{kernels, AdamConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace;
use crate::util::{median, spearman};
use crate::world::{Ctx, Data, Samples, SHOTS};

/// `transfer_all` runs per pre-training: the transfer is the noisier of
/// the two timings, so it gets more samples.
const TRANSFERS: usize = 2;

/// The phase's state across its rounds.
pub struct FewShot<'a> {
    data: &'a Data,
    pretrain: Samples,
    transfer: Samples,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    /// Round 0's per-target Spearman bits; every later round must match.
    reported: Option<Vec<u32>>,
    /// Round 0's pre-trained task and its transfer wall time, kept for the
    /// quality check and the layer probes.
    first: Option<(PretrainedTask<'a>, f64)>,
    rounds: usize,
    main: bool,
}

impl<'a> FewShot<'a> {
    pub fn new(data: &'a Data, main: bool) -> Self {
        FewShot {
            data,
            pretrain: Samples::default(),
            transfer: Samples::default(),
            traced: Vec::new(),
            untraced: Vec::new(),
            reported: None,
            first: None,
            rounds: 0,
            main,
        }
    }

    /// Adds the raw time of a set-up's pre-training, the same call on the
    /// same inputs as a round's, to the `pretrain_ms` samples.
    pub fn record_pretrain(&mut self, raw_ms: f64) {
        self.pretrain.push(raw_ms);
    }

    /// One pre-training and `TRANSFERS` runs of `transfer_all` from it,
    /// each timed.
    pub fn round(&mut self, ctx: &mut Ctx) {
        let tracing = ctx.trace_round(self.main, self.rounds);
        trace::set_enabled(tracing);
        let data = self.data;
        let (mut pre, t_pre) = ctx.clock.time(|| data.pretrain());
        ctx.attempted += 1;
        self.pretrain.push(t_pre);
        let mut round_ms = t_pre;
        let mut first_xfer = 0.0;
        for i in 0..TRANSFERS {
            let (outcome, t_xfer) = ctx
                .clock
                .time(|| trace::span("core.transfer_all", 0, || pre.transfer_all(ctx.seed)));
            ctx.attempted += 1;
            self.transfer.push(t_xfer);
            round_ms += t_xfer;
            if i == 0 {
                first_xfer = t_xfer;
            }
            match outcome {
                Ok(outcome) => {
                    // The same seed must give the same transfers every time.
                    let bits: Vec<u32> = outcome
                        .devices
                        .iter()
                        .map(|d| d.spearman.to_bits())
                        .collect();
                    match &self.reported {
                        None => self.reported = Some(bits),
                        Some(first) => ctx.check(*first == bits, || {
                            format!(
                                "fewshot round {} transfer {i}: transfer_all differs from round 0",
                                self.rounds
                            )
                        }),
                    }
                }
                Err(e) => {
                    ctx.failed += 1;
                    ctx.check(false, || format!("transfer_all failed: {e}"));
                }
            }
        }
        let overhead = if tracing {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        overhead.push(round_ms);
        if self.first.is_none() {
            self.first = Some((pre, first_xfer));
        }
        self.rounds += 1;
        trace::set_enabled(ctx.trace);
    }

    /// Checks quality on round 0's task, runs the layer probes in a traced
    /// run, and reports the phase's metrics.
    pub fn finish(self, ctx: &mut Ctx) {
        let quality = match self.first {
            Some((mut pre, transfer_all_ms)) => {
                let quality = check_quality(ctx, self.data, &mut pre);
                if ctx.trace {
                    probe_layers(ctx, self.data, &mut pre, transfer_all_ms);
                }
                quality
            }
            None => f64::NAN,
        };
        let scale = ctx.clock.scale();
        eprintln!("fewshot: pretrain {}", self.pretrain.summary(scale));
        eprintln!("fewshot: transfer_all {}", self.transfer.summary(scale));
        if self.main {
            ctx.report_overhead(&self.traced, &self.untraced);
        }
        ctx.end_to_end
            .put("pretrain_ms", self.pretrain.gmean() * scale, "ms");
        ctx.end_to_end
            .put("transfer_ms", self.transfer.gmean() * scale, "ms");
        ctx.end_to_end.put("spearman", quality, "score");
    }
}

/// The transfer set `transfer_all(seed)` samples for target `t`.
fn transfer_set(data: &Data, seed: u64, t: usize) -> Vec<usize> {
    let row = data
        .table
        .device_row(&data.task.test[t])
        .expect("N1 target in table");
    let sctx = SamplerContext::new(&data.pool)
        .with_encodings(&data.suite)
        .with_target_latencies(row);
    let mut rng = StdRng::seed_from_u64(Data::target_seed(seed, t));
    trace::span("sample.select", 0, || {
        data.cfg.sampler.select(SHOTS, &sctx, &mut rng)
    })
    .expect("the CAZ sampler selects from the N1 pool")
}

/// Held-out Spearman of the transferred predictor, computed here from
/// `transfer_predict` outputs against the latency table, per target; the
/// mean must beat the FLOPs proxy's mean on the same sets. Returns the mean.
fn check_quality(ctx: &mut Ctx, data: &Data, pre: &mut PretrainedTask<'_>) -> f64 {
    let (mut ours, mut flops) = (Vec::new(), Vec::new());
    for (t, target) in data.task.test.iter().enumerate() {
        let picked = transfer_set(data, ctx.seed, t);
        let held_out: Vec<usize> = (0..data.pool.len())
            .filter(|i| !picked.contains(i))
            .collect();
        let row = data.table.device_row(target).expect("N1 target in table");
        ctx.attempted += 1;
        let scores = match pre.transfer_predict(
            target,
            &data.cfg.sampler,
            Data::target_seed(ctx.seed, t),
            &held_out,
        ) {
            Ok(s) => s,
            Err(e) => {
                ctx.failed += 1;
                ctx.check(false, || format!("transfer_predict({target}) failed: {e}"));
                continue;
            }
        };
        let truth: Vec<f64> = held_out.iter().map(|&i| row[i] as f64).collect();
        let pred: Vec<f64> = scores.iter().map(|&s| s as f64).collect();
        let proxy: Vec<f64> = held_out
            .iter()
            .map(|&i| data.pool[i].cost_profile().total_flops)
            .collect();
        let (rho, rho_flops) = (spearman(&pred, &truth), spearman(&proxy, &truth));
        eprintln!(
            "  {target:<24} held-out {:>3}: Spearman {rho:.4} (FLOPs proxy {rho_flops:.4})",
            held_out.len()
        );
        ours.push(rho);
        flops.push(rho_flops);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (m, mf) = (mean(&ours), mean(&flops));
    eprintln!("fewshot quality: mean Spearman {m:.4} vs FLOPs proxy {mf:.4}");
    ctx.check(ours.len() == data.task.test.len() && m > mf, || {
        format!("mean held-out Spearman {m:.4} does not beat the FLOPs proxy {mf:.4}")
    });
    m
}

/// Per-layer probes: the calls `transfer_all` and pre-training make, each
/// timed from outside through its public function.
fn probe_layers(ctx: &mut Ctx, data: &Data, pre: &mut PretrainedTask<'_>, transfer_all_ms: f64) {
    let tctx = TrainContext::with_suite(&data.pool, &data.suite);
    let t = (ctx.seed as usize) % data.task.test.len();
    let target = &data.task.test[t];
    let device = data.device_index(t);
    let row = data.table.device_row(target).expect("N1 target in table");
    let picked = transfer_set(data, ctx.seed, t);
    let raw: Vec<(usize, f32)> = picked.iter().map(|&i| (i, row[i])).collect();
    let held_out: Vec<usize> = (0..data.pool.len())
        .filter(|i| !picked.contains(i))
        .collect();
    for _ in 0..3 {
        let mut pred = pre.predictor().clone();
        trace::span("core.hw_init", 0, || {
            hw_init_from_correlation(&mut pred, device, &raw, &data.table, &data.task.train)
        });
        let samples = DeviceSamples::new(device, &raw);
        trace::span("core.fine_tune", 0, || {
            fine_tune(&mut pred, &tctx, device, &samples)
        });
        let scores = trace::span("core.eval", 0, || {
            predict_indices(&pred, &tctx, device, &held_out)
        });
        std::hint::black_box(scores);
    }

    // One pre-training mini-batch on a source device, on a reused tape.
    let mut pred = pre.predictor().clone();
    let source = data
        .table
        .device_row(&data.task.train[0])
        .expect("N1 source in table");
    let batch: Vec<(usize, f32)> = (0..data.cfg.predictor.batch_size)
        .map(|k| {
            let i = (k * 31 + ctx.seed as usize) % data.pool.len();
            (i, source[i].ln())
        })
        .collect();
    let adam = AdamConfig::default();
    let mut tape = TrainTape::new();
    for _ in 0..20 {
        trace::span("core.train_step", 0, || {
            train_step_on(&mut pred, &tctx, 0, &batch, &adam, &mut tape)
        });
    }

    // The matmul kernel at a stacked predictor shape: 16 NB201 graphs of
    // 8 nodes through a 32-wide layer.
    let (m, k, n) = (128usize, 32usize, 32usize);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.6)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 5) % 11) as f32 * 0.1 - 0.5)
        .collect();
    let mut out = vec![0.0f32; m * n];
    const REPS: usize = 200;
    let mut gflops = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        trace::span("tensor.matmul", 0, || {
            for _ in 0..REPS {
                kernels::matmul(m, k, n, &a, &b, &mut out);
                std::hint::black_box(&mut out);
            }
        });
        gflops.push((2 * m * k * n * REPS) as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    ctx.layers
        .put("tensor.matmul_gflops", median(&gflops), "GFLOP/s");

    // Fan-out efficiency: per-target transfers run one by one, summed,
    // against the parallel transfer_all of the same targets.
    let mut sum_ms = 0.0;
    for (t, target) in data.task.test.iter().enumerate() {
        let t0 = Instant::now();
        let r = trace::span("core.transfer_to", 0, || {
            pre.transfer_to(target, &data.cfg.sampler, Data::target_seed(ctx.seed, t))
        });
        sum_ms += t0.elapsed().as_secs_f64() * 1e3;
        ctx.attempted += 1;
        if let Err(e) = r {
            ctx.failed += 1;
            ctx.check(false, || format!("transfer_to({target}) failed: {e}"));
        }
    }
    ctx.layers
        .put("parallel.fanout_eff", sum_ms / transfer_all_ms, "ratio");
}
