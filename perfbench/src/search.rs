//! `nas_search`: transfer once to one N1 target, calibrate scores to ms,
//! then run latency-constrained regularized evolution over a fixed list of
//! (seed, constraint) pairs.

use std::collections::HashSet;
use std::sync::Mutex;

use nasflat::core::{PretrainedTask, TransferredPredictor};
use nasflat::encode::EncodingKind;
use nasflat::nas::{
    constrained_search, AccuracyOracle, BatchedLatency, Calibration, LatencyEstimator,
    SearchConfig, SearchResult,
};
use nasflat::space::{Arch, Space};

use crate::trace;
use crate::util::Rng;
use crate::world::{Ctx, Data, Samples, SHOTS};

/// Distinct searches per pass; the list repeats the first one at its end.
const SEARCHES: usize = 16;
/// The N1 target the searches run for (its first unseen GPU).
const TARGET: usize = 0;

fn search_config(seed: u64) -> SearchConfig {
    SearchConfig {
        population: 40,
        cycles: 300,
        tournament: 8,
        seed,
    }
}

/// The calibrated predictor as the search's latency estimator: single
/// queries through `score`, populations through `score_batch`.
fn estimator<'a>(
    scorer: &'a TransferredPredictor<'_>,
    cal: &'a Calibration,
) -> impl LatencyEstimator + 'a {
    BatchedLatency {
        single: move |a: &Arch| cal.to_ms(scorer.score(a)),
        batch: move |archs: &[Arch]| {
            scorer
                .score_batch(archs)
                .into_iter()
                .map(|s| cal.to_ms(s))
                .collect::<Vec<f32>>()
        },
    }
}

/// The phase's state across its passes over the search list.
pub struct Search<'a> {
    data: &'a Data,
    /// The N1 target device the searches run for.
    pub target: String,
    scorer: TransferredPredictor<'a>,
    cal: Calibration,
    oracle: AccuracyOracle,
    /// (search seed, constraint in ms); the last entry repeats the first.
    list: Vec<(u64, f32)>,
    /// The architectures each distinct search of the list queries, in the
    /// order it queries them: the serving phase replays them.
    pub queries: Vec<Vec<Arch>>,
    /// Pass 0's results, which every later search of the same entry and
    /// the repeated entry must reproduce.
    first: Vec<SearchResult>,
    search: Samples,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    passes: usize,
    main: bool,
}

impl<'a> Search<'a> {
    /// Transfers once to the target and calibrates scores to ms.
    pub fn new(ctx: &mut Ctx, data: &'a Data, pre: &mut PretrainedTask<'a>, main: bool) -> Self {
        let target = data.task.test[TARGET].clone();
        let row = data.table.device_row(&target).expect("N1 target in table");
        ctx.attempted += 1;
        let scorer = pre
            .transfer_scorer(&target, &data.cfg.sampler, ctx.seed, SHOTS)
            .expect("the CAZ sampler selects 20 from the N1 pool");
        // Calibrate score -> ms on 20 further pool samples.
        let mut rng = Rng::new(ctx.seed ^ 0xCA1);
        let cal_idx: Vec<usize> = (0..SHOTS).map(|_| rng.below(data.pool.len())).collect();
        let scores: Vec<f32> = cal_idx
            .iter()
            .map(|&i| scorer.score(&data.pool[i]))
            .collect();
        let lats: Vec<f32> = cal_idx.iter().map(|&i| row[i]).collect();
        let cal = Calibration::fit(&scores, &lats);

        // Constraints at the 30th..67.5th percentiles of the target's latencies.
        let mut sorted = row.to_vec();
        sorted.sort_by(f32::total_cmp);
        let mut list: Vec<(u64, f32)> = (0..SEARCHES)
            .map(|i| {
                let q = 0.30 + 0.025 * i as f64;
                (
                    rng.next_u64(),
                    sorted[((sorted.len() - 1) as f64 * q) as usize],
                )
            })
            .collect();
        list.push(list[0]);
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        let queries = list[..SEARCHES]
            .iter()
            .map(|&(seed, constraint)| record(&oracle, &scorer, &cal, seed, constraint))
            .collect();
        Search {
            data,
            target,
            scorer,
            cal,
            oracle,
            list,
            queries,
            first: Vec::new(),
            search: Samples::default(),
            traced: Vec::new(),
            untraced: Vec::new(),
            passes: 0,
            main,
        }
    }

    /// One pass over the search list, each search timed.
    pub fn round(&mut self, ctx: &mut Ctx) {
        let tracing = ctx.trace_round(self.main, self.passes);
        trace::set_enabled(tracing);
        for (i, &(seed, constraint)) in self.list.iter().enumerate() {
            let (res, tm) = ctx.clock.time(|| {
                trace::span("nas.search", 0, || {
                    constrained_search(
                        Space::Nb201,
                        &self.oracle,
                        estimator(&self.scorer, &self.cal),
                        constraint,
                        &search_config(seed),
                    )
                })
            });
            ctx.attempted += 1;
            self.search.push(tm);
            let overhead = if tracing {
                &mut self.traced
            } else {
                &mut self.untraced
            };
            overhead.push(tm);
            // The last entry repeats the first search's seed and constraint.
            let reference = if i < SEARCHES { i } else { 0 };
            if self.first.len() == reference {
                self.first.push(res);
                continue;
            }
            ctx.check(same(&self.first[reference], &res), || {
                format!(
                    "search seed {seed:#x} (pass {}, entry {i}) returned another arch",
                    self.passes
                )
            });
        }
        self.passes += 1;
        trace::set_enabled(ctx.trace);
    }

    /// Re-checks the results, runs the layer probes in a traced run, and
    /// reports the phase's metrics.
    pub fn finish(self, ctx: &mut Ctx, pre: &mut PretrainedTask<'a>) {
        check_results(ctx, pre, &self);
        let acc: Vec<f64> = self.first.iter().map(|r| r.accuracy as f64).collect();
        let nas_accuracy = acc.iter().sum::<f64>() / acc.len().max(1) as f64;
        eprintln!(
            "nas_search on {}: search {}; mean best accuracy {nas_accuracy:.3}%",
            self.target,
            self.search.summary(ctx.clock.scale())
        );
        if self.main {
            ctx.report_overhead(&self.traced, &self.untraced);
        }
        ctx.end_to_end
            .put("search_ms", self.search.gmean() * ctx.clock.scale(), "ms");
        ctx.end_to_end.put("nas_accuracy", nas_accuracy, "%");
        if ctx.trace {
            probe_layers(ctx, pre, &self);
            let queries = self.first.first().map_or(0, |r| r.predictor_queries);
            ctx.layers.put("nas.queries", queries as f64, "count");
        }
    }
}

fn same(a: &SearchResult, b: &SearchResult) -> bool {
    a.arch == b.arch
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.predicted_latency_ms.to_bits() == b.predicted_latency_ms.to_bits()
}

/// Recomputes every best arch's latency through a freshly transferred
/// scorer plus the calibration (it must meet the constraint and equal the
/// reported estimate) and its oracle accuracy (it must equal the reported
/// value).
fn check_results<'a>(ctx: &mut Ctx, pre: &mut PretrainedTask<'a>, s: &Search<'a>) {
    ctx.attempted += 1;
    let fresh = match pre.transfer_scorer(&s.target, &s.data.cfg.sampler, ctx.seed, SHOTS) {
        Ok(f) => f,
        Err(e) => {
            ctx.failed += 1;
            ctx.check(false, || {
                format!("fresh transfer_scorer({}) failed: {e}", s.target)
            });
            return;
        }
    };
    for (r, &(seed, constraint)) in s.first.iter().zip(&s.list) {
        let lat = s.cal.to_ms(fresh.score(&r.arch));
        ctx.check(lat <= constraint, || {
            format!("search {seed:#x}: best arch at {lat} ms misses the {constraint} ms constraint")
        });
        ctx.check(lat.to_bits() == r.predicted_latency_ms.to_bits(), || {
            format!(
                "search {seed:#x}: fresh score gives {lat} ms, search reported {} ms",
                r.predicted_latency_ms
            )
        });
        let acc = s.oracle.accuracy(&r.arch);
        ctx.check(acc.to_bits() == r.accuracy.to_bits(), || {
            format!(
                "search {seed:#x}: oracle gives {acc}%, search reported {}%",
                r.accuracy
            )
        });
    }
}

/// Per-layer probes of the calls a search makes per query, plus the
/// measured repeat shares of its queries.
fn probe_layers(ctx: &mut Ctx, pre: &PretrainedTask<'_>, s: &Search<'_>) {
    let (data, scorer, oracle) = (s.data, &s.scorer, &s.oracle);
    let mut rng = Rng::new(ctx.seed ^ 0x5EA);
    let archs: Vec<Arch> = (0..40)
        .map(|_| Arch::nb201_from_index(rng.below(15_625) as u64))
        .collect();
    let device = data.device_index(TARGET);
    let mut session = pre.predictor().session();
    for a in &archs {
        let supp = trace::span("encode.supp", 0, || data.suite.encode(EncodingKind::Zcp, a));
        trace::span("core.predict", 0, || {
            session.predict(a, device, Some(&supp))
        });
        trace::span("nas.oracle", 0, || oracle.accuracy(a));
    }
    for _ in 0..10 {
        trace::span("core.score_batch", 0, || scorer.score_batch(&archs));
    }
    let items: Vec<u64> = (0..40).collect();
    for _ in 0..50 {
        trace::span("parallel.par_map", 0, || {
            nasflat::parallel::par_map(&items, |x| x.wrapping_mul(3) + 1)
        });
    }

    // Repeat shares: within one search, and over the list run in order.
    let mut seen_all = HashSet::new();
    let (mut within, mut across, mut total) = (0usize, 0usize, 0usize);
    for queries in &s.queries {
        let mut seen = HashSet::new();
        for a in queries {
            within += usize::from(!seen.insert(a.genotype()));
            across += usize::from(!seen_all.insert(a.genotype()));
        }
        total += queries.len();
    }
    let within_pct = 100.0 * within as f64 / total as f64;
    let across_pct = 100.0 * across as f64 / total as f64;
    eprintln!(
        "nas queries: {total} over {} searches; {within_pct:.1}% repeat within a search, {across_pct:.1}% repeat an earlier query of the list",
        s.queries.len()
    );
    ctx.layers.put("nas.repeat_pct", within_pct, "%");
    ctx.layers.put("nas.cross_repeat_pct", across_pct, "%");
}

/// The architectures one search queries, in order (single queries and
/// population batches alike).
fn record(
    oracle: &AccuracyOracle,
    scorer: &TransferredPredictor<'_>,
    cal: &Calibration,
    seed: u64,
    constraint: f32,
) -> Vec<Arch> {
    let queried = Mutex::new(Vec::new());
    let note = |archs: &[Arch]| {
        queried
            .lock()
            .expect("query recorder poisoned")
            .extend_from_slice(archs)
    };
    let est = BatchedLatency {
        single: |a: &Arch| {
            note(std::slice::from_ref(a));
            cal.to_ms(scorer.score(a))
        },
        batch: |archs: &[Arch]| {
            note(archs);
            scorer
                .score_batch(archs)
                .into_iter()
                .map(|s| cal.to_ms(s))
                .collect::<Vec<f32>>()
        },
    };
    constrained_search(Space::Nb201, oracle, est, constraint, &search_config(seed));
    queried.into_inner().expect("query recorder poisoned")
}
