//! The run context and the set-up every phase shares: task N1's pool,
//! latency table and encodings, and the NASFLAT configuration.

use nasflat::core::{FewShotConfig, PretrainedTask};
use nasflat::encode::{EncodingKind, EncodingSuite, SuiteConfig};
use nasflat::hw::{DeviceRegistry, LatencyTable};
use nasflat::sample::{Sampler, SelectionMethod};
use nasflat::space::Arch;
use nasflat::tasks::{paper_task, probe_pool, Task};

use crate::refloop::Clock;
use crate::trace;
use crate::util::Metrics;

/// Architectures in N1's working pool.
pub const POOL: usize = 400;
/// Target-device samples per transfer (the paper's few-shot budget).
pub const SHOTS: usize = 20;

/// Everything one run accumulates: the clock, operation tallies, failed
/// checks and the two metric sets.
pub struct Ctx {
    pub seed: u64,
    pub trace: bool,
    pub clock: Clock,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Metrics,
    pub layers: Metrics,
}

impl Ctx {
    pub fn new(seed: u64, trace: bool) -> Self {
        Ctx {
            seed,
            trace,
            clock: Clock::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            end_to_end: Metrics::default(),
            layers: Metrics::default(),
        }
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    /// Whether spans are recorded in round `round` of a phase: in a traced
    /// run the workload's own phase alternates traced and untraced rounds so
    /// the two can be compared (tracing overhead); other phases trace all.
    pub fn trace_round(&self, main: bool, round: usize) -> bool {
        self.trace && (!main || round.is_multiple_of(2))
    }

    /// Reports `trace.overhead_pct` from traced and untraced round times.
    pub fn report_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        use crate::util::median;
        if !traced.is_empty() && !untraced.is_empty() {
            let pct = 100.0 * (median(traced) / median(untraced) - 1.0);
            eprintln!(
                "tracing overhead: traced {:.3} ms vs untraced {:.3} ms per round ({pct:+.2}%)",
                median(traced),
                median(untraced)
            );
            self.layers.put("trace.overhead_pct", pct, "%");
        }
    }
}

/// Raw wall times of one operation, in ms.
///
/// A run reports their geometric mean, not their median: on a shared
/// host one operation's times are often two-humped within a run (the same
/// pre-training took 430–900 ms), and a median of a dozen such samples
/// flips between the humps from run to run.
#[derive(Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, raw_ms: f64) {
        self.0.push(raw_ms);
    }

    pub fn gmean(&self) -> f64 {
        crate::util::gmean(&self.0)
    }

    /// "n × normalised geometric mean (raw geometric mean, raw median)"
    /// for the log.
    pub fn summary(&self, scale: f64) -> String {
        format!(
            "{} x {:.3} ms normalised (raw {:.3} ms; raw median {:.3} ms)",
            self.0.len(),
            self.gmean() * scale,
            self.gmean(),
            crate::util::median(&self.0)
        )
    }
}

/// N1 with its inputs: the working pool, the latency table over every
/// NB201 device, the encoding suite, and the NASFLAT configuration.
pub struct Data {
    pub task: Task,
    pub pool: Vec<Arch>,
    pub table: LatencyTable,
    pub suite: EncodingSuite,
    pub cfg: FewShotConfig,
}

impl Data {
    pub fn build(seed: u64) -> Data {
        let task = paper_task("N1").expect("N1 is a paper task");
        let pool = probe_pool(task.space, POOL, seed);
        let registry = DeviceRegistry::for_space(task.space);
        let table = trace::span("hw.table", 0, || {
            LatencyTable::build(registry.devices(), &pool)
        });
        let suite = trace::span("encode.suite", 0, || {
            EncodingSuite::build(&pool, &SuiteConfig::quick().with_seed(seed))
        });
        // The NASFLAT configuration: CAZ cosine sampler, ZCP supplement,
        // OpHW + HWInit (both on in the quick profile).
        let mut cfg = FewShotConfig::quick();
        cfg.predictor.supplement = Some(EncodingKind::Zcp);
        cfg.predictor.seed = cfg.predictor.seed.wrapping_add(seed);
        cfg.sampler = Sampler::Encoding {
            kind: EncodingKind::Caz,
            method: SelectionMethod::Cosine,
        };
        cfg.transfer_samples = SHOTS;
        Data {
            task,
            pool,
            table,
            suite,
            cfg,
        }
    }

    /// One pre-training on N1's source devices.
    pub fn pretrain(&self) -> PretrainedTask<'_> {
        trace::span("core.pretrain", 0, || {
            PretrainedTask::build(
                &self.task,
                &self.pool,
                &self.table,
                Some(&self.suite),
                self.cfg.clone(),
            )
        })
    }

    /// Embedding-row index of test device `t` in the predictor.
    pub fn device_index(&self, t: usize) -> usize {
        self.task.train.len() + t
    }

    /// The seed `transfer_all(seed)` gives target `t`.
    pub fn target_seed(seed: u64, t: usize) -> u64 {
        seed.wrapping_add(t as u64 * 101)
    }
}
