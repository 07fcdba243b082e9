//! End-to-end and per-layer benchmark of the NASFLAT crates.
//!
//! ```text
//! perfbench --workload <fewshot|nas_search|serve_edge> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --probe --seconds <s>
//! ```
//!
//! Every run sets up task N1 (pool, latency table, encodings, pre-training,
//! published bundles, bound server), then interleaves whole rounds of the
//! three phases — few-shot transfer, constrained NAS, TCP serving — for
//! `--seconds`, the phase the workload names taking 40 % of the time, so
//! every run reports every metric; six more set-ups spread over the run
//! give `setup_s` its geometric mean. A reference loop runs after every
//! timed span, and the run's times (geometric means of their samples) are
//! reported normalised by its median (see `refloop.rs`). The last line of
//! standard output is the JSON result; the log goes to standard error.
//! See README.md.

mod fewshot;
mod refloop;
mod search;
mod serve;
mod trace;
mod util;
mod world;

use std::time::Instant;

use util::median;
use world::{Ctx, Data};

const WORKLOADS: [&str; 3] = ["fewshot", "nas_search", "serve_edge"];
/// Set-ups per run; `setup_s` is their geometric mean, and each one's
/// pre-training is a `pretrain_ms` sample. The first is kept for the
/// phases, the rest are spread over the run and thrown away.
const SETUPS: usize = 7;
/// Share of the run's time the workload's own phase takes; the other two
/// split the rest.
const MAIN_SHARE: f64 = 0.4;
/// Whole rounds every phase runs at least, however slow the machine:
/// few-shot rounds, passes over the search list, serving rounds (the
/// `nas`, `distinct` and open-loop streams take turns).
const MIN_ROUNDS: [usize; 3] = [3, 2, 12];
/// Where traced runs write their spans.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.probe && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --probe --seconds <s>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.probe {
        println!("{}", refloop::probe(args.seconds as f64));
        return;
    }
    let seed = args.seed;
    let main_phase = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .expect("validated by parse_args");
    trace::set_enabled(args.trace);
    let mut ctx = Ctx::new(seed, args.trace);
    eprintln!(
        "perfbench {} seed {seed}, {} s, trace {}; {} hardware threads",
        args.workload,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // The first set-up is kept for the phases; the other SETUPS - 1 are
    // thrown away, spread over the run (below).
    let mut setup = world::Samples::default();
    let (data, t1) = ctx.clock.time(|| Data::build(seed));
    let (mut pre, t2) = ctx.clock.time(|| data.pretrain());
    let (mut edge, t3) = ctx.clock.time(|| serve::Edge::start(&pre, &data, seed));
    eprintln!("setup: data {t1:.1} ms, pre-training {t2:.1} ms, serving {t3:.1} ms (raw)");
    setup.push(t1 + t2 + t3);

    // The phases interleave round by round, the workload's own phase taking
    // MAIN_SHARE of the time, so every phase's samples spread over the
    // whole run and see the same drift of the machine.
    let mut few = fewshot::FewShot::new(&data, main_phase == 0);
    few.record_pretrain(t2);
    let mut nas = search::Search::new(&mut ctx, &data, &mut pre, main_phase == 1);
    let mut srv = serve::Serve::new(
        &mut ctx,
        &mut edge,
        &nas.target,
        &nas.queries,
        main_phase == 2,
    );
    let share = |p: usize| {
        if p == main_phase {
            MAIN_SHARE
        } else {
            (1.0 - MAIN_SHARE) / 2.0
        }
    };
    let (mut used, mut rounds) = ([0.0f64; 3], [0usize; 3]);
    let start = Instant::now();
    loop {
        // Set-up k is due k/SETUPS of the way into the run, so the set-ups
        // see the same drift of the machine as the phases do.
        let due = args.seconds as f64 * setup.0.len() as f64 / SETUPS as f64;
        if setup.0.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            let (total, pretrain) = set_up(&mut ctx, seed);
            setup.push(total);
            few.record_pretrain(pretrain);
            continue;
        }
        let short = (0..3).find(|&p| rounds[p] < MIN_ROUNDS[p]);
        let p = if start.elapsed().as_secs() < args.seconds {
            // The phase furthest behind its share of the time so far.
            let total: f64 = used.iter().sum();
            (0..3)
                .max_by(|&a, &b| {
                    (share(a) * total - used[a]).total_cmp(&(share(b) * total - used[b]))
                })
                .expect("three phases")
        } else if let Some(p) = short {
            p
        } else {
            break;
        };
        let t = Instant::now();
        match p {
            0 => few.round(&mut ctx),
            1 => nas.round(&mut ctx),
            _ => srv.round(&mut ctx),
        }
        used[p] += t.elapsed().as_secs_f64();
        rounds[p] += 1;
    }
    eprintln!(
        "rounds: fewshot {}, nas_search {}, serve_edge {} ({:.1} / {:.1} / {:.1} s)",
        rounds[0], rounds[1], rounds[2], used[0], used[1], used[2]
    );
    few.finish(&mut ctx);
    nas.finish(&mut ctx, &mut pre);
    srv.finish(&mut ctx);
    edge.stop();

    let refs = ctx.clock.refs();
    eprintln!(
        "reference loop: {} timings, median {:.4} ms of thread CPU time, IQR/median {:.2}%; normalising scale {:.4}",
        refs.len(),
        median(refs),
        100.0 * util::iqr_share(refs),
        ctx.clock.scale()
    );
    let scale = ctx.clock.scale();
    eprintln!(
        "reference loop wall time {:.4} ms (median); other threads' CPU during it: {:.2}% of its wall time (median)",
        ctx.clock.wall_ms(),
        100.0 * ctx.clock.others_share()
    );
    ctx.layers.put("refloop.r_ms", median(refs), "ms");
    ctx.layers
        .put("refloop.others_pct", 100.0 * ctx.clock.others_share(), "%");
    eprintln!("setup: {}", setup.summary(scale));
    ctx.end_to_end
        .put("setup_s", setup.gmean() * scale / 1e3, "s");
    ctx.end_to_end
        .put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    if args.trace {
        span_layers(&mut ctx);
        let run = format!("{}-seed{seed}", args.workload);
        match trace::write_out(TRACE_DIR, &run) {
            Ok((spans, layers)) => eprintln!("trace written to {spans} and {layers}"),
            Err(e) => ctx.check(false, || format!("writing the trace failed: {e}")),
        }
    }
    let metrics = if args.trace {
        &ctx.layers
    } else {
        &ctx.end_to_end
    };
    for (name, value, unit) in metrics.iter() {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    let correct = ctx.errors.is_empty();
    println!(
        "{}",
        metrics.result_line(correct, ctx.attempted, ctx.failed)
    );
}

/// One throwaway set-up; returns its raw time and that of its
/// pre-training, in ms.
fn set_up(ctx: &mut Ctx, seed: u64) -> (f64, f64) {
    let (data, t1) = ctx.clock.time(|| Data::build(seed));
    let (pre, t2) = ctx.clock.time(|| data.pretrain());
    let (edge, t3) = ctx.clock.time(|| serve::Edge::start(&pre, &data, seed));
    eprintln!("setup: data {t1:.1} ms, pre-training {t2:.1} ms, serving {t3:.1} ms (raw)");
    edge.stop();
    (t1 + t2 + t3, t2)
}

/// Per-layer metrics taken from span durations: medians, scaled per item
/// where one span covers several calls.
fn span_layers(ctx: &mut Ctx) {
    let spans = trace::spans();
    // (metric, span, unit, factor from span ms to the metric's unit)
    let table: [(&str, &str, &'static str, f64); 19] = [
        ("hw.table_ms", "hw.table", "ms", 1.0),
        ("encode.suite_ms", "encode.suite", "ms", 1.0),
        ("sample.select_ms", "sample.select", "ms", 1.0),
        ("core.hw_init_ms", "core.hw_init", "ms", 1.0),
        ("core.fine_tune_ms", "core.fine_tune", "ms", 1.0),
        ("core.eval_ms", "core.eval", "ms", 1.0),
        ("core.train_step_ms", "core.train_step", "ms", 1.0),
        ("core.predict_us", "core.predict", "us", 1e3),
        ("encode.supp_us", "encode.supp", "us", 1e3),
        ("nas.oracle_us", "nas.oracle", "us", 1e3),
        ("core.score_batch_us", "core.score_batch", "us", 1e3 / 40.0),
        ("parallel.par_map_us", "parallel.par_map", "us", 1e3),
        ("core.batch_us", "core.batch", "us", 1e3 / 16.0),
        ("wire.encode_ns", "wire.encode_x1000", "ns", 1e6 / 1000.0),
        ("wire.decode_ns", "wire.decode_x1000", "ns", 1e6 / 1000.0),
        ("registry.hit_us", "registry.serve_one.hit", "us", 1e3),
        ("registry.miss_us", "registry.serve_one.miss", "us", 1e3),
        ("bundle.decode_ms", "bundle.decode", "ms", 1.0),
        ("store.publish_ms", "store.publish", "ms", 1.0),
    ];
    for (metric, span, unit, factor) in table {
        let d = trace::durations_ms(&spans, span);
        ctx.check(!d.is_empty(), || format!("no {span} span was recorded"));
        ctx.layers.put(metric, median(&d) * factor, unit);
    }
    ctx.layers.put("trace.spans", spans.len() as f64, "count");
    eprintln!("per-layer self time (ms):");
    for (name, n, total, own) in trace::layer_table(&spans) {
        eprintln!("  {name:<26} {n:>8} spans  total {total:>10.2}  self {own:>10.2}");
    }
}
