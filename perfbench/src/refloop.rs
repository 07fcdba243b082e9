//! The reference loop and the normalising clock.
//!
//! The loop is fixed work that lives only in this file and shares no code
//! with the program: a pseudo-random walk over a 256 KiB table that mixes
//! integer hashing, floating-point multiply-adds, loads and stores. Over a
//! run its median duration tracks how fast the machine runs (neighbours on
//! a shared host), so scaling the run's spans by `R0_MS / R` takes part of
//! the machine's drift out of them while leaving changes to the program in.
//!
//! The loop runs while the program's threads (ingress readers, scheduler
//! workers) are alive, so its duration is the CPU time of the loop's own
//! thread, not its wall time: a program change that keeps the CPU busy
//! outside the timed spans then cannot stretch R and flatter every
//! normalised figure. How much CPU the other threads used during the loop
//! is measured too and reported (`refloop.others_pct`).

use std::hint::black_box;
use std::time::Instant;

use crate::util::{iqr_share, median, quantile};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of this process (`CLOCK_PROCESS_CPUTIME_ID`) or of the calling
/// thread (`CLOCK_THREAD_CPUTIME_ID`), in ms.
fn cpu_ms(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of Linux's `struct timespec` on a
    // 64-bit target, `ts` is a valid, writable instance of it, and both
    // clock ids are defined on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// The nominal duration of one reference timing in ms; in a run whose
/// median reference timing is exactly this long, normalised equals raw.
pub const R0_MS: f64 = 0.5;

const WORDS: usize = 1 << 15; // 32 Ki × 8 B = 256 KiB
const ITERS: usize = 55_000;
/// Runs per reference timing; their median rejects single interruptions.
const RUNS: usize = 5;

pub struct RefLoop {
    table: Vec<u64>,
}

impl RefLoop {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        RefLoop { table }
    }

    /// One run of the loop; returns the CPU time of this thread in ms.
    pub fn run(&mut self) -> f64 {
        let t = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 1.0f64;
        for i in 0..ITERS {
            let idx = (h >> 47) as usize & (WORDS - 1);
            let v = self.table[idx];
            h = (h ^ v).wrapping_mul(0x0100_0000_01B3).rotate_left(23);
            acc = acc * 0.999_999_9 + (v >> 40) as f64 * 1e-9;
            self.table[(idx + i) & (WORDS - 1)] = v.wrapping_add(h);
        }
        black_box(acc);
        black_box(h);
        cpu_ms(CLOCK_THREAD_CPUTIME_ID) - t
    }

    /// One reference timing: the median of `RUNS` runs, in ms of this
    /// thread's CPU time.
    pub fn measure(&mut self) -> f64 {
        self.measure_with_others().0
    }

    /// One reference timing; the wall time of one run (the mean over the
    /// `RUNS`) in ms; and the CPU time the process's other threads used
    /// meanwhile as a share of the loop's wall time.
    pub fn measure_with_others(&mut self) -> (f64, f64, f64) {
        let (wall, process, own) = (
            Instant::now(),
            cpu_ms(CLOCK_PROCESS_CPUTIME_ID),
            cpu_ms(CLOCK_THREAD_CPUTIME_ID),
        );
        let runs: Vec<f64> = (0..RUNS).map(|_| self.run()).collect();
        let own = cpu_ms(CLOCK_THREAD_CPUTIME_ID) - own;
        let others = cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - process - own;
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        (
            median(&runs),
            wall_ms / RUNS as f64,
            (others / wall_ms).max(0.0),
        )
    }
}

/// Times spans with the reference loop run after each one, so reference
/// timings sample the machine throughout the run: span, R, span, R, …
pub struct Clock {
    reference: RefLoop,
    refs: Vec<f64>,
    /// Wall time of one run of the loop, per reference timing.
    walls: Vec<f64>,
    /// Other threads' CPU time during each reference timing, as a share
    /// of its wall time.
    others: Vec<f64>,
}

impl Clock {
    pub fn new() -> Self {
        let mut reference = RefLoop::new();
        reference.run(); // fault the table in
        let (r, w, o) = reference.measure_with_others();
        Clock {
            reference,
            refs: vec![r],
            walls: vec![w],
            others: vec![o],
        }
    }

    /// Runs `f` and returns its result with its raw wall time in ms; a
    /// reference timing follows.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        let (r, w, o) = self.reference.measure_with_others();
        self.refs.push(r);
        self.walls.push(w);
        self.others.push(o);
        (out, raw_ms)
    }

    /// Every reference timing so far, in ms.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }

    /// Median wall time of one run of the loop, in ms.
    pub fn wall_ms(&self) -> f64 {
        median(&self.walls)
    }

    /// Median CPU time of the process's other threads during a reference
    /// timing, as a share of its wall time.
    pub fn others_share(&self) -> f64 {
        median(&self.others)
    }

    /// The factor that turns this run's raw times into normalised ones:
    /// `R0_MS / R`, R the median of the run's reference timings. Span by
    /// span the loop does not track the program; over a run it does.
    pub fn scale(&self) -> f64 {
        R0_MS / median(&self.refs)
    }
}

/// `--probe`: runs only the reference loop for `seconds` and prints its own
/// spread, so drift of the machine can be told apart from a program change.
pub fn probe(seconds: f64) -> String {
    let mut reference = RefLoop::new();
    reference.run();
    let start = Instant::now();
    let mut all = Vec::new();
    let mut windows = Vec::new(); // median of each 1-s window
    let mut window = Vec::new();
    let mut window_start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let r = reference.measure();
        all.push(r);
        window.push(r);
        if window_start.elapsed().as_secs_f64() >= 1.0 {
            windows.push(median(&window));
            window.clear();
            window_start = Instant::now();
        }
    }
    if !window.is_empty() {
        windows.push(median(&window));
    }
    let wmin = windows.iter().copied().fold(f64::INFINITY, f64::min);
    let wmax = windows.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "reference loop: {} timings, median {:.4} ms (R0 {R0_MS} ms), p10 {:.4}, p90 {:.4}, max {:.4}",
        all.len(),
        median(&all),
        quantile(&all, 0.1),
        quantile(&all, 0.9),
        all.iter().copied().fold(0.0, f64::max)
    );
    eprintln!(
        "  IQR/median {:.2}%; 1-s window medians {:.4}..{:.4} ms ({:.2}% range)",
        100.0 * iqr_share(&all),
        wmin,
        wmax,
        100.0 * (wmax - wmin) / median(&windows)
    );
    format!(
        "{{\"probe\": true, \"runs\": {}, \"median_ms\": {:?}, \"iqr_share\": {:?}, \"window_range_share\": {:?}}}",
        all.len(),
        median(&all),
        iqr_share(&all),
        (wmax - wmin) / median(&windows)
    )
}
