//! `serve_edge`: an N1 bundle and an FBNet bundle published behind
//! `IngressServer` on loopback, driven by this process with three streams
//! whose rounds alternate:
//! - the `nas` stream (closed loop): the query sequence the `nas_search`
//!   phase's searches make, replayed in order for their target device, so
//!   it repeats keys as a NAS client does;
//! - the `distinct` stream (closed loop): keys that never repeat within a
//!   run, over both models and all their devices, so a result cache has
//!   nothing to hit;
//! - the open loop: the `nas` stream sent at a fixed rate.
//!
//! The FBNet model is re-published beside the closed-loop reads.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use nasflat::core::{LatencyPredictor, PredictorConfig, PretrainedTask};
use nasflat::serve::wire::{read_frame, Frame, RequestFrame, WIRE_MAX_FRAME};
use nasflat::serve::{
    HistogramSnapshot, IngressClient, IngressServer, ModelBundle, PredictorRegistry, SchedPolicy,
    ServeConfig, ServeError, ServeRequest, SharedRegistry, HISTOGRAM_BUCKETS,
};
use nasflat::space::{Arch, Space};
use nasflat::tasks::paper_task;

use crate::trace;
use crate::util::{gmean, median, quantile, Rng};
use crate::world::{Ctx, Data, Samples};

const N1: &str = "n1";
const FB: &str = "f1";
/// Result-cache capacity of the served registry.
const CACHE: usize = 4096;
/// Searches of the `nas_search` list each closed-loop connection replays
/// per round (340 queries each).
const SEARCHES_PER_ROUND: usize = 4;
/// `distinct` requests per connection per round.
const DISTINCT_ROUND: usize = 1024;
/// Requests in flight per closed-loop connection.
const WINDOW: usize = 16;
/// The budget every query of an odd-numbered search carries (half the
/// `nas` stream): generous, so the EDF queue orders without expiring.
const DEADLINE_MS: u32 = 10_000;
/// Open loop: requests per round at a fixed rate.
const OPEN_ROUND: usize = 400;
const OPEN_RATE: f64 = 4000.0;
/// The FBNet model is re-published with the same weights this often.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);

/// The serving set-up: the shared registry, the bound server, and the
/// in-process reference bundles every answer is checked against.
pub struct Edge {
    registry: SharedRegistry,
    server: IngressServer,
    fb_bytes: Vec<u8>,
    /// Reference bundle of each model (index 0 = N1, 1 = FBNet).
    refs: [ModelBundle; 2],
    /// Every version published so far, with the model index it serves.
    versions: HashMap<u64, usize>,
}

impl Edge {
    /// Builds the two bundles, publishes them and binds the server.
    pub fn start(pre: &PretrainedTask<'_>, data: &Data, seed: u64) -> Edge {
        let n1 = ModelBundle::with_suite(vec![pre.predictor().clone()], &data.suite)
            .expect("a pre-trained N1 predictor makes a bundle");
        // Serving cost does not depend on weight values, so the FBNet model
        // keeps its seeded initial weights instead of a 2-s pre-training.
        let f1 = paper_task("F1").expect("F1 is a paper task");
        let devices: Vec<String> = f1.train.iter().chain(&f1.test).cloned().collect();
        let cfg = PredictorConfig::quick().for_fbnet().with_seed(seed);
        let fb = ModelBundle::single(LatencyPredictor::new(Space::Fbnet, devices, 0, cfg))
            .expect("an FBNet predictor makes a bundle");
        let bytes = [n1.to_bytes(), fb.to_bytes()];
        let mut registry = PredictorRegistry::new(CACHE);
        for (name, b) in [N1, FB].into_iter().zip(&bytes) {
            let bundle = decode(b);
            trace::span("store.publish", 0, || registry.insert(name, bundle))
                .expect("in-memory publish succeeds");
        }
        let registry = registry.into_shared();
        let cfg = ServeConfig::builder()
            .sched_policy(SchedPolicy::Edf)
            .build();
        let server = IngressServer::bind(registry.clone(), &cfg).expect("bind on loopback");
        let mut versions = HashMap::new();
        for (m, name) in [N1, FB].into_iter().enumerate() {
            let (v, _) = registry
                .read()
                .expect("registry lock poisoned")
                .lookup_model(name)
                .expect("published model resolves");
            versions.insert(v, m);
        }
        let refs = [decode(&bytes[0]), decode(&bytes[1])];
        let [_, fb_bytes] = bytes;
        Edge {
            registry,
            server,
            fb_bytes,
            refs,
            versions,
        }
    }

    pub fn stop(self) {
        self.server.shutdown();
    }

    /// Re-publishes the FBNet model (same weights, new version).
    fn republish(&mut self) {
        let bundle = decode(&self.fb_bytes);
        let mut registry = self.registry.write().expect("registry lock poisoned");
        trace::span("store.publish", 0, || registry.insert(FB, bundle))
            .expect("in-memory publish succeeds");
        let (v, _) = registry.lookup_model(FB).expect("published model resolves");
        self.versions.insert(v, 1);
    }
}

fn decode(bytes: &[u8]) -> ModelBundle {
    trace::span("bundle.decode", 0, || ModelBundle::from_bytes(bytes))
        .expect("a bundle decodes from its own bytes")
}

/// What a request asks for. `code` is the NB201 index of an N1 arch and
/// the `distinct`-stream position of an FBNet arch; [`Inputs::arch`]
/// rebuilds the arch from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    model: usize,
    code: u64,
    device: usize,
}

#[derive(Debug, Clone, Copy)]
struct Query {
    key: Key,
    deadline: bool,
}

/// The seed-determined inputs of the three streams.
struct Inputs {
    seed: u64,
    /// Devices of each model.
    devices: [usize; 2],
    /// The `nas` stream: every search's queries in order, and the position
    /// where each search starts (one more entry for the end).
    nas: Vec<Query>,
    starts: Vec<usize>,
    /// A seed-determined order of every (NB201 arch, N1 device) key; the
    /// even positions of the `distinct` stream walk it.
    n1_keys: Vec<u32>,
}

impl Inputs {
    fn make(seed: u64, devices: [usize; 2], target: usize, searches: &[Vec<Arch>]) -> Inputs {
        let mut nas = Vec::new();
        let mut starts = vec![0];
        for (s, archs) in searches.iter().enumerate() {
            nas.extend(archs.iter().map(|a| Query {
                key: Key {
                    model: 0,
                    code: a.nb201_index(),
                    device: target,
                },
                deadline: s % 2 == 1,
            }));
            starts.push(nas.len());
        }
        let mut rng = Rng::new(seed ^ 0x5E4E);
        let mut n1_keys: Vec<u32> = (0..15_625 * devices[0] as u32).collect();
        for i in (1..n1_keys.len()).rev() {
            n1_keys.swap(i, rng.below(i + 1));
        }
        Inputs {
            seed,
            devices,
            nas,
            starts,
            n1_keys,
        }
    }

    /// Position `i` of the `distinct` stream: N1 and FBNet alternate; N1
    /// walks `n1_keys` (15,625 archs × its devices, far more than a run
    /// sends), FBNet draws a fresh arch per position from its 9^22.
    fn distinct(&self, i: u64) -> Query {
        let key = if i.is_multiple_of(2) {
            let k = self.n1_keys[(i / 2) as usize % self.n1_keys.len()] as u64;
            let d = self.devices[0] as u64;
            Key {
                model: 0,
                code: k / d,
                device: (k % d) as usize,
            }
        } else {
            Key {
                model: 1,
                code: i,
                device: self.fbnet(i).1,
            }
        };
        Query {
            key,
            deadline: false,
        }
    }

    /// The FBNet arch and device of `distinct` position `i`.
    fn fbnet(&self, i: u64) -> (Arch, usize) {
        let mut rng = Rng::new(self.seed ^ 0xFB ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let genotype = (0..Space::Fbnet.genotype_len())
            .map(|_| rng.below(Space::Fbnet.num_ops()) as u8)
            .collect();
        (
            Arch::new(Space::Fbnet, genotype),
            rng.below(self.devices[1]),
        )
    }

    fn arch(&self, k: Key) -> Arch {
        if k.model == 0 {
            Arch::nb201_from_index(k.code)
        } else {
            self.fbnet(k.code).0
        }
    }

    fn request(&self, q: Query) -> ServeRequest {
        let req = ServeRequest::new([N1, FB][q.key.model], self.arch(q.key), q.key.device);
        if q.deadline {
            req.with_deadline_ms(DEADLINE_MS)
        } else {
            req
        }
    }
}

/// Share of queries whose key appeared earlier.
fn repeat_share(queries: &[Query]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = queries.iter().filter(|q| !seen.insert(q.key)).count();
    repeats as f64 / queries.len() as f64
}

/// A reply: the score bits and model version, or the server's error.
type Answer = Result<(u32, u64), ServeError>;

/// One answered (or failed) request.
struct Reply {
    id: u64,
    /// Position of its request in the connection's round.
    pos: usize,
    result: Answer,
    sent_ns: u64,
    recv_ns: u64,
    /// When it was due to be sent (open loop; `sent_ns` in the closed loop).
    due_ns: u64,
}

fn send(stream: &mut TcpStream, id: u64, req: &ServeRequest) -> std::io::Result<()> {
    let bytes = trace::span("wire.encode", id, || {
        Frame::Request(RequestFrame::from_request(id, req)).encode()
    });
    stream.write_all(&bytes)
}

/// Reads one reply frame: (request id, score bits and model version, or
/// the server's error).
fn receive(stream: &mut TcpStream) -> Result<(u64, Answer), String> {
    match read_frame(stream, WIRE_MAX_FRAME) {
        Ok(Frame::Response(r)) => Ok((r.id, Ok((r.score.to_bits(), r.model_version)))),
        Ok(Frame::Error(e)) if e.id != 0 => Ok((e.id, Err(e.to_error()))),
        Ok(other) => Err(format!("unexpected frame {other:?}")),
        Err(fault) => Err(format!("connection fault: {fault}")),
    }
}

/// The position in a round of reply `id`, sent from `base`.
fn position(id: u64, base: u64, sent: usize) -> Result<usize, String> {
    id.checked_sub(base)
        .map(|p| p as usize)
        .filter(|&p| p < sent)
        .ok_or_else(|| format!("reply for unknown id {id}"))
}

/// Closed loop on one connection: `reqs` with `WINDOW` in flight.
fn closed_conn(
    stream: &mut TcpStream,
    reqs: &[ServeRequest],
    base: u64,
) -> Result<Vec<Reply>, String> {
    let mut sent_ns = vec![0u64; reqs.len()];
    let mut replies: Vec<Reply> = Vec::with_capacity(reqs.len());
    let (mut sent, mut outstanding) = (0usize, 0usize);
    while sent < reqs.len() || outstanding > 0 {
        while sent < reqs.len() && outstanding < WINDOW {
            sent_ns[sent] = trace::now_ns();
            send(stream, base + sent as u64, &reqs[sent]).map_err(|e| e.to_string())?;
            sent += 1;
            outstanding += 1;
        }
        let (id, result) = receive(stream)?;
        let recv_ns = trace::now_ns();
        let pos = position(id, base, sent)?;
        trace::record("client.request", id, sent_ns[pos], recv_ns);
        replies.push(Reply {
            id,
            pos,
            result,
            sent_ns: sent_ns[pos],
            recv_ns,
            due_ns: sent_ns[pos],
        });
        outstanding -= 1;
    }
    Ok(replies)
}

/// One closed-loop round: connection `c` sends `reqs[c]` from id
/// `bases[c]`, while the FBNet model is re-published every
/// `PUBLISH_EVERY`. Returns each connection's replies, the round's wall
/// time in ms (first send to last reply) and the re-publishes made.
fn closed_loop(
    streams: &mut [TcpStream],
    edge: &mut Edge,
    reqs: &[Vec<ServeRequest>],
    bases: &[u64],
) -> (Vec<Result<Vec<Reply>, String>>, f64, u64) {
    let parent = trace::current();
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let done = &done;
        let publisher = s.spawn(move || {
            trace::adopt(parent);
            let mut publishes = 0;
            let mut next = Instant::now() + PUBLISH_EVERY;
            while !done.load(Ordering::Acquire) {
                let now = Instant::now();
                if now >= next {
                    edge.republish();
                    publishes += 1;
                    next += PUBLISH_EVERY;
                } else {
                    thread::park_timeout(next - now);
                }
            }
            publishes
        });
        let start = Instant::now();
        let clients: Vec<_> = streams
            .iter_mut()
            .zip(reqs.iter().zip(bases))
            .map(|(stream, (reqs, &base))| {
                s.spawn(move || {
                    trace::adopt(parent);
                    closed_conn(stream, reqs, base)
                })
            })
            .collect();
        let replies: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        done.store(true, Ordering::Release);
        publisher.thread().unpark();
        let publishes = publisher.join().expect("publisher thread panicked");
        (replies, ms, publishes)
    })
}

/// Open loop on one connection: this thread sends on schedule, a second
/// thread receives.
fn open_conn(
    stream: &mut TcpStream,
    reqs: &[ServeRequest],
    base: u64,
) -> Result<Vec<Reply>, String> {
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let n = reqs.len();
    let period_ns = (1e9 / OPEN_RATE) as u64;
    thread::scope(|s| {
        let receiver = s.spawn(move || -> Result<Vec<(u64, Answer, u64)>, String> {
            let mut got = Vec::with_capacity(n);
            for _ in 0..n {
                let (id, result) = receive(&mut reader)?;
                got.push((id, result, trace::now_ns()));
            }
            Ok(got)
        });
        let t0 = trace::now_ns();
        let mut sent_ns = vec![0u64; n];
        let mut send_err = None;
        for (i, req) in reqs.iter().enumerate() {
            let due = t0 + i as u64 * period_ns;
            let now = trace::now_ns();
            if due > now {
                thread::sleep(Duration::from_nanos(due - now));
            }
            sent_ns[i] = trace::now_ns();
            if let Err(e) = send(stream, base + i as u64, req) {
                send_err = Some(e.to_string());
                let _ = stream.shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        let got = receiver.join().expect("open-loop receiver panicked");
        if let Some(e) = send_err {
            return Err(e);
        }
        let mut replies = Vec::with_capacity(n);
        for (id, result, recv_ns) in got? {
            let pos = position(id, base, n)?;
            trace::record("client.request", id, sent_ns[pos], recv_ns);
            replies.push(Reply {
                id,
                pos,
                result,
                sent_ns: sent_ns[pos],
                recv_ns,
                due_ns: t0 + pos as u64 * period_ns,
            });
        }
        Ok(replies)
    })
}

/// The server's stage histograms (queue wait, batch assembly, tape eval,
/// response write, group size), pass counters and cache hits at one
/// instant, read in process.
struct Stages {
    hists: [HistogramSnapshot; 5],
    uniform: u64,
    ragged: u64,
    hits: u64,
}

impl Stages {
    fn take(edge: &Edge) -> Stages {
        let t = edge.server.telemetry();
        let (uniform, ragged, _) = t.session_totals();
        let hits = edge
            .registry
            .read()
            .expect("registry lock poisoned")
            .cache_stats()
            .hits;
        Stages {
            hists: [
                t.queue_wait(),
                t.assembly(),
                t.eval(),
                t.write(),
                t.group_sizes(),
            ],
            uniform,
            ragged,
            hits,
        }
    }
}

const QUEUE_WAIT: usize = 0;
const ASSEMBLY: usize = 1;
const EVAL: usize = 2;
const WRITE: usize = 3;
const GROUP: usize = 4;

/// How far the stages moved over a stream's rounds, summed round by round
/// (snapshots bracket each round, so other streams' work is left out).
#[derive(Default)]
struct Moved {
    buckets: [[u64; HISTOGRAM_BUCKETS]; 5],
    sum: [u64; 5],
    count: [u64; 5],
    uniform: u64,
    ragged: u64,
    hits: u64,
}

impl Moved {
    fn add(&mut self, before: &Stages, after: &Stages) {
        for (h, (b, a)) in before.hists.iter().zip(&after.hists).enumerate() {
            for (i, (x, y)) in b.buckets.iter().zip(&a.buckets).enumerate() {
                self.buckets[h][i] += y - x;
            }
            self.sum[h] += a.sum - b.sum;
            self.count[h] += a.count - b.count;
        }
        self.uniform += after.uniform - before.uniform;
        self.ragged += after.ragged - before.ragged;
        self.hits += after.hits - before.hits;
    }

    /// Quantile `q` of what histogram `h` observed, interpolated within its
    /// log2 bucket (bucket `i` covers `(2^(i-1), 2^i]`, the last one is the
    /// overflow and reads as its lower bound).
    fn quantile(&self, h: usize, q: f64) -> f64 {
        let target = q * self.count[h] as f64;
        let mut below = 0.0;
        for (i, &n) in self.buckets[h].iter().enumerate() {
            let lower = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            if n > 0 && below + n as f64 >= target {
                if i == HISTOGRAM_BUCKETS - 1 {
                    return lower;
                }
                let upper = (1u64 << i) as f64;
                return lower + (upper - lower) * (target - below) / n as f64;
            }
            below += n as f64;
        }
        f64::NAN
    }

    fn mean(&self, h: usize) -> f64 {
        self.sum[h] as f64 / self.count[h] as f64
    }
}

/// The METRICS page's served total, scraped over TCP.
fn served_total(scraper: &mut IngressClient) -> Result<u64, String> {
    let text = scraper.metrics().map_err(|e| e.to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix("nasflat_queries_served_total "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no nasflat_queries_served_total on the METRICS page".to_string())
}

/// The server's view before or after a round: the METRICS served total
/// and the stages.
type View = (Result<u64, String>, Stages);

/// One connection's share of a round: its queries, and its replies or the
/// fault that ended it.
type Lane = (Vec<Query>, Result<Vec<Reply>, String>);

/// Tallies of one stream over its rounds. Replies are folded in round by
/// round, so memory grows with distinct keys, not with rounds.
#[derive(Default)]
struct Tally {
    /// The stream's keys never repeat (`distinct`): its answers are kept
    /// in `fresh`, a list whose memory grows linearly with the answers,
    /// not in a map whose every doubling would step peak memory.
    unique: bool,
    rounds: usize,
    sent: u64,
    answered: u64,
    ok: u64,
    busy: u64,
    expired: u64,
    other: u64,
    faults: u64,
    /// Score bits of the first answer per key.
    answers: HashMap<Key, u32>,
    /// Score bits of every answer of a stream whose keys never repeat.
    fresh: Vec<(Key, u32)>,
    /// Answers whose bits differ from their key's first answer, and answers
    /// carrying a version never published for their model.
    mismatched: u64,
    bad_versions: u64,
    /// Median client round trip of each round, µs.
    rtt_p50: Vec<f64>,
    /// Completed queries per second of each (closed-loop) round, raw.
    qps: Vec<f64>,
    moved: Moved,
    /// Admission -> replied of the requests matched in the server's trace
    /// ring, and how many of those exceeded the client's round trip.
    server_us: Vec<f64>,
    late_stamps: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    /// Folds one round in — each connection's queries with its replies or
    /// its fault — then checks server against client: every request left in
    /// the trace ring spent no longer from admission to evaluation than its
    /// client-observed round trip, and the METRICS served total moved by
    /// exactly the client's tally.
    fn close_round(
        &mut self,
        ctx: &mut Ctx,
        edge: &Edge,
        name: &str,
        lanes: Vec<Lane>,
        before: View,
        after: View,
    ) {
        self.rounds += 1;
        let ok_before = self.ok;
        let mut rtt_of: HashMap<u64, u64> = HashMap::new();
        for (queries, result) in lanes {
            self.sent += queries.len() as u64;
            let replies = result.unwrap_or_else(|e| {
                ctx.check(false, || format!("{name}: client connection failed: {e}"));
                Vec::new()
            });
            self.faults += (queries.len() - replies.len()) as u64;
            self.answered += replies.len() as u64;
            for r in &replies {
                rtt_of.insert(r.id, (r.recv_ns - r.sent_ns) / 1000);
                let key = queries[r.pos].key;
                match &r.result {
                    Ok((bits, version)) => {
                        self.ok += 1;
                        if edge.versions.get(version) != Some(&key.model) {
                            self.bad_versions += 1;
                        }
                        if self.unique {
                            self.fresh.push((key, *bits));
                        } else if *self.answers.entry(key).or_insert(*bits) != *bits {
                            self.mismatched += 1;
                        }
                    }
                    Err(ServeError::Busy { .. }) => self.busy += 1,
                    Err(ServeError::DeadlineExceeded { .. }) => self.expired += 1,
                    Err(_) => self.other += 1,
                }
            }
        }
        let rtts: Vec<f64> = rtt_of.values().map(|&us| us as f64).collect();
        self.rtt_p50.push(median(&rtts));

        let mut checked = 0;
        for t in edge.server.traces() {
            let Some(&rtt) = rtt_of.get(&t.request_id) else {
                continue;
            };
            checked += 1;
            // Admission follows the client's send and the evaluated stamp is
            // taken before the reply is handed to the writer, so this span
            // lies inside the round trip (stamps are whole µs, hence 1 µs).
            let evaluated = t.evaluated_us.saturating_sub(t.admitted_us);
            ctx.check(evaluated <= rtt + 1, || {
                format!(
                    "{name}: request {:#x} spent {evaluated} us from admission to evaluation, longer than its {rtt} us round trip",
                    t.request_id
                )
            });
            // The replied stamp is taken after the write returns, so a
            // writer descheduled after writing stamps it after the client
            // has the reply; such stamps are counted, not failed.
            let replied = t.replied_us.saturating_sub(t.admitted_us);
            self.server_us.push(replied as f64);
            if replied > rtt + 1 {
                self.late_stamps += 1;
            }
        }
        ctx.check(checked > 0, || {
            format!("{name}: no server trace matched a client request")
        });
        let ((served_before, stages_before), (served_after, stages_after)) = (before, after);
        match (served_before, served_after) {
            (Ok(b), Ok(a)) => {
                let (served, ok) = (a - b, self.ok - ok_before);
                ctx.check(served == ok, || {
                    format!("{name}: METRICS counted {served} served in a round, the client {ok}")
                });
            }
            (Err(e), _) | (_, Err(e)) => {
                ctx.check(false, || format!("{name}: METRICS scrape failed: {e}"));
            }
        }
        self.moved.add(&stages_before, &stages_after);
    }

    /// Tallies, client and server latencies side by side, and the stream's
    /// per-layer metrics under `ingress.<prefix>…`.
    fn report(&self, ctx: &mut Ctx, name: &str, prefix: &str) {
        eprintln!(
            "{name}: {} rounds, sent {} succeeded {} failed {} (busy {}, expired {}, other errors {}, connection faults {})",
            self.rounds,
            self.sent,
            self.ok,
            self.failed(),
            self.busy,
            self.expired,
            self.other,
            self.faults
        );
        ctx.attempted += self.sent;
        ctx.failed += self.failed();
        let answered = self.answered;
        ctx.check(answered == self.sent, || {
            format!("{name}: {answered} answers for {} requests", self.sent)
        });
        let stage = |h: usize| self.moved.quantile(h, 0.5);
        eprintln!(
            "{name}: client RTT p50 {:.1} us (median over rounds) | server admission->replied p50 {:.1} us over {} traced requests ({} longer than their round trip) | histogram p50: queue wait {:.1}, assembly {:.1}, tape eval {:.1}, write {:.1} us",
            median(&self.rtt_p50),
            median(&self.server_us),
            self.server_us.len(),
            self.late_stamps,
            stage(QUEUE_WAIT),
            stage(ASSEMBLY),
            stage(EVAL),
            stage(WRITE)
        );
        let rows = [
            ("queue_wait_us", stage(QUEUE_WAIT), "us"),
            ("assembly_us", stage(ASSEMBLY), "us"),
            ("eval_us", stage(EVAL), "us"),
            ("write_us", stage(WRITE), "us"),
            ("group_mean", self.moved.mean(GROUP), "queries"),
            ("uniform_passes", self.moved.uniform as f64, "count"),
            ("ragged_passes", self.moved.ragged as f64, "count"),
            ("late_reply_stamps", self.late_stamps as f64, "count"),
        ];
        for (metric, value, unit) in rows {
            ctx.layers
                .put(&format!("ingress.{prefix}{metric}"), value, unit);
        }
    }
}

/// Which closed-loop stream a round sends.
#[derive(Clone, Copy, PartialEq)]
enum Stream {
    Nas,
    Distinct,
}

/// The phase's state across its rounds, which rotate over the `nas`
/// closed loop, the `distinct` closed loop and the open loop.
pub struct Serve<'e> {
    edge: &'e mut Edge,
    main: bool,
    inputs: Inputs,
    streams: Vec<TcpStream>,
    open_stream: TcpStream,
    scraper: IngressClient,
    /// First request id of the next round; ids never repeat in a run.
    next_id: u64,
    nas: Tally,
    distinct: Tally,
    open: Tally,
    nas_rounds: Samples,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    publishes: u64,
    round_p50: Vec<f64>,
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
}

impl<'e> Serve<'e> {
    /// Builds the streams from the searches' queries (`searches`, made
    /// for N1 device `target`) and opens the connections: one per hardware
    /// thread (at most 2) for the closed loops, one for the open loop, one
    /// for METRICS scrapes.
    pub fn new(
        ctx: &mut Ctx,
        edge: &'e mut Edge,
        target: &str,
        searches: &[Vec<Arch>],
        main: bool,
    ) -> Self {
        let addr = edge.server.local_addr();
        let conns = thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        assert!(
            searches.len().is_multiple_of(SEARCHES_PER_ROUND),
            "a round replays whole searches"
        );
        let devices = [edge.refs[0].devices().len(), edge.refs[1].devices().len()];
        let target = edge.refs[0]
            .devices()
            .iter()
            .position(|d| d == target)
            .expect("the search target is an N1 bundle device");
        let inputs = Inputs::make(ctx.seed, devices, target, searches);
        let deadlines =
            inputs.nas.iter().filter(|q| q.deadline).count() as f64 / inputs.nas.len() as f64;
        eprintln!(
            "serve inputs: nas stream of {} queries from {} searches, repeat share {:.1}% over the list in order (100% once it cycles), deadline share {:.1}%; distinct stream over {} N1 keys and fresh FBNet archs",
            inputs.nas.len(),
            searches.len(),
            100.0 * repeat_share(&inputs.nas),
            100.0 * deadlines,
            inputs.n1_keys.len()
        );
        let mut streams: Vec<TcpStream> = (0..=conns)
            .map(|_| {
                let s = TcpStream::connect(addr).expect("connect to the loopback server");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                // A hung server then fails the run instead of hanging it.
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("set a read timeout");
                s
            })
            .collect();
        let open_stream = streams.pop().expect("one open-loop connection");
        let scraper = IngressClient::connect(addr).expect("connect to the loopback server");
        Serve {
            edge,
            main,
            inputs,
            streams,
            open_stream,
            scraper,
            next_id: 1,
            nas: Tally::default(),
            distinct: Tally {
                unique: true,
                ..Tally::default()
            },
            open: Tally::default(),
            nas_rounds: Samples::default(),
            traced: Vec::new(),
            untraced: Vec::new(),
            publishes: 0,
            round_p50: Vec::new(),
            lat_us: Vec::new(),
            late_us: Vec::new(),
        }
    }

    /// One round of whichever stream has had fewest.
    pub fn round(&mut self, ctx: &mut Ctx) {
        let rounds = [self.nas.rounds, self.distinct.rounds, self.open.rounds];
        if rounds[0] <= rounds[1] && rounds[0] <= rounds[2] {
            self.closed_round(ctx, Stream::Nas);
        } else if rounds[1] <= rounds[2] {
            self.closed_round(ctx, Stream::Distinct);
        } else {
            self.open_round(ctx);
        }
    }

    fn view(&mut self) -> View {
        (served_total(&mut self.scraper), Stages::take(self.edge))
    }

    /// Reserves `n` request ids.
    fn ids(&mut self, n: usize) -> u64 {
        let base = self.next_id;
        self.next_id += n as u64;
        base
    }

    /// One closed-loop round of `stream`: `SEARCHES_PER_ROUND` searches of
    /// the list per connection, or `DISTINCT_ROUND` distinct keys.
    fn closed_round(&mut self, ctx: &mut Ctx, stream: Stream) {
        let conns = self.streams.len();
        let round = match stream {
            Stream::Nas => self.nas.rounds,
            Stream::Distinct => self.distinct.rounds,
        };
        let lanes: Vec<Vec<Query>> = (0..conns)
            .map(|c| {
                let k = (round * conns + c) as u64;
                match stream {
                    Stream::Nas => {
                        let searches = self.inputs.starts.len() - 1;
                        let s = (k as usize * SEARCHES_PER_ROUND) % searches;
                        let span =
                            self.inputs.starts[s]..self.inputs.starts[s + SEARCHES_PER_ROUND];
                        self.inputs.nas[span].to_vec()
                    }
                    Stream::Distinct => {
                        let first = k * DISTINCT_ROUND as u64;
                        (first..first + DISTINCT_ROUND as u64)
                            .map(|i| self.inputs.distinct(i))
                            .collect()
                    }
                }
            })
            .collect();
        let reqs: Vec<Vec<ServeRequest>> = lanes
            .iter()
            .map(|qs| qs.iter().map(|&q| self.inputs.request(q)).collect())
            .collect();
        let bases: Vec<u64> = lanes.iter().map(|qs| self.ids(qs.len())).collect();
        let n: usize = lanes.iter().map(Vec::len).sum();
        let tracing = ctx.trace_round(self.main && stream == Stream::Nas, round);
        trace::set_enabled(tracing);
        let before = self.view();
        let (streams, edge) = (&mut self.streams, &mut *self.edge);
        let ((results, ms, publishes), _) = ctx.clock.time(|| {
            let name = match stream {
                Stream::Nas => "serve.nas_round",
                Stream::Distinct => "serve.distinct_round",
            };
            trace::span(name, 0, || closed_loop(streams, edge, &reqs, &bases))
        });
        self.publishes += publishes;
        let after = self.view();
        let tally = match stream {
            Stream::Nas => {
                self.nas_rounds.push(ms);
                let overhead = if tracing {
                    &mut self.traced
                } else {
                    &mut self.untraced
                };
                overhead.push(ms);
                &mut self.nas
            }
            Stream::Distinct => &mut self.distinct,
        };
        tally.qps.push(n as f64 / (ms / 1e3));
        let name = match stream {
            Stream::Nas => "nas closed loop",
            Stream::Distinct => "distinct closed loop",
        };
        let lanes = lanes.into_iter().zip(results).collect();
        tally.close_round(ctx, self.edge, name, lanes, before, after);
        trace::set_enabled(ctx.trace);
    }

    /// `OPEN_ROUND` queries of the `nas` stream sent at `OPEN_RATE`, each
    /// timed from when it was due.
    fn open_round(&mut self, ctx: &mut Ctx) {
        let windows = self.inputs.nas.len() / OPEN_ROUND;
        let first = (self.open.rounds % windows) * OPEN_ROUND;
        let queries = self.inputs.nas[first..first + OPEN_ROUND].to_vec();
        let reqs: Vec<ServeRequest> = queries.iter().map(|&q| self.inputs.request(q)).collect();
        let base = self.ids(OPEN_ROUND);
        let before = self.view();
        let stream = &mut self.open_stream;
        // The round keeps its own schedule, so its length is fixed; timing it
        // only adds a reference timing.
        let (result, _) = ctx
            .clock
            .time(|| trace::span("serve.open_round", 0, || open_conn(stream, &reqs, base)));
        if let Ok(replies) = &result {
            let lat: Vec<f64> = replies
                .iter()
                .map(|r| (r.recv_ns - r.due_ns) as f64 / 1e3)
                .collect();
            self.round_p50.push(median(&lat));
            self.lat_us.extend(lat);
            self.late_us
                .extend(replies.iter().map(|r| (r.sent_ns - r.due_ns) as f64 / 1e3));
        }
        let after = self.view();
        self.open.close_round(
            ctx,
            self.edge,
            "open loop",
            vec![(queries, result)],
            before,
            after,
        );
    }

    /// Checks every answer, reports the streams, runs the layer probes in a
    /// traced run.
    pub fn finish(self, ctx: &mut Ctx) {
        self.nas.report(ctx, "nas closed loop", "");
        self.distinct
            .report(ctx, "distinct closed loop", "distinct_");
        self.open.report(ctx, "open loop", "open_");
        let scale = ctx.clock.scale();
        // Geometric means over rounds, as for every timing (see `Samples`).
        let (raw_nas, raw_distinct) = (gmean(&self.nas.qps), gmean(&self.distinct.qps));
        let (nas_qps, distinct_qps) = (raw_nas / scale, raw_distinct / scale);
        eprintln!(
            "nas closed loop: round {}; {nas_qps:.0} q/s normalised (raw {raw_nas:.0}) | distinct closed loop: {distinct_qps:.0} q/s normalised (raw {raw_distinct:.0}) | {} re-publishes",
            self.nas_rounds.summary(scale),
            self.publishes
        );
        // The lower quartile over rounds of each round's p50: on a shared
        // host, slow wake-ups can hold for most of a run's rounds (on a
        // 2-vCPU VM one run in four read 2.2x the others' median over
        // rounds) without the reference loop seeing it.
        let p50 = quantile(&self.round_p50, 0.25);
        let late_max = self.late_us.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "open loop: {OPEN_RATE} q/s; latency from due time: per-round p50, lower quartile {:.1} us normalised (raw {p50:.1}; median over rounds {:.1}, pooled {:.1}), pooled p99 {:.1} us; generator late p99 {:.1} us, max {late_max:.1} us",
            p50 * scale,
            median(&self.round_p50),
            median(&self.lat_us),
            quantile(&self.lat_us, 0.99),
            quantile(&self.late_us, 0.99),
        );
        if self.main {
            ctx.report_overhead(&self.traced, &self.untraced);
        }
        let layers = &mut ctx.layers;
        layers.put("registry.cache_hits", self.nas.moved.hits as f64, "count");
        layers.put("client.rtt_us", median(&self.nas.rtt_p50), "us");
        layers.put(
            "client.distinct_rtt_us",
            median(&self.distinct.rtt_p50),
            "us",
        );
        layers.put("edge.p50_us", p50 * scale, "us");
        layers.put("edge.p99_us", quantile(&self.lat_us, 0.99), "us");
        layers.put("loadgen.late_p99_us", quantile(&self.late_us, 0.99), "us");
        layers.put("loadgen.late_max_us", late_max, "us");
        check_answers(
            ctx,
            self.edge,
            &self.inputs,
            [&self.nas, &self.distinct, &self.open],
        );
        ctx.end_to_end.put("serve_qps", nas_qps, "1/s");
        ctx.end_to_end
            .put("serve_distinct_qps", distinct_qps, "1/s");

        if ctx.trace {
            probe_layers(ctx, self.edge, &self.inputs);
        }
    }
}

/// Every TCP answer must equal, bit for bit, `ModelBundle::predict_one` of
/// a published version of the model it asked for: each key's first answer
/// (every answer of the `distinct` stream) is compared here, later answers
/// were compared with the first as they arrived.
fn check_answers(ctx: &mut Ctx, edge: &Edge, inputs: &Inputs, streams: [&Tally; 3]) {
    let answers = || {
        streams
            .iter()
            .flat_map(|t| t.answers.iter().chain(t.fresh.iter().map(|(k, b)| (k, b))))
    };
    // Two threads, each taking every other answer.
    let differ = |skip: usize| {
        answers()
            .skip(skip)
            .step_by(2)
            .filter(|&(k, &bits)| {
                edge.refs[k.model]
                    .predict_one(&inputs.arch(*k), k.device)
                    .to_bits()
                    != bits
            })
            .count() as u64
    };
    let wrong_first = thread::scope(|s| {
        let h = s.spawn(|| differ(1));
        differ(0) + h.join().expect("reference thread panicked")
    });
    let checked: u64 = streams.iter().map(|t| t.ok).sum();
    let wrong = wrong_first
        + streams
            .iter()
            .map(|t| t.mismatched + t.bad_versions)
            .sum::<u64>();
    eprintln!(
        "serve answers: {checked} checked bitwise against predict_one over {} keys, {wrong} differ",
        answers().count()
    );
    ctx.check(wrong == 0, || {
        format!("{wrong} of {checked} TCP answers differ from predict_one")
    });
}

/// Per-layer probes of the serving path, called in process.
fn probe_layers(ctx: &mut Ctx, edge: &Edge, inputs: &Inputs) {
    // One batched tape pass over 16 mixed-device N1 queries.
    let bundle = &edge.refs[0];
    let member = &bundle.members()[0];
    let archs: Vec<Arch> = (0..16)
        .map(|i| inputs.arch(inputs.distinct(2 * i).key))
        .collect();
    let archs: Vec<&Arch> = archs.iter().collect();
    let devices: Vec<usize> = (0..16).map(|i| i % bundle.devices().len()).collect();
    let supp: Vec<Vec<f32>> = archs
        .iter()
        .map(|a| bundle.supp_row(a).expect("N1 bundle has a ZCP supplement"))
        .collect();
    let mut session = member.session();
    for _ in 0..20 {
        trace::span("core.batch", 0, || {
            session.predict_many_devices(&archs, &devices, Some(&supp))
        });
    }

    // Wire encode/decode of a request frame, 1000 per span.
    let req = inputs.request(inputs.nas[0]);
    let frame = Frame::Request(RequestFrame::from_request(7, &req));
    let bytes = frame.encode();
    for _ in 0..9 {
        trace::span("wire.encode_x1000", 0, || {
            for _ in 0..1000 {
                std::hint::black_box(frame.encode());
            }
        });
        let many: Vec<u8> = bytes.repeat(1000);
        let mut cursor = std::io::Cursor::new(many);
        trace::span("wire.decode_x1000", 0, || {
            for _ in 0..1000 {
                std::hint::black_box(
                    read_frame(&mut cursor, WIRE_MAX_FRAME).expect("frame decodes"),
                );
            }
        });
    }

    // The registry's in-process path: a miss, then a hit, per key.
    let mut registry = PredictorRegistry::new(CACHE);
    registry
        .insert(N1, bundle.clone())
        .expect("in-memory publish succeeds");
    let mut seen = HashSet::new();
    let fresh = inputs.nas.iter().filter(|q| seen.insert(q.key));
    for q in fresh.take(64) {
        let req = inputs.request(*q);
        let miss = trace::span("registry.serve_one.miss", 0, || registry.serve_one(&req));
        let hit = trace::span("registry.serve_one.hit", 0, || registry.serve_one(&req));
        ctx.check(
            matches!((&miss, &hit), (Ok(a), Ok(b)) if a.score.to_bits() == b.score.to_bits()),
            || "registry cache hit differs from its miss".to_string(),
        );
    }
}
