//! `serve_wire`: the LeNet deploy net behind `rpc::RpcServer`, one replica
//! of nproc team threads, `max_batch` 16 and a 2 ms window (the CLI
//! defaults), over loopback.
//!
//! Phase A is an open loop at a fixed rate far below saturation: one
//! connection, a sending thread and a receiving thread, each request timed
//! from when it was due. Phase B is a closed loop of two connections, each
//! keeping a window of `max_batch` requests in flight, so batches are full.

use crate::layer_times::LayerTimes;
use crate::report::{
    busiest_thread_s, cpu_seconds, median, peak_rss_mib, tail, thread_cpu_ns, Report,
    TAIL_MIN_SAMPLES,
};
use crate::{alloc, kernels, reference, train, Opts};
use cgdnn::blob::Shape;
use cgdnn::datasets::SyntheticMnist;
use cgdnn::layers::ctx::{Phase, ReductionMode};
use cgdnn::layers::data::BatchSource;
use cgdnn::mmblas::Pcg32;
use cgdnn::net::{Net, NetSpec, RunConfig};
use cgdnn::obs::trace;
use cgdnn::omprt::{self, ThreadTeam};
use cgdnn::CoarseGrainTrainer;
use rpc::{proto, Outcome, RpcClient, RpcConfig, RpcServer};
use serve::{BatchPolicy, Engine, EngineConfig, EngineFactory, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const MAX_BATCH: usize = 16;
/// Phase A offered rate, requests per second.
const RATE: f64 = 25.0;
/// Requests in flight per phase-B connection.
const WINDOW: usize = MAX_BATCH;
const CLIENTS: usize = 2;
/// Distinct request images, drawn from digits the snapshot never saw.
const POOL: usize = 256;
const POOL_OFFSET: usize = 100_000;
/// Snapshot training: steps at batch 64 over a 2048-digit set.
const SNAPSHOT_STEPS: usize = 60;
const SNAPSHOT_SET: usize = 2048;
/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 15;
/// Phase-A requests per CPU reading: `cpu_ms_per_call` is the median over
/// windows of this many requests (one second at `RATE`).
const A_WINDOW: usize = 25;
/// Phase-B time per CPU reading: `cpu_ms_per_sample` is the median over
/// windows this long.
const B_WINDOW: Duration = Duration::from_millis(500);
/// Pool images also checked against the f64 reference.
const F64_SUBSET: usize = 32;
/// Largest |f32 reply - f64 reference| allowed per probability.
const F64_PROB_TOL: f64 = 1e-5;
/// Largest |sum of a reply - 1| allowed.
const SUM_TOL: f64 = 1e-5;
const MIN_ACCURACY: f64 = 0.9;
/// Fewest full micro-batches timed at 1 thread and at T for `speedup`.
const MIN_SPEEDUP_PAIRS: usize = 20;
/// Full micro-batches run through the traced run's forward probe.
const PROBE_FORWARDS: usize = 20;

fn sample_shape() -> Shape {
    Shape::from([1usize, 28, 28])
}

/// LeNet trained from the seed, as a `CGDN` snapshot.
fn train_snapshot(seed: u64, threads: usize) -> Result<Vec<u8>, String> {
    let data = train::render(&SyntheticMnist::new(SNAPSHOT_SET, seed), SNAPSHOT_SET);
    let mut trainer =
        CoarseGrainTrainer::<f32>::lenet(Box::new(data), threads).map_err(|e| e.to_string())?;
    trainer.train(SNAPSHOT_STEPS);
    let mut bytes = Vec::new();
    cgdnn::net::save_params(trainer.net(), &mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// A running server: engine replica, micro-batcher and wire front-end.
struct Stack {
    server: Server<f32>,
    rpc: RpcServer,
}

impl Stack {
    fn start(factory: &EngineFactory<f32>) -> Result<Self, String> {
        let server = Server::start(
            factory.build_n(1).map_err(|e| e.to_string())?,
            BatchPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
        let rpc = RpcServer::start(
            "127.0.0.1:0",
            server.client(),
            server.output_len(),
            RpcConfig::default(),
            cgdnn::obs::registry::global(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Self { server, rpc })
    }

    fn stop(self) {
        self.rpc.shutdown();
        self.server.shutdown();
    }

    /// `(sum of batch sizes, batches)` executed so far.
    fn batches(&self) -> (u64, u64) {
        let hist = self.server.metrics().report().batch_hist;
        hist.iter()
            .fold((0, 0), |(s, n), &(size, c)| (s + size as u64 * c, n + c))
    }
}

/// The request images, their labels and the reference reply of each.
struct Pool {
    images: Vec<Vec<f32>>,
    labels: Vec<usize>,
    expected: Vec<Vec<f32>>,
}

/// What the replies showed.
#[derive(Default)]
struct Tally {
    answered: u64,
    failed: u64,
    not_probs: u64,
    not_reference: u64,
    correct_class: u64,
}

impl Tally {
    fn reply(&mut self, pool: &Pool, idx: usize, probs: &[f32]) {
        self.answered += 1;
        let sum: f64 = probs.iter().map(|&p| f64::from(p)).sum();
        if !probs.iter().all(|p| p.is_finite() && *p >= 0.0) || (sum - 1.0).abs() > SUM_TOL {
            self.not_probs += 1;
        }
        let same = probs.len() == pool.expected[idx].len()
            && probs
                .iter()
                .zip(&pool.expected[idx])
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.not_reference += 1;
        }
        if argmax(probs) == pool.labels[idx] {
            self.correct_class += 1;
        }
    }

    fn add(&mut self, o: &Tally) {
        self.answered += o.answered;
        self.failed += o.failed;
        self.not_probs += o.not_probs;
        self.not_reference += o.not_reference;
        self.correct_class += o.correct_class;
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// The open-loop schedule: request `i` is due `i / RATE` after the start
/// and carries pool image `images[i]`.
struct Schedule {
    images: Vec<usize>,
}

impl Schedule {
    fn new(seed: u64, n: usize) -> Self {
        let mut rng = Pcg32::new(seed, 1);
        Self {
            images: (0..n)
                .map(|_| rng.uniform_u32(POOL as u32) as usize)
                .collect(),
        }
    }

    fn due(&self, start: Instant, i: usize) -> Instant {
        start + Duration::from_secs_f64(i as f64 / RATE)
    }

    /// Wait for request `i`'s due time; returns how late the wait ended.
    fn wait(&self, start: Instant, i: usize) -> Duration {
        let due = self.due(start, i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Instant::now().saturating_duration_since(due)
    }
}

/// One reply frame off the wire: request id, arrival, kind, payload.
type Reply = (u64, Instant, u8, Vec<u8>);

/// Latencies (from due time) and sender lateness of one open-loop pass.
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Process CPU ms per request over each window of `A_WINDOW` sends.
    cpu_ms: Vec<f64>,
    tally: Tally,
}

/// Phase A over the wire: one connection, a sending and a receiving thread.
fn open_loop(addr: SocketAddr, pool: &Pool, sched: &Schedule) -> Result<OpenLoop, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut tx = TcpStream::connect(addr).map_err(io)?;
    tx.set_nodelay(true).map_err(io)?;
    tx.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(io)?;
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    tx.read_exact(&mut hello).map_err(io)?;
    let h = proto::decode_server_hello(&hello).map_err(|e| e.to_string())?;
    if h.status != proto::HELLO_OK {
        return Err(format!("server hello status {}", h.status));
    }
    tx.write_all(&proto::encode_client_hello()).map_err(io)?;
    let mut rx = tx.try_clone().map_err(io)?;
    let payloads: Vec<Vec<u8>> = pool
        .images
        .iter()
        .map(|img| {
            let mut b = Vec::new();
            proto::write_f32s(&mut b, img);
            b
        })
        .collect();
    let n = sched.images.len();
    let start = Instant::now() + Duration::from_millis(5);
    let traced = trace::enabled();

    // Process CPU seconds at every `A_WINDOW`-th send.
    let mut cpu_at = Vec::new();
    let (late, replies) = std::thread::scope(|s| {
        let receiver = s.spawn(move || -> Result<Vec<Reply>, String> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let mut head = [0u8; proto::FRAME_HEADER_LEN];
                rx.read_exact(&mut head).map_err(|e| e.to_string())?;
                let at = Instant::now();
                let h = proto::decode_header(&head).map_err(|e| e.to_string())?;
                if h.payload_len > proto::MAX_PAYLOAD {
                    return Err(format!("reply payload of {} bytes", h.payload_len));
                }
                let mut payload = vec![0u8; h.payload_len as usize];
                rx.read_exact(&mut payload).map_err(|e| e.to_string())?;
                out.push((h.id, at, h.kind, payload));
            }
            Ok(out)
        });
        let mut late = Vec::with_capacity(n);
        let mut frame = Vec::new();
        for (i, &img) in sched.images.iter().enumerate() {
            late.push(sched.wait(start, i).as_secs_f64() * 1e3);
            if i % A_WINDOW == 0 {
                cpu_at.push(cpu_seconds());
            }
            let _span = trace::span("send", "rpc");
            frame.clear();
            frame.extend_from_slice(&proto::encode_header(
                proto::REQ_INFER,
                i as u64,
                0,
                payloads[img].len() as u32,
            ));
            frame.extend_from_slice(&payloads[img]);
            if let Err(e) = tx.write_all(&frame) {
                // Unblock the receiver before reporting.
                let _ = tx.shutdown(std::net::Shutdown::Both);
                return (late, Err(e.to_string()));
            }
        }
        (
            late,
            receiver
                .join()
                .unwrap_or_else(|_| Err("receiver panicked".into())),
        )
    });

    let mut latency_ms = Vec::with_capacity(n);
    let mut tally = Tally::default();
    for (id, at, kind, payload) in replies? {
        let i = id as usize;
        if i >= n {
            return Err(format!("reply to unknown request {id}"));
        }
        let due = sched.due(start, i);
        if traced {
            trace::record("request", "bench", due, at - due);
        }
        if kind != proto::RESP_PROBS {
            tally.failed += 1;
            continue;
        }
        let probs = proto::read_f32s(&payload).map_err(|e| e.to_string())?;
        tally.reply(pool, sched.images[i], &probs);
        latency_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    let per_request = 1e3 / A_WINDOW as f64;
    Ok(OpenLoop {
        latency_ms,
        late_ms: late,
        cpu_ms: cpu_at
            .windows(2)
            .map(|w| (w[1] - w[0]) * per_request)
            .collect(),
        tally,
    })
}

/// Phase A's schedule replayed in process through `serve::Client`.
fn inproc_replay(
    server: &Server<f32>,
    pool: &Pool,
    sched: &Schedule,
) -> Result<(Vec<f64>, Tally), String> {
    let client = server.client();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(5);
    for (i, &img) in sched.images.iter().enumerate() {
        sched.wait(start, i);
        let tx = tx.clone();
        let _span = trace::span("submit_async", "serve");
        client
            .submit_async(pool.images[img].clone(), None, move |r| {
                let _ = tx.send((i, Instant::now(), r.map(|o| o.to_vec())));
            })
            .map_err(|e| e.to_string())?;
    }
    drop(tx);
    let mut latency_ms = Vec::new();
    let mut tally = Tally::default();
    for (i, at, r) in rx {
        match r {
            Ok(probs) => {
                tally.reply(pool, sched.images[i], &probs);
                latency_ms.push(
                    at.saturating_duration_since(sched.due(start, i))
                        .as_secs_f64()
                        * 1e3,
                );
            }
            Err(_) => tally.failed += 1,
        }
    }
    Ok((latency_ms, tally))
}

/// Phase B: `CLIENTS` connections, each keeping `WINDOW` requests in flight
/// for `duration`. Returns replies per second, requests sent, the tally,
/// and the process CPU ms per reply over each `B_WINDOW`.
fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    seed: u64,
    duration: Duration,
) -> Result<(f64, u64, Tally, Vec<f64>), String> {
    let start = Instant::now();
    let end = start + duration;
    let replies = AtomicU64::new(0);
    let mut cpu_ms = Vec::new();
    let results: Vec<Result<(u64, Instant, Tally), String>> = std::thread::scope(|s| {
        let replies = &replies;
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<(u64, Instant, Tally), String> {
                    let err = |e: rpc::RpcError| e.to_string();
                    let mut client = RpcClient::connect(addr).map_err(err)?;
                    let mut rng = Pcg32::new(seed, 100 + c as u64);
                    let mut sent_images = vec![usize::MAX];
                    let mut tally = Tally::default();
                    let mut last = start;
                    loop {
                        while client.in_flight() < WINDOW && Instant::now() < end {
                            let img = rng.uniform_u32(POOL as u32) as usize;
                            let id = client.send_infer(&pool.images[img], 0).map_err(err)?;
                            if id as usize != sent_images.len() {
                                return Err(format!("unexpected request id {id}"));
                            }
                            sent_images.push(img);
                        }
                        if client.in_flight() == 0 {
                            return Ok((sent_images.len() as u64 - 1, last, tally));
                        }
                        let done = client.recv_completion().map_err(err)?;
                        last = Instant::now();
                        replies.fetch_add(1, Ordering::Relaxed);
                        match done.outcome {
                            Outcome::Probs(p) => {
                                tally.reply(pool, sent_images[done.id as usize], &p)
                            }
                            _ => tally.failed += 1,
                        }
                    }
                })
            })
            .collect();
        // This thread only reads the CPU clock, once per window.
        let window = B_WINDOW.min(duration);
        let (mut cpu0, mut n0) = (cpu_seconds(), 0);
        let mut next = start + window;
        while next <= end {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            let (cpu1, n1) = (cpu_seconds(), replies.load(Ordering::Relaxed));
            if n1 > n0 {
                cpu_ms.push((cpu1 - cpu0) * 1e3 / (n1 - n0) as f64);
            }
            (cpu0, n0) = (cpu1, n1);
            next += window;
        }
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut tally = Tally::default();
    let (mut sent, mut last) = (0, start);
    for r in results {
        let (n, at, t) = r?;
        sent += n;
        last = last.max(at);
        tally.add(&t);
    }
    Ok((
        tally.answered as f64 / (last - start).as_secs_f64(),
        sent,
        tally,
        cpu_ms,
    ))
}

/// Median seconds of `Engine::infer_batch` on `batch` pool images.
fn time_infer(engine: &mut Engine<f32>, pool: &Pool, batch: usize) -> Result<f64, String> {
    let samples: Vec<&[f32]> = pool.images[..batch].iter().map(Vec::as_slice).collect();
    let times = crate::untraced("infer_batch_probe", "serve", || {
        (0..20)
            .map(|_| {
                let t = Instant::now();
                engine
                    .infer_batch(&samples)
                    .map(|_| t.elapsed().as_secs_f64())
            })
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    Ok(median(&times))
}

/// `Engine::infer_batch` on full micro-batches for `duration`, in turn on
/// a 1-thread engine and on the T-thread engine of `factory`. Returns the
/// median over pairs of the busiest thread's CPU time at 1 thread over
/// that at T, the batches run, and the tally of every reply.
fn engine_speedup(
    factory: &EngineFactory<f32>,
    spec: &cgdnn::net::NetSpec,
    snapshot: &[u8],
    pool: &Pool,
    duration: Duration,
) -> Result<(f64, u64, Tally), String> {
    let serr = |e: serve::ServeError| e.to_string();
    let one = EngineConfig {
        max_batch: MAX_BATCH,
        n_threads: 1,
    };
    let mut engines = [
        EngineFactory::new(spec, &sample_shape(), &one, Some(snapshot))
            .and_then(|f| f.build())
            .map_err(serr)?,
        factory.build().map_err(serr)?,
    ];
    let mut times = [Vec::new(), Vec::new()];
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut p = 0;
    while start.elapsed() < duration || p < MIN_SPEEDUP_PAIRS {
        // A different run of pool images each pair.
        let first = p * MAX_BATCH % POOL;
        let samples: Vec<&[f32]> = pool.images[first..first + MAX_BATCH]
            .iter()
            .map(Vec::as_slice)
            .collect();
        for (engine, times) in engines.iter_mut().zip(&mut times) {
            let len = engine.output_len();
            let th = thread_cpu_ns();
            let out = engine.infer_batch(&samples).map_err(serr)?;
            times.push(busiest_thread_s(&th, &thread_cpu_ns()));
            for (i, probs) in out.chunks(len).enumerate() {
                tally.reply(pool, first + i, probs);
            }
        }
        p += 1;
    }
    let ratios: Vec<f64> = times[0].iter().zip(&times[1]).map(|(a, b)| a / b).collect();
    Ok((median(&ratios), 2 * p as u64, tally))
}

/// The deploy net `Engine::infer_batch` runs, built apart from the engine
/// with the engine's weights, team size and run settings, so its layer
/// times can be read. Each pass runs a full micro-batch of pool images;
/// every output row must equal the reference reply bit for bit. Returns
/// the median forward seconds and the net.
fn forward_probe(
    spec: &NetSpec,
    engine: &Engine<f32>,
    pool: &Pool,
    threads: usize,
    layers: &mut LayerTimes,
    report: &mut Report,
) -> Result<(f64, Net<f32>), String> {
    let deploy = serve::deploy_spec(spec).map_err(|e| e.to_string())?;
    let mut dims = vec![MAX_BATCH];
    dims.extend_from_slice(sample_shape().dims());
    let input = [(deploy.input.clone(), Shape::from(dims))];
    let mut net =
        Net::from_spec_with_inputs(&deploy.spec, None, &input).map_err(|e| e.to_string())?;
    net.adopt_params(&engine.params())
        .map_err(|e| e.to_string())?;
    let team = ThreadTeam::new(threads);
    let run = RunConfig {
        schedule: omprt::Schedule::Static,
        reduction: ReductionMode::Canonical { groups: 16 },
        phase: Phase::Test,
    };
    let len = engine.output_len();
    let mut times = Vec::new();
    let mut mismatched = 0;
    crate::untraced("forward_probe", "net", || -> Result<(), String> {
        for p in 0..PROBE_FORWARDS {
            let first = p * MAX_BATCH % POOL;
            let batch: Vec<f32> = pool.images[first..first + MAX_BATCH].concat();
            net.set_input(&deploy.input, &batch)
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            net.forward(&team, &run);
            times.push(t.elapsed().as_secs_f64());
            layers.record(&net, false);
            let out = net
                .blob(engine.output_name())
                .ok_or("deploy net has no output blob")?;
            for (i, probs) in out.data().chunks(len).enumerate() {
                if !train::bits_equal(probs, &pool.expected[first + i]) {
                    mismatched += 1;
                }
            }
        }
        Ok(())
    })?;
    report.check(mismatched == 0, || {
        format!("{mismatched} forward-probe outputs differ from the 1-thread engine")
    });
    Ok((median(&times), net))
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let threads = crate::nproc();
    let spec = cgdnn::nets::lenet_spec();
    let serr = |e: serve::ServeError| e.to_string();

    // Inputs, made before set-up: the snapshot, the request pool, and the
    // reference reply of each pool image from a separate 1-thread engine.
    let snapshot = train_snapshot(opts.seed, threads)?;
    if let Some(path) = &opts.snapshot_out {
        std::fs::write(path, &snapshot).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("snapshot written to {path}");
        return Ok(());
    }
    let digits = SyntheticMnist::new(POOL_OFFSET + POOL, opts.seed);
    let images: Vec<Vec<f32>> = (0..POOL)
        .map(|i| {
            let mut img = vec![0.0f32; 28 * 28];
            BatchSource::<f32>::fill(&digits, POOL_OFFSET + i, &mut img);
            img
        })
        .collect();
    let labels = (0..POOL)
        .map(|i| digits.label_of(POOL_OFFSET + i))
        .collect();
    let one = EngineConfig {
        max_batch: 1,
        n_threads: 1,
    };
    let mut ref_engine = EngineFactory::new(&spec, &sample_shape(), &one, Some(&snapshot))
        .and_then(|f| f.build())
        .map_err(serr)?;
    let expected = images
        .iter()
        .map(|img| ref_engine.infer_one(img))
        .collect::<Result<Vec<_>, _>>()
        .map_err(serr)?;
    let pool = Pool {
        images,
        labels,
        expected,
    };
    let f64_ref = reference::LenetF64::from_params(&ref_engine.params())?;
    let worst = (0..F64_SUBSET)
        .flat_map(|i| {
            let want = f64_ref.probs(&pool.images[i]);
            pool.expected[i]
                .iter()
                .zip(want)
                .map(|(&a, b)| (f64::from(a) - b).abs())
                .collect::<Vec<_>>()
        })
        .fold(0.0, f64::max);
    report.check(worst <= F64_PROB_TOL, || {
        format!("replies differ from the f64 reference by {worst}")
    });
    drop(ref_engine);

    // Set-up: decode the snapshot, build the engine, start the batcher
    // and the wire front-end, answer a few requests. Repeated; the last
    // one is kept.
    let cfg = EngineConfig {
        max_batch: MAX_BATCH,
        n_threads: threads,
    };
    let mut setup_s = Vec::new();
    let mut setup_cpu_s = Vec::new();
    let mut kept: Option<(EngineFactory<f32>, Stack)> = None;
    for _ in 0..SETUPS {
        // Stop the previous set-up first, so it is not in the peak RSS.
        if let Some((_, old)) = kept.take() {
            old.stop();
        }
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let factory =
            EngineFactory::new(&spec, &sample_shape(), &cfg, Some(&snapshot)).map_err(serr)?;
        let stack = Stack::start(&factory)?;
        let mut client = RpcClient::connect(stack.rpc.local_addr()).map_err(|e| e.to_string())?;
        for img in &pool.images[..4] {
            client.infer(img).map_err(|e| e.to_string())?;
        }
        drop(client);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu_seconds() - c0);
        kept = Some((factory, stack));
    }
    let (factory, stack) = kept.expect("at least one set-up");
    let addr = stack.rpc.local_addr();
    // Phase A, phase B and the untraced run's `speedup` probe each take a
    // third of the run.
    let third = opts.seconds / 3;
    let n_a = ((RATE * third.as_secs_f64()).round() as usize).max(TAIL_MIN_SAMPLES);

    let sched = Schedule::new(opts.seed, n_a);
    let b0 = stack.batches();
    let a = open_loop(addr, &pool, &sched)?;
    let b1 = stack.batches();
    let queue_wait_ms_a = stack.server.metrics().report().mean_queue_wait_us / 1e3;
    let traced_a = if opts.trace {
        trace::set_enabled(true);
        let r = open_loop(addr, &pool, &sched);
        trace::set_enabled(false);
        Some(r?)
    } else {
        None
    };
    let b2 = stack.batches();
    let alloc_b = alloc::snapshot();
    let (rate_b, sent_b, tally_b, cpu_ms_b) = closed_loop(addr, &pool, opts.seed, third)?;
    let allocs_b = alloc::since(alloc_b);
    let b3 = stack.batches();
    let peak_rss = peak_rss_mib();

    let mut tally = Tally::default();
    tally.add(&a.tally);
    tally.add(&tally_b);
    let mut attempted = n_a as u64 + sent_b;
    if let Some(t) = &traced_a {
        tally.add(&t.tally);
        attempted += n_a as u64;
    }
    let mut inproc = None;
    if opts.trace {
        trace::set_enabled(true);
        let (lat, t) = inproc_replay(&stack.server, &pool, &sched)?;
        tally.add(&t);
        attempted += n_a as u64;
        let mut engine = factory.build().map_err(serr)?;
        let batch1 = time_infer(&mut engine, &pool, 1)?;
        let full = time_infer(&mut engine, &pool, MAX_BATCH)?;
        let one = EngineConfig {
            max_batch: MAX_BATCH,
            n_threads: 1,
        };
        let mut engine_1t = EngineFactory::new(&spec, &sample_shape(), &one, Some(&snapshot))
            .and_then(|f| f.build())
            .map_err(serr)?;
        let full_1t = time_infer(&mut engine_1t, &pool, MAX_BATCH)?;
        kernels::omprt_overheads(threads, report);
        trace::set_enabled(false);
        inproc = Some((median(&lat), batch1, full, full_1t, engine));
    }
    stack.stop();
    let speedup = if opts.trace {
        None
    } else {
        let (ratio, batches, t) = engine_speedup(&factory, &spec, &snapshot, &pool, third)?;
        tally.add(&t);
        attempted += batches * MAX_BATCH as u64;
        Some(ratio)
    };

    report.attempted = attempted;
    report.failed = tally.failed;
    report.check(tally.not_probs == 0, || {
        format!("{} replies are not probability vectors", tally.not_probs)
    });
    report.check(tally.not_reference == 0, || {
        format!(
            "{} replies differ from the 1-thread engine",
            tally.not_reference
        )
    });
    let accuracy = tally.correct_class as f64 / tally.answered.max(1) as f64;
    report.check(accuracy >= MIN_ACCURACY, || {
        format!("accuracy {accuracy} is under {MIN_ACCURACY}")
    });
    report.check(a.latency_ms.len() == n_a, || {
        "phase A lost replies".to_string()
    });

    let p50_a = median(&a.latency_ms);
    let Some((inproc_p50, batch1, full, full_1t, engine)) = inproc else {
        report.metric("setup_s", median(&setup_cpu_s), "s");
        report.metric("cpu_ms_per_sample", median(&cpu_ms_b), "ms");
        report.metric("cpu_ms_per_call", median(&a.cpu_ms), "ms");
        report.metric("speedup", speedup.expect("untraced run"), "ratio");
        report.metric("peak_rss_mib", peak_rss, "MiB");
        return Ok(());
    };
    report.metric("setup_wall_s", median(&setup_s), "s");
    report.metric("samples_per_s", rate_b, "1/s");
    report.metric("latency_ms_p50", p50_a, "ms");
    if let Some(t) = tail(&a.latency_ms) {
        report.metric("latency_ms_tail", t, "ms");
    }
    let traced_a = traced_a.expect("traced run has a traced phase A");
    let mean =
        |from: (u64, u64), to: (u64, u64)| (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64;
    report.metric(
        "bench.trace_overhead_pct",
        (median(&traced_a.latency_ms) / p50_a - 1.0) * 100.0,
        "%",
    );
    let mut layers = LayerTimes::default();
    let (forward_s, probe_net) =
        forward_probe(&spec, &engine, &pool, threads, &mut layers, report)?;
    layers.report(&probe_net, report);
    report.metric("net.forward_ms", forward_s * 1e3, "ms");
    report.metric("omprt.speedup", full_1t / full, "ratio");
    let per_reply = 1.0 / tally_b.answered.max(1) as f64;
    report.metric(
        "alloc.count_per_sample",
        allocs_b.0 as f64 * per_reply,
        "count",
    );
    report.metric("alloc.bytes_per_sample", allocs_b.1 as f64 * per_reply, "B");
    // Figures only serving has: in the table, not in the result line.
    report.detail("serve.engine.batch1_ms", batch1 * 1e3, "ms");
    report.detail("serve.engine.batch_full_ms", full * 1e3, "ms");
    report.detail("serve.engine.batch_full_ms_1t", full_1t * 1e3, "ms");
    report.detail("serve.batch_size_mean_a", mean(b0, b1), "count");
    report.detail("serve.batch_size_mean_b", mean(b2, b3), "count");
    report.detail("serve.queue_wait_ms_mean_a", queue_wait_ms_a, "ms");
    report.detail("serve.inproc_latency_ms_p50", inproc_p50, "ms");
    report.detail("rpc.wire_overhead_ms_p50", p50_a - inproc_p50, "ms");
    report.detail(
        "loadgen.late_ms_p99",
        serve::metrics::percentile(&a.late_ms, 0.99),
        "ms",
    );
    trace::set_enabled(true);
    let net = cgdnn::nets::lenet::<f32>(Box::new(SyntheticMnist::new(64, opts.seed)))
        .map_err(|e| e.to_string())?;
    kernels::floor(&spec, &net, report)?;
    trace::set_enabled(false);
    crate::write_trace(opts, &["bench", "rpc", "serve", "mmblas", "omprt"], report)
}
