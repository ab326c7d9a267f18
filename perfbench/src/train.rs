//! `train_lenet` and `train_cifar`: `CoarseGrainTrainer` steps at
//! T = nproc with the default ordered reduction and the Caffe solver of
//! each net, on a synthetic set pre-rendered into an `InMemoryDataset`.
//!
//! The traced run steps a twin of the trainer, built from the same parts,
//! in turn with the untraced one. The twin makes the same public calls
//! `Solver::step` makes, each inside a span, so the step splits into data
//! fill, forward, backward and update.

use crate::layer_times::LayerTimes;
use crate::report::{
    busiest_thread_s, cpu_seconds, median, ms, peak_rss_mib, tail, thread_cpu_ns, Report,
    TAIL_MIN_SAMPLES,
};
use crate::{alloc, kernels, reference, Opts};
use cgdnn::blob::Shape;
use cgdnn::datasets::{InMemoryDataset, SyntheticCifar, SyntheticMnist};
use cgdnn::layers::data::BatchSource;
use cgdnn::net::{Net, NetSpec, RunConfig, SpecError};
use cgdnn::obs::trace;
use cgdnn::omprt::ThreadTeam;
use cgdnn::solvers::{Solver, SolverConfig};
use cgdnn::CoarseGrainTrainer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 11;
/// Fewest timed steps, so the tail percentile always exists.
const MIN_STEPS: usize = TAIL_MIN_SAMPLES;
/// |first loss - ln 10| must stay under this (untrained 10-way softmax).
const FIRST_LOSS_TOL: f64 = 0.25;
/// Relative tolerance of the first losses against a 1-thread run.
const SEQ_REL_TOL: f64 = 1e-5;
/// Absolute tolerance of LeNet's first loss against the f64 reference.
const F64_LOSS_TOL: f64 = 1e-4;

/// The sample source a net is built over.
type DynSource = Box<dyn BatchSource<f32>>;

/// One training workload.
pub struct Workload {
    spec: fn() -> NetSpec,
    net: fn(DynSource) -> Result<Net<f32>, SpecError>,
    solver: fn() -> SolverConfig,
    /// Renders the synthetic set for a seed.
    render: fn(u64) -> InMemoryDataset,
    /// Samples per step.
    batch: usize,
    /// Untimed steps at the end of each set-up.
    warmup: usize,
    /// Leading losses compared against a 1-thread run.
    seq_steps: usize,
    /// Check against the f64 LeNet reference.
    lenet: bool,
}

pub const LENET: Workload = Workload {
    spec: cgdnn::nets::lenet_spec,
    net: cgdnn::nets::lenet,
    solver: SolverConfig::lenet,
    render: |seed| render(&SyntheticMnist::new(2048, seed), 2048),
    batch: 64,
    warmup: 2,
    seq_steps: 5,
    lenet: true,
};

pub const CIFAR: Workload = Workload {
    spec: cgdnn::nets::cifar10_full_spec,
    net: cgdnn::nets::cifar10_full,
    solver: SolverConfig::cifar,
    render: |seed| render(&SyntheticCifar::new(1000, seed), 1000),
    batch: 100,
    warmup: 1,
    seq_steps: 3,
    lenet: false,
};

/// Decode `n` samples of a procedural set into memory.
pub fn render(src: &dyn BatchSource<f32>, n: usize) -> InMemoryDataset {
    let len = src.sample_shape().count();
    let (mut images, mut labels) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let mut img = vec![0.0f32; len];
        labels.push(src.fill(i, &mut img) as u8);
        images.push(img);
    }
    InMemoryDataset::new(images, labels, src.sample_shape())
}

/// The pre-rendered set behind an `Arc`, so every net of a run reads one
/// copy. With `fill_ns` set it also sums the nanoseconds spent in `fill`.
struct Source {
    data: Arc<InMemoryDataset>,
    fill_ns: Option<Arc<AtomicU64>>,
}

impl Source {
    fn boxed(data: &Arc<InMemoryDataset>, fill_ns: Option<Arc<AtomicU64>>) -> Box<Self> {
        Box::new(Self {
            data: Arc::clone(data),
            fill_ns,
        })
    }
}

impl BatchSource<f32> for Source {
    fn num_samples(&self) -> usize {
        BatchSource::<f32>::num_samples(&*self.data)
    }

    fn sample_shape(&self) -> Shape {
        BatchSource::<f32>::sample_shape(&*self.data)
    }

    fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
        let Some(ns) = &self.fill_ns else {
            return self.data.fill(index, out);
        };
        let _span = trace::span("fill", "datasets");
        let t = Instant::now();
        let label = self.data.fill(index, out);
        ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        label
    }
}

/// The traced twin: the trainer's parts, stepped through the public calls
/// of `Solver::step` one by one.
struct Twin {
    net: Net<f32>,
    solver: Solver<f32>,
    team: ThreadTeam,
    run: RunConfig,
    fill_ns: Arc<AtomicU64>,
    losses: Vec<f32>,
    step: Vec<Duration>,
    forward_ms: Vec<f64>,
    backward_ms: Vec<f64>,
    update_ms: Vec<f64>,
    fill_ms: Vec<f64>,
    /// Per-layer pass seconds of every traced step.
    layers: LayerTimes,
}

impl Twin {
    fn new(w: &Workload, data: &Arc<InMemoryDataset>, threads: usize) -> Result<Self, String> {
        let fill_ns = Arc::new(AtomicU64::new(0));
        let net =
            (w.net)(Source::boxed(data, Some(Arc::clone(&fill_ns)))).map_err(|e| e.to_string())?;
        let mut twin = Self {
            net,
            solver: Solver::new((w.solver)()),
            team: ThreadTeam::new(threads),
            run: RunConfig::default(),
            fill_ns,
            losses: Vec::new(),
            step: Vec::new(),
            forward_ms: Vec::new(),
            backward_ms: Vec::new(),
            update_ms: Vec::new(),
            fill_ms: Vec::new(),
            layers: LayerTimes::default(),
        };
        for _ in 0..w.warmup {
            twin.step(false);
        }
        Ok(twin)
    }

    /// One step; with `traced`, spans are on and the timings are kept.
    fn step(&mut self, traced: bool) {
        trace::set_enabled(traced);
        let t0 = Instant::now();
        let span = trace::span("step", "bench");
        self.net.set_iteration(self.solver.iteration());
        self.net.zero_param_diffs();
        self.fill_ns.store(0, Ordering::Relaxed);
        let loss = {
            let _s = trace::span("forward", "net");
            self.net.forward(&self.team, &self.run)
        };
        let t1 = Instant::now();
        {
            let _s = trace::span("backward", "net");
            self.net.backward(&self.team, &self.run);
        }
        let t2 = Instant::now();
        {
            let _s = trace::span("apply_update_with_mults", "solvers");
            let lr = self.solver.lr_at(self.solver.iteration());
            let mults = self.net.param_lr_mults();
            self.solver
                .apply_update_with_mults(self.net.learnable_params_mut(), lr, &mults);
            self.solver.advance_iteration();
        }
        drop(span);
        let t3 = Instant::now();
        trace::set_enabled(false);
        self.losses.push(loss);
        if traced {
            self.step.push(t3 - t0);
            self.forward_ms.push((t1 - t0).as_secs_f64() * 1e3);
            self.backward_ms.push((t2 - t1).as_secs_f64() * 1e3);
            self.update_ms.push((t3 - t2).as_secs_f64() * 1e3);
            self.fill_ms
                .push(self.fill_ns.load(Ordering::Relaxed) as f64 / 1e6);
            self.layers.record(&self.net, true);
        }
    }
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(w: &Workload, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let threads = crate::nproc();
    let spec = (w.spec)();
    let build =
        |data: &Arc<InMemoryDataset>, threads: usize| -> Result<CoarseGrainTrainer, String> {
            let net = (w.net)(Source::boxed(data, None)).map_err(|e| e.to_string())?;
            Ok(CoarseGrainTrainer::new(net, (w.solver)(), threads))
        };

    // Set-up: render, build, warm up. Repeated; the last one is kept.
    let mut setup_s = Vec::new();
    let mut setup_cpu_s = Vec::new();
    let mut warm_losses: Vec<Vec<f32>> = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so it is not in the peak RSS.
        drop(kept.take());
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let data = Arc::new((w.render)(opts.seed));
        let mut trainer = build(&data, threads)?;
        warm_losses.push(trainer.train(w.warmup));
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu_seconds() - c0);
        kept = Some((trainer, data));
    }
    let (mut trainer, data) = kept.expect("at least one set-up");
    let mut losses = warm_losses[0].clone();
    let mut twin = if opts.trace {
        Some(Twin::new(w, &data, threads)?)
    } else {
        None
    };

    // Timed steps. The untraced run alternates them with steps of a
    // 1-thread trainer on the same data, so `speedup` compares the two
    // under the same host load; the traced run alternates them with
    // traced twin steps instead.
    let mut seq = build(&data, 1)?;
    let (mut seq_losses, mut seq_steps) = (Vec::new(), Vec::new());
    let (mut busiest, mut busiest_1t) = (Vec::new(), Vec::new());
    let mut steps = Vec::new();
    let mut allocs = Vec::new();
    let mut step_cpu = 0.0;
    let min_steps = if opts.trace { MIN_STEPS } else { w.seq_steps };
    let start = Instant::now();
    while start.elapsed() < opts.seconds || steps.len() < min_steps {
        let th = thread_cpu_ns();
        let a0 = alloc::snapshot();
        let (t, c) = (Instant::now(), cpu_seconds());
        losses.push(trainer.step());
        steps.push(t.elapsed());
        step_cpu += cpu_seconds() - c;
        allocs.push(alloc::since(a0));
        busiest.push(busiest_thread_s(&th, &thread_cpu_ns()));
        match &mut twin {
            Some(tw) => tw.step(true),
            None => {
                let th = thread_cpu_ns();
                let t = Instant::now();
                seq_losses.push(seq.step());
                seq_steps.push(t.elapsed());
                busiest_1t.push(busiest_thread_s(&th, &thread_cpu_ns()));
            }
        }
    }
    let peak_rss = peak_rss_mib();
    // The traced run times its 1-thread steps after the loop.
    while seq_losses.len() < w.seq_steps {
        let t = Instant::now();
        seq_losses.push(seq.step());
        seq_steps.push(t.elapsed());
    }
    report.attempted =
        (steps.len() + seq_steps.len() + twin.as_ref().map_or(0, |t| t.step.len())) as u64;
    let step_ms = ms(&steps);
    let step_ms_1t = median(&ms(&seq_steps));

    // Checks against properties of the method and independent computations.
    report.check(losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite loss in {losses:?}")
    });
    report.check(
        warm_losses.iter().all(|l| bits_equal(l, &warm_losses[0])),
        || format!("set-ups disagree on the warm-up losses: {warm_losses:?}"),
    );
    let first = f64::from(losses[0]);
    report.check((first - 10f64.ln()).abs() < FIRST_LOSS_TOL, || {
        format!("first loss {first} is not near ln 10")
    });
    let mut fwd_net = (w.net)(Source::boxed(&data, None)).map_err(|e| e.to_string())?;
    let fwd_1t = fwd_net.forward(&ThreadTeam::new(1), &RunConfig::default());
    report.check(fwd_1t.to_bits() == losses[0].to_bits(), || {
        format!(
            "first-step loss {} at T={threads} differs from the 1-thread forward {fwd_1t}",
            losses[0]
        )
    });
    for (i, (&at_t, &l)) in losses.iter().zip(&seq_losses).enumerate().take(w.seq_steps) {
        let (a, b) = (f64::from(at_t), f64::from(l));
        report.check((a - b).abs() <= SEQ_REL_TOL * b.abs().max(1.0), || {
            format!("step {i}: loss {a} at T={threads}, {b} at 1 thread")
        });
    }
    if w.lenet {
        lenet_checks(&data, &fwd_net, &losses, report)?;
    }
    if let Some(tw) = &twin {
        report.check(bits_equal(&tw.losses, &losses[..tw.losses.len()]), || {
            "traced losses differ from the untraced run".to_string()
        });
    }

    if !opts.trace {
        report.metric("setup_s", median(&setup_cpu_s), "s");
        report.metric(
            "cpu_ms_per_sample",
            step_cpu * 1e3 / (w.batch * steps.len()) as f64,
            "ms",
        );
        report.metric("cpu_ms_per_call", step_cpu * 1e3 / steps.len() as f64, "ms");
        // Each 1-thread step over the T step just before it, so a change
        // of host load between pairs cancels.
        let ratios: Vec<f64> = busiest_1t
            .iter()
            .zip(&busiest)
            .map(|(a, b)| a / b)
            .collect();
        report.metric("speedup", median(&ratios), "ratio");
        report.metric("peak_rss_mib", peak_rss, "MiB");
        return Ok(());
    }

    // Wall-clock figures of the untraced steps; see the README for why
    // they are not among the bounded metrics.
    let p50 = median(&step_ms);
    let busy: f64 = steps.iter().map(Duration::as_secs_f64).sum();
    report.metric("setup_wall_s", median(&setup_s), "s");
    report.metric(
        "samples_per_s",
        (w.batch * steps.len()) as f64 / busy,
        "1/s",
    );
    report.metric("latency_ms_p50", p50, "ms");
    if let Some(t) = tail(&step_ms) {
        report.metric("latency_ms_tail", t, "ms");
    }
    let tw = twin.expect("traced run has a twin");
    report.metric(
        "bench.trace_overhead_pct",
        (median(&ms(&tw.step)) / p50 - 1.0) * 100.0,
        "%",
    );
    tw.layers.report(&tw.net, report);
    report.metric("net.forward_ms", median(&tw.forward_ms), "ms");
    report.metric("omprt.speedup", step_ms_1t / p50, "ratio");
    let counts: Vec<f64> = allocs.iter().map(|a| a.0 as f64).collect();
    let bytes: Vec<f64> = allocs.iter().map(|a| a.1 as f64).collect();
    let per_sample = 1.0 / w.batch as f64;
    report.metric(
        "alloc.count_per_sample",
        median(&counts) * per_sample,
        "count",
    );
    report.metric("alloc.bytes_per_sample", median(&bytes) * per_sample, "B");
    // Figures only training has: in the table, not in the result line.
    report.detail("net.backward_ms", median(&tw.backward_ms), "ms");
    report.detail("solvers.update_ms", median(&tw.update_ms), "ms");
    report.detail("datasets.fill_ms", median(&tw.fill_ms), "ms");
    report.detail("omprt.step_ms_1t", step_ms_1t, "ms");
    report.detail("alloc.step_count", median(&counts), "count");
    report.detail("alloc.step_bytes", median(&bytes), "B");
    trace::set_enabled(true);
    kernels::omprt_overheads(threads, report);
    kernels::floor(&spec, &tw.net, report)?;
    trace::set_enabled(false);
    crate::write_trace(
        opts,
        &[
            "bench", "net", "solvers", "datasets", "mmblas", "omprt", "layer",
        ],
        report,
    )
}

/// LeNet only: the initial weights and the first-step loss agree with the
/// f64 reference, and training drives the loss far below ln 10.
fn lenet_checks(
    data: &InMemoryDataset,
    net: &Net<f32>,
    losses: &[f32],
    report: &mut Report,
) -> Result<(), String> {
    let engine = serve::Engine::<f32>::build(
        &cgdnn::nets::lenet_spec(),
        &Shape::from([1usize, 28, 28]),
        &serve::EngineConfig {
            max_batch: 1,
            n_threads: 1,
        },
    )
    .map_err(|e| e.to_string())?;
    let params = engine.params();
    let same_init = net
        .learnable_params()
        .iter()
        .zip(&params)
        .all(|(a, b)| bits_equal(a.data(), b.data()));
    report.check(same_init, || {
        "engine and trainer start from different weights".to_string()
    });
    let reference = reference::LenetF64::from_params(&params)?;
    let mut images = vec![vec![0.0f32; 28 * 28]; LENET.batch];
    let labels: Vec<usize> = images
        .iter_mut()
        .enumerate()
        .map(|(i, img)| BatchSource::<f32>::fill(data, i, img) as usize)
        .collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    let want = reference.loss(&refs, &labels);
    report.check((f64::from(losses[0]) - want).abs() < F64_LOSS_TOL, || {
        format!("first loss {} vs f64 reference {want}", losses[0])
    });
    let last: Vec<f64> = losses[losses.len() - 10..]
        .iter()
        .map(|&l| f64::from(l))
        .collect();
    let end = last.iter().sum::<f64>() / last.len() as f64;
    report.check(end < 10f64.ln() / 2.0, || {
        format!("loss ends at {end}, not far below ln 10")
    });
    Ok(())
}
