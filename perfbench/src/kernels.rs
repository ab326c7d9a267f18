//! Kernel floor and runtime overheads, measured inside the traced run:
//! `mmblas::gemm` and `mmblas::im2col` on each convolution's exact
//! per-sample shapes, `mmblas::gemv` on each inner product's, and the cost
//! of an empty `ThreadTeam::parallel` region and of a barrier. Rates come
//! from analytic counts: `2·m·n·k` flops per gemm, and for im2col the
//! bytes of the image read plus the column matrix written (computed, not
//! measured traffic).

use crate::report::{median, Report};
use cgdnn::mmblas::{self, Conv2dGeometry, Transpose};
use cgdnn::net::{Net, NetSpec};
use cgdnn::omprt::ThreadTeam;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of one call of `f`, over 7 rounds each long enough
/// (about 5 ms) for the clock not to matter.
fn time_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((5e-3 / once).ceil() as usize).clamp(1, 100_000);
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&rounds)
}

/// Deterministic operand values in `[-0.5, 0.5)`.
fn operand(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7919 + salt * 104_729) % 1000) as f32 / 1000.0 - 0.5)
        .collect()
}

/// Work and seconds of one kernel summed over a net's layers.
#[derive(Default)]
struct Sum {
    work: f64,
    seconds: f64,
}

impl Sum {
    /// Add one layer's call and return its rate in units of 1e9 per second.
    fn add(&mut self, work: f64, seconds: f64) -> f64 {
        self.work += work;
        self.seconds += seconds;
        work / seconds / 1e9
    }

    fn rate(&self) -> f64 {
        self.work / self.seconds / 1e9
    }
}

/// `mmblas.gemm.gflops`, `mmblas.im2col.gbps` and `mmblas.gemv.gflops`
/// over one sample's pass through `net`: the kernel's work on the shapes
/// of every layer that calls it, over the time of those calls. Each
/// layer's rate goes to the table as `mmblas.<kernel>.<layer>.*`.
pub fn floor(spec: &NetSpec, net: &Net<f32>, report: &mut Report) -> Result<(), String> {
    let (mut gemm, mut im2col, mut gemv) = (Sum::default(), Sum::default(), Sum::default());
    for l in &spec.layers {
        let dims = |blob: &str| -> Result<Vec<usize>, String> {
            net.blob(blob)
                .map(|b| b.shape().dims().to_vec())
                .ok_or_else(|| format!("{}: no blob {blob}", l.name))
        };
        let param =
            |key: &str, default: usize| l.get_usize_or(key, default).map_err(|e| e.to_string());
        match l.layer_type.as_str() {
            "Convolution" => {
                let x = dims(&l.bottoms[0])?;
                let (c, h) = (x[1], x[2]);
                let g = Conv2dGeometry::square(
                    c,
                    h,
                    param("kernel", 0)?,
                    param("pad", 0)?,
                    param("stride", 1)?,
                );
                let (m, cr, cc) = (param("num_output", 0)?, g.col_rows(), g.col_cols());
                let image = operand(g.image_len(), 1);
                let mut col = operand(g.col_len(), 2);
                let w = operand(m * cr, 3);
                let mut y = vec![0.0f32; m * cc];
                let _span = cgdnn::obs::trace::span("kernel_floor", "mmblas");
                let t_im2col = time_call(|| {
                    mmblas::im2col(&g, black_box(&image), &mut col);
                    black_box(&col);
                });
                let t_gemm = time_call(|| {
                    mmblas::gemm(
                        Transpose::No,
                        Transpose::No,
                        m,
                        cc,
                        cr,
                        1.0,
                        black_box(&w),
                        cr,
                        &col,
                        cc,
                        0.0,
                        &mut y,
                        cc,
                    );
                    black_box(&y);
                });
                let bytes = ((g.image_len() + g.col_len()) * 4) as f64;
                report.detail(
                    format!("mmblas.im2col.{}.gbps", l.name),
                    im2col.add(bytes, t_im2col),
                    "GB/s",
                );
                report.detail(
                    format!("mmblas.gemm.{}.gflops", l.name),
                    gemm.add(gemm_flops(m, cc, cr), t_gemm),
                    "GFLOP/s",
                );
            }
            "InnerProduct" => {
                let x = dims(&l.bottoms[0])?;
                let k: usize = x[1..].iter().product();
                let m = param("num_output", 0)?;
                let (w, xs) = (operand(m * k, 4), operand(k, 5));
                let mut y = vec![0.0f32; m];
                let _span = cgdnn::obs::trace::span("kernel_floor", "mmblas");
                // The layer runs one matrix-vector product per sample.
                let t_gemv = time_call(|| {
                    mmblas::gemv(Transpose::No, m, k, 1.0, black_box(&w), k, &xs, 0.0, &mut y);
                    black_box(&y);
                });
                report.detail(
                    format!("mmblas.gemv.{}.gflops", l.name),
                    gemv.add(gemm_flops(m, 1, k), t_gemv),
                    "GFLOP/s",
                );
            }
            _ => {}
        }
    }
    report.metric("mmblas.gemm.gflops", gemm.rate(), "GFLOP/s");
    report.metric("mmblas.im2col.gbps", im2col.rate(), "GB/s");
    report.metric("mmblas.gemv.gflops", gemv.rate(), "GFLOP/s");
    Ok(())
}

fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * (m * n * k) as f64
}

/// `omprt.region_us` (an empty parallel region) and `omprt.barrier_us`
/// (one barrier inside a region, net of the region) for a team of
/// `threads`.
pub fn omprt_overheads(threads: usize, report: &mut Report) {
    const BARRIERS: usize = 50;
    let team = ThreadTeam::new(threads);
    let (region, with_barriers) = crate::untraced("region_barrier_probe", "omprt", || {
        let region = time_call(|| team.parallel(|_| {}));
        let with_barriers = time_call(|| {
            team.parallel(|ctx| {
                for _ in 0..BARRIERS {
                    ctx.barrier();
                }
            })
        });
        (region, with_barriers)
    });
    report.metric("omprt.region_us", region * 1e6, "us");
    report.metric(
        "omprt.barrier_us",
        (with_barriers - region) / BARRIERS as f64 * 1e6,
        "us",
    );
}
