//! A plain f64 LeNet forward pass, written apart from the program's layers,
//! used to check the program's f32 results. It follows the embedded LeNet
//! spec: conv 5x5 (20) → max-pool 2/2 → conv 5x5 (50) → max-pool 2/2 →
//! inner product (500) → ReLU → inner product (10) → softmax.

use cgdnn::blob::Blob;

/// LeNet's learnable parameters in f64, in the order the net lists them.
pub struct LenetF64 {
    conv1: (Vec<f64>, Vec<f64>),
    conv2: (Vec<f64>, Vec<f64>),
    ip1: (Vec<f64>, Vec<f64>),
    ip2: (Vec<f64>, Vec<f64>),
}

impl LenetF64 {
    /// Widen parameters read from an engine (`Engine::params`) or a net.
    pub fn from_params(params: &[Blob<f32>]) -> Result<Self, String> {
        let widen = |i: usize, len: usize| -> Result<Vec<f64>, String> {
            let p = params
                .get(i)
                .ok_or_else(|| format!("LeNet has no parameter blob {i}"))?;
            if p.count() != len {
                return Err(format!(
                    "parameter blob {i} has {} values, want {len}",
                    p.count()
                ));
            }
            Ok(p.data().iter().map(|&v| f64::from(v)).collect())
        };
        Ok(Self {
            conv1: (widen(0, 20 * 25)?, widen(1, 20)?),
            conv2: (widen(2, 50 * 20 * 25)?, widen(3, 50)?),
            ip1: (widen(4, 500 * 800)?, widen(5, 500)?),
            ip2: (widen(6, 10 * 500)?, widen(7, 10)?),
        })
    }

    /// Class probabilities of one `1x28x28` image.
    pub fn probs(&self, image: &[f32]) -> [f64; 10] {
        let x: Vec<f64> = image.iter().map(|&v| f64::from(v)).collect();
        let c1 = conv5(&x, 1, 28, &self.conv1.0, &self.conv1.1, 20);
        let p1 = maxpool2(&c1, 20, 24);
        let c2 = conv5(&p1, 20, 12, &self.conv2.0, &self.conv2.1, 50);
        let p2 = maxpool2(&c2, 50, 8);
        let h: Vec<f64> = dense(&p2, &self.ip1.0, &self.ip1.1)
            .into_iter()
            .map(|v| v.max(0.0))
            .collect();
        let logits = dense(&h, &self.ip2.0, &self.ip2.1);
        let top = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&z| (z - top).exp()).collect();
        let sum: f64 = exps.iter().sum();
        let mut out = [0.0; 10];
        for (o, e) in out.iter_mut().zip(&exps) {
            *o = e / sum;
        }
        out
    }

    /// Mean cross-entropy of a batch (Caffe's `SoftmaxWithLoss`).
    pub fn loss(&self, images: &[&[f32]], labels: &[usize]) -> f64 {
        let total: f64 = images
            .iter()
            .zip(labels)
            .map(|(img, &l)| -self.probs(img)[l].ln())
            .sum();
        total / images.len() as f64
    }
}

/// Valid 5x5 convolution, stride 1, of a `c x n x n` input.
fn conv5(x: &[f64], c: usize, n: usize, w: &[f64], b: &[f64], m: usize) -> Vec<f64> {
    let o = n - 4;
    let mut y = vec![0.0; m * o * o];
    for f in 0..m {
        for oy in 0..o {
            for ox in 0..o {
                let mut acc = b[f];
                for ch in 0..c {
                    for ky in 0..5 {
                        for kx in 0..5 {
                            acc += w[((f * c + ch) * 5 + ky) * 5 + kx]
                                * x[(ch * n + oy + ky) * n + ox + kx];
                        }
                    }
                }
                y[(f * o + oy) * o + ox] = acc;
            }
        }
    }
    y
}

/// 2x2 max pooling, stride 2, of a `c x n x n` input (`n` even).
fn maxpool2(x: &[f64], c: usize, n: usize) -> Vec<f64> {
    let o = n / 2;
    let mut y = vec![0.0; c * o * o];
    for ch in 0..c {
        for oy in 0..o {
            for ox in 0..o {
                let at = |dy: usize, dx: usize| x[(ch * n + 2 * oy + dy) * n + 2 * ox + dx];
                y[(ch * o + oy) * o + ox] = at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1));
            }
        }
    }
    y
}

/// `W x + b` with `W` stored `[outputs][inputs]`.
fn dense(x: &[f64], w: &[f64], b: &[f64]) -> Vec<f64> {
    b.iter()
        .enumerate()
        .map(|(o, &bo)| {
            bo + w[o * x.len()..(o + 1) * x.len()]
                .iter()
                .zip(x)
                .map(|(a, v)| a * v)
                .sum::<f64>()
        })
        .collect()
}
