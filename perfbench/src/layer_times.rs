//! Per-layer pass times of a net over several passes. Each layer's median
//! goes to the stderr table; the result line sums them by layer kind, so
//! every workload reports the same names whatever its layers are called.

use crate::report::{median, Report};
use cgdnn::net::Net;

/// Layer types every workload's net has, and their kind; any other layer
/// (data, loss, softmax, LRN) is of kind `other`.
const KINDS: [(&str, &str); 4] = [
    ("Convolution", "conv"),
    ("Pooling", "pool"),
    ("InnerProduct", "ip"),
    ("ReLU", "relu"),
];

fn kind_of(layer_type: &str) -> &'static str {
    KINDS
        .iter()
        .find(|(t, _)| *t == layer_type)
        .map_or("other", |(_, k)| k)
}

/// `Net::last_forward_seconds` (and `last_backward_seconds`) of each pass,
/// `[pass][layer]`.
#[derive(Default)]
pub struct LayerTimes {
    fwd: Vec<Vec<f64>>,
    bwd: Vec<Vec<f64>>,
}

impl LayerTimes {
    /// Keep the layer times of the pass `net` just ran: a forward, and
    /// with `backward` the backward after it.
    pub fn record(&mut self, net: &Net<f32>, backward: bool) {
        self.fwd.push(net.last_forward_seconds().to_vec());
        if backward {
            self.bwd.push(net.last_backward_seconds().to_vec());
        }
    }

    /// Seconds of layer `i` in pass `p`, forward plus backward.
    fn seconds(&self, p: usize, i: usize) -> f64 {
        self.fwd[p][i] + self.bwd.get(p).map_or(0.0, |b| b[i])
    }

    /// Median over passes of the seconds spent in the layers `keep` picks.
    fn median_of(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let layers = self.fwd.first().map_or(0, Vec::len);
        let totals: Vec<f64> = (0..self.fwd.len())
            .map(|p| {
                (0..layers)
                    .filter(|&i| keep(i))
                    .map(|i| self.seconds(p, i))
                    .sum()
            })
            .collect();
        median(&totals)
    }

    /// `layers.<kind>.ms` for every kind and `layers.conv.gflops` (flops
    /// of `Net::profiles()` over the convolutions' time) in the result;
    /// each layer's `fwd_ms`, `bwd_ms` and, for conv and ip, `gflops` in
    /// the table.
    pub fn report(&self, net: &Net<f32>, report: &mut Report) {
        let types = net.layer_types();
        let profiles = net.profiles();
        let backward = !self.bwd.is_empty();
        let flops = |i: usize| {
            let p = &profiles[i];
            let bwd = if backward {
                p.backward.total_flops()
            } else {
                0.0
            };
            p.forward.total_flops() + bwd
        };
        for (i, name) in net.layer_names().iter().enumerate() {
            let fwd = median(&self.fwd.iter().map(|p| p[i]).collect::<Vec<_>>());
            report.detail(format!("layers.{name}.fwd_ms"), fwd * 1e3, "ms");
            if backward {
                let bwd = median(&self.bwd.iter().map(|p| p[i]).collect::<Vec<_>>());
                report.detail(format!("layers.{name}.bwd_ms"), bwd * 1e3, "ms");
            }
            if matches!(kind_of(types[i]), "conv" | "ip") {
                let s = self.median_of(|j| j == i);
                report.detail(
                    format!("layers.{name}.gflops"),
                    flops(i) / s / 1e9,
                    "GFLOP/s",
                );
            }
        }
        for kind in ["conv", "pool", "ip", "relu", "other"] {
            let s = self.median_of(|i| kind_of(types[i]) == kind);
            report.metric(format!("layers.{kind}.ms"), s * 1e3, "ms");
        }
        let is_conv = |i: usize| kind_of(types[i]) == "conv";
        let conv_flops: f64 = (0..types.len()).filter(|&i| is_conv(i)).map(flops).sum();
        report.metric(
            "layers.conv.gflops",
            conv_flops / self.median_of(is_conv) / 1e9,
            "GFLOP/s",
        );
    }
}
