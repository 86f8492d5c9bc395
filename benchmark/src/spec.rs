//! What the benchmark measures: the workloads and the metric tables.
//! `BENCHMARK.json` at the repo root mirrors this file; `tests/smoke.rs`
//! checks that the two agree.

/// Run length the workloads' pass counts are sized for (`run_seconds`
/// in `BENCHMARK.json`). `--seconds s` scales every pass count by
/// `s / NOMINAL_SECONDS`.
pub const NOMINAL_SECONDS: u64 = 20;

/// Thread counts pinned in every child (the host has `nproc` = 2).
pub const PINNED_ENV: [(&str, &str); 2] = [("FT_CLIENT_THREADS", "2"), ("FT_TENSOR_THREADS", "2")];

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layer it leans on.
    pub why: &'static str,
    /// Scenario JSON of one pass; the run seed offsets its dataset seed.
    pub template: &'static str,
    /// Passes of the scenario in a run of `NOMINAL_SECONDS`.
    pub passes: usize,
    /// Final mean accuracy must stay above this.
    pub accuracy_floor: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fedtrans-dense",
        why: "FedTrans grows a 4-model dense suite; its GEMMs are too small for the threaded kernel, so small-shape train-step overhead dominates",
        template: include_str!("../workloads/fedtrans-dense.json"),
        passes: 10,
        accuracy_floor: 0.75,
    },
    Workload {
        name: "fedtrans-conv",
        why: "FedTrans on 16x16 RGB conv models; im2col and the tiled, threaded GEMM do the work, with the largest setup, eval sweep and RSS",
        template: include_str!("../workloads/fedtrans-conv.json"),
        passes: 8,
        accuracy_floor: 0.03,
    },
    Workload {
        name: "robust-trimmed",
        why: "FedAvg under 30% sign-flip byzantines behind TrimmedMean; the buffering robust sink dominates the round",
        template: include_str!("../workloads/robust-trimmed.json"),
        passes: 10,
        accuracy_floor: 0.25,
    },
    Workload {
        name: "fedavg-1m-stream",
        why: "FedAvg over a sparse million-client population; per-client fixed cost of selection, rendezvous and the streaming fold",
        template: include_str!("../workloads/fedavg-1m-stream.json"),
        passes: 10,
        accuracy_floor: 0.45,
    },
];

/// Digests pinned for seed 0.
pub const PINNED_DIGESTS: &str = include_str!("../digests.json");

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("ckpt_roundtrip_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics with unit `count` must repeat exactly between two
/// runs of the same commit and inputs.
pub const PER_LAYER: [Metric; 53] = [
    layer("host.peak_gflops", "GFLOP/s", Higher),
    layer("host.mem_gbps", "GB/s", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("tensor.gemm_tiled_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_tiled_peak_frac", "ratio", Higher),
    layer("tensor.gemm_small_gflops", "GFLOP/s", Higher),
    layer("tensor.fused_sgd_gbps", "GB/s", Higher),
    layer("tensor.fused_sgd_bw_frac", "ratio", Higher),
    layer("tensor.gemm_flop", "count", Lower),
    layer("nn.dense_fwdbwd_us", "us", Lower),
    layer("nn.conv_fwdbwd_us", "us", Lower),
    layer("nn.attn_fwdbwd_us", "us", Lower),
    layer("model.loss_and_grad_us", "us", Lower),
    layer("model.loss_and_grad_big_us", "us", Lower),
    layer("model.clone_us", "us", Lower),
    layer("model.snapshot_restore_us", "us", Lower),
    layer("model.widen_ms", "ms", Lower),
    layer("model.deepen_ms", "ms", Lower),
    layer("model.similarity_matrix_ms", "ms", Lower),
    layer("data.generate_s", "s", Lower),
    layer("data.sparse_shard_us", "us", Lower),
    layer("data.sample_batch_us", "us", Lower),
    layer("fedsim.select.uniform_us", "us", Lower),
    layer("fedsim.trainer.client_us", "us", Lower),
    layer("fedsim.trainer.step_us", "us", Lower),
    layer("fedsim.coordinator.us_per_client", "us", Lower),
    layer("fedsim.coordinator.messages_per_client", "count", Lower),
    layer("fedsim.sink.absorb_us_per_update", "us", Lower),
    layer("fedsim.sink.finish_ms", "ms", Lower),
    layer("fedsim.sink.mb_per_s", "MB/s", Higher),
    layer("fedsim.sink.buffered_mb", "MB", Lower),
    layer("fedsim.eval.report_s", "s", Lower),
    layer("fedsim.eval.us_per_client", "us", Lower),
    layer("fedtrans.aggregator.soft_aggregate_ms", "ms", Lower),
    layer("fedtrans.transformer.maybe_transform_ms", "ms", Lower),
    layer("fedtrans.utility.assign_update_us", "us", Lower),
    layer("fedtrans.models", "count", Higher),
    layer("fedtrans.transforms", "count", Higher),
    layer("baselines.scatter_sink_us_per_update", "us", Lower),
    layer("harness.build_first_s", "s", Lower),
    layer("harness.step_p50_ms", "ms", Lower),
    layer("harness.step_p90_ms", "ms", Lower),
    layer("harness.step_max_ms", "ms", Lower),
    layer("harness.step_trainer_frac", "ratio", Lower),
    layer("harness.step_sink_frac", "ratio", Lower),
    layer("harness.step_residual_frac", "ratio", Lower),
    layer("harness.rounds", "count", Higher),
    layer("harness.participants", "count", Higher),
    layer("harness.ckpt.bytes", "count", Lower),
    layer("harness.ckpt.checkpoint_ms", "ms", Lower),
    layer("harness.ckpt.serialize_mbps", "MB/s", Higher),
    layer("harness.ckpt.parse_mbps", "MB/s", Higher),
    layer("harness.ckpt.restore_ms", "ms", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
