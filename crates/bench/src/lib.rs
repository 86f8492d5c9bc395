//! Experiment harness shared by every table/figure binary.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one artifact of the
//! paper (see DESIGN.md's experiment index). This library provides the
//! common setup: workload presets wired to matching device traces and
//! seed models, method runners, scale control, and table printing.
//!
//! Scale is controlled by the `FEDTRANS_SCALE` environment variable:
//! `ci` (default, seconds per experiment), `medium`, or `full` (closest
//! to the paper's scale this substrate supports).

use fedtrans::{seed_model, FedTransConfig, FedTransRuntime};
use ft_baselines::{BaselineConfig, FedAvg, Fluid, HeteroFl, ServerOpt, SplitMix};
use ft_data::{DatasetConfig, FederatedDataset};
use ft_fedsim::device::{DeviceTrace, DeviceTraceConfig};
use ft_fedsim::report::RunReport;
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{AdversityConfig, Algorithm, Result as SimResult, RoundOptions, RunContext};
use ft_model::CellModel;
use rand::SeedableRng;

/// Experiment scale, from the `FEDTRANS_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment; CI-friendly.
    Ci,
    /// A few minutes per experiment.
    Medium,
    /// The closest to paper scale this substrate supports.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("FEDTRANS_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("medium") => Scale::Medium,
            _ => Scale::Ci,
        }
    }

    /// Number of federated clients at this scale.
    pub fn clients(&self) -> usize {
        match self {
            Scale::Ci => 40,
            Scale::Medium => 100,
            Scale::Full => 200,
        }
    }

    /// Participants per round.
    pub fn clients_per_round(&self) -> usize {
        match self {
            Scale::Ci => 10,
            Scale::Medium => 20,
            Scale::Full => 40,
        }
    }

    /// Training rounds.
    pub fn rounds(&self) -> usize {
        match self {
            Scale::Ci => 60,
            Scale::Medium => 150,
            Scale::Full => 400,
        }
    }

    /// Local steps per participant per round.
    pub fn local_steps(&self) -> usize {
        match self {
            Scale::Ci => 10,
            Scale::Medium => 20,
            Scale::Full => 20,
        }
    }
}

/// One of the paper's four workloads (plus the ViT arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CIFAR-10-like image classification.
    Cifar,
    /// FEMNIST-like handwritten-character classification.
    Femnist,
    /// Speech-Commands-like keyword classification.
    Speech,
    /// OpenImage-like large-scale image classification.
    OpenImage,
    /// FEMNIST-like with token inputs for the ViT experiment.
    FemnistVit,
}

impl Workload {
    /// All four Table 2 workloads.
    pub const TABLE2: [Workload; 4] = [
        Workload::Cifar,
        Workload::Femnist,
        Workload::Speech,
        Workload::OpenImage,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Cifar => "CIFAR-10",
            Workload::Femnist => "FEMNIST",
            Workload::Speech => "Speech",
            Workload::OpenImage => "OpenImage",
            Workload::FemnistVit => "FEMNIST-ViT",
        }
    }

    /// The dataset configuration at a given scale.
    pub fn dataset_config(&self, scale: Scale) -> DatasetConfig {
        let base = match self {
            Workload::Cifar => DatasetConfig::cifar_like(),
            Workload::Femnist => DatasetConfig::femnist_like(),
            Workload::Speech => DatasetConfig::speech_like(),
            Workload::OpenImage => DatasetConfig::openimage_like(),
            Workload::FemnistVit => DatasetConfig::femnist_vit_like(),
        };
        base.with_num_clients(scale.clients())
    }
}

/// A fully wired experiment environment: dataset, devices, seed model.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The scale used.
    pub scale: Scale,
    /// Generated federated dataset.
    pub data: FederatedDataset,
    /// Device trace with ≥29× disparity anchored at the seed model.
    pub devices: DeviceTrace,
    /// The seed model (sized to the least capable device).
    pub seed: CellModel,
    /// Fleet adversity (attacks / churn / drift) applied to every run
    /// from this setup. The default is inert and replays the benign
    /// fold bit for bit.
    pub adversity: AdversityConfig,
}

impl Setup {
    /// Builds the environment for a workload at a scale.
    pub fn new(workload: Workload, scale: Scale) -> Self {
        Self::with_seed_override(workload, scale, None)
    }

    /// Builds the environment with a custom dataset config tweak.
    pub fn with_config(
        workload: Workload,
        scale: Scale,
        tweak: impl FnOnce(DatasetConfig) -> DatasetConfig,
    ) -> Self {
        let cfg = tweak(workload.dataset_config(scale));
        Self::build(workload, scale, cfg)
    }

    fn with_seed_override(workload: Workload, scale: Scale, _seed: Option<CellModel>) -> Self {
        let cfg = workload.dataset_config(scale);
        Self::build(workload, scale, cfg)
    }

    fn build(workload: Workload, scale: Scale, cfg: DatasetConfig) -> Self {
        let data = cfg.generate();
        // Anchor the device trace at a budget that admits a small seed
        // model of the matching family, leaving ~30x headroom above.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let probe = seed_model(&mut rng, data.input(), data.num_classes(), u64::MAX);
        // probe is the largest candidate; anchor at a fraction of it so
        // the seed search lands on a genuinely small architecture.
        let base = (probe.macs_per_sample() / 12).max(500);
        let devices = DeviceTraceConfig::default()
            .with_num_devices(data.num_clients())
            .with_base_capacity(base)
            .with_disparity(30.0)
            .with_seed(7)
            .generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let seed = seed_model(
            &mut rng,
            data.input(),
            data.num_classes(),
            devices.min_capacity(),
        );
        Setup {
            workload,
            scale,
            data,
            devices,
            seed,
            adversity: AdversityConfig::default(),
        }
    }

    /// Applies a fleet adversity model to every subsequent run.
    #[must_use]
    pub fn with_adversity(mut self, adversity: AdversityConfig) -> Self {
        self.adversity = adversity;
        self
    }

    /// Training rounds for this workload: image (conv) workloads need
    /// roughly twice the rounds of flat workloads to converge at a
    /// given scale.
    pub fn rounds(&self) -> usize {
        match self.workload {
            Workload::Cifar | Workload::OpenImage => self.scale.rounds() * 2,
            _ => self.scale.rounds(),
        }
    }

    /// The local-training configuration at this scale.
    pub fn local(&self) -> LocalTrainConfig {
        LocalTrainConfig {
            local_steps: self.scale.local_steps(),
            ..Default::default()
        }
    }

    /// A FedTrans configuration wired to this setup.
    pub fn fedtrans_config(&self) -> FedTransConfig {
        let mut cfg = FedTransConfig::default()
            .with_clients_per_round(self.scale.clients_per_round())
            .with_gamma(4)
            .with_delta(4)
            .with_local(self.local());
        // Keep the suite small enough that every model gets meaningful
        // training at the configured round budget; conv workloads
        // converge more slowly, so they get a smaller suite still.
        cfg.max_models = match self.workload {
            Workload::Cifar | Workload::OpenImage => 3,
            _ => 4,
        };
        cfg.transform_cooldown = 12;
        cfg
    }

    /// A baseline configuration wired to this setup.
    pub fn baseline_config(&self) -> BaselineConfig {
        BaselineConfig {
            clients_per_round: self.scale.clients_per_round(),
            local: self.local(),
            seed: 1,
            eval_every: 0,
            enforce_capacity: true,
            ..Default::default()
        }
    }

    /// The context every run of this setup executes under: the
    /// environment's round options and the setup's adversity model.
    fn context(&self) -> RunContext {
        RunContext {
            options: RoundOptions::from_env(),
            adversity: self.adversity.clone(),
        }
    }

    /// Runs FedTrans to completion.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn run_fedtrans(&self, cfg: FedTransConfig, rounds: usize) -> fedtrans::Result<RunReport> {
        Ok(self.run_fedtrans_keep_largest(cfg, rounds)?.0)
    }

    /// Runs FedTrans and also returns its largest transformed model —
    /// the input the paper gives HeteroFL/SplitMix/FLuID (Appendix A.1).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn run_fedtrans_keep_largest(
        &self,
        cfg: FedTransConfig,
        rounds: usize,
    ) -> fedtrans::Result<(RunReport, CellModel)> {
        let mut rt = FedTransRuntime::with_seed_model(
            cfg,
            self.data.clone(),
            self.devices.clone(),
            self.seed.clone(),
        )?
        .with_context(self.context());
        let report = rt.run_to(rounds)?;
        let largest = rt
            .method()
            .models()
            .last()
            // ft-lint: allow(P001) — a runtime always holds ≥1 model (the seed).
            .expect("suite always has the seed model")
            .clone();
        Ok((report, largest))
    }

    /// Runs FedAvg (or FedProx via `prox_mu`, FedYogi via `server`).
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run_fedavg(
        &self,
        cfg: BaselineConfig,
        model: CellModel,
        server: ServerOpt,
        rounds: usize,
    ) -> SimResult<RunReport> {
        FedAvg::new(cfg, self.data.clone(), self.devices.clone(), model, server)
            .with_context(self.context())
            .run_to(rounds)
    }

    /// Runs HeteroFL around `global`.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run_heterofl(
        &self,
        cfg: BaselineConfig,
        global: CellModel,
        rounds: usize,
    ) -> SimResult<RunReport> {
        HeteroFl::new(cfg, self.data.clone(), self.devices.clone(), global)
            .with_context(self.context())
            .run_to(rounds)
    }

    /// Runs SplitMix with `k` bases split from `global`.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run_splitmix(
        &self,
        cfg: BaselineConfig,
        global: &CellModel,
        k: usize,
        rounds: usize,
    ) -> SimResult<RunReport> {
        SplitMix::new(cfg, self.data.clone(), self.devices.clone(), global, k)
            .with_context(self.context())
            .run_to(rounds)
    }

    /// Runs FLuID around `global`.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run_fluid(
        &self,
        cfg: BaselineConfig,
        global: CellModel,
        rounds: usize,
    ) -> SimResult<RunReport> {
        Fluid::new(cfg, self.data.clone(), self.devices.clone(), global)
            .with_context(self.context())
            .run_to(rounds)
    }
}

/// Prints a markdown-style table row.
pub fn print_row(cols: &[String]) {
    println!("| {} |", cols.join(" | "));
}

/// Prints a table header with separator.
pub fn print_header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a `RunReport` into the paper's Table 2 columns.
pub fn table2_columns(method: &str, r: &RunReport) -> Vec<String> {
    vec![
        method.to_owned(),
        format!("{:.2}", r.final_accuracy.mean * 100.0),
        format!("{:.2}", r.final_accuracy.iqr() * 100.0),
        format!("{:.3e}", r.pmacs * 1e15), // raw MACs; scale-independent
        format!("{:.3}", r.storage_mb),
        format!("{:.2}", r.network_mb),
    ]
}

/// Writes a JSON result artifact under the workspace-root
/// `bench_results/` directory.
///
/// Delegates to [`ft_fedsim::report::dump_json`], which anchors the
/// path at the workspace root (honouring `FT_ARTIFACT_DIR`). The old
/// CWD-relative behaviour scattered artifacts across crate directories
/// depending on where the binary was invoked from.
pub fn dump_json(name: &str, value: &impl serde::Serialize) {
    ft_fedsim::report::dump_json(name, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // Note: from_env reads the process env; just check the default.
        assert_eq!(Scale::Ci.clients(), 40);
        assert!(Scale::Full.rounds() > Scale::Ci.rounds());
    }

    #[test]
    fn setup_wires_consistent_components() {
        let s = Setup::new(Workload::Femnist, Scale::Ci);
        assert_eq!(s.devices.len(), s.data.num_clients());
        assert_eq!(s.seed.input_width(), s.data.input_dim());
        assert!(s.seed.macs_per_sample() <= s.devices.min_capacity());
        assert!(s.devices.capacity_disparity() >= 29.0);
    }

    #[test]
    fn every_workload_builds() {
        for w in [
            Workload::Cifar,
            Workload::Femnist,
            Workload::Speech,
            Workload::OpenImage,
            Workload::FemnistVit,
        ] {
            let s = Setup::new(w, Scale::Ci);
            assert!(s.data.num_clients() > 0, "{} empty", w.name());
        }
    }

    #[test]
    fn table2_columns_format() {
        let s = Setup::new(Workload::Femnist, Scale::Ci);
        let cfg = s.baseline_config();
        let report = s
            .run_fedavg(cfg, s.seed.clone(), ServerOpt::Average, 2)
            .unwrap();
        let cols = table2_columns("FedAvg", &report);
        assert_eq!(cols.len(), 6);
        assert_eq!(cols[0], "FedAvg");
    }
}
