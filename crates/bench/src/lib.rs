//! Experiment harness behind the one `ft-exp <name>` binary.
//!
//! [`experiments::EXPERIMENTS`] is the table of paper artifacts; each
//! row's function regenerates one of them. This module is what they
//! share: workload presets wired to matching device traces and seed
//! models ([`Setup`]), method runners, the Appendix-A.1 comparison,
//! scale control, and the table that prints a row and collects it for
//! the JSON artifact from the same values.
//!
//! Scale is controlled by the `FEDTRANS_SCALE` environment variable:
//! `ci` (default, seconds per experiment), `medium`, or `full` (closest
//! to the paper's scale this substrate supports).
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

pub mod experiments;

use fedtrans::{seed_model, FedTransConfig, FedTransRuntime};
use ft_baselines::{BaselineConfig, FedAvg, Fluid, HeteroFl, ServerOpt, SplitMix};
use ft_data::{DatasetConfig, FederatedDataset};
use ft_fedsim::device::{DeviceTrace, DeviceTraceConfig};
use ft_fedsim::driver::{Method, Runner};
use ft_fedsim::report::{dump_json, RunReport};
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{AdversityConfig, Algorithm, Result as SimResult, RoundOptions, RunContext};
use ft_model::CellModel;
use rand::SeedableRng;
use serde::{Serialize, Value};

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
    /// Parses a `FEDTRANS_SCALE` value: `ci`, `medium` or `full`.
    pub fn parse(value: &str) -> Option<Scale> {
        match value {
            "ci" => Some(Scale::Ci),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Reads the scale from the environment; unset means `ci`.
    ///
    /// # Errors
    ///
    /// A message naming `FEDTRANS_SCALE`, its value and the accepted
    /// forms when the variable is set to anything else.
    pub fn from_env() -> Result<Scale, String> {
        #[expect(clippy::disallowed_methods, reason = "read once, at the entry point")]
        let Some(value) = std::env::var_os("FEDTRANS_SCALE") else {
            return Ok(Scale::Ci);
        };
        let value = value.to_string_lossy();
        Scale::parse(&value).ok_or_else(|| {
            format!(
                "FEDTRANS_SCALE=`{value}` is not valid: expected `ci`, `medium` or `full` \
                 (unset = `ci`)"
            )
        })
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
        Self::with_config(workload, scale, |cfg| cfg)
    }

    /// Builds the environment with a custom dataset config tweak.
    pub fn with_config(
        workload: Workload,
        scale: Scale,
        tweak: impl FnOnce(DatasetConfig) -> DatasetConfig,
    ) -> Self {
        let data = tweak(workload.dataset_config(scale)).generate();
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

    /// The context every run of this setup executes under: the default
    /// round options and the setup's adversity model.
    fn context(&self) -> RunContext {
        RunContext {
            options: RoundOptions::default(),
            adversity: self.adversity.clone(),
        }
    }

    /// A FedTrans runner over this setup's data, devices and seed model,
    /// under its run context (the setup's adversity). Every experiment
    /// builds its runner here, so the adversity reaches the ones that
    /// need the runner's models as it reaches the rest.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn fedtrans(&self, cfg: FedTransConfig) -> fedtrans::Result<Runner<FedTransRuntime>> {
        let runner = FedTransRuntime::with_seed_model(
            cfg,
            self.data.clone(),
            self.devices.clone(),
            self.seed.clone(),
        )?;
        Ok(runner.with_context(self.context()))
    }

    /// Runs FedTrans to completion.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn run_fedtrans(&self, cfg: FedTransConfig, rounds: usize) -> fedtrans::Result<RunReport> {
        Ok(self.fedtrans(cfg)?.run_to(rounds)?)
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
        let mut rt = self.fedtrans(cfg)?;
        let report = rt.run_to(rounds)?;
        Ok((report, largest_model(&rt)))
    }

    /// The Appendix A.1 comparison: FedTrans under this setup's default
    /// configuration, then FLuID, HeteroFL and SplitMix (4 bases)
    /// around `global` — `None` is the paper's protocol, the largest
    /// model that FedTrans run produced. `eval_every` applies to all
    /// four runs (0: no accuracy curve).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn compare(
        &self,
        rounds: usize,
        eval_every: usize,
        global: Option<&CellModel>,
    ) -> fedtrans::Result<Comparison> {
        let mut rt = self
            .fedtrans(self.fedtrans_config())?
            .with_eval_every(eval_every);
        let fedtrans = rt.run_to(rounds)?;
        let largest = global.cloned().unwrap_or_else(|| largest_model(&rt));
        let bl = BaselineConfig {
            eval_every,
            ..self.baseline_config()
        };
        Ok(Comparison {
            fedtrans,
            fluid: self.run_baseline(|d, t| Fluid::new(bl, d, t, largest.clone()), rounds)?,
            heterofl: self.run_baseline(|d, t| HeteroFl::new(bl, d, t, largest.clone()), rounds)?,
            splitmix: self.run_baseline(|d, t| SplitMix::new(bl, d, t, &largest, 4), rounds)?,
            largest,
        })
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
        self.run_baseline(|d, t| FedAvg::new(cfg, d, t, model, server), rounds)
    }

    /// Runs the baseline `build` wires to this setup's data and devices,
    /// under the same run context.
    fn run_baseline<M: Method<Data = FederatedDataset>>(
        &self,
        build: impl FnOnce(FederatedDataset, DeviceTrace) -> Runner<M>,
        rounds: usize,
    ) -> SimResult<RunReport> {
        build(self.data.clone(), self.devices.clone())
            .with_context(self.context())
            .run_to(rounds)
    }
}

/// The largest model of a FedTrans suite (transformations append, so
/// it is the last).
#[expect(
    clippy::missing_panics_doc,
    reason = "a runtime always holds at least one model, the seed"
)]
fn largest_model(rt: &Runner<FedTransRuntime>) -> CellModel {
    let models = rt.method().models();
    let largest = models.last().expect("suite always has the seed model");
    largest.clone()
}

/// What [`Setup::compare`] ran: FedTrans and the three shrink-based
/// baselines around one global model.
pub struct Comparison {
    /// The FedTrans run.
    pub fedtrans: RunReport,
    /// The global model the baselines received.
    pub largest: CellModel,
    /// FLuID around `largest`.
    pub fluid: RunReport,
    /// HeteroFL around `largest`.
    pub heterofl: RunReport,
    /// SplitMix with 4 bases split from `largest`.
    pub splitmix: RunReport,
}

impl Comparison {
    /// The four reports under the names the paper's tables print, in
    /// Table 2's row order.
    pub fn methods(&self) -> [(&'static str, &RunReport); 4] {
        [
            ("FedTrans", &self.fedtrans),
            ("FLuID", &self.fluid),
            ("HeteroFL", &self.heterofl),
            ("SplitMix", &self.splitmix),
        ]
    }
}

/// Prints a markdown-style table row.
pub fn print_row<S: AsRef<str>>(cols: &[S]) {
    let cols: Vec<&str> = cols.iter().map(AsRef::as_ref).collect();
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
        format_macs(r.pmacs),
        format!("{:.3}", r.storage_mb),
        format!("{:.2}", r.network_mb),
    ]
}

/// A training cost as the tables print it: raw MACs, which unlike the
/// report's PMACs read the same at every scale.
pub fn format_macs(pmacs: f64) -> String {
    format!("{:.3e}", pmacs * 1e15)
}

/// One table cell: a value, and how its markdown row prints it. The
/// JSON artifact keeps the value itself.
pub enum Cell<'a> {
    /// A label.
    Text(&'a str),
    /// A number printed with this many decimal places.
    Fixed(f32, usize),
    /// A fraction printed as a percentage with this many places.
    Percent(f32, usize),
    /// A training cost in PMACs, printed by [`format_macs`].
    Macs(f64),
}

impl Cell<'_> {
    fn text(&self) -> String {
        match *self {
            Cell::Text(label) => label.to_owned(),
            Cell::Fixed(v, decimals) => format!("{v:.decimals$}"),
            Cell::Percent(fraction, decimals) => format!("{:.decimals$}", fraction * 100.0),
            Cell::Macs(pmacs) => format_macs(pmacs),
        }
    }

    fn value(&self) -> Value {
        match *self {
            Cell::Text(label) => label.to_value(),
            Cell::Fixed(v, _) | Cell::Percent(v, _) => v.to_value(),
            Cell::Macs(pmacs) => pmacs.to_value(),
        }
    }
}

/// A markdown table printed row by row, each row also collected as one
/// JSON object — the artifact holds the values the table showed, not a
/// second formatting of them.
pub struct Table {
    keys: Vec<&'static str>,
    rows: Vec<Value>,
}

impl Table {
    /// Prints the header and starts collecting. A column is its printed
    /// heading and its key in the artifact's row objects.
    pub fn new(columns: &[(&str, &'static str)]) -> Table {
        let (headings, keys): (Vec<&str>, Vec<&'static str>) = columns.iter().copied().unzip();
        print_header(&headings);
        let rows = Vec::new();
        Table { keys, rows }
    }

    /// Prints one row and collects it.
    pub fn row(&mut self, cells: &[Cell]) {
        debug_assert_eq!(cells.len(), self.keys.len(), "one cell per column");
        print_row(&cells.iter().map(Cell::text).collect::<Vec<_>>());
        let entries = self.keys.iter().zip(cells);
        let entries = entries.map(|(key, cell)| ((*key).to_owned(), cell.value()));
        self.rows.push(Value::Object(entries.collect()));
    }

    /// Writes the collected rows as `<artifact dir>/<name>.json`.
    ///
    /// # Errors
    ///
    /// When the artifact cannot be written; the message names the path.
    pub fn dump(&self, name: &str) -> std::io::Result<()> {
        dump_json(name, &self.rows).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_its_three_forms_and_nothing_else() {
        assert_eq!(Scale::parse("ci"), Some(Scale::Ci));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        for bad in ["", "cii", "CI", "Full", " ci", "1"] {
            assert_eq!(Scale::parse(bad), None, "{bad:?}");
        }
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
