use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use ft_nn::{accuracy, softmax_cross_entropy, GlobalAvgPool, Linear};
use ft_tensor::Tensor;

use crate::{Cell, Head, ModelError, Result};

static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(1);

/// Unique identity of a model within the training process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModelId(pub u64);

impl ModelId {
    /// Allocates a fresh id from the process-wide counter.
    pub fn fresh() -> Self {
        ModelId(NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// The next model id the process would allocate (checkpoint metadata).
pub(crate) fn next_model_id() -> u64 {
    NEXT_MODEL_ID.load(Ordering::Relaxed)
}

/// Raises the model-id counter to at least `min_next`, so ids restored
/// from a checkpoint can never collide with freshly allocated ones.
pub(crate) fn ensure_next_model_id(min_next: u64) {
    NEXT_MODEL_ID.fetch_max(min_next, Ordering::Relaxed);
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A trainable model: an ordered list of [`Cell`]s plus a [`Head`].
///
/// `CellModel` is the unit FedTrans generates, assigns to clients,
/// trains, and aggregates. It tracks its identity and parentage so the
/// Client Manager can reason about architectural similarity.
///
/// ```
/// use ft_model::CellModel;
/// use ft_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut m = CellModel::dense(&mut rng, 4, &[8], 3);
/// let logits = m.forward(&Tensor::ones(&[2, 4]))?;
/// assert_eq!(logits.shape().dims(), &[2, 3]);
/// # Ok::<(), ft_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellModel {
    id: ModelId,
    parent: Option<ModelId>,
    generation: u32,
    cells: Vec<Cell>,
    head: Head,
    input_width: usize,
}

impl CellModel {
    /// Builds an MLP body: one dense cell per entry of `hidden`.
    pub fn dense(
        rng: &mut impl rand::Rng,
        input_dim: usize,
        hidden: &[usize],
        classes: usize,
    ) -> Self {
        let mut cells = Vec::with_capacity(hidden.len());
        let mut width = input_dim;
        for &h in hidden {
            cells.push(Cell::dense(rng, width, h));
            width = h;
        }
        let head = Head::Classifier {
            linear: Linear::new(rng, width, classes),
        };
        CellModel {
            id: ModelId::fresh(),
            parent: None,
            generation: 0,
            cells,
            head,
            input_width: input_dim,
        }
    }

    /// Builds a CNN body: one conv cell per entry of `channels`, followed
    /// by global average pooling and a classifier.
    pub fn conv(
        rng: &mut impl rand::Rng,
        in_channels: usize,
        height: usize,
        width: usize,
        channels: &[usize],
        kernel: usize,
        classes: usize,
    ) -> Self {
        let mut cells = Vec::with_capacity(channels.len());
        let mut c = in_channels;
        for &oc in channels {
            cells.push(Cell::conv(rng, c, oc, kernel, height, width));
            c = oc;
        }
        let head = Head::PoolClassifier {
            pool: GlobalAvgPool::new(c, height, width),
            linear: Linear::new(rng, c, classes),
        };
        CellModel {
            id: ModelId::fresh(),
            parent: None,
            generation: 0,
            cells,
            head,
            input_width: in_channels * height * width,
        }
    }

    /// Builds a ViT-style body: `depth` attention cells over
    /// `tokens × d_model` inputs, classified from the token mean.
    pub fn vit(
        rng: &mut impl rand::Rng,
        tokens: usize,
        d_model: usize,
        depth: usize,
        d_ff: usize,
        classes: usize,
    ) -> Self {
        let cells = (0..depth)
            .map(|_| Cell::attention(rng, tokens, d_model, d_ff))
            .collect();
        let head = Head::TokenMeanClassifier {
            tokens,
            d_model,
            linear: Linear::new(rng, d_model, classes),
            cached_batch: None,
        };
        CellModel {
            id: ModelId::fresh(),
            parent: None,
            generation: 0,
            cells,
            head,
            input_width: tokens * d_model,
        }
    }

    /// Assembles a model from parts (used by the transform engine).
    pub fn from_parts(
        cells: Vec<Cell>,
        head: Head,
        input_width: usize,
        parent: Option<ModelId>,
        generation: u32,
    ) -> Self {
        CellModel {
            id: ModelId::fresh(),
            parent,
            generation,
            cells,
            head,
            input_width,
        }
    }

    /// This model's identity.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// Identity of the model this one was transformed from, if any.
    pub fn parent(&self) -> Option<ModelId> {
        self.parent
    }

    /// Number of transformations separating this model from the seed.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The transformable body cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Mutable body cells (transform engine entry point).
    pub fn cells_mut(&mut self) -> &mut [Cell] {
        &mut self.cells
    }

    /// The classification head.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// Mutable head (transform engine entry point).
    pub fn head_mut(&mut self) -> &mut Head {
        &mut self.head
    }

    /// Decomposes the model into cells and head for surgery.
    pub fn into_parts(self) -> (Vec<Cell>, Head, usize, Option<ModelId>, u32) {
        (
            self.cells,
            self.head,
            self.input_width,
            self.parent,
            self.generation,
        )
    }

    /// Checks every layer's geometry, cells and head alike: what a
    /// model deserialized from a checkpoint was never checked for, and
    /// what would otherwise surface as an index panic on its first pass.
    ///
    /// # Errors
    ///
    /// [`ModelError::Nn`] naming the first layer that does not hold
    /// together.
    pub fn validate(&self) -> Result<()> {
        for cell in &self.cells {
            cell.validate()?;
        }
        Ok(self.head.linear().validate()?)
    }

    /// Expected flat input width per sample.
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.head.classes()
    }

    /// Forward pass producing logits.
    ///
    /// # Errors
    ///
    /// Propagates layer geometry errors.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let Some((first, rest)) = self.cells.split_first_mut() else {
            return self.head.forward(x);
        };
        let mut h = first.forward(x)?;
        for cell in rest {
            h = cell.forward(&h)?;
        }
        self.head.forward(&h)
    }

    /// Inference forward producing logits: the arithmetic of
    /// [`CellModel::forward`], but nothing is cached and the input is
    /// not copied, so one model can be borrowed by every evaluation
    /// thread at once and a following [`CellModel::backward`] still
    /// finds no forward to differentiate.
    ///
    /// # Errors
    ///
    /// Propagates layer geometry errors.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let Some((first, rest)) = self.cells.split_first() else {
            return self.head.infer(x);
        };
        let mut h = first.infer(x)?;
        for cell in rest {
            h = cell.infer(&h)?;
        }
        self.head.infer(&h)
    }

    /// Bytes of the largest buffer one sample may occupy anywhere in
    /// an [`CellModel::infer`] pass (its input row, an attention cell's
    /// MLP activations, …, and for a conv cell its patch columns, a cap
    /// rather than a buffer: see [`Cell::sample_working_floats`]). Every
    /// buffer that grows with the batch grows linearly, so a batch of
    /// `r` samples never checks out one larger than `r` times this. The
    /// one conv buffer that does not grow, a sample's shifted planes
    /// (`C·k·(H + k − 1)·W` floats), is smaller than one sample's patch
    /// columns.
    pub fn sample_working_set_bytes(&self) -> usize {
        let head = self.head.linear();
        let floats = self
            .cells
            .iter()
            .map(Cell::sample_working_floats)
            .fold(self.input_width, usize::max)
            .max(head.in_features())
            .max(head.out_features());
        floats * std::mem::size_of::<f32>()
    }

    /// Backward pass from a logits gradient; stores every parameter
    /// gradient over the one the layer held and returns the input
    /// gradient.
    ///
    /// # Errors
    ///
    /// Propagates missing-cache errors.
    pub fn backward(&mut self, dlogits: &Tensor) -> Result<Tensor> {
        let mut g = self.head.backward(dlogits)?;
        for cell in self.cells.iter_mut().rev() {
            g = cell.backward(&g)?;
        }
        Ok(g)
    }

    /// [`CellModel::backward`] without the input gradient: the first
    /// cell stores its parameter gradients and computes no `dX`,
    /// since nothing reads the gradient of the data.
    fn backward_params(&mut self, dlogits: &Tensor) -> Result<()> {
        let mut g = self.head.backward(dlogits)?;
        let Some((first, rest)) = self.cells.split_first_mut() else {
            return Ok(());
        };
        for cell in rest.iter_mut().rev() {
            g = cell.backward(&g)?;
        }
        first.backward_params(&g)
    }

    /// Runs one forward/backward pass with softmax cross-entropy,
    /// storing the gradients. Returns `(loss, accuracy)`.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors (bad geometry, bad labels).
    pub fn loss_and_grad(&mut self, x: &Tensor, labels: &[usize]) -> Result<(f32, f32)> {
        let logits = self.forward(x)?;
        let acc = accuracy(&logits, labels)?;
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels)?;
        self.backward_params(&dlogits)?;
        Ok((loss, acc))
    }

    /// Evaluates loss and accuracy through [`CellModel::infer`]: no
    /// gradient, cache or weight is touched.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn evaluate(&self, x: &Tensor, labels: &[usize]) -> Result<(f32, f32)> {
        let logits = self.infer(x)?;
        let acc = accuracy(&logits, labels)?;
        let (loss, _) = softmax_cross_entropy(&logits, labels)?;
        Ok((loss, acc))
    }

    /// Fills every gradient the model holds with zeros. A train step
    /// needs no such call: its backward stores every gradient.
    pub fn zero_grad(&mut self) {
        for cell in &mut self.cells {
            cell.zero_grad();
        }
        self.head.zero_grad();
    }

    /// Immutable references to every parameter tensor, body-first.
    pub fn param_tensors(&self) -> Vec<&Tensor> {
        let mut out: Vec<&Tensor> = Vec::new();
        for cell in &self.cells {
            out.extend(cell.param_tensors());
        }
        out.push(self.head.linear().weight());
        out.push(self.head.linear().bias());
        out
    }

    /// Mutable references to every parameter tensor, body-first.
    pub fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = Vec::new();
        for cell in &mut self.cells {
            out.extend(cell.param_tensors_mut());
        }
        let (w, b) = self.head.linear_mut().params_mut();
        out.push(w);
        out.push(b);
        out
    }

    /// Visits `(mutable parameter, gradient)` pairs body-first — the
    /// same stable sequence as [`CellModel::param_tensors_mut`] zipped
    /// with [`CellModel::grad_tensors`], but with no reference vectors
    /// and no gradient clones. Optimizer step cursors
    /// (`ft_nn::Sgd::begin_step`) consume this stream directly, which
    /// is what makes the warm train step allocation-free.
    pub fn for_each_param_and_grad(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for cell in &mut self.cells {
            cell.for_each_param_and_grad(f);
        }
        self.head.for_each_param_and_grad(f);
    }

    /// Immutable references to every gradient tensor, body-first.
    pub fn grad_tensors(&self) -> Vec<&Tensor> {
        let mut out: Vec<&Tensor> = Vec::new();
        for cell in &self.cells {
            out.extend(cell.grad_tensors());
        }
        out.push(self.head.linear().grad_weight());
        out.push(self.head.linear().grad_bias());
        out
    }

    /// Clones every parameter tensor (a weight snapshot).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.param_tensors().into_iter().cloned().collect()
    }

    /// Restores parameters from a snapshot taken on an identically
    /// shaped model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IncompatibleModels`] on count or shape
    /// mismatch.
    pub fn restore(&mut self, snapshot: &[Tensor]) -> Result<()> {
        let mut params = self.param_tensors_mut();
        if params.len() != snapshot.len() {
            return Err(ModelError::IncompatibleModels {
                detail: format!(
                    "snapshot has {} tensors, model has {}",
                    snapshot.len(),
                    params.len()
                ),
            });
        }
        for (p, s) in params.iter_mut().zip(snapshot) {
            if p.shape() != s.shape() {
                return Err(ModelError::IncompatibleModels {
                    detail: format!("shape {:?} vs snapshot {:?}", p.shape(), s.shape()),
                });
            }
            **p = s.clone();
        }
        Ok(())
    }

    /// Describes how the flat tensor list of [`CellModel::snapshot`] maps
    /// onto cells: one `(cell_id, start, len)` entry per cell (in order)
    /// plus a final entry with `cell_id = None` for the head. Cross-model
    /// aggregation aligns tensors through this layout — positional
    /// alignment breaks as soon as a deepen inserts a cell.
    pub fn param_layout(&self) -> Vec<(Option<crate::CellId>, usize, usize)> {
        let mut out = Vec::with_capacity(self.cells.len() + 1);
        let mut start = 0usize;
        for cell in &self.cells {
            let len = cell.param_tensors().len();
            out.push((Some(cell.id()), start, len));
            start += len;
        }
        out.push((None, start, 2));
        out
    }

    /// Re-initializes every parameter from scratch, discarding inherited
    /// weights. Used by the warm-up ablation (`FedTrans-lsw` in Table 3),
    /// which measures how much the function-preserving weight transfer
    /// contributes.
    pub fn reinitialize(&mut self, rng: &mut impl rand::Rng) {
        for cell in &mut self.cells {
            match cell {
                Cell::Dense { linear, .. } => {
                    let (inf, outf) = (linear.in_features(), linear.out_features());
                    linear.set_params(
                        ft_tensor::he_normal(rng, &[inf, outf], inf),
                        Tensor::zeros(&[outf]),
                    );
                }
                Cell::Conv { conv, .. } => {
                    let in_c = conv.in_channels();
                    let out_c = conv.out_channels();
                    let k = conv.kernel();
                    let fan_in = in_c * k * k;
                    conv.set_params(
                        ft_tensor::he_normal(rng, &[out_c, fan_in], fan_in),
                        Tensor::zeros(&[out_c]),
                        in_c,
                    );
                }
                Cell::Attention { block, .. } => {
                    let (t, d, f) = (block.tokens(), block.d_model(), block.d_ff());
                    *block = ft_nn::AttentionBlock::new(rng, t, d, f);
                }
            }
        }
        let (inf, outf) = (
            self.head.linear().in_features(),
            self.head.linear().out_features(),
        );
        self.head.linear_mut().set_params(
            ft_tensor::he_normal(rng, &[inf, outf], inf),
            Tensor::zeros(&[outf]),
        );
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.cells.iter().map(Cell::param_count).sum::<usize>() + self.head.param_count()
    }

    /// Model size in bytes (f32 storage), the paper's storage metric.
    pub fn storage_bytes(&self) -> u64 {
        self.param_count() as u64 * 4
    }

    /// Multiply-accumulate operations for one forward pass of one sample,
    /// the paper's complexity metric.
    pub fn macs_per_sample(&self) -> u64 {
        self.cells.iter().map(Cell::macs_per_sample).sum::<u64>() + self.head.macs_per_sample()
    }

    /// One-line architecture summary, e.g. `dense(8->16)+dense(16->16)`.
    pub fn arch_string(&self) -> String {
        let mut parts: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("{}({})", c.kind(), c.out_width()))
            .collect();
        parts.push(format!("head({})", self.classes()));
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn dense_model_shapes() {
        let mut m = CellModel::dense(&mut rng(), 6, &[12, 8], 4);
        let y = m.forward(&Tensor::ones(&[3, 6])).unwrap();
        assert_eq!(y.shape().dims(), &[3, 4]);
        assert_eq!(m.cells().len(), 2);
        assert_eq!(m.param_count(), 6 * 12 + 12 + 12 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn conv_model_shapes() {
        let mut m = CellModel::conv(&mut rng(), 1, 6, 6, &[4, 8], 3, 5);
        let y = m.forward(&Tensor::ones(&[2, 36])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 5]);
    }

    #[test]
    fn vit_model_shapes() {
        let mut m = CellModel::vit(&mut rng(), 4, 6, 2, 12, 3);
        let y = m.forward(&Tensor::ones(&[2, 24])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = CellModel::dense(&mut rng(), 4, &[16], 2);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], &[2, 4]).unwrap();
        let labels = [0usize, 1];
        let mut opt = ft_nn::Sgd::new(0.5);
        let (first_loss, _) = m.loss_and_grad(&x, &labels).unwrap();
        for _ in 0..50 {
            m.zero_grad();
            m.loss_and_grad(&x, &labels).unwrap();
            let grads: Vec<Tensor> = m.grad_tensors().into_iter().cloned().collect();
            let grad_refs: Vec<&Tensor> = grads.iter().collect();
            let mut params = m.param_tensors_mut();
            opt.step(&mut params, &grad_refs).unwrap();
        }
        let (last_loss, acc) = m.evaluate(&x, &labels).unwrap();
        assert!(last_loss < first_loss);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn loss_and_grad_skips_only_the_input_gradient() {
        // The first cell computes no `dX`; every parameter gradient
        // must still be bit-identical to a full forward + backward, and
        // the model must train on from either.
        let cases = [
            (CellModel::dense(&mut rng(), 96, &[48, 48], 16), 96),
            (CellModel::conv(&mut rng(), 3, 6, 6, &[4, 8], 3, 5), 3 * 36),
            (CellModel::vit(&mut rng(), 4, 6, 2, 12, 3), 24),
        ];
        for (model, width) in cases {
            let mut rng = rng();
            let x = ft_tensor::uniform(&mut rng, &[5, width], -1.0, 1.0);
            let labels = [0usize, 1, 2, 0, 1];
            let (mut fast, mut full) = (model.clone(), model);
            let grads = |m: &CellModel| -> Vec<Vec<u32>> {
                let bits = |t: &&Tensor| t.data().iter().map(|v| v.to_bits()).collect();
                m.grad_tensors().iter().map(bits).collect()
            };
            for _ in 0..2 {
                fast.zero_grad();
                full.zero_grad();
                fast.loss_and_grad(&x, &labels).unwrap();
                let logits = full.forward(&x).unwrap();
                let (_, dlogits) = softmax_cross_entropy(&logits, &labels).unwrap();
                let dx = full.backward(&dlogits).unwrap();
                assert_eq!(dx.shape().dims(), &[5, width]);
                assert_eq!(grads(&fast), grads(&full), "{}", fast.arch_string());
            }
        }
    }

    #[test]
    fn a_warm_dense_train_step_is_its_gemms() {
        // One warm `loss_and_grad` of the largest `fedtrans-dense` model,
        // 96 → 96 → 192 → 96 → 16 at batch 10, issued from inside a pool
        // task as a client lane issues it. Per dense layer the step is
        // its three products: the bias and ReLU land in the forward's
        // store, `dW` and `db` in the gradients' (no temporaries, no
        // axpy), so all else it writes is the input copies its layers
        // cache (960 + 960 + 1 920 + 960), the ReLU masks recorded from
        // the outputs (960 + 1 920 + 960) and the masked `dZ`s (the
        // same): 12 480 elements. A bias or ReLU pass, or a `dW`
        // temporary with its axpy, would add to `passes` and `scratch`.
        // The pack transposes only `Wᵀ` for the three `dX` products
        // (1 536 + 18 432 + 18 432); the rest it packs are the 16-wide
        // head's windows (forward, `dW`, `db`).
        // Scratch: outputs 4 000, input copies 4 800, `dZ`s 3 840, `dX`s
        // 3 840, loss 320, and the B slabs 3 072 (head forward), 320 +
        // 320 + 512 (head backward), 3 072 and 6 144 (`dX` of the wide
        // layers).
        use ft_tensor::work::{measure, Work};
        let mut rng = rng();
        let model = CellModel::dense(&mut rng, 96, &[96, 192, 96], 16);
        let x = ft_tensor::uniform(&mut rng, &[10, 96], -1.0, 1.0);
        let labels: Vec<usize> = (0..10).map(|i| i % 16).collect();
        let model = std::sync::Mutex::new(model);
        let step = |zero: bool| {
            let mut m = model.lock().unwrap();
            if zero {
                m.zero_grad();
            }
            m.loss_and_grad(&x, &labels).unwrap();
        };
        step(false);
        let trainer = measure(&|| step(false));
        let transposed = 1_536 + 18_432 + 18_432;
        assert_eq!(
            trainer,
            Work {
                packed: 1_536 + 2 * 160 + transposed,
                transposed,
                planes: 0,
                scratch: 4_000 + 4_800 + 3_840 + 3_840 + 320 + 3_072 + 1_152 + 9_216,
                passes: 4_800 + 3_840 + 3_840,
                key_rows: 0,
                normals: 0,
                exact_normals: 0,
            }
        );
        // `zero_grad` fills every gradient (47 616 + 400 elements) that
        // the backward stores over anyway.
        let zeroed = measure(&|| step(true));
        assert_eq!(zeroed.passes, trainer.passes + 48_016);
        assert_eq!(
            Work {
                passes: 0,
                ..zeroed
            },
            Work {
                passes: 0,
                ..trainer
            }
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = CellModel::dense(&mut rng(), 4, &[8], 2);
        let snap = m.snapshot();
        // Perturb.
        for p in m.param_tensors_mut() {
            p.scale_mut(2.0);
        }
        m.restore(&snap).unwrap();
        for (p, s) in m.param_tensors().iter().zip(&snap) {
            assert_eq!(*p, s);
        }
    }

    #[test]
    fn restore_rejects_bad_snapshot() {
        let mut m = CellModel::dense(&mut rng(), 4, &[8], 2);
        assert!(m.restore(&[]).is_err());
    }

    #[test]
    fn ids_are_unique_and_parentage_tracked() {
        let a = CellModel::dense(&mut rng(), 4, &[8], 2);
        let b = CellModel::dense(&mut rng(), 4, &[8], 2);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.parent(), None);
    }

    #[test]
    fn macs_increase_with_width() {
        let small = CellModel::dense(&mut rng(), 8, &[8], 4);
        let large = CellModel::dense(&mut rng(), 8, &[32], 4);
        assert!(large.macs_per_sample() > small.macs_per_sample());
    }

    #[test]
    fn param_layout_covers_all_tensors() {
        let m = CellModel::dense(&mut rng(), 4, &[8, 8], 2);
        let layout = m.param_layout();
        assert_eq!(layout.len(), 3);
        let total: usize = layout.iter().map(|(_, _, len)| len).sum();
        assert_eq!(total, m.param_tensors().len());
        // Entries are contiguous and ordered.
        let mut expect = 0;
        for (_, start, len) in &layout {
            assert_eq!(*start, expect);
            expect += len;
        }
        assert!(layout.last().unwrap().0.is_none(), "last entry is the head");
    }

    #[test]
    fn reinitialize_changes_weights_but_not_architecture() {
        let mut m = CellModel::dense(&mut rng(), 4, &[8], 2);
        let before = m.snapshot();
        let arch = m.arch_string();
        let ids: Vec<_> = m.cells().iter().map(|c| c.id()).collect();
        m.reinitialize(&mut rand::rngs::StdRng::seed_from_u64(999));
        assert_eq!(m.arch_string(), arch);
        assert_eq!(ids, m.cells().iter().map(|c| c.id()).collect::<Vec<_>>());
        assert_ne!(before[0], m.snapshot()[0]);
    }

    #[test]
    fn arch_string_is_descriptive() {
        let m = CellModel::dense(&mut rng(), 4, &[8], 2);
        assert_eq!(m.arch_string(), "dense(8)+head(2)");
    }
}
