//! Streaming scatter-overlap aggregation for submodel baselines.
//!
//! HeteroFL and FLuID average each global parameter over exactly the
//! clients whose submodels contain it. The pre-streaming loop
//! materialized every reply's weights first; [`ScatterSink`] folds
//! each update into the global-shaped accumulator the moment it lands
//! (scatter-add through the task's [`KeepPlan`]) and drops it, then
//! finalizes the element-wise counts once at `finish`. Absorb order is
//! task order, so the scatter op sequence — and therefore the digest —
//! is identical to the retired batch loop at any in-flight window.

use ft_fedsim::sink::{all_finite, ClientUpdate, Cursor, RoundManifest, UpdateSink};
use ft_fedsim::{Result, SimError};
use ft_model::crop::finalize_overlap;
use ft_model::CellModel;
use ft_tensor::Tensor;

use crate::submodel::{scatter_maps, KeepPlan, TensorMap};
use crate::tensor_select::{scatter_add1, scatter_add2};

/// The [`UpdateSink`] form of corner/invariant-dropout overlap
/// aggregation: one global-shaped accumulator plus per-element counts,
/// scatter-added into by each update's keep plan.
///
/// The reducer is its own (per-element counts, not one weight per
/// update); the manifest-order protocol is the shared [`Cursor`]. An
/// update holding a non-finite value is consumed but not scattered — it
/// adds to no element's count, so the overlap average needs no rescale.
pub struct ScatterSink<'a> {
    global: &'a CellModel,
    /// Per *task index*: the plan that cut that task's submodel.
    plans: Vec<&'a KeepPlan>,
    original: Vec<Tensor>,
    agg: Vec<Tensor>,
    counts: Vec<Tensor>,
    cursor: Cursor,
    rejected: u64,
}

/// The dims of the submodel tensor `map` scatters into a global tensor
/// of dims `global`: the kept indices per axis, the full axis where the
/// map is the identity.
fn submodel_dims<'m>(map: &'m TensorMap, global: &'m [usize]) -> impl Iterator<Item = usize> + 'm {
    [&map.rows, &map.cols]
        .into_iter()
        .take(if map.rank1 { 1 } else { 2 })
        .zip(global)
        .map(|(kept, &full)| kept.as_ref().map_or(full, Vec::len))
}

impl<'a> ScatterSink<'a> {
    /// Builds the sink for one round: `plans[t]` is the keep plan task
    /// `t`'s submodel was extracted with from `global`.
    pub fn new(global: &'a CellModel, plans: Vec<&'a KeepPlan>) -> Self {
        ScatterSink {
            global,
            plans,
            original: global.snapshot(),
            agg: Vec::new(),
            counts: Vec::new(),
            cursor: Cursor::default(),
            rejected: 0,
        }
    }

    /// The finalized global weights (positions no update covered keep
    /// their original values), consuming the round's accumulator.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`] — extracting a
    /// half-folded aggregate is always a bug.
    pub fn take_aggregate(&mut self) -> Vec<Tensor> {
        self.cursor.assert_finished("take_aggregate");
        std::mem::take(&mut self.agg)
    }

    /// Updates this round consumed but did not scatter because they
    /// held a non-finite value.
    pub fn rejected_updates(&self) -> u64 {
        self.rejected
    }
}

impl UpdateSink for ScatterSink<'_> {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        for spec in manifest.tasks {
            if spec.task >= self.plans.len() {
                return Err(SimError::protocol(format!(
                    "manifest task {} outside the sink's {} keep plans",
                    spec.task,
                    self.plans.len()
                )));
            }
        }
        let zeros = || -> Vec<Tensor> {
            self.original
                .iter()
                .map(|t| Tensor::zeros(t.shape().dims()))
                .collect()
        };
        self.agg = zeros();
        self.counts = zeros();
        self.rejected = 0;
        self.cursor.begin(manifest);
        Ok(())
    }

    fn absorb(&mut self, update: ClientUpdate) -> Result<()> {
        self.cursor.admit(&update)?;
        // An admitted task is a manifest task, and `begin_round` found a
        // plan for each of those.
        let maps = scatter_maps(self.global, self.plans[update.task]);
        if maps.len() != update.weights.len() {
            return Err(SimError::protocol(format!(
                "update for task {} has {} tensors, its keep plan cuts {}",
                update.task,
                update.weights.len(),
                maps.len()
            )));
        }
        for (ti, ((map, src), full)) in maps.iter().zip(&update.weights).zip(&self.agg).enumerate()
        {
            let cut = || submodel_dims(map, full.shape().dims());
            if !src.shape().dims().iter().copied().eq(cut()) {
                return Err(SimError::protocol(format!(
                    "update for task {} has dims {:?} in tensor {ti}, its keep plan cuts {:?}",
                    update.task,
                    src.shape().dims(),
                    cut().collect::<Vec<_>>()
                )));
            }
        }
        self.cursor.advance();
        if !all_finite(&update.weights) {
            self.rejected += 1;
            return Ok(());
        }
        for ((map, src), (a, c)) in maps
            .iter()
            .zip(&update.weights)
            .zip(self.agg.iter_mut().zip(self.counts.iter_mut()))
        {
            if map.rank1 {
                match &map.rows {
                    Some(idx) => scatter_add1(a, c, src, idx, 1.0),
                    None => {
                        let idx: Vec<usize> = (0..src.len()).collect();
                        scatter_add1(a, c, src, &idx, 1.0);
                    }
                }
            } else {
                scatter_add2(a, c, src, map.rows.as_deref(), map.cols.as_deref(), 1.0);
            }
        }
        // `update` drops here: nothing per-client is retained.
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.cursor.finish()?;
        for ((a, c), orig) in self.agg.iter_mut().zip(&self.counts).zip(&self.original) {
            finalize_overlap(a, c, orig);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submodel::extract;
    use ft_fedsim::sink::TaskSpec;
    use rand::SeedableRng;

    fn global() -> CellModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        CellModel::dense(&mut rng, 6, &[8, 8], 4)
    }

    #[test]
    fn streamed_scatter_matches_batch_loop() {
        let g = global();
        let plans = [KeepPlan::corner(&g, 0.5), KeepPlan::corner(&g, 0.25)];
        let updates: Vec<Vec<Tensor>> = plans
            .iter()
            .map(|p| {
                extract(&g, p)
                    .snapshot()
                    .into_iter()
                    .map(|t| Tensor::full(t.shape().dims(), 2.0))
                    .collect()
            })
            .collect();

        // Reference: the retired materialize-then-scatter loop.
        let original = g.snapshot();
        let mut agg: Vec<Tensor> = original
            .iter()
            .map(|t| Tensor::zeros(t.shape().dims()))
            .collect();
        let mut counts: Vec<Tensor> = original
            .iter()
            .map(|t| Tensor::zeros(t.shape().dims()))
            .collect();
        for (plan, weights) in plans.iter().zip(&updates) {
            let maps = scatter_maps(&g, plan);
            for ((map, src), (a, c)) in maps
                .iter()
                .zip(weights)
                .zip(agg.iter_mut().zip(counts.iter_mut()))
            {
                if map.rank1 {
                    match &map.rows {
                        Some(idx) => scatter_add1(a, c, src, idx, 1.0),
                        None => {
                            let idx: Vec<usize> = (0..src.len()).collect();
                            scatter_add1(a, c, src, &idx, 1.0);
                        }
                    }
                } else {
                    scatter_add2(a, c, src, map.rows.as_deref(), map.cols.as_deref(), 1.0);
                }
            }
        }
        for ((a, c), orig) in agg.iter_mut().zip(&counts).zip(&original) {
            finalize_overlap(a, c, orig);
        }

        // Streamed: absorb one update at a time, drop each after.
        let specs: Vec<TaskSpec> = (0..2)
            .map(|i| TaskSpec {
                task: i,
                client: i,
                samples: 10,
            })
            .collect();
        let mut sink = ScatterSink::new(&g, plans.iter().collect());
        sink.begin_round(&RoundManifest {
            round: 0,
            tasks: &specs,
        })
        .unwrap();
        for (i, weights) in updates.into_iter().enumerate() {
            sink.absorb(ClientUpdate {
                task: i,
                client: i,
                samples: 10,
                weights,
                delta: Vec::new(),
            })
            .unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(sink.take_aggregate(), agg);
    }
}
