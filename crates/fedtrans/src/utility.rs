//! Utility-based model assignment and joint utility learning (§4.2).
//!
//! Each registered client keeps one utility score per model. When a
//! client participates, the coordinator samples a *compatible* model
//! (MACs within the client's hardware budget) through a softmax over
//! utilities (Eqs. 2–3) — exploration when utilities are close,
//! exploitation once one model clearly fits the client's data. After
//! training, the client's standardized loss updates the utilities of
//! **all** its compatible models, weighted by architectural similarity
//! to the model actually trained (Eq. 4), so information propagates to
//! models the client has never touched.

use rand::Rng;
use serde::{DeError, Value};

use ft_fedsim::metrics;
use ft_tensor::series;

/// Per-client utility state over the growing model suite.
#[derive(Debug, Clone)]
pub struct ClientManager {
    /// `utilities[client][model_index]`.
    utilities: Vec<Vec<f32>>,
}

impl ClientManager {
    /// Creates a manager for `num_clients` registered clients and one
    /// initial model (utility 0 everywhere, as in Algorithm 1 line 2).
    pub fn new(num_clients: usize) -> Self {
        ClientManager {
            utilities: vec![vec![0.0]; num_clients],
        }
    }

    /// Number of registered clients.
    pub fn num_clients(&self) -> usize {
        self.utilities.len()
    }

    /// Number of models currently tracked.
    pub fn num_models(&self) -> usize {
        self.utilities.first().map_or(0, Vec::len)
    }

    /// Registers a newly transformed model, seeding every client's
    /// utility with the parent's value (Algorithm 1 line 18).
    pub fn register_model(&mut self, parent_index: usize) {
        for u in &mut self.utilities {
            let seeded = u.get(parent_index).copied().unwrap_or(0.0);
            u.push(seeded);
        }
    }

    /// A client's utility for a model.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn utility(&self, client: usize, model: usize) -> f32 {
        self.utilities[client][model]
    }

    /// The utility table as one `[clients × models]` [`series`] block
    /// (checkpoint view).
    pub fn checkpoint_value(&self) -> Value {
        series::to_value(
            &[self.num_clients(), self.num_models()],
            &self.utilities.concat(),
        )
    }

    /// Decodes a table [`ClientManager::checkpoint_value`] wrote for
    /// this manager's clients over `models` models, without installing
    /// it.
    ///
    /// # Errors
    ///
    /// A [`DeError`] when `block` is not a series of shape
    /// `[num_clients × models]`: a smaller table would index past its
    /// end on the next assignment.
    pub fn decode_table(&self, block: &Value, models: usize) -> Result<Vec<Vec<f32>>, DeError> {
        let (shape, flat) = series::from_value(block)?;
        let want = [self.num_clients(), models];
        if shape.dims() != want || models == 0 {
            return Err(DeError::new(format!(
                "a table of shape {shape}, expected {want:?} (clients × models)"
            )));
        }
        Ok(flat.chunks_exact(models).map(<[f32]>::to_vec).collect())
    }

    /// Replaces the utility table with one
    /// [`ClientManager::decode_table`] returned (checkpoint restore).
    pub fn restore_utilities(&mut self, utilities: Vec<Vec<f32>>) {
        self.utilities = utilities;
    }

    /// The indices of models whose MACs fit within `capacity`
    /// (the paper's compatibility rule). Falls back to the single
    /// cheapest model when nothing fits, so every client can always
    /// train something.
    pub fn compatible_models(model_macs: &[u64], capacity: u64) -> Vec<usize> {
        let fit: Vec<usize> = model_macs
            .iter()
            .enumerate()
            .filter(|(_, &m)| m <= capacity)
            .map(|(i, _)| i)
            .collect();
        if !fit.is_empty() {
            return fit;
        }
        model_macs
            .iter()
            .enumerate()
            .min_by_key(|(_, &m)| m)
            .map(|(i, _)| vec![i])
            .unwrap_or_default()
    }

    /// Samples a model for `client` from `compatible` via the softmax of
    /// Eqs. 2–3.
    ///
    /// # Panics
    ///
    /// Panics if `compatible` is empty or contains out-of-range indices.
    pub fn assign(&self, rng: &mut impl Rng, client: usize, compatible: &[usize]) -> usize {
        assert!(!compatible.is_empty(), "need at least one compatible model");
        let utils: Vec<f32> = compatible
            .iter()
            .map(|&k| self.utilities[client][k])
            .collect();
        let max = utils.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = utils.iter().map(|&u| (u - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let mut u: f32 = rng.gen::<f32>() * sum;
        for (idx, &e) in compatible.iter().zip(&exps) {
            if u < e {
                return *idx;
            }
            u -= e;
        }
        *compatible.last().expect("non-empty checked above")
    }

    /// The compatible model with the highest utility — used at
    /// evaluation time (§5.1: "assign it the model with the highest
    /// utility").
    ///
    /// # Panics
    ///
    /// Panics if `compatible` is empty.
    pub fn best_model(&self, client: usize, compatible: &[usize]) -> usize {
        assert!(!compatible.is_empty());
        *compatible
            .iter()
            .max_by(|&&a, &&b| {
                self.utilities[client][a]
                    .partial_cmp(&self.utilities[client][b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty checked above")
    }

    /// Joint utility update (Eq. 4) after a round.
    ///
    /// `participants` lists `(client, trained_model, loss)`. Losses are
    /// standardized across the round's participants; each participant
    /// then updates every compatible model `k` by
    /// `U_k -= z_loss · sim(M_k, M_trained)`.
    pub fn update(
        &mut self,
        participants: &[(usize, usize, f32)],
        similarity: &[Vec<f32>],
        model_macs: &[u64],
        capacities: &[u64],
    ) {
        if participants.is_empty() {
            return;
        }
        let losses: Vec<f32> = participants.iter().map(|&(_, _, l)| l).collect();
        let mean = metrics::mean(&losses);
        let sd = metrics::std_dev(&losses).max(1e-6);
        for &(client, trained, loss) in participants {
            let z = (loss - mean) / sd;
            let compatible = Self::compatible_models(model_macs, capacities[client]);
            for k in compatible {
                let sim = similarity[k][trained];
                self.utilities[client][k] -= z * sim;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn starts_with_one_model_zero_utility() {
        let cm = ClientManager::new(3);
        assert_eq!(cm.num_models(), 1);
        assert_eq!(cm.utility(2, 0), 0.0);
    }

    #[test]
    fn register_copies_parent_utility() {
        let mut cm = ClientManager::new(2);
        // Give client 0 a distinctive utility on model 0.
        cm.update(
            &[(0, 0, 0.1), (1, 0, 2.0)],
            &[vec![1.0]],
            &[100],
            &[1000, 1000],
        );
        let before = cm.utility(0, 0);
        cm.register_model(0);
        assert_eq!(cm.num_models(), 2);
        assert_eq!(cm.utility(0, 1), before);
    }

    #[test]
    fn compatibility_respects_budget() {
        let macs = [100u64, 200, 400];
        assert_eq!(ClientManager::compatible_models(&macs, 250), vec![0, 1]);
        assert_eq!(ClientManager::compatible_models(&macs, 1000), vec![0, 1, 2]);
        // Nothing fits: fall back to cheapest.
        assert_eq!(ClientManager::compatible_models(&macs, 10), vec![0]);
    }

    #[test]
    fn assignment_prefers_high_utility() {
        let mut cm = ClientManager::new(1);
        cm.register_model(0);
        // Drive model 1's utility up for client 0.
        for _ in 0..8 {
            cm.update(
                &[(0, 1, 0.0), (0, 0, 5.0)],
                &[vec![1.0, 0.0], vec![0.0, 1.0]],
                &[100, 100],
                &[1000],
            );
        }
        let mut r = rng();
        let picks: Vec<usize> = (0..200).map(|_| cm.assign(&mut r, 0, &[0, 1])).collect();
        let ones = picks.iter().filter(|&&p| p == 1).count();
        assert!(ones > 150, "expected model 1 to dominate, got {ones}/200");
        assert_eq!(cm.best_model(0, &[0, 1]), 1);
    }

    #[test]
    fn assignment_explores_when_utilities_equal() {
        let mut cm = ClientManager::new(1);
        cm.register_model(0);
        let mut r = rng();
        let picks: Vec<usize> = (0..300).map(|_| cm.assign(&mut r, 0, &[0, 1])).collect();
        let ones = picks.iter().filter(|&&p| p == 1).count();
        assert!(
            (75..225).contains(&ones),
            "expected ~uniform, got {ones}/300"
        );
    }

    #[test]
    fn similar_models_borrow_utility() {
        let mut cm = ClientManager::new(2);
        cm.register_model(0);
        cm.register_model(0);
        // Client 0 trains model 2 with a *good* (below-mean) loss; model 1
        // is similar to model 2, model 0 is not.
        let sims = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.8],
            vec![0.0, 0.8, 1.0],
        ];
        cm.update(
            &[(0, 2, 0.0), (1, 2, 4.0)],
            &sims,
            &[100, 100, 100],
            &[1000, 1000],
        );
        // z for client 0 is negative -> utilities rise for similar models.
        assert!(cm.utility(0, 2) > 0.0);
        assert!(cm.utility(0, 1) > 0.0);
        assert!(cm.utility(0, 1) < cm.utility(0, 2));
        assert_eq!(cm.utility(0, 0), 0.0);
    }

    #[test]
    fn update_with_no_participants_is_noop() {
        let mut cm = ClientManager::new(1);
        cm.update(&[], &[vec![1.0]], &[100], &[1000]);
        assert_eq!(cm.utility(0, 0), 0.0);
    }
}
