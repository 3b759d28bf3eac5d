//! Random geometric sensor graphs with Gaussian-kernel edge weights.
//!
//! Mirrors how METR-LA/PEMS adjacency matrices are built from road-network
//! distances (Li et al. 2018): `w_ij = exp(−d(i,j)²/σ²)` thresholded to keep
//! the graph sparse.

use crate::SensorGraph;
use cts_tensor::Tensor;
use rand::Rng;

/// Configuration for [`random_geometric_graph`].
#[derive(Clone, Debug)]
pub struct GraphGenConfig {
    /// Number of sensors.
    pub n: usize,
    /// Kernel bandwidth σ relative to the unit square.
    pub sigma: f32,
    /// Weights below this threshold are dropped (sparsification).
    pub threshold: f32,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        Self {
            n: 24,
            sigma: 0.25,
            threshold: 0.3,
        }
    }
}

/// Scatter `n` sensors uniformly in the unit square and connect them with
/// Gaussian-kernel weights; guarantees weak connectivity by chaining each
/// node to its nearest already-placed neighbour when thresholding isolates
/// it.
pub fn random_geometric_graph(rng: &mut impl Rng, cfg: &GraphGenConfig) -> SensorGraph {
    let n = cfg.n;
    let coords: Vec<(f32, f32)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let mut a = Tensor::zeros([n, n]);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = coords[i].0 - coords[j].0;
            let dy = coords[i].1 - coords[j].1;
            let w = (-(dx * dx + dy * dy) / (cfg.sigma * cfg.sigma)).exp();
            if w >= cfg.threshold {
                *a.at_mut(&[i, j]) = w;
            }
        }
    }
    // Connectivity repair: link isolated nodes to their nearest neighbour.
    for i in 0..n {
        let degree: f32 = (0..n).map(|j| a.at(&[i, j])).sum();
        if degree == 0.0 && n > 1 {
            let (mut best, mut best_d) = (usize::MAX, f32::INFINITY);
            for j in 0..n {
                if j == i {
                    continue;
                }
                let dx = coords[i].0 - coords[j].0;
                let dy = coords[i].1 - coords[j].1;
                let d = dx * dx + dy * dy;
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            let w = (-best_d / (cfg.sigma * cfg.sigma)).exp().max(cfg.threshold);
            *a.at_mut(&[i, best]) = w;
            *a.at_mut(&[best, i]) = w;
        }
    }
    SensorGraph::new(a, coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn every_node_has_an_edge() {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 30,
                ..Default::default()
            },
        );
        for i in 0..30 {
            let deg: f32 = (0..30).map(|j| g.adjacency().at(&[i, j])).sum();
            assert!(deg > 0.0, "node {i} isolated");
        }
    }

    #[test]
    fn weights_bounded_and_no_self_loops() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = random_geometric_graph(&mut rng, &GraphGenConfig::default());
        let a = g.adjacency();
        for i in 0..g.n() {
            assert_eq!(a.at(&[i, i]), 0.0);
            for j in 0..g.n() {
                let w = a.at(&[i, j]);
                assert!((0.0..=1.0).contains(&w));
            }
        }
    }

    #[test]
    fn closer_nodes_get_heavier_edges() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 40,
                sigma: 0.5,
                threshold: 0.0,
            },
        );
        let c = g.coords();
        // check the kernel is monotone in distance for a few triples
        let mut checked = 0;
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    if i == j || i == k || j == k {
                        continue;
                    }
                    let d =
                        |a: (f32, f32), b: (f32, f32)| (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2);
                    if d(c[i], c[j]) < d(c[i], c[k]) {
                        assert!(g.adjacency().at(&[i, j]) >= g.adjacency().at(&[i, k]));
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 =
            random_geometric_graph(&mut SmallRng::seed_from_u64(7), &GraphGenConfig::default());
        let g2 =
            random_geometric_graph(&mut SmallRng::seed_from_u64(7), &GraphGenConfig::default());
        assert!(g1.adjacency().approx_eq(g2.adjacency(), 0.0));
    }

    #[test]
    fn graph_is_connected_enough_for_bfs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_geometric_graph(
            &mut rng,
            &GraphGenConfig {
                n: 25,
                ..Default::default()
            },
        );
        let reachable = g
            .hop_distances(0)
            .iter()
            .filter(|&&d| d != usize::MAX)
            .count();
        // the repair step keeps things mostly connected; require a majority
        assert!(reachable > 12, "only {reachable} reachable");
    }
}
