//! Multilevel k-way graph partitioning of the sparsity pattern.
//!
//! The paper's second combination heuristic (Sec. IV-C2) partitions the
//! graph whose nodes are block columns and whose edges mark nonzero
//! coupling blocks, using METIS' multilevel k-way scheme. This module
//! reimplements the quality core as recursive bisection: BFS-grown compact
//! halves, Fiduccia–Mattheyses boundary refinement per bisection, and a
//! final k-way boundary-refinement sweep — minimizing edge cut under a
//! balance constraint, like METIS' default objective.

use sm_dbcsr::CooPattern;

use super::XorShift;

/// Undirected weighted graph in CSR adjacency form.
#[derive(Debug, Clone)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
    adjwgt: Vec<f64>,
    vwgt: Vec<f64>,
}

impl Graph {
    /// Build from explicit (deduplicated, symmetric) edges.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)], vwgt: Vec<f64>) -> Self {
        assert_eq!(vwgt.len(), n);
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            assert!(u < n && v < n && u != v, "invalid edge ({u},{v})");
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        xadj.push(0);
        for mut list in adj {
            list.sort_by_key(|&(v, _)| v);
            for (v, w) in list {
                adjncy.push(v);
                adjwgt.push(w);
            }
            xadj.push(adjncy.len());
        }
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// Build the block-column graph of a sparsity pattern: one vertex per
    /// block column, an edge `(r, c)` for every off-diagonal nonzero block
    /// (unit weights — the paper's graph is unweighted).
    pub fn from_pattern(pattern: &CooPattern) -> Self {
        let n = pattern.nb();
        let mut edges = Vec::new();
        for &(r, c) in pattern.entries() {
            if r < c {
                edges.push((r, c, 1.0));
            }
        }
        Graph::from_edges(n, &edges, vec![1.0; n])
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adjncy[self.xadj[u]..self.xadj[u + 1]]
            .iter()
            .copied()
            .zip(self.adjwgt[self.xadj[u]..self.xadj[u + 1]].iter().copied())
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Edge cut of a partition.
    pub fn edge_cut(&self, part: &[usize]) -> f64 {
        let mut cut = 0.0;
        for u in 0..self.n() {
            for (v, w) in self.neighbors(u) {
                if u < v && part[u] != part[v] {
                    cut += w;
                }
            }
        }
        cut
    }
}

/// Allowed imbalance: max part weight ≤ `BALANCE · total/k`.
const BALANCE: f64 = 1.10;
/// FM refinement passes per level.
const REFINE_PASSES: usize = 10;
/// Seed of the bisections' random BFS starts.
const SEED: u64 = 1;

/// Multilevel k-way partition via recursive bisection: split the vertex
/// set into two weight-proportional halves with a BFS-grown, FM-refined
/// bisection, then recurse. Recursive bisection with compact (ball-shaped)
/// halves is what keeps the column unions small under the n³ cost model.
pub fn partition_kway(g: &Graph, k: usize) -> Vec<usize> {
    assert!(k >= 1);
    if k == 1 {
        return vec![0; g.n()];
    }
    if g.n() <= k {
        return (0..g.n()).map(|v| v % k).collect();
    }
    let mut rng = XorShift::new(SEED);
    let mut part = vec![0usize; g.n()];
    let all: Vec<usize> = (0..g.n()).collect();
    recursive_bisect(g, &all, k, 0, &mut part, &mut rng);
    // Final k-way boundary sweep across bisection seams.
    refine_fm(g, k, &mut part);
    part
}

/// Recursively bisect `verts` (global indices into `g`) into `k` parts with
/// ids `base..base + k`.
fn recursive_bisect(
    g: &Graph,
    verts: &[usize],
    k: usize,
    base: usize,
    part: &mut [usize],
    rng: &mut XorShift,
) {
    if k == 1 || verts.len() <= 1 {
        for &v in verts {
            part[v] = base;
        }
        return;
    }
    let k1 = k / 2;
    let k2 = k - k1;
    let frac = k1 as f64 / k as f64;
    let (sub, to_global) = induced_subgraph(g, verts);
    let side = bisect(&sub, frac, rng);
    let mut left = Vec::with_capacity(verts.len());
    let mut right = Vec::with_capacity(verts.len());
    for (local, &global) in to_global.iter().enumerate() {
        if side[local] {
            left.push(global);
        } else {
            right.push(global);
        }
    }
    // Degenerate splits (can happen on disconnected shards): fall back to a
    // plain size split to guarantee progress.
    if left.is_empty() || right.is_empty() {
        let cut = (verts.len() as f64 * frac).round() as usize;
        left = verts[..cut.max(1).min(verts.len() - 1)].to_vec();
        right = verts[left.len()..].to_vec();
    }
    recursive_bisect(g, &left, k1, base, part, rng);
    recursive_bisect(g, &right, k2, base + k1, part, rng);
}

/// Induced subgraph on a vertex subset; returns the subgraph and the
/// local→global index map.
fn induced_subgraph(g: &Graph, verts: &[usize]) -> (Graph, Vec<usize>) {
    let mut local_of = std::collections::HashMap::with_capacity(verts.len());
    for (l, &v) in verts.iter().enumerate() {
        local_of.insert(v, l);
    }
    let mut edges = Vec::new();
    let mut vwgt = Vec::with_capacity(verts.len());
    for (lu, &u) in verts.iter().enumerate() {
        vwgt.push(g.vwgt[u]);
        for (v, w) in g.neighbors(u) {
            if let Some(&lv) = local_of.get(&v) {
                if lu < lv {
                    edges.push((lu, lv, w));
                }
            }
        }
    }
    (Graph::from_edges(verts.len(), &edges, vwgt), verts.to_vec())
}

/// Bisect a graph into a side of target weight `frac·total` (true) and the
/// remainder (false): several BFS-region starts, boundary-FM refinement,
/// keep the best cut.
fn bisect(g: &Graph, frac: f64, rng: &mut XorShift) -> Vec<bool> {
    let n = g.n();
    let total = g.total_vwgt();
    let target = frac * total;
    let restarts = 4usize;
    let mut best: Option<(f64, Vec<bool>)> = None;
    for _ in 0..restarts {
        let mut side = vec![false; n];
        // Grow a compact BFS ball from a random seed until the target
        // weight is reached.
        let seed = rng.next_below(n);
        let mut weight = 0.0;
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        queue.push_back(seed);
        seen[seed] = true;
        while let Some(v) = queue.pop_front() {
            if weight >= target {
                break;
            }
            side[v] = true;
            weight += g.vwgt[v];
            for (u, _) in g.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        // Disconnected leftovers: fill from unvisited vertices if the ball
        // exhausted its component early.
        if weight < target {
            #[allow(clippy::needless_range_loop)] // reads and writes side[v]
            for v in 0..n {
                if weight >= target {
                    break;
                }
                if !side[v] {
                    side[v] = true;
                    weight += g.vwgt[v];
                }
            }
        }
        refine_bisection(g, &mut side, target);
        let cut = cut_of_bisection(g, &side);
        if best.as_ref().is_none_or(|(c, _)| cut < *c) {
            best = Some((cut, side));
        }
    }
    best.expect("restarts >= 1").1
}

fn cut_of_bisection(g: &Graph, side: &[bool]) -> f64 {
    let mut cut = 0.0;
    for u in 0..g.n() {
        for (v, w) in g.neighbors(u) {
            if u < v && side[u] != side[v] {
                cut += w;
            }
        }
    }
    cut
}

/// FM-style refinement of a bisection: greedily move boundary vertices to
/// the other side when the cut gain is positive and the weight stays within
/// the balance tolerance of the target split.
#[allow(clippy::needless_range_loop)] // vertex sweep needs the index for neighbors()
fn refine_bisection(g: &Graph, side: &mut [bool], target: f64) {
    let n = g.n();
    let total = g.total_vwgt();
    let tol = (BALANCE - 1.0).max(0.01) * total;
    let mut w_true: f64 = (0..n).filter(|&v| side[v]).map(|v| g.vwgt[v]).sum();
    for _ in 0..REFINE_PASSES {
        let mut improved = false;
        #[allow(clippy::needless_range_loop)] // vertex sweep reads and writes side[v]
        for v in 0..n {
            let mut internal = 0.0;
            let mut external = 0.0;
            for (u, w) in g.neighbors(v) {
                if side[u] == side[v] {
                    internal += w;
                } else {
                    external += w;
                }
            }
            let gain = external - internal;
            if gain <= 0.0 {
                continue;
            }
            let new_w_true = if side[v] {
                w_true - g.vwgt[v]
            } else {
                w_true + g.vwgt[v]
            };
            if (new_w_true - target).abs() <= tol {
                side[v] = !side[v];
                w_true = new_w_true;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Boundary FM refinement: greedily move boundary vertices to the neighbor
/// part with the largest positive cut gain, respecting the balance bound.
fn refine_fm(g: &Graph, k: usize, part: &mut [usize]) {
    let n = g.n();
    let max_weight = BALANCE * g.total_vwgt() / k as f64;
    let mut weights = vec![0.0f64; k];
    for v in 0..n {
        weights[part[v]] += g.vwgt[v];
    }
    for _ in 0..REFINE_PASSES {
        let mut improved = false;
        for v in 0..n {
            let home = part[v];
            // Connectivity of v to each part.
            let mut conn = vec![0.0f64; k];
            for (u, w) in g.neighbors(v) {
                conn[part[u]] += w;
            }
            let mut best_part = home;
            let mut best_gain = 0.0;
            for p in 0..k {
                if p == home {
                    continue;
                }
                let gain = conn[p] - conn[home];
                if gain > best_gain && weights[p] + g.vwgt[v] <= max_weight {
                    best_gain = gain;
                    best_part = p;
                }
            }
            if best_part != home {
                weights[home] -= g.vwgt[v];
                weights[best_part] += g.vwgt[v];
                part[v] = best_part;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cliques joined by one weak edge: the canonical partition test.
    fn two_cliques(size: usize) -> Graph {
        let mut edges = Vec::new();
        for a in 0..size {
            for b in (a + 1)..size {
                edges.push((a, b, 1.0));
                edges.push((size + a, size + b, 1.0));
            }
        }
        edges.push((0, size, 0.01)); // weak bridge
        Graph::from_edges(2 * size, &edges, vec![1.0; 2 * size])
    }

    #[test]
    fn bipartition_cuts_the_bridge() {
        let g = two_cliques(8);
        let part = partition_kway(&g, 2);
        // Each clique entirely in one part.
        for v in 1..8 {
            assert_eq!(part[v], part[0], "first clique split");
        }
        for v in 9..16 {
            assert_eq!(part[v], part[8], "second clique split");
        }
        assert_ne!(part[0], part[8]);
        assert!((g.edge_cut(&part) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn partition_is_balanced() {
        // Ring of 64 vertices into 4 parts: each part 14..=18 vertices.
        let edges: Vec<(usize, usize, f64)> = (0..64).map(|i| (i, (i + 1) % 64, 1.0)).collect();
        let g = Graph::from_edges(64, &edges, vec![1.0; 64]);
        let part = partition_kway(&g, 4);
        let mut counts = [0usize; 4];
        for &p in &part {
            counts[p] += 1;
        }
        for &c in &counts {
            assert!((8..=24).contains(&c), "part sizes {counts:?} too skewed");
        }
    }

    #[test]
    fn banded_pattern_partitions_contiguously_enough() {
        // A 1-D banded pattern behaves like a path graph: a good k-way cut
        // has ~k-1 cut regions, far below a random partition's cut.
        let mut coords = Vec::new();
        let nb: usize = 60;
        for i in 0..nb {
            for j in i.saturating_sub(2)..(i + 3).min(nb) {
                coords.push((i, j));
            }
        }
        let p = CooPattern::from_coords(coords, nb);
        let g = Graph::from_pattern(&p);
        let part = partition_kway(&g, 6);
        let cut = g.edge_cut(&part);
        // Random assignment cut for comparison.
        let random: Vec<usize> = (0..nb).map(|i| (i * 7 + 3) % 6).collect();
        let random_cut = g.edge_cut(&random);
        assert!(
            cut < random_cut / 2.0,
            "partitioner cut {cut} should beat random {random_cut}"
        );
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = two_cliques(4);
        // First clique: vertices 0..4.
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2, 3]);
        assert_eq!(sub.n(), 4);
        assert_eq!(map, vec![0, 1, 2, 3]);
        // Complete K4: each vertex has 3 neighbors; the weak bridge to the
        // other clique is gone.
        for v in 0..4 {
            assert_eq!(sub.neighbors(v).count(), 3);
        }
    }

    #[test]
    fn bisection_of_two_cliques_is_clean() {
        let g = two_cliques(8);
        let mut rng = XorShift::new(5);
        let side = bisect(&g, 0.5, &mut rng);
        let left: usize = side.iter().filter(|&&s| s).count();
        assert_eq!(left, 8, "halves must balance");
        // All of one clique on one side.
        for v in 1..8 {
            assert_eq!(side[v], side[0]);
        }
    }

    #[test]
    fn k_one_puts_everything_together() {
        let g = two_cliques(4);
        let part = partition_kway(&g, 1);
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn tiny_graph_with_k_equal_n() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0)], vec![1.0; 3]);
        let part = partition_kway(&g, 3);
        assert_eq!(part.len(), 3);
        assert!(part.iter().all(|&p| p < 3));
    }

    #[test]
    fn deterministic_for_seed() {
        let g = two_cliques(12);
        assert_eq!(partition_kway(&g, 3), partition_kway(&g, 3));
    }

    #[test]
    fn pattern_graph_has_no_self_edges() {
        let p = CooPattern::from_coords(vec![(0, 0), (1, 1), (0, 1), (1, 0)], 2);
        let g = Graph::from_pattern(&p);
        assert_eq!(g.n(), 2);
        let nbrs: Vec<usize> = g.neighbors(0).map(|(v, _)| v).collect();
        assert_eq!(nbrs, vec![1]);
    }
}
