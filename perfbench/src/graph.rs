//! The benchmark's own copy of the input graph and its independent
//! reference: input generation, a binary-heap Dijkstra with hop counts,
//! and route validation. Nothing here calls into the program.

use crate::rng::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Distance of an unreachable node.
pub const UNREACHED: u64 = u64::MAX;

/// An undirected weighted graph as adjacency lists.
#[derive(Clone, Debug)]
pub struct Adj {
    nbrs: Vec<Vec<(u32, u64)>>,
}

impl Adj {
    /// Builds adjacency lists from an undirected edge list.
    pub fn new(n: usize, edges: &[(u32, u32, u64)]) -> Adj {
        let mut nbrs = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            nbrs[u as usize].push((v, w));
            nbrs[v as usize].push((u, w));
        }
        Adj { nbrs }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// `true` for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: u32) -> &[(u32, u64)] {
        &self.nbrs[u as usize]
    }

    /// Weight of edge `{u, v}`, if present.
    pub fn weight(&self, u: u32, v: u32) -> Option<u64> {
        self.nbrs[u as usize]
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, w)| w)
    }

    /// Sets the weight of the existing edge `{u, v}`.
    pub fn set_weight(&mut self, u: u32, v: u32, w: u64) {
        for (a, b) in [(u, v), (v, u)] {
            for e in &mut self.nbrs[a as usize] {
                if e.0 == b {
                    e.1 = w;
                }
            }
        }
    }

    /// Removes edge `{u, v}`.
    pub fn remove(&mut self, u: u32, v: u32) {
        self.nbrs[u as usize].retain(|&(x, _)| x != v);
        self.nbrs[v as usize].retain(|&(x, _)| x != u);
    }

    /// `true` when removing `{u, v}` keeps `v` reachable from `u`.
    pub fn connected_without(&self, u: u32, v: u32) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![u];
        seen[u as usize] = true;
        while let Some(x) = stack.pop() {
            for &(y, _) in self.neighbors(x) {
                if (x, y) == (u, v) || (x, y) == (v, u) || seen[y as usize] {
                    continue;
                }
                if y == v {
                    return true;
                }
                seen[y as usize] = true;
                stack.push(y);
            }
        }
        false
    }

    /// Single-source shortest paths: `(dist, hops)` where `hops[v]` is
    /// the fewest edges over all shortest `src → v` paths.
    pub fn dijkstra(&self, src: u32) -> (Vec<u64>, Vec<u32>) {
        let n = self.len();
        let mut dist = vec![UNREACHED; n];
        let mut hops = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        hops[src as usize] = 0;
        heap.push(Reverse((0u64, 0u32, src)));
        while let Some(Reverse((d, h, x))) = heap.pop() {
            if (d, h) != (dist[x as usize], hops[x as usize]) {
                continue;
            }
            for &(y, w) in self.neighbors(x) {
                let cand = (d + w, h + 1);
                if cand < (dist[y as usize], hops[y as usize]) {
                    dist[y as usize] = cand.0;
                    hops[y as usize] = cand.1;
                    heap.push(Reverse((cand.0, cand.1, y)));
                }
            }
        }
        (dist, hops)
    }

    /// Checks that `nodes` is a walk over real edges from `from` to `to`
    /// avoiding `dead` edges; returns its weight.
    pub fn walk_weight(
        &self,
        nodes: &[u32],
        from: u32,
        to: u32,
        dead: &[(u32, u32)],
    ) -> Result<u64, String> {
        if nodes.first() != Some(&from) || nodes.last() != Some(&to) {
            return Err(format!("route does not run {from} -> {to}: {nodes:?}"));
        }
        let mut total = 0u64;
        for w in nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            if dead.contains(&(a.min(b), a.max(b))) {
                return Err(format!("route crosses failed edge {a}-{b}"));
            }
            total += self
                .weight(a, b)
                .ok_or_else(|| format!("route uses non-edge {a}-{b}"))?;
        }
        Ok(total)
    }
}

/// A connected random graph: `m ≈ n·avg_degree/2` distinct uniform pairs
/// (G(n, m)) with weights uniform in `1..=w_max`; each component other
/// than the largest is then joined to it by one extra edge.
pub fn random_graph(n: usize, avg_degree: f64, w_max: u64, rng: &mut Rng) -> Vec<(u32, u32, u64)> {
    let m = (n as f64 * avg_degree / 2.0).round() as usize;
    let mut seen = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m + 64);
    while edges.len() < m {
        let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u.min(v), u.max(v), 1 + rng.below(w_max)));
        }
    }
    // Union-find over the sampled edges, then link stray components.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    for &(u, v, _) in &edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        parent[a as usize] = b;
    }
    let mut size = vec![0usize; n];
    for x in 0..n as u32 {
        let r = find(&mut parent, x);
        size[r as usize] += 1;
    }
    let giant = (0..n).max_by_key(|&r| size[r]).expect("n > 0") as u32;
    let members: Vec<u32> = (0..n as u32)
        .filter(|&x| find(&mut parent, x) == giant)
        .collect();
    for x in 0..n as u32 {
        if find(&mut parent, x) == x && x != giant {
            let y = members[rng.below(members.len() as u64) as usize];
            edges.push((x.min(y), x.max(y), 1 + rng.below(w_max)));
        }
    }
    edges
}
