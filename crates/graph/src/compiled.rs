//! Compiled (CSR) topology for allocation-free hot loops.
//!
//! The simulation engines execute the same per-round gather —
//! "for every fault-free node, visit every in-neighbour in ascending id
//! order" — millions of times. [`crate::Digraph`] stores adjacency as
//! bitsets, which is the right shape for the Theorem 1 condition checker
//! (`|N⁻(v) ∩ A|` in a few word ops) but makes the gather pay a
//! trailing-zeros loop per edge plus a bitset membership test per sender.
//!
//! [`CompiledTopology`] is the execution-shaped view: the in-adjacency
//! flattened to CSR arrays (`offsets`/`in_neighbors`, both `u32`) plus the
//! fault set densified to a `Vec<bool>`, built **once** from a
//! `(Digraph, NodeSet)` pair. The per-edge cost drops to one slice load and
//! one byte load, and the layout is sequential — exactly the row gather of
//! the matrix formulation `v[t] = M[t] v[t-1]` (Vaidya, arXiv:1203.1888).
//!
//! Iteration order over `in_neighbors_of` is ascending node id, matching
//! `Digraph::in_neighbors(..).iter()` bit for bit — the engines' goldens
//! rely on this.
//!
//! A compiled view is immutable: the dynamic-topology engine compiles one
//! per distinct graph of its schedule up front and switches between them.

use crate::{Digraph, NodeId, NodeSet};

/// CSR view of a digraph's in-adjacency plus a dense fault flag per node.
///
/// # Examples
///
/// ```
/// use iabc_graph::{generators, CompiledTopology, NodeSet};
///
/// let g = generators::complete(4);
/// let faults = NodeSet::from_indices(4, [3]);
/// let t = CompiledTopology::compile(&g, &faults);
/// assert_eq!(t.node_count(), 4);
/// assert_eq!(t.in_neighbors_of(0), &[1, 2, 3]);
/// assert!(t.is_faulty(3) && !t.is_faulty(0));
/// assert_eq!(t.max_in_degree(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTopology {
    n: usize,
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s in-neighbour run.
    offsets: Vec<u32>,
    /// All in-neighbour ids, concatenated per node in ascending order.
    in_neighbors: Vec<u32>,
    /// Dense fault flags (`is_faulty[i]` ⇔ node `i` is Byzantine).
    is_faulty: Vec<bool>,
    /// Sub-CSR of the **faulty** in-edges: `faulty_in[i]` runs hold
    /// `(slot, sender)` pairs, where `slot` is the position inside node
    /// `i`'s full in-neighbour row. Lets the engines gather every
    /// in-neighbour branchlessly and then overwrite just the faulty slots
    /// with adversary values.
    faulty_offsets: Vec<u32>,
    faulty_in: Vec<(u32, u32)>,
    max_in_degree: usize,
}

impl CompiledTopology {
    /// Compiles `graph`'s in-adjacency and `faults` into flat arrays.
    ///
    /// # Panics
    ///
    /// Panics if the fault set universe differs from the graph's node count
    /// or the graph has more than `u32::MAX` nodes/edges (far beyond any
    /// supported workload).
    pub fn compile(graph: &Digraph, faults: &NodeSet) -> Self {
        assert_eq!(
            faults.universe(),
            graph.node_count(),
            "fault set universe must match the graph"
        );
        let mut compiled = CompiledTopology::empty(graph.node_count(), faults, graph.edge_count());
        // One pass over each in-neighbour bitset: the row length is the
        // in-degree, so no second popcount pass is needed.
        for v in graph.nodes() {
            compiled.push_row(graph.in_neighbors(v).iter().map(|u| u.index() as u32));
        }
        compiled
    }

    /// A compilation of `n` nodes with no rows yet; rows are appended in
    /// node order by [`CompiledTopology::push_row`].
    fn empty(n: usize, faults: &NodeSet, edge_capacity: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "node count exceeds u32");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut faulty_offsets = Vec::with_capacity(n + 1);
        faulty_offsets.push(0);
        CompiledTopology {
            n,
            offsets,
            in_neighbors: Vec::with_capacity(edge_capacity),
            is_faulty: (0..n).map(|i| faults.contains(NodeId::new(i))).collect(),
            faulty_offsets,
            faulty_in: Vec::new(),
            max_in_degree: 0,
        }
    }

    /// Appends the next node's in-neighbour row (ascending ids) together
    /// with its faulty sub-CSR run.
    fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        let start = self.in_neighbors.len();
        for (slot, u) in row.into_iter().enumerate() {
            self.in_neighbors.push(u);
            if self.is_faulty[u as usize] {
                self.faulty_in.push((slot as u32, u));
            }
        }
        let end = self.in_neighbors.len();
        self.max_in_degree = self.max_in_degree.max(end - start);
        self.offsets
            .push(u32::try_from(end).expect("edge count exceeds u32"));
        self.faulty_offsets.push(self.faulty_in.len() as u32);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges in the compiled view.
    pub fn edge_count(&self) -> usize {
        self.in_neighbors.len()
    }

    /// Node `i`'s in-neighbours, ascending — the CSR row.
    #[inline]
    pub fn in_neighbors_of(&self, i: usize) -> &[u32] {
        &self.in_neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// `|N⁻(i)|`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Largest in-degree — the capacity bound for per-node scratch buffers.
    pub fn max_in_degree(&self) -> usize {
        self.max_in_degree
    }

    /// Whether node `i` is in the compiled fault set.
    #[inline]
    pub fn is_faulty(&self, i: usize) -> bool {
        self.is_faulty[i]
    }

    /// Node `i`'s **faulty** in-edges as `(slot, sender)` pairs, `slot`
    /// indexing into [`CompiledTopology::in_neighbors_of`]'s row. The
    /// branchless-gather companion: gather the whole row, then patch these
    /// slots with adversary values.
    #[inline]
    pub fn faulty_in_edges_of(&self, i: usize) -> &[(u32, u32)] {
        &self.faulty_in[self.faulty_offsets[i] as usize..self.faulty_offsets[i + 1] as usize]
    }

    /// The raw sub-CSR offset of node `i`'s faulty in-edge run — stable
    /// per-edge slot arithmetic for flattened per-faulty-edge state: the
    /// `k`-th entry of [`CompiledTopology::faulty_in_edges_of`]`(i)` has
    /// global faulty-edge index `faulty_in_offset(i) + k`. The two-phase
    /// adversary protocol keys its per-round `RoundPlan` table on exactly
    /// these indices, so the engines' per-edge lookup is an array index
    /// rather than a trait call.
    #[inline]
    pub fn faulty_in_offset(&self, i: usize) -> usize {
        self.faulty_offsets[i] as usize
    }

    /// Total number of faulty in-edges across all receivers — the length
    /// of the flat index space of [`CompiledTopology::faulty_in_offset`].
    #[inline]
    pub fn faulty_edge_count(&self) -> usize {
        self.faulty_in.len()
    }

    /// The raw CSR offset of node `i`'s row — stable slot arithmetic for
    /// flattened per-edge state (e.g. the delay-bounded engine's mailbox:
    /// the value from `i`'s `k`-th in-neighbour lives at
    /// `in_offset(i) + k`).
    #[inline]
    pub fn in_offset(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Compiles a topology **directly from per-node in-neighbour rows**,
    /// never materializing a [`Digraph`]. The bitset adjacency costs
    /// `n²/8` bytes — 125 GB at n = 10⁶ — while a sparse deployment only
    /// needs the CSR arrays, whose footprint is `O(n + edges)`. This is
    /// the constructor the million-node runtime tier builds on.
    ///
    /// `row(i, buf)` must fill `buf` with node `i`'s in-neighbours in
    /// **strictly ascending** id order (the adjacency order every engine
    /// golden is pinned to); `buf` arrives cleared.
    ///
    /// # Panics
    ///
    /// Panics if the fault set universe differs from `n`, a row is not
    /// strictly ascending, a neighbour id is out of range or a self-loop,
    /// or counts exceed `u32`.
    pub fn from_in_rows<F>(n: usize, faults: &NodeSet, mut row: F) -> Self
    where
        F: FnMut(usize, &mut Vec<u32>),
    {
        assert_eq!(faults.universe(), n, "fault set universe must match n");
        let mut compiled = CompiledTopology::empty(n, faults, 0);
        let mut buf = Vec::new();
        for i in 0..n {
            buf.clear();
            row(i, &mut buf);
            let mut prev: Option<u32> = None;
            compiled.push_row(buf.iter().map(|&u| {
                assert!((u as usize) < n, "in-neighbour {u} out of range");
                assert_ne!(u as usize, i, "self-loop at node {i}");
                assert!(prev.is_none_or(|p| p < u), "row {i} not strictly ascending");
                prev = Some(u);
                u
            }));
        }
        compiled
    }

    /// A directed circulant topology `C_n(1..=degree)` compiled straight
    /// to CSR — node `i`'s in-neighbours are `i − 1, …, i − degree`
    /// (mod `n`). Every node has in-degree exactly `degree`, so the
    /// memory footprint is `n × degree` edge slots: the sparse generator
    /// the deployment scale tier runs on (n = 10⁶ at degree 8 is ~100 MB
    /// of CSR, where the bitset [`Digraph`] would need 125 GB).
    ///
    /// # Panics
    ///
    /// Panics if `degree ≥ n` (neighbour offsets would wrap onto
    /// themselves) or the fault universe differs from `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use iabc_graph::{CompiledTopology, NodeSet};
    ///
    /// let t = CompiledTopology::circulant(5, 2, &NodeSet::with_universe(5));
    /// assert_eq!(t.in_neighbors_of(0), &[3, 4]);
    /// assert_eq!(t.in_neighbors_of(3), &[1, 2]);
    /// assert_eq!(t.max_in_degree(), 2);
    /// ```
    pub fn circulant(n: usize, degree: usize, faults: &NodeSet) -> Self {
        assert!(degree < n, "circulant degree must be < n");
        CompiledTopology::from_in_rows(n, faults, |i, buf| {
            for k in 1..=degree {
                buf.push(((i + n - k) % n) as u32);
            }
            buf.sort_unstable();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn compile_matches_digraph_adjacency() {
        let g = generators::chord(7, 5);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let t = CompiledTopology::compile(&g, &faults);
        assert_eq!(t.node_count(), 7);
        assert_eq!(t.edge_count(), g.edge_count());
        assert_eq!(t.max_in_degree(), 5);
        for v in g.nodes() {
            let expect: Vec<u32> = g.in_neighbors(v).iter().map(|u| u.index() as u32).collect();
            assert_eq!(t.in_neighbors_of(v.index()), expect.as_slice());
            assert_eq!(t.in_degree(v.index()), g.in_degree(v));
            assert_eq!(t.is_faulty(v.index()), faults.contains(v));
            // The faulty sub-CSR names exactly the faulty slots of the row.
            let expect_faulty: Vec<(u32, u32)> = expect
                .iter()
                .enumerate()
                .filter(|(_, &u)| faults.contains(crate::NodeId::new(u as usize)))
                .map(|(slot, &u)| (slot as u32, u))
                .collect();
            assert_eq!(t.faulty_in_edges_of(v.index()), expect_faulty.as_slice());
        }
    }

    #[test]
    fn faulty_in_offsets_index_the_sub_csr_contiguously() {
        let g = generators::chord(7, 5);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let t = CompiledTopology::compile(&g, &faults);
        let mut expected = 0usize;
        for i in 0..7 {
            assert_eq!(t.faulty_in_offset(i), expected);
            expected += t.faulty_in_edges_of(i).len();
        }
        assert_eq!(expected, t.faulty_edge_count());
        assert!(t.faulty_edge_count() > 0);
    }

    #[test]
    fn in_offsets_are_contiguous() {
        let g = generators::core_network(7, 2);
        let t = CompiledTopology::compile(&g, &NodeSet::with_universe(7));
        let mut expected = 0usize;
        for i in 0..7 {
            assert_eq!(t.in_offset(i), expected);
            expected += t.in_degree(i);
        }
        assert_eq!(expected, t.edge_count());
    }

    #[test]
    #[should_panic(expected = "fault set universe")]
    fn mismatched_universe_panics() {
        let g = generators::complete(3);
        let _ = CompiledTopology::compile(&g, &NodeSet::with_universe(4));
    }

    #[test]
    fn from_in_rows_matches_compile_on_a_digraph() {
        // Same topology built both ways must produce identical CSR state,
        // faulty sub-CSR included — the sparse constructor is the scale
        // tier's only path, so it must agree with the pinned one exactly.
        let g = generators::chord(9, 4);
        let faults = NodeSet::from_indices(9, [7, 8]);
        let via_digraph = CompiledTopology::compile(&g, &faults);
        let via_rows = CompiledTopology::from_in_rows(9, &faults, |i, buf| {
            buf.extend(
                g.in_neighbors(crate::NodeId::new(i))
                    .iter()
                    .map(|u| u.index() as u32),
            );
        });
        assert_eq!(via_digraph, via_rows);
    }

    #[test]
    fn circulant_rows_are_the_d_predecessors() {
        let faults = NodeSet::from_indices(6, [0]);
        let t = CompiledTopology::circulant(6, 3, &faults);
        assert_eq!(t.in_neighbors_of(0), &[3, 4, 5]);
        assert_eq!(t.in_neighbors_of(1), &[0, 4, 5]);
        assert_eq!(t.in_neighbors_of(4), &[1, 2, 3]);
        assert_eq!(t.edge_count(), 18);
        assert!(t.is_faulty(0) && !t.is_faulty(5));
        // Node 1's faulty in-edge is slot 0 (sender 0).
        assert_eq!(t.faulty_in_edges_of(1), &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_in_rows_rejects_unsorted_rows() {
        let _ = CompiledTopology::from_in_rows(3, &NodeSet::with_universe(3), |_, buf| {
            buf.extend([2u32, 1]);
        });
    }

    #[test]
    fn empty_graph_compiles() {
        let t = CompiledTopology::compile(&Digraph::new(0), &NodeSet::with_universe(0));
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.max_in_degree(), 0);
    }
}
