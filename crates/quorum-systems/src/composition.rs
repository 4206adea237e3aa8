//! Recursive threshold compositions of quorum systems.
//!
//! A [`Composition`] is a tree of threshold gates over element leaves, the
//! shape real federated deployments use (Stellar-style quorum sets:
//! `{threshold, validators, inner_quorum_sets}`): a gate with children
//! `c₁, …, c_m` and threshold `k` is satisfied when at least `k` children
//! are.  Leaves may repeat across the tree, so the family strictly contains
//! the paper's recursive constructions — Tree, HQS and Grid are all
//! expressible as compositions (see `SystemSpec::{tree_as_compose,
//! hqs_as_compose, grid_as_compose}`), and Majority is the one-gate case.

use std::sync::Arc;

use quorum_core::lanes::{count_at_least_lanes, Lanes};
use quorum_core::{
    Coloring, ColoringDelta, DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem,
};

use crate::dispatch_lane_block;

/// Hard cap on circuit size, matching the other families' representability
/// guards.
const MAX_NODES: usize = 1 << 26;

/// Largest universe for which [`Composition::enumerate_quorums`] runs the
/// exact antichain circuit DP (same limit as the trait's brute-force
/// default).
const ENUM_LIMIT: usize = 24;

/// Recursive builder input for [`Composition`]: a leaf names one universe
/// element, a gate requires `threshold` of its children.
///
/// Thresholds of `0` (a constant-true gate) and single-child gates are
/// legal — degenerate compositions evaluate and enumerate canonically
/// rather than being rejected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompositionNode {
    /// One universe element; satisfied when the element is green.
    Leaf(ElementId),
    /// Satisfied when at least `threshold` of `children` are.
    Gate {
        /// How many children must be satisfied.
        threshold: usize,
        /// The child sub-compositions (at least one).
        children: Vec<CompositionNode>,
    },
}

impl CompositionNode {
    /// Convenience constructor for a threshold gate.
    pub fn gate(threshold: usize, children: Vec<CompositionNode>) -> Self {
        CompositionNode::Gate {
            threshold,
            children,
        }
    }

    /// Convenience constructor for a leaf.
    pub fn leaf(element: ElementId) -> Self {
        CompositionNode::Leaf(element)
    }
}

/// Flattened circuit node. Children always carry smaller indices than their
/// parents (post-order), so one ascending sweep evaluates the whole circuit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Leaf(u32),
    Gate {
        threshold: u32,
        start: u32,
        len: u32,
    },
}

/// The immutable flattened circuit, shared by a [`Composition`], its clones
/// and its delta evaluators.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Circuit {
    nodes: Vec<Node>,
    child_ids: Vec<u32>,
    /// `parent[v]` is the gate consuming node `v`; `u32::MAX` marks the root.
    parent: Vec<u32>,
    /// CSR multimap element → leaf nodes (elements may repeat).
    leaf_off: Vec<u32>,
    leaf_nodes: Vec<u32>,
}

/// A recursive threshold composition implementing [`QuorumSystem`].
///
/// The circuit is stored flat in post-order; `contains_quorum` is one
/// bottom-up sweep, the lane evaluators run the same sweep as a word
/// circuit over [`count_at_least_lanes`] (64·W trials per traversal), and
/// the delta evaluator keeps a per-gate satisfied-children counter so a
/// churn step costs O(flips · depth).
///
/// `min_quorum_size` / `max_quorum_size` come from the bottom-up
/// disjoint-children DP (min = sum of the `k` smallest child minima, max =
/// sum of the `k` largest child maxima). The DP is exact for *read-once*
/// compositions (no element appears in two leaves); when leaves repeat the
/// sizes are refined through the exact antichain enumeration for universes
/// up to 24 elements and otherwise reported as the DP's upper bounds.
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::{Composition, CompositionNode};
///
/// // 2-of-3 over {0,1,2}: the 3-majority as a one-gate composition.
/// let maj = Composition::new(
///     3,
///     CompositionNode::gate(2, (0..3).map(CompositionNode::leaf).collect()),
/// )
/// .unwrap();
/// assert!(maj.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
/// assert!(!maj.contains_quorum(&ElementSet::from_iter(3, [1])));
/// assert_eq!(maj.min_quorum_size(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Composition {
    n: usize,
    circuit: Arc<Circuit>,
    depth: usize,
    read_once: bool,
    min_q: usize,
    max_q: usize,
    sizes_exact: bool,
}

impl Composition {
    /// Builds a composition over `universe` elements from a recursive node
    /// description.
    ///
    /// # Errors
    ///
    /// * [`QuorumError::ElementOutOfRange`] when a leaf names an element
    ///   `>= universe`.
    /// * [`QuorumError::InvalidConstruction`] when the universe is empty, a
    ///   gate has no children, a threshold exceeds its child count, or the
    ///   circuit exceeds the representability cap.
    pub fn new(universe: usize, root: CompositionNode) -> Result<Self, QuorumError> {
        if universe == 0 {
            return Err(QuorumError::InvalidConstruction {
                reason: "a composition needs a non-empty universe".into(),
            });
        }
        let mut nodes = Vec::new();
        let mut child_ids = Vec::new();
        let depth = flatten(&root, universe, &mut nodes, &mut child_ids)?;

        let mut parent = vec![u32::MAX; nodes.len()];
        for (v, node) in nodes.iter().enumerate() {
            if let Node::Gate { start, len, .. } = node {
                for &c in &child_ids[*start as usize..(*start + *len) as usize] {
                    parent[c as usize] = v as u32;
                }
            }
        }

        // CSR element → leaf-node multimap, via counting sort.
        let mut leaf_off = vec![0u32; universe + 1];
        for node in &nodes {
            if let Node::Leaf(e) = node {
                leaf_off[*e as usize + 1] += 1;
            }
        }
        for e in 0..universe {
            leaf_off[e + 1] += leaf_off[e];
        }
        let mut cursor = leaf_off.clone();
        let mut leaf_nodes = vec![0u32; leaf_off[universe] as usize];
        for (v, node) in nodes.iter().enumerate() {
            if let Node::Leaf(e) = node {
                leaf_nodes[cursor[*e as usize] as usize] = v as u32;
                cursor[*e as usize] += 1;
            }
        }
        let read_once = (0..universe).all(|e| leaf_off[e + 1] - leaf_off[e] <= 1);

        let mut this = Composition {
            n: universe,
            circuit: Arc::new(Circuit {
                nodes,
                child_ids,
                parent,
                leaf_off,
                leaf_nodes,
            }),
            depth,
            read_once,
            min_q: 0,
            max_q: 0,
            sizes_exact: false,
        };
        let (min_q, max_q) = this.size_dp();
        this.min_q = min_q;
        this.max_q = max_q;
        this.sizes_exact = this.read_once;
        if !this.read_once && universe <= ENUM_LIMIT {
            let quorums = this.minimal_antichain();
            if let (Some(min), Some(max)) = (
                quorums.iter().map(ElementSet::len).min(),
                quorums.iter().map(ElementSet::len).max(),
            ) {
                this.min_q = min;
                this.max_q = max;
                this.sizes_exact = true;
            }
        }
        Ok(this)
    }

    /// Number of threshold gates in the circuit.
    pub fn gate_count(&self) -> usize {
        self.circuit
            .nodes
            .iter()
            .filter(|node| matches!(node, Node::Gate { .. }))
            .count()
    }

    /// Number of leaves in the circuit (counting repeats).
    pub fn leaf_count(&self) -> usize {
        self.circuit.leaf_nodes.len()
    }

    /// Gate depth of the circuit (a bare leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether no element appears in more than one leaf. Read-once
    /// compositions get exact quorum-size DP at any scale.
    pub fn is_read_once(&self) -> bool {
        self.read_once
    }

    /// Whether `min_quorum_size` / `max_quorum_size` are exact (always true
    /// for read-once compositions and for universes up to 24 elements;
    /// otherwise they are the disjoint-children DP's upper bounds).
    pub fn quorum_sizes_exact(&self) -> bool {
        self.sizes_exact
    }

    /// The disjoint-children DP over (min, max) minimal-quorum sizes.
    fn size_dp(&self) -> (usize, usize) {
        let mut mins = vec![0usize; self.circuit.nodes.len()];
        let mut maxs = vec![0usize; self.circuit.nodes.len()];
        let mut scratch: Vec<usize> = Vec::new();
        for (v, node) in self.circuit.nodes.iter().enumerate() {
            match node {
                Node::Leaf(_) => {
                    mins[v] = 1;
                    maxs[v] = 1;
                }
                Node::Gate {
                    threshold,
                    start,
                    len,
                } => {
                    let k = *threshold as usize;
                    if k == 0 {
                        continue; // constant true: the empty quorum
                    }
                    let children =
                        &self.circuit.child_ids[*start as usize..(*start + *len) as usize];
                    scratch.clear();
                    scratch.extend(children.iter().map(|&c| mins[c as usize]));
                    scratch.sort_unstable();
                    mins[v] = scratch[..k].iter().sum();
                    scratch.clear();
                    scratch.extend(children.iter().map(|&c| maxs[c as usize]));
                    scratch.sort_unstable_by(|a, b| b.cmp(a));
                    maxs[v] = scratch[..k].iter().sum();
                }
            }
        }
        let root = self.circuit.nodes.len() - 1;
        (mins[root], maxs[root])
    }

    /// The exact minimal-quorum antichain via the circuit DP: each node
    /// carries its antichain of minimal satisfying sets; a `k`-of-`m` gate
    /// unions every `k`-subset's cross product, dropping dominated sets as
    /// they appear. Handles repeated leaves exactly (unions overlap and
    /// shrink) — only feasible for small universes.
    fn minimal_antichain(&self) -> Vec<ElementSet> {
        let mut sets: Vec<Vec<ElementSet>> = Vec::with_capacity(self.circuit.nodes.len());
        for node in &self.circuit.nodes {
            let acc = match node {
                Node::Leaf(e) => vec![ElementSet::singleton(self.n, *e as usize)],
                Node::Gate {
                    threshold,
                    start,
                    len,
                } => {
                    let k = *threshold as usize;
                    if k == 0 {
                        vec![ElementSet::empty(self.n)]
                    } else {
                        let children =
                            &self.circuit.child_ids[*start as usize..(*start + *len) as usize];
                        let mut acc: Vec<ElementSet> = Vec::new();
                        let mut picked: Vec<u32> = Vec::with_capacity(k);
                        subsets_cross(children, k, &sets, &mut picked, &mut acc, self.n);
                        acc
                    }
                }
            };
            sets.push(acc);
        }
        let mut quorums = sets.pop().expect("circuit has a root");
        quorums.sort_by(|a, b| {
            a.len()
                .cmp(&b.len())
                .then_with(|| a.to_vec().cmp(&b.to_vec()))
        });
        quorums
    }

    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        let mut values: Vec<L> = Vec::with_capacity(self.circuit.nodes.len());
        for node in &self.circuit.nodes {
            let value = match node {
                Node::Leaf(e) => L::load(&lanes[*e as usize * L::WORDS..]),
                Node::Gate {
                    threshold,
                    start,
                    len,
                } => {
                    let children =
                        &self.circuit.child_ids[*start as usize..(*start + *len) as usize];
                    count_at_least_lanes(
                        children.iter().map(|&c| values[c as usize]),
                        *threshold as usize,
                    )
                }
            };
            values.push(value);
        }
        *values.last().expect("circuit has a root")
    }
}

/// Post-order flatten; returns the gate depth of `node`.
fn flatten(
    node: &CompositionNode,
    universe: usize,
    nodes: &mut Vec<Node>,
    child_ids: &mut Vec<u32>,
) -> Result<usize, QuorumError> {
    if nodes.len() >= MAX_NODES {
        return Err(QuorumError::InvalidConstruction {
            reason: format!("composition exceeds {MAX_NODES} circuit nodes"),
        });
    }
    match node {
        CompositionNode::Leaf(e) => {
            if *e >= universe {
                return Err(QuorumError::ElementOutOfRange {
                    element: *e,
                    universe,
                });
            }
            nodes.push(Node::Leaf(*e as u32));
            Ok(0)
        }
        CompositionNode::Gate {
            threshold,
            children,
        } => {
            if children.is_empty() {
                return Err(QuorumError::InvalidConstruction {
                    reason: "composition gate has no children".into(),
                });
            }
            if *threshold > children.len() {
                return Err(QuorumError::InvalidConstruction {
                    reason: format!(
                        "composition gate threshold {threshold} exceeds its {} children",
                        children.len()
                    ),
                });
            }
            let mut depth = 0;
            let mut ids = Vec::with_capacity(children.len());
            for child in children {
                depth = depth.max(flatten(child, universe, nodes, child_ids)? + 1);
                ids.push((nodes.len() - 1) as u32);
            }
            let start = child_ids.len() as u32;
            child_ids.extend_from_slice(&ids);
            nodes.push(Node::Gate {
                threshold: *threshold as u32,
                start,
                len: ids.len() as u32,
            });
            Ok(depth)
        }
    }
}

/// Inserts `cand` into the antichain `acc`: skipped when an existing set is
/// contained in it, and existing supersets of it are evicted.
fn insert_minimal(acc: &mut Vec<ElementSet>, cand: ElementSet) {
    if acc.iter().any(|q| q.is_subset(&cand)) {
        return;
    }
    acc.retain(|q| !cand.is_subset(q));
    acc.push(cand);
}

/// Enumerates every `k`-subset of `children` and pushes the antichain of
/// cross-product unions of the picked children's minimal sets into `acc`.
fn subsets_cross(
    children: &[u32],
    k: usize,
    sets: &[Vec<ElementSet>],
    picked: &mut Vec<u32>,
    acc: &mut Vec<ElementSet>,
    n: usize,
) {
    if k == 0 {
        // Cross product of the picked children's antichains.
        let mut partial = vec![ElementSet::empty(n)];
        for &c in picked.iter() {
            let mut next: Vec<ElementSet> = Vec::new();
            for base in &partial {
                for q in &sets[c as usize] {
                    insert_minimal(&mut next, base.union(q));
                }
            }
            partial = next;
        }
        for q in partial {
            insert_minimal(acc, q);
        }
        return;
    }
    if children.len() < k {
        return;
    }
    picked.push(children[0]);
    subsets_cross(&children[1..], k - 1, sets, picked, acc, n);
    picked.pop();
    subsets_cross(&children[1..], k, sets, picked, acc, n);
}

/// Incremental composition evaluation: a cached boolean per circuit node
/// plus a satisfied-children counter per gate. Each flipped leaf adjusts
/// its parent's counter and climbs toward the root only while a gate's
/// verdict actually changes, so a churn step costs O(flips · depth) with
/// early exit, independent of evaluation order even with repeated leaves.
#[derive(Debug, Clone)]
struct CompositionDeltaEval {
    n: usize,
    circuit: Arc<Circuit>,
    value: Vec<bool>,
    sat: Vec<u32>,
    primed: bool,
}

impl CompositionDeltaEval {
    fn recompute(&mut self, coloring: &Coloring) {
        for v in 0..self.circuit.nodes.len() {
            match &self.circuit.nodes[v] {
                Node::Leaf(e) => {
                    self.value[v] = coloring.is_green(*e as usize);
                }
                Node::Gate {
                    threshold,
                    start,
                    len,
                } => {
                    let children =
                        &self.circuit.child_ids[*start as usize..(*start + *len) as usize];
                    let sat = children.iter().filter(|&&c| self.value[c as usize]).count();
                    self.sat[v] = sat as u32;
                    self.value[v] = sat >= *threshold as usize;
                }
            }
        }
    }

    /// Flips leaf node `leaf` to `new` and propagates the change upward.
    fn propagate(&mut self, leaf: usize, new: bool) {
        let mut v = leaf;
        let mut val = new;
        loop {
            self.value[v] = val;
            let p = self.circuit.parent[v];
            if p == u32::MAX {
                return;
            }
            let p = p as usize;
            if val {
                self.sat[p] += 1;
            } else {
                self.sat[p] -= 1;
            }
            let threshold = match &self.circuit.nodes[p] {
                Node::Gate { threshold, .. } => *threshold as usize,
                Node::Leaf(_) => unreachable!("a parent is always a gate"),
            };
            let new_val = self.sat[p] as usize >= threshold;
            if new_val == self.value[p] {
                return;
            }
            v = p;
            val = new_val;
        }
    }
}

impl DeltaEvaluator for CompositionDeltaEval {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        assert_eq!(coloring.universe_size(), self.n, "universe mismatch");
        self.recompute(coloring);
        self.primed = true;
        self.verdict()
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        assert_eq!(post.universe_size(), self.n, "universe mismatch");
        for e in delta.flipped_elements() {
            let new = post.is_green(e);
            let (lo, hi) = (
                self.circuit.leaf_off[e] as usize,
                self.circuit.leaf_off[e + 1] as usize,
            );
            for i in lo..hi {
                let leaf = self.circuit.leaf_nodes[i] as usize;
                if self.value[leaf] != new {
                    self.propagate(leaf, new);
                }
            }
        }
        self.verdict()
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        *self.value.last().expect("circuit has a root")
    }
}

impl QuorumSystem for Composition {
    fn name(&self) -> String {
        format!(
            "Compose(n={},gates={},depth={})",
            self.n,
            self.gate_count(),
            self.depth
        )
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        let mut values = vec![false; self.circuit.nodes.len()];
        for (v, node) in self.circuit.nodes.iter().enumerate() {
            values[v] = match node {
                Node::Leaf(e) => set.contains(*e as usize),
                Node::Gate {
                    threshold,
                    start,
                    len,
                } => {
                    let children =
                        &self.circuit.child_ids[*start as usize..(*start + *len) as usize];
                    children.iter().filter(|&&c| values[c as usize]).count() >= *threshold as usize
                }
            };
        }
        *values.last().expect("circuit has a root")
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        Some(Box::new(CompositionDeltaEval {
            value: vec![false; self.circuit.nodes.len()],
            sat: vec![0; self.circuit.nodes.len()],
            n: self.n,
            circuit: Arc::clone(&self.circuit),
            primed: false,
        }))
    }

    fn min_quorum_size(&self) -> usize {
        self.min_q
    }

    fn max_quorum_size(&self) -> usize {
        self.max_q
    }

    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        if self.n > ENUM_LIMIT {
            return Err(QuorumError::UniverseTooLarge {
                actual: self.n,
                limit: ENUM_LIMIT,
            });
        }
        Ok(self.minimal_antichain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::lanes::LANE_WIDTHS;

    fn maj3() -> Composition {
        Composition::new(
            3,
            CompositionNode::gate(2, (0..3).map(CompositionNode::leaf).collect()),
        )
        .unwrap()
    }

    /// Deterministic splitmix64 for test colorings.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Composition::new(3, CompositionNode::leaf(3)),
            Err(QuorumError::ElementOutOfRange {
                element: 3,
                universe: 3
            })
        ));
        assert!(matches!(
            Composition::new(3, CompositionNode::gate(0, vec![])),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Composition::new(3, CompositionNode::gate(3, vec![CompositionNode::leaf(0)])),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Composition::new(0, CompositionNode::leaf(0)),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn one_gate_composition_is_a_majority() {
        let c = maj3();
        assert_eq!(c.universe_size(), 3);
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.leaf_count(), 3);
        assert_eq!(c.depth(), 1);
        assert!(c.is_read_once());
        assert_eq!(c.min_quorum_size(), 2);
        assert_eq!(c.max_quorum_size(), 2);
        for mask in 0u64..8 {
            let set = ElementSet::from_mask(3, mask);
            assert_eq!(c.contains_quorum(&set), set.len() >= 2, "mask {mask}");
        }
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums.len(), 3);
        assert!(quorums.iter().all(|q| q.len() == 2));
    }

    #[test]
    fn degenerate_threshold_zero_is_constant_true() {
        let c = Composition::new(
            2,
            CompositionNode::gate(0, vec![CompositionNode::leaf(0), CompositionNode::leaf(1)]),
        )
        .unwrap();
        assert!(c.contains_quorum(&ElementSet::empty(2)));
        assert_eq!(c.min_quorum_size(), 0);
        assert_eq!(c.max_quorum_size(), 0);
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums, vec![ElementSet::empty(2)]);
        // The empty quorum is not a valid coterie: typed error, no panic.
        assert!(matches!(c.to_coterie(), Err(QuorumError::Empty)));
    }

    #[test]
    fn degenerate_single_child_chain_acts_as_its_leaf() {
        let chain = CompositionNode::gate(
            1,
            vec![CompositionNode::gate(1, vec![CompositionNode::leaf(1)])],
        );
        let c = Composition::new(3, chain).unwrap();
        assert_eq!(c.depth(), 2);
        assert!(c.contains_quorum(&ElementSet::singleton(3, 1)));
        assert!(!c.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums, vec![ElementSet::singleton(3, 1)]);
        assert_eq!(c.min_quorum_size(), 1);
        assert_eq!(c.max_quorum_size(), 1);
    }

    #[test]
    fn duplicate_leaves_collapse_to_a_minimal_antichain() {
        // 2-of-2 over the same element: just {0}.
        let c = Composition::new(
            1,
            CompositionNode::gate(2, vec![CompositionNode::leaf(0), CompositionNode::leaf(0)]),
        )
        .unwrap();
        assert!(!c.is_read_once());
        assert_eq!(
            c.enumerate_quorums().unwrap(),
            vec![ElementSet::singleton(1, 0)]
        );
        assert_eq!(c.min_quorum_size(), 1);
        assert_eq!(c.max_quorum_size(), 1);
        assert!(c.quorum_sizes_exact());

        // 1-of-2 over {0} and {0,1}: the branch needing both is dominated.
        let c = Composition::new(
            2,
            CompositionNode::gate(
                1,
                vec![
                    CompositionNode::gate(1, vec![CompositionNode::leaf(0)]),
                    CompositionNode::gate(
                        2,
                        vec![CompositionNode::leaf(0), CompositionNode::leaf(1)],
                    ),
                ],
            ),
        )
        .unwrap();
        assert_eq!(
            c.enumerate_quorums().unwrap(),
            vec![ElementSet::singleton(2, 0)]
        );
    }

    #[test]
    fn grid_like_duplicates_get_exact_sizes() {
        // 2x2 grid as a composition: (1-of-rows of all-of-row) AND
        // (1-of-cols of all-of-col). Every element appears twice; a minimal
        // quorum is a row plus a column sharing the crossing element.
        let row = |a: usize, b: usize| {
            CompositionNode::gate(2, vec![CompositionNode::leaf(a), CompositionNode::leaf(b)])
        };
        let c = Composition::new(
            4,
            CompositionNode::gate(
                2,
                vec![
                    CompositionNode::gate(1, vec![row(0, 1), row(2, 3)]),
                    CompositionNode::gate(1, vec![row(0, 2), row(1, 3)]),
                ],
            ),
        )
        .unwrap();
        assert!(!c.is_read_once());
        assert!(c.quorum_sizes_exact());
        assert_eq!(c.min_quorum_size(), 3); // row + column share one element
        assert_eq!(c.max_quorum_size(), 3);
        let quorums = c.enumerate_quorums().unwrap();
        assert_eq!(quorums.len(), 4);
        assert!(quorums.iter().all(|q| q.len() == 3));
        assert!(c.to_coterie().is_ok());
    }

    #[test]
    fn nested_read_once_dp_is_exact() {
        // 2-of-3 over three disjoint 2-of-3 groups: min 4, max 4; n = 9.
        let group = |base: usize| {
            CompositionNode::gate(2, (base..base + 3).map(CompositionNode::leaf).collect())
        };
        let c = Composition::new(
            9,
            CompositionNode::gate(2, vec![group(0), group(3), group(6)]),
        )
        .unwrap();
        assert!(c.is_read_once());
        assert_eq!(c.min_quorum_size(), 4);
        assert_eq!(c.max_quorum_size(), 4);
        let quorums = c.enumerate_quorums().unwrap();
        assert!(quorums.iter().all(|q| q.len() == 4));
        // 3 pairs of groups x 3 quorums each per group.
        assert_eq!(quorums.len(), 27);
    }

    #[test]
    fn lane_circuit_matches_scalar_on_random_colorings() {
        let group = |base: usize| {
            CompositionNode::gate(2, (base..base + 3).map(CompositionNode::leaf).collect())
        };
        let c = Composition::new(
            9,
            CompositionNode::gate(2, vec![group(0), group(3), group(6)]),
        )
        .unwrap();
        let n = c.universe_size();
        let lanes: Vec<u64> = (0..n).map(|e| mix(e as u64 + 17)).collect();
        let verdicts = c.green_quorum_lanes(&lanes).unwrap();
        for t in 0..64 {
            let set = ElementSet::from_iter(n, (0..n).filter(|&e| lanes[e] >> t & 1 == 1));
            assert_eq!(verdicts >> t & 1 == 1, c.contains_quorum(&set), "trial {t}");
        }
    }

    #[test]
    fn lane_blocks_match_single_word_lanes() {
        let c = maj3();
        let n = c.universe_size();
        for width in LANE_WIDTHS {
            let lanes: Vec<u64> = (0..n * width).map(|i| mix(i as u64 + 99)).collect();
            let mut out = vec![0u64; width];
            assert!(c.green_quorum_lane_block(&lanes, width, &mut out));
            for w in 0..width {
                let word: Vec<u64> = (0..n).map(|e| lanes[e * width + w]).collect();
                assert_eq!(out[w], c.green_quorum_lanes(&word).unwrap(), "word {w}");
            }
        }
        let mut out = vec![0u64; 3];
        assert!(!c.green_quorum_lane_block(&[0; 9], 3, &mut out));
    }

    #[test]
    fn delta_evaluator_matches_scratch_under_random_flips() {
        let row = |a: usize, b: usize| {
            CompositionNode::gate(2, vec![CompositionNode::leaf(a), CompositionNode::leaf(b)])
        };
        // Duplicate-leaf circuit to exercise multi-leaf propagation.
        let c = Composition::new(
            4,
            CompositionNode::gate(
                2,
                vec![
                    CompositionNode::gate(1, vec![row(0, 1), row(2, 3)]),
                    CompositionNode::gate(1, vec![row(0, 2), row(1, 3)]),
                ],
            ),
        )
        .unwrap();
        let n = c.universe_size();
        let mut evaluator = c.delta_evaluator().expect("composition has a delta path");
        let mut coloring = Coloring::all_green(n);
        assert_eq!(evaluator.reset(&coloring), c.has_green_quorum(&coloring));
        let mut delta = ColoringDelta::empty(n);
        for step in 0..200u64 {
            let before = coloring.clone();
            let flips = 1 + (mix(step) as usize % 3);
            for f in 0..flips {
                let e = mix(step * 7 + f as u64) as usize % n;
                coloring.set_color(e, coloring.color(e).opposite());
            }
            before.diff_into(&coloring, &mut delta);
            assert_eq!(
                evaluator.update(&coloring, &delta),
                c.has_green_quorum(&coloring),
                "step {step}"
            );
        }
    }

    #[test]
    fn coterie_round_trip_is_valid() {
        let c = maj3();
        let coterie = c.to_coterie().unwrap();
        assert!(coterie.is_nondominated());
    }
}
