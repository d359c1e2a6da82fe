//! Two-level persistent chunk trees: the sequences a
//! [`crate::DesignSnapshot`] shares with its successor, each corner lane's
//! endpoint order ([`crate::Endpoints`]) and the per-net views.
//!
//! A [`ChunkTree`] keeps its items in leaves of at most [`LEAF`] items
//! under nodes of at most [`NODE`] leaves, and both levels are
//! `Arc`-shared.  Each child sits in its parent beside the count and a
//! [`Summary`] of the items under it, so a positional or keyed search reads
//! only the children on its path.  Cloning a tree bumps one refcount per
//! node, `O(n/(L·F))` for `n` items; a write copies (`Arc::make_mut`) its
//! node (`F` refcount bumps) and its leaf (`L` item clones: one refcount
//! bump per view, two per endpoint entry) only when another version shares
//! them, and dropping a superseded version frees only the path its
//! successor replaced.
//!
//! A whole tree is built in one shape, full leaves under full nodes (the
//! last of each possibly short): from items (`FromIterator`), from leaves
//! cut that way ([`ChunkTree::from_leaves`]), or from trees of whole full
//! nodes laid one after the other ([`ChunkTree::concat`]).

use std::fmt;
use std::ops::Range;
use std::slice;
use std::sync::Arc;

/// Most items one leaf holds.  Of the leaf × node sizes 32×32, 64×32,
/// 32×64, 64×16 and 128×16, 32×32 and 64×16 gave the cheapest one-edit
/// ECO on a 2e4-net, ~89k-endpoint design, and 128×16 the dearest.  That
/// was measured with 32-byte endpoint entries (a window, a tie key and one
/// shared record); an endpoint entry now holds its timing inline, 48 bytes
/// with two shared pointers, and the sizes were not re-tuned for it.
pub(crate) const LEAF: usize = 32;

/// Most leaves one node holds.
pub(crate) const NODE: usize = 32;

/// What a parent caches about the items under a child, beside their count.
pub(crate) trait Summary<T>: Copy + PartialEq + fmt::Debug {
    /// The summary of a non-empty run of items.
    fn of(items: &[T]) -> Self;
    /// The summary of this run followed by the run `next`.
    fn join(self, next: Self) -> Self;
}

/// No summary: a tree addressed by position only.
impl<T> Summary<T> for () {
    fn of(_: &[T]) {}
    fn join(self, _: ()) {}
}

/// A child in its parent: the shared child, with the count and summary of
/// the items under it.
struct Slot<C, S> {
    len: usize,
    sum: S,
    child: Arc<C>,
}

impl<C, S: Copy> Clone for Slot<C, S> {
    fn clone(&self) -> Self {
        Slot {
            len: self.len,
            sum: self.sum,
            child: Arc::clone(&self.child),
        }
    }
}

/// At most [`LEAF`] items, never empty.
type Leaf<T> = Vec<T>;

/// At most [`NODE`] leaves, never empty.
type Node<T, S> = Vec<Slot<Leaf<T>, S>>;

/// A sequence in two levels of `Arc`-shared chunks (see the module doc).
/// `S` is what each slot caches about its items; `()` for a sequence
/// addressed by position only.
pub(crate) struct ChunkTree<T, S = ()> {
    nodes: Vec<Slot<Node<T, S>, S>>,
    len: usize,
}

impl<T, S: Copy> Clone for ChunkTree<T, S> {
    fn clone(&self) -> Self {
        ChunkTree {
            nodes: self.nodes.clone(),
            len: self.len,
        }
    }
}

impl<T, S> Default for ChunkTree<T, S> {
    fn default() -> Self {
        ChunkTree {
            nodes: Vec::new(),
            len: 0,
        }
    }
}

impl<T: fmt::Debug, S> fmt::Debug for ChunkTree<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T, S> ChunkTree<T, S> {
    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The item at position `index`, `None` when out of range: a walk over
    /// the cached node counts, then the leaf counts of one node.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        let (n, l, i) = self.position(index)?;
        Some(&self.nodes[n].child[l].child[i])
    }

    /// Node, leaf and offset of position `index`.
    fn position(&self, mut index: usize) -> Option<(usize, usize, usize)> {
        for (n, node) in self.nodes.iter().enumerate() {
            if index >= node.len {
                index -= node.len;
                continue;
            }
            for (l, leaf) in node.child.iter().enumerate() {
                if index < leaf.len {
                    return Some((n, l, index));
                }
                index -= leaf.len;
            }
        }
        None
    }

    /// The items in order.
    pub(crate) fn iter(&self) -> Iter<'_, T, S> {
        self.iter_nodes(0..self.nodes.len())
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The items under nodes `range`, in order.
    pub(crate) fn iter_nodes(&self, range: Range<usize>) -> Iter<'_, T, S> {
        let nodes = &self.nodes[range];
        Iter {
            remaining: nodes.iter().map(|n| n.len).sum(),
            nodes: nodes.iter(),
            leaves: Default::default(),
            items: Default::default(),
        }
    }

    /// The items of the leaves under nodes `range`, one slice per leaf, in
    /// order.
    pub(crate) fn leaves(&self, range: Range<usize>) -> impl Iterator<Item = &[T]> + '_ {
        self.nodes[range]
            .iter()
            .flat_map(|node| node.child.iter().map(|leaf| &leaf.child[..]))
    }

    /// The nodes in order, each as its summary and its leaves, and each
    /// leaf as its summary and its items.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (S, impl Iterator<Item = (S, &[T])>)> + '_
    where
        S: Copy,
    {
        self.nodes.iter().map(|node| {
            let leaves = node.child.iter().map(|leaf| (leaf.sum, &leaf.child[..]));
            (node.sum, leaves)
        })
    }

    /// Node and leaf of the first leaf whose summary `before` rejects —
    /// a binary search of the node summaries, then of that node's leaf
    /// summaries — or the last leaf when `before` accepts them all;
    /// `(0, 0)` when the tree is empty.  `before` must accept a prefix of
    /// the summaries at each level.
    pub(crate) fn locate(&self, before: impl Fn(&S) -> bool) -> (usize, usize) {
        let Some(last) = self.nodes.len().checked_sub(1) else {
            return (0, 0);
        };
        let n = self.nodes.partition_point(|s| before(&s.sum)).min(last);
        let leaves = &self.nodes[n].child;
        let l = leaves.partition_point(|s| before(&s.sum));
        (n, l.min(leaves.len() - 1))
    }

    /// The items of leaf `(node, leaf)`; empty when the tree is.
    pub(crate) fn leaf(&self, (n, l): (usize, usize)) -> &[T] {
        self.nodes.get(n).map_or(&[], |node| &node.child[l].child)
    }
}

impl<T: Clone, S: Summary<T>> ChunkTree<T, S> {
    /// The summary of every item, `None` when empty.
    pub(crate) fn summary(&self) -> Option<S> {
        (!self.nodes.is_empty()).then(|| Self::totals(&self.nodes).1)
    }

    /// Replaces the item at position `index`.  Returns the number of
    /// leaves copied (the leaf was shared with another version).
    ///
    /// # Panics
    ///
    /// When `index` is out of range.
    pub(crate) fn set(&mut self, index: usize, item: T) -> usize {
        let Some((n, l, i)) = self.position(index) else {
            panic!("index {index} out of range for {} items", self.len);
        };
        let ((), copied) = self.write_leaf((n, l), |leaf| leaf[i] = item);
        self.refresh_node(n);
        copied
    }

    /// Inserts `item` at offset `pos` of leaf `at` (as [`ChunkTree::locate`]
    /// returns it; any `at` and `pos` 0 when the tree is empty).  A leaf or
    /// node that grows over its size splits in half.  Returns the number of
    /// leaves copied.
    pub(crate) fn insert(&mut self, at: (usize, usize), pos: usize, item: T) -> usize {
        if self.nodes.is_empty() {
            self.nodes
                .push(Self::node_slot(vec![Self::leaf_slot(vec![item])]));
            self.len = 1;
            return 0;
        }
        let (n, l) = at;
        let ((), copied) = self.write_leaf(at, |leaf| leaf.insert(pos, item));
        let node = Arc::make_mut(&mut self.nodes[n].child);
        if node[l].len > LEAF {
            let slot = &mut node[l];
            let leaf = Arc::make_mut(&mut slot.child);
            let tail = leaf.split_off(leaf.len() / 2);
            (slot.len, slot.sum) = (leaf.len(), S::of(leaf));
            node.insert(l + 1, Self::leaf_slot(tail));
        }
        let tail = (node.len() > NODE).then(|| node.split_off(node.len() / 2));
        self.refresh_node(n);
        if let Some(tail) = tail {
            self.nodes.insert(n + 1, Self::node_slot(tail));
        }
        copied
    }

    /// Removes the item at offset `pos` of leaf `at`.  An emptied leaf or
    /// node goes; a leaf left under `LEAF / 4` items merges with a
    /// neighbour in its node, and a node left under `NODE / 4` leaves with
    /// a neighbouring node, when the pair fits in one.  Returns the item
    /// and the number of leaves copied.
    pub(crate) fn remove(&mut self, at: (usize, usize), pos: usize) -> (T, usize) {
        let (n, l) = at;
        let (gone, mut copied) = self.write_leaf(at, |leaf| leaf.remove(pos));
        let node = Arc::make_mut(&mut self.nodes[n].child);
        if node[l].len == 0 {
            node.remove(l);
        } else if node[l].len < LEAF / 4 {
            copied += Self::merge_leaves(node, l);
        }
        if node.is_empty() {
            self.nodes.remove(n);
        } else {
            self.refresh_node(n);
            if self.nodes[n].child.len() < NODE / 4 {
                self.merge_nodes(n);
            }
        }
        (gone, copied)
    }

    /// Applies `write` to leaf `(n, l)`, first copying its node and then the
    /// leaf when another version shares them, and re-caches the leaf's
    /// count and (unless emptied) summary; the node's are the caller's to
    /// refresh.  Returns `write`'s result and the number of leaves copied.
    fn write_leaf<R>(
        &mut self,
        (n, l): (usize, usize),
        write: impl FnOnce(&mut Leaf<T>) -> R,
    ) -> (R, usize) {
        let slot = &mut Arc::make_mut(&mut self.nodes[n].child)[l];
        let copied = usize::from(Arc::get_mut(&mut slot.child).is_none());
        let leaf = Arc::make_mut(&mut slot.child);
        let out = write(leaf);
        self.len = self.len + leaf.len() - slot.len;
        slot.len = leaf.len();
        if !leaf.is_empty() {
            slot.sum = S::of(leaf);
        }
        (out, copied)
    }

    /// Merges the undersized leaf `l` of `node` with its smaller neighbour
    /// in the node when the pair fits in one leaf.  Returns the number of
    /// leaves copied.
    fn merge_leaves(node: &mut Node<T, S>, l: usize) -> usize {
        let Some((left, right)) = mergeable(node.len(), l, LEAF, |i| node[i].len) else {
            return 0;
        };
        let right = node.remove(right);
        let slot = &mut node[left];
        let mut copied = usize::from(Arc::get_mut(&mut slot.child).is_none());
        let leaf = Arc::make_mut(&mut slot.child);
        match Arc::try_unwrap(right.child) {
            Ok(tail) => leaf.extend(tail),
            Err(shared) => {
                leaf.extend_from_slice(&shared);
                copied += 1;
            }
        }
        (slot.len, slot.sum) = (leaf.len(), S::of(leaf));
        copied
    }

    /// Merges the undersized node `n` with its smaller neighbour when the
    /// pair fits in one node.  Leaves move by refcount; none is copied.
    fn merge_nodes(&mut self, n: usize) {
        let nodes = &self.nodes;
        let Some((left, right)) = mergeable(nodes.len(), n, NODE, |i| nodes[i].child.len()) else {
            return;
        };
        let right = self.nodes.remove(right);
        let leaves = Arc::make_mut(&mut self.nodes[left].child);
        match Arc::try_unwrap(right.child) {
            Ok(tail) => leaves.extend(tail),
            Err(shared) => leaves.extend_from_slice(&shared),
        }
        self.refresh_node(left);
    }

    /// Re-caches node `n`'s count and summary from its leaf slots.
    fn refresh_node(&mut self, n: usize) {
        let node = &mut self.nodes[n];
        (node.len, node.sum) = Self::totals(&node.child);
    }

    /// The count and summary of a non-empty run of slots.
    fn totals<C>(slots: &[Slot<C, S>]) -> (usize, S) {
        let len = slots.iter().map(|s| s.len).sum();
        let sum = slots[1..]
            .iter()
            .fold(slots[0].sum, |acc, s| acc.join(s.sum));
        (len, sum)
    }

    fn leaf_slot(items: Leaf<T>) -> Slot<Leaf<T>, S> {
        Slot {
            len: items.len(),
            sum: S::of(&items),
            child: Arc::new(items),
        }
    }

    fn node_slot(leaves: Node<T, S>) -> Slot<Node<T, S>, S> {
        let (len, sum) = Self::totals(&leaves);
        Slot {
            len,
            sum,
            child: Arc::new(leaves),
        }
    }

    /// Asserts the structural invariants: no empty or oversize leaf or
    /// node, and every cached count and summary equal to a recomputation.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let mut count = 0;
        for node in &self.nodes {
            assert!(!node.child.is_empty(), "empty node");
            assert!(node.child.len() <= NODE, "oversize node");
            for leaf in node.child.iter() {
                assert!(!leaf.child.is_empty(), "empty leaf");
                assert!(leaf.child.len() <= LEAF, "oversize leaf");
                assert_eq!(leaf.len, leaf.child.len(), "stale leaf count");
                assert_eq!(leaf.sum, S::of(&leaf.child), "stale leaf summary");
            }
            let (len, sum) = Self::totals(&node.child);
            assert_eq!(node.len, len, "stale node count");
            assert_eq!(node.sum, sum, "stale node summary");
            count += len;
        }
        assert_eq!(count, self.len, "len out of sync");
    }

    /// Number of leaves.
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        self.nodes.iter().map(|n| n.child.len()).sum()
    }

    /// How many of this version's nodes and leaves `other` does not share.
    #[cfg(test)]
    pub(crate) fn unshared_with(&self, other: &Self) -> (usize, usize) {
        use std::collections::HashSet;
        let theirs: HashSet<*const Node<T, S>> =
            other.nodes.iter().map(|n| Arc::as_ptr(&n.child)).collect();
        let their_leaves: HashSet<*const Leaf<T>> = other
            .nodes
            .iter()
            .flat_map(|n| n.child.iter().map(|l| Arc::as_ptr(&l.child)))
            .collect();
        let nodes = self
            .nodes
            .iter()
            .filter(|n| !theirs.contains(&Arc::as_ptr(&n.child)))
            .count();
        let leaves = self
            .nodes
            .iter()
            .flat_map(|n| n.child.iter())
            .filter(|l| !their_leaves.contains(&Arc::as_ptr(&l.child)))
            .count();
        (nodes, leaves)
    }
}

impl<U, S> ChunkTree<Arc<U>, S> {
    /// Positions whose item is not the same allocation as in `old`, a
    /// version with the same layout (both descend by [`ChunkTree::set`]
    /// from one tree): a node, then a leaf, the two share is skipped whole.
    pub(crate) fn changed_since(&self, old: &Self) -> Vec<usize> {
        let mut changed = Vec::new();
        let mut at = 0;
        for (new, old) in self.nodes.iter().zip(&old.nodes) {
            if !Arc::ptr_eq(&new.child, &old.child) {
                let mut leaf_at = at;
                for (new, old) in new.child.iter().zip(old.child.iter()) {
                    if !Arc::ptr_eq(&new.child, &old.child) {
                        for (k, (a, b)) in new.child.iter().zip(old.child.iter()).enumerate() {
                            if !Arc::ptr_eq(a, b) {
                                changed.push(leaf_at + k);
                            }
                        }
                    }
                    leaf_at += new.len;
                }
            }
            at += new.len;
        }
        changed
    }
}

impl<T: Clone, S: Summary<T>> ChunkTree<T, S> {
    /// The tree over `leaves` as they are, under full nodes (the last
    /// possibly short).  Every leaf but the last must be full, so the tree
    /// is the one `FromIterator` builds from their items, without moving an
    /// item.
    pub(crate) fn from_leaves(leaves: impl IntoIterator<Item = Leaf<T>>) -> Self {
        let mut tree = ChunkTree::default();
        let mut node = Vec::with_capacity(NODE);
        for leaf in leaves {
            debug_assert!(
                !leaf.is_empty() && leaf.len() <= LEAF,
                "a leaf holds 1..=LEAF items"
            );
            node.push(Self::leaf_slot(leaf));
            if node.len() == NODE {
                let full = std::mem::replace(&mut node, Vec::with_capacity(NODE));
                tree.nodes.push(Self::node_slot(full));
            }
        }
        if !node.is_empty() {
            tree.nodes.push(Self::node_slot(node));
        }
        tree.len = tree.nodes.iter().map(|n| n.len).sum();
        tree
    }
}

impl<T, S> ChunkTree<T, S> {
    /// The trees `parts` one after the other.  Every part but the last
    /// must hold whole full nodes, so the tree is the one `FromIterator`
    /// builds from all their items.
    pub(crate) fn concat(parts: impl IntoIterator<Item = Self>) -> Self {
        let mut tree = ChunkTree::default();
        for part in parts {
            tree.len += part.len;
            tree.nodes.extend(part.nodes);
        }
        tree
    }
}

impl<T: Clone, S: Summary<T>> FromIterator<T> for ChunkTree<T, S> {
    /// Cuts the items into full leaves under full nodes (the last of each
    /// possibly short).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        ChunkTree::from_leaves(std::iter::from_fn(|| {
            let first = iter.next()?;
            let mut leaf = Vec::with_capacity(LEAF);
            leaf.push(first);
            leaf.extend(iter.by_ref().take(LEAF - 1));
            Some(leaf)
        }))
    }
}

/// The pair `(left, right)` that merges child `at` of `count` children with
/// its smaller neighbour (the left one on a tie), when their sizes (by
/// `size`) fit in `cap`.
fn mergeable(
    count: usize,
    at: usize,
    cap: usize,
    size: impl Fn(usize) -> usize,
) -> Option<(usize, usize)> {
    let size = |i: usize| if i < count { size(i) } else { usize::MAX };
    let other = match at.checked_sub(1) {
        Some(left) if size(left) <= size(at + 1) => left,
        _ => at + 1,
    };
    (size(other).saturating_add(size(at)) <= cap).then(|| (at.min(other), at.max(other)))
}

/// Iterator over a [`ChunkTree`]'s items in order.
pub(crate) struct Iter<'a, T, S> {
    nodes: slice::Iter<'a, Slot<Node<T, S>, S>>,
    leaves: slice::Iter<'a, Slot<Leaf<T>, S>>,
    items: slice::Iter<'a, T>,
    remaining: usize,
}

impl<T, S> Clone for Iter<'_, T, S> {
    fn clone(&self) -> Self {
        Iter {
            nodes: self.nodes.clone(),
            leaves: self.leaves.clone(),
            items: self.items.clone(),
            remaining: self.remaining,
        }
    }
}

impl<T, S> fmt::Debug for Iter<'_, T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<'a, T, S> Iterator for Iter<'a, T, S> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.items.next() {
                self.remaining -= 1;
                return Some(item);
            }
            match self.leaves.next() {
                Some(leaf) => self.items = leaf.child.iter(),
                None => self.leaves = self.nodes.next()?.child.iter(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T, S> ExactSizeIterator for Iter<'_, T, S> {}
