//! Deck-scoped string interning: names to dense `u32` ids.
//!
//! A million-net deck names every net (and, through the `rctree-sta`
//! layer, every driver instance) with a short string.  Keying hot maps by
//! `String` costs an allocation per key, a heap indirection per probe, and
//! scatters the names across the heap; at `10^6` nets that dominates both
//! memory and cache traffic.  [`Interner`] stores every distinct name
//! exactly once, contiguously, and hands out a dense [`NameId`] (`u32`).
//! An `rctree-sta` design interns every net and instance name into one
//! table when it enters the design, and its net records and instance
//! table hold the ids; the string itself materialises only at the
//! protocol/report boundary via [`Interner::resolve`].
//!
//! The same table names the nodes of every [`RcTree`](crate::tree::RcTree):
//! a tree's name ids are its node ids, so a node lookup by name is one
//! probe here, and a 13-node net's names cost a handful of allocations.
//!
//! The table is a plain open hash over FNV-1a with flat collision chains —
//! one head id per bucket plus one next link per id, no per-bucket vector —
//! that compare the actual bytes, so two distinct names that land in one
//! bucket always receive distinct ids (pinned by a forced-collision
//! regression test).  Ids are assigned in first-intern order and are never
//! invalidated while the table lives; [`Interner::clear`] empties it for
//! reuse as scratch, keeping its allocations.

/// A dense identifier for an interned name.
///
/// Ids are assigned contiguously from zero in first-intern order, so they
/// double as indices into id-ordered side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

impl NameId {
    /// The id as a dense index (`0..interner.len()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string arena mapping names to dense [`NameId`]s.
///
/// ```
/// use rctree_core::intern::Interner;
///
/// let mut names = Interner::new();
/// let clk = names.intern("clk");
/// assert_eq!(names.intern("clk"), clk);       // idempotent
/// assert_eq!(names.resolve(clk), "clk");      // O(1) reverse lookup
/// assert_eq!(names.get("clk"), Some(clk));    // O(1) forward lookup
/// assert_eq!(names.get("rst"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Every interned name, concatenated.
    buf: String,
    /// Byte range of each id's name within `buf`.
    spans: Vec<(u32, u32)>,
    /// Hash table: bucket -> newest id whose name hashes there, or
    /// `NIL`.  `heads.len()` is zero or a power of two.
    heads: Vec<u32>,
    /// Per id, the next (older) id in its bucket's chain, or `NIL`.
    next: Vec<u32>,
}

/// The end of a bucket chain.
const NIL: u32 = u32::MAX;

/// FNV-1a over the name bytes — stable, dependency-free, and good enough
/// for short identifier-like keys.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes of interned name text (diagnostic; excludes table
    /// overhead).
    pub fn text_bytes(&self) -> usize {
        self.buf.len()
    }

    /// A table sized for `names` names of `bytes` bytes in all: interning
    /// that many allocates nothing further.
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        Interner {
            buf: String::with_capacity(bytes),
            spans: Vec::with_capacity(names),
            heads: vec![NIL; Self::buckets_for(names)],
            next: Vec::with_capacity(names),
        }
    }

    /// The bucket count that holds `names` names at load factor 1.
    fn buckets_for(names: usize) -> usize {
        names.next_power_of_two().max(16)
    }

    /// The bucket of a name hashing to `hash`.
    fn bucket_of(&self, hash: u64) -> usize {
        debug_assert!(self.heads.len().is_power_of_two());
        (hash as usize) & (self.heads.len() - 1)
    }

    /// The ids chained in the bucket of a name hashing to `hash`, newest
    /// first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let head = if self.heads.is_empty() {
            NIL
        } else {
            self.heads[self.bucket_of(hash)]
        };
        let link = |id: u32| (id != NIL).then_some(id);
        std::iter::successors(link(head), move |&id| link(self.next[id as usize]))
    }

    /// The id of `name`, which hashes to `hash`, if it has been interned.
    fn find(&self, name: &str, hash: u64) -> Option<NameId> {
        self.chain(hash)
            .find(|&id| self.span_str(id) == name)
            .map(NameId)
    }

    fn span_str(&self, id: u32) -> &str {
        let (start, end) = self.spans[id as usize];
        &self.buf[start as usize..end as usize]
    }

    /// The id of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.find(name, fnv1a(name))
    }

    /// Interns `name`, returning its id.  Idempotent: re-interning an
    /// existing name returns the original id without storing anything.
    pub fn intern(&mut self, name: &str) -> NameId {
        let hash = fnv1a(name);
        if let Some(id) = self.find(name, hash) {
            return id;
        }
        // Grow at load factor 1 so chains stay short.
        if self.spans.len() >= self.heads.len() {
            self.grow();
        }
        let start = self.buf.len() as u32;
        self.buf.push_str(name);
        let end = self.buf.len() as u32;
        let id = u32::try_from(self.spans.len()).expect("more than u32::MAX interned names");
        self.spans.push((start, end));
        let bucket = self.bucket_of(hash);
        self.next.push(self.heads[bucket]);
        self.heads[bucket] = id;
        NameId(id)
    }

    /// Forgets every name, keeping the allocations for reuse.  Ids handed
    /// out before are invalid afterwards.
    ///
    /// ```
    /// use rctree_core::intern::Interner;
    ///
    /// let mut names = Interner::new();
    /// names.intern("a");
    /// names.clear();
    /// assert!(names.is_empty());
    /// assert_eq!(names.get("a"), None);
    /// assert_eq!(names.intern("b").index(), 0);
    /// ```
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.buf.clear();
        self.spans.clear();
        self.next.clear();
    }

    /// The name of an interned id (`O(1)`).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this interner (out of range).
    pub fn resolve(&self, id: NameId) -> &str {
        self.span_str(id.0)
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        (0..self.spans.len() as u32).map(|id| (NameId(id), self.span_str(id)))
    }

    /// Whether both tables hold the same names under the same ids.
    pub(crate) fn same_names(&self, other: &Interner) -> bool {
        self.buf == other.buf && self.spans == other.spans
    }

    fn grow(&mut self) {
        let new_len = Self::buckets_for(self.heads.len() * 2);
        self.heads = vec![NIL; new_len];
        for id in 0..self.spans.len() as u32 {
            let bucket = self.bucket_of(fnv1a(self.span_str(id)));
            self.next[id as usize] = self.heads[bucket];
            self.heads[bucket] = id;
        }
    }

    /// The bucket chain length holding `name` — test hook for the
    /// collision regression.
    #[cfg(test)]
    fn chain_len(&self, name: &str) -> usize {
        self.chain(fnv1a(name)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut names = Interner::new();
        let a = names.intern("a");
        let b = names.intern("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(names.intern("a"), a);
        assert_eq!(names.len(), 2);
        assert_eq!(names.resolve(a), "a");
        assert_eq!(names.resolve(b), "b");
        assert_eq!(names.get("a"), Some(a));
        assert_eq!(names.get("c"), None);
    }

    #[test]
    fn empty_interner_answers_lookups() {
        let names = Interner::new();
        assert!(names.is_empty());
        assert_eq!(names.get("anything"), None);
    }

    #[test]
    fn survives_growth_with_many_names() {
        let mut names = Interner::new();
        let ids: Vec<NameId> = (0..10_000)
            .map(|i| names.intern(&format!("net{i}")))
            .collect();
        assert_eq!(names.len(), 10_000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(names.resolve(*id), format!("net{i}"));
            assert_eq!(names.get(&format!("net{i}")), Some(*id));
        }
        // Ids stay dense and in first-intern order.
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn colliding_names_get_distinct_ids() {
        // Force two distinct names into one bucket, then check the chain
        // compares bytes rather than hashes: both names keep independent
        // ids and resolve to their own text.
        let mut names = Interner::new();
        let mut pool: Vec<String> = (0..512).map(|i| format!("n{i}")).collect();
        for n in &pool {
            names.intern(n);
        }
        let collided = pool
            .drain(..)
            .find(|n| names.chain_len(n) >= 2)
            .expect("512 names over <=512 buckets must collide somewhere");
        let id = names.get(&collided).expect("interned");
        assert_eq!(names.resolve(id), collided);
        // A fresh name steered into the same bucket still gets its own id.
        let before = names.len();
        let fresh = names.intern(&format!("{collided}_x"));
        assert_eq!(names.len(), before + 1);
        assert_ne!(fresh, id);
        assert_eq!(names.resolve(fresh), format!("{collided}_x"));
    }

    #[test]
    fn clear_forgets_every_name_and_reuses_the_table() {
        let mut names = Interner::new();
        for i in 0..5_000 {
            names.intern(&format!("big{i}"));
        }
        let buckets = names.heads.len();
        // A small set after a large one finds none of the old names.
        for round in 0..3 {
            names.clear();
            assert!(names.is_empty());
            assert_eq!(names.text_bytes(), 0);
            assert_eq!(names.get("big0"), None);
            assert_eq!(names.get("big4999"), None);
            for i in 0..7 {
                assert_eq!(names.intern(&format!("r{round}n{i}")).index(), i);
            }
            assert_eq!(names.intern("r0n0").index(), if round == 0 { 0 } else { 7 });
            assert!(names.heads.iter().filter(|&&h| h != NIL).count() <= names.len());
            assert_eq!(names.heads.len(), buckets, "clear keeps the table");
        }
        // A full table is reset wholesale and still answers correctly.
        names.clear();
        for i in 0..buckets {
            names.intern(&format!("full{i}"));
        }
        names.clear();
        assert!(names.heads.iter().all(|&h| h == NIL));
        assert_eq!(names.get("full1"), None);
    }

    #[test]
    fn a_sized_table_interns_its_names_without_growing() {
        let names: Vec<String> = (0..1_000).map(|i| format!("node{i}")).collect();
        let bytes = names.iter().map(String::len).sum();
        let mut table = Interner::with_capacity(names.len(), bytes);
        let heads = table.heads.len();
        for n in &names {
            table.intern(n);
        }
        assert_eq!(table.heads.len(), heads);
        assert_eq!(table.buf.capacity(), bytes);
        assert_eq!(table.spans.capacity(), names.len());
        for (i, n) in names.iter().enumerate() {
            assert_eq!(table.get(n).map(NameId::index), Some(i));
        }
    }

    #[test]
    fn iter_walks_in_id_order() {
        let mut names = Interner::new();
        for n in ["z", "y", "x"] {
            names.intern(n);
        }
        let walked: Vec<(usize, &str)> = names.iter().map(|(id, s)| (id.index(), s)).collect();
        assert_eq!(walked, vec![(0, "z"), (1, "y"), (2, "x")]);
    }
}
