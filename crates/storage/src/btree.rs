//! A B+-tree over the buffer pool.
//!
//! Keys are arbitrary byte strings (unique at this layer — callers
//! needing duplicates compose `key || value` composite keys, see
//! [`crate::index`]); values are `u64`. One tree node per page,
//! serialized as a whole; leaves are chained for range scans.
//!
//! Deletion is *lazy* (remove from leaf, no rebalancing) — the standard
//! practical simplification; the paper's workloads are insert- and
//! read-heavy, and under-full pages are reabsorbed by later inserts.
//!
//! Node wire format (little-endian):
//!
//! ```text
//! leaf:     0x01  count:u16  next:u32(+1, 0=none)  { klen:u16 key val:u64 }*
//! internal: 0x00  count:u16  child0:u32            { klen:u16 key child:u32 }*
//! ```
//!
//! In an internal node, `child0` covers keys `< key[0]`, and `child[i]`
//! covers `key[i] <= k < key[i+1]`.
//!
//! [`NodeView`] is the one parser of that format. The read paths
//! ([`BTree::get`], [`BTree::scan_range`]) search the borrowed page body
//! through it, inside [`BufferPool::with_page`], without copying a key;
//! the write paths collect it into an owned [`Node`], edit, and
//! re-encode.

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::page::{PageId, PAGE_BODY};
use crate::Result;
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// Soft byte budget per node; exceeding it triggers a split.
const NODE_BUDGET: usize = PAGE_BODY - 64;

/// Bytes before the first entry: kind, count, next/child0.
const NODE_HEADER: usize = 7;

/// Most entries a page body can hold (an internal entry with an empty
/// key is 6 bytes). A larger `count` cannot fit, so [`NodeView::parse`]
/// reports it as truncation.
const MAX_ENTRIES: usize = (PAGE_BODY - NODE_HEADER) / 6;

/// Result of a recursive insert: the replaced value (if any) and a
/// `(separator, new right page)` pair when the child split.
type InsertOutcome = (Option<u64>, Option<(Vec<u8>, PageId)>);

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, u64)>,
        next: Option<PageId>,
    },
    Internal {
        child0: PageId,
        entries: Vec<(Vec<u8>, PageId)>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                NODE_HEADER + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
            Node::Internal { entries, .. } => {
                NODE_HEADER + entries.iter().map(|(k, _)| 2 + k.len() + 4).sum::<usize>()
            }
        }
    }

    fn encode(&self, buf: &mut [u8]) {
        let mut w = Writer { buf, at: 0 };
        match self {
            Node::Leaf { entries, next } => {
                w.u8(1);
                w.u16(entries.len() as u16);
                w.u32(next.map(|p| p.0 + 1).unwrap_or(0));
                for (k, v) in entries {
                    w.u16(k.len() as u16);
                    w.bytes(k);
                    w.u64(*v);
                }
            }
            Node::Internal { child0, entries } => {
                w.u8(0);
                w.u16(entries.len() as u16);
                w.u32(child0.0);
                for (k, c) in entries {
                    w.u16(k.len() as u16);
                    w.bytes(k);
                    w.u32(c.0);
                }
            }
        }
    }

    fn decode(buf: &[u8]) -> Result<Node> {
        let view = NodeView::parse(buf)?;
        let key = |i: usize| view.key(i).to_vec();
        Ok(if view.leaf {
            Node::Leaf {
                entries: (0..view.count).map(|i| (key(i), view.value(i))).collect(),
                next: view.next(),
            }
        } else {
            Node::Internal {
                child0: PageId(view.link),
                entries: (0..view.count).map(|i| (key(i), view.child(i))).collect(),
            }
        })
    }
}

/// A borrowed, validated view of one node's page body.
///
/// [`NodeView::parse`] walks the entries once, bounds-checking each
/// exactly as a full decode would, and records where each starts in a
/// fixed stack array. Keys are then compared as slices of the page, so
/// a lookup allocates nothing.
struct NodeView<'a> {
    buf: &'a [u8],
    leaf: bool,
    /// Leaf: `next` page + 1 (0 = none). Internal: `child0`.
    link: u32,
    count: usize,
    /// `starts[i]` is entry `i`'s offset; `starts[count]` is the end of
    /// the last entry.
    starts: [u16; MAX_ENTRIES + 1],
}

impl<'a> NodeView<'a> {
    fn parse(buf: &'a [u8]) -> Result<NodeView<'a>> {
        debug_assert!(buf.len() <= PAGE_BODY, "node offsets must fit u16");
        let mut r = Reader { buf, at: 0 };
        let leaf = r.u8()? == 1;
        let count = r.u16()? as usize;
        let link = r.u32()?;
        if count > MAX_ENTRIES {
            return Err(truncated());
        }
        let val_len = if leaf { 8 } else { 4 };
        let mut starts = [0u16; MAX_ENTRIES + 1];
        for start in &mut starts[..count] {
            *start = r.at as u16;
            let klen = r.u16()? as usize;
            r.take(klen + val_len)?;
        }
        starts[count] = r.at as u16;
        Ok(NodeView {
            buf,
            leaf,
            link,
            count,
            starts,
        })
    }

    fn val_len(&self) -> usize {
        if self.leaf {
            8
        } else {
            4
        }
    }

    fn key(&self, i: usize) -> &'a [u8] {
        &self.buf[self.starts[i] as usize + 2..self.starts[i + 1] as usize - self.val_len()]
    }

    /// Leaf entry `i`'s value.
    fn value(&self, i: usize) -> u64 {
        let end = self.starts[i + 1] as usize;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[end - 8..end]);
        u64::from_le_bytes(b)
    }

    /// Internal entry `i`'s child page.
    fn child(&self, i: usize) -> PageId {
        let end = self.starts[i + 1] as usize;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[end - 4..end]);
        PageId(u32::from_le_bytes(b))
    }

    fn next(&self) -> Option<PageId> {
        self.link.checked_sub(1).map(PageId)
    }

    /// `Ok(i)` when entry `i` holds `key`, else `Err(i)` with `i` the
    /// first entry whose key is greater.
    fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Internal node: the child covering `key`.
    fn child_for(&self, key: &[u8]) -> PageId {
        match child_slot(self.search(key)) {
            Some(i) => self.child(i),
            None => PageId(self.link),
        }
    }
}

fn truncated() -> StorageError {
    StorageError::Corrupt("btree node truncated")
}

struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }
    fn u16(&mut self, v: u16) {
        self.buf[self.at..self.at + 2].copy_from_slice(&v.to_le_bytes());
        self.at += 2;
    }
    fn u32(&mut self, v: u32) {
        self.buf[self.at..self.at + 4].copy_from_slice(&v.to_le_bytes());
        self.at += 4;
    }
    fn u64(&mut self, v: u64) {
        self.buf[self.at..self.at + 8].copy_from_slice(&v.to_le_bytes());
        self.at += 8;
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf[self.at..self.at + b.len()].copy_from_slice(b);
        self.at += b.len();
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(truncated());
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// A B+-tree rooted at a page, parameterized by the shared buffer pool.
pub struct BTree {
    root: PageId,
    entries: u64,
    pages: u32,
}

impl BTree {
    /// Decompose into raw parts `(root, entries, pages)` for a durable
    /// catalog. The node pages themselves live in the buffer pool's
    /// disk file.
    pub fn parts(&self) -> (PageId, u64, u32) {
        (self.root, self.entries, self.pages)
    }

    /// Reassemble a tree from [`BTree::parts`] output against the same
    /// disk file.
    pub fn from_parts(root: PageId, entries: u64, pages: u32) -> BTree {
        BTree { root, entries, pages }
    }

    /// Create an empty tree (allocates the root leaf).
    pub fn create<D: DiskManager>(pool: &BufferPool<D>) -> Result<BTree> {
        let root = pool.allocate()?;
        let node = Node::Leaf {
            entries: Vec::new(),
            next: None,
        };
        write_node(pool, root, &node)?;
        Ok(BTree {
            root,
            entries: 0,
            pages: 1,
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of pages this tree has allocated.
    pub fn page_count(&self) -> u32 {
        self.pages
    }

    /// Exact-match lookup.
    pub fn get<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        key: &[u8],
    ) -> Result<Option<u64>> {
        self.descend_to_leaf(pool, key, |_, leaf| {
            leaf.search(key).ok().map(|i| leaf.value(i))
        })
    }

    /// Walk from the root to the leaf covering `key`, one page visit
    /// per level, and run `at_leaf(leaf_page, view)` inside the leaf's
    /// visit.
    fn descend_to_leaf<D: DiskManager, R>(
        &self,
        pool: &BufferPool<D>,
        key: &[u8],
        mut at_leaf: impl FnMut(PageId, &NodeView<'_>) -> R,
    ) -> Result<R> {
        let mut page = self.root;
        loop {
            let step = pool.with_page(page, |buf| -> Result<_> {
                let node = NodeView::parse(buf)?;
                Ok(if node.leaf {
                    ControlFlow::Break(at_leaf(page, &node))
                } else {
                    ControlFlow::Continue(node.child_for(key))
                })
            })??;
            match step {
                ControlFlow::Continue(child) => page = child,
                ControlFlow::Break(r) => return Ok(r),
            }
        }
    }

    /// Insert or overwrite. Returns the previous value if the key existed.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        key: &[u8],
        value: u64,
    ) -> Result<Option<u64>> {
        let (old, split) = self.insert_rec(pool, self.root, key, value)?;
        if let Some((sep, right)) = split {
            // Root split: create a new root.
            let old_root = self.root;
            let new_root = pool.allocate()?;
            self.pages += 1;
            let node = Node::Internal {
                child0: old_root,
                entries: vec![(sep, right)],
            };
            write_node(pool, new_root, &node)?;
            self.root = new_root;
        }
        if old.is_none() {
            self.entries += 1;
        }
        Ok(old)
    }

    fn insert_rec<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        page: PageId,
        key: &[u8],
        value: u64,
    ) -> Result<InsertOutcome> {
        let mut node = read_node(pool, page)?;
        match &mut node {
            Node::Leaf { entries, next: _ } => {
                let old = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        let old = entries[i].1;
                        entries[i].1 = value;
                        Some(old)
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value));
                        None
                    }
                };
                if node.serialized_size() <= NODE_BUDGET {
                    write_node(pool, page, &node)?;
                    return Ok((old, None));
                }
                // Split the leaf.
                let (entries, next) = match node {
                    Node::Leaf { entries, next } => (entries, next),
                    _ => unreachable!(),
                };
                let mid = entries.len() / 2;
                let right_entries = entries[mid..].to_vec();
                let left_entries = entries[..mid].to_vec();
                let sep = right_entries[0].0.clone();
                let right_page = pool.allocate()?;
                self.pages += 1;
                write_node(
                    pool,
                    right_page,
                    &Node::Leaf {
                        entries: right_entries,
                        next,
                    },
                )?;
                write_node(
                    pool,
                    page,
                    &Node::Leaf {
                        entries: left_entries,
                        next: Some(right_page),
                    },
                )?;
                Ok((old, Some((sep, right_page))))
            }
            Node::Internal { child0, entries } => {
                let child = descend(entries, *child0, key);
                let (old, split) = self.insert_rec(pool, child, key, value)?;
                if let Some((sep, right)) = split {
                    let pos = entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(&sep))
                        .unwrap_or_else(|i| i);
                    entries.insert(pos, (sep, right));
                    if node.serialized_size() <= NODE_BUDGET {
                        write_node(pool, page, &node)?;
                        return Ok((old, None));
                    }
                    // Split the internal node.
                    let (child0, entries) = match node {
                        Node::Internal { child0, entries } => (child0, entries),
                        _ => unreachable!(),
                    };
                    let mid = entries.len() / 2;
                    let (up_key, up_child) = entries[mid].clone();
                    let right_entries = entries[mid + 1..].to_vec();
                    let left_entries = entries[..mid].to_vec();
                    let right_page = pool.allocate()?;
                    self.pages += 1;
                    write_node(
                        pool,
                        right_page,
                        &Node::Internal {
                            child0: up_child,
                            entries: right_entries,
                        },
                    )?;
                    write_node(
                        pool,
                        page,
                        &Node::Internal {
                            child0,
                            entries: left_entries,
                        },
                    )?;
                    return Ok((old, Some((up_key, right_page))));
                }
                Ok((old, None))
            }
        }
    }

    /// Delete a key (lazy: no rebalancing). Returns the removed value.
    pub fn delete<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        key: &[u8],
    ) -> Result<Option<u64>> {
        let mut page = self.root;
        loop {
            let mut node = read_node(pool, page)?;
            match &mut node {
                Node::Leaf { entries, .. } => {
                    match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                        Ok(i) => {
                            let (_, v) = entries.remove(i);
                            write_node(pool, page, &node)?;
                            self.entries -= 1;
                            return Ok(Some(v));
                        }
                        Err(_) => return Ok(None),
                    }
                }
                Node::Internal { child0, entries } => {
                    page = descend(entries, *child0, key);
                }
            }
        }
    }

    /// Visit every `(key, value)` with `lo <= key < hi` in key order.
    /// `hi = None` means unbounded above.
    ///
    /// `f` sees keys borrowed from the page and runs under the leaf
    /// frame's read lock, so it must not call back into the pool.
    pub fn scan_range<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        lo: &[u8],
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], u64),
    ) -> Result<()> {
        // The walk starts by visiting again the leaf the descent ended
        // on, so a scan's page count is the tree's height plus the
        // leaves it reads.
        let mut page = self.descend_to_leaf(pool, lo, |leaf_page, _| leaf_page)?;
        loop {
            let next = pool.with_page(page, |buf| {
                let node = NodeView::parse(buf)?;
                if !node.leaf {
                    return Err(StorageError::Corrupt("leaf chain hit internal node"));
                }
                let (Ok(from) | Err(from)) = node.search(lo);
                for i in from..node.count {
                    let k = node.key(i);
                    if hi.is_some_and(|hi| k >= hi) {
                        return Ok(None);
                    }
                    f(k, node.value(i));
                }
                Ok(node.next())
            })??;
            match next {
                Some(n) => page = n,
                None => return Ok(()),
            }
        }
    }

    /// Collect a range into a vector (convenience over [`Self::scan_range`]).
    pub fn range_vec<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        lo: &[u8],
        hi: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        self.scan_range(pool, lo, hi, |k, v| out.push((k.to_vec(), v)))?;
        Ok(out)
    }
}

fn descend(entries: &[(Vec<u8>, PageId)], child0: PageId, key: &[u8]) -> PageId {
    match child_slot(entries.binary_search_by(|(k, _)| k.as_slice().cmp(key))) {
        Some(i) => entries[i].1,
        None => child0,
    }
}

/// Which internal entry's child covers a searched key: the last entry
/// whose key is `<= key`, or `None` for `child0`.
fn child_slot(found: std::result::Result<usize, usize>) -> Option<usize> {
    match found {
        Ok(i) => Some(i),
        Err(i) => i.checked_sub(1),
    }
}

fn read_node<D: DiskManager>(pool: &BufferPool<D>, page: PageId) -> Result<Node> {
    pool.with_page(page, Node::decode)?
}

fn write_node<D: DiskManager>(pool: &BufferPool<D>, page: PageId, node: &Node) -> Result<()> {
    debug_assert!(
        node.serialized_size() <= PAGE_BODY,
        "node overflows page: {}",
        node.serialized_size()
    );
    pool.with_page_mut(page, |buf| node.encode(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::disk::MemDisk;

    fn pool() -> BufferPool<MemDisk> {
        BufferPool::new(MemDisk::new(), 64 * PAGE_SIZE)
    }

    #[test]
    fn insert_get_small() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        assert_eq!(t.insert(&p, b"b", 2).unwrap(), None);
        assert_eq!(t.insert(&p, b"a", 1).unwrap(), None);
        assert_eq!(t.insert(&p, b"c", 3).unwrap(), None);
        assert_eq!(t.get(&p, b"a").unwrap(), Some(1));
        assert_eq!(t.get(&p, b"b").unwrap(), Some(2));
        assert_eq!(t.get(&p, b"c").unwrap(), Some(3));
        assert_eq!(t.get(&p, b"d").unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn overwrite_returns_old() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        t.insert(&p, b"k", 1).unwrap();
        assert_eq!(t.insert(&p, b"k", 2).unwrap(), Some(1));
        assert_eq!(t.get(&p, b"k").unwrap(), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_force_splits() {
        let p = BufferPool::new(MemDisk::new(), 256 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        let n = 20_000u32;
        for i in 0..n {
            // Interleaved order to exercise both split directions.
            let k = i.wrapping_mul(2654435761) ^ i;
            t.insert(&p, &k.to_be_bytes(), u64::from(i)).unwrap();
        }
        assert!(t.page_count() > 10, "splits happened: {}", t.page_count());
        for i in 0..n {
            let k = i.wrapping_mul(2654435761) ^ i;
            assert_eq!(t.get(&p, &k.to_be_bytes()).unwrap(), Some(u64::from(i)));
        }
    }

    #[test]
    fn range_scan_in_order() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in (0..100u32).rev() {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        let got = t
            .range_vec(&p, &10u32.to_be_bytes(), Some(&20u32.to_be_bytes()))
            .unwrap();
        let vals: Vec<u64> = got.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn full_scan_is_sorted_after_splits() {
        let p = BufferPool::new(MemDisk::new(), 256 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        let mut keys: Vec<u32> = (0..5000).map(|i| i * 7 % 5000).collect();
        keys.dedup();
        for &k in &keys {
            t.insert(&p, &k.to_be_bytes(), u64::from(k)).unwrap();
        }
        let got = t.range_vec(&p, &[], None).unwrap();
        let mut prev: Option<Vec<u8>> = None;
        for (k, _) in &got {
            if let Some(pk) = &prev {
                assert!(pk < k, "scan out of order");
            }
            prev = Some(k.clone());
        }
        assert_eq!(got.len() as u64, t.len());
    }

    #[test]
    fn delete_removes_key() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in 0..100u32 {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        assert_eq!(t.delete(&p, &50u32.to_be_bytes()).unwrap(), Some(50));
        assert_eq!(t.delete(&p, &50u32.to_be_bytes()).unwrap(), None);
        assert_eq!(t.get(&p, &50u32.to_be_bytes()).unwrap(), None);
        assert_eq!(t.len(), 99);
        // Neighbours untouched.
        assert_eq!(t.get(&p, &49u32.to_be_bytes()).unwrap(), Some(49));
        assert_eq!(t.get(&p, &51u32.to_be_bytes()).unwrap(), Some(51));
    }

    #[test]
    fn variable_length_keys() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        let keys = ["a", "ab", "abc", "b", "ba", "z", ""];
        for (i, k) in keys.iter().enumerate() {
            t.insert(&p, k.as_bytes(), i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(&p, k.as_bytes()).unwrap(), Some(i as u64));
        }
        // Lexicographic scan order.
        let got = t.range_vec(&p, &[], None).unwrap();
        let strs: Vec<String> = got
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(strs, ["", "a", "ab", "abc", "b", "ba", "z"]);
    }

    #[test]
    fn long_keys_split_correctly() {
        let p = BufferPool::new(MemDisk::new(), 128 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        for i in 0..500u32 {
            let key = format!("{:0>200}", i); // 200-byte keys
            t.insert(&p, key.as_bytes(), u64::from(i)).unwrap();
        }
        for i in 0..500u32 {
            let key = format!("{:0>200}", i);
            assert_eq!(t.get(&p, key.as_bytes()).unwrap(), Some(u64::from(i)));
        }
    }

    #[test]
    fn scan_after_deletes_skips_them() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in 0..50u32 {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        for i in (0..50u32).step_by(2) {
            t.delete(&p, &i.to_be_bytes()).unwrap();
        }
        let got = t.range_vec(&p, &[], None).unwrap();
        assert_eq!(got.len(), 25);
        assert!(got.iter().all(|(_, v)| v % 2 == 1));
    }

    /// Levels from the root to the leaves.
    fn height(t: &BTree, p: &BufferPool<MemDisk>) -> usize {
        let mut page = t.root;
        let mut levels = 1;
        while let Node::Internal { child0, .. } = read_node(p, page).unwrap() {
            page = child0;
            levels += 1;
        }
        levels
    }

    /// splitmix64: a tiny seeded generator for the property test.
    fn next_rand(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn reads_match_a_btreemap_on_deep_trees() {
        for seed in 1..=4u64 {
            let mut rng = seed;
            let p = BufferPool::new(MemDisk::new(), 512 * PAGE_SIZE);
            let mut t = BTree::create(&p).unwrap();
            let mut model = std::collections::BTreeMap::new();
            // Mixed lengths, empty key included; long keys keep the
            // fan-out low so the tree grows past two levels.
            let key_of = |rng: &mut u64| -> Vec<u8> {
                let len = match next_rand(rng) % 8 {
                    0 => 0,
                    1..=4 => 1 + next_rand(rng) % 4,
                    _ => 100 + next_rand(rng) % 200,
                } as usize;
                (0..len)
                    .map(|_| (next_rand(rng) % 4) as u8 + b'a')
                    .collect()
            };
            for _ in 0..6000 {
                let k = key_of(&mut rng);
                let v = next_rand(&mut rng);
                assert_eq!(t.insert(&p, &k, v).unwrap(), model.insert(k, v));
            }
            for _ in 0..1500 {
                let k = key_of(&mut rng);
                assert_eq!(t.delete(&p, &k).unwrap(), model.remove(&k));
            }
            let levels = height(&t, &p);
            assert!(levels >= 3, "seed {seed}: height {levels}");
            assert_eq!(t.len(), model.len() as u64);
            // Point lookups: present keys and (mostly) absent probes.
            for k in model.keys() {
                assert_eq!(t.get(&p, k).unwrap(), model.get(k).copied());
            }
            for _ in 0..500 {
                let k = key_of(&mut rng);
                let want = model.get(&k).copied();
                assert_eq!(t.get(&p, &k).unwrap(), want, "seed {seed}");
            }
            // Range bounds on keys, between keys, and outside the range.
            let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
            let mut bounds: Vec<Vec<u8>> = vec![vec![], vec![0], vec![0xFF; 400]];
            for _ in 0..20 {
                bounds.push(keys[(next_rand(&mut rng) % keys.len() as u64) as usize].clone());
                let mut between = keys[(next_rand(&mut rng) % keys.len() as u64) as usize].clone();
                between.push(0);
                bounds.push(between);
            }
            for lo in &bounds {
                for hi in bounds.iter().map(Some).chain([None]) {
                    let got = t.range_vec(&p, lo, hi.map(Vec::as_slice)).unwrap();
                    let want: Vec<(Vec<u8>, u64)> = model
                        .iter()
                        .filter(|(k, _)| *k >= lo && hi.is_none_or(|hi| *k < hi))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    assert_eq!(got, want, "seed {seed} lo={lo:?} hi={hi:?}");
                }
            }
        }
    }

    /// A two-level tree: an internal root over several leaves.
    fn two_level() -> (BufferPool<MemDisk>, BTree) {
        let p = BufferPool::new(MemDisk::new(), 64 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        for i in 0..2000u32 {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        assert_eq!(height(&t, &p), 2);
        (p, t)
    }

    fn assert_corrupt<T: std::fmt::Debug>(r: Result<T>, what: &str) {
        assert!(matches!(r, Err(StorageError::Corrupt(_))), "{what}: {r:?}");
    }

    #[test]
    fn count_overrunning_the_page_is_corrupt() {
        for corrupt_root in [true, false] {
            // Past any page (caught before the walk), and as many as a
            // page of empty keys could hold (caught by the walk).
            for count in [u16::MAX, MAX_ENTRIES as u16] {
                let (p, t) = two_level();
                let page = if corrupt_root {
                    t.root
                } else {
                    t.descend_to_leaf(&p, &[], |leaf, _| leaf).unwrap()
                };
                p.with_page_mut(page, |buf| buf[1..3].copy_from_slice(&count.to_le_bytes()))
                    .unwrap();
                assert_corrupt(t.get(&p, &0u32.to_be_bytes()), "get");
                assert_corrupt(t.range_vec(&p, &[], None), "scan_range");
            }
        }
    }

    #[test]
    fn key_length_running_past_the_end_is_corrupt() {
        let (p, t) = two_level();
        let leaf = t.descend_to_leaf(&p, &[], |leaf, _| leaf).unwrap();
        // The leaf's first entry starts right after the header.
        p.with_page_mut(leaf, |buf| {
            buf[NODE_HEADER..NODE_HEADER + 2].copy_from_slice(&u16::MAX.to_le_bytes())
        })
        .unwrap();
        assert_corrupt(t.get(&p, &0u32.to_be_bytes()), "get");
        assert_corrupt(t.range_vec(&p, &[], None), "scan_range");
        // A one-byte overrun is caught as well.
        let (p, t) = two_level();
        p.with_page_mut(t.root, |buf| {
            let view = NodeView::parse(buf).unwrap();
            let at = view.starts[view.count - 1] as usize;
            // Lengthen the root's last key so its 4-byte child pointer
            // ends one byte past the page body.
            let klen = (buf.len() - at - 2 - 4 + 1) as u16;
            buf[at..at + 2].copy_from_slice(&klen.to_le_bytes());
        })
        .unwrap();
        assert_corrupt(t.get(&p, &0u32.to_be_bytes()), "get");
        assert_corrupt(t.range_vec(&p, &[], None), "scan_range");
    }

    #[test]
    fn leaf_chain_reaching_an_internal_node_is_corrupt() {
        let (p, t) = two_level();
        let first = t.descend_to_leaf(&p, &[], |leaf, _| leaf).unwrap();
        // Point the first leaf's `next` at the internal root.
        let next = (t.root.0 + 1).to_le_bytes();
        p.with_page_mut(first, |buf| buf[3..7].copy_from_slice(&next))
            .unwrap();
        assert_corrupt(t.range_vec(&p, &[], None), "scan_range");
        // A point lookup never follows the chain, so it still answers.
        assert_eq!(t.get(&p, &5u32.to_be_bytes()).unwrap(), Some(5));
    }
}
