//! Heap files: unordered variable-length records over slotted pages.

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::page::{PageId, SlottedPage, SlottedRead, MAX_RECORD};
use crate::Result;
use mct_obs::Counter;
use std::fmt;
use std::sync::OnceLock;

/// Global-registry handles for heap access methods
/// (`storage.heap.*`), shared by every heap file in the process.
struct HeapCounters {
    inserts: Counter,
    reads: Counter,
    updates: Counter,
    deletes: Counter,
    scans: Counter,
}

fn heap_counters() -> &'static HeapCounters {
    static C: OnceLock<HeapCounters> = OnceLock::new();
    C.get_or_init(|| HeapCounters {
        inserts: mct_obs::counter("storage.heap.inserts"),
        reads: mct_obs::counter("storage.heap.reads"),
        updates: mct_obs::counter("storage.heap.updates"),
        deletes: mct_obs::counter("storage.heap.deletes"),
        scans: mct_obs::counter("storage.heap.scans"),
    })
}

/// Stable address of a record: page + slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl fmt::Debug for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}:{}", self.page.0, self.slot)
    }
}

/// A heap file: a growable set of pages owned by this file, with a
/// simple free-space hint (fill the last page, else allocate). Pages
/// are tracked by id; several heap files can share one buffer pool.
pub struct HeapFile {
    pages: Vec<PageId>,
    records: u64,
    bytes: u64,
}

impl Default for HeapFile {
    fn default() -> Self {
        Self::new()
    }
}

impl HeapFile {
    /// Create an empty heap file (no pages yet).
    pub fn new() -> Self {
        HeapFile {
            pages: Vec::new(),
            records: 0,
            bytes: 0,
        }
    }

    /// Number of live records.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Total payload bytes of live records.
    pub fn payload_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of pages owned by this file.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The pages owned by this file, in insertion order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Decompose into raw parts `(pages, records, bytes)` for a
    /// durable catalog.
    pub fn parts(&self) -> (Vec<PageId>, u64, u64) {
        (self.pages.clone(), self.records, self.bytes)
    }

    /// Reassemble a heap file from [`HeapFile::parts`] output against
    /// the same disk file.
    pub fn from_parts(pages: Vec<PageId>, records: u64, bytes: u64) -> HeapFile {
        HeapFile { pages, records, bytes }
    }

    /// Insert a record; returns its stable id.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        data: &[u8],
    ) -> Result<RecordId> {
        if data.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: data.len(),
                max: MAX_RECORD,
            });
        }
        heap_counters().inserts.inc();
        // Try the last page first. The fit check is a read-only pass:
        // taking `with_page_mut` for it would dirty (and WAL-log) the
        // full page even when the record spills to a fresh one. Inserts
        // hold `&mut self`, so the check cannot race another insert
        // into this file.
        if let Some(&last) = self.pages.last() {
            let fits = pool.with_page(last, |buf| SlottedRead::new(buf).fits(data.len()))?;
            if fits {
                let slot =
                    pool.with_page_mut(last, |buf| SlottedPage::new(buf).insert(data))??;
                self.records += 1;
                self.bytes += data.len() as u64;
                return Ok(RecordId { page: last, slot });
            }
        }
        let page = pool.allocate()?;
        self.pages.push(page);
        let slot = pool.with_page_mut(page, |buf| {
            let mut p = SlottedPage::format(buf);
            p.insert(data)
        })??;
        self.records += 1;
        self.bytes += data.len() as u64;
        Ok(RecordId { page, slot })
    }

    /// Read a record into an owned buffer.
    pub fn get<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        id: RecordId,
    ) -> Result<Vec<u8>> {
        self.with_record(pool, id, <[u8]>::to_vec)
    }

    /// Run `f` over a record in place, under its page's read lock (so
    /// `f` must not call back into the pool). Errors with
    /// [`StorageError::RecordNotFound`] for a missing or deleted slot.
    pub fn with_record<D: DiskManager, R>(
        &self,
        pool: &BufferPool<D>,
        id: RecordId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        heap_counters().reads.inc();
        pool.with_page(id.page, |buf| SlottedRead::new(buf).get(id.slot).map(f))?
            .ok_or(StorageError::RecordNotFound {
                page: id.page.0,
                slot: id.slot,
            })
    }

    /// Overwrite a record. Prefers in-place update; if the page cannot
    /// hold the larger record, the record moves to another page and
    /// the **new id** is returned (callers keeping record ids must
    /// store it).
    pub fn update<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        id: RecordId,
        data: &[u8],
    ) -> Result<RecordId> {
        heap_counters().updates.inc();
        let in_place = pool.with_page_mut(id.page, |buf| {
            let mut p = SlottedPage::new(buf);
            let old = p.get(id.slot).map(|d| d.len());
            match old {
                Some(len) => match p.update(id.slot, data) {
                    Ok(()) => Ok(Some(len)),
                    Err(StorageError::RecordTooLarge { .. }) => Ok(None),
                    Err(e) => Err(e),
                },
                None => Err(StorageError::RecordNotFound {
                    page: id.page.0,
                    slot: id.slot,
                }),
            }
        })??;
        if let Some(old_len) = in_place {
            self.bytes = self.bytes - old_len as u64 + data.len() as u64;
            return Ok(id);
        }
        // Relocate: delete the old record, insert the new one elsewhere.
        self.delete(pool, id)?;
        self.insert(pool, data)
    }

    /// Delete a record. Returns whether it was live.
    pub fn delete<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        id: RecordId,
    ) -> Result<bool> {
        heap_counters().deletes.inc();
        let freed = pool.with_page_mut(id.page, |buf| {
            let mut p = SlottedPage::new(buf);
            let len = p.get(id.slot).map(|d| d.len());
            if p.delete(id.slot) {
                len
            } else {
                None
            }
        })?;
        if let Some(len) = freed {
            self.records -= 1;
            self.bytes -= len as u64;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Scan all live records in (page, slot) order, invoking `f`.
    pub fn scan<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        mut f: impl FnMut(RecordId, &[u8]),
    ) -> Result<()> {
        heap_counters().scans.inc();
        for &page in &self.pages {
            pool.with_page(page, |buf| {
                for (slot, data) in SlottedRead::new(buf).iter() {
                    f(RecordId { page, slot }, data);
                }
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::page::PAGE_SIZE;

    fn pool() -> BufferPool<MemDisk> {
        BufferPool::new(MemDisk::new(), 64 * PAGE_SIZE)
    }

    #[test]
    fn insert_get_roundtrip() {
        let p = pool();
        let mut h = HeapFile::new();
        let id = h.insert(&p, b"record one").unwrap();
        assert_eq!(h.get(&p, id).unwrap(), b"record one");
        assert_eq!(h.record_count(), 1);
    }

    #[test]
    fn with_record_reads_in_place_and_reports_missing_slots() {
        let p = pool();
        let mut h = HeapFile::new();
        let id = h.insert(&p, b"abcdefghij").unwrap();
        assert_eq!(h.with_record(&p, id, |r| r[..3].to_vec()).unwrap(), b"abc");
        let missing = RecordId {
            page: id.page,
            slot: id.slot + 1,
        };
        assert!(matches!(
            h.with_record(&p, missing, |r| r.len()),
            Err(StorageError::RecordNotFound { page, slot }) if page == id.page.0 && slot == id.slot + 1
        ));
        h.delete(&p, id).unwrap();
        assert!(matches!(
            h.with_record(&p, id, |r| r.len()),
            Err(StorageError::RecordNotFound { .. })
        ));
    }

    #[test]
    fn records_spill_to_new_pages() {
        let p = pool();
        let mut h = HeapFile::new();
        let big = vec![1u8; 3000];
        let ids: Vec<RecordId> = (0..10).map(|_| h.insert(&p, &big).unwrap()).collect();
        assert!(h.page_count() > 1, "3000-byte records overflow one page");
        for id in ids {
            assert_eq!(h.get(&p, id).unwrap().len(), 3000);
        }
    }

    #[test]
    fn update_and_delete() {
        let p = pool();
        let mut h = HeapFile::new();
        let id = h.insert(&p, b"before").unwrap();
        h.update(&p, id, b"after-longer-value").unwrap();
        assert_eq!(h.get(&p, id).unwrap(), b"after-longer-value");
        assert!(h.delete(&p, id).unwrap());
        assert!(!h.delete(&p, id).unwrap());
        assert!(h.get(&p, id).is_err());
        assert_eq!(h.record_count(), 0);
    }

    #[test]
    fn scan_visits_all_live_records() {
        let p = pool();
        let mut h = HeapFile::new();
        let a = h.insert(&p, b"a").unwrap();
        let _b = h.insert(&p, b"b").unwrap();
        let _c = h.insert(&p, b"c").unwrap();
        h.delete(&p, a).unwrap();
        let mut seen = Vec::new();
        h.scan(&p, |_, d| seen.push(d.to_vec())).unwrap();
        assert_eq!(seen, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn payload_accounting() {
        let p = pool();
        let mut h = HeapFile::new();
        let id = h.insert(&p, &[0u8; 100]).unwrap();
        h.insert(&p, &[0u8; 50]).unwrap();
        assert_eq!(h.payload_bytes(), 150);
        h.update(&p, id, &[0u8; 20]).unwrap();
        assert_eq!(h.payload_bytes(), 70);
        h.delete(&p, id).unwrap();
        assert_eq!(h.payload_bytes(), 50);
    }

    #[test]
    fn spilled_insert_does_not_dirty_the_probed_page() {
        // Regression: the "does it fit?" probe of the last page must be
        // read-only — a spilling insert used to dirty (and WAL-queue)
        // the full page it merely inspected.
        use crate::wal::Wal;
        let mut p = pool();
        p.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        let mut h = HeapFile::new();
        h.insert(&p, &vec![1u8; 5000]).unwrap();
        p.commit(b"").unwrap();
        let mark = p.stats();
        // Does not fit page 0 → spills to a fresh page.
        h.insert(&p, &vec![2u8; 5000]).unwrap();
        assert_eq!(h.page_count(), 2);
        assert_eq!(
            p.dirty_since_commit_count(),
            1,
            "only the new page is queued for commit"
        );
        p.flush_all().unwrap();
        assert_eq!(
            (p.stats() - mark).writebacks,
            1,
            "the probed full page was not written back"
        );
    }

    #[test]
    fn survives_eviction_pressure() {
        // Pool smaller than data forces evictions mid-stream.
        let p = BufferPool::new(MemDisk::new(), 8 * PAGE_SIZE);
        let mut h = HeapFile::new();
        let ids: Vec<RecordId> = (0..2000u32)
            .map(|i| h.insert(&p, &i.to_le_bytes()).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let d = h.get(&p, *id).unwrap();
            assert_eq!(u32::from_le_bytes(d.try_into().unwrap()), i as u32);
        }
    }
}
