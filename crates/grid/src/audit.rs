//! A runtime region-overlap auditor — a lightweight race detector.
//!
//! The safety of the pipelined executors rests on a geometric claim:
//! *regions concurrently claimed by different threads never pair a write
//! with an overlapping read or write*. The auditor verifies exactly that
//! claim at runtime. Executors register every region before touching it and
//! release it afterwards; the auditor asserts on conflict, printing both
//! regions and their owners.
//!
//! The auditor serializes claims through a mutex, so it destroys
//! performance; it is compiled in always but only *used* by executors when
//! `cfg(debug_assertions)` holds or when tests enable it explicitly.

use std::sync::{Mutex, MutexGuard};

use crate::Region3;

/// `claim` panics on a detected race *while holding* `active`, and the
/// other workers keep claiming and releasing while the panic unwinds; a
/// panicking holder releases the lock and the claim list is taken as is
/// (same policy as `tb_sync::lock`, spelled here because tb-grid has no
/// tb-* dependency).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Kind of access a thread claims over a region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    Read,
    Write,
}

#[derive(Clone, Debug)]
struct Claim {
    owner: usize,
    grid_id: usize,
    kind: AccessKind,
    region: Region3,
    token: u64,
}

/// Shared overlap checker. Cloneable handle semantics are provided by
/// wrapping in `Arc` at the call site.
#[derive(Default, Debug)]
pub struct RegionAuditor {
    active: Mutex<Vec<Claim>>,
    counter: Mutex<u64>,
}

impl RegionAuditor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim `region` of grid `grid_id` for `kind` access by `owner`.
    ///
    /// # Panics
    /// Panics if the claim conflicts with an active claim from a different
    /// owner (write/write or read/write overlap on the same grid).
    pub fn claim(&self, owner: usize, grid_id: usize, kind: AccessKind, region: Region3) -> u64 {
        let token = {
            let mut c = lock(&self.counter);
            *c += 1;
            *c
        };
        let mut active = lock(&self.active);
        for existing in active.iter() {
            if existing.owner == owner || existing.grid_id != grid_id {
                continue;
            }
            let conflicting = matches!(
                (existing.kind, kind),
                (AccessKind::Write, _) | (_, AccessKind::Write)
            );
            if conflicting && existing.region.intersects(&region) {
                panic!(
                    "region race detected on grid {grid_id}: \
                     thread {owner} claims {kind:?} {region}, \
                     thread {} holds {:?} {}",
                    existing.owner, existing.kind, existing.region
                );
            }
        }
        active.push(Claim {
            owner,
            grid_id,
            kind,
            region,
            token,
        });
        token
    }

    /// Release a claim previously returned by [`Self::claim`].
    pub fn release(&self, token: u64) {
        let mut active = lock(&self.active);
        if let Some(pos) = active.iter().position(|c| c.token == token) {
            active.swap_remove(pos);
        }
    }

    /// Number of currently active claims (test helper).
    pub fn active_claims(&self) -> usize {
        lock(&self.active).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [usize; 3], hi: [usize; 3]) -> Region3 {
        Region3::new(lo, hi)
    }

    #[test]
    fn disjoint_writes_pass() {
        let a = RegionAuditor::new();
        let t1 = a.claim(0, 0, AccessKind::Write, r([0, 0, 0], [4, 4, 4]));
        let t2 = a.claim(1, 0, AccessKind::Write, r([4, 0, 0], [8, 4, 4]));
        a.release(t1);
        a.release(t2);
        assert_eq!(a.active_claims(), 0);
    }

    #[test]
    fn overlapping_reads_pass() {
        let a = RegionAuditor::new();
        let _ = a.claim(0, 0, AccessKind::Read, r([0, 0, 0], [4, 4, 4]));
        let _ = a.claim(1, 0, AccessKind::Read, r([2, 2, 2], [6, 6, 6]));
    }

    #[test]
    #[should_panic(expected = "region race detected")]
    fn overlapping_write_write_panics() {
        let a = RegionAuditor::new();
        let _ = a.claim(0, 0, AccessKind::Write, r([0, 0, 0], [4, 4, 4]));
        let _ = a.claim(1, 0, AccessKind::Write, r([3, 3, 3], [5, 5, 5]));
    }

    #[test]
    #[should_panic(expected = "region race detected")]
    fn overlapping_read_write_panics() {
        let a = RegionAuditor::new();
        let _ = a.claim(0, 0, AccessKind::Read, r([0, 0, 0], [4, 4, 4]));
        let _ = a.claim(1, 0, AccessKind::Write, r([0, 0, 3], [4, 4, 5]));
    }

    #[test]
    fn different_grids_never_conflict() {
        let a = RegionAuditor::new();
        let _ = a.claim(0, 0, AccessKind::Write, r([0, 0, 0], [4, 4, 4]));
        let _ = a.claim(1, 1, AccessKind::Write, r([0, 0, 0], [4, 4, 4]));
    }

    #[test]
    fn same_owner_may_overlap_itself() {
        // A thread reading the neighborhood of the region it writes is the
        // normal stencil pattern; self-overlap must be allowed.
        let a = RegionAuditor::new();
        let _ = a.claim(0, 0, AccessKind::Write, r([1, 1, 1], [4, 4, 4]));
        let _ = a.claim(0, 0, AccessKind::Read, r([0, 0, 0], [5, 5, 5]));
    }

    #[test]
    fn release_unblocks_region() {
        let a = RegionAuditor::new();
        let t = a.claim(0, 0, AccessKind::Write, r([0, 0, 0], [4, 4, 4]));
        a.release(t);
        // Now the same region can be claimed by another owner.
        let _ = a.claim(1, 0, AccessKind::Write, r([0, 0, 0], [4, 4, 4]));
    }
}
