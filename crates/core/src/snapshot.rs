//! Epoch-versioned read snapshots of the coordinator's [`InfoDatabase`].
//!
//! The serving plane answers queries from worker threads that must never
//! take the coordinator's lock: a slow `/path` query must not delay the
//! epoch boundary, and an epoch handover must not stall readers. The
//! [`SnapshotStore`] provides that seam. At each pipeline handover the
//! coordinator publishes an immutable [`EpochSnapshot`] — the database
//! (state + path matrix) as of one epoch — behind an `Arc`. Readers hold a
//! [`SnapshotReader`] that caches the `Arc` and refreshes it only when the
//! store's epoch counter (a single atomic) has advanced, so the steady-state
//! read path is one relaxed atomic load and no lock.
//!
//! The store recycles retired snapshots: when the previous epoch's `Arc` has
//! no readers left, its buffers are reused for the next publish via
//! `clone_from` — after warm-up, publishing allocates nothing.

use crate::database::InfoDatabase;
use celestial_types::ids::TenantId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An immutable view of the testbed as of one epoch.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// The epoch this snapshot was taken at (the coordinator's update count;
    /// `0` means "before the first update").
    pub epoch: u64,
    /// The information database as of `epoch`, including the path matrix.
    pub database: InfoDatabase,
}

impl EpochSnapshot {
    /// Resolves a tenant name to a [`TenantView`] of this snapshot.
    ///
    /// The empty name selects tenant 0 — the only tenant of a solo testbed —
    /// so pre-tenancy clients that send no tenant header keep working
    /// unchanged. An unknown name returns `None` (the serving plane maps it
    /// to HTTP 404). The view is an `Arc` clone plus an id: every tenant of
    /// a fleet reads the same snapshot core (see `docs/TENANTS.md`).
    pub fn tenant_view(self: &Arc<Self>, name: &str) -> Option<TenantView> {
        let tenant = if name.is_empty() {
            TenantId(0)
        } else {
            TenantId(self.database.tenant_index(name)? as u32)
        };
        Some(TenantView {
            tenant,
            snapshot: Arc::clone(self),
        })
    }
}

/// A tenant-scoped handle on a shared [`EpochSnapshot`].
///
/// Fleets share one snapshot per epoch; a view pins the tenant a request is
/// answered for without copying any of the epoch's data. Obtained from
/// [`EpochSnapshot::tenant_view`].
#[derive(Debug, Clone)]
pub struct TenantView {
    /// The tenant this view answers for.
    pub tenant: TenantId,
    /// The shared epoch snapshot (one `Arc` per epoch, shared by all
    /// tenants).
    pub snapshot: Arc<EpochSnapshot>,
}

/// The publish side: owned by whoever drives the coordinator.
///
/// Cheap to share (`Arc<SnapshotStore>`); see the module documentation for
/// the concurrency contract.
#[derive(Debug)]
pub struct SnapshotStore {
    /// The epoch of the currently published snapshot. Readers poll this to
    /// decide whether their cached `Arc` is stale.
    epoch: AtomicU64,
    current: Mutex<Arc<EpochSnapshot>>,
    /// Retired snapshots whose `Arc` became unique again, kept for reuse.
    spare: Mutex<Vec<Arc<EpochSnapshot>>>,
    published: AtomicU64,
    recycled: AtomicU64,
}

impl SnapshotStore {
    /// Creates a store whose initial snapshot is `database` at epoch 0.
    pub fn new(database: InfoDatabase) -> Self {
        SnapshotStore {
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(EpochSnapshot { epoch: 0, database })),
            spare: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        }
    }

    /// Publishes `database` as the snapshot for `epoch`, replacing the
    /// current one. Readers observe the switch atomically: they either keep
    /// answering from the old snapshot (which stays alive through their
    /// cached `Arc`) or pick up the new one; never a mix.
    ///
    /// Runs on the coordinator's thread at the epoch boundary. The cost is
    /// one `clone_from` of the database into a spare (or, before the pool
    /// warms up, one clone) plus two short mutex sections no reader ever
    /// contends in steady state.
    pub fn publish(&self, epoch: u64, database: &InfoDatabase) {
        let fresh = match self.take_spare() {
            Some(mut spare) => {
                let inner = Arc::get_mut(&mut spare)
                    .expect("spare snapshots are only pooled while unique");
                inner.epoch = epoch;
                inner.database.clone_from(database);
                self.recycled.fetch_add(1, Ordering::Relaxed);
                spare
            }
            None => Arc::new(EpochSnapshot {
                epoch,
                database: database.clone(),
            }),
        };
        let retired = {
            let mut current = self.current.lock().expect("snapshot store lock poisoned");
            std::mem::replace(&mut *current, fresh)
        };
        // Publish the epoch only after the snapshot is switched, so a reader
        // that sees the new epoch is guaranteed to load the new snapshot.
        self.epoch.store(epoch, Ordering::Release);
        self.published.fetch_add(1, Ordering::Relaxed);
        self.offer_spare(retired);
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The currently published snapshot. Readers on hot paths should prefer
    /// a [`SnapshotReader`], which skips the lock while the epoch is
    /// unchanged.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot store lock poisoned"))
    }

    /// Creates a per-thread reader handle caching the current snapshot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            store: Arc::clone(self),
            cached: self.load(),
        }
    }

    /// (published, recycled) publish counters — recycled counts the
    /// publishes that reused a retired snapshot's buffers.
    pub fn publish_stats(&self) -> (u64, u64) {
        (
            self.published.load(Ordering::Relaxed),
            self.recycled.load(Ordering::Relaxed),
        )
    }

    fn take_spare(&self) -> Option<Arc<EpochSnapshot>> {
        self.spare.lock().expect("snapshot spare lock poisoned").pop()
    }

    /// Pools `retired` for reuse if no reader still holds it; drops it
    /// otherwise (the last reader's drop frees it).
    fn offer_spare(&self, retired: Arc<EpochSnapshot>) {
        if Arc::strong_count(&retired) == 1 {
            let mut spare = self.spare.lock().expect("snapshot spare lock poisoned");
            // Two spares cover the publish/retire rhythm even with a
            // straggling reader; more would be dead weight.
            if spare.len() < 2 {
                spare.push(retired);
            }
        }
    }
}

/// A per-thread read handle over a [`SnapshotStore`].
///
/// [`SnapshotReader::current`] is the hot path: a relaxed epoch check
/// against the cached snapshot, touching the store's lock only when a new
/// epoch has been published since the last call.
#[derive(Debug)]
pub struct SnapshotReader {
    store: Arc<SnapshotStore>,
    cached: Arc<EpochSnapshot>,
}

impl SnapshotReader {
    /// The current snapshot, refreshing the cache only on epoch change.
    pub fn current(&mut self) -> &EpochSnapshot {
        let published = self.store.epoch.load(Ordering::Acquire);
        if published != self.cached.epoch {
            self.cached = self.store.load();
        }
        &self.cached
    }

    /// The store this reader came from.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
    use celestial_sgp4::WalkerShell;
    use celestial_types::geo::Geodetic;
    use celestial_types::time::SimDuration;

    fn coordinator() -> crate::Coordinator {
        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 6, 8)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        crate::Coordinator::new(constellation, SimDuration::from_secs(2))
    }

    #[test]
    fn readers_see_published_epochs_in_order() {
        let mut c = coordinator();
        let store = Arc::new(SnapshotStore::new(c.database().clone()));
        let mut reader = store.reader();
        assert_eq!(reader.current().epoch, 0);

        c.update(0.0).unwrap();
        store.publish(c.update_count(), c.database());
        assert_eq!(store.epoch(), 1);
        assert_eq!(reader.current().epoch, 1);
        assert!(reader.current().database.state().is_some());

        c.update(2.0).unwrap();
        store.publish(c.update_count(), c.database());
        assert_eq!(reader.current().epoch, 2);
    }

    #[test]
    fn a_held_snapshot_outlives_newer_publishes() {
        let mut c = coordinator();
        let store = Arc::new(SnapshotStore::new(c.database().clone()));
        c.update(0.0).unwrap();
        store.publish(1, c.database());
        let held = store.load();
        let held_time = held.database.state().unwrap().time_seconds;

        c.update(2.0).unwrap();
        store.publish(2, c.database());
        c.update(4.0).unwrap();
        store.publish(3, c.database());

        // The held epoch-1 snapshot is untouched by later publishes.
        assert_eq!(held.epoch, 1);
        assert_eq!(held.database.state().unwrap().time_seconds, held_time);
        assert_eq!(store.load().epoch, 3);
    }

    #[test]
    fn publishes_recycle_retired_snapshots() {
        let mut c = coordinator();
        let store = Arc::new(SnapshotStore::new(c.database().clone()));
        for i in 0..5u64 {
            c.update(i as f64 * 2.0).unwrap();
            store.publish(i + 1, c.database());
        }
        let (published, recycled) = store.publish_stats();
        assert_eq!(published, 5);
        // The first publish retires the epoch-0 snapshot into the pool; from
        // the second on, every publish reuses a spare.
        assert!(recycled >= published - 1, "recycled {recycled} of {published}");
    }

    #[test]
    fn tenant_views_share_one_snapshot_core() {
        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 6, 8)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        let mut c = crate::Coordinator::with_scoped_fanout(
            constellation,
            SimDuration::from_secs(2),
            crate::PipelineMode::Synchronous,
            None,
            vec!["alpha".to_owned(), "beta".to_owned()],
            celestial_constellation::ScopeParams::default(),
        );
        let store = Arc::new(SnapshotStore::new(c.database().clone()));
        c.update(0.0).unwrap();
        store.publish(c.update_count(), c.database());

        let snapshot = store.load();
        let alpha = snapshot.tenant_view("alpha").expect("alpha exists");
        let beta = snapshot.tenant_view("beta").expect("beta exists");
        assert_eq!(alpha.tenant, celestial_types::ids::TenantId(0));
        assert_eq!(beta.tenant, celestial_types::ids::TenantId(1));
        // Views are Arc clones of the SAME epoch core, not copies.
        assert!(Arc::ptr_eq(&alpha.snapshot, &beta.snapshot));
        // The empty name is the solo default; unknown names resolve to None.
        assert_eq!(snapshot.tenant_view("").unwrap().tenant.index(), 0);
        assert!(snapshot.tenant_view("gamma").is_none());
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_epoch() {
        let mut c = coordinator();
        let store = Arc::new(SnapshotStore::new(c.database().clone()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let interval = 2.0f64;

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut reader = store.reader();
                    let mut checks = 0u64;
                    // The lower bound keeps the check meaningful even if this
                    // thread is only scheduled after the publisher finished.
                    while !stop.load(Ordering::Relaxed) || checks < 100 {
                        let snapshot = reader.current();
                        if snapshot.epoch > 0 {
                            // Epoch e is taken at t = (e-1) * interval; a torn
                            // snapshot (epoch from one publish, state from
                            // another) would break this equality.
                            let t = snapshot.database.state().unwrap().time_seconds;
                            assert_eq!(t, (snapshot.epoch - 1) as f64 * interval);
                        }
                        checks += 1;
                    }
                    checks
                })
            })
            .collect();

        for i in 0..30u64 {
            c.update(i as f64 * interval).unwrap();
            store.publish(c.update_count(), c.database());
        }
        stop.store(true, Ordering::Relaxed);
        for handle in readers {
            let checks = handle.join().expect("reader thread panicked");
            assert!(checks > 0);
        }
    }
}
