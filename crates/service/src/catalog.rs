//! The multi-database catalog: named databases behind epoch-versioned,
//! hot-swappable handles.
//!
//! The service used to pin one `Arc<Database>` for the process lifetime, so
//! one `tlc-serve` could serve exactly one document set and picking up a
//! regenerated store meant a restart. The catalog is the layer that removes
//! both limits: it owns a registry of **named databases**, each published
//! through a [`CatalogEntry`] that pairs the `Arc<Database>` with a
//! monotonically increasing **epoch**.
//!
//! **Publishing is arc-swap-style.** Every name maps to a slot whose current
//! entry sits behind a `Mutex<Arc<CatalogEntry>>`; readers lock only long
//! enough to clone the `Arc` (clone-on-read), writers lock only long enough
//! to store a new one. A swap ([`Catalog::register`] on an existing name,
//! [`Catalog::open`], [`Catalog::reload`]) therefore never blocks in-flight
//! requests: work that resolved the old entry keeps executing against the
//! old `Arc<Database>` until it finishes, while every resolve after the
//! swap sees the new database under the next epoch. The old store is freed
//! when its last in-flight reference drops.
//!
//! **Epochs are correctness, not bookkeeping.** Compiled plans bind the
//! [`xmldb::TagId`]s of the database they were compiled against, and two
//! loads of even the *same* XML may assign different ids. The epoch is what
//! lets the plan cache key on `(database, epoch, query)` so a plan compiled
//! before a swap can never be served after it — see
//! [`crate::cache::plan_key`] and the swap hook in [`crate::Service`].
//!
//! The catalog itself is engine-agnostic and does no caching; the service
//! layers the plan cache and metrics on top. `tlc-shell` reaches it only
//! through an in-process [`crate::Service`].

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use xmldb::Database;

/// Name under which [`crate::Service::new`] registers the database it is
/// constructed with; sessions start with this database selected.
pub const DEFAULT_DB: &str = "main";

/// Errors the catalog reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The database name is empty or contains non-printable/whitespace
    /// characters (names travel through the whitespace-split line protocol).
    InvalidName(String),
    /// No database is registered under this name.
    Unknown(String),
    /// The database was registered in-memory, so there is no file to
    /// reload it from.
    NoSource(String),
    /// Loading the source file failed (I/O, parse, or snapshot decode).
    Load {
        /// The database the load was for.
        name: String,
        /// The underlying loader error.
        message: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::InvalidName(n) => {
                write!(f, "invalid database name {n:?} (printable, no whitespace)")
            }
            CatalogError::Unknown(n) => write!(f, "unknown database {n:?}"),
            CatalogError::NoSource(n) => {
                write!(f, "database {n:?} was registered in-memory; nothing to reload")
            }
            CatalogError::Load { name, message } => write!(f, "loading {name:?}: {message}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One published snapshot of a named database: the immutable pairing of
/// `(name, epoch, Arc<Database>)`. Cloning is cheap; holding an entry pins
/// the store it points at across any number of later swaps.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    name: Arc<str>,
    epoch: u64,
    db: Arc<Database>,
}

impl CatalogEntry {
    /// The catalog name this entry was published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The publish generation: 0 at first registration, +1 per swap.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The database snapshot this entry pins.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The name as the shared allocation (cheap to clone into responses).
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }
}

/// One registry slot. The slot outlives every entry published into it:
/// `current` is the arc-swap cell, `source` remembers where the data came
/// from (for [`Catalog::reload`]), `swaps` counts publishes after the first.
struct Slot {
    current: Mutex<Arc<CatalogEntry>>,
    source: Mutex<Option<PathBuf>>,
    swaps: AtomicU64,
}

/// A point-in-time description of one catalog slot, for listings.
#[derive(Debug, Clone)]
pub struct CatalogRow {
    /// Database name.
    pub name: String,
    /// Current epoch.
    pub epoch: u64,
    /// Swaps performed since registration.
    pub swaps: u64,
    /// Documents in the current snapshot.
    pub documents: usize,
    /// Nodes in the current snapshot.
    pub nodes: usize,
    /// File the database was loaded from, if any.
    pub source: Option<PathBuf>,
}

/// The registry of named, epoch-versioned databases. See the module docs.
#[derive(Default)]
pub struct Catalog {
    slots: RwLock<HashMap<Box<str>, Arc<Slot>>>,
}

fn validate(name: &str) -> Result<(), CatalogError> {
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_graphic()) {
        return Err(CatalogError::InvalidName(name.to_string()));
    }
    Ok(())
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers `db` under `name`, or — if the name exists — publishes it
    /// as the next epoch (a hot swap). Returns the published entry.
    pub fn register(
        &self,
        name: &str,
        db: Arc<Database>,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        self.install(name, db, None)
    }

    /// Loads `path` (TLCX snapshot or XML, sniffed by content) and publishes
    /// it under `name` — registering a new database or hot-swapping an
    /// existing one. The path is remembered as the slot's reload source.
    pub fn open(&self, name: &str, path: &Path) -> Result<Arc<CatalogEntry>, CatalogError> {
        self.open_at(name, path, 0)
    }

    /// Like [`Catalog::open`], but when the name is *new* its first entry
    /// is published at `epoch` instead of 0. This is the manifest-restore
    /// path (see [`crate::manifest`]): a restarted server re-publishes each
    /// database at the epoch it last reached, so epochs stay monotonic for
    /// any client that recorded `(name, epoch)` pairs across the restart.
    /// If the name already exists, `epoch` is ignored and this is an
    /// ordinary hot swap.
    pub fn open_at(
        &self,
        name: &str,
        path: &Path,
        epoch: u64,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        validate(name)?;
        let db = xmldb::load_path(path)
            .map_err(|e| CatalogError::Load { name: name.to_string(), message: e.to_string() })?;
        self.install_at(name, Arc::new(db), Some(path.to_path_buf()), epoch)
    }

    /// Re-reads `name`'s source file and publishes the result as the next
    /// epoch. In-flight requests keep the entry they resolved; the old
    /// store is dropped once the last of them finishes.
    pub fn reload(&self, name: &str) -> Result<Arc<CatalogEntry>, CatalogError> {
        let slot = self.slot(name)?;
        let source = slot
            .source
            .lock()
            .unwrap()
            .clone()
            .ok_or_else(|| CatalogError::NoSource(name.to_string()))?;
        let db = xmldb::load_path(&source)
            .map_err(|e| CatalogError::Load { name: name.to_string(), message: e.to_string() })?;
        self.install(name, Arc::new(db), None)
    }

    /// Unregisters `name`, dropping its slot. In-flight work holding the
    /// entry keeps its snapshot alive until it finishes; later resolves
    /// fail with [`CatalogError::Unknown`].
    pub fn remove(&self, name: &str) -> Result<(), CatalogError> {
        if self.slots.write().unwrap().remove(name).is_none() {
            return Err(CatalogError::Unknown(name.to_string()));
        }
        Ok(())
    }

    /// Resolves the current entry for `name` (clone-on-read: the returned
    /// `Arc` stays valid across any later swap).
    pub fn resolve(&self, name: &str) -> Result<Arc<CatalogEntry>, CatalogError> {
        let slot = self.slot(name)?;
        let entry = Arc::clone(&slot.current.lock().unwrap());
        Ok(entry)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.slots.read().unwrap().contains_key(name)
    }

    /// Number of registered databases.
    pub fn len(&self) -> usize {
        self.slots.read().unwrap().len()
    }

    /// True when no database is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.read().unwrap().is_empty()
    }

    /// Point-in-time listing of every slot, sorted by name.
    pub fn list(&self) -> Vec<CatalogRow> {
        let slots: Vec<(Box<str>, Arc<Slot>)> = {
            let map = self.slots.read().unwrap();
            map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        };
        let mut rows: Vec<CatalogRow> = slots
            .into_iter()
            .map(|(name, slot)| {
                let entry = Arc::clone(&slot.current.lock().unwrap());
                CatalogRow {
                    name: name.into(),
                    epoch: entry.epoch,
                    swaps: slot.swaps.load(Ordering::Relaxed),
                    documents: entry.db.document_count(),
                    nodes: entry.db.node_count(),
                    source: slot.source.lock().unwrap().clone(),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    fn slot(&self, name: &str) -> Result<Arc<Slot>, CatalogError> {
        self.slots
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::Unknown(name.to_string()))
    }

    /// The one publish path: creates the slot on first sight, otherwise
    /// swaps the current entry in under the next epoch. `source`, when
    /// given, becomes (or replaces) the slot's reload source.
    fn install(
        &self,
        name: &str,
        db: Arc<Database>,
        source: Option<PathBuf>,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        self.install_at(name, db, source, 0)
    }

    /// As [`Catalog::install`], with a caller-chosen epoch for the *first*
    /// publication of a new name (swaps of existing names ignore it).
    fn install_at(
        &self,
        name: &str,
        db: Arc<Database>,
        source: Option<PathBuf>,
        start_epoch: u64,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        validate(name)?;
        let mut slots = self.slots.write().unwrap();
        if let Some(slot) = slots.get(name) {
            let slot = Arc::clone(slot);
            drop(slots); // publish outside the map lock: only this slot is touched
            let entry = {
                let mut current = slot.current.lock().unwrap();
                let entry = Arc::new(CatalogEntry {
                    name: Arc::clone(&current.name),
                    epoch: current.epoch + 1,
                    db,
                });
                *current = Arc::clone(&entry);
                entry
            };
            slot.swaps.fetch_add(1, Ordering::Relaxed);
            if source.is_some() {
                *slot.source.lock().unwrap() = source;
            }
            Ok(entry)
        } else {
            let entry = Arc::new(CatalogEntry { name: name.into(), epoch: start_epoch, db });
            let slot = Arc::new(Slot {
                current: Mutex::new(Arc::clone(&entry)),
                source: Mutex::new(source),
                swaps: AtomicU64::new(0),
            });
            slots.insert(name.into(), slot);
            Ok(entry)
        }
    }
}

/// Renders a catalog listing as the text block `.catalog` returns.
pub fn render(rows: &[CatalogRow]) -> String {
    let mut out = format!("catalog: {} database(s)\n", rows.len());
    for r in rows {
        let source = match &r.source {
            Some(p) => format!(", source {}", p.display()),
            None => ", in-memory".to_string(),
        };
        out.push_str(&format!(
            "  {}: epoch {}, {} swap(s), {} document(s), {} nodes{}\n",
            r.name, r.epoch, r.swaps, r.documents, r.nodes, source
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db(xml: &str) -> Arc<Database> {
        let mut db = Database::new();
        db.load_xml("auction.xml", xml).unwrap();
        Arc::new(db)
    }

    #[test]
    fn register_resolve_and_list() {
        let cat = Catalog::new();
        cat.register("a", tiny_db("<r><x/></r>")).unwrap();
        cat.register("b", tiny_db("<r><x/><x/></r>")).unwrap();
        assert!(cat.contains("a") && cat.contains("b") && !cat.contains("c"));
        assert_eq!(cat.len(), 2);
        let a = cat.resolve("a").unwrap();
        assert_eq!((a.name(), a.epoch()), ("a", 0));
        let rows = cat.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a"); // sorted
        assert!(render(&rows).contains("b: epoch 0"));
        assert!(matches!(cat.resolve("c"), Err(CatalogError::Unknown(_))));
    }

    #[test]
    fn swap_bumps_epoch_and_pins_old_readers() {
        let cat = Catalog::new();
        cat.register("d", tiny_db("<r><x/></r>")).unwrap();
        let old = cat.resolve("d").unwrap();
        let new = cat.register("d", tiny_db("<r><x/><x/><x/></r>")).unwrap();
        assert_eq!(new.epoch(), 1);
        // The held entry still reads the old snapshot.
        assert_eq!(old.database().nodes_with_tag("x").len(), 1);
        assert_eq!(cat.resolve("d").unwrap().database().nodes_with_tag("x").len(), 3);
        assert_eq!(cat.list()[0].swaps, 1);
    }

    #[test]
    fn remove_drops_the_slot_but_pins_held_entries() {
        let cat = Catalog::new();
        cat.register("gone", tiny_db("<r><x/></r>")).unwrap();
        let held = cat.resolve("gone").unwrap();
        cat.remove("gone").unwrap();
        assert!(!cat.contains("gone"));
        assert!(matches!(cat.resolve("gone"), Err(CatalogError::Unknown(_))));
        assert!(matches!(cat.remove("gone"), Err(CatalogError::Unknown(_))));
        // The held entry still reads its snapshot.
        assert_eq!(held.database().nodes_with_tag("x").len(), 1);
        // Re-registering starts a fresh slot at epoch 0.
        assert_eq!(cat.register("gone", tiny_db("<r/>")).unwrap().epoch(), 0);
    }

    #[test]
    fn names_are_validated() {
        let cat = Catalog::new();
        for bad in ["", "two words", "tab\there", "é"] {
            assert!(matches!(
                cat.register(bad, tiny_db("<r/>")),
                Err(CatalogError::InvalidName(_))
            ));
        }
    }

    #[test]
    fn reload_requires_a_source() {
        let cat = Catalog::new();
        cat.register("mem", tiny_db("<r/>")).unwrap();
        assert!(matches!(cat.reload("mem"), Err(CatalogError::NoSource(_))));
        assert!(matches!(cat.reload("ghost"), Err(CatalogError::Unknown(_))));
    }

    #[test]
    fn open_and_reload_from_disk() {
        let path = std::env::temp_dir().join(format!("catalog_open_{}.xml", std::process::id()));
        std::fs::write(&path, "<r><v>1</v></r>").unwrap();
        let cat = Catalog::new();
        let e0 = cat.open("disk", &path).unwrap();
        assert_eq!(e0.epoch(), 0);
        assert_eq!(e0.database().nodes_with_tag("v").len(), 1);
        // Edit the file, reload: next epoch, new content, old entry intact.
        std::fs::write(&path, "<r><v>1</v><v>2</v></r>").unwrap();
        let e1 = cat.reload("disk").unwrap();
        assert_eq!(e1.epoch(), 1);
        assert_eq!(e1.database().nodes_with_tag("v").len(), 2);
        assert_eq!(e0.database().nodes_with_tag("v").len(), 1);
        // Opening a missing file is a typed load error.
        assert!(matches!(
            cat.open("nope", std::path::Path::new("/nonexistent/x.xml")),
            Err(CatalogError::Load { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_at_restores_a_recorded_epoch_for_new_names_only() {
        let path = std::env::temp_dir().join(format!("catalog_openat_{}.xml", std::process::id()));
        std::fs::write(&path, "<r><v>1</v></r>").unwrap();
        let cat = Catalog::new();
        let restored = cat.open_at("hist", &path, 7).unwrap();
        assert_eq!(restored.epoch(), 7);
        // A later swap continues from there.
        assert_eq!(cat.open("hist", &path).unwrap().epoch(), 8);
        // open_at on an existing name is an ordinary swap: epoch ignored.
        assert_eq!(cat.open_at("hist", &path, 3).unwrap().epoch(), 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_swaps_and_reads_stay_coherent() {
        let cat = Arc::new(Catalog::new());
        cat.register("hot", tiny_db("<r><x/></r>")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cat = Arc::clone(&cat);
                s.spawn(move || {
                    for _ in 0..50 {
                        let e = cat.resolve("hot").unwrap();
                        // Whatever snapshot we pinned stays internally valid.
                        assert!(!e.database().nodes_with_tag("x").is_empty());
                    }
                });
            }
            for _ in 0..2 {
                let cat = Arc::clone(&cat);
                s.spawn(move || {
                    for _ in 0..25 {
                        cat.register("hot", tiny_db("<r><x/><x/></r>")).unwrap();
                    }
                });
            }
        });
        assert_eq!(cat.resolve("hot").unwrap().epoch(), 50);
    }
}
