//! The memory-resident ancestry cache — the read tier in front of the
//! [`GraphSource`](crate::GraphSource) stack.
//!
//! Holds materialized reverse-edge pages (one per ancestor node, the
//! unit the commit-time index writes) and program→seed lookups, hydrated
//! from [`IndexSource`](crate::IndexSource) on miss and served without a
//! single cloud op when warm. One cache is shared by every tenant's
//! engine; per-tenant byte quotas with a reserved share keep one
//! tenant's hot working set from evicting another's, and a global LRU
//! bounds residency.
//!
//! # Coherence
//!
//! The cache is kept coherent by the live change feed, not by TTLs:
//!
//! * **Invalidation is feed-ordered and idempotent.** Every
//!   [`CommitEvent`] names the uuids whose index pages the commit may
//!   have changed (subjects *and* `Input` xref targets — see
//!   [`cloudprov_core::feed::extract_touches`]) and the programs whose
//!   seed lookups it may have grown. Handling an event only *removes*
//!   entries and records a quarantine instant; the feed's at-least-once
//!   delivery means duplicates arrive routinely, and a duplicate re-
//!   remove is a no-op that can never resurrect a stale entry.
//! * **Hydration cannot race an invalidation.** An install carries the
//!   instant its store fetch *started*; it is refused when the key was
//!   invalidated at or after that instant (the fetch may predate the
//!   commit), and — under an eventually-consistent profile — until the
//!   store's `max_staleness` window has also passed, so a stale-replica
//!   read can never be installed over an invalidation. The same guard
//!   anchored at attach time covers commits the cache never saw because
//!   they predate its subscription.
//! * **A feed gap fails closed.** The cache mirrors the feed registry's
//!   per-stream sequence accounting; a skipped sequence (or a detach)
//!   poisons the cache: everything is flushed and every lookup reports
//!   unusable until the owner re-attaches, so the engine drops to the
//!   uncached plan rather than serve possibly-stale lineage.
//!
//! # Eviction order
//!
//! The victim order is a contract — every hit, miss and eviction
//! count, and so every virtual number downstream, depends on it:
//!
//! 1. least recently touched first (one tick per install or lookup);
//! 2. among entries touched by the same lookup — they share its tick —
//!    the seed entry before any page, then ascending key;
//! 3. only entries of the installing owner itself, or of a tenant
//!    strictly above its reserved share, qualify; the rest are skipped
//!    for the next-coldest entry.
//!
//! # Cost
//!
//! With *n* resident entries, no operation scans them:
//!
//! * hit — O(nodes visited): map probes and one tick store per node;
//!   recency filings are left stale and repaired by the next eviction
//!   that meets them, O(log n) apiece, at most one per touch;
//! * install, evict — O(log n);
//! * miss — one parse per set of stored index versions: a fetch handing
//!   back the very versions the last decode saw reuses its pages, and
//!   entries are installed by reference to them;
//! * invalidate — O(pages of the uuid · log n);
//! * flush — frees everything it drops, nothing more.
//!
//! `capacity_bytes` and the quotas count modelled bytes (`entry_bytes`
//! per entry), not host memory: a page entry is charged in full though
//! its page is shared with the decoded snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{Attributes, SelectedItem, TenantId};
use cloudprov_core::feed::{CommitEvent, CommitEventSink};
use cloudprov_pass::{PNodeId, Uuid};
use cloudprov_sim::{Sim, SimTime};

use crate::planner::CacheState;
use crate::source::RevAdjacency;

/// Sizing and coherence knobs for one [`AncestryCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Global byte budget across all tenants.
    pub capacity_bytes: usize,
    /// Per-tenant ceiling: one tenant's entries never exceed this.
    pub tenant_max_bytes: usize,
    /// Per-tenant floor: eviction on behalf of *another* tenant never
    /// shrinks a tenant below this (self-eviction always may).
    pub tenant_reserved_bytes: usize,
    /// The store's read-staleness window (`max_staleness` of the
    /// consistency profile): installs stay blocked for this long after
    /// an invalidation (and after attach), so an eventually-consistent
    /// replica read can never reinstall pre-invalidation state.
    pub staleness_guard: Duration,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 4 << 20,
            tenant_max_bytes: 1 << 20,
            tenant_reserved_bytes: 64 << 10,
            staleness_guard: Duration::ZERO,
        }
    }
}

/// One ancestor's materialized reverse-edge page: its dependents over
/// `input` edges and the subset of those that are files (Q.3's filter,
/// localized from the adjacency's global file set at install time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RevPage {
    /// Dependents of this ancestor.
    pub out: Vec<PNodeId>,
    /// The dependents that are files.
    pub files: Vec<PNodeId>,
}

/// One decoded snapshot of the `rev_` index: a page per ancestor, its
/// `files` already localized, shared by reference with every cache entry
/// installed from it.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct IndexPages {
    pub(crate) pages: BTreeMap<PNodeId, Arc<RevPage>>,
}

impl IndexPages {
    /// Splits `adj` into pages: each ancestor's dependents, and those of
    /// them that are files.
    pub(crate) fn new(adj: RevAdjacency) -> IndexPages {
        let RevAdjacency { out, files } = adj;
        let pages = out
            .into_iter()
            .map(|(node, out)| {
                let files = out.iter().copied().filter(|d| files.contains(d)).collect();
                (node, Arc::new(RevPage { out, files }))
            })
            .collect();
        IndexPages { pages }
    }

    /// `node`'s page, if the index stores one.
    pub(crate) fn get(&self, node: &PNodeId) -> Option<&RevPage> {
        self.pages.get(node).map(Arc::as_ref)
    }
}

/// The last index snapshot [`AncestryCache::decode`] built, and the
/// stored versions it was built from. Holding the versions keeps their
/// addresses from being reused by newer ones.
#[derive(Default)]
struct Decoded {
    versions: Vec<Arc<Attributes>>,
    pages: Arc<IndexPages>,
    decodes: u64,
}

/// Counters the cache exposes for reports (`query.cache.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served entirely from memory.
    pub hits: u64,
    /// Queries that had to hydrate from the store.
    pub misses: u64,
    /// Queries that bypassed an unusable cache.
    pub bypasses: u64,
    /// Entries evicted for room.
    pub evictions: u64,
    /// Entries removed by feed invalidation.
    pub invalidations: u64,
    /// Entries installed.
    pub installs: u64,
    /// Installs refused by the invalidation/staleness guard.
    pub refused_installs: u64,
    /// Feed events observed (including duplicates).
    pub events: u64,
    /// Duplicate feed deliveries (idempotently re-applied).
    pub duplicate_events: u64,
    /// Sequence gaps observed — each one poisons the cache.
    pub gaps: u64,
    /// Index fetches that had to be parsed: their stored versions were
    /// not the ones the previous decode saw.
    pub decodes: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Resident bytes right now.
    pub bytes: usize,
}

/// What a filing names. The derived order — every seed lookup before
/// any page, then ascending key — is rule 2 of the eviction order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Seed(Arc<str>),
    Page(PNodeId),
}

/// An entry's place in its owner's recency order: `(tick, key)`.
type Filing = (u64, Key);

#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    bytes: usize,
    owner: Option<TenantId>,
    /// Tick of the last install or lookup: the entry's true recency.
    touched: u64,
    /// Tick the entry is filed under in its owner's `order`. A hit
    /// stores `touched` only, so this may trail it; it never leads it.
    filed: u64,
}

/// One quota owner's share. The row exists only while it has entries.
#[derive(Default)]
struct Tenant {
    bytes: usize,
    /// The owner's entries, coldest filing first. Filings are lower
    /// bounds on recency ([`Entry::filed`]); [`AncestryCache::coldest`]
    /// re-files stale ones before it trusts the front.
    order: BTreeSet<Filing>,
    /// This owner's element of [`Inner::heads`]: a copy of
    /// `order.first()` while `bytes` exceeds the reserved share.
    listed: Option<Filing>,
}

#[derive(Default)]
struct Inner {
    attached: bool,
    coherent: bool,
    /// Attach instant: installs whose fetch started before
    /// `floor + guard` are refused (commits missed before the
    /// subscription began may not have replicated yet).
    floor: SimTime,
    /// Monotonic count of accepted (non-duplicate) feed events —
    /// verification loops use it to tell "state moved under me" from
    /// "genuinely stale".
    epoch: u64,
    /// Per-stream high sequence marks, mirroring the feed registry's
    /// duplicate/gap accounting.
    high: BTreeMap<String, u64>,
    seeds: BTreeMap<Arc<str>, Entry<Vec<PNodeId>>>,
    pages: BTreeMap<PNodeId, Entry<Arc<RevPage>>>,
    quarantined_uuids: BTreeMap<Uuid, SimTime>,
    quarantined_programs: BTreeMap<String, SimTime>,
    owners: BTreeMap<Option<TenantId>, Tenant>,
    /// The front filing of every owner another tenant may evict from
    /// (those above their reserved share), coldest first.
    heads: BTreeSet<(Filing, Option<TenantId>)>,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

/// The shared, feed-invalidated ancestry cache. See the module docs for
/// the coherence argument.
pub struct AncestryCache {
    sim: Sim,
    cfg: CacheConfig,
    inner: Mutex<Inner>,
    /// A pure memo of immutable inputs, so flushes leave it alone.
    decoded: Mutex<Decoded>,
}

/// Rough resident cost of an entry holding `ids` node ids.
fn entry_bytes(ids: usize) -> usize {
    48 + 24 * ids
}

/// How long after `t + guard` a quarantine record is still kept around
/// for in-flight hydrations that started before `t`. Far beyond any
/// simulated store round-trip.
const QUARANTINE_SLACK: Duration = Duration::from_secs(60);

impl AncestryCache {
    /// An unattached cache on `sim`'s clock. Call [`attach`](Self::attach)
    /// once the feed sink is wired; until then every lookup bypasses.
    pub fn new(sim: &Sim, cfg: CacheConfig) -> AncestryCache {
        AncestryCache {
            sim: sim.clone(),
            cfg,
            inner: Mutex::new(Inner {
                coherent: false,
                ..Inner::default()
            }),
            decoded: Mutex::default(),
        }
    }

    /// The configured quotas/guard.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Declares the feed subscription live: flushes everything, resets
    /// sequence accounting, and anchors the attach-floor guard at the
    /// current instant.
    pub fn attach(&self) {
        let mut g = self.inner.lock();
        g.attached = true;
        g.coherent = true;
        g.floor = self.sim.now();
        g.high.clear();
        Self::flush(&mut g);
    }

    /// Whether lookups may be served (attached and gap-free).
    pub fn usable(&self) -> bool {
        let g = self.inner.lock();
        g.attached && g.coherent
    }

    /// Count of accepted (non-duplicate) feed events so far.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let decodes = self.decoded.lock().decodes;
        let g = self.inner.lock();
        let mut s = g.stats;
        s.entries = g.seeds.len() + g.pages.len();
        s.bytes = g.bytes;
        s.decodes = decodes;
        s
    }

    /// Resident bytes currently charged to `owner` (quota tests).
    pub fn owner_bytes(&self, owner: Option<TenantId>) -> usize {
        self.inner.lock().owner_bytes(owner)
    }

    /// Counts one engine-level bypass (cache in play but unusable).
    pub fn note_bypass(&self) {
        self.inner.lock().stats.bypasses += 1;
    }

    /// The feed sink: wire into the daemon pool (the pool takes one
    /// sink — fan it in with the registry's sink via the feed crate's
    /// fan-out when both need the events).
    pub fn sink(self: &Arc<Self>) -> CommitEventSink {
        let cache = Arc::clone(self);
        Arc::new(move |ev: CommitEvent| cache.on_event(&ev))
    }

    /// Applies one feed event: sequence accounting, then idempotent
    /// invalidation. Public so tests can deliver fabricated events.
    pub fn on_event(&self, ev: &CommitEvent) {
        let now = self.sim.now();
        let mut g = self.inner.lock();
        if !g.attached {
            return;
        }
        g.stats.events += 1;
        match g.high.get(&ev.stream).copied() {
            // First observation of this stream: the attach-floor guard
            // covers anything published before we subscribed.
            None => {
                g.high.insert(ev.stream.clone(), ev.seq);
            }
            // A replayed delivery: its invalidation already ran with an
            // earlier quarantine instant, so re-applying it is a strict
            // no-op — entries installed since were fetched after the
            // original invalidation and are fresh.
            Some(h) if ev.seq <= h => {
                g.stats.duplicate_events += 1;
                return;
            }
            Some(h) if ev.seq == h + 1 => {
                g.high.insert(ev.stream.clone(), ev.seq);
            }
            // A skipped sequence: we cannot know what it would have
            // invalidated. Fail closed.
            Some(_) => {
                g.stats.gaps += 1;
                g.coherent = false;
                Self::flush(&mut g);
                return;
            }
        }
        if !g.coherent {
            return;
        }
        g.epoch += 1;
        // Idempotent invalidation: remove + quarantine. A duplicate
        // delivery re-removes nothing and refreshes the quarantine —
        // both harmless, neither can resurrect an entry.
        for &uuid in &ev.uuids {
            let span: Vec<PNodeId> = g
                .pages
                .range(
                    PNodeId { uuid, version: 0 }..=PNodeId {
                        uuid,
                        version: u32::MAX,
                    },
                )
                .map(|(k, _)| *k)
                .collect();
            for k in span {
                self.remove_page(&mut g, k);
                g.stats.invalidations += 1;
            }
            g.quarantined_uuids.insert(uuid, now);
        }
        for program in &ev.programs {
            if self.remove_seeds(&mut g, program) {
                g.stats.invalidations += 1;
            }
            g.quarantined_programs.insert(program.clone(), now);
        }
        // Quarantines only matter to installs whose fetch started
        // before the invalidation; keep them well past the staleness
        // window, then let them go.
        let guard = self.cfg.staleness_guard;
        let keep = |t: &SimTime| *t + guard + QUARANTINE_SLACK > now;
        g.quarantined_uuids.retain(|_, t| keep(t));
        g.quarantined_programs.retain(|_, t| keep(t));
    }

    /// Non-counting dry run: would `kind`/`program` be served from
    /// memory right now? `None` means the cache is unusable (bypass).
    pub fn probe(&self, kind: crate::QueryKind, program: &str) -> Option<CacheState> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let warm = match kind {
            crate::QueryKind::Q3 => Self::q3_from(&mut g, program, false).is_some(),
            crate::QueryKind::Q4 => Self::q4_from(&mut g, program, false).is_some(),
            _ => return None,
        };
        Some(if warm {
            CacheState::Warm
        } else {
            CacheState::Cold
        })
    }

    /// Serves Q.3 (direct file outputs of `program`) from memory, or
    /// `None` on a miss. Counts a hit/miss.
    pub fn serve_q3(&self, program: &str) -> Option<Vec<PNodeId>> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let r = Self::q3_from(&mut g, program, true);
        match r {
            Some(_) => g.stats.hits += 1,
            None => g.stats.misses += 1,
        }
        r
    }

    /// Serves Q.4 (transitive descendants of `program`) from memory, or
    /// `None` on a miss. Counts a hit/miss.
    pub fn serve_q4(&self, program: &str) -> Option<Vec<PNodeId>> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let r = Self::q4_from(&mut g, program, true);
        match r {
            Some(_) => g.stats.hits += 1,
            None => g.stats.misses += 1,
        }
        r
    }

    /// Cached seed lookup (no hit/miss accounting — the serve calls own
    /// that); used by the engine's hydration path to skip the seed
    /// SELECT when only pages were missing.
    pub fn seeds_of(&self, program: &str) -> Option<Vec<PNodeId>> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        g.tick += 1;
        let tick = g.tick;
        let e = g.seeds.get_mut(program)?;
        e.touched = tick;
        Some(e.value.clone())
    }

    /// Installs a seed lookup fetched from the store. `fetch_start` is
    /// the instant the store fetch began; the install is refused when
    /// the program was invalidated at or after it (or within the
    /// staleness window before it).
    pub fn install_seeds(
        &self,
        owner: Option<TenantId>,
        program: &str,
        seeds: &[PNodeId],
        fetch_start: SimTime,
    ) {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return;
        }
        let quarantined = g.quarantined_programs.get(program).copied();
        if !self.admissible(&g, fetch_start, quarantined) {
            g.stats.refused_installs += 1;
            return;
        }
        self.remove_seeds(&mut g, program);
        let bytes = entry_bytes(seeds.len());
        if !self.ensure_room(&mut g, owner, bytes) {
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        let e = Entry {
            value: seeds.to_vec(),
            bytes,
            owner,
            touched: tick,
            filed: tick,
        };
        let program: Arc<str> = program.into();
        g.seeds.insert(Arc::clone(&program), e);
        self.charge(&mut g, owner, (tick, Key::Seed(program)), bytes);
        g.stats.installs += 1;
    }

    /// Installs every page of a freshly fetched adjacency, plus *empty*
    /// pages for the `touched` nodes absent from it (a node with no
    /// dependents must be provably absent, or every walk that reaches it
    /// would miss forever). Per-key guard as in
    /// [`install_seeds`](Self::install_seeds).
    pub fn install_adjacency(
        &self,
        owner: Option<TenantId>,
        adj: &RevAdjacency,
        touched: &[PNodeId],
        fetch_start: SimTime,
    ) {
        let pages = IndexPages::new(adj.clone());
        self.install_fetched(owner, &pages, touched, fetch_start);
    }

    /// The decoded form of a `rev_` fetch. When `items` are, in order,
    /// the very stored versions the last decode saw, that decode is
    /// handed back: a published version never changes and belongs to one
    /// item, so the parse would rebuild the same pages.
    pub(crate) fn decode(&self, items: &[SelectedItem]) -> Arc<IndexPages> {
        let mut memo = self.decoded.lock();
        let unchanged = memo.versions.len() == items.len()
            && memo
                .versions
                .iter()
                .zip(items)
                .all(|(v, item)| Arc::ptr_eq(v, &item.attrs));
        if !unchanged {
            memo.pages = Arc::new(IndexPages::new(RevAdjacency::decode(items)));
            memo.versions = items.iter().map(|item| Arc::clone(&item.attrs)).collect();
            memo.decodes += 1;
        }
        Arc::clone(&memo.pages)
    }

    /// [`install_adjacency`](Self::install_adjacency) from decoded
    /// pages: every entry shares its page instead of copying it.
    pub(crate) fn install_fetched(
        &self,
        owner: Option<TenantId>,
        pages: &IndexPages,
        touched: &[PNodeId],
        fetch_start: SimTime,
    ) {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return;
        }
        for (node, page) in &pages.pages {
            self.install_page(&mut g, owner, *node, Arc::clone(page), fetch_start);
        }
        let empty = Arc::new(RevPage::default());
        for node in touched {
            if !pages.pages.contains_key(node) {
                self.install_page(&mut g, owner, *node, Arc::clone(&empty), fetch_start);
            }
        }
    }

    fn install_page(
        &self,
        g: &mut Inner,
        owner: Option<TenantId>,
        node: PNodeId,
        page: Arc<RevPage>,
        fetch_start: SimTime,
    ) {
        let quarantined = g.quarantined_uuids.get(&node.uuid).copied();
        if !self.admissible(g, fetch_start, quarantined) {
            g.stats.refused_installs += 1;
            return;
        }
        let bytes = entry_bytes(page.out.len() + page.files.len());
        let tick = g.tick + 1;
        let e = Entry {
            value: page,
            bytes,
            owner,
            touched: tick,
            filed: tick,
        };
        // One probe both displaces a resident page and seats the new
        // one. Until it is charged below it has no filing, so the
        // evictions that make its room cannot pick it.
        if let Some(old) = g.pages.insert(node, e) {
            self.uncharge(g, old.owner, &(old.filed, Key::Page(node)), old.bytes);
        }
        if !self.ensure_room(g, owner, bytes) {
            g.pages.remove(&node);
            return;
        }
        g.tick = tick;
        self.charge(g, owner, (tick, Key::Page(node)), bytes);
        g.stats.installs += 1;
    }

    fn admissible(&self, g: &Inner, fetch_start: SimTime, quarantined: Option<SimTime>) -> bool {
        let guard = self.cfg.staleness_guard;
        if fetch_start < g.floor + guard {
            return false;
        }
        match quarantined {
            Some(t) => fetch_start >= t + guard && fetch_start > t,
            None => true,
        }
    }

    fn q3_from(g: &mut Inner, program: &str, touch: bool) -> Option<Vec<PNodeId>> {
        let Inner {
            seeds, pages, tick, ..
        } = g;
        let seed = seeds.get_mut(program)?;
        let mut out: BTreeSet<PNodeId> = BTreeSet::new();
        for s in &seed.value {
            out.extend(pages.get(s)?.value.files.iter().copied());
        }
        if touch {
            *tick += 1;
            seed.touched = *tick;
            for s in &seed.value {
                if let Some(e) = pages.get_mut(s) {
                    e.touched = *tick;
                }
            }
        }
        Some(out.into_iter().collect())
    }

    /// Same traversal as [`local::walk`](crate::source::local::walk) —
    /// excluding the seeds from the result — but a node *without* a
    /// resident page is a miss, not a leaf: only an installed empty page
    /// proves it has no dependents.
    fn q4_from(g: &mut Inner, program: &str, touch: bool) -> Option<Vec<PNodeId>> {
        let Inner {
            seeds, pages, tick, ..
        } = g;
        let seed = seeds.get_mut(program)?;
        let mut seen: BTreeSet<PNodeId> = seed.value.iter().copied().collect();
        let mut queue: Vec<PNodeId> = seed.value.clone();
        let mut reached: Vec<PNodeId> = Vec::new();
        while let Some(n) = queue.pop() {
            for &m in &pages.get(&n)?.value.out {
                if seen.insert(m) {
                    reached.push(m);
                    queue.push(m);
                }
            }
        }
        if touch {
            *tick += 1;
            seed.touched = *tick;
            for n in seed.value.iter().chain(&reached) {
                if let Some(e) = pages.get_mut(n) {
                    e.touched = *tick;
                }
            }
        }
        reached.sort_unstable();
        Some(reached)
    }

    /// Makes room for `need` bytes charged to `owner`: evicts `owner`'s
    /// own coldest entries past its per-tenant ceiling, then the coldest
    /// permitted entries past capacity (module docs, *Eviction order*).
    /// Returns false (install refused) when no evictable entry remains.
    fn ensure_room(&self, g: &mut Inner, owner: Option<TenantId>, need: usize) -> bool {
        if need > self.cfg.tenant_max_bytes {
            return false;
        }
        while g.owner_bytes(owner) + need > self.cfg.tenant_max_bytes {
            let Some((_, victim)) = self.coldest(g, owner) else {
                return false;
            };
            self.evict(g, &victim);
        }
        while g.bytes + need > self.cfg.capacity_bytes {
            let Some(victim) = self.coldest_permitted(g, owner) else {
                return false;
            };
            self.evict(g, &victim);
        }
        true
    }

    /// The coldest entry `owner` may evict for room: its own coldest, or
    /// the coldest of any tenant above its reserved share.
    fn coldest_permitted(&self, g: &mut Inner, owner: Option<TenantId>) -> Option<Key> {
        // A listed head is only a lower bound until its owner's front
        // filing is fresh; freshening relists it, so retry until the
        // coldest head survives unchanged.
        let listed = loop {
            let Some((head, o)) = g.heads.first().cloned() else {
                break None;
            };
            let fresh = self.coldest(g, o);
            if fresh.as_ref() == Some(&head) {
                break fresh;
            }
        };
        let own = self.coldest(g, owner);
        own.into_iter().chain(listed).min().map(|(_, key)| key)
    }

    /// `owner`'s coldest entry as `(touched, key)`, after re-filing every
    /// front filing a hit has left behind its entry.
    fn coldest(&self, g: &mut Inner, owner: Option<TenantId>) -> Option<Filing> {
        let Inner {
            owners,
            heads,
            seeds,
            pages,
            ..
        } = g;
        let t = owners.get_mut(&owner)?;
        loop {
            let (filed_at, key) = t.order.first()?;
            let (touched, filed) = match key {
                Key::Seed(p) => seeds.get_mut(&**p).map(|e| (e.touched, &mut e.filed)),
                Key::Page(n) => pages.get_mut(n).map(|e| (e.touched, &mut e.filed)),
            }
            .expect("a filing names a resident entry");
            if touched == *filed_at {
                break;
            }
            *filed = touched;
            let (_, key) = t.order.pop_first().expect("front filing just read");
            t.order.insert((touched, key));
        }
        self.relist(t, heads, owner);
        t.order.first().cloned()
    }

    fn evict(&self, g: &mut Inner, victim: &Key) {
        match victim {
            Key::Seed(p) => self.remove_seeds(g, p),
            Key::Page(n) => self.remove_page(g, *n),
        };
        g.stats.evictions += 1;
    }

    fn remove_seeds(&self, g: &mut Inner, program: &str) -> bool {
        match g.seeds.remove_entry(program) {
            Some((program, e)) => {
                self.uncharge(g, e.owner, &(e.filed, Key::Seed(program)), e.bytes);
                true
            }
            None => false,
        }
    }

    fn remove_page(&self, g: &mut Inner, node: PNodeId) -> bool {
        match g.pages.remove(&node) {
            Some(e) => {
                self.uncharge(g, e.owner, &(e.filed, Key::Page(node)), e.bytes);
                true
            }
            None => false,
        }
    }

    /// Charges a newly seated entry to `owner` and files it.
    fn charge(&self, g: &mut Inner, owner: Option<TenantId>, filing: Filing, bytes: usize) {
        g.bytes += bytes;
        let t = g.owners.entry(owner).or_default();
        t.bytes += bytes;
        t.order.insert(filing);
        self.relist(t, &mut g.heads, owner);
    }

    /// Reverses [`charge`](Self::charge) for a removed entry; an owner
    /// left with nothing loses its row.
    fn uncharge(&self, g: &mut Inner, owner: Option<TenantId>, filing: &Filing, bytes: usize) {
        g.bytes -= bytes;
        let t = g
            .owners
            .get_mut(&owner)
            .expect("a resident entry's owner has a row");
        t.bytes -= bytes;
        t.order.remove(filing);
        self.relist(t, &mut g.heads, owner);
        if t.order.is_empty() {
            g.owners.remove(&owner);
        }
    }

    /// Brings `owner`'s element of `heads` back in step with its row.
    fn relist(
        &self,
        t: &mut Tenant,
        heads: &mut BTreeSet<(Filing, Option<TenantId>)>,
        owner: Option<TenantId>,
    ) {
        let want = if t.bytes > self.cfg.tenant_reserved_bytes {
            t.order.first()
        } else {
            None
        };
        if want == t.listed.as_ref() {
            return;
        }
        if let Some(old) = t.listed.take() {
            heads.remove(&(old, owner));
        }
        t.listed = want.cloned();
        heads.extend(t.listed.iter().map(|f| (f.clone(), owner)));
    }

    fn flush(g: &mut Inner) {
        g.seeds.clear();
        g.pages.clear();
        g.owners.clear();
        g.heads.clear();
        g.bytes = 0;
    }
}

impl Inner {
    fn owner_bytes(&self, owner: Option<TenantId>) -> usize {
        self.owners.get(&owner).map_or(0, |t| t.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryKind;

    fn node(uuid: u128) -> PNodeId {
        PNodeId::initial(Uuid(uuid))
    }

    fn event(seq: u64, uuids: Vec<Uuid>, programs: Vec<&str>) -> CommitEvent {
        CommitEvent {
            stream: "wal-a".into(),
            seq,
            txn: Uuid(9000 + u128::from(seq)),
            tenant: None,
            uuids,
            programs: programs.into_iter().map(String::from).collect(),
        }
    }

    /// A cache pre-loaded with `etl → n1 → {n2 (file)}` and an empty
    /// page for the leaf, all installed at a fetch instant strictly
    /// after attach.
    fn seeded(sim: &Sim, cfg: CacheConfig) -> Arc<AncestryCache> {
        let cache = Arc::new(AncestryCache::new(sim, cfg));
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let t = sim.now();
        let mut adj = RevAdjacency::default();
        adj.out.insert(node(1), vec![node(2)]);
        adj.files.insert(node(2));
        cache.install_seeds(None, "etl", &[node(1)], t);
        cache.install_adjacency(None, &adj, &[node(1), node(2)], t);
        cache
    }

    #[test]
    fn warm_lookups_serve_without_any_store_state() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Warm));
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Warm));
        assert_eq!(cache.probe(QueryKind::Q3, "other"), Some(CacheState::Cold));
        assert_eq!(cache.serve_q3("etl"), Some(vec![node(2)]));
        assert_eq!(cache.serve_q4("etl"), Some(vec![node(2)]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 0));
    }

    #[test]
    fn duplicate_commit_event_delivery_is_idempotent() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        sim.sleep(Duration::from_secs(1));
        cache.on_event(&event(1, vec![Uuid(1)], vec!["etl"]));
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Cold));
        let epoch = cache.epoch();
        let inval = cache.stats().invalidations;

        // Reinstall with a fetch that started strictly after the
        // invalidation: fresh state, admissible.
        sim.sleep(Duration::from_secs(1));
        let t = sim.now();
        let mut adj = RevAdjacency::default();
        adj.out.insert(node(1), vec![node(2), node(3)]);
        adj.files.insert(node(2));
        adj.files.insert(node(3));
        cache.install_seeds(None, "etl", &[node(1)], t);
        cache.install_adjacency(None, &adj, &[node(1)], t);
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Warm));

        // The same event replayed (at-least-once delivery): a strict
        // no-op — it must not resurrect anything, remove the fresh
        // entries, or move the epoch.
        cache.on_event(&event(1, vec![Uuid(1)], vec!["etl"]));
        assert_eq!(cache.epoch(), epoch);
        assert_eq!(cache.stats().invalidations, inval);
        assert_eq!(cache.stats().duplicate_events, 1);
        assert_eq!(cache.serve_q3("etl"), Some(vec![node(2), node(3)]));
        assert!(cache.usable());
    }

    #[test]
    fn invalidation_racing_hydration_cannot_reinstall_the_stale_page() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        sim.sleep(Duration::from_secs(1));
        // A hydration's store fetch starts now...
        let fetch_start = sim.now();
        let mut stale = RevAdjacency::default();
        stale.out.insert(node(1), vec![node(2)]);
        stale.files.insert(node(2));
        // ...then a commit touching uuid 1 lands and its invalidation
        // arrives mid-fetch...
        sim.sleep(Duration::from_millis(5));
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        // ...and the fetch completes, trying to install what it read
        // before the commit. The install must be refused.
        sim.sleep(Duration::from_millis(5));
        cache.install_adjacency(None, &stale, &[node(1)], fetch_start);
        assert_eq!(
            cache.probe(QueryKind::Q3, "etl"),
            Some(CacheState::Cold),
            "pre-invalidation page must not be reinstalled"
        );
        assert!(cache.stats().refused_installs > 0);
        // A fetch started after the invalidation installs fine.
        let t = sim.now();
        cache.install_adjacency(None, &stale, &[node(1)], t);
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Warm));
    }

    #[test]
    fn staleness_guard_blocks_installs_until_replicas_converge() {
        let sim = Sim::new();
        let guard = Duration::from_secs(12);
        let cfg = CacheConfig {
            staleness_guard: guard,
            ..CacheConfig::default()
        };
        let cache = Arc::new(AncestryCache::new(&sim, cfg));
        cache.attach();
        // Even absent any invalidation, installs within the guard of
        // attach are refused: commits missed before the subscription may
        // not have replicated yet.
        let mut adj = RevAdjacency::default();
        adj.out.insert(node(1), vec![node(2)]);
        cache.install_adjacency(None, &adj, &[node(2)], sim.now());
        assert_eq!(cache.stats().installs, 0);
        sim.sleep(guard + Duration::from_secs(1));
        cache.install_seeds(None, "etl", &[node(1)], sim.now());
        cache.install_adjacency(None, &adj, &[node(2)], sim.now());
        assert_eq!(cache.stats().installs, 3, "seeds + page + empty leaf page");
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Warm));
        // After an invalidation, a fetch inside the staleness window may
        // have read a stale replica — refused; past the window it lands.
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        sim.sleep(Duration::from_secs(5));
        cache.install_adjacency(None, &adj, &[node(2)], sim.now());
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Cold));
        sim.sleep(guard);
        cache.install_adjacency(None, &adj, &[node(2)], sim.now());
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Warm));
    }

    #[test]
    fn sequence_gap_poisons_the_cache_until_reattach() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        cache.on_event(&event(1, vec![], vec![]));
        assert!(cache.usable());
        // seq 2 never arrives: an unknowable invalidation was missed.
        cache.on_event(&event(3, vec![], vec![]));
        assert!(!cache.usable(), "gap must fail closed");
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), None, "lookups bypass");
        assert_eq!(cache.serve_q3("etl"), None);
        assert_eq!(cache.stats().gaps, 1);
        assert_eq!(cache.stats().entries, 0, "everything flushed");
        // Later events cannot resurrect it...
        cache.on_event(&event(4, vec![], vec![]));
        assert!(!cache.usable());
        // ...only an explicit re-attach (fresh subscription) does.
        cache.attach();
        assert!(cache.usable());
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Cold));
    }

    #[test]
    fn an_unattached_cache_bypasses_and_refuses_installs() {
        let sim = Sim::new();
        let cache = AncestryCache::new(&sim, CacheConfig::default());
        assert!(!cache.usable());
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), None);
        // Events before the subscription is live are ignored, installs
        // refused.
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        cache.install_seeds(None, "etl", &[node(1)], sim.now());
        assert_eq!(cache.stats().events, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn tenant_reserved_share_survives_another_tenants_flood() {
        let sim = Sim::new();
        let a = Some(TenantId(1));
        let b = Some(TenantId(2));
        // Room for ~12 one-id entries globally; B's reserve covers its
        // two entries.
        let cfg = CacheConfig {
            capacity_bytes: 900,
            tenant_max_bytes: 800,
            tenant_reserved_bytes: 200,
            staleness_guard: Duration::ZERO,
        };
        let cache = Arc::new(AncestryCache::new(&sim, cfg));
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let t = sim.now();
        cache.install_seeds(b, "b-prog-0", &[node(100)], t);
        cache.install_seeds(b, "b-prog-1", &[node(101)], t);
        let b_bytes = cache.owner_bytes(b);
        assert!(b_bytes <= cfg.tenant_reserved_bytes);
        // A floods far past capacity: every eviction must come out of
        // A's own entries once B is at/below its reserve.
        for i in 0..40 {
            cache.install_seeds(a, &format!("a-prog-{i}"), &[node(200 + i)], t);
        }
        assert_eq!(cache.owner_bytes(b), b_bytes, "B's working set intact");
        assert!(cache.seeds_of("b-prog-0").is_some());
        assert!(cache.seeds_of("b-prog-1").is_some());
        let s = cache.stats();
        assert!(s.evictions > 0, "A's flood evicted A's own LRU entries");
        assert!(s.bytes <= cfg.capacity_bytes);
        // A's own ceiling also binds: it can never hold more than
        // tenant_max_bytes.
        assert!(cache.owner_bytes(a) <= cfg.tenant_max_bytes);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_first() {
        let sim = Sim::new();
        // Two 72-byte seed entries fit; a third forces one eviction.
        let cfg = CacheConfig {
            capacity_bytes: 200,
            tenant_max_bytes: 200,
            tenant_reserved_bytes: 0,
            staleness_guard: Duration::ZERO,
        };
        let cache = Arc::new(AncestryCache::new(&sim, cfg));
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let t = sim.now();
        let x = Some(TenantId(7));
        cache.install_seeds(x, "old", &[node(1)], t);
        cache.install_seeds(None, "hot", &[node(2)], t);
        // Touch "hot" so "old" is the LRU victim.
        assert!(cache.seeds_of("hot").is_some());
        cache.install_seeds(None, "new", &[node(3)], t);
        assert!(cache.seeds_of("old").is_none(), "LRU victim");
        assert!(cache.seeds_of("hot").is_some());
        assert!(cache.seeds_of("new").is_some());
        assert_eq!(cache.stats().evictions, 1);
        // Evicted down to nothing, tenant x leaves no usage row behind.
        assert_eq!(cache.owner_bytes(x), 0);
        assert!(!cache.inner.lock().owners.contains_key(&x));
        cache.check_invariants();
    }

    impl AncestryCache {
        /// The recency structure's own invariants: every entry is filed
        /// exactly once, under its owner and no later than its last
        /// touch; bytes add up three ways; `heads` lists exactly the
        /// front filing of every tenant above its reserved share.
        fn check_invariants(&self) {
            let g = self.inner.lock();
            let mut filed = 0;
            let mut heads = BTreeSet::new();
            for (owner, t) in &g.owners {
                assert!(!t.order.is_empty(), "{owner:?}: empty row kept");
                let mut bytes = 0;
                for (tick, key) in &t.order {
                    let (e_bytes, e_owner, touched, e_filed) = match key {
                        Key::Seed(p) => {
                            let e = &g.seeds[&**p];
                            (e.bytes, e.owner, e.touched, e.filed)
                        }
                        Key::Page(n) => {
                            let e = &g.pages[n];
                            (e.bytes, e.owner, e.touched, e.filed)
                        }
                    };
                    assert_eq!((e_owner, e_filed), (*owner, *tick), "{key:?}");
                    assert!(e_filed <= touched, "{key:?} filed ahead of its touch");
                    bytes += e_bytes;
                }
                assert_eq!(t.bytes, bytes, "{owner:?}");
                filed += t.order.len();
                let front = (t.bytes > self.cfg.tenant_reserved_bytes)
                    .then(|| t.order.first().cloned())
                    .flatten();
                assert_eq!(t.listed, front, "{owner:?}");
                heads.extend(front.map(|f| (f, *owner)));
            }
            assert_eq!(filed, g.seeds.len() + g.pages.len());
            assert_eq!(g.heads, heads);
            let by_entry: usize = g.seeds.values().map(|e| e.bytes).sum::<usize>()
                + g.pages.values().map(|e| e.bytes).sum::<usize>();
            let by_owner: usize = g.owners.values().map(|t| t.bytes).sum();
            assert_eq!((by_entry, by_owner), (g.bytes, g.bytes));
        }

        fn resident(&self) -> (Vec<String>, Vec<PNodeId>) {
            let g = self.inner.lock();
            (
                g.seeds.keys().map(|k| k.to_string()).collect(),
                g.pages.keys().copied().collect(),
            )
        }

        fn resident_pages(&self) -> BTreeMap<PNodeId, Arc<RevPage>> {
            let g = self.inner.lock();
            g.pages
                .iter()
                .map(|(n, e)| (*n, Arc::clone(&e.value)))
                .collect()
        }
    }

    /// The rule this cache replaced, kept as the reference: the victim is
    /// found by scanning every resident entry for the least `touched` —
    /// seeds before pages, then ascending key — among the owners the
    /// quotas permit. Everything else is the plainest possible cache
    /// over the same operations (always attached, never gapped).
    #[derive(Default)]
    struct Model {
        cfg: CacheConfig,
        seeds: BTreeMap<String, ModelEntry<Vec<PNodeId>>>,
        pages: BTreeMap<PNodeId, ModelEntry<RevPage>>,
        tick: u64,
        high: Option<u64>,
        stats: CacheStats,
    }

    struct ModelEntry<T> {
        value: T,
        bytes: usize,
        owner: Option<TenantId>,
        touched: u64,
    }

    impl Model {
        fn attach(&mut self) {
            self.seeds.clear();
            self.pages.clear();
            self.high = None;
        }

        fn owner_bytes(&self, owner: Option<TenantId>) -> usize {
            let seeds = self.seeds.values().filter(|e| e.owner == owner);
            let pages = self.pages.values().filter(|e| e.owner == owner);
            seeds.map(|e| e.bytes).sum::<usize>() + pages.map(|e| e.bytes).sum::<usize>()
        }

        fn bytes(&self) -> usize {
            self.seeds.values().map(|e| e.bytes).sum::<usize>()
                + self.pages.values().map(|e| e.bytes).sum::<usize>()
        }

        fn evict_lru(&mut self, permitted: impl Fn(&Model, Option<TenantId>) -> bool) -> bool {
            let seed = self
                .seeds
                .iter()
                .filter(|(_, e)| permitted(self, e.owner))
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, e)| (k.clone(), e.touched));
            let page = self
                .pages
                .iter()
                .filter(|(_, e)| permitted(self, e.owner))
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, e)| (*k, e.touched));
            match (seed, page) {
                (None, None) => return false,
                (Some((k, st)), Some((_, pt))) if st <= pt => drop(self.seeds.remove(&k)),
                (Some((k, _)), None) => drop(self.seeds.remove(&k)),
                (_, Some((k, _))) => drop(self.pages.remove(&k)),
            }
            self.stats.evictions += 1;
            true
        }

        fn ensure_room(&mut self, owner: Option<TenantId>, need: usize) -> bool {
            let cfg = self.cfg;
            if need > cfg.tenant_max_bytes {
                return false;
            }
            while self.owner_bytes(owner) + need > cfg.tenant_max_bytes {
                if !self.evict_lru(|_, e| e == owner) {
                    return false;
                }
            }
            while self.bytes() + need > cfg.capacity_bytes {
                let permitted =
                    |m: &Model, e| e == owner || m.owner_bytes(e) > cfg.tenant_reserved_bytes;
                if !self.evict_lru(permitted) {
                    return false;
                }
            }
            true
        }

        fn install_seeds(&mut self, owner: Option<TenantId>, program: &str, seeds: &[PNodeId]) {
            self.seeds.remove(program);
            let bytes = entry_bytes(seeds.len());
            if !self.ensure_room(owner, bytes) {
                return;
            }
            self.tick += 1;
            let e = ModelEntry {
                value: seeds.to_vec(),
                bytes,
                owner,
                touched: self.tick,
            };
            self.seeds.insert(program.to_string(), e);
            self.stats.installs += 1;
        }

        fn install_adjacency(
            &mut self,
            owner: Option<TenantId>,
            adj: &RevAdjacency,
            touched: &[PNodeId],
        ) {
            let full = adj.out.iter().map(|(node, out)| {
                let files = out.iter().copied().filter(|d| adj.files.contains(d));
                let page = RevPage {
                    out: out.clone(),
                    files: files.collect(),
                };
                (*node, page)
            });
            let empty = touched
                .iter()
                .filter(|n| !adj.out.contains_key(n))
                .map(|n| (*n, RevPage::default()));
            for (node, page) in full.chain(empty) {
                self.pages.remove(&node);
                let bytes = entry_bytes(page.out.len() + page.files.len());
                if !self.ensure_room(owner, bytes) {
                    continue;
                }
                self.tick += 1;
                let e = ModelEntry {
                    value: page,
                    bytes,
                    owner,
                    touched: self.tick,
                };
                self.pages.insert(node, e);
                self.stats.installs += 1;
            }
        }

        fn seeds_of(&mut self, program: &str) -> Option<Vec<PNodeId>> {
            self.tick += 1;
            let e = self.seeds.get_mut(program)?;
            e.touched = self.tick;
            Some(e.value.clone())
        }

        /// Q.3 (`transitive == false`) or Q.4 from memory; touches what
        /// it read only on a full hit.
        fn serve(&mut self, program: &str, transitive: bool) -> Option<Vec<PNodeId>> {
            let answer = self.walk(program, transitive);
            match &answer {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            let (visited, out) = answer?;
            self.tick += 1;
            self.seeds.get_mut(program)?.touched = self.tick;
            for n in visited {
                self.pages.get_mut(&n)?.touched = self.tick;
            }
            Some(out.into_iter().collect())
        }

        fn walk(
            &self,
            program: &str,
            transitive: bool,
        ) -> Option<(Vec<PNodeId>, BTreeSet<PNodeId>)> {
            let seeds = self.seeds.get(program)?.value.clone();
            let mut out = BTreeSet::new();
            if !transitive {
                for s in &seeds {
                    out.extend(self.pages.get(s)?.value.files.iter().copied());
                }
                return Some((seeds, out));
            }
            let mut seen: BTreeSet<PNodeId> = seeds.iter().copied().collect();
            let mut queue = seeds.clone();
            let mut visited = seeds;
            while let Some(n) = queue.pop() {
                for m in self.pages.get(&n)?.value.out.clone() {
                    if seen.insert(m) {
                        out.insert(m);
                        queue.push(m);
                        visited.push(m);
                    }
                }
            }
            Some((visited, out))
        }

        fn on_event(&mut self, ev: &CommitEvent) {
            self.stats.events += 1;
            if self.high.is_some_and(|h| ev.seq <= h) {
                self.stats.duplicate_events += 1;
                return;
            }
            self.high = Some(ev.seq);
            for uuid in &ev.uuids {
                let before = self.pages.len();
                self.pages.retain(|k, _| k.uuid != *uuid);
                self.stats.invalidations += (before - self.pages.len()) as u64;
            }
            for program in &ev.programs {
                if self.seeds.remove(program).is_some() {
                    self.stats.invalidations += 1;
                }
            }
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.seeds.len() + self.pages.len(),
                bytes: self.bytes(),
                // Only a store fetch decodes; the model installs adjacencies.
                decodes: 0,
                ..self.stats
            }
        }
    }

    /// The differential's world: 12 nodes, two versions to a uuid, a
    /// fixed DAG over them and four programs seeded two nodes each.
    fn world_node(i: usize) -> PNodeId {
        PNodeId {
            uuid: Uuid(1 + i as u128 / 2),
            version: 1 + i as u32 % 2,
        }
    }

    fn world_adjacency(mask: u16) -> RevAdjacency {
        let mut adj = RevAdjacency::default();
        for i in (0..8).filter(|i| mask & (1 << i) != 0) {
            let mut out = vec![world_node(i + 4)];
            if i < 4 {
                out.push(world_node(8 + i));
            }
            adj.out.insert(world_node(i), out);
        }
        adj.files.extend([5, 8, 9, 10, 11].map(world_node));
        adj
    }

    const PROGRAMS: [&str; 4] = ["p0", "p1", "p2", "p3"];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed cache and the scanning reference, driven by the
        /// same operations, agree after every one of them.
        #[test]
        fn eviction_matches_the_scanning_reference(
            ops in proptest::collection::vec(
                (0u8..16, 0u8..4, any::<u16>(), any::<u16>()),
                1..160,
            ),
        ) {
            // A full adjacency is ~1 KB: one hydration overflows a
            // tenant's ceiling, two tenants overflow the cache, and a
            // tenant down to a page or two sits inside its reserve.
            let cfg = CacheConfig {
                capacity_bytes: 1200,
                tenant_max_bytes: 700,
                tenant_reserved_bytes: 150,
                staleness_guard: Duration::ZERO,
            };
            let sim = Sim::new();
            let cache = AncestryCache::new(&sim, cfg);
            let mut model = Model {
                cfg,
                ..Model::default()
            };
            cache.attach();
            let owners = [None, Some(TenantId(1)), Some(TenantId(2)), Some(TenantId(3))];
            let mut seq = 0;
            for (kind, owner, a, b) in ops {
                // Every fetch starts after every earlier invalidation.
                sim.sleep(Duration::from_secs(1));
                let t = sim.now();
                let owner = owners[owner as usize];
                let p = a as usize % 4;
                let program = PROGRAMS[p];
                match kind {
                    0..=2 => {
                        let seeds = [world_node(2 * p), world_node(2 * p + 1)];
                        let seeds = &seeds[..1 + b as usize % 2];
                        cache.install_seeds(owner, program, seeds, t);
                        model.install_seeds(owner, program, seeds);
                    }
                    3..=6 => {
                        // Usually the whole adjacency, as the engine
                        // installs it; sometimes a random part of it.
                        let adj = world_adjacency(if kind < 6 { !0 } else { b });
                        let touched: Vec<PNodeId> = (0..12)
                            .filter(|i| a & (1 << i) != 0)
                            .map(world_node)
                            .collect();
                        cache.install_adjacency(owner, &adj, &touched, t);
                        model.install_adjacency(owner, &adj, &touched);
                    }
                    7..=8 => prop_assert_eq!(cache.serve_q3(program), model.serve(program, false)),
                    9..=11 => prop_assert_eq!(cache.serve_q4(program), model.serve(program, true)),
                    12 => prop_assert_eq!(cache.seeds_of(program), model.seeds_of(program)),
                    13..=14 => {
                        // A third of the deliveries are replays.
                        if b % 3 != 0 {
                            seq += 1;
                        }
                        let programs = if b % 2 == 0 { vec![program] } else { vec![] };
                        let ev = event(seq, vec![Uuid(1 + u128::from(b) % 6)], programs);
                        cache.on_event(&ev);
                        model.on_event(&ev);
                    }
                    _ => {
                        cache.attach();
                        model.attach();
                        seq = 0;
                    }
                }
                cache.check_invariants();
                let (seeds, pages) = cache.resident();
                prop_assert_eq!(seeds, model.seeds.keys().cloned().collect::<Vec<_>>());
                prop_assert_eq!(pages, model.pages.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(cache.stats(), model.stats());
                for o in owners {
                    prop_assert_eq!(cache.owner_bytes(o), model.owner_bytes(o));
                }
            }
        }
    }

    /// Rule 2 of the eviction order: one warm `serve_q4` stamps the seed
    /// entry and every page it walked with one tick, and forced evictions
    /// then take the seed entry first and the pages in ascending id order
    /// — whatever order they were installed or walked in.
    #[test]
    fn entries_sharing_a_tick_leave_seed_first_then_ascending_page() {
        let sim = Sim::new();
        // Five one-id entries fill the cache exactly.
        let cfg = CacheConfig {
            capacity_bytes: 5 * entry_bytes(1),
            tenant_max_bytes: 5 * entry_bytes(1),
            tenant_reserved_bytes: 0,
            staleness_guard: Duration::ZERO,
        };
        let cache = AncestryCache::new(&sim, cfg);
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let t = sim.now();
        let page = |from: u128, to: u128| {
            let mut adj = RevAdjacency::default();
            adj.out.insert(node(from), vec![node(to)]);
            adj
        };
        // etl → 5 → 9 → 7 → 2, installed coldest-last.
        for (from, to) in [(9, 7), (7, 2), (5, 9), (2, 2)] {
            cache.install_adjacency(None, &page(from, to), &[], t);
        }
        cache.install_seeds(None, "etl", &[node(5)], t);
        assert_eq!(cache.serve_q4("etl"), Some(vec![node(2), node(7), node(9)]));
        let mut order = Vec::new();
        for i in 0..5 {
            let before = cache.resident();
            cache.install_adjacency(None, &page(100 + i, 100 + i), &[], t);
            let after = cache.resident();
            order.extend(before.0.into_iter().filter(|k| !after.0.contains(k)));
            let gone = before.1.iter().filter(|k| !after.1.contains(k));
            order.extend(gone.map(|k| k.uuid.0.to_string()));
            cache.check_invariants();
        }
        assert_eq!(order, ["etl", "2", "5", "7", "9"]);
    }

    /// Rule 3: with B at its reserved share, A's flood takes A's own
    /// coldest entry even though B holds a colder one; one byte above
    /// the reserve, B's is the coldest permitted and goes instead.
    #[test]
    fn a_colder_entry_of_a_reserved_tenant_is_skipped() {
        let (a, b) = (Some(TenantId(1)), Some(TenantId(2)));
        let survivors = |tenant_reserved_bytes| {
            let sim = Sim::new();
            // Three one-id entries fit.
            let cfg = CacheConfig {
                capacity_bytes: 3 * entry_bytes(1),
                tenant_max_bytes: 3 * entry_bytes(1),
                tenant_reserved_bytes,
                staleness_guard: Duration::ZERO,
            };
            let cache = AncestryCache::new(&sim, cfg);
            cache.attach();
            sim.sleep(Duration::from_secs(1));
            cache.install_seeds(b, "b-cold", &[node(1)], sim.now());
            for (i, program) in ["a-old", "a-mid", "a-new"].into_iter().enumerate() {
                cache.install_seeds(a, program, &[node(2 + i as u128)], sim.now());
            }
            cache.check_invariants();
            cache.resident().0
        };
        assert_eq!(survivors(entry_bytes(1)), ["a-mid", "a-new", "b-cold"]);
        assert_eq!(survivors(entry_bytes(1) - 1), ["a-mid", "a-new", "a-old"]);
    }

    use cloudprov_cloud::{AwsProfile, CloudEnv, PutItem};
    use cloudprov_core::index as schema;
    use cloudprov_core::ProvenanceStore;

    use crate::source::IndexSource;
    use crate::{CacheOutcome, Mode, Plan, QueryEngine};

    const INDEX: &str = "prov_idx";

    /// Writes `ancestor`'s edges to `deps`, each `(dependent, is_file)`.
    fn put_edges(env: &CloudEnv, ancestor: PNodeId, deps: &[(PNodeId, bool)], replace: bool) {
        let items = deps
            .iter()
            .map(|&(dep, file)| {
                let mut attrs = vec![(schema::ATTR_OUT.to_string(), dep.to_string())];
                if file {
                    attrs.push((schema::ATTR_FILE.to_string(), dep.to_string()));
                }
                PutItem {
                    name: schema::rev_item_name(ancestor, dep),
                    attrs,
                    replace,
                }
            })
            .collect();
        env.sdb().batch_put_attributes(INDEX, items).unwrap();
    }

    /// An engine over a hand-written index, behind an attached cache:
    /// `etl` seeds process 1 and `load` process 2; 1 wrote file 3, which
    /// process 4 read to write file 5.
    fn indexed() -> (CloudEnv, QueryEngine, Arc<AncestryCache>) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        env.sdb().create_domain("prov");
        env.sdb().create_domain(INDEX);
        for (program, proc) in [("etl", node(1)), ("load", node(2))] {
            let item = PutItem {
                name: schema::name_item_name(program, proc),
                attrs: vec![(schema::ATTR_PROC.into(), proc.to_string())],
                replace: false,
            };
            env.sdb().put_attributes(INDEX, item).unwrap();
        }
        put_edges(&env, node(1), &[(node(3), true)], false);
        put_edges(&env, node(3), &[(node(4), false)], false);
        put_edges(&env, node(4), &[(node(5), true)], false);
        let store = ProvenanceStore::Database {
            domain: "prov".into(),
            spill_bucket: "spill".into(),
            index_domain: Some(INDEX.into()),
        };
        let cache = Arc::new(AncestryCache::new(&sim, CacheConfig::default()));
        cache.attach();
        let engine = QueryEngine::new(&env, store, "data").with_cache(Arc::clone(&cache));
        (env, engine, cache)
    }

    /// Asserts `program`'s Q.3 and Q.4 both miss the cache and equal the
    /// uncached index plan's answers.
    fn assert_misses_match_the_index(engine: &QueryEngine, cache: &AncestryCache, program: &str) {
        let index = engine.with_plan_ref(Plan::Index);
        cache.attach();
        let q3 = engine.q3_outputs_of(program, Mode::Sequential).unwrap();
        assert_eq!(q3.plan.cache, Some(CacheOutcome::Miss), "{program}");
        let want = index.q3_outputs_of(program, Mode::Sequential).unwrap();
        assert_eq!(q3.nodes, want.nodes, "{program} Q.3");
        cache.attach();
        let q4 = engine.q4_descendants_of(program, Mode::Sequential).unwrap();
        assert_eq!(q4.plan.cache, Some(CacheOutcome::Miss), "{program}");
        let want = index.q4_descendants_of(program, Mode::Sequential).unwrap();
        assert_eq!(q4.nodes, want.nodes, "{program} Q.4");
    }

    #[test]
    fn a_repeat_miss_reuses_the_decoded_index() {
        let (_env, engine, cache) = indexed();
        let first = engine.q4_descendants_of("etl", Mode::Sequential).unwrap();
        assert_eq!(first.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(first.nodes, vec![node(3), node(4), node(5)]);
        let seated = cache.resident_pages();
        // A flush drops the entries, not the decoded snapshot.
        cache.attach();
        let second = engine.q4_descendants_of("etl", Mode::Sequential).unwrap();
        assert_eq!(second.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(second.nodes, first.nodes);
        assert_eq!(cache.stats().decodes, 1, "one decode for one index state");
        let reseated = cache.resident_pages();
        for n in [1, 3, 4].map(node) {
            assert!(Arc::ptr_eq(&seated[&n], &reseated[&n]), "{n}: page shared");
        }
        // The leaf's empty page is the install's, not the index's.
        assert_eq!(*reseated[&node(5)], RevPage::default());
    }

    #[test]
    fn an_index_write_forces_a_fresh_decode() {
        let (env, engine, cache) = indexed();
        engine.q4_descendants_of("etl", Mode::Sequential).unwrap();
        assert_eq!(cache.stats().decodes, 1);
        // `load` now also writes file 3, which is file-marked under
        // process 1's item only: Q.3's filter is index-wide.
        put_edges(&env, node(2), &[(node(3), false)], false);
        let q4 = engine.q4_descendants_of("load", Mode::Sequential).unwrap();
        assert_eq!(q4.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(cache.stats().decodes, 2, "a new version decodes afresh");
        assert_eq!(q4.nodes, vec![node(3), node(4), node(5)]);
        assert_misses_match_the_index(&engine, &cache, "load");
        assert_misses_match_the_index(&engine, &cache, "etl");
        let q3 = engine.q3_outputs_of("load", Mode::Sequential).unwrap();
        assert_eq!(q3.nodes, vec![node(3)], "a file under two ancestors");
        assert_eq!(cache.stats().decodes, 2, "and only once");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Under random puts, replaces and deletes of `rev_` items, read
        /// back through eventually-consistent SELECTs, the memoized
        /// decode equals a fresh one after every fetch, and it parses
        /// exactly when the fetched versions are not the last decoded.
        #[test]
        fn the_decode_memo_matches_a_fresh_decode(
            ops in proptest::collection::vec((0u8..8, any::<u16>()), 1..60),
        ) {
            let sim = Sim::new();
            let mut profile = AwsProfile::instant();
            profile.consistency =
                cloudprov_cloud::ConsistencyParams::eventual(Duration::from_secs(4));
            let env = CloudEnv::new(&sim, profile);
            env.sdb().create_domain(INDEX);
            let idx = IndexSource::new(&env, "prov", INDEX, 1, 20);
            let cache = AncestryCache::new(&sim, CacheConfig::default());
            let mut last: Vec<Arc<Attributes>> = Vec::new();
            let mut decodes = 0;
            for (kind, r) in ops {
                let ancestor = node(1 + u128::from(r % 4));
                let dep = node(5 + u128::from(r / 4 % 6));
                match kind {
                    0..=2 => put_edges(&env, ancestor, &[(dep, r & 0x100 != 0)], r & 0x200 != 0),
                    3 => env
                        .sdb()
                        .delete_item(INDEX, &schema::rev_item_name(ancestor, dep))
                        .unwrap(),
                    4 => sim.sleep(Duration::from_millis(u64::from(r % 3000))),
                    _ => {
                        let items = idx.rev_items().unwrap();
                        let memo = cache.decode(&items);
                        let fresh = IndexPages::new(RevAdjacency::decode(&items));
                        prop_assert_eq!(&*memo, &fresh);
                        let same = last.len() == items.len()
                            && last.iter().zip(&items).all(|(v, i)| Arc::ptr_eq(v, &i.attrs));
                        if !same {
                            decodes += 1;
                            last = items.iter().map(|i| Arc::clone(&i.attrs)).collect();
                        }
                        prop_assert_eq!(cache.stats().decodes, decodes);
                    }
                }
            }
        }
    }
}
