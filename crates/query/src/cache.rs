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
//! * hit — O(nodes visited · log n) for the walk; each entry it touches
//!   is re-filed at the back of its owner's queue, in rule-2 order, at
//!   O(1) (an entry holds its slot and its owner's row). The filing it
//!   leaves behind goes stale and is dropped when it reaches the front,
//!   or by compaction once stale filings outnumber live ones;
//! * install — a miss installs a whole snapshot. Each page is admitted
//!   and displaces its resident copy, O(log n), but only the pages the
//!   call leaves standing are inserted, filed and charged: the call
//!   holds its own pages in a FIFO (they are its owner's hottest
//!   entries, so its own evictions take them oldest first once nothing
//!   colder qualifies) and seats the survivors when it ends, so a page
//!   the call itself evicts never touches the map, a queue or `heads`;
//! * evict — O(log n), plus the stale filings it skips;
//! * miss — one parse per set of stored index versions, per world (see
//!   [`IndexSource`](crate::IndexSource)); entries are installed by
//!   reference to the decoded pages;
//! * invalidate — O(pages of the uuid · log n);
//! * flush — frees everything it drops, nothing more.
//!
//! `capacity_bytes` and the quotas count modelled bytes (`entry_bytes`
//! per entry), not host memory: a page entry is charged in full though
//! its page is shared with the decoded snapshot.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::TenantId;
use cloudprov_core::feed::{CommitEvent, CommitEventSink};
use cloudprov_pass::{PNodeId, Uuid};
use cloudprov_sim::{Sim, SimTime};

use crate::planner::CacheState;
use crate::source::{IndexPages, RevAdjacency, RevPage};

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

/// An entry's place in its owner's recency order: `(tick, key, slot)`.
/// Filings order by tick, then key (rule 2); the entry's slot tells
/// whether the filing is still live ([`Slots::live`]).
type Filing = (u64, Key, u32);

#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    bytes: usize,
    owner: Option<TenantId>,
    /// The owner's row in [`Rows`].
    row: u32,
    /// Where [`Slots`] keeps this entry's recency.
    slot: u32,
}

/// Every resident entry's recency, by slot: the tick of its last install
/// or lookup, which is the tick of its one live filing; 0 while the slot
/// is free. Ticks only grow, so a filing is live exactly while its slot
/// still holds its tick — neither a re-filed entry nor a later entry in
/// the same slot matches — and liveness costs no map lookup.
#[derive(Default)]
struct Slots {
    ticks: Vec<u64>,
    free: Vec<u32>,
}

impl Slots {
    /// A free slot, now holding `tick`.
    fn claim(&mut self, tick: u64) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.ticks[slot as usize] = tick;
                slot
            }
            None => {
                self.ticks.push(tick);
                (self.ticks.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, slot: u32) {
        self.ticks[slot as usize] = 0;
        self.free.push(slot);
    }

    fn live(&self, (tick, _, slot): &Filing) -> bool {
        self.ticks[*slot as usize] == *tick
    }
}

/// The quota owners' rows, kept by index so that an entry reaches its
/// owner's row without a map lookup. A row exists only while its owner
/// has entries.
#[derive(Default)]
struct Rows {
    by_owner: BTreeMap<Option<TenantId>, u32>,
    rows: Vec<Tenant>,
    free: Vec<u32>,
}

impl Rows {
    fn get(&self, owner: Option<TenantId>) -> Option<&Tenant> {
        self.by_owner.get(&owner).map(|&i| &self.rows[i as usize])
    }

    fn get_mut(&mut self, owner: Option<TenantId>) -> Option<&mut Tenant> {
        let i = *self.by_owner.get(&owner)?;
        Some(&mut self.rows[i as usize])
    }

    /// `owner`'s row, made (empty) if it has none.
    fn claim(&mut self, owner: Option<TenantId>) -> u32 {
        if let Some(&i) = self.by_owner.get(&owner) {
            return i;
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.rows.push(Tenant::default());
                (self.rows.len() - 1) as u32
            }
        };
        self.by_owner.insert(owner, i);
        i
    }

    /// Drops `owner`'s row, `i`, left with no entries.
    fn release(&mut self, owner: Option<TenantId>, i: u32) {
        self.by_owner.remove(&owner);
        self.rows[i as usize] = Tenant::default();
        self.free.push(i);
    }
}

/// One quota owner's share.
#[derive(Default)]
struct Tenant {
    bytes: usize,
    /// Resident entries charged to this owner.
    entries: usize,
    /// The owner's filings, coldest first. Each install or touch
    /// appends one under a fresh tick, so the queue stays in eviction
    /// order; a filing whose entry has since left or been re-filed is
    /// stale.
    order: VecDeque<Filing>,
    /// This owner's element of [`Inner::heads`] while `bytes` exceeds
    /// the reserved share: `order`'s front when last listed, so a lower
    /// bound on its coldest live filing.
    listed: Option<Filing>,
}

/// Stale filings an owner's queue may hold beyond its live ones before
/// [`compact`] drops them.
const STALE_SLACK: usize = 32;

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
    seeds: Seeds,
    pages: Pages,
    quarantined_uuids: BTreeMap<Uuid, SimTime>,
    quarantined_programs: BTreeMap<String, SimTime>,
    owners: Rows,
    /// Every owner's `listed` filing (those above their reserved share),
    /// coldest first.
    heads: BTreeSet<(Filing, Option<TenantId>)>,
    slots: Slots,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

/// The pages one install call has seated so far, oldest first, none of
/// them yet in [`Inner::pages`] or a queue. They are the installing
/// owner's hottest entries, so once nothing colder qualifies the call's
/// own evictions take them from the front; the survivors are seated
/// when it ends.
#[derive(Default)]
struct Seated<'a> {
    /// `(node, page, bytes, tick, slot)`, in tick order.
    pages: VecDeque<(PNodeId, &'a Arc<RevPage>, usize, u64, u32)>,
    bytes: usize,
}

impl Seated<'_> {
    /// Evicts the page at `i` (the oldest at 0), if there is one.
    fn evict(&mut self, slots: &mut Slots, i: usize) -> bool {
        let Some((_, _, bytes, _, slot)) = self.pages.remove(i) else {
            return false;
        };
        self.bytes -= bytes;
        slots.release(slot);
        true
    }
}

/// The shared, feed-invalidated ancestry cache. See the module docs for
/// the coherence argument.
pub struct AncestryCache {
    sim: Sim,
    cfg: CacheConfig,
    inner: Mutex<Inner>,
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
        let g = self.inner.lock();
        let mut s = g.stats;
        s.entries = g.seeds.len() + g.pages.len();
        s.bytes = g.bytes;
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
        let g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let warm = match kind {
            crate::QueryKind::Q3 => q3_walk(&g.seeds, &g.pages, program).is_some(),
            crate::QueryKind::Q4 => q4_walk(&g.seeds, &g.pages, program).is_some(),
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
        self.serve(program, q3_walk, |_, visited| {
            let files = visited.iter().flat_map(|(_, e)| e.value.files.iter());
            files
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        })
    }

    /// Serves Q.4 (transitive descendants of `program`) from memory, or
    /// `None` on a miss. Counts a hit/miss.
    pub fn serve_q4(&self, program: &str) -> Option<Vec<PNodeId>> {
        self.serve(program, q4_walk, |seeds, visited| {
            let mut seeds = seeds.to_vec();
            seeds.sort_unstable();
            let walked = visited.iter().map(|(n, _)| *n);
            walked.filter(|n| seeds.binary_search(n).is_err()).collect()
        })
    }

    /// One lookup served from memory: `walk` finds the entries it reads,
    /// or `None` on a miss; on a hit `answer` computes the result from
    /// the seeds and the pages visited, ascending, and they are re-filed
    /// under one fresh tick. Counts a hit/miss.
    fn serve<W>(
        &self,
        program: &str,
        walk: W,
        answer: impl FnOnce(&[PNodeId], &[Visit<'_>]) -> Vec<PNodeId>,
    ) -> Option<Vec<PNodeId>>
    where
        W: for<'a> Fn(&'a Seeds, &'a Pages, &str) -> Option<Walk<'a>>,
    {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let Inner {
            seeds,
            pages,
            owners,
            slots,
            tick,
            stats,
            ..
        } = &mut *g;
        let Some((seed, mut visited)) = walk(seeds, pages, program) else {
            stats.misses += 1;
            return None;
        };
        stats.hits += 1;
        visited.sort_unstable_by_key(|(n, _)| *n);
        visited.dedup_by_key(|(n, _)| *n);
        let out = answer(&seed.1.value, &visited);
        *tick += 1;
        hit(&mut owners.rows, slots, *tick, seed, visited);
        Some(out)
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
        let Inner {
            seeds,
            owners,
            slots,
            tick,
            ..
        } = &mut *g;
        let (program, e) = seeds.get_key_value(program)?;
        refile(
            &mut owners.rows,
            slots,
            e,
            Key::Seed(Arc::clone(program)),
            *tick,
        );
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
        if !self.ensure_room(&mut g, owner, bytes, &mut Seated::default()) {
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        let slot = g.slots.claim(tick);
        let row = g.owners.claim(owner);
        let e = Entry {
            value: seeds.to_vec(),
            bytes,
            owner,
            row,
            slot,
        };
        let program: Arc<str> = program.into();
        g.seeds.insert(Arc::clone(&program), e);
        let filing = (tick, Key::Seed(program), slot);
        self.charge(&mut g, owner, row, bytes, [filing].into_iter());
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

    /// [`install_adjacency`](Self::install_adjacency) from decoded
    /// pages: every entry shares its page instead of copying it. Each
    /// page is admitted, displaces its resident copy and makes room in
    /// turn, exactly as if seated at once; only the pages the call's
    /// own later evictions leave standing are seated, when it ends.
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
        let empty = Arc::new(RevPage::default());
        let mut seated = Seated::default();
        for (node, page) in &pages.pages {
            self.install_page(&mut g, &mut seated, owner, *node, page, fetch_start);
        }
        let mut leaves = BTreeSet::new();
        for node in touched {
            if pages.pages.contains_key(node) {
                continue;
            }
            // A repeated leaf displaces its own earlier seat.
            if !leaves.insert(*node) {
                if let Some(i) = seated.pages.iter().position(|(n, ..)| n == node) {
                    seated.evict(&mut g.slots, i);
                }
            }
            self.install_page(&mut g, &mut seated, owner, *node, &empty, fetch_start);
        }
        self.seat(&mut g, owner, seated);
    }

    fn install_page<'a>(
        &self,
        g: &mut Inner,
        seated: &mut Seated<'a>,
        owner: Option<TenantId>,
        node: PNodeId,
        page: &'a Arc<RevPage>,
        fetch_start: SimTime,
    ) {
        let quarantined = g.quarantined_uuids.get(&node.uuid).copied();
        if !self.admissible(g, fetch_start, quarantined) {
            g.stats.refused_installs += 1;
            return;
        }
        // A resident copy leaves first, and the new page is not yet
        // seated, so the evictions that make its room can pick neither.
        self.remove_page(g, node);
        let bytes = entry_bytes(page.out.len() + page.files.len());
        if !self.ensure_room(g, owner, bytes, seated) {
            return;
        }
        g.tick += 1;
        let slot = g.slots.claim(g.tick);
        seated.pages.push_back((node, page, bytes, g.tick, slot));
        seated.bytes += bytes;
        g.stats.installs += 1;
    }

    /// Seats the pages that survived their install call, oldest first.
    fn seat(&self, g: &mut Inner, owner: Option<TenantId>, seated: Seated<'_>) {
        if seated.pages.is_empty() {
            return;
        }
        let row = g.owners.claim(owner);
        for &(node, page, bytes, _, slot) in &seated.pages {
            let e = Entry {
                value: Arc::clone(page),
                bytes,
                owner,
                row,
                slot,
            };
            let displaced = g.pages.insert(node, e);
            debug_assert!(displaced.is_none(), "a seated node left the map at install");
        }
        let filings = seated
            .pages
            .into_iter()
            .map(|(node, _, _, tick, slot)| (tick, Key::Page(node), slot));
        self.charge(g, owner, row, seated.bytes, filings);
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

    /// Makes room for `need` more bytes charged to `owner`, beside the
    /// pages its install call has `seated` so far: evicts `owner`'s own
    /// coldest entries past its per-tenant ceiling, then the coldest
    /// permitted entries past capacity (module docs, *Eviction order*).
    /// Every resident entry is colder than the call's own pages, which
    /// go last, oldest first. Returns false (install refused) when no
    /// evictable entry remains.
    fn ensure_room(
        &self,
        g: &mut Inner,
        owner: Option<TenantId>,
        need: usize,
        seated: &mut Seated<'_>,
    ) -> bool {
        if need > self.cfg.tenant_max_bytes {
            return false;
        }
        while g.owner_bytes(owner) + seated.bytes + need > self.cfg.tenant_max_bytes {
            match self.coldest(g, owner) {
                Some((_, victim, _)) => self.evict(g, &victim),
                None if seated.evict(&mut g.slots, 0) => g.stats.evictions += 1,
                None => return false,
            }
        }
        while g.bytes + seated.bytes + need > self.cfg.capacity_bytes {
            match self.coldest_permitted(g, owner) {
                Some(victim) => self.evict(g, &victim),
                None if seated.evict(&mut g.slots, 0) => g.stats.evictions += 1,
                None => return false,
            }
        }
        true
    }

    /// The coldest resident entry `owner` may evict for room: its own
    /// coldest, or the coldest of any tenant above its reserved share.
    fn coldest_permitted(&self, g: &mut Inner, owner: Option<TenantId>) -> Option<Key> {
        // A listed head is only a lower bound until its owner's stale
        // front filings are dropped; that relists it, so retry until the
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
        own.into_iter().chain(listed).min().map(|(_, key, _)| key)
    }

    /// `owner`'s coldest resident entry's filing, after dropping the
    /// stale filings at the front of its queue.
    fn coldest(&self, g: &mut Inner, owner: Option<TenantId>) -> Option<Filing> {
        let Inner {
            owners,
            heads,
            slots,
            ..
        } = g;
        let t = owners.get_mut(owner)?;
        while let Some(front) = t.order.front() {
            if slots.live(front) {
                break;
            }
            t.order.pop_front();
        }
        self.relist(t, heads, owner);
        t.order.front().cloned()
    }

    fn evict(&self, g: &mut Inner, victim: &Key) {
        match victim {
            Key::Seed(p) => self.remove_seeds(g, p),
            Key::Page(n) => self.remove_page(g, *n),
        };
        g.stats.evictions += 1;
    }

    fn remove_seeds(&self, g: &mut Inner, program: &str) -> bool {
        match g.seeds.remove(program) {
            Some(e) => {
                self.uncharge(g, &e);
                true
            }
            None => false,
        }
    }

    fn remove_page(&self, g: &mut Inner, node: PNodeId) -> bool {
        match g.pages.remove(&node) {
            Some(e) => {
                self.uncharge(g, &e);
                true
            }
            None => false,
        }
    }

    /// Charges newly seated entries, `bytes` in all, to `owner`, whose
    /// row is `row`, and files them, in order, at the back of its queue.
    /// Their entries are already resident.
    fn charge(
        &self,
        g: &mut Inner,
        owner: Option<TenantId>,
        row: u32,
        bytes: usize,
        filings: impl ExactSizeIterator<Item = Filing>,
    ) {
        g.bytes += bytes;
        let Inner {
            owners,
            heads,
            slots,
            ..
        } = g;
        let t = &mut owners.rows[row as usize];
        t.bytes += bytes;
        t.entries += filings.len();
        t.order.extend(filings);
        compact(t, slots);
        self.relist(t, heads, owner);
    }

    /// Reverses [`charge`](Self::charge) for a removed entry, whose
    /// filing goes stale; an owner left with nothing loses its row.
    fn uncharge<T>(&self, g: &mut Inner, e: &Entry<T>) {
        g.bytes -= e.bytes;
        g.slots.release(e.slot);
        let owner = e.owner;
        let Inner { owners, heads, .. } = g;
        let t = &mut owners.rows[e.row as usize];
        t.bytes -= e.bytes;
        t.entries -= 1;
        if t.entries > 0 {
            self.relist(t, heads, owner);
            return;
        }
        if let Some(f) = t.listed.take() {
            heads.remove(&(f, owner));
        }
        owners.release(owner, e.row);
    }

    /// Brings `owner`'s element of `heads` back in step with its row.
    fn relist(
        &self,
        t: &mut Tenant,
        heads: &mut BTreeSet<(Filing, Option<TenantId>)>,
        owner: Option<TenantId>,
    ) {
        let want = if t.bytes > self.cfg.tenant_reserved_bytes {
            t.order.front()
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
        g.owners = Rows::default();
        g.heads.clear();
        g.slots = Slots::default();
        g.bytes = 0;
    }
}

type Seeds = BTreeMap<Arc<str>, Entry<Vec<PNodeId>>>;
type Pages = BTreeMap<PNodeId, Entry<Arc<RevPage>>>;

/// Drops `t`'s stale filings once they outnumber its live ones by more
/// than [`STALE_SLACK`]. The queue keeps its order, and a listed front
/// stays a lower bound, since only filings leave it.
fn compact(t: &mut Tenant, slots: &Slots) {
    if t.order.len() > 2 * t.entries + STALE_SLACK {
        t.order.retain(|f| slots.live(f));
    }
}

impl Inner {
    fn owner_bytes(&self, owner: Option<TenantId>) -> usize {
        self.owners.get(owner).map_or(0, |t| t.bytes)
    }
}

/// A resident page a lookup reads, by node.
type Visit<'a> = (PNodeId, &'a Entry<Arc<RevPage>>);

/// A lookup's seed entry, with its program, and the pages it visited.
type Walk<'a> = ((&'a Arc<str>, &'a Entry<Vec<PNodeId>>), Vec<Visit<'a>>);

/// Q.3's reads: `program`'s seed entry and its seeds' own pages, or
/// `None` when any of them is not resident.
fn q3_walk<'a>(seeds: &'a Seeds, pages: &'a Pages, program: &str) -> Option<Walk<'a>> {
    let seed = seeds.get_key_value(program)?;
    let visited = seed.1.value.iter().map(|s| Some((*s, pages.get(s)?)));
    Some((seed, visited.collect::<Option<_>>()?))
}

/// Q.4's reads: the same traversal as
/// [`local::walk`](crate::source::local::walk), seeds included, but a
/// node *without* a resident page is a miss, not a leaf: only an
/// installed empty page proves it has no dependents.
fn q4_walk<'a>(seeds: &'a Seeds, pages: &'a Pages, program: &str) -> Option<Walk<'a>> {
    let seed = seeds.get_key_value(program)?;
    let mut seen: BTreeSet<PNodeId> = seed.1.value.iter().copied().collect();
    let mut queue: Vec<PNodeId> = seed.1.value.clone();
    let mut visited = Vec::with_capacity(seen.len());
    while let Some(n) = queue.pop() {
        let e = pages.get(&n)?;
        visited.push((n, e));
        for &m in &e.value.out {
            if seen.insert(m) {
                queue.push(m);
            }
        }
    }
    Some((seed, visited))
}

/// Re-files a hit's entries under its one fresh `tick`: the seed entry,
/// then the pages it `visited`, which are in ascending order, so each
/// owner's queue gets them in rule-2 order.
fn hit(
    rows: &mut [Tenant],
    slots: &mut Slots,
    tick: u64,
    (program, seed): (&Arc<str>, &Entry<Vec<PNodeId>>),
    visited: Vec<Visit<'_>>,
) {
    refile(rows, slots, seed, Key::Seed(Arc::clone(program)), tick);
    for (n, e) in visited {
        refile(rows, slots, e, Key::Page(n), tick);
    }
}

/// Moves `e`, which `key` names, to `tick`, filing it at the back of its
/// owner's queue; its old filing goes stale. Already at `tick`, it stays.
fn refile<T>(rows: &mut [Tenant], slots: &mut Slots, e: &Entry<T>, key: Key, tick: u64) {
    let at = &mut slots.ticks[e.slot as usize];
    if *at == tick {
        return;
    }
    *at = tick;
    let t = &mut rows[e.row as usize];
    t.order.push_back((tick, key, e.slot));
    compact(t, slots);
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
        assert!(cache.inner.lock().owners.get(x).is_none());
        cache.check_invariants();
    }

    impl AncestryCache {
        /// The recency structure's own invariants: every entry is filed
        /// live exactly once, under its owner and at its last touch;
        /// each owner's queue is in eviction order (tick, then rule 2)
        /// and compacted; bytes add up three ways; `heads` lists, for
        /// exactly the tenants above their reserved share, a lower bound
        /// on each one's coldest live filing; and a slot or a row is free
        /// exactly when nothing holds it.
        fn check_invariants(&self) {
            let g = self.inner.lock();
            let mut filed = BTreeSet::new();
            let mut heads = BTreeSet::new();
            let rows = &g.owners;
            for (owner, &row) in &rows.by_owner {
                let t = &rows.rows[row as usize];
                assert!(t.entries > 0, "{owner:?}: empty row kept");
                let ascending = t.order.iter().zip(t.order.iter().skip(1));
                for (a, b) in ascending {
                    assert!(
                        (&a.0, &a.1) < (&b.0, &b.1),
                        "{owner:?}: {a:?} filed before {b:?}"
                    );
                }
                assert!(
                    t.order.len() <= 2 * t.entries + STALE_SLACK,
                    "{owner:?}: uncompacted"
                );
                let mut bytes = 0;
                let mut first_live = None;
                for f in t.order.iter().filter(|f| g.slots.live(f)) {
                    let (e_bytes, e_owner, e_row, e_slot) = match &f.1 {
                        Key::Seed(p) => {
                            let e = &g.seeds[&**p];
                            (e.bytes, e.owner, e.row, e.slot)
                        }
                        Key::Page(n) => {
                            let e = &g.pages[n];
                            (e.bytes, e.owner, e.row, e.slot)
                        }
                    };
                    assert_eq!((e_owner, e_row, e_slot), (*owner, row, f.2), "{f:?}");
                    assert!(filed.insert(f.clone()), "{f:?} filed twice");
                    first_live.get_or_insert(f);
                    bytes += e_bytes;
                }
                assert_eq!(t.bytes, bytes, "{owner:?}");
                assert_eq!(
                    t.listed.is_some(),
                    t.bytes > self.cfg.tenant_reserved_bytes,
                    "{owner:?}"
                );
                if let Some(listed) = &t.listed {
                    assert!(Some(listed) <= first_live, "{owner:?}: head past its front");
                    heads.insert((listed.clone(), *owner));
                }
            }
            let entries = g.seeds.len() + g.pages.len();
            assert_eq!(filed.len(), entries, "an entry without a live filing");
            let by_entry: usize = g.seeds.values().map(|e| e.bytes).sum::<usize>()
                + g.pages.values().map(|e| e.bytes).sum::<usize>();
            let live_rows = || rows.by_owner.values().map(|&r| &rows.rows[r as usize]);
            let by_owner: usize = live_rows().map(|t| t.bytes).sum();
            assert_eq!((by_entry, by_owner), (g.bytes, g.bytes));
            let counted: usize = live_rows().map(|t| t.entries).sum();
            assert_eq!(counted, entries);
            assert_eq!(g.heads, heads);
            let held: BTreeSet<u32> = g
                .seeds
                .values()
                .map(|e| e.slot)
                .chain(g.pages.values().map(|e| e.slot))
                .collect();
            let free: BTreeSet<u32> = g.slots.free.iter().copied().collect();
            assert_eq!(
                held.len() + free.len(),
                g.slots.ticks.len(),
                "a slot lost or shared"
            );
            assert!(held.is_disjoint(&free));
            assert!(free.iter().all(|&s| g.slots.ticks[s as usize] == 0));
            let used: BTreeSet<u32> = rows.by_owner.values().copied().collect();
            let free: BTreeSet<u32> = rows.free.iter().copied().collect();
            assert_eq!(
                used.len() + free.len(),
                rows.rows.len(),
                "a row lost or shared"
            );
            assert!(used.is_disjoint(&free));
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
    /// quotas permit, and every page is seated the moment it is
    /// installed. Everything else is the plainest possible cache over
    /// the same operations (always attached, never gapped, no staleness
    /// guard).
    #[derive(Default)]
    struct Model {
        cfg: CacheConfig,
        seeds: BTreeMap<String, ModelEntry<Vec<PNodeId>>>,
        pages: BTreeMap<PNodeId, ModelEntry<RevPage>>,
        tick: u64,
        high: Option<u64>,
        stats: CacheStats,
        floor: SimTime,
        quarantined: BTreeMap<String, SimTime>,
    }

    struct ModelEntry<T> {
        value: T,
        bytes: usize,
        owner: Option<TenantId>,
        touched: u64,
    }

    impl Model {
        fn attach(&mut self, now: SimTime) {
            self.seeds.clear();
            self.pages.clear();
            self.high = None;
            self.floor = now;
        }

        /// Whether a fetch begun at `fetch_start` may install `key` (a
        /// program, or a uuid's text): not before attach, and after the
        /// last invalidation of `key`.
        fn admissible(&mut self, key: &str, fetch_start: SimTime) -> bool {
            let ok = fetch_start >= self.floor
                && self.quarantined.get(key).is_none_or(|t| fetch_start > *t);
            if !ok {
                self.stats.refused_installs += 1;
            }
            ok
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

        fn install_seeds(
            &mut self,
            owner: Option<TenantId>,
            program: &str,
            seeds: &[PNodeId],
            fetch_start: SimTime,
        ) {
            if !self.admissible(program, fetch_start) {
                return;
            }
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
            fetch_start: SimTime,
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
                if !self.admissible(&node.uuid.to_string(), fetch_start) {
                    continue;
                }
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

        fn on_event(&mut self, ev: &CommitEvent, now: SimTime) {
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
                self.quarantined.insert(uuid.to_string(), now);
            }
            for program in &ev.programs {
                if self.seeds.remove(program).is_some() {
                    self.stats.invalidations += 1;
                }
                self.quarantined.insert(program.clone(), now);
            }
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.seeds.len() + self.pages.len(),
                bytes: self.bytes(),
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
        /// same operations, agree after every one of them. Installs may
        /// carry a fetch begun before the last invalidation or attach,
        /// so refusals interleave with seats inside one call, a page
        /// larger than a tenant's ceiling, or a leaf named twice; hits
        /// between installs leave
        /// filings stale; and in the tight configuration the reserved
        /// shares add up to more than the capacity, so an install call
        /// can run out of permitted victims part way through.
        #[test]
        fn eviction_matches_the_scanning_reference(
            tight in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..20, 0u8..4, any::<u16>(), any::<u16>()),
                1..160,
            ),
        ) {
            // A full adjacency is ~1 KB: one hydration overflows a
            // tenant's ceiling, two tenants overflow the cache, and a
            // tenant down to a page or two sits inside its reserve.
            let cfg = if tight {
                CacheConfig {
                    capacity_bytes: 500,
                    tenant_max_bytes: 450,
                    tenant_reserved_bytes: 200,
                    staleness_guard: Duration::ZERO,
                }
            } else {
                CacheConfig {
                    capacity_bytes: 1200,
                    tenant_max_bytes: 700,
                    tenant_reserved_bytes: 150,
                    staleness_guard: Duration::ZERO,
                }
            };
            let sim = Sim::new();
            let cache = AncestryCache::new(&sim, cfg);
            let mut model = Model {
                cfg,
                ..Model::default()
            };
            cache.attach();
            model.attach(sim.now());
            let owners = [None, Some(TenantId(1)), Some(TenantId(2)), Some(TenantId(3))];
            let mut seq = 0;
            for (kind, owner, a, b) in ops {
                sim.sleep(Duration::from_secs(1));
                let now = sim.now();
                // Most fetches start after every earlier invalidation;
                // one with the top bit set began two operations ago.
                let t = if b & 0x8000 == 0 {
                    now
                } else {
                    SimTime::from_micros(now.as_micros().saturating_sub(2_000_000))
                };
                let owner = owners[owner as usize];
                let p = a as usize % 4;
                let program = PROGRAMS[p];
                match kind {
                    0..=2 => {
                        let seeds = [world_node(2 * p), world_node(2 * p + 1)];
                        let seeds = &seeds[..1 + b as usize % 2];
                        cache.install_seeds(owner, program, seeds, t);
                        model.install_seeds(owner, program, seeds, t);
                    }
                    3..=7 => {
                        // Usually the whole adjacency, as the engine
                        // installs it; sometimes a random part of it, or
                        // with one page past any tenant's ceiling.
                        let mut adj = world_adjacency(if kind < 6 { !0 } else { b });
                        if kind == 7 {
                            let wide = (0..40).map(|i| world_node(100 + i));
                            adj.out.insert(world_node(a as usize % 12), wide.collect());
                        }
                        let mut touched: Vec<PNodeId> = (0..12)
                            .filter(|i| a & (1 << i) != 0)
                            .map(world_node)
                            .collect();
                        if b & 0x4000 != 0 {
                            // A repeated leaf displaces its own seat.
                            touched.extend(touched.clone());
                        }
                        cache.install_adjacency(owner, &adj, &touched, t);
                        model.install_adjacency(owner, &adj, &touched, t);
                    }
                    8..=9 => prop_assert_eq!(cache.serve_q3(program), model.serve(program, false)),
                    10..=13 => prop_assert_eq!(cache.serve_q4(program), model.serve(program, true)),
                    14 => prop_assert_eq!(cache.seeds_of(program), model.seeds_of(program)),
                    15..=17 => {
                        // A third of the deliveries are replays.
                        if b % 3 != 0 {
                            seq += 1;
                        }
                        let programs = if b % 2 == 0 { vec![program] } else { vec![] };
                        let ev = event(seq, vec![Uuid(1 + u128::from(b) % 6)], programs);
                        cache.on_event(&ev);
                        model.on_event(&ev, now);
                    }
                    _ => {
                        cache.attach();
                        model.attach(now);
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

    use cloudprov_cloud::{Attributes, AwsProfile, CloudEnv, FaultPlan, PutItem};
    use cloudprov_core::index as schema;
    use cloudprov_core::ProvenanceStore;

    use crate::source::{IndexSource, RevDecodes};
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
        let cache = Arc::new(AncestryCache::new(&sim, CacheConfig::default()));
        cache.attach();
        let engine = QueryEngine::new(&env, store(), "data").with_cache(Arc::clone(&cache));
        (env, engine, cache)
    }

    fn store() -> ProvenanceStore {
        ProvenanceStore::Database {
            domain: "prov".into(),
            spill_bucket: "spill".into(),
            index_domain: Some(INDEX.into()),
        }
    }

    /// `rev_` fetches parsed so far in `env`'s world.
    fn decodes(env: &CloudEnv) -> u64 {
        env.memo::<RevDecodes>().decodes()
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
        let (env, engine, cache) = indexed();
        let first = engine.q4_descendants_of("etl", Mode::Sequential).unwrap();
        assert_eq!(first.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(first.nodes, vec![node(3), node(4), node(5)]);
        let seated = cache.resident_pages();
        // A flush drops the entries, not the decoded snapshot.
        cache.attach();
        let second = engine.q4_descendants_of("etl", Mode::Sequential).unwrap();
        assert_eq!(second.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(second.nodes, first.nodes);
        assert_eq!(decodes(&env), 1, "one decode for one index state");
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
        assert_eq!(decodes(&env), 1);
        // `load` now also writes file 3, which is file-marked under
        // process 1's item only: Q.3's filter is index-wide.
        put_edges(&env, node(2), &[(node(3), false)], false);
        let q4 = engine.q4_descendants_of("load", Mode::Sequential).unwrap();
        assert_eq!(q4.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(decodes(&env), 2, "a new version decodes afresh");
        assert_eq!(q4.nodes, vec![node(3), node(4), node(5)]);
        assert_misses_match_the_index(&engine, &cache, "load");
        assert_misses_match_the_index(&engine, &cache, "etl");
        let q3 = engine.q3_outputs_of("load", Mode::Sequential).unwrap();
        assert_eq!(q3.nodes, vec![node(3)], "a file under two ancestors");
        assert_eq!(decodes(&env), 2, "and only once");
    }

    /// One world, one parse: Q.3 and Q.4 through two separate uncached
    /// index engines and a cache miss, over unchanged index versions,
    /// decode the index once; a write to it makes exactly one more.
    #[test]
    fn engines_of_one_world_share_one_decode() {
        let (env, cached, _cache) = indexed();
        let a = QueryEngine::new(&env, store(), "data").with_plan(Plan::Index);
        let b = QueryEngine::new(&env, store(), "data")
            .with_tenant(TenantId(4))
            .with_plan(Plan::Index);
        let q3 = |e: &QueryEngine, program| e.q3_outputs_of(program, Mode::Sequential).unwrap();
        let q4 = |e: &QueryEngine, program| e.q4_descendants_of(program, Mode::Sequential).unwrap();
        for e in [&a, &b] {
            assert_eq!(q3(e, "etl").nodes, [node(3)]);
            assert_eq!(q4(e, "etl").nodes, [node(3), node(4), node(5)]);
        }
        let miss = q4(&cached, "etl");
        assert_eq!(miss.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(miss.nodes, [node(3), node(4), node(5)]);
        assert_eq!(decodes(&env), 1, "two engines and a miss, one parse");

        put_edges(&env, node(2), &[(node(3), false)], false);
        assert_eq!(q4(&a, "load").nodes, [node(3), node(4), node(5)]);
        assert_eq!(q3(&b, "load").nodes, [node(3)]);
        let miss = q3(&cached, "load");
        assert_eq!(miss.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(miss.nodes, [node(3)]);
        assert_eq!(decodes(&env), 2, "one write, one more parse");
    }

    /// A SELECT served from before an index write gets the older
    /// versions, which are not the ones last decoded: it decodes them
    /// again, and neither the uncached plan nor a cache miss answers from
    /// the newer snapshot.
    #[test]
    fn a_stale_select_decodes_again_and_is_never_answered_from_the_newer_snapshot() {
        let (env, cached, cache) = indexed();
        let index = cached.with_plan_ref(Plan::Index);
        // Stale reads dialled in by the fault plan: every read sees the
        // store as it was `lag` ago, and no younger version is pruned.
        let lag = |secs| {
            env.faults().set(FaultPlan {
                extra_staleness: Duration::from_secs(secs),
                ..FaultPlan::none()
            })
        };
        let q4 = |e: &QueryEngine| e.q4_descendants_of("etl", Mode::Sequential).unwrap();
        let sim = env.sim().clone();
        sim.sleep(Duration::from_secs(60));
        lag(30);
        put_edges(&env, node(5), &[(node(6), true)], false);
        sim.sleep(Duration::from_secs(31));
        lag(0);
        let newer = [3, 4, 5, 6].map(node);
        assert_eq!(q4(&index).nodes, newer);
        assert_eq!(decodes(&env), 1);
        lag(60);
        assert_eq!(q4(&index).nodes, newer[..3], "the older versions' answer");
        assert_eq!(decodes(&env), 2, "the older versions decode again");
        cache.attach();
        let miss = q4(&cached);
        assert_eq!(miss.plan.cache, Some(CacheOutcome::Miss));
        assert_eq!(miss.nodes, newer[..3]);
        assert_eq!(decodes(&env), 2);
        lag(0);
        assert_eq!(q4(&index).nodes, newer);
        assert_eq!(decodes(&env), 3);
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
            let memo = env.memo::<RevDecodes>();
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
                        let decoded = memo.decode(&items);
                        let fresh = IndexPages::new(RevAdjacency::decode(&items));
                        prop_assert_eq!(&*decoded, &fresh);
                        let same = last.len() == items.len()
                            && last.iter().zip(&items).all(|(v, i)| Arc::ptr_eq(v, &i.attrs));
                        if !same {
                            decodes += 1;
                            last = items.iter().map(|i| Arc::clone(&i.attrs)).collect();
                        }
                        prop_assert_eq!(memo.decodes(), decodes);
                    }
                }
            }
        }
    }
}
