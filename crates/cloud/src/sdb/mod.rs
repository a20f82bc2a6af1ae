//! The SimpleDB-like database service (§2.3 "Database Service").
//!
//! Semi-structured data model: *domains* hold *items* identified by an item
//! name; each item carries multi-valued `<attribute, value>` pairs. The
//! same attribute may appear several times with different values (the paper
//! relies on this to store several `input` edges on one provenance item).
//!
//! Limits reproduced from the 2009 service: attribute names and values at
//! most 1 KB (P2/P3 spill larger provenance values into S3), at most
//! 25 items per `BatchPutAttributes`, at most 256 attribute pairs per item,
//! SELECT responses paginated at 250 items / 1 MB with a next-token.
//! Reads and SELECTs are eventually consistent.

pub mod select;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_sim::SimTime;

use crate::error::{CloudError, Result};
use crate::meter::{Actor, Op, Service, TenantId};
use crate::service::ServiceCore;

use select::{Expr, Output, Select};

/// SimpleDB's limit on attribute names and values, in bytes.
pub const ATTRIBUTE_LIMIT: usize = 1024;
/// SimpleDB's limit on items per BatchPutAttributes call.
pub const BATCH_LIMIT: usize = 25;
/// SimpleDB's limit on attribute pairs per item.
pub const ITEM_ATTR_LIMIT: usize = 256;
/// Maximum items per SELECT page.
pub const SELECT_PAGE_ITEMS: usize = 250;
/// Maximum response payload per SELECT page, in bytes.
pub const SELECT_PAGE_BYTES: u64 = 1 << 20;

/// Multi-valued attributes of one item, in insertion order.
pub type Attributes = Vec<(String, String)>;

/// Quotes a string as a SELECT string literal: wraps it in single quotes
/// and doubles embedded quotes (the service's `''` escape). Every query
/// built with `format!` must route user-controlled values through this —
/// a program named `o'brien` interpolated raw produces an invalid (or,
/// worse, differently-filtered) query.
pub fn quote_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

/// Quotes a string for use inside a `LIKE` pattern literal. Identical to
/// [`quote_literal`] except the caller appends/embeds `%` wildcards
/// *outside* this call; embedded `%` in `s` cannot be escaped by the 2009
/// service and will act as wildcards — callers interpolating arbitrary
/// names into LIKE patterns inherit that service quirk.
pub fn quote_like_prefix(s: &str, suffix: &str) -> String {
    let mut inner = String::with_capacity(s.len() + suffix.len() + 2);
    for c in s.chars() {
        if c == '\'' {
            inner.push('\'');
        }
        inner.push(c);
    }
    inner.push_str(suffix);
    format!("'{inner}'")
}

/// One item to write in a batch: `(item_name, attributes)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutItem {
    /// Item name (row key).
    pub name: String,
    /// Attribute pairs to add.
    pub attrs: Attributes,
    /// If true, existing values of the written attribute names are
    /// replaced; otherwise values accumulate (SimpleDB's default).
    pub replace: bool,
}

/// An item returned by a SELECT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectedItem {
    /// Item name.
    pub name: String,
    /// Attributes (empty for `select itemName()`). The `Arc` is the
    /// stored version itself, shared rather than copied: a published
    /// version never changes, so this is a snapshot of the item as the
    /// read saw it, and a later put publishes a new version beside it.
    pub attrs: Arc<Attributes>,
}

/// One page of SELECT results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectPage {
    /// Items on this page.
    pub items: Vec<SelectedItem>,
    /// For `select count(*)`: the count.
    pub count: Option<usize>,
    /// Token for the next page, if the scan is not finished.
    pub next_token: Option<String>,
}

#[derive(Clone, Default)]
struct ItemVersion {
    published: SimTime,
    /// `None` is a deletion tombstone; `Some` is the full attribute state,
    /// immutable once published and shared with every SELECT that sees it.
    attrs: Option<Arc<Attributes>>,
    /// `attrs`' billed size, summed once at publish.
    bytes: u64,
}

#[derive(Default)]
struct ItemHistory {
    versions: Vec<ItemVersion>,
}

impl ItemHistory {
    /// The version a read at `horizon` sees, with its billed size.
    fn visible_at(&self, horizon: SimTime) -> Option<(&Arc<Attributes>, u64)> {
        let v = self
            .versions
            .iter()
            .rev()
            .find(|v| v.published <= horizon)?;
        Some((v.attrs.as_ref()?, v.bytes))
    }

    fn latest(&self) -> Option<&Arc<Attributes>> {
        self.versions.last().and_then(|v| v.attrs.as_ref())
    }

    fn prune(&mut self, oldest_horizon: SimTime) {
        let keep_from = self
            .versions
            .iter()
            .rposition(|v| v.published <= oldest_horizon)
            .unwrap_or(0);
        if keep_from > 0 {
            self.versions.drain(..keep_from);
        }
    }
}

/// One attribute's posting lists: value → names of the items carrying it.
type Postings = BTreeMap<String, BTreeSet<String>>;

#[derive(Default)]
struct Domain {
    items: BTreeMap<String, ItemHistory>,
    /// Posting lists of the attributes a SELECT has narrowed on, built on
    /// first use. Each holds every `(value, item)` pair of every retained
    /// version — a stale read may be served any of them — and never
    /// shrinks, so it over-approximates what `visible_at` can return.
    postings: BTreeMap<String, Postings>,
    /// Items whose latest version is not a tombstone (the planner's item
    /// count). `prune` never drops the latest version, so only a pushed
    /// version can change it.
    live: usize,
}

fn post(list: &mut Postings, value: &str, item: &str) {
    match list.get_mut(value) {
        Some(names) => {
            if !names.contains(item) {
                names.insert(item.to_string());
            }
        }
        None => {
            list.insert(value.to_string(), BTreeSet::from([item.to_string()]));
        }
    }
}

impl Domain {
    /// Adds a put's pairs to the attributes already indexed. The new
    /// version holds only pairs of the previous one and of the put, and
    /// the previous one is already posted.
    fn post_put(&mut self, item: &PutItem) {
        for (attr, value) in &item.attrs {
            if let Some(list) = self.postings.get_mut(attr) {
                post(list, value, &item.name);
            }
        }
    }

    /// Builds the posting list of every narrowing attribute not yet
    /// indexed, from every retained version of every item.
    fn index(&mut self, terms: &[(&str, &[String])]) {
        for &(attr, _) in terms {
            if self.postings.contains_key(attr) {
                continue;
            }
            let mut list = Postings::new();
            for (name, hist) in &self.items {
                for attrs in hist.versions.iter().filter_map(|v| v.attrs.as_ref()) {
                    for (_, value) in attrs.iter().filter(|(k, _)| k == attr) {
                        post(&mut list, value, name);
                    }
                }
            }
            self.postings.insert(attr.to_string(), list);
        }
    }

    /// The posting lists of `attr`'s `values`, one per value posted.
    fn lists(&self, attr: &str, values: &[String]) -> Vec<&BTreeSet<String>> {
        let list = &self.postings[attr];
        values.iter().filter_map(|v| list.get(v)).collect()
    }

    /// The items the most selective term admits, in name order; `None`
    /// when no term narrows and the whole domain must be walked. Every
    /// term must already be indexed.
    fn candidates(&self, terms: &[(&str, &[String])]) -> Option<Vec<&str>> {
        let lists = terms
            .iter()
            .map(|&(attr, values)| self.lists(attr, values))
            .min_by_key(|lists| lists.iter().map(|names| names.len()).sum::<usize>())?;
        let mut names: Vec<&str> = lists.into_iter().flatten().map(String::as_str).collect();
        names.sort_unstable();
        names.dedup();
        Some(names)
    }

    /// One page of `query` as seen at `horizon`, resuming after the
    /// first `start` matches, with the bytes it bills.
    fn select_page(&mut self, query: &Select, start: usize, horizon: SimTime) -> (SelectPage, u64) {
        let predicate = query.predicate.as_ref();
        if let Some(names) = predicate.and_then(Expr::item_names) {
            let items = names
                .into_iter()
                .filter_map(|n| self.items.get_key_value(n));
            return page(query, start, horizon, items, predicate);
        }
        let terms = predicate.map(Expr::narrowing_terms).unwrap_or_default();
        self.index(&terms);
        if let Some(names) = self.candidates(&terms) {
            let items = names
                .into_iter()
                .filter_map(|n| self.items.get_key_value(n));
            return page(query, start, horizon, items, predicate);
        }
        match predicate.and_then(Expr::name_prefix) {
            // The names an item-name prefix admits are one contiguous
            // run of the name order; when that prefix is the whole
            // predicate, every name in the run matches.
            Some(prefix) => {
                let items = self
                    .items
                    .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                    .take_while(|(name, _)| name.starts_with(prefix));
                let check = predicate.filter(|p| !p.is_bare_name_prefix());
                page(query, start, horizon, items, check)
            }
            None => page(query, start, horizon, self.items.iter(), predicate),
        }
    }
}

/// Evaluates `query` over `items` (in name order, a superset of the
/// matches) at `horizon`: the page, its `next_token` and billed bytes.
/// Only the items `check` holds for match; `None` admits every item.
fn page<'a>(
    query: &Select,
    start: usize,
    horizon: SimTime,
    items: impl Iterator<Item = (&'a String, &'a ItemHistory)>,
    check: Option<&Expr>,
) -> (SelectPage, u64) {
    let mut selected = Vec::new();
    let none = Arc::new(Attributes::new());
    let mut bytes: u64 = 0;
    let mut matched = 0usize;
    let mut next = None;
    let limit = query.limit.unwrap_or(usize::MAX);
    for (name, hist) in items {
        let Some((attrs, attrs_bytes)) = hist.visible_at(horizon) else {
            continue;
        };
        if !check.is_none_or(|p| p.matches(name, attrs)) {
            continue;
        }
        matched += 1;
        if matched <= start {
            continue;
        }
        if query.output == Output::Count {
            continue;
        }
        if matched - start > limit {
            break;
        }
        let item_bytes = name.len() as u64
            + if query.output == Output::All {
                attrs_bytes
            } else {
                0
            };
        if selected.len() >= SELECT_PAGE_ITEMS || bytes + item_bytes > SELECT_PAGE_BYTES {
            next = Some(matched - 1); // resume before this item
            break;
        }
        bytes += item_bytes;
        selected.push(SelectedItem {
            name: name.clone(),
            attrs: Arc::clone(if query.output == Output::All {
                attrs
            } else {
                &none
            }),
        });
    }
    let count = (query.output == Output::Count).then_some(matched);
    let page = SelectPage {
        items: selected,
        count,
        next_token: next.map(|n| n.to_string()),
    };
    (page, bytes.max(16))
}

#[derive(Default)]
struct DbState {
    domains: BTreeMap<String, Domain>,
}

/// Handle to the simulated database. Cloning is cheap; see
/// [`Database::with_actor`].
#[derive(Clone)]
pub struct Database {
    core: Arc<ServiceCore>,
    state: Arc<Mutex<DbState>>,
    actor: Actor,
    tenant: Option<TenantId>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("actor", &self.actor)
            .finish()
    }
}

fn attrs_size(attrs: &Attributes) -> u64 {
    attrs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

fn validate_item(item: &PutItem) -> Result<()> {
    for (k, v) in &item.attrs {
        if k.len() > ATTRIBUTE_LIMIT {
            return Err(CloudError::AttributeTooLarge {
                item: item.name.clone(),
                size: k.len(),
                limit: ATTRIBUTE_LIMIT,
            });
        }
        if v.len() > ATTRIBUTE_LIMIT {
            return Err(CloudError::AttributeTooLarge {
                item: item.name.clone(),
                size: v.len(),
                limit: ATTRIBUTE_LIMIT,
            });
        }
    }
    Ok(())
}

fn apply_put(existing: Option<&Attributes>, item: &PutItem) -> Attributes {
    let mut attrs = existing.cloned().unwrap_or_default();
    if item.replace {
        let names: BTreeSet<&str> = item.attrs.iter().map(|(k, _)| k.as_str()).collect();
        attrs.retain(|(k, _)| !names.contains(k.as_str()));
    }
    for (k, v) in &item.attrs {
        // SimpleDB deduplicates exact (name, value) repeats.
        if !attrs.iter().any(|(ek, ev)| ek == k && ev == v) {
            attrs.push((k.clone(), v.clone()));
        }
    }
    attrs.truncate(ITEM_ATTR_LIMIT);
    attrs
}

impl Database {
    pub(crate) fn new(core: Arc<ServiceCore>) -> Database {
        debug_assert_eq!(core.service(), Service::Database);
        Database {
            core,
            state: Arc::new(Mutex::new(DbState::default())),
            actor: Actor::Client,
            tenant: None,
        }
    }

    /// Returns a handle whose calls are metered under `actor`.
    pub fn with_actor(&self, actor: Actor) -> Database {
        Database {
            actor,
            ..self.clone()
        }
    }

    /// Returns a handle whose calls are additionally attributed to
    /// `tenant` (fleet accounting).
    pub fn with_tenant(&self, tenant: TenantId) -> Database {
        Database {
            tenant: Some(tenant),
            ..self.clone()
        }
    }

    /// Creates a domain (idempotent). Not metered as a paid op — domain
    /// creation is a one-time administrative call.
    pub fn create_domain(&self, domain: &str) {
        self.state
            .lock()
            .domains
            .entry(domain.to_string())
            .or_default();
    }

    /// Writes attributes to a single item.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchDomain`] if the domain was not created;
    /// [`CloudError::AttributeTooLarge`] if a name or value exceeds 1 KB.
    pub fn put_attributes(&self, domain: &str, item: PutItem) -> Result<()> {
        self.batch_put_attributes(domain, vec![item])
    }

    /// Writes up to 25 items in one call (`BatchPutAttributes`).
    ///
    /// # Errors
    ///
    /// [`CloudError::BatchTooLarge`] beyond 25 items, plus the
    /// [`Database::put_attributes`] errors. Validation happens before any
    /// latency is charged, as the real service rejected oversized requests
    /// up front; the batch applies atomically.
    pub fn batch_put_attributes(&self, domain: &str, items: Vec<PutItem>) -> Result<()> {
        if items.len() > BATCH_LIMIT {
            return Err(CloudError::BatchTooLarge {
                items: items.len(),
                limit: BATCH_LIMIT,
            });
        }
        for item in &items {
            validate_item(item)?;
        }
        let bytes_in: u64 = items
            .iter()
            .map(|i| i.name.len() as u64 + attrs_size(&i.attrs))
            .sum();
        let n = items.len();
        let state = self.state.clone();
        let core = self.core.clone();
        let domain = domain.to_string();
        self.core.call(
            self.actor,
            self.tenant,
            Op::DbPut,
            n,
            bytes_in,
            move |now| {
                let mut st = state.lock();
                let dom = st
                    .domains
                    .get_mut(&domain)
                    .ok_or(CloudError::NoSuchDomain(domain.clone()))?;
                for item in items {
                    dom.post_put(&item);
                    let hist = dom.items.entry(item.name.clone()).or_default();
                    if hist.latest().is_none() {
                        dom.live += 1;
                    }
                    let merged = apply_put(hist.latest().map(Arc::as_ref), &item);
                    hist.versions.push(ItemVersion {
                        published: now,
                        bytes: attrs_size(&merged),
                        attrs: Some(Arc::new(merged)),
                    });
                    let horizon = SimTime::from_micros(
                        now.as_micros()
                            .saturating_sub(core.max_staleness().as_micros() as u64),
                    );
                    hist.prune(horizon);
                }
                Ok(((), 0))
            },
        )
    }

    /// Reads all attributes of one item. Eventually consistent: an empty
    /// result may mean the item is not yet visible.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchDomain`] if the domain was not created.
    pub fn get_attributes(&self, domain: &str, item_name: &str) -> Result<Attributes> {
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let domain = domain.to_string();
        let item_name = item_name.to_string();
        self.core
            .call(self.actor, self.tenant, Op::DbGet, 0, 0, move |now| {
                let horizon = SimTime::from_micros(
                    now.as_micros().saturating_sub(staleness.as_micros() as u64),
                );
                let st = state.lock();
                let dom = st
                    .domains
                    .get(&domain)
                    .ok_or(CloudError::NoSuchDomain(domain.clone()))?;
                Ok(dom
                    .items
                    .get(&item_name)
                    .and_then(|h| h.visible_at(horizon))
                    .map_or_else(Default::default, |(a, bytes)| (Attributes::clone(a), bytes)))
            })
    }

    /// Deletes an entire item (all attributes). Used by the
    /// data-independent-persistence experiments.
    pub fn delete_item(&self, domain: &str, item_name: &str) -> Result<()> {
        let state = self.state.clone();
        let domain = domain.to_string();
        let item_name = item_name.to_string();
        self.core
            .call(self.actor, self.tenant, Op::Delete, 0, 0, move |now| {
                let mut st = state.lock();
                let dom = st
                    .domains
                    .get_mut(&domain)
                    .ok_or(CloudError::NoSuchDomain(domain.clone()))?;
                if let Some(hist) = dom.items.get_mut(&item_name) {
                    if hist.latest().is_some() {
                        dom.live -= 1;
                    }
                    hist.versions.push(ItemVersion {
                        published: now,
                        ..ItemVersion::default()
                    });
                }
                Ok(((), 0))
            })
    }

    /// Executes one page of a SELECT. Pass the previous page's
    /// `next_token` to continue; pages are limited to 250 items or 1 MB,
    /// whichever is hit first (so large scans decompose into several
    /// sequential operations, as §5.3 describes for Q.1).
    ///
    /// # Errors
    ///
    /// [`CloudError::InvalidQuery`] on syntax errors,
    /// [`CloudError::NoSuchDomain`] for unknown domains.
    pub fn select(&self, expression: &str, next_token: Option<&str>) -> Result<SelectPage> {
        let query: Select = select::parse(expression)?;
        let start: usize = match next_token {
            Some(t) => t
                .parse()
                .map_err(|_| CloudError::InvalidQuery(format!("bad next token '{t}'")))?,
            None => 0,
        };
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let bytes_in = expression.len() as u64;
        self.core.call(
            self.actor,
            self.tenant,
            Op::DbSelect,
            0,
            bytes_in,
            move |now| {
                let horizon = SimTime::from_micros(
                    now.as_micros().saturating_sub(staleness.as_micros() as u64),
                );
                let mut st = state.lock();
                let dom = st
                    .domains
                    .get_mut(&query.domain)
                    .ok_or_else(|| CloudError::NoSuchDomain(query.domain.clone()))?;
                Ok(dom.select_page(&query, start, horizon))
            },
        )
    }

    /// Runs a SELECT to completion, following pagination sequentially (one
    /// page must finish before the next starts, as §5.3 notes for Q.1).
    pub fn select_all(&self, expression: &str) -> Result<Vec<SelectedItem>> {
        let mut out = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let page = self.select(expression, token.as_deref())?;
            out.extend(page.items);
            match page.next_token {
                Some(t) => token = Some(t),
                None => return Ok(out),
            }
        }
    }

    /// Instrumentation: latest committed attributes, bypassing consistency,
    /// latency and metering. For tests and invariant checkers only.
    pub fn peek_item(&self, domain: &str, item_name: &str) -> Option<Attributes> {
        let st = self.state.lock();
        st.domains
            .get(domain)?
            .items
            .get(item_name)
            .and_then(|h| h.latest())
            .map(|a| Attributes::clone(a))
    }

    /// Instrumentation: every committed item (name + latest attributes)
    /// in a domain, bypassing consistency, latency and metering. For
    /// tests and invariant checkers (the chaos explorer's index audit)
    /// only.
    pub fn peek_items(&self, domain: &str) -> Vec<(String, Attributes)> {
        let st = self.state.lock();
        st.domains
            .get(domain)
            .map(|d| {
                d.items
                    .iter()
                    .filter_map(|(name, h)| {
                        h.latest().map(|a| (name.clone(), Attributes::clone(a)))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Instrumentation: number of committed items in a domain.
    pub fn peek_item_count(&self, domain: &str) -> usize {
        let st = self.state.lock();
        st.domains.get(domain).map_or(0, |d| d.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultHandle;
    use crate::meter::Meter;
    use crate::profile::AwsProfile;
    use cloudprov_sim::Sim;

    fn db(profile: AwsProfile) -> (Sim, Database) {
        let sim = Sim::new();
        let core = ServiceCore::new(
            &sim,
            Service::Database,
            &profile,
            Meter::new(),
            FaultHandle::new(),
            cloudprov_trace::Tracer::new(&sim),
        );
        let d = Database::new(core);
        d.create_domain("prov");
        (sim, d)
    }

    fn item(name: &str, pairs: &[(&str, &str)]) -> PutItem {
        PutItem {
            name: name.to_string(),
            attrs: pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            replace: false,
        }
    }

    #[test]
    fn paper_example_roundtrip() {
        // §4.3.2: item uuid1_2 with name=foo, input=bar_2, type=file.
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes(
            "prov",
            item(
                "uuid1_2",
                &[("name", "foo"), ("input", "bar_2"), ("type", "file")],
            ),
        )
        .unwrap();
        let attrs = db.get_attributes("prov", "uuid1_2").unwrap();
        assert_eq!(attrs.len(), 3);
        assert!(attrs.contains(&("input".to_string(), "bar_2".to_string())));
    }

    #[test]
    fn multi_valued_attributes_accumulate() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i", &[("input", "a_1")]))
            .unwrap();
        db.put_attributes("prov", item("i", &[("input", "b_3")]))
            .unwrap();
        let attrs = db.get_attributes("prov", "i").unwrap();
        assert_eq!(
            attrs,
            vec![
                ("input".to_string(), "a_1".to_string()),
                ("input".to_string(), "b_3".to_string())
            ]
        );
    }

    #[test]
    fn replace_overwrites_only_named_attributes() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i", &[("a", "1"), ("b", "2")]))
            .unwrap();
        db.put_attributes(
            "prov",
            PutItem {
                name: "i".into(),
                attrs: vec![("a".into(), "9".into())],
                replace: true,
            },
        )
        .unwrap();
        let attrs = db.get_attributes("prov", "i").unwrap();
        assert!(attrs.contains(&("a".to_string(), "9".to_string())));
        assert!(!attrs.contains(&("a".to_string(), "1".to_string())));
        assert!(attrs.contains(&("b".to_string(), "2".to_string())));
    }

    #[test]
    fn batch_limit_enforced() {
        let (_sim, db) = db(AwsProfile::instant());
        let items: Vec<PutItem> = (0..26)
            .map(|i| item(&format!("i{i}"), &[("a", "1")]))
            .collect();
        let err = db.batch_put_attributes("prov", items).unwrap_err();
        assert!(matches!(
            err,
            CloudError::BatchTooLarge {
                items: 26,
                limit: 25
            }
        ));
    }

    #[test]
    fn attribute_size_limit_enforced() {
        let (_sim, db) = db(AwsProfile::instant());
        let big = "x".repeat(1025);
        let err = db
            .put_attributes("prov", item("i", &[("a", big.as_str())]))
            .unwrap_err();
        assert!(matches!(err, CloudError::AttributeTooLarge { .. }));
    }

    #[test]
    fn unknown_domain_rejected() {
        let (_sim, db) = db(AwsProfile::instant());
        let err = db
            .put_attributes("nope", item("i", &[("a", "1")]))
            .unwrap_err();
        assert!(matches!(err, CloudError::NoSuchDomain(_)));
    }

    #[test]
    fn select_filters_and_projects() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes(
            "prov",
            item("p1", &[("type", "process"), ("name", "blast")]),
        )
        .unwrap();
        db.put_attributes("prov", item("f1", &[("type", "file"), ("input", "p1")]))
            .unwrap();
        let got = db
            .select_all("select * from prov where type = 'process'")
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "p1");

        let names = db
            .select_all("select itemName() from prov where input = 'p1'")
            .unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].name, "f1");
        assert!(names[0].attrs.is_empty());
    }

    #[test]
    fn select_count() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..7 {
            db.put_attributes("prov", item(&format!("i{i}"), &[("t", "x")]))
                .unwrap();
        }
        let page = db.select("select count(*) from prov", None).unwrap();
        assert_eq!(page.count, Some(7));
        assert!(page.items.is_empty());
    }

    #[test]
    fn select_paginates_at_item_limit() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..600 {
            db.put_attributes("prov", item(&format!("i{i:04}"), &[("a", "1")]))
                .unwrap();
        }
        let p1 = db.select("select * from prov", None).unwrap();
        assert_eq!(p1.items.len(), SELECT_PAGE_ITEMS);
        assert!(p1.next_token.is_some());
        let all = db.select_all("select * from prov").unwrap();
        assert_eq!(all.len(), 600);
    }

    #[test]
    fn select_paginates_at_byte_limit() {
        let (_sim, db) = db(AwsProfile::instant());
        let chunk = "v".repeat(1000);
        // ~6 KB per item: the 1 MB page cap binds before the 250-item cap
        // (250 × 6 KB ≈ 1.5 MB > 1 MB).
        for i in 0..1500 {
            db.put_attributes(
                "prov",
                PutItem {
                    name: format!("i{i:05}"),
                    attrs: (0..6)
                        .map(|j| (format!("data{j}"), format!("{chunk}{i}")))
                        .collect(),
                    replace: false,
                },
            )
            .unwrap();
        }
        let mut pages = 0;
        let mut token: Option<String> = None;
        let mut total = 0;
        loop {
            let page = db.select("select * from prov", token.as_deref()).unwrap();
            pages += 1;
            total += page.items.len();
            match page.next_token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(total, 1500);
        assert!(pages > 6, "expected byte-capped pages, got {pages}");
    }

    #[test]
    fn select_limit_clause() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..10 {
            db.put_attributes("prov", item(&format!("i{i}"), &[("a", "1")]))
                .unwrap();
        }
        let page = db.select("select * from prov limit 3", None).unwrap();
        assert_eq!(page.items.len(), 3);
    }

    #[test]
    fn delete_item_removes_it() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i", &[("a", "1")])).unwrap();
        db.delete_item("prov", "i").unwrap();
        assert!(db.get_attributes("prov", "i").unwrap().is_empty());
        assert_eq!(db.peek_item_count("prov"), 0);
    }

    #[test]
    fn eventual_consistency_converges_for_items() {
        let mut profile = AwsProfile::instant();
        profile.consistency =
            crate::profile::ConsistencyParams::eventual(std::time::Duration::from_secs(10));
        let (sim, db) = db(profile);
        db.put_attributes("prov", item("i", &[("a", "1")])).unwrap();
        let mut stale_seen = false;
        for _ in 0..200 {
            if db.get_attributes("prov", "i").unwrap().is_empty() {
                stale_seen = true;
                break;
            }
        }
        assert!(stale_seen);
        sim.sleep(std::time::Duration::from_secs(11));
        assert!(!db.get_attributes("prov", "i").unwrap().is_empty());
    }

    #[test]
    fn quote_literal_escapes_embedded_quotes() {
        assert_eq!(quote_literal("blast"), "'blast'");
        assert_eq!(quote_literal("o'brien"), "'o''brien'");
        assert_eq!(quote_literal(""), "''");
        // Round-trip through the parser: the literal comes back verbatim.
        let q = format!(
            "select * from prov where name = {}",
            quote_literal("o'brien")
        );
        let parsed = select::parse(&q).unwrap();
        let p = parsed.predicate.unwrap();
        assert!(p.matches("i", &[("name".to_string(), "o'brien".to_string())]));
        assert!(!p.matches("i", &[("name".to_string(), "obrien".to_string())]));
    }

    #[test]
    fn quote_like_prefix_escapes_and_appends_wildcard() {
        assert_eq!(quote_like_prefix("abc", "%"), "'abc%'");
        assert_eq!(quote_like_prefix("o'b", "_%"), "'o''b_%'");
        let q = format!(
            "select * from prov where itemName() like {}",
            quote_like_prefix("it's", "%")
        );
        let parsed = select::parse(&q).unwrap();
        let p = parsed.predicate.unwrap();
        assert!(p.matches("it's here", &[]));
        assert!(!p.matches("its here", &[]));
    }

    #[test]
    fn peek_items_lists_latest_state() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("a", &[("x", "1")])).unwrap();
        db.put_attributes("prov", item("b", &[("y", "2")])).unwrap();
        db.delete_item("prov", "b").unwrap();
        let items = db.peek_items("prov");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, "a");
        assert!(db.peek_items("nope").is_empty());
    }

    #[test]
    fn batch_put_is_atomic_for_valid_batches() {
        let (_sim, db) = db(AwsProfile::instant());
        let items = vec![item("a", &[("x", "1")]), item("b", &[("x", "2")])];
        db.batch_put_attributes("prov", items).unwrap();
        assert_eq!(db.peek_item_count("prov"), 2);
    }

    // --- posting lists against the full walk -----------------------------

    type Pages = Vec<(SelectPage, u64)>;

    /// Pages `expr` at `horizon` from `start` to its last page, narrowed
    /// and by the reference full walk: `(narrowed, walked)`.
    fn both_ways(db: &Database, expr: &str, start: usize, horizon: SimTime) -> (Pages, Pages) {
        let query = select::parse(expr).unwrap();
        let mut st = db.state.lock();
        let dom = st.domains.get_mut("prov").unwrap();
        let (mut narrowed, mut walked) = (Vec::new(), Vec::new());
        let mut at = Some(start);
        while let Some(start) = at {
            narrowed.push(dom.select_page(&query, start, horizon));
            let page = page(
                &query,
                start,
                horizon,
                dom.items.iter(),
                query.predicate.as_ref(),
            );
            at = page.0.next_token.as_ref().map(|t| t.parse().unwrap());
            walked.push(page);
        }
        (narrowed, walked)
    }

    /// `(attr, value, item)` of a retained version missing from its
    /// attribute's posting list.
    fn unposted(db: &Database) -> Vec<(String, String, String)> {
        let st = db.state.lock();
        let dom = &st.domains["prov"];
        let mut out = Vec::new();
        for (attr, list) in &dom.postings {
            for (name, hist) in &dom.items {
                for attrs in hist.versions.iter().filter_map(|v| v.attrs.as_ref()) {
                    for (_, value) in attrs.iter().filter(|(k, _)| k == attr) {
                        if !list.get(value).is_some_and(|names| names.contains(name)) {
                            out.push((attr.clone(), value.clone(), name.clone()));
                        }
                    }
                }
            }
        }
        out
    }

    fn names(pages: &Pages) -> Vec<&str> {
        pages
            .iter()
            .flat_map(|(p, _)| p.items.iter().map(|i| i.name.as_str()))
            .collect()
    }

    fn ago(sim: &Sim, secs: u64) -> SimTime {
        SimTime::from_micros(sim.now().as_micros().saturating_sub(secs * 1_000_000))
    }

    fn eventual(secs: u64) -> AwsProfile {
        let mut profile = AwsProfile::instant();
        profile.consistency =
            crate::profile::ConsistencyParams::eventual(std::time::Duration::from_secs(secs));
        profile
    }

    #[test]
    fn a_value_replaced_away_is_still_found_by_a_stale_read() {
        let (sim, db) = db(eventual(10));
        db.put_attributes("prov", item("i", &[("a", "1"), ("b", "x")]))
            .unwrap();
        sim.sleep(std::time::Duration::from_secs(5));
        let mut replace = item("i", &[("a", "2")]);
        replace.replace = true;
        db.put_attributes("prov", replace).unwrap();
        // The first narrowing SELECT builds `a`'s list after the replace:
        // from both retained versions, not only the latest.
        let (narrowed, walked) =
            both_ways(&db, "select * from prov where a = '1'", 0, ago(&sim, 3));
        assert_eq!(narrowed, walked);
        assert_eq!(names(&narrowed), ["i"]);
        let (narrowed, walked) = both_ways(&db, "select * from prov where a = '1'", 0, sim.now());
        assert_eq!(narrowed, walked);
        assert!(names(&narrowed).is_empty());
        assert!(unposted(&db).is_empty());
    }

    #[test]
    fn an_attribute_indexed_after_its_items_were_written() {
        let (sim, db) = db(AwsProfile::instant());
        for i in 0..6 {
            let name = if i % 3 == 0 { "x" } else { "y" };
            db.put_attributes("prov", item(&format!("i{i}"), &[("name", name)]))
                .unwrap();
        }
        assert!(db.state.lock().domains["prov"].postings.is_empty());
        let q = "select itemName() from prov where name = 'x'";
        let (narrowed, walked) = both_ways(&db, q, 0, sim.now());
        assert_eq!(narrowed, walked);
        assert_eq!(names(&narrowed), ["i0", "i3"]);
        // Later puts extend the list the SELECT built.
        db.put_attributes("prov", item("i1", &[("name", "x")]))
            .unwrap();
        assert_eq!(
            names(&both_ways(&db, q, 0, sim.now()).0),
            ["i0", "i1", "i3"]
        );
        assert_eq!(
            db.select_all(q).unwrap().len(),
            3,
            "through the service as well"
        );
        assert!(unposted(&db).is_empty());
    }

    #[test]
    fn a_deleted_item_drops_out_of_narrowed_results_but_not_stale_ones() {
        let (sim, db) = db(eventual(10));
        db.put_attributes("prov", item("i", &[("a", "1")])).unwrap();
        db.put_attributes("prov", item("j", &[("a", "1")])).unwrap();
        let q = "select itemName() from prov where a in ('1', '9')";
        sim.sleep(std::time::Duration::from_secs(5));
        assert_eq!(names(&both_ways(&db, q, 0, sim.now()).0), ["i", "j"]);
        db.delete_item("prov", "i").unwrap();
        for horizon in [sim.now(), ago(&sim, 2)] {
            let (narrowed, walked) = both_ways(&db, q, 0, horizon);
            assert_eq!(narrowed, walked);
            let want: &[&str] = if horizon == sim.now() {
                &["j"]
            } else {
                &["i", "j"]
            };
            assert_eq!(names(&narrowed), want);
        }
        // The list never shrinks: the deleted item is still posted.
        assert!(db.state.lock().domains["prov"].postings["a"]["1"].contains("i"));
    }

    #[test]
    fn type_and_name_narrow_on_name_in_either_order() {
        let (sim, db) = db(AwsProfile::instant());
        for chunk in 0..2 {
            let items = (0..20)
                .map(|i| {
                    let n = chunk * 20 + i;
                    let kind = if n % 2 == 0 { "process" } else { "file" };
                    item(
                        &format!("p{n:02}"),
                        &[("type", kind), ("name", &format!("prog{}", n % 4))],
                    )
                })
                .collect();
            db.batch_put_attributes("prov", items).unwrap();
        }
        for q in [
            "select itemName() from prov where type = 'process' and name = 'prog2'",
            "select itemName() from prov where name = 'prog2' and type = 'process'",
        ] {
            let (narrowed, walked) = both_ways(&db, q, 0, sim.now());
            assert_eq!(narrowed, walked);
            assert_eq!(names(&narrowed).len(), 10);
            let query = select::parse(q).unwrap();
            let terms = query.predicate.as_ref().unwrap().narrowing_terms();
            let st = db.state.lock();
            let candidates = st.domains["prov"].candidates(&terms).unwrap();
            assert_eq!(candidates.len(), 10, "{q}: narrowed on type, not name");
        }
    }

    #[test]
    fn narrowed_pages_cut_where_the_walk_does() {
        let (sim, db) = db(AwsProfile::instant());
        let chunk = "v".repeat(1000);
        for batch in 0..40 {
            let items = (0..25)
                .map(|i| {
                    let n = batch * 25 + i;
                    let mut attrs =
                        vec![("type".to_string(), ["file", "process"][n % 2].to_string())];
                    // Files are ~6 KB: `select *` pages are byte-capped,
                    // `select itemName()` pages item-capped.
                    if n % 2 == 0 {
                        attrs.extend((0..6).map(|j| (format!("data{j}"), chunk.clone())));
                    }
                    PutItem {
                        name: format!("i{n:04}"),
                        attrs,
                        replace: false,
                    }
                })
                .collect();
            db.batch_put_attributes("prov", items).unwrap();
        }
        for (q, pages) in [
            ("select * from prov where type = 'file'", 3),
            ("select itemName() from prov where type = 'file'", 2),
            ("select count(*) from prov where type = 'file'", 1),
            ("select * from prov where type = 'file' limit 100", 1),
        ] {
            for start in [0, 3] {
                let (narrowed, walked) = both_ways(&db, q, start, sim.now());
                assert_eq!(narrowed, walked, "{q} from {start}");
                assert_eq!(narrowed.len(), pages, "{q} from {start}");
            }
        }
    }

    #[test]
    fn item_name_points_page_like_the_walk() {
        let (sim, db) = db(eventual(10));
        // 200 values of 1 000 bytes: five such items fill a 1 MB page.
        let big: Attributes = (0..200)
            .map(|j| (format!("v{j:03}"), "v".repeat(1000)))
            .collect();
        for n in 0..16 {
            let item = PutItem {
                name: format!("i{n:02}"),
                attrs: big.clone(),
                replace: false,
            };
            db.put_attributes("prov", item).unwrap();
        }
        sim.sleep(std::time::Duration::from_secs(11));
        db.delete_item("prov", "i03").unwrap();
        let list = "'i09', 'i01', 'i03', 'nope', 'i01', 'i12', 'i05', 'i07', 'i11', 'i02'";
        for (q, pages) in [
            (
                format!("select * from prov where itemName() in ({list})"),
                2,
            ),
            (
                format!("select * from prov where itemName() in ({list}) limit 7"),
                2,
            ),
            (
                format!("select itemName() from prov where itemName() in ({list})"),
                1,
            ),
            ("select * from prov where itemName() = 'i05'".to_string(), 1),
        ] {
            for (start, horizon) in [(0, sim.now()), (0, ago(&sim, 5)), (2, sim.now())] {
                let (narrowed, walked) = both_ways(&db, &q, start, horizon);
                assert_eq!(narrowed, walked, "{q} from {start}");
            }
            let (narrowed, _) = both_ways(&db, &q, 0, sim.now());
            assert_eq!(narrowed.len(), pages, "{q}");
        }
        let (narrowed, _) = both_ways(
            &db,
            &format!("select * from prov where itemName() in ({list})"),
            0,
            sim.now(),
        );
        assert_eq!(
            names(&narrowed),
            ["i01", "i02", "i05", "i07", "i09", "i11", "i12"]
        );
        let (stale, _) = both_ways(
            &db,
            &format!("select * from prov where itemName() in ({list})"),
            0,
            ago(&sim, 5),
        );
        assert_eq!(
            names(&stale)[..3],
            ["i01", "i02", "i03"],
            "the deleted item, stale"
        );
        for (q, narrows) in [
            (
                "itemName() in ('a', 'b') and type = 'x'",
                Some(vec!["a", "b"]),
            ),
            (
                "itemName() = 'c' and itemName() in ('a', 'b')",
                Some(vec!["c"]),
            ),
            ("itemName() in ('b', 'a', 'b')", Some(vec!["a", "b"])),
            ("itemName() = 'a' or type = 'x'", None),
            ("not itemName() = 'a'", None),
            ("type = 'x' and not itemName() in ('a')", None),
        ] {
            let query = select::parse(&format!("select * from prov where {q}")).unwrap();
            assert_eq!(
                query.predicate.as_ref().unwrap().item_names(),
                narrows,
                "{q}"
            );
        }
    }

    #[test]
    fn a_lone_name_prefix_is_the_only_predicate_left_unchecked() {
        for (q, bare) in [
            ("itemName() like 'rev_%'", true),
            ("itemName() like '%'", true),
            ("itemName() like ''", false),
            ("itemName() like 'rev'", false),
            ("itemName() like 'r%v%'", false),
            ("itemName() like '%v'", false),
            ("itemName() like 'rev_%' and type = 'x'", false),
            ("a like 'rev_%'", false),
        ] {
            let query = select::parse(&format!("select * from prov where {q}")).unwrap();
            assert_eq!(
                query.predicate.as_ref().unwrap().is_bare_name_prefix(),
                bare,
                "{q}"
            );
        }
    }

    #[test]
    fn a_select_shares_the_stored_version_and_keeps_its_snapshot() {
        let (sim, db) = db(eventual(10));
        let old = item("i", &[("a", "1"), ("b", "x")]).attrs;
        db.put_attributes("prov", item("i", &[("a", "1"), ("b", "x")]))
            .unwrap();
        sim.sleep(std::time::Duration::from_secs(11));
        let q = "select * from prov where itemName() = 'i'";
        let first = db.select_all(q).unwrap().remove(0);
        let second = db.select_all(q).unwrap().remove(0);
        assert!(
            Arc::ptr_eq(&first.attrs, &second.attrs),
            "shared, not copied"
        );

        let mut got = db.get_attributes("prov", "i").unwrap();
        assert_eq!(got, old);
        got.clear();
        assert_eq!(*first.attrs, old, "get_attributes hands out its own copy");

        let mut replace = item("i", &[("a", "2")]);
        replace.replace = true;
        db.put_attributes("prov", replace).unwrap();
        let new = item("i", &[("b", "x"), ("a", "2")]).attrs;
        assert_eq!(*first.attrs, old, "a held item is a snapshot");
        let stale = (0..200)
            .map(|_| db.select_all(q).unwrap().remove(0))
            .find(|i| *i.attrs == old)
            .expect("a stale read within 200 tries");
        assert!(Arc::ptr_eq(&stale.attrs, &first.attrs));
        sim.sleep(std::time::Duration::from_secs(11));
        let fresh = db.select_all(q).unwrap().remove(0);
        assert_eq!(*fresh.attrs, new);
        assert_eq!(*first.attrs, old);
    }

    /// `count` items named `{prefix}{n:04}`, every other one ~12 KB:
    /// a `select *` page of them is cut by bytes, not by count.
    fn load(db: &Database, prefix: &str, count: usize) {
        let chunk = "v".repeat(1000);
        for batch in (0..count).collect::<Vec<_>>().chunks(BATCH_LIMIT) {
            let items = batch
                .iter()
                .map(|&n| {
                    let mut attrs =
                        vec![("type".to_string(), ["file", "process"][n % 2].to_string())];
                    if n % 2 == 0 {
                        attrs.extend((0..12).map(|j| (format!("data{j}"), chunk.clone())));
                    }
                    PutItem {
                        name: format!("{prefix}{n:04}"),
                        attrs,
                        replace: false,
                    }
                })
                .collect();
            db.batch_put_attributes("prov", items).unwrap();
        }
    }

    #[test]
    fn a_like_prefix_keeps_rev_1_apart_from_its_neighbours() {
        let (sim, db) = db(AwsProfile::instant());
        for name in [
            "rev_", "rev_1", "rev_10", "rev_100", "rev_1a", "rev_2", "name_x~0",
        ] {
            db.put_attributes("prov", item(name, &[("type", "file")]))
                .unwrap();
        }
        for (like, want) in [
            ("rev_1%", &["rev_1", "rev_10", "rev_100", "rev_1a"][..]),
            ("rev_1", &["rev_1"]),
            ("rev_10%", &["rev_10", "rev_100"]),
            ("rev_1%0", &["rev_10", "rev_100"]),
            ("rev_1%a", &["rev_1a"]),
            (
                "rev_%",
                &["rev_", "rev_1", "rev_10", "rev_100", "rev_1a", "rev_2"],
            ),
            ("rev_3%", &[]),
            ("s%", &[]),
        ] {
            let q = format!("select itemName() from prov where itemName() like '{like}'");
            let (narrowed, walked) = both_ways(&db, &q, 0, sim.now());
            assert_eq!(narrowed, walked, "{like}");
            assert_eq!(names(&narrowed), want, "{like}");
        }
    }

    #[test]
    fn a_name_range_cuts_pages_where_the_walk_does() {
        let (sim, db) = db(AwsProfile::instant());
        load(&db, "a", 100);
        load(&db, "r", 1000);
        load(&db, "s", 100);
        for (q, pages) in [
            ("select * from prov where itemName() like 'r%'", 6),
            ("select itemName() from prov where itemName() like 'r%'", 4),
            ("select itemName() from prov where itemName() like 'r0%'", 4),
            ("select count(*) from prov where itemName() like 'r%'", 1),
            ("select * from prov where itemName() like 'r%' limit 100", 1),
            (
                "select * from prov where itemName() like 'r%' and type = 'file'",
                6,
            ),
        ] {
            for start in [0, 3] {
                let (narrowed, walked) = both_ways(&db, q, start, sim.now());
                assert_eq!(narrowed, walked, "{q} from {start}");
                assert_eq!(narrowed.len(), pages, "{q} from {start}");
            }
        }
        let first = |q: &str| both_ways(&db, q, 0, sim.now()).0.remove(0).0;
        let page = first("select * from prov where itemName() like 'r%'");
        assert!(page.items.len() < SELECT_PAGE_ITEMS, "cut by bytes");
        let page = first("select itemName() from prov where itemName() like 'r%'");
        assert_eq!(page.items.len(), SELECT_PAGE_ITEMS, "cut by count");
        let page = first("select count(*) from prov where itemName() like 'r%'");
        assert_eq!(page.count, Some(1000));
        let page = first("select itemName() from prov where itemName() like 'r%' limit 7");
        let names: Vec<_> = page.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(
            names,
            ["r0000", "r0001", "r0002", "r0003", "r0004", "r0005", "r0006"]
        );
    }

    use proptest::prelude::*;
    use proptest::strategy::TestRng;

    const ITEMS: usize = 12;
    const ATTRS: [&str; 4] = ["type", "name", "input", "a"];
    const VALUES: [&str; 5] = ["file", "process", "0", "1", "2"];
    /// Names beyond `i0`..`i11`: quotes, and the index's own neighbours.
    const ODD_NAMES: [&str; 4] = ["o'b", "o'b1", "rev_1", "rev_10"];

    fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
        from[rng.usize_in(0..from.len())]
    }

    fn item_name(rng: &mut TestRng) -> String {
        if rng.usize_in(0..4) == 0 {
            pick(rng, &ODD_NAMES).to_string()
        } else {
            format!("i{}", rng.usize_in(0..ITEMS))
        }
    }

    /// An `itemName() like` predicate drawn from a stored name: the whole
    /// name, a strict prefix, one character past it, past every name, a
    /// bare `%`, no `%` at all, or a `%` in the middle.
    fn name_like(rng: &mut TestRng) -> String {
        let name = item_name(rng);
        let (head, tail) = name.split_at(rng.usize_in(0..name.len()));
        let mut bumped = name.clone().into_bytes();
        *bumped.last_mut().unwrap() += 1;
        let bumped = String::from_utf8(bumped).unwrap();
        let pattern = match rng.usize_in(0..8) {
            0 => quote_like_prefix(&name, "%"),
            1 => quote_like_prefix(head, "%"),
            2 => quote_like_prefix(&format!("{name}0"), "%"),
            3 => quote_like_prefix(&bumped, "%"),
            4 => quote_like_prefix("z", "%"),
            5 => quote_like_prefix("", "%"),
            6 => quote_like_prefix(&name, ""),
            _ => quote_like_prefix(&format!("{head}%{tail}"), ""),
        };
        format!("itemName() like {pattern}")
    }

    /// A random WHERE expression, AND-heavy so that narrowing terms sit
    /// at every depth, over the grammar's every predicate form.
    fn expr(rng: &mut TestRng, depth: u32) -> String {
        if depth > 0 && rng.usize_in(0..3) > 0 {
            let (a, b) = (expr(rng, depth - 1), expr(rng, depth - 1));
            return match rng.usize_in(0..5) {
                0..=2 => format!("({a} and {b})"),
                3 => format!("({a} or {b})"),
                _ => format!("not {a}"),
            };
        }
        let attr = pick(rng, &ATTRS);
        match rng.usize_in(0..10) {
            0..=2 => format!("{attr} = '{}'", pick(rng, &VALUES)),
            3 => format!(
                "{attr} in ('{}', '{}')",
                pick(rng, &VALUES),
                pick(rng, &VALUES)
            ),
            4 => format!("{attr} != '{}'", pick(rng, &VALUES)),
            5 => format!("{attr} like '{}%'", &pick(rng, &VALUES)[..1]),
            6 => format!("{attr} is {}null", ["", "not "][rng.usize_in(0..2)]),
            7 => name_points(rng),
            _ => name_like(rng),
        }
    }

    /// An `itemName() = '…'` or `itemName() in (…)` predicate whose
    /// names may repeat or name no item at all.
    fn name_points(rng: &mut TestRng) -> String {
        if rng.usize_in(0..4) == 0 {
            return format!("itemName() = {}", quote_literal(&item_name(rng)));
        }
        let names: Vec<String> = (0..rng.usize_in(1..6))
            .map(|_| match rng.usize_in(0..4) {
                0 => quote_literal("absent"),
                _ => quote_literal(&item_name(rng)),
            })
            .collect();
        let dup = names[0].clone();
        format!("itemName() in ({}, {dup})", names.join(", "))
    }

    fn query(rng: &mut TestRng) -> String {
        let mut q = format!(
            "select {} from prov",
            pick(rng, &["*", "itemName()", "count(*)"])
        );
        if rng.usize_in(0..6) > 0 {
            let e = expr(rng, 3);
            q += &match rng.usize_in(0..10) {
                0 => format!(" where {} and {e}", name_like(rng)),
                1 => format!(" where {} and {}", name_like(rng), expr(rng, 0)),
                2 => format!(" where {} or {e}", name_like(rng)),
                3 => format!(" where {}", name_like(rng)),
                4 => format!(" where {}", name_points(rng)),
                5 => format!(" where {} and {e}", name_points(rng)),
                // Neither may narrow: the names bound no match.
                6 => format!(" where {} or {e}", name_points(rng)),
                7 => format!(" where not {}", name_points(rng)),
                _ => format!(" where {e}"),
            };
        }
        if rng.usize_in(0..4) == 0 {
            q += &format!(" limit {}", rng.usize_in(1..5));
        }
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// SELECTs narrowed by item-name lookups, by posting list or by
        /// item-name range and the full walk, over the same randomly
        /// written, deleted and aged domain, return the same pages at
        /// every horizon a read may be served, resumed from any match
        /// and under any limit; and every retained version stays posted.
        #[test]
        fn narrowed_select_matches_the_full_walk(
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..40),
        ) {
            let (sim, db) = db(eventual(4));
            for (kind, seed) in ops {
                let mut rng = TestRng::new(seed);
                match kind {
                    0..=3 => {
                        let items = (0..rng.usize_in(1..4))
                            .map(|_| PutItem {
                                name: item_name(&mut rng),
                                attrs: (0..rng.usize_in(1..4))
                                    .map(|_| (pick(&mut rng, &ATTRS).into(), pick(&mut rng, &VALUES).into()))
                                    .collect(),
                                replace: rng.usize_in(0..2) == 0,
                            })
                            .collect();
                        db.batch_put_attributes("prov", items).unwrap();
                    }
                    4 => db.delete_item("prov", &item_name(&mut rng)).unwrap(),
                    _ => sim.sleep(std::time::Duration::from_millis(rng.usize_in(0..3000) as u64)),
                }
                for _ in 0..2 {
                    let q = query(&mut rng);
                    let start = rng.usize_in(0..4);
                    let horizon = ago(&sim, rng.usize_in(0..6) as u64);
                    let (narrowed, walked) = both_ways(&db, &q, start, horizon);
                    prop_assert_eq!(narrowed, walked, "{} from {}", q, start);
                }
                prop_assert_eq!(unposted(&db), Vec::<(String, String, String)>::new());
            }
        }

        /// The live-item counter the planner reads equals a walk over
        /// every item's latest version after every put, delete and
        /// clock advance.
        #[test]
        fn the_live_count_matches_the_walk(
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..60),
        ) {
            let (sim, db) = db(eventual(4));
            for (kind, seed) in ops {
                let mut rng = TestRng::new(seed);
                match kind {
                    0..=2 => {
                        let items = (0..rng.usize_in(1..4))
                            .map(|_| item(&item_name(&mut rng), &[("a", pick(&mut rng, &VALUES))]))
                            .collect();
                        db.batch_put_attributes("prov", items).unwrap();
                    }
                    3 | 4 => db.delete_item("prov", &item_name(&mut rng)).unwrap(),
                    _ => sim.sleep(std::time::Duration::from_millis(rng.usize_in(0..6000) as u64)),
                }
                let walked = db.state.lock().domains["prov"]
                    .items
                    .values()
                    .filter(|h| h.latest().is_some())
                    .count();
                prop_assert_eq!(db.peek_item_count("prov"), walked);
            }
        }
    }
}
