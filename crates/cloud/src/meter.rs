//! Usage metering: every simulated service call is recorded here.
//!
//! The paper's Table 3 (operation and data-transfer overheads) and Table 4
//! (dollar cost per benchmark) are pure functions of the op/byte counts a
//! run generates. The meter tracks counts per *service*, per *operation*,
//! and per *actor* — the latter so that P3's asynchronous commit daemon can
//! be included in cost (Table 4 "includes commit daemon cost") but excluded
//! from client-side operation counts (Table 3 "numbers do not include the
//! commit daemon"), exactly as the paper reports them.
//!
//! Calls can additionally carry a [`TenantId`] label (see
//! `CloudEnv::for_tenant`): the fleet benchmark uses it to attribute
//! ops, bytes and dollars to individual tenants of a shared commit
//! plane. Untenanted calls (daemons, queries, single-tenant harnesses)
//! are metered exactly as before.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_sim::SimTime;

/// Which simulated service performed an operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Service {
    /// The S3-like object store.
    ObjectStore,
    /// The SimpleDB-like database.
    Database,
    /// The SQS-like messaging service.
    Queue,
}

impl Service {
    /// Human-readable service name (matches the paper's terminology).
    pub fn name(self) -> &'static str {
        match self {
            Service::ObjectStore => "S3",
            Service::Database => "SimpleDB",
            Service::Queue => "SQS",
        }
    }
}

/// The kind of API call, for per-op pricing and accounting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Op {
    /// S3 PUT (data upload).
    Put,
    /// S3 GET (data download).
    Get,
    /// S3 HEAD (metadata read).
    Head,
    /// S3 server-side COPY.
    Copy,
    /// S3 / SimpleDB / SQS delete.
    Delete,
    /// S3 LIST page.
    List,
    /// SimpleDB PutAttributes / BatchPutAttributes.
    DbPut,
    /// SimpleDB GetAttributes.
    DbGet,
    /// SimpleDB SELECT page.
    DbSelect,
    /// SQS SendMessage.
    Send,
    /// SQS ReceiveMessage.
    Receive,
    /// SQS ChangeMessageVisibility (lease renewal / early release).
    ChangeVisibility,
}

impl Op {
    /// Every operation the meter can record, for completeness checks
    /// (pricing and tracing iterate this to prove no variant is missed).
    pub const ALL: [Op; 12] = [
        Op::Put,
        Op::Get,
        Op::Head,
        Op::Copy,
        Op::Delete,
        Op::List,
        Op::DbPut,
        Op::DbGet,
        Op::DbSelect,
        Op::Send,
        Op::Receive,
        Op::ChangeVisibility,
    ];

    /// Short API-style label (`"S3.Put"`-style span names, tables).
    pub fn label(self) -> &'static str {
        match self {
            Op::Put => "Put",
            Op::Get => "Get",
            Op::Head => "Head",
            Op::Copy => "Copy",
            Op::Delete => "Delete",
            Op::List => "List",
            Op::DbPut => "DbPut",
            Op::DbGet => "DbGet",
            Op::DbSelect => "DbSelect",
            Op::Send => "Send",
            Op::Receive => "Receive",
            Op::ChangeVisibility => "ChangeVisibility",
        }
    }

    /// The services that can legitimately record this op — the domain the
    /// price book must cover.
    pub fn services(self) -> &'static [Service] {
        match self {
            Op::Put | Op::Get | Op::Head | Op::Copy | Op::List => &[Service::ObjectStore],
            Op::Delete => &[Service::ObjectStore, Service::Database, Service::Queue],
            Op::DbPut | Op::DbGet | Op::DbSelect => &[Service::Database],
            Op::Send | Op::Receive | Op::ChangeVisibility => &[Service::Queue],
        }
    }
}

/// Label identifying one tenant of a multi-tenant fleet. Purely an
/// accounting dimension: the services themselves are tenant-oblivious.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Who issued the operation. The paper distinguishes the foreground client
/// from P3's background daemons when reporting op counts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Actor {
    /// Foreground client (PA-S3fs / benchmark tool).
    #[default]
    Client,
    /// P3 commit daemon.
    CommitDaemon,
    /// P3 cleaner daemon.
    CleanerDaemon,
    /// Query engine.
    Query,
}

/// Counters for one (actor, service, op) combination.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct OpStats {
    /// Number of calls.
    pub count: u64,
    /// Bytes sent to the service (request payloads).
    pub bytes_in: u64,
    /// Bytes returned by the service (response payloads).
    pub bytes_out: u64,
}

impl OpStats {
    fn add(&mut self, bytes_in: u64, bytes_out: u64) {
        self.count += 1;
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
    }
}

#[derive(Default)]
struct StorageIntegral {
    current_bytes: u64,
    last_change: SimTime,
    byte_micros: u128,
}

impl StorageIntegral {
    fn adjust(&mut self, now: SimTime, delta: i64) {
        let elapsed = now.saturating_duration_since(self.last_change);
        self.byte_micros += u128::from(self.current_bytes) * elapsed.as_micros();
        self.last_change = now;
        self.current_bytes = if delta >= 0 {
            self.current_bytes + delta as u64
        } else {
            self.current_bytes.saturating_sub((-delta) as u64)
        };
    }

    fn gb_months(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_duration_since(self.last_change);
        let total = self.byte_micros + u128::from(self.current_bytes) * elapsed.as_micros();
        // One month = 30 days, as AWS billed it.
        let month_micros = 30.0 * 24.0 * 3600.0 * 1e6;
        (total as f64) / (1u64 << 30) as f64 / month_micros
    }
}

struct MeterState {
    ops: BTreeMap<(Actor, Service, Op), OpStats>,
    tenant_ops: BTreeMap<(TenantId, Service, Op), OpStats>,
    storage: BTreeMap<Service, StorageIntegral>,
}

/// Shared, thread-safe usage meter. Clone handles freely.
#[derive(Clone)]
pub struct Meter {
    state: Arc<Mutex<MeterState>>,
}

impl std::fmt::Debug for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Meter")
            .field("distinct_op_kinds", &st.ops.len())
            .finish()
    }
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Meter {
        Meter {
            state: Arc::new(Mutex::new(MeterState {
                ops: BTreeMap::new(),
                tenant_ops: BTreeMap::new(),
                storage: BTreeMap::new(),
            })),
        }
    }

    /// Records one service call. `tenant` additionally attributes the call
    /// to a tenant of a multi-tenant fleet (None for single-tenant runs
    /// and shared infrastructure like the commit daemons).
    pub fn record(
        &self,
        actor: Actor,
        tenant: Option<TenantId>,
        service: Service,
        op: Op,
        bytes_in: u64,
        bytes_out: u64,
    ) {
        let mut st = self.state.lock();
        st.ops
            .entry((actor, service, op))
            .or_default()
            .add(bytes_in, bytes_out);
        if let Some(t) = tenant {
            st.tenant_ops
                .entry((t, service, op))
                .or_default()
                .add(bytes_in, bytes_out);
        }
    }

    /// `(ops, bytes in + out)` of `tenant`'s line when given — every
    /// actor's calls labelled with it — else of `actor`'s calls. The
    /// same sums as [`UsageReport::tenant_ops_total`] and
    /// [`UsageReport::total_ops`], without copying the report.
    pub fn totals(&self, actor: Actor, tenant: Option<TenantId>) -> (u64, u64) {
        // The least (service, op) in derived order: both are their
        // enum's first variant.
        const FIRST: (Service, Op) = (Service::ObjectStore, Op::Put);
        fn sum<'a>(rows: impl Iterator<Item = &'a OpStats>) -> (u64, u64) {
            rows.fold((0, 0), |(ops, bytes), s| {
                (ops + s.count, bytes + s.bytes_in + s.bytes_out)
            })
        }
        let st = self.state.lock();
        match tenant {
            Some(t) => sum(st
                .tenant_ops
                .range((t, FIRST.0, FIRST.1)..)
                .take_while(|((row, _, _), _)| *row == t)
                .map(|(_, s)| s)),
            None => sum(st
                .ops
                .range((actor, FIRST.0, FIRST.1)..)
                .take_while(|((a, _, _), _)| *a == actor)
                .map(|(_, s)| s)),
        }
    }

    /// Records a change in stored bytes (positive on PUT, negative on
    /// DELETE/overwrite), used for the storage-time cost integral.
    pub fn record_storage_delta(&self, service: Service, now: SimTime, delta: i64) {
        self.state
            .lock()
            .storage
            .entry(service)
            .or_default()
            .adjust(now, delta);
    }

    /// Produces an aggregated usage report.
    pub fn report(&self, now: SimTime) -> UsageReport {
        let st = self.state.lock();
        UsageReport {
            ops: st.ops.clone(),
            tenant_ops: st.tenant_ops.clone(),
            storage_gb_months: st
                .storage
                .iter()
                .map(|(s, integ)| (*s, integ.gb_months(now)))
                .collect(),
        }
    }
}

/// Aggregated usage over a run, queried by the benchmark harness.
#[derive(Clone, Debug, Default)]
pub struct UsageReport {
    /// Per-(actor, service, op) statistics.
    pub ops: BTreeMap<(Actor, Service, Op), OpStats>,
    /// Per-(tenant, service, op) statistics for tenant-labeled calls.
    pub tenant_ops: BTreeMap<(TenantId, Service, Op), OpStats>,
    /// Integrated storage usage per service, in GB-months.
    pub storage_gb_months: BTreeMap<Service, f64>,
}

impl UsageReport {
    /// Total operation count matching a filter.
    pub fn total_ops(&self, filter: impl Fn(Actor, Service, Op) -> bool) -> u64 {
        self.ops
            .iter()
            .filter(|((a, s, o), _)| filter(*a, *s, *o))
            .map(|(_, st)| st.count)
            .sum()
    }

    /// Total bytes transferred (in + out) matching a filter.
    pub fn total_bytes(&self, filter: impl Fn(Actor, Service, Op) -> bool) -> u64 {
        self.ops
            .iter()
            .filter(|((a, s, o), _)| filter(*a, *s, *o))
            .map(|(_, st)| st.bytes_in + st.bytes_out)
            .sum()
    }

    /// Client-side operation count (the paper's Table 3 metric: excludes
    /// the commit daemon).
    pub fn client_ops(&self) -> u64 {
        self.total_ops(|a, _, _| a == Actor::Client)
    }

    /// Client-side bytes transferred, in megabytes (Table 3 metric).
    pub fn client_mb_transferred(&self) -> f64 {
        self.total_bytes(|a, _, _| a == Actor::Client) as f64 / 1e6
    }

    /// Statistics for one (actor, service, op), zero if absent.
    pub fn get(&self, actor: Actor, service: Service, op: Op) -> OpStats {
        self.ops
            .get(&(actor, service, op))
            .copied()
            .unwrap_or_default()
    }

    /// Every tenant that appears in this report, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self.tenant_ops.keys().map(|(t, _, _)| *t).collect();
        out.dedup();
        out
    }

    /// Total operation count attributed to `tenant`.
    pub fn tenant_ops_total(&self, tenant: TenantId) -> u64 {
        self.tenant_ops
            .iter()
            .filter(|((t, _, _), _)| *t == tenant)
            .map(|(_, st)| st.count)
            .sum()
    }

    /// Total bytes (in + out) attributed to `tenant`.
    pub fn tenant_bytes_total(&self, tenant: TenantId) -> u64 {
        self.tenant_ops
            .iter()
            .filter(|((t, _, _), _)| *t == tenant)
            .map(|(_, st)| st.bytes_in + st.bytes_out)
            .sum()
    }

    /// A report containing only the ops attributed to `tenant`, suitable
    /// for per-tenant costing with [`PriceBook::cost`]. Storage-time is a
    /// pooled resource and is not tenant-attributed (it comes back empty
    /// here); per-tenant dollar figures therefore cover transfer, request
    /// and box-usage charges.
    ///
    /// [`PriceBook::cost`]: crate::PriceBook::cost
    pub fn tenant_view(&self, tenant: TenantId) -> UsageReport {
        let tenant_ops: BTreeMap<(TenantId, Service, Op), OpStats> = self
            .tenant_ops
            .iter()
            .filter(|((t, _, _), _)| *t == tenant)
            .map(|(k, v)| (*k, *v))
            .collect();
        UsageReport {
            ops: tenant_ops
                .iter()
                .map(|((_, s, o), st)| ((Actor::Client, *s, *o), *st))
                .collect(),
            tenant_ops,
            storage_gb_months: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_accumulate() {
        let m = Meter::new();
        m.record(Actor::Client, None, Service::ObjectStore, Op::Put, 100, 0);
        m.record(Actor::Client, None, Service::ObjectStore, Op::Put, 200, 0);
        m.record(
            Actor::CommitDaemon,
            None,
            Service::Queue,
            Op::Receive,
            0,
            50,
        );
        let r = m.report(SimTime::ZERO);
        let put = r.get(Actor::Client, Service::ObjectStore, Op::Put);
        assert_eq!(put.count, 2);
        assert_eq!(put.bytes_in, 300);
        assert_eq!(r.client_ops(), 2);
        assert_eq!(r.total_ops(|_, _, _| true), 3);
    }

    #[test]
    fn client_ops_exclude_daemon() {
        let m = Meter::new();
        m.record(
            Actor::CommitDaemon,
            None,
            Service::Database,
            Op::DbPut,
            10,
            0,
        );
        let r = m.report(SimTime::ZERO);
        assert_eq!(r.client_ops(), 0);
        assert_eq!(r.total_ops(|_, _, _| true), 1);
    }

    #[test]
    fn tenant_labels_split_usage() {
        let m = Meter::new();
        let (a, b) = (TenantId(0), TenantId(1));
        m.record(
            Actor::Client,
            Some(a),
            Service::ObjectStore,
            Op::Put,
            100,
            0,
        );
        m.record(Actor::Client, Some(a), Service::ObjectStore, Op::Get, 0, 50);
        m.record(Actor::Client, Some(b), Service::Queue, Op::Send, 30, 0);
        m.record(
            Actor::CommitDaemon,
            None,
            Service::Queue,
            Op::Receive,
            0,
            30,
        );
        let r = m.report(SimTime::ZERO);
        assert_eq!(r.tenants(), vec![a, b]);
        assert_eq!(r.tenant_ops_total(a), 2);
        assert_eq!(r.tenant_ops_total(b), 1);
        assert_eq!(r.tenant_bytes_total(a), 150);
        assert_eq!(r.tenant_bytes_total(b), 30);
        // The untenanted aggregate still sees every call.
        assert_eq!(r.total_ops(|_, _, _| true), 4);
        // A tenant view carries only that tenant's ops.
        let view = r.tenant_view(a);
        assert_eq!(view.total_ops(|_, _, _| true), 2);
        assert_eq!(view.tenants(), vec![a]);
        assert!(view.storage_gb_months.is_empty());
    }

    use proptest::prelude::*;
    use proptest::strategy::TestRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `Meter::totals` sums what the report's filters sum, for every
        /// actor, tenant line and untenanted aggregate.
        #[test]
        fn totals_match_the_report(seed in any::<u64>()) {
            let services = [Service::ObjectStore, Service::Database, Service::Queue];
            let actors = [
                Actor::Client,
                Actor::CommitDaemon,
                Actor::CleanerDaemon,
                Actor::Query,
            ];
            let m = Meter::new();
            let mut rng = TestRng::new(seed);
            for _ in 0..rng.usize_in(0..300) {
                let tenant = match rng.usize_in(0..4) {
                    0 => None,
                    t => Some(TenantId(t as u32)),
                };
                m.record(
                    actors[rng.usize_in(0..actors.len())],
                    tenant,
                    services[rng.usize_in(0..services.len())],
                    Op::ALL[rng.usize_in(0..Op::ALL.len())],
                    rng.usize_in(0..500) as u64,
                    rng.usize_in(0..500) as u64,
                );
            }
            let r = m.report(SimTime::ZERO);
            for actor in actors {
                let want = (
                    r.total_ops(|a, _, _| a == actor),
                    r.total_bytes(|a, _, _| a == actor),
                );
                prop_assert_eq!(m.totals(actor, None), want);
                for t in (1..5).map(TenantId) {
                    let want = (r.tenant_ops_total(t), r.tenant_bytes_total(t));
                    prop_assert_eq!(m.totals(actor, Some(t)), want);
                }
            }
        }
    }

    #[test]
    fn storage_integral_accumulates_byte_time() {
        let m = Meter::new();
        let t0 = SimTime::ZERO;
        // Store 1 GiB at t=0, hold for one 30-day month.
        m.record_storage_delta(Service::ObjectStore, t0, 1 << 30);
        let one_month = t0 + Duration::from_secs(30 * 24 * 3600);
        let r = m.report(one_month);
        let gbm = r.storage_gb_months[&Service::ObjectStore];
        assert!((gbm - 1.0).abs() < 1e-9, "got {gbm}");
    }

    #[test]
    fn storage_delete_stops_accrual() {
        let m = Meter::new();
        let t0 = SimTime::ZERO;
        m.record_storage_delta(Service::ObjectStore, t0, 1 << 30);
        let mid = t0 + Duration::from_secs(15 * 24 * 3600);
        m.record_storage_delta(Service::ObjectStore, mid, -(1i64 << 30));
        let end = t0 + Duration::from_secs(30 * 24 * 3600);
        let gbm = m.report(end).storage_gb_months[&Service::ObjectStore];
        assert!((gbm - 0.5).abs() < 1e-9, "got {gbm}");
    }
}
