//! [`CloudEnv`]: one simulated AWS account bundling the three services, a
//! shared meter, a shared fault plan and the latency profile.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_sim::Sim;
use cloudprov_trace::Tracer;

use crate::fault::FaultHandle;
use crate::meter::{Meter, Service, TenantId, UsageReport};
use crate::pricing::{CostBreakdown, PriceBook};
use crate::profile::AwsProfile;
use crate::s3::ObjectStore;
use crate::sdb::Database;
use crate::service::ServiceCore;
use crate::sqs::QueueService;

/// A complete simulated cloud: S3-like store, SimpleDB-like database and
/// SQS-like queue sharing one profile, meter and fault plan.
///
/// # Examples
///
/// ```
/// use cloudprov_cloud::{AwsProfile, Blob, CloudEnv, Metadata};
/// use cloudprov_sim::Sim;
///
/// let sim = Sim::new();
/// let env = CloudEnv::new(&sim, AwsProfile::instant());
/// env.s3().put("bucket", "key", Blob::from("data"), Metadata::new())?;
/// assert_eq!(env.s3().get("bucket", "key")?.blob, Blob::from("data"));
/// # Ok::<(), cloudprov_cloud::CloudError>(())
/// ```
#[derive(Clone)]
pub struct CloudEnv {
    sim: Sim,
    profile: AwsProfile,
    s3: ObjectStore,
    sdb: Database,
    sqs: QueueService,
    meter: Meter,
    faults: FaultHandle,
    tracer: Tracer,
    tenant: Option<TenantId>,
    memos: Memos,
}

/// One value per type, made on first use and shared by every clone and
/// tenant view of one environment ([`CloudEnv::memo`]).
type Memos = Arc<Mutex<BTreeMap<TypeId, Arc<dyn Any + Send + Sync>>>>;

impl std::fmt::Debug for CloudEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudEnv")
            .field("context", &self.profile.context)
            .finish()
    }
}

impl CloudEnv {
    /// Provisions a fresh cloud environment on the given simulation.
    pub fn new(sim: &Sim, profile: AwsProfile) -> CloudEnv {
        let meter = Meter::new();
        let faults = FaultHandle::new();
        let tracer = Tracer::new(sim);
        let s3 = ObjectStore::new(ServiceCore::new(
            sim,
            Service::ObjectStore,
            &profile,
            meter.clone(),
            faults.clone(),
            tracer.clone(),
        ));
        let sdb = Database::new(ServiceCore::new(
            sim,
            Service::Database,
            &profile,
            meter.clone(),
            faults.clone(),
            tracer.clone(),
        ));
        let sqs = QueueService::new(ServiceCore::new(
            sim,
            Service::Queue,
            &profile,
            meter.clone(),
            faults.clone(),
            tracer.clone(),
        ));
        CloudEnv {
            sim: sim.clone(),
            profile,
            s3,
            sdb,
            sqs,
            meter,
            faults,
            tracer,
            tenant: None,
            memos: Memos::default(),
        }
    }

    /// A view of the same cloud account whose service calls are
    /// additionally attributed to `tenant`. State (objects, items,
    /// queues), the meter, faults and the clock are all shared with the
    /// parent — only the accounting label differs. The fleet driver hands
    /// each simulated client a tenant view so [`UsageReport::tenant_view`]
    /// can price every tenant separately.
    pub fn for_tenant(&self, tenant: TenantId) -> CloudEnv {
        CloudEnv {
            s3: self.s3.with_tenant(tenant),
            sdb: self.sdb.with_tenant(tenant),
            sqs: self.sqs.with_tenant(tenant),
            tenant: Some(tenant),
            ..self.clone()
        }
    }

    /// The tenant this view attributes its calls to, if any. Protocols
    /// stamp it into their WAL headers so daemon-side events (the change
    /// feed) can carry the originating tenant without a lookup.
    pub fn tenant(&self) -> Option<TenantId> {
        self.tenant
    }

    /// The simulation this environment runs on.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The latency/consistency profile in force.
    pub fn profile(&self) -> &AwsProfile {
        &self.profile
    }

    /// Object-store handle (client actor).
    pub fn s3(&self) -> &ObjectStore {
        &self.s3
    }

    /// Database handle (client actor).
    pub fn sdb(&self) -> &Database {
        &self.sdb
    }

    /// Queue handle (client actor).
    pub fn sqs(&self) -> &QueueService {
        &self.sqs
    }

    /// The shared usage meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The shared fault-injection handle.
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }

    /// The shared span tracer (disabled by default; `tracer().enable(seed)`
    /// turns on collection for the whole environment, including the
    /// per-call leaf spans the service layer emits).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This world's `T`: one value, made by `T::default()` on first use
    /// and shared by every clone and tenant view of this environment, so
    /// state derived from the stored data (a read path's decode memo)
    /// has one owner per world rather than one per reader.
    pub fn memo<T: Default + Send + Sync + 'static>(&self) -> Arc<T> {
        let any = Arc::clone(
            self.memos
                .lock()
                .entry(TypeId::of::<T>())
                .or_insert_with(|| Arc::new(T::default())),
        );
        any.downcast().expect("a memo is stored under its own type")
    }

    /// Convenience: current usage report.
    pub fn usage(&self) -> UsageReport {
        self.meter.report(self.sim.now())
    }

    /// Convenience: current cost at 2009 prices.
    pub fn cost(&self) -> CostBreakdown {
        PriceBook::aws_2009().cost(&self.usage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::Blob;
    use crate::meter::{Actor, Op};
    use crate::s3::Metadata;
    use bytes::Bytes;

    #[test]
    fn env_bundles_working_services() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        env.s3()
            .put("b", "k", Blob::from("x"), Metadata::new())
            .unwrap();
        env.sdb().create_domain("d");
        env.sdb()
            .put_attributes(
                "d",
                crate::sdb::PutItem {
                    name: "i".into(),
                    attrs: vec![("a".into(), "1".into())],
                    replace: false,
                },
            )
            .unwrap();
        let url = env.sqs().create_queue("q");
        env.sqs().send(&url, Bytes::from_static(b"m")).unwrap();
        let usage = env.usage();
        assert_eq!(
            usage
                .get(Actor::Client, Service::ObjectStore, Op::Put)
                .count,
            1
        );
        assert_eq!(
            usage.get(Actor::Client, Service::Database, Op::DbPut).count,
            1
        );
        assert_eq!(usage.get(Actor::Client, Service::Queue, Op::Send).count, 1);
        assert!(env.cost().total() > 0.0);
    }

    #[test]
    fn every_view_of_a_world_shares_its_memo() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let memo = env.memo::<Mutex<u64>>();
        *memo.lock() += 1;
        let tenant = env.clone().for_tenant(TenantId(3));
        assert!(Arc::ptr_eq(&tenant.memo::<Mutex<u64>>(), &memo));
        assert_eq!(*env.memo::<Mutex<u64>>().lock(), 1);
        assert_eq!(*env.memo::<Mutex<u32>>().lock(), 0, "one value per type");
        let other = CloudEnv::new(&sim, AwsProfile::instant());
        assert_eq!(*other.memo::<Mutex<u64>>().lock(), 0, "one value per world");
    }

    #[test]
    fn services_share_one_meter() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        env.s3()
            .put("b", "k", Blob::synthetic(1 << 20, 0), Metadata::new())
            .unwrap();
        let usage = env.usage();
        assert_eq!(usage.client_ops(), 1);
        assert!(usage.client_mb_transferred() > 1.0);
    }
}
