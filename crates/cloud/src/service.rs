//! Shared request machinery for the three services: admission control,
//! latency accounting, jitter, fault injection and metering.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cloudprov_sim::{Sim, SimSemaphore, SimTime};
use cloudprov_trace::{Tracer, SCOPE_CLEANER, SCOPE_CLIENT, SCOPE_COMMIT_DAEMON, SCOPE_QUERY};

use crate::error::{CloudError, Result};
use crate::fault::FaultHandle;
use crate::meter::{Actor, Meter, Op, Service, TenantId};
use crate::pricing::PriceBook;
use crate::profile::{AwsProfile, ConsistencyParams, RunContext, ServiceParams};

/// The tracer scope tag a metered actor's leaf spans attach under.
pub(crate) fn actor_scope(actor: Actor) -> u8 {
    match actor {
        Actor::Client => SCOPE_CLIENT,
        Actor::CommitDaemon => SCOPE_COMMIT_DAEMON,
        Actor::CleanerDaemon => SCOPE_CLEANER,
        Actor::Query => SCOPE_QUERY,
    }
}

/// Per-service request engine. Every API call of every service funnels
/// through [`ServiceCore::call`], which charges latency on the virtual
/// clock, enforces the server-side concurrency cap, applies jitter and
/// faults, and meters the call.
pub(crate) struct ServiceCore {
    sim: Sim,
    service: Service,
    params: ServiceParams,
    context: RunContext,
    consistency: ConsistencyParams,
    slots: SimSemaphore,
    meter: Meter,
    faults: FaultHandle,
    tracer: Tracer,
    rng: Mutex<SmallRng>,
}

fn scale(d: Duration, f: f64) -> Duration {
    if f == 1.0 {
        d
    } else {
        d.mul_f64(f)
    }
}

impl ServiceCore {
    pub(crate) fn new(
        sim: &Sim,
        service: Service,
        profile: &AwsProfile,
        meter: Meter,
        faults: FaultHandle,
        tracer: Tracer,
    ) -> Arc<ServiceCore> {
        let params = *profile.params(service);
        Arc::new(ServiceCore {
            sim: sim.clone(),
            service,
            params,
            context: profile.context,
            consistency: profile.consistency,
            slots: SimSemaphore::new(sim, params.server_concurrency),
            meter,
            faults,
            tracer,
            rng: Mutex::new(SmallRng::seed_from_u64(
                profile.seed ^ (service as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
        })
    }

    pub(crate) fn meter(&self) -> &Meter {
        &self.meter
    }

    /// One "is this push notification lost?" decision from the fault
    /// plan's seeded stream.
    pub(crate) fn draw_notify_drop(&self) -> bool {
        self.faults.draw_notify_drop()
    }

    pub(crate) fn service(&self) -> Service {
        self.service
    }

    /// Draws the staleness for one eventually consistent read: zero with
    /// probability `1 - stale_read_probability`, otherwise exponential with
    /// the profile's mean, capped at the maximum window. The fault plan can
    /// add a constant on top.
    pub(crate) fn draw_staleness(&self) -> Duration {
        let extra = self.faults.current().extra_staleness;
        let c = self.consistency;
        let mut rng = self.rng.lock();
        if c.stale_read_probability == 0.0 || !rng.gen_bool(c.stale_read_probability) {
            return extra;
        }
        let u: f64 = rng.gen_range(1e-9..1.0);
        let exp = c.mean_staleness.as_secs_f64() * -u.ln();
        let capped = exp.min(c.max_staleness.as_secs_f64());
        Duration::from_secs_f64(capped) + extra
    }

    /// The profile's hard upper bound on read staleness (plus injected
    /// extra). After this much quiescence, all reads converge.
    pub(crate) fn max_staleness(&self) -> Duration {
        self.consistency.max_staleness + self.faults.current().extra_staleness
    }

    fn draw_jitter(&self) -> f64 {
        let j = self.params.jitter_frac;
        if j == 0.0 {
            return 1.0;
        }
        let mut rng = self.rng.lock();
        1.0 + rng.gen_range(-j..j)
    }

    /// One "does this call fail?" decision from the fault plan's seeded
    /// stream (reproducible from the plan seed alone).
    fn draw_failure(&self) -> bool {
        self.faults.draw_failure()
    }

    /// One "is this delivery a duplicate?" decision from the fault plan's
    /// seeded stream.
    pub(crate) fn draw_duplicate(&self) -> bool {
        self.faults.draw_duplicate()
    }

    pub(crate) fn rng_range(&self, upper: usize) -> usize {
        if upper <= 1 {
            0
        } else {
            self.rng.lock().gen_range(0..upper)
        }
    }

    /// Executes one API call.
    ///
    /// `bytes_in` is the request payload, `items` the batch size (database
    /// writes). `f` runs at the commit point — after the request has been
    /// admitted and transferred — and returns the result together with the
    /// response payload size. No lock is held while latency elapses.
    pub(crate) fn call<R>(
        &self,
        actor: Actor,
        tenant: Option<TenantId>,
        op: Op,
        items: usize,
        bytes_in: u64,
        f: impl FnOnce(SimTime) -> Result<(R, u64)>,
    ) -> Result<R> {
        let era = self.context.service_time_factor();
        let bw = self.context.bandwidth_factor();
        let jitter = self.draw_jitter();
        // Leaf-span capture: one relaxed load when tracing is off.
        let t0 = self.tracer.enabled().then(|| self.sim.now());
        if self.draw_failure() {
            // A failed request still costs a round trip.
            self.sim
                .sleep(self.context.extra_rtt() + scale(self.params.read_base, era * jitter));
            self.meter.record(actor, tenant, self.service, op, 0, 0);
            if let Some(t0) = t0 {
                self.emit_op_span(actor, tenant, op, items, 0, 0, t0);
            }
            return Err(CloudError::ServiceUnavailable {
                service: self.service.name(),
            });
        }
        let slot = self.slots.acquire();
        let base = self.params.service_time(op, items, 0, 0);
        let req = self.context.extra_rtt()
            + scale(base, era * jitter)
            + scale(self.params.transfer_in_time(bytes_in), era * jitter * bw);
        self.sim.sleep(req);
        let outcome = f(self.sim.now());
        let (result, bytes_out) = match outcome {
            Ok((r, out)) => (Ok(r), out),
            Err(e) => (Err(e), 0),
        };
        let kb_out = bytes_out.div_ceil(1024) as u32;
        let resp = scale(self.params.per_kb_out * kb_out, era * jitter * bw);
        self.sim.sleep(resp);
        drop(slot);
        self.meter
            .record(actor, tenant, self.service, op, bytes_in, bytes_out);
        if let Some(t0) = t0 {
            self.emit_op_span(actor, tenant, op, items, bytes_in, bytes_out, t0);
        }
        result
    }

    /// Emits the leaf span for one metered call, parented to the caller's
    /// ambient scope. Calls running outside any scope (setup traffic,
    /// background probes) are deliberately skipped — the export holds
    /// connected trees only.
    #[allow(clippy::too_many_arguments)]
    fn emit_op_span(
        &self,
        actor: Actor,
        tenant: Option<TenantId>,
        op: Op,
        items: usize,
        bytes_in: u64,
        bytes_out: u64,
        t0: SimTime,
    ) {
        let tenant = tenant.map(|t| t.0);
        let Some(parent) = self.tracer.scope(actor_scope(actor), tenant) else {
            return;
        };
        let cost = PriceBook::aws_2009().call_cost(self.service, op, items, bytes_in, bytes_out);
        self.tracer.span(
            parent.trace,
            Some(parent.span),
            "op",
            &format!("{}.{}", self.service.name(), op.label()),
            tenant,
            t0,
            self.sim.now(),
            cost,
        );
    }
}

impl std::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("service", &self.service)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn core(profile: &AwsProfile) -> (Sim, Arc<ServiceCore>) {
        let sim = Sim::new();
        let c = ServiceCore::new(
            &sim,
            Service::ObjectStore,
            profile,
            Meter::new(),
            FaultHandle::new(),
            Tracer::new(&sim),
        );
        (sim, c)
    }

    #[test]
    fn call_charges_latency_and_meters() {
        let profile = AwsProfile::calibrated_strict(RunContext::default());
        let (sim, c) = core(&profile);
        c.call(Actor::Client, None, Op::Put, 0, 2048, |_| Ok(((), 0)))
            .unwrap();
        // At least the 700 ms write base (jitter can shave up to 8%).
        assert!(sim.now().as_secs_f64() > 0.6, "t={}", sim.now());
        let rep = c.meter().report(sim.now());
        assert_eq!(
            rep.get(Actor::Client, Service::ObjectStore, Op::Put).count,
            1
        );
        assert_eq!(
            rep.get(Actor::Client, Service::ObjectStore, Op::Put)
                .bytes_in,
            2048
        );
    }

    #[test]
    fn concurrency_cap_queues_excess_requests() {
        let mut profile = AwsProfile::instant();
        profile.s3.server_concurrency = 2;
        profile.s3.write_base = Duration::from_secs(1);
        let (sim, c) = core(&profile);
        let tasks: Vec<_> = (0..6)
            .map(|_| {
                let c = c.clone();
                move || {
                    c.call(Actor::Client, None, Op::Put, 0, 0, |_| Ok(((), 0)))
                        .unwrap();
                }
            })
            .collect();
        sim.run_parallel(6, tasks);
        // 6 one-second ops through 2 slots: three waves.
        assert_eq!(sim.now().as_secs_f64(), 3.0);
    }

    #[test]
    fn injected_failures_surface_and_are_metered() {
        let profile = AwsProfile::instant();
        let sim = Sim::new();
        let faults = FaultHandle::new();
        faults.set(FaultPlan {
            fail_probability: 1.0,
            ..FaultPlan::none()
        });
        let c = ServiceCore::new(
            &sim,
            Service::Queue,
            &profile,
            Meter::new(),
            faults,
            Tracer::new(&sim),
        );
        let err = c
            .call(Actor::Client, None, Op::Send, 0, 10, |_| Ok(((), 0)))
            .unwrap_err();
        assert_eq!(err, CloudError::ServiceUnavailable { service: "SQS" });
        let rep = c.meter().report(sim.now());
        assert_eq!(rep.get(Actor::Client, Service::Queue, Op::Send).count, 1);
    }

    #[test]
    fn staleness_is_zero_under_strict_consistency() {
        let profile = AwsProfile::calibrated_strict(RunContext::default());
        let (_sim, c) = core(&profile);
        for _ in 0..100 {
            assert_eq!(c.draw_staleness(), Duration::ZERO);
        }
    }

    #[test]
    fn staleness_is_bounded_by_window() {
        let profile = AwsProfile::calibrated(RunContext::default());
        let (_sim, c) = core(&profile);
        let max = c.max_staleness();
        let mut saw_nonzero = false;
        for _ in 0..500 {
            let s = c.draw_staleness();
            assert!(s <= max);
            saw_nonzero |= s > Duration::ZERO;
        }
        assert!(saw_nonzero, "eventual consistency should yield stale reads");
    }
}
