//! `cloudprov_trace`: zero-cost-when-disabled causal span tracing on the
//! virtual clock, plus the workspace's shared [`metrics`] registry.
//!
//! A [`Tracer`] hands out [`SpanContext`]s and collects [`SpanRecord`]s
//! stamped exclusively with [`SimTime`] instants, so traces are a pure
//! function of the run's seed — bit-identical across replays, diffable
//! as regression artifacts. Contexts propagate through the system's
//! existing seams (client flush → WAL header attribute → daemon pickup
//! → group-commit phases → feed publish); every committed transaction
//! yields ONE connected tree rooted at a `txn` span whose duration IS
//! the measured commit latency (WAL-durable → committed).
//!
//! The per-transaction lifecycle spans are not emitted eagerly: the
//! client records the WAL-durable instant, daemons record pickup /
//! group-entry / committed instants, and finalization stitches the
//! `txn` root plus its `dwell` (WAL-durable → first pickup) and `lease`
//! (pickup → group entry) children from those marks. This is what makes
//! the root exact under races — a daemon can receive a transaction's
//! first message while the client's flush fan-out is still in flight,
//! so the dwell interval is only knowable after the fact.
//!
//! When disabled (the default), every hook is one relaxed atomic load.

pub mod metrics;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_sim::{Sim, SimTime};

/// Scope tag: foreground client ops.
pub const SCOPE_CLIENT: u8 = 0;
/// Scope tag: commit-daemon ops.
pub const SCOPE_COMMIT_DAEMON: u8 = 1;
/// Scope tag: cleaner-daemon ops.
pub const SCOPE_CLEANER: u8 = 2;
/// Scope tag: query-engine ops.
pub const SCOPE_QUERY: u8 = 3;

/// Hard cap on retained spans per tracer; past it spans are counted as
/// dropped rather than retained (a tracer outliving this cap is being
/// used for a run far larger than any benchmark cell).
const SPAN_CAP: usize = 1 << 20;

/// A propagatable reference to a span: the trace it belongs to (for
/// committed transactions this is the transaction id) and the span id.
/// `encode`/`decode` round-trip through a WAL-header-safe token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanContext {
    /// Trace id (the transaction id for txn lifecycle traces).
    pub trace: u128,
    /// Span id within the tracer.
    pub span: u64,
}

impl SpanContext {
    /// Token form (`ctx:<trace-hex>.<span-hex>`) safe to ride a
    /// tab-separated WAL header field.
    pub fn encode(&self) -> String {
        format!("ctx:{:032x}.{:016x}", self.trace, self.span)
    }

    /// Parses a token produced by [`SpanContext::encode`].
    pub fn decode(token: &str) -> Option<SpanContext> {
        let rest = token.strip_prefix("ctx:")?;
        let (t, s) = rest.split_once('.')?;
        Some(SpanContext {
            trace: u128::from_str_radix(t, 16).ok()?,
            span: u64::from_str_radix(s, 16).ok()?,
        })
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span id (tracer-wide, allocation order).
    pub id: u64,
    /// Parent span id; `None` for roots.
    pub parent: Option<u64>,
    /// Trace this span belongs to.
    pub trace: u128,
    /// Span kind (`"txn"`, `"dwell"`, `"copy"`, `"op"`, …).
    pub kind: &'static str,
    /// Display name (`"S3.Put"`, `"flush"`, …).
    pub name: String,
    /// Originating tenant, when attributed.
    pub tenant: Option<u32>,
    /// Start instant on the virtual clock.
    pub t_start: SimTime,
    /// End instant on the virtual clock.
    pub t_end: SimTime,
    /// Priced cost of the call the span represents (leaf op spans).
    pub cost_usd: f64,
}

impl SpanRecord {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.t_end.saturating_duration_since(self.t_start)
    }
}

/// Aggregate counters over a tracer's collected state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Retained spans (after finalization).
    pub spans: u64,
    /// Spans discarded past the 2²⁰-span retention cap (`SPAN_CAP`).
    pub dropped: u64,
    /// Transaction roots opened.
    pub roots: u64,
    /// Roots never closed (uncommitted transactions).
    pub open_roots: u64,
    /// Spans whose parent id is neither a retained span nor a known
    /// root — a broken propagation seam. Zero on a healthy run.
    pub orphans: u64,
}

/// Exclusive per-phase attribution of one committed transaction's
/// end-to-end commit latency (root-to-leaf walk of its trace tree).
/// `dwell + lease + copy + db + index + ack + untraced == total`, and
/// `total` is exactly the measured WAL-durable → committed latency.
/// `feed` is the post-commit publish (outside the root window).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Root duration: WAL-durable → committed.
    pub total: Duration,
    /// WAL-durable → first daemon pickup (the push-delivery component).
    pub dwell: Duration,
    /// Pickup → group-commit entry (assembly + lease/poll cadence).
    pub lease: Duration,
    /// Group phases 0–1: CAS materialization + S3 copies.
    pub copy: Duration,
    /// Base-item SimpleDB chunk writes (incl. value spills).
    pub db: Duration,
    /// Ancestry-index chunk writes.
    pub index: Duration,
    /// GC + feed staging + WAL acknowledgement (commit tail).
    pub ack: Duration,
    /// Post-commit feed publish (not part of `total`).
    pub feed: Duration,
    /// Root time no phase span covered.
    pub untraced: Duration,
}

impl Breakdown {
    /// The phase sum that must telescope to `total` (±0: the phases
    /// partition the root window by construction; `untraced` absorbs
    /// any gap).
    pub fn commit_sum(&self) -> Duration {
        self.dwell + self.lease + self.copy + self.db + self.index + self.ack + self.untraced
    }
}

struct RootState {
    span: u64,
    tenant: Option<u32>,
    logged: Option<SimTime>,
    pickup: Option<SimTime>,
    group_start: Option<SimTime>,
    committed: Option<SimTime>,
    finalized: bool,
}

struct TraceState {
    seed: u64,
    next_id: u64,
    spans: Vec<SpanRecord>,
    dropped: u64,
    roots: BTreeMap<u128, RootState>,
    scopes: BTreeMap<(u8, Option<u32>), SpanContext>,
}

impl TraceState {
    fn fresh(seed: u64) -> TraceState {
        TraceState {
            seed,
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
            roots: BTreeMap::new(),
            scopes: BTreeMap::new(),
        }
    }

    fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Emits the deferred lifecycle spans (root, dwell, lease) of every
    /// closed root whose marks are complete. Idempotent per root.
    fn finalize(&mut self) {
        let TraceState {
            next_id,
            spans,
            dropped,
            roots,
            ..
        } = self;
        for (trace, r) in roots.iter_mut() {
            if r.finalized {
                continue;
            }
            let (Some(logged), Some(committed)) = (r.logged, r.committed) else {
                continue;
            };
            r.finalized = true;
            // A daemon can receive the first WAL message while the
            // client's flush fan-out is still running: clamp pickup into
            // the root window so the dwell/lease partition is exact.
            let g = r.group_start.unwrap_or(committed).clamp(logged, committed);
            let p = r.pickup.unwrap_or(logged).clamp(logged, g);
            let mut emit =
                |kind: &'static str, id: u64, parent: Option<u64>, s: SimTime, e: SimTime| {
                    let rec = SpanRecord {
                        id,
                        parent,
                        trace: *trace,
                        kind,
                        name: kind.to_string(),
                        tenant: r.tenant,
                        t_start: s,
                        t_end: e,
                        cost_usd: 0.0,
                    };
                    if spans.len() < SPAN_CAP {
                        spans.push(rec);
                    } else {
                        *dropped += 1;
                    }
                };
            let dwell_id = *next_id;
            *next_id += 2;
            emit("dwell", dwell_id, Some(r.span), logged, p);
            emit("lease", dwell_id + 1, Some(r.span), p, g);
            emit("txn", r.span, None, logged, committed);
        }
    }
}

struct TracerInner {
    sim: Sim,
    enabled: AtomicBool,
    state: Mutex<TraceState>,
}

/// The span collector. Cheap to clone (one `Arc`); every handle shares
/// the same state, which is what lets a takeover daemon keep extending
/// the trace a crashed peer started.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer on the given simulation's clock.
    pub fn new(sim: &Sim) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                sim: sim.clone(),
                enabled: AtomicBool::new(false),
                state: Mutex::new(TraceState::fresh(0)),
            }),
        }
    }

    /// Enables collection with a fresh state. The seed is recorded for
    /// the export; span ids are sequential allocation order, which the
    /// deterministic scheduler makes a pure function of the run.
    pub fn enable(&self, seed: u64) {
        *self.inner.state.lock() = TraceState::fresh(seed);
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether collection is on. Every hook gates on this first — the
    /// entire cost of a disabled tracer is this load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The seed recorded at [`Tracer::enable`].
    pub fn seed(&self) -> u64 {
        self.inner.state.lock().seed
    }

    /// Allocates a span id in `trace` without emitting anything —
    /// for spans whose end is not yet known but whose id must already
    /// parent children (phase scopes, WAL-header contexts).
    pub fn alloc(&self, trace: u128) -> SpanContext {
        if !self.enabled() {
            return SpanContext { trace, span: 0 };
        }
        let span = self.inner.state.lock().alloc();
        SpanContext { trace, span }
    }

    /// Emits a completed span under a pre-allocated context.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        ctx: SpanContext,
        parent: Option<u64>,
        kind: &'static str,
        name: &str,
        tenant: Option<u32>,
        t_start: SimTime,
        t_end: SimTime,
        cost_usd: f64,
    ) {
        if !self.enabled() {
            return;
        }
        self.inner.state.lock().push(SpanRecord {
            id: ctx.span,
            parent,
            trace: ctx.trace,
            kind,
            name: name.to_string(),
            tenant,
            t_start,
            t_end,
            cost_usd,
        });
    }

    /// Allocates and emits a completed span in one step.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        trace: u128,
        parent: Option<u64>,
        kind: &'static str,
        name: &str,
        tenant: Option<u32>,
        t_start: SimTime,
        t_end: SimTime,
        cost_usd: f64,
    ) -> Option<SpanContext> {
        if !self.enabled() {
            return None;
        }
        let ctx = self.alloc(trace);
        self.emit(ctx, parent, kind, name, tenant, t_start, t_end, cost_usd);
        Some(ctx)
    }

    /// A zero-length annotation span under `parent` (an instant event
    /// in the Chrome export).
    pub fn event(&self, parent: SpanContext, name: &str, at: SimTime) {
        if !self.enabled() {
            return;
        }
        self.span(
            parent.trace,
            Some(parent.span),
            "event",
            name,
            None,
            at,
            at,
            0.0,
        );
    }

    /// Opens a phase span now; the returned guard emits it — and clears
    /// the ambient scope it installed — when dropped, so error paths
    /// (daemon crashes mid-phase) still close the tree. Call
    /// [`PhaseGuard::finish`] with the phase's end instant on success.
    pub fn phase(
        &self,
        trace: u128,
        parent: u64,
        kind: &'static str,
        tenant: Option<u32>,
        scope: Option<(u8, Option<u32>)>,
        start: SimTime,
    ) -> Option<PhaseGuard> {
        if !self.enabled() {
            return None;
        }
        let ctx = self.alloc(trace);
        if let Some((tag, scope_tenant)) = scope {
            self.set_scope(tag, scope_tenant, ctx);
        }
        Some(PhaseGuard {
            tracer: self.clone(),
            ctx,
            parent,
            kind,
            tenant,
            start,
            scope,
            end: None,
        })
    }

    /// Installs the ambient parent for leaf op spans recorded under the
    /// `(actor tag, tenant)` key. Best-effort by design: two concurrent
    /// flushes of one tenant interleave attribution (last set wins),
    /// which perturbs leaf parentage but never tree connectivity — leaf
    /// spans always attach to a live span of SOME trace.
    pub fn set_scope(&self, tag: u8, tenant: Option<u32>, ctx: SpanContext) {
        if !self.enabled() {
            return;
        }
        self.inner.state.lock().scopes.insert((tag, tenant), ctx);
    }

    /// Removes an ambient scope.
    pub fn clear_scope(&self, tag: u8, tenant: Option<u32>) {
        if !self.enabled() {
            return;
        }
        self.inner.state.lock().scopes.remove(&(tag, tenant));
    }

    /// The ambient parent for `(actor tag, tenant)`, if one is set.
    pub fn scope(&self, tag: u8, tenant: Option<u32>) -> Option<SpanContext> {
        if !self.enabled() {
            return None;
        }
        self.inner.state.lock().scopes.get(&(tag, tenant)).copied()
    }

    /// Opens the lifecycle root for transaction `txn` (trace id = txn).
    /// Returns the root context; reopening an existing root returns the
    /// original (shared-tracer takeover path).
    pub fn open_txn(&self, txn: u128, tenant: Option<u32>) -> Option<SpanContext> {
        if !self.enabled() {
            return None;
        }
        let mut st = self.inner.state.lock();
        if let Some(r) = st.roots.get(&txn) {
            return Some(SpanContext {
                trace: txn,
                span: r.span,
            });
        }
        let span = st.alloc();
        st.roots.insert(
            txn,
            RootState {
                span,
                tenant,
                logged: None,
                pickup: None,
                group_start: None,
                committed: None,
                finalized: false,
            },
        );
        Some(SpanContext { trace: txn, span })
    }

    /// Registers a root carried in from a WAL header whose opener is
    /// not this tracer (cross-process pickup). No-op when the trace is
    /// already known — in-process fleets share one tracer, so the
    /// client's registration wins.
    pub fn register_root(&self, ctx: SpanContext, tenant: Option<u32>) {
        if !self.enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        st.roots.entry(ctx.trace).or_insert(RootState {
            span: ctx.span,
            tenant,
            logged: None,
            pickup: None,
            group_start: None,
            committed: None,
            finalized: false,
        });
    }

    /// The root context of `txn`, if opened.
    pub fn root_ctx(&self, txn: u128) -> Option<SpanContext> {
        if !self.enabled() {
            return None;
        }
        self.inner
            .state
            .lock()
            .roots
            .get(&txn)
            .map(|r| SpanContext {
                trace: txn,
                span: r.span,
            })
    }

    /// Marks the WAL-durable instant — the root span's start.
    pub fn mark_logged(&self, txn: u128, at: SimTime) {
        if !self.enabled() {
            return;
        }
        if let Some(r) = self.inner.state.lock().roots.get_mut(&txn) {
            r.logged.get_or_insert(at);
        }
    }

    /// Marks the first daemon pickup. First mark wins across daemons
    /// (the shared tracer sees calls in deterministic sim order, so the
    /// earliest pickup is the one recorded, even when a later daemon
    /// commits the transaction after a lease steal).
    pub fn mark_pickup(&self, txn: u128, at: SimTime) {
        if !self.enabled() {
            return;
        }
        if let Some(r) = self.inner.state.lock().roots.get_mut(&txn) {
            r.pickup.get_or_insert(at);
        }
    }

    /// Marks entry into a commit group. Overwritten by a later group
    /// while the root is open: an evicted member's recommit (possibly on
    /// a takeover daemon) owns the boundaries that actually committed.
    pub fn mark_group_start(&self, txn: u128, at: SimTime) {
        if !self.enabled() {
            return;
        }
        if let Some(r) = self.inner.state.lock().roots.get_mut(&txn) {
            if r.committed.is_none() {
                r.group_start = Some(at);
            }
        }
    }

    /// Closes the root at the committed instant. Only the first close
    /// takes (double commits cannot fork the root); the span itself is
    /// emitted at finalization, when the logged mark is surely present.
    pub fn close_txn(&self, txn: u128, at: SimTime) {
        if !self.enabled() {
            return;
        }
        if let Some(r) = self.inner.state.lock().roots.get_mut(&txn) {
            r.committed.get_or_insert(at);
        }
    }

    /// The root interval (WAL-durable, committed) of a closed root.
    pub fn root_interval(&self, txn: u128) -> Option<(SimTime, SimTime)> {
        if !self.enabled() {
            return None;
        }
        let st = self.inner.state.lock();
        let r = st.roots.get(&txn)?;
        Some((r.logged?, r.committed?))
    }

    /// All collected spans (finalizes pending roots first).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut st = self.inner.state.lock();
        st.finalize();
        st.spans.clone()
    }

    /// Aggregate counters, including the orphan check: every span's
    /// parent must be a retained span or a known root.
    pub fn stats(&self) -> TraceStats {
        let mut st = self.inner.state.lock();
        st.finalize();
        let mut known: BTreeSet<u64> = st.spans.iter().map(|s| s.id).collect();
        known.extend(st.roots.values().map(|r| r.span));
        let orphans = st
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| !known.contains(&p)))
            .count() as u64;
        TraceStats {
            spans: st.spans.len() as u64,
            dropped: st.dropped,
            roots: st.roots.len() as u64,
            open_roots: st.roots.values().filter(|r| r.committed.is_none()).count() as u64,
            orphans,
        }
    }

    /// Exclusive per-phase attribution of one committed transaction's
    /// latency: sweep the root's direct children in start order, charge
    /// each phase its self-time clipped to the root window, and put
    /// whatever the sweep never covered in `untraced` — so the parts
    /// always telescope to the root duration exactly.
    pub fn critical_path(&self, txn: u128) -> Option<Breakdown> {
        let mut st = self.inner.state.lock();
        st.finalize();
        let root = st.roots.get(&txn)?;
        let (logged, committed) = (root.logged?, root.committed?);
        let root_span = root.span;
        let mut children: Vec<&SpanRecord> = st
            .spans
            .iter()
            .filter(|s| s.trace == txn && s.parent == Some(root_span) && s.kind != "event")
            .collect();
        children.sort_by_key(|s| (s.t_start, s.id));
        let mut b = Breakdown {
            total: committed.saturating_duration_since(logged),
            ..Breakdown::default()
        };
        let mut t = logged;
        for c in &children {
            if c.kind == "feed" {
                // The publish runs after commit, outside the root
                // window; report the first one's duration separately.
                if b.feed == Duration::ZERO {
                    b.feed = c.duration();
                }
                continue;
            }
            let start = c.t_start.clamp(t, committed);
            let end = c.t_end.clamp(start, committed);
            let self_time = end.saturating_duration_since(start);
            match c.kind {
                "dwell" => b.dwell += self_time,
                "lease" => b.lease += self_time,
                "copy" => b.copy += self_time,
                "db" => b.db += self_time,
                "index" => b.index += self_time,
                "ack" => b.ack += self_time,
                _ => b.untraced += self_time,
            }
            t = t.max(end);
        }
        b.untraced += committed.saturating_duration_since(t);
        Some(b)
    }

    /// Chrome `trace_event` JSON (the Perfetto-loadable export): one
    /// virtual process, one thread per trace (thread name = trace id),
    /// complete (`X`) events in microseconds straight off the virtual
    /// clock, instant (`i`) events for annotations. Ordering is
    /// `(t_start, id)`, so equal seeds render byte-identical files.
    pub fn chrome_trace(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.t_start, s.id));
        let mut tids: BTreeMap<u128, usize> = BTreeMap::new();
        for s in &spans {
            let n = tids.len();
            tids.entry(s.trace).or_insert(n);
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |line: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };
        for (trace, tid) in &tids {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"trace {trace:032x}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
        for s in &spans {
            let tid = tids[&s.trace];
            let name: String = s
                .name
                .chars()
                .filter(|c| c.is_ascii() && *c != '"' && *c != '\\')
                .collect();
            let mut args = format!("\"id\":{}", s.id);
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(t) = s.tenant {
                args.push_str(&format!(",\"tenant\":{t}"));
            }
            if s.cost_usd > 0.0 {
                args.push_str(&format!(",\"cost_usd\":{:.9}", s.cost_usd));
            }
            if s.kind == "event" {
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"name\":\"{name}\",\"args\":{{{args}}}}}",
                        s.t_start.as_micros()
                    ),
                    &mut out,
                    &mut first,
                );
            } else {
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"{name}\",\"args\":{{{args}}}}}",
                        s.t_start.as_micros(),
                        s.duration().as_micros(),
                        s.kind
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"seed\":");
        out.push_str(&self.seed().to_string());
        out.push_str("}}\n");
        out
    }
}

/// RAII handle for an in-flight phase span — see [`Tracer::phase`].
pub struct PhaseGuard {
    tracer: Tracer,
    ctx: SpanContext,
    parent: u64,
    kind: &'static str,
    tenant: Option<u32>,
    start: SimTime,
    scope: Option<(u8, Option<u32>)>,
    end: Option<SimTime>,
}

impl PhaseGuard {
    /// The phase span's context (the ambient parent for its leaf ops).
    pub fn ctx(&self) -> SpanContext {
        self.ctx
    }

    /// The phase's start instant.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Ends the phase at `at` and emits the span.
    pub fn finish(mut self, at: SimTime) {
        self.end = Some(at);
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((tag, tenant)) = self.scope.take() {
            self.tracer.clear_scope(tag, tenant);
        }
        // An unfinished drop is an error path (a crash hook fired inside
        // the phase): close at the current instant so the trace stays
        // connected — the interrupted phase is visible as a span that
        // ends mid-group.
        let end = self.end.unwrap_or_else(|| self.tracer.inner.sim.now());
        self.tracer.emit(
            self.ctx,
            Some(self.parent),
            self.kind,
            self.kind,
            self.tenant,
            self.start,
            end,
            0.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn enabled_tracer() -> Tracer {
        let sim = Sim::new();
        let tr = Tracer::new(&sim);
        tr.enable(7);
        tr
    }

    #[test]
    fn disabled_tracer_collects_nothing() {
        let sim = Sim::new();
        let tr = Tracer::new(&sim);
        assert!(!tr.enabled());
        assert!(tr.open_txn(1, None).is_none());
        assert!(tr
            .span(1, None, "op", "S3.Put", None, t(0), t(5), 0.0)
            .is_none());
        tr.mark_logged(1, t(0));
        tr.close_txn(1, t(9));
        assert_eq!(tr.stats(), TraceStats::default());
        assert!(tr.critical_path(1).is_none());
    }

    #[test]
    fn context_token_round_trips() {
        let ctx = SpanContext {
            trace: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
            span: 42,
        };
        let tok = ctx.encode();
        assert!(tok.starts_with("ctx:"));
        assert!(!tok.contains('\t'), "token must be header-field safe");
        assert_eq!(SpanContext::decode(&tok), Some(ctx));
        assert_eq!(SpanContext::decode("ctx:nothex.42"), None);
        assert_eq!(SpanContext::decode("garbage"), None);
    }

    #[test]
    fn lifecycle_marks_stitch_an_exact_root() {
        let tr = enabled_tracer();
        let root = tr.open_txn(99, Some(3)).unwrap();
        tr.mark_logged(99, t(100));
        tr.mark_pickup(99, t(130));
        tr.mark_group_start(99, t(150));
        tr.span(
            99,
            Some(root.span),
            "copy",
            "copy",
            Some(3),
            t(150),
            t(170),
            0.0,
        );
        tr.span(
            99,
            Some(root.span),
            "db",
            "db",
            Some(3),
            t(170),
            t(180),
            0.0,
        );
        tr.span(
            99,
            Some(root.span),
            "index",
            "index",
            Some(3),
            t(180),
            t(184),
            0.0,
        );
        tr.span(
            99,
            Some(root.span),
            "ack",
            "ack",
            Some(3),
            t(184),
            t(200),
            0.0,
        );
        tr.close_txn(99, t(200));
        tr.span(
            99,
            Some(root.span),
            "feed",
            "feed",
            Some(3),
            t(200),
            t(215),
            0.0,
        );
        assert_eq!(tr.root_interval(99), Some((t(100), t(200))));
        let b = tr.critical_path(99).unwrap();
        assert_eq!(b.total, Duration::from_micros(100));
        assert_eq!(b.dwell, Duration::from_micros(30));
        assert_eq!(b.lease, Duration::from_micros(20));
        assert_eq!(b.copy, Duration::from_micros(20));
        assert_eq!(b.db, Duration::from_micros(10));
        assert_eq!(b.index, Duration::from_micros(4));
        assert_eq!(b.ack, Duration::from_micros(16));
        assert_eq!(b.untraced, Duration::ZERO);
        assert_eq!(b.feed, Duration::from_micros(15));
        assert_eq!(b.commit_sum(), b.total);
        let st = tr.stats();
        assert_eq!(st.orphans, 0);
        assert_eq!(st.open_roots, 0);
    }

    #[test]
    fn pickup_racing_the_flush_is_clamped_into_the_root_window() {
        // A daemon can see the first WAL message BEFORE the client's
        // fan-out completes; the dwell/lease partition must still be
        // exact and non-negative.
        let tr = enabled_tracer();
        tr.open_txn(5, None).unwrap();
        tr.mark_pickup(5, t(80)); // before logged!
        tr.mark_logged(5, t(100));
        tr.mark_group_start(5, t(120));
        tr.close_txn(5, t(150));
        let b = tr.critical_path(5).unwrap();
        assert_eq!(b.dwell, Duration::ZERO);
        assert_eq!(b.lease, Duration::from_micros(20));
        assert_eq!(b.commit_sum(), b.total);
    }

    #[test]
    fn uncovered_root_time_lands_in_untraced() {
        let tr = enabled_tracer();
        let root = tr.open_txn(5, None).unwrap();
        tr.mark_logged(5, t(0));
        tr.mark_pickup(5, t(10));
        tr.mark_group_start(5, t(10));
        tr.span(5, Some(root.span), "copy", "copy", None, t(10), t(20), 0.0);
        tr.close_txn(5, t(50));
        let b = tr.critical_path(5).unwrap();
        assert_eq!(b.untraced, Duration::from_micros(30));
        assert_eq!(b.commit_sum(), b.total);
    }

    #[test]
    fn orphans_are_detected() {
        let tr = enabled_tracer();
        let ctx = tr.alloc(1);
        // Parent id 999 was never allocated to a retained span or root.
        tr.emit(ctx, Some(999), "op", "S3.Put", None, t(0), t(1), 0.0);
        assert_eq!(tr.stats().orphans, 1);
    }

    #[test]
    fn only_the_first_close_takes() {
        let tr = enabled_tracer();
        tr.open_txn(1, None);
        tr.mark_logged(1, t(0));
        tr.close_txn(1, t(10));
        tr.close_txn(1, t(99)); // double commit attempt
        assert_eq!(tr.root_interval(1), Some((t(0), t(10))));
        // Exactly one root span in the export.
        let roots = tr.spans().iter().filter(|s| s.kind == "txn").count();
        assert_eq!(roots, 1);
    }

    #[test]
    fn phase_guard_emits_on_drop_and_clears_its_scope() {
        let tr = enabled_tracer();
        let root = tr.open_txn(1, None).unwrap();
        {
            let g = tr
                .phase(
                    1,
                    root.span,
                    "copy",
                    None,
                    Some((SCOPE_COMMIT_DAEMON, None)),
                    t(5),
                )
                .unwrap();
            assert_eq!(tr.scope(SCOPE_COMMIT_DAEMON, None), Some(g.ctx()));
            // Dropped without finish(): the error path.
        }
        assert_eq!(tr.scope(SCOPE_COMMIT_DAEMON, None), None);
        let spans = tr.spans();
        let copy = spans.iter().find(|s| s.kind == "copy").unwrap();
        assert_eq!(copy.parent, Some(root.span));
        assert_eq!(copy.t_start, t(5));
    }

    #[test]
    fn chrome_export_is_deterministic_and_balanced() {
        let run = || {
            let tr = enabled_tracer();
            let root = tr.open_txn(7, Some(1)).unwrap();
            tr.mark_logged(7, t(10));
            tr.mark_pickup(7, t(20));
            tr.mark_group_start(7, t(25));
            tr.span(
                7,
                Some(root.span),
                "copy",
                "copy",
                Some(1),
                t(25),
                t(30),
                0.0,
            );
            tr.event(root, "evicted", t(28));
            tr.close_txn(7, t(40));
            tr.span(
                3,
                None,
                "cas:publish",
                "cas deadbeef",
                None,
                t(1),
                t(4),
                0.000_01,
            );
            tr.chrome_trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same marks must export byte-identically");
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"cost_usd\":0.000010000"));
        assert!(a.contains("\"name\":\"txn\""));
    }

    #[test]
    fn enable_resets_prior_state() {
        let tr = enabled_tracer();
        tr.open_txn(1, None);
        tr.enable(9);
        assert_eq!(tr.stats().roots, 0);
        assert_eq!(tr.seed(), 9);
    }
}
