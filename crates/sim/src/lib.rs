//! # cloudprov-sim — deterministic virtual-time simulation kernel
//!
//! The substrate under every experiment in the `cloudprov` workspace. The
//! paper ("Provenance for the Cloud", FAST 2010) measures wall-clock elapsed
//! time of storage protocols talking to live AWS services; this crate
//! replaces wall time with a **virtual clock** so those same measurements
//! become deterministic, instantaneous, and reproducible.
//!
//! Three ideas:
//!
//! 1. **Simulated threads** ([`Sim::spawn`]) are stackful coroutines on the
//!    OS thread that created the [`Sim`], scheduled cooperatively: exactly
//!    one runs at a time, and control transfers — by a stack switch, not a
//!    system call — only when the running thread blocks. x86_64 Linux only.
//! 2. **All blocking is virtual**: [`Sim::sleep`] schedules a wakeup on the
//!    event queue; [`SimSemaphore`] queues behind a bounded resource;
//!    [`SimHandle::join`] waits for a thread. When every thread is blocked,
//!    the earliest event fires and the clock jumps.
//! 3. **Measurements are exact**: `sim.now()` differences are the elapsed
//!    times reported by the benchmark harness.
//!
//! # Examples
//!
//! Modeling a client uploading 6 objects over 3 connections to a server
//! that admits 2 requests at a time:
//!
//! ```
//! use cloudprov_sim::{Sim, SimSemaphore};
//! use std::time::Duration;
//!
//! let sim = Sim::new();
//! let server = SimSemaphore::new(&sim, 2);
//! let start = sim.now();
//! let uploads: Vec<_> = (0..6)
//!     .map(|_| {
//!         let sim = sim.clone();
//!         let server = server.clone();
//!         move || {
//!             let _slot = server.acquire();
//!             sim.sleep(Duration::from_millis(100)); // service time
//!         }
//!     })
//!     .collect();
//! sim.run_parallel(3, uploads);
//! // 6 requests, server-side cap 2 => 3 waves of 100 ms.
//! assert_eq!((sim.now() - start).as_millis(), 300);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coro;
mod kernel;
mod sync;
mod time;

pub use kernel::{Sim, SimHandle};
pub use sync::{SemPermit, SimSemaphore};
pub use time::SimTime;
