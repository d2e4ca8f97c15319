#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Deterministic discrete-event simulation core for the FCC reproduction.
//!
//! Every hardware model in this workspace (links, switches, memory nodes,
//! cache hierarchies) is a [`Component`] driven by a single-threaded
//! [`Engine`]. Components communicate exclusively by scheduling timestamped
//! messages; the engine pops events in `(time, sequence)` order, so two runs
//! with the same seed produce byte-identical traces.
//!
//! # Examples
//!
//! ```
//! use fcc_sim::{Component, Ctx, Engine, Msg, SimTime};
//!
//! struct Echo {
//!     heard: u64,
//! }
//!
//! impl Component for Echo {
//!     fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
//!         match msg.downcast::<u32>() {
//!             Ok(_) => self.heard += 1,
//!             // A message the component cannot use goes to the engine.
//!             Err(m) => ctx.reject(m.type_name()),
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(7);
//! let echo = engine.add_component("echo", Echo { heard: 0 });
//! engine.post(echo, SimTime::from_ns(5.0), 42u32);
//! engine.post(echo, SimTime::from_ns(6.0), "stray");
//! engine.run_until_idle();
//! assert_eq!(engine.component::<Echo>(echo).heard, 1);
//! assert_eq!(engine.now(), SimTime::from_ns(6.0));
//! // The stray message is reported, not lost.
//! let report = engine.deadlock_report().expect("a rejection is reported");
//! assert_eq!(report.stuck[0].component, "echo");
//! assert_eq!(report.stuck[0].what, "rejected 1 message(s): &str");
//! ```

pub mod calendar;
pub mod engine;
pub mod queueing;
pub mod shard;
pub mod stats;
pub mod time;

pub use engine::{
    thread_events_dispatched, Component, ComponentId, Ctx, DeadlockReport, Engine, Inbox, Msg,
    MsgBatch, PendingWork, StuckComponent, TraceEntry,
};
pub use queueing::TokenBucket;
pub use shard::{ShardGateway, ShardedEngine};
pub use stats::{jain_fairness, Counter, Gauge, Histogram, Summary, SummaryNs};
pub use time::serialization_time;
pub use time::SimTime;
