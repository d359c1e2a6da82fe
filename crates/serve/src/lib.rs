//! # rctree-serve
//!
//! A concurrent timing-query + ECO server over the incremental STA engine:
//! the subsystem that turns the library into a long-running service.
//!
//! The paper's delay bounds are cheap enough to answer interactively, and
//! the PR-3/PR-4 ECO engine re-times an edit in `O(depth)` — this crate
//! puts both behind a hand-rolled multi-threaded TCP server (`std::net`
//! only; the workspace is offline) speaking a line-based text protocol:
//!
//! ```text
//! QUERY <net> [node] [--corner <k|name>]   cached sink windows / per-node times
//!       [--sens]                           (`--sens`: nominal dT/dr, dT/dc)
//! REPORT [--corner <k|name|worst>]         one corner's full timing report
//!                                          (== offline `rcdelay report`)
//! ECO <edit-script-line>                   transactional edits, one slack-delta
//!                                          line per edit (all lanes re-timed)
//! CERTIFY <budget>                         certification against any budget;
//!                                          worst corner over all lanes, named
//! CERTIFY <budget> --over r <lo..hi>       continuum certification over a whole
//!         [c <lo..hi>]                     box of wire scales (symbolic lane);
//!                                          exact worst point, not a sampling
//! STATS                                    server counters
//! METRICS [stable]                         observability registry, Prometheus-
//!                                          style text (`stable`: only the
//!                                          cross-`RCTREE_JOBS`-deterministic
//!                                          subset); self-excluding
//! TRACE <n>                                most recent n finished spans,
//!                                          one line each; self-excluding
//! QUIT                                     close this connection
//! SHUTDOWN                                 stop the server
//! ```
//!
//! ## Corners on the wire
//!
//! When the served design carries a multi-corner `CornerSet`, every
//! data-bearing `OK` line grows a ` corners <name,...>` tail naming the
//! corner vector, and `QUERY`/`REPORT` accept a `--corner` selector
//! (lane index or corner name; `REPORT` also takes `worst`).  `CERTIFY`
//! reports the smallest-slack corner by name with the conjunction verdict
//! over all lanes.  Nominal-only decks are byte-identical to the
//! single-corner protocol — clients parse `OK rev <r>` prefixes either
//! way.  Repeated `REPORT`s of one revision(-vector) are served from a
//! rendered cache (see [`RenderedReportCache`]).
//!
//! ## Concurrency model
//!
//! * **Readers never block on analysis.**  Every read verb answers
//!   against an immutable [`DesignSnapshot`] loaded from a
//!   [`SnapshotStore`] — one `Arc` clone under a nanosecond-scale lock —
//!   so read throughput scales with connection threads, and a snapshot
//!   once loaded stays self-consistent no matter how many edits commit
//!   after it.
//! * **Writes serialize per shard.**  With `--shards N` the design is
//!   partitioned by net range and each shard owns its own
//!   [`EcoExecutor`] behind its own mutex — independent ECOs on
//!   different shards commit and publish concurrently.  Within a shard,
//!   each accepted directive applies on the cone-limited incremental
//!   path and publishes the successor snapshot atomically, bumping that
//!   shard's revision by one.  Unsharded (the default), this reduces to
//!   the single-writer model.
//! * **Every response is attributable.**  Single-shard verbs end with
//!   `OK rev <r>` / `ERR rev <r> …` naming the scalar revision; composed
//!   verbs (`REPORT`, `CERTIFY`, `STATS` when sharded) end with a
//!   revision *vector* `OK rev <r0,r1,…>`, one entry per shard.  Either
//!   way each response is byte-identical to per-shard serial oracles
//!   replaying each shard's accepted-edit order to the named
//!   revision(s) — the guarantee `tests/server_sessions.rs` pins under
//!   concurrent clients.
//! * **One shard is the one-entry case.**  Composed verbs go through one
//!   set of renderers in [`protocol`] at every shard count; unsharded,
//!   they compose one snapshot, and the one-entry revision vector is the
//!   scalar `OK rev <r>`.
//!
//! See `crates/serve/README.md` for the wire grammar and the consistency
//! model in full.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use crate::loadgen::{fetch_metrics, run_load, LoadReport, VerbLatency};
pub use crate::protocol::{Request, ScaleBox};
pub use crate::server::{
    Backoff, ServeConfig, ServeError, Server, DEFAULT_POLL_FLOOR, MAX_REQUEST_LINE,
};
pub use crate::session::{EcoCounts, EcoExecutor};
pub use crate::store::{RenderedReportCache, ServerStats, SnapshotStore};

// Re-exported so protocol consumers (oracle tests, the CLI) name the
// snapshot type without a direct rctree-sta dependency.
pub use rctree_sta::DesignSnapshot;
