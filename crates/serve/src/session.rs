//! The single-writer ECO executor: the one place design state mutates.
//!
//! Every `ECO` request — from any connection — serializes through the
//! target shard's [`EcoExecutor`] behind that shard's writer mutex
//! (unsharded servers have exactly one).  Each accepted
//! directive advances the revision by one, produces the successor
//! [`DesignSnapshot`] through the incremental
//! [`Design::publish_after_eco`] path (dirty-net views rebuilt, everything
//! else `Arc`-reused), and hands it to the caller's `publish` hook for the
//! snapshot store; rejected directives are skipped transactionally, exactly
//! like `rcdelay eco --watch` — the session state stays valid and keeps
//! serving.  The executor is also the *serial oracle*: the equivalence
//! tests replay a server's accepted-edit order through a fresh executor
//! and demand byte-identical responses at every revision.

use std::sync::Arc;

use rctree_core::units::Seconds;
use rctree_sta::script::{parse_eco_script_line, ScriptLine};
use rctree_sta::{Design, DesignSnapshot, StaError};

use crate::protocol::{corner_tail, err_line, ok_line};

/// Applied/skipped directive tallies of one `ECO` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcoCounts {
    /// Directives committed.
    pub applied: u64,
    /// Directives rejected and skipped.
    pub skipped: u64,
}

/// The server's single writer: the live [`Design`], the latest published
/// snapshot, and the rolling slack the per-edit deltas are computed
/// against.
#[derive(Debug)]
pub struct EcoExecutor {
    design: Design,
    threshold: f64,
    required: Seconds,
    jobs: usize,
    snapshot: Arc<DesignSnapshot>,
    revision: u64,
    slack: Seconds,
}

impl EcoExecutor {
    /// Warms the design's incremental engine and publishes the baseline
    /// snapshot (revision 0).
    ///
    /// # Errors
    ///
    /// Analysis errors from [`Design::publish`].
    pub fn new(
        mut design: Design,
        threshold: f64,
        required: Seconds,
        jobs: usize,
    ) -> Result<EcoExecutor, StaError> {
        let snapshot = Arc::new(design.publish(threshold, required, jobs)?);
        let slack = snapshot.report().worst_slack();
        Ok(EcoExecutor {
            design,
            threshold,
            required,
            jobs,
            snapshot,
            revision: 0,
            slack,
        })
    }

    /// The latest committed snapshot.
    pub fn snapshot(&self) -> Arc<DesignSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// The latest committed revision (accepted directives since start).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of timing corners of the live design (1 when nominal-only).
    pub fn corner_count(&self) -> usize {
        self.snapshot.corner_count()
    }

    /// The final `OK` line of an `ECO` response: revision plus the corner
    /// vector on multi-corner decks (the edits re-timed every lane).
    fn ok(&self) -> String {
        format!("{}{}", ok_line(self.revision), corner_tail(&self.snapshot))
    }

    /// Executes one `ECO` request line and returns its full response block
    /// plus the applied/skipped tallies.
    ///
    /// `publish` is invoked once per **accepted** directive with the
    /// successor snapshot and its revision — the server feeds the snapshot
    /// store here, so concurrent readers observe every intermediate state
    /// in commit order; the oracle records them instead.  `log` receives
    /// each accepted directive's summary text, in commit order (the
    /// server's accepted-edit log).
    ///
    /// Script locations are relative to the request line itself (always
    /// `line 1`; multi-directive requests name `edit K`).
    pub fn exec_eco(
        &mut self,
        script: &str,
        publish: &mut dyn FnMut(&Arc<DesignSnapshot>, u64),
        log: &mut dyn FnMut(&str),
    ) -> (Vec<String>, EcoCounts) {
        let mut counts = EcoCounts::default();
        let edits = match parse_eco_script_line(1, script) {
            Err(e) => {
                return (
                    vec![err_line(self.revision, &format!("edit script: {e}"))],
                    counts,
                );
            }
            Ok(ScriptLine::Empty) => return (vec![self.ok()], counts),
            Ok(ScriptLine::Quit) => {
                return (
                    vec![err_line(
                        self.revision,
                        "`quit` is not a server directive; close the connection with QUIT",
                    )],
                    counts,
                );
            }
            Ok(ScriptLine::Edits(edits)) => edits,
        };
        let mut lines = Vec::with_capacity(edits.len() + 1);
        for se in &edits {
            match self.design.publish_after_eco(
                std::slice::from_ref(&se.edit),
                self.threshold,
                self.required,
                self.jobs,
                &self.snapshot,
            ) {
                Ok(next) => {
                    self.revision += 1;
                    self.snapshot = Arc::new(next);
                    let slack = self.snapshot.report().worst_slack();
                    let delta = slack - self.slack;
                    lines.push(format!(
                        "edit {} {} slack {:e} delta {:e} {}",
                        self.revision,
                        se.summary,
                        slack.value(),
                        delta.value(),
                        self.snapshot.report().certification()
                    ));
                    self.slack = slack;
                    counts.applied += 1;
                    publish(&self.snapshot, self.revision);
                    log(&se.summary);
                }
                Err(e) => {
                    lines.push(format!("skip {}: {e}", se.location()));
                    counts.skipped += 1;
                }
            }
        }
        lines.push(self.ok());
        (lines, counts)
    }
}
