//! The repository benchmark: three seeded workloads over the rctree timing
//! stack, each run in its own process.
//!
//! * `deck_batch` — the offline sign-off path: SPEF ingest, design build,
//!   full analysis and report rendering of a 1e5-net deck.
//! * `serve_eco` — a served 2e4-net design under a closed-loop ECO/CERTIFY
//!   writer and a paced QUERY/REPORT reader.
//! * `dag_certify` — a deep multi-corner DAG under a closed-loop ECO and
//!   `CERTIFY --over` writer.
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`]);
//! the traced run (`--trace 1`) reports the per-layer metrics
//! ([`PER_LAYER`]) instead.  The benchmark only calls the public,
//! documented API of the workspace crates.  See `README.md` for what each
//! metric measures on each workload.

pub mod deck_batch;
pub mod served;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Worker threads for every workload (the reference box has two cores).
pub const JOBS: usize = 2;
/// Switching threshold of every analysis.
pub const THRESHOLD: f64 = 0.5;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run.  A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("netlist.parse_s", "s"),
    ("netlist.mb_per_s", "MB/s"),
    ("netlist.rss_mb", "MiB"),
    ("sta.build_s", "s"),
    ("sta.build_rss_mb", "MiB"),
    ("sta.analyze_s", "s"),
    ("sta.stage_sweep_s", "s"),
    ("sta.propagate_full_s", "s"),
    ("sta.kernel_share", "ratio"),
    ("sta.render_s", "s"),
    ("sta.report_bytes", "bytes"),
    ("bench.unattributed_s", "s"),
    ("obs.overhead_frac", "ratio"),
    ("serve.eco_server_us", "us"),
    ("serve.eco_wait_us", "us"),
    ("sta.eco_apply_us", "us"),
    ("sta.publish_us", "us"),
    ("sta.propagate_cone_us", "us"),
    ("sta.cone_ranks_mean", "count"),
    ("serve.query_server_us", "us"),
    ("serve.report_server_us", "us"),
    ("serve.report_cache_hit_ratio", "ratio"),
    ("serve.certify_server_us", "us"),
    ("serve.certify_over_server_us", "us"),
    ("sta.symbolic_build_us", "us"),
    ("sta.symbolic_builds", "count"),
    ("sta.symbolic_candidates_max", "count"),
    ("sta.symbolic_candidates_sum", "count"),
    ("serve.eco_applied", "count"),
    ("serve.eco_skipped", "count"),
    ("bench.reader_lag_p99_us", "us"),
    ("batch_s", "s"),
    ("eco_p50_us", "us"),
    ("eco_p95_us", "us"),
    ("certify_p50_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("report_p50_us", "us"),
    ("certify_over_p50_us", "us"),
    ("certify_over_p95_us", "us"),
    ("failed_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline SPEF → report sign-off of one large deck.
    DeckBatch,
    /// Served extracted design under ECO writes and paced reads.
    ServeEco,
    /// Served multi-corner DAG under ECO + continuum certification.
    DagCertify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DeckBatch,
        Workload::ServeEco,
        Workload::DagCertify,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeckBatch => "deck_batch",
            Workload::ServeEco => "serve_eco",
            Workload::DagCertify => "dag_certify",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the benchmarked sizes, or a seconds-long smoke size the
/// benchmark's own tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs with the same shape, for tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which traffic to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Directory for the generated deck (removed after the run) and the
    /// span dumps of traced runs.
    pub out_dir: PathBuf,
    /// The benchmark binary, which `deck_batch` re-runs (`--shot`) for each
    /// pass.
    pub exe: PathBuf,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (requests, batch passes, checks).
    pub attempted: u64,
    /// Operations that failed: `ERR` replies, transport errors, requests
    /// with a skipped ECO directive, failed checks.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines (sample counts, bases of ratios, check
    /// results) printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    /// Keeps exactly the metrics of `names`, in that order, taking each
    /// value from `values` (0 for a layer this workload does not touch).
    pub fn set_metrics(&mut self, names: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        self.metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, if value.is_finite() { value } else { 0.0 }, unit)
            })
            .collect();
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Setup failures that leave nothing to measure (unwritable output
/// directory, a server that cannot bind, a deck that does not analyze).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut outcome = match opts.workload {
        Workload::DeckBatch => deck_batch::run(opts)?,
        Workload::ServeEco | Workload::DagCertify => served::run(opts)?,
    };
    outcome.correct = outcome.failed == 0;
    Ok(outcome)
}

/// A `/proc/self/status` size field (`VmRSS`, `VmHWM`) in MiB; 0 where
/// the file does not exist.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
