//! `deck_batch`: the offline sign-off path on one process, no server.
//!
//! A seeded `SpefDeckParams::default()`-shaped deck is written to a file
//! before timing.  Each *pass* then runs `parse_spef_read` →
//! `Design::from_extracted` → `analyze_with_jobs` → `TimingReport`
//! rendering into a byte sink, timed from the first parse call to the last
//! report byte.  Each pass runs in a fresh process of the benchmark binary
//! (a *shot*), so its peak RSS is its own; passes repeat until the run
//! length is spent and every metric is the median over passes.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use rctree_core::units::Seconds;
use rctree_netlist::parse_spef_read;
use rctree_obs::{Obs, ObsConfig, Registry};
use rctree_serve::{protocol, EcoExecutor};
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::{render_spef_deck, SpefDeckParams};

use crate::trace::Tracer;
use crate::{median, status_mib, Options, Outcome, Size, END_TO_END, JOBS, PER_LAYER, THRESHOLD};

/// Driver cell of every extracted net (the `rcdelay` default).
const DRIVER: &str = "inv_4x";
/// Required time of the sign-off analysis.
const BUDGET_S: f64 = 5e-7;
/// Fewest passes per kind (untraced, traced) a run measures, whatever
/// the run length.
const MIN_PASSES: usize = 3;

/// Capacity of the span ring of a traced pass: enough for every span the
/// program records in one pass.
const PROGRAM_SPANS: usize = 1 << 16;

/// One pass's layer wall times (s), memory (MiB) and output.  The
/// `program_*` fields come from the program's own spans and phase
/// histograms and stay 0 on untraced passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Pass {
    parse: f64,
    build: f64,
    analyze: f64,
    render: f64,
    total: f64,
    parse_rss_mib: f64,
    build_rss_mib: f64,
    peak_rss_mib: f64,
    endpoints: f64,
    report_bytes: f64,
    program_stage_sweep: f64,
    program_propagate_full: f64,
    program_spans: f64,
}

impl Pass {
    /// The fields in wire order, for the line a shot process prints.
    fn fields(&mut self) -> [&mut f64; 13] {
        [
            &mut self.parse,
            &mut self.build,
            &mut self.analyze,
            &mut self.render,
            &mut self.total,
            &mut self.parse_rss_mib,
            &mut self.build_rss_mib,
            &mut self.peak_rss_mib,
            &mut self.endpoints,
            &mut self.report_bytes,
            &mut self.program_stage_sweep,
            &mut self.program_propagate_full,
            &mut self.program_spans,
        ]
    }

    fn to_line(mut self) -> String {
        let values: Vec<String> = self.fields().iter().map(|v| format!("{v:?}")).collect();
        format!("pass {}", values.join(" "))
    }

    fn from_line(line: &str) -> Option<Pass> {
        let mut values = line.strip_prefix("pass ")?.split(' ');
        let mut pass = Pass::default();
        for field in pass.fields() {
            *field = values.next()?.parse().ok()?;
        }
        values.next().is_none().then_some(pass)
    }
}

/// Runs the workload: writes the deck, measures, checks, removes the deck.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let params = SpefDeckParams {
        nets: match opts.size {
            Size::Full => 100_000,
            Size::Tiny => 200,
        },
        ..SpefDeckParams::default()
    };
    let path = opts
        .out_dir
        .join(format!("deck-{}-{}.spef", std::process::id(), opts.seed));
    let result = write_deck(&params, opts.seed, &path)
        .and_then(|(bytes, sinks)| measure(opts, &path, params.nets, bytes, sinks));
    let _ = std::fs::remove_file(&path);
    result
}

/// Writes the seeded deck; returns its size in bytes and its sink (`*P`
/// pin) count.
fn write_deck(params: &SpefDeckParams, seed: u64, path: &Path) -> Result<(u64, usize), String> {
    let fail = |e: std::io::Error| format!("cannot write deck {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(fail)?);
    render_spef_deck(params, seed, &mut out).map_err(fail)?;
    out.flush().map_err(fail)?;
    drop(out);
    let mut sinks = 0;
    for line in BufReader::new(File::open(path).map_err(fail)?).lines() {
        if line.map_err(fail)?.starts_with("*P ") {
            sinks += 1;
        }
    }
    let bytes = std::fs::metadata(path).map_err(fail)?.len();
    Ok((bytes, sinks))
}

/// One sign-off pass into `sink`.  `traced` passes record spans (request
/// id `id`) and sample `VmRSS` at each layer boundary.
fn pass(
    path: &Path,
    sink: &mut Vec<u8>,
    tracer: &Tracer,
    traced: bool,
    id: u64,
) -> Result<Pass, String> {
    let rss = || traced.then(|| status_mib("VmRSS"));
    let root = tracer.reserve();
    let layer = |name, start, end, rss_mib| {
        tracer.record(tracer.reserve(), name, root, id, start, end, rss_mib);
    };
    let t0 = Instant::now();
    let file = File::open(path).map_err(|e| format!("cannot open deck: {e}"))?;
    let nets = parse_spef_read(file, JOBS).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let parse_rss = rss();
    layer("netlist.parse_spef_read", t0, t1, parse_rss);
    let design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        DRIVER,
        nets.into_iter().map(|n| (n.name, n.tree)),
    )
    .map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    let build_rss = rss();
    layer("sta.from_extracted", t1, t2, build_rss);
    let report = design
        .analyze_with_jobs(THRESHOLD, Seconds::new(BUDGET_S), JOBS)
        .map_err(|e| format!("analyze: {e}"))?;
    let t3 = Instant::now();
    layer("sta.analyze_with_jobs", t2, t3, rss());
    sink.clear();
    write!(sink, "{report}").map_err(|e| format!("render: {e}"))?;
    let t4 = Instant::now();
    layer("sta.render_report", t3, t4, rss());
    tracer.record(root, "bench.pass", 0, id, t0, t4, None);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Pass {
        parse: secs(t0, t1),
        build: secs(t1, t2),
        analyze: secs(t2, t3),
        render: secs(t3, t4),
        total: secs(t0, t4),
        parse_rss_mib: parse_rss.unwrap_or(0.0),
        build_rss_mib: build_rss.unwrap_or(0.0),
        endpoints: report.endpoints.len() as f64,
        report_bytes: sink.len() as f64,
        ..Pass::default()
    })
}

/// Total duration (s) of one program phase in a runtime's phase
/// histograms.
fn phase_total_s(registry: &Registry, phase: &str) -> f64 {
    let label = format!("phase=\"{phase}\"");
    registry
        .histogram_series("rctree_phase_duration_us")
        .into_iter()
        .find(|(labels, _)| labels.contains(&label))
        .map_or(0.0, |(_, h)| h.sum as f64 / 1e6)
}

/// The body of a shot process: one pass over `deck`, its report written to
/// `report` and, when `traced`, its spans to `spans` (both after timing).
/// Returns the line the process prints for its parent.
///
/// A traced pass runs inside a fresh program runtime, so the program's
/// spans and phase histograms hold exactly this pass.
pub fn shot(
    deck: &Path,
    traced: bool,
    id: u64,
    report: &Path,
    spans: &Path,
) -> Result<String, String> {
    let tracer = Tracer::new(traced);
    let obs = Obs::new(ObsConfig {
        trace_capacity: PROGRAM_SPANS,
    });
    let mut sink = Vec::new();
    let mut p = {
        let _entered = traced.then(|| obs.enter());
        pass(deck, &mut sink, &tracer, traced, id)?
    };
    p.peak_rss_mib = status_mib("VmHWM");
    if traced {
        let registry = obs.registry();
        p.program_stage_sweep = phase_total_s(registry, "sta.stage_sweep");
        p.program_propagate_full = phase_total_s(registry, "sta.propagate_full");
        // Top-level spans on this thread; nested ones lie inside them.
        p.program_spans = obs
            .ring()
            .recent(PROGRAM_SPANS)
            .iter()
            .filter(|r| r.parent == 0)
            .map(|r| r.dur_ns as f64 / 1e9)
            .sum();
        tracer
            .write(spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    }
    std::fs::write(report, &sink).map_err(|e| format!("cannot write {}: {e}", report.display()))?;
    Ok(p.to_line())
}

/// Runs one pass in a fresh process of the benchmark binary, so its peak
/// RSS and cold-start costs are its own.
fn spawn_shot(
    opts: &Options,
    deck: &Path,
    traced: bool,
    id: u64,
    report: &Path,
) -> Result<(Pass, PathBuf), String> {
    let spans = opts
        .out_dir
        .join(format!("trace-deck_batch-seed{}-pass{id}.tsv", opts.seed));
    let output = Command::new(&opts.exe)
        .arg("--shot")
        .arg(deck)
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--pass",
            &id.to_string(),
        ])
        .arg("--report")
        .arg(report)
        .arg("--spans")
        .arg(&spans)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", opts.exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(Pass::from_line) {
        Some(pass) if output.status.success() => Ok((pass, spans)),
        _ => Err(format!(
            "shot {id} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

fn measure(
    opts: &Options,
    path: &Path,
    nets: usize,
    deck_bytes: u64,
    sinks: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let report = opts
        .out_dir
        .join(format!("report-{}.txt", std::process::id()));
    let (mut plain, mut traced, mut span_files) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        // The traced run alternates untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        let trace_this = opts.trace && plain.len() > traced.len();
        out.attempted += 1;
        match spawn_shot(opts, path, trace_this, out.attempted, &report) {
            Ok((p, spans)) if trace_this => {
                traced.push(p);
                span_files.push(spans);
            }
            Ok((p, _)) => plain.push(p),
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("pass failed: {e}"));
                let _ = std::fs::remove_file(&report);
                return Ok(out);
            }
        }
        let enough = plain.len() >= MIN_PASSES && (!opts.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let last = *traced.last().or(plain.last()).expect("at least one pass");

    // Correctness, outside every timed region: the endpoint count, and the
    // last pass's rendered bytes against a different engine path (an
    // `EcoExecutor` snapshot rendered by the server's REPORT renderer).
    out.check(
        last.endpoints == sinks as f64,
        &format!("report endpoints {} == deck sinks {sinks}", last.endpoints),
    );
    let rendered =
        std::fs::read(&report).map_err(|e| format!("cannot read {}: {e}", report.display()));
    let _ = std::fs::remove_file(&report);
    let rendered = rendered?;
    let oracle = oracle_report(path)?;
    out.check(
        oracle == rendered,
        &format!(
            "report ({} bytes) byte-identical to the snapshot REPORT rendering ({} bytes)",
            rendered.len(),
            oracle.len()
        ),
    );

    let col =
        |passes: &[Pass], f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.notes.push(format!(
        "samples: {} untraced passes, {} traced passes, one process each; deck {nets} nets, \
         {deck_bytes} bytes, {sinks} sinks",
        plain.len(),
        traced.len()
    ));
    let fmt = |passes: &[Pass]| -> Vec<String> {
        passes
            .iter()
            .map(|p| {
                format!(
                    "{:.3}/{:.3}/{:.3}/{:.3}",
                    p.parse, p.build, p.analyze, p.render
                )
            })
            .collect()
    };
    out.notes.push(format!(
        "pass parse/build/analyze/render s: untraced {:?} traced {:?}",
        fmt(&plain),
        fmt(&traced)
    ));
    if !opts.trace {
        out.set_metrics(
            &END_TO_END,
            &[
                ("setup_s", col(&plain, |p| p.parse + p.build)),
                ("peak_rss_mb", col(&plain, |p| p.peak_rss_mib)),
                ("write_p50_us", col(&plain, |p| p.analyze) * 1e6),
                ("read_p50_us", col(&plain, |p| p.render) * 1e6),
                ("ops_per_s", nets as f64 / col(&plain, |p| p.total)),
            ],
        );
        return Ok(out);
    }

    let stage_sweep_s = col(&traced, |p| p.program_stage_sweep);
    let batch_traced = col(&traced, |p| p.total);
    let batch_plain = col(&plain, |p| p.total);
    let parse_s = col(&traced, |p| p.parse);
    out.notes.push(format!(
        "sta.kernel_share base: traced batch_s {batch_traced:.4} s (stage sweep {stage_sweep_s:.4} s)"
    ));
    out.set_metrics(
        &PER_LAYER,
        &[
            ("netlist.parse_s", parse_s),
            ("netlist.mb_per_s", deck_bytes as f64 / 1e6 / parse_s),
            ("netlist.rss_mb", col(&traced, |p| p.parse_rss_mib)),
            ("sta.build_s", col(&traced, |p| p.build)),
            ("sta.build_rss_mb", col(&traced, |p| p.build_rss_mib)),
            ("sta.analyze_s", col(&traced, |p| p.analyze)),
            ("sta.stage_sweep_s", stage_sweep_s),
            (
                "sta.propagate_full_s",
                col(&traced, |p| p.program_propagate_full),
            ),
            ("sta.kernel_share", stage_sweep_s / batch_traced),
            ("sta.render_s", col(&traced, |p| p.render)),
            ("sta.report_bytes", last.report_bytes),
            (
                "bench.unattributed_s",
                col(&traced, |p| p.total - p.program_spans),
            ),
            ("obs.overhead_frac", batch_traced / batch_plain - 1.0),
            ("batch_s", batch_plain),
            ("failed_frac", out.failed as f64 / out.attempted as f64),
        ],
    );
    for file in span_files {
        out.notes
            .push(format!("spans written to {}", file.display()));
    }
    Ok(out)
}

/// The REPORT payload of a fresh `EcoExecutor` over the same deck, with
/// the trailing `OK rev 0` line checked and removed.
fn oracle_report(path: &Path) -> Result<Vec<u8>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open deck: {e}"))?;
    let nets = parse_spef_read(file, JOBS).map_err(|e| format!("oracle parse: {e}"))?;
    let design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        DRIVER,
        nets.into_iter().map(|n| (n.name, n.tree)),
    )
    .map_err(|e| format!("oracle build: {e}"))?;
    let executor = EcoExecutor::new(design, THRESHOLD, Seconds::new(BUDGET_S), JOBS)
        .map_err(|e| format!("oracle analysis: {e}"))?;
    let snapshot = executor.snapshot();
    drop(executor);
    let mut lines = protocol::render_report(&snapshot, 0, None);
    if lines.pop().as_deref() != Some("OK rev 0") {
        return Err("oracle REPORT did not end with `OK rev 0`".into());
    }
    let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    Ok(bytes)
}
