//! `rcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or the per-layer metrics when `--trace 1`).  Exits 1
//! when a check fails, 2 on a usage or setup error.
//!
//! `rcbench --shot <deck> --trace <0|1> --pass <k> --report <file> --spans
//! <file>` is the one-pass process `deck_batch` starts for each pass.

use std::path::PathBuf;
use std::process::ExitCode;

use rcbench::{Options, Size, Workload};

const USAGE: &str = "usage: rcbench --workload <deck_batch|serve_eco|dag_certify> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::DeckBatch,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from(".bench_out"),
        exe: std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("`--workload` is required")?;
    Ok(opts)
}

/// `--shot` mode: one `deck_batch` pass, its result line on stdout.
fn shot(args: &[String]) -> Result<String, String> {
    let value = |flag: &str| -> Result<&String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("`{flag}` is required"))?;
        args.get(at + 1)
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    let traced = value("--trace")? == "1";
    let id = value("--pass")?
        .parse()
        .map_err(|_| "bad `--pass` value".to_string())?;
    rcbench::deck_batch::shot(
        value("--shot")?.as_ref(),
        traced,
        id,
        value("--report")?.as_ref(),
        value("--spans")?.as_ref(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shot") {
        return match shot(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rcbench: shot failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("rcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match rcbench::run(&opts) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("rcbench: {} failed: {e}", opts.workload.name());
            ExitCode::from(2)
        }
    }
}
