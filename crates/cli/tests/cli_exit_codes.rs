//! Exit-code regression tests for the `rcdelay` binary: a failing
//! certification and a bad edit script must be visible to shells and CI
//! through the process status, not only through stdout text.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const FIG7_DECK: &str =
    "R1 in n1 15\nC1 n1 0 2\nRB n1 ns 8\nCB ns 0 7\nU1 n1 n2 3 4\nC2 n2 0 9\n.output n2\n";

const ECO_DECK: &str = "\
*D_NET slow 0.3\n*CONN\n*I drv I\n*P y O\n*CAP\n1 y 0.3\n*RES\n1 drv y 800\n*END\n";

fn rcdelay() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcdelay"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcdelay-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("temp file");
    path
}

fn run(args: &[&str]) -> Output {
    rcdelay().args(args).output().expect("rcdelay runs")
}

#[test]
fn passing_certification_exits_zero() {
    let deck = write_temp("fig7.sp", FIG7_DECK);
    let out = run(&["--budget", "1000", deck.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("pass"));
}

#[test]
fn indeterminate_certification_exits_two() {
    // Bounds straddling the budget cannot prove timing either way; the
    // gate must not go green (exit 0), but the distinct status 2 lets
    // callers tell "unproven" from "proven violation".
    let deck = write_temp("fig7_indet.sp", FIG7_DECK);
    let out = run(&[
        "--threshold",
        "0.9",
        "--budget",
        "900",
        deck.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("indeterminate"));
}

#[test]
fn failing_certification_exits_nonzero() {
    let deck = write_temp("fig7_fail.sp", FIG7_DECK);
    let out = run(&["--budget", "1e-3", deck.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
    // The report itself still prints; the failure is in the status.
    assert!(String::from_utf8_lossy(&out.stdout).contains("fail"));
}

#[test]
fn eco_session_exit_codes_follow_the_final_verdict() {
    let deck = write_temp("eco.spef", ECO_DECK);
    let script = write_temp("edits.eco", "setcap slow y 0.6e-12\n");
    let pass = run(&[
        "eco",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert!(pass.status.success(), "{pass:?}");
    assert!(String::from_utf8_lossy(&pass.stdout).contains("final certification: pass"));

    let fail = run(&[
        "eco",
        "--budget",
        "1e-12",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert!(!fail.status.success(), "{fail:?}");
    assert!(String::from_utf8_lossy(&fail.stdout).contains("final certification: fail"));
}

#[test]
fn eco_unknown_node_exits_nonzero_with_the_offending_token() {
    let deck = write_temp("eco_unknown.spef", ECO_DECK);
    let script = write_temp("bad.eco", "setcap slow ghost 1e-15\n");
    let out = run(&[
        "eco",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1") && stderr.contains("`ghost`"),
        "{stderr}"
    );
}

#[test]
fn eco_multi_edit_line_errors_carry_the_edit_index() {
    // A failing edit inside a `;`-separated multi-edit line must name both
    // the script line and the 1-based edit within it; this pins the
    // `line N, edit K` format.
    let deck = write_temp("eco_multi.spef", ECO_DECK);
    let script = write_temp(
        "multi.eco",
        "setcap slow y 0.6e-12; setcap slow ghost 1e-15\n",
    );
    let out = run(&[
        "eco",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1, edit 2") && stderr.contains("`ghost`"),
        "{stderr}"
    );
    // Single-edit lines keep the bare `line N` form.
    let script = write_temp("single.eco", "setcap slow ghost 1e-15\n");
    let out = run(&[
        "eco",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1:") && !stderr.contains("edit 1"),
        "{stderr}"
    );
}

#[test]
fn a_failing_eco_line_keeps_the_edits_applied_before_it() {
    // Batch mode stops at the failing line, but the header and the line of
    // every edit already applied still print before the error.
    let deck = write_temp("eco_partial.spef", ECO_DECK);
    let script = write_temp(
        "partial.eco",
        "setcap slow y 0.6e-12\nsetcap slow ghost 1e-15\n",
    );
    let out = run(&[
        "eco",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with("eco session: 1 nets, 2 edits"),
        "{stdout}"
    );
    assert!(lines[1].starts_with("baseline: "), "{stdout}");
    assert!(lines[2].starts_with("edit    1 (line   1)"), "{stdout}");
    assert_eq!(lines.len(), 3, "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2") && stderr.contains("`ghost`"),
        "{stderr}"
    );
}

#[test]
fn eco_watch_streams_edits_from_stdin() {
    // The sizing-loop server mode: pipe a 3-edit script over stdin and
    // collect one output line per edit plus the final verdict, with the
    // exit status still reflecting the certification.
    let deck = write_temp("eco_watch.spef", ECO_DECK);
    let mut child = rcdelay()
        .args([
            "eco",
            "--watch",
            "--budget",
            "100e-9",
            deck.to_str().unwrap(),
            "-",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rcdelay spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            b"setcap slow y 0.6e-12\n# a comment\nsetcap slow y 0.4e-12; setcap slow y 0.5e-12\n",
        )
        .expect("script piped");
    let out = child.wait_with_output().expect("rcdelay runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["baseline:", "edit    1", "edit    2", "edit    3"] {
        assert!(stdout.contains(needle), "missing `{needle}` in: {stdout}");
    }
    assert!(stdout.contains("final certification: pass"), "{stdout}");

    // A failing edit is reported (with its location) and skipped; the
    // session keeps serving and still exits on the final verdict.
    let mut child = rcdelay()
        .args([
            "eco",
            "--watch",
            "--budget",
            "100e-9",
            deck.to_str().unwrap(),
            "-",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rcdelay spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"setcap slow ghost 1e-15\nsetcap slow y 0.6e-12\nquit\n")
        .expect("script piped");
    let out = child.wait_with_output().expect("rcdelay runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1") && stderr.contains("`ghost`"),
        "{stderr}"
    );
    assert!(stdout.contains("edit    1"), "{stdout}");
}

#[test]
fn eco_watch_tail_handles_a_missing_final_newline() {
    // A tailed script whose last line lacks a trailing newline (editors and
    // `echo -n` both produce these) must still be processed after the
    // writer goes quiet — the session used to hang forever on the partial
    // `quit`.
    let deck = write_temp("eco_tail_nonl.spef", ECO_DECK);
    let script = write_temp("tail_nonl.eco", "setcap slow y 0.6e-12\nquit");
    let out = run(&[
        "eco",
        "--watch",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edit    1"), "{stdout}");
    assert!(stdout.contains("final certification: pass"), "{stdout}");
}

#[test]
fn eco_watch_tails_a_script_file_until_quit() {
    let deck = write_temp("eco_tail.spef", ECO_DECK);
    let script = write_temp("tail.eco", "setcap slow y 0.6e-12\nquit\n");
    let out = run(&[
        "eco",
        "--watch",
        "--budget",
        "100e-9",
        deck.to_str().unwrap(),
        script.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edit    1"), "{stdout}");
    assert!(stdout.contains("final certification: pass"), "{stdout}");
}

#[test]
fn eco_without_budget_is_a_usage_error() {
    let deck = write_temp("eco_nobudget.spef", ECO_DECK);
    let script = write_temp("nobudget.eco", "setcap slow y 1e-15\n");
    let out = run(&["eco", deck.to_str().unwrap(), script.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget"));
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    // Each child's stdout read end is closed before it can write (the
    // input it answers arrives on stdin afterwards), so every write it
    // makes meets a closed pipe; `gen-deck` reads nothing, but its deck
    // (≈1.4 MB) outgrows the pipe's buffer.  The exit status is still the
    // verdict's.
    let deck = write_temp("closed_stdout.spef", ECO_DECK);
    let cases: [(&[&str], &str); 4] = [
        (&["--budget", "1000", "-"], FIG7_DECK),
        (&["report", "--budget", "100e-9", "-"], ECO_DECK),
        (&["gen-deck", "--nets", "2000", "--seed", "4"], ""),
        (
            &[
                "eco",
                "--watch",
                "--budget",
                "100e-9",
                deck.to_str().unwrap(),
                "-",
            ],
            "setcap slow y 0.6e-12\nsetcap slow y 0.5e-12\n",
        ),
    ];
    for (args, input) in cases {
        let mut child = rcdelay()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("rcdelay spawns");
        drop(child.stdout.take());
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(input.as_bytes())
            .expect("input piped");
        let out = child.wait_with_output().expect("rcdelay runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {out:?}");
        assert!(out.status.success(), "{args:?}: a passing verdict: {out:?}");
    }
}
