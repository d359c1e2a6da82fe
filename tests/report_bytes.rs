//! A generated deck's report against std: every arrival, printed by the
//! shortest-digit kernel, equals `format!("{}", x)`, and the whole report
//! equals one rendered line by line with `writeln!` and `Seconds`'
//! `Display`, the format the byte renderer replaces.

use std::fmt::Write as _;

use penfield_rubinstein::core::shortest::push_f64;
use penfield_rubinstein::core::units::Seconds;
use penfield_rubinstein::netlist::parse_spef_deck;
use penfield_rubinstein::sta::{CellLibrary, Design, TimingReport};
use penfield_rubinstein::workloads::{render_spef_deck, SpefDeckParams};

/// The report `rcdelay report --budget 5e-7` prints for the deck of
/// `rcdelay gen-deck --nets 2000 --seed 4`.
fn generated_report() -> TimingReport {
    let params = SpefDeckParams {
        nets: 2000,
        ..SpefDeckParams::default()
    };
    let mut deck = Vec::new();
    render_spef_deck(&params, 4, &mut deck).expect("deck renders");
    let text = String::from_utf8(deck).expect("decks are UTF-8");
    let nets = parse_spef_deck(&text, 2).expect("deck parses");
    let design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        "inv_4x",
        nets.into_iter().map(|n| (n.name, n.tree)),
    )
    .expect("deck builds");
    design
        .analyze_with_jobs(0.5, Seconds::new(5e-7), 2)
        .expect("deck analyzes")
}

#[test]
fn every_arrival_of_a_deck_report_prints_as_std_does() {
    let report = generated_report();
    assert!(report.endpoints.len() > 8_000, "{}", report.endpoints.len());
    let (mut got, mut want) = (Vec::new(), String::new());
    for e in &report.endpoints {
        for x in [e.arrival.min.value(), e.arrival.max.value()] {
            got.clear();
            want.clear();
            push_f64(&mut got, x);
            write!(want, "{x}").unwrap();
            assert!(got == want.as_bytes(), "{x:e}: std `{want}`");
        }
    }
}

#[test]
fn a_deck_report_renders_as_std_writes_it_line_by_line() {
    let report = generated_report();
    let mut want = String::new();
    writeln!(
        want,
        "timing report (threshold {:.2}, required {})",
        report.threshold, report.required_time
    )
    .unwrap();
    for e in &report.endpoints {
        writeln!(
            want,
            "  {}: arrival [{}, {}] via {}",
            e.name,
            e.arrival.min,
            e.arrival.max,
            e.critical_path.join(" -> ")
        )
        .unwrap();
    }
    writeln!(want, "  worst slack: {}", report.worst_slack()).unwrap();
    writeln!(want, "  certification: {}", report.certification()).unwrap();
    assert!(report.to_string() == want, "Display differs from std");
    let mut written = Vec::new();
    report.write_to(&mut written).unwrap();
    assert!(written == want.as_bytes(), "write_to differs from std");
}
