//! Name-interning round trip: every user-visible name — report text,
//! snapshot queries, ECO error messages — must be byte-identical to the
//! pre-interning string-keyed path.  The interner is an internal
//! optimisation (hot maps key on dense `u32` ids); nothing about the
//! design's surface may change.

use penfield_rubinstein::core::intern::Interner;
use penfield_rubinstein::core::units::{Farads, Seconds};
use penfield_rubinstein::sta::{CellLibrary, Design, EcoEdit, EcoEditKind, StaError};
use penfield_rubinstein::workloads::SpefDeckParams;

const THRESHOLD: f64 = 0.5;
const BUDGET: Seconds = Seconds::new(200e-9);

/// A deck design with enough nets to exercise interner growth and bucket
/// chains, not just the happy path of a handful of names.
fn interned_deck(nets: usize) -> Design {
    let params = SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    };
    Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", params.trees(77)).unwrap()
}

#[test]
fn report_text_is_byte_identical_to_the_string_keyed_baseline() {
    let d = interned_deck(40);
    let interned = d.analyze_with_jobs(THRESHOLD, BUDGET, 2).unwrap();
    // The cold ECO warm-up of a clone files and renders every endpoint
    // through the ECO state instead; `deck_build` pins the id-based
    // augmentation of `from_extracted` against `add_net`'s name lookups.
    let baseline = d
        .clone()
        .apply_eco_with_jobs(&[], THRESHOLD, BUDGET, 2)
        .unwrap();
    assert_eq!(interned, baseline);
    assert_eq!(interned.to_string(), baseline.to_string());
    // Endpoint names round-trip: every rendered name is an original
    // primary-output string, untouched by interning.
    let rendered = interned.to_string();
    for ep in &interned.endpoints {
        assert!(ep.name.contains('/'), "deck PO names are net/node");
        assert!(rendered.contains(&*ep.name));
    }
}

#[test]
fn snapshot_queries_resolve_original_names_after_interning() {
    let mut d = interned_deck(12);
    let snap = d.publish(THRESHOLD, BUDGET, 1).unwrap();

    // Every original name resolves; close-but-wrong names do not.
    let names: Vec<String> = snap.net_names().map(str::to_string).collect();
    assert_eq!(names.len(), 24, "feeder + payload per deck net");
    for name in &names {
        let view = snap.net(name).expect("interned lookup finds the net");
        assert_eq!(view.name(), name, "round-tripped text is byte-identical");
        assert!(snap.net(&format!("{name}x")).is_none());
    }
    assert!(snap.net("").is_none());
    assert!(snap.net("net999").is_none());

    // Node-level queries carry the original node and net names through
    // the error path verbatim.
    let err = snap
        .net("net0")
        .unwrap()
        .node_times("no_such_node", THRESHOLD)
        .unwrap_err();
    match err {
        StaError::UnknownEcoNode { net, node } => {
            assert_eq!(net, "net0");
            assert_eq!(node, "no_such_node");
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn eco_errors_carry_the_original_net_name() {
    let mut d = interned_deck(6);
    let err = d
        .apply_eco(
            &[EcoEdit {
                net: "net6_pi_typo".into(),
                kind: EcoEditKind::SetCap {
                    node: "pin".into(),
                    cap: Farads::from_femto(3.0),
                },
            }],
            THRESHOLD,
            BUDGET,
        )
        .unwrap_err();
    match err {
        StaError::UnknownNet { name } => assert_eq!(name, "net6_pi_typo"),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn duplicate_names_are_still_rejected_on_the_interned_path() {
    // `from_extracted` synthesizes `<name>_pi` feeders; a deck net named
    // `net0_pi` collides with net0's feeder through the interned index
    // exactly as it did through the string-keyed one.
    let params = SpefDeckParams {
        nets: 1,
        ..SpefDeckParams::default()
    };
    let mut nets = params.trees(77);
    let clash = nets[0].1.clone();
    nets.push(("net0_pi".into(), clash));
    let err = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets).unwrap_err();
    match err {
        StaError::DuplicateNet { name } => assert_eq!(name, "net0_pi"),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn interner_distinguishes_prefixes_suffixes_and_survives_growth() {
    // Regression for the classic interning bugs: prefix/suffix confusion
    // in the byte-comparing chains, and id stability across bucket-table
    // growth.
    let mut interner = Interner::new();
    let names: Vec<String> = (0..2000)
        .flat_map(|i| [format!("net{i}"), format!("net{i}_pi"), format!("n{i}")])
        .collect();
    let ids: Vec<_> = names.iter().map(|n| interner.intern(n)).collect();
    assert_eq!(interner.len(), names.len(), "no two names collapsed");
    for (name, &id) in names.iter().zip(&ids) {
        assert_eq!(interner.resolve(id), name, "byte-identical round trip");
        assert_eq!(interner.get(name), Some(id), "stable across growth");
        // Interning again is idempotent.
        assert_eq!(interner.intern(name), id);
    }
}
