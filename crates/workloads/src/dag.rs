//! DAG-shaped multi-stage ECO designs for cone-propagation tests.
//!
//! The cone-limited arrival re-propagation of `rctree_sta::Design::apply_eco`
//! only shows its worth (and can only be *tested*) on designs whose
//! instance graph has real breadth: several logic chains running in
//! parallel, occasionally cross-coupled, so that an edit on one net dirties
//! a bounded fan-out cone while the rest of the design keeps its cached
//! arrival windows.  [`eco_dag`] generates exactly that shape,
//! reproducibly from a seed:
//!
//! * `chains` parallel chains of `depth` stages each, every stage a library
//!   cell driving a short extracted wire;
//! * with probability `cross_probability` a stage net also feeds the next
//!   stage of the *neighbouring* chain (edges always go strictly forward in
//!   stage index, so the graph is a DAG for any probability);
//! * every `po_stride`-th chain terminates in a primary output, so the
//!   critical endpoint can move between cones as edits land.
//!
//! The returned [`EcoDag`] carries, next to the [`Design`], the net/node
//! name metadata an edit generator needs (design nets do not expose their
//! interconnect trees), including which nodes carry sinks and must survive
//! prunes.
//!
//! ```
//! use rctree_core::units::Seconds;
//! use rctree_workloads::dag::{eco_dag, EcoDagParams};
//!
//! let dag = eco_dag(&EcoDagParams::default(), 7);
//! let report = dag.design.analyze(0.5, Seconds::from_nano(500.0)).unwrap();
//! assert!(!report.endpoints.is_empty());
//! ```

use rctree_core::builder::RcTreeBuilder;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_sta::{CellLibrary, Design, Driver, Load, Net, Sink};

use crate::rng::Rng;

/// Shape of a generated multi-stage DAG design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcoDagParams {
    /// Number of parallel chains (the breadth the cone walk exploits).
    pub chains: usize,
    /// Number of stages per chain.
    pub depth: usize,
    /// Probability that a stage net also feeds the neighbouring chain's
    /// next stage (cross edges make the graph a genuine DAG).
    pub cross_probability: f64,
    /// Wire segments per generated net (interconnect nodes, excluding the
    /// driver pin).
    pub wire_nodes: usize,
    /// Every `po_stride`-th chain ends in a primary output (`1` = all).
    pub po_stride: usize,
}

impl Default for EcoDagParams {
    fn default() -> Self {
        EcoDagParams {
            chains: 4,
            depth: 6,
            cross_probability: 0.25,
            wire_nodes: 3,
            po_stride: 1,
        }
    }
}

/// Name metadata of one generated net, for edit generation against the
/// design (whose nets do not expose their trees).
#[derive(Debug, Clone)]
pub struct EcoDagNet {
    /// Net name (`in{c}`, `n{c}_{s}` or `out{c}`).
    pub name: String,
    /// Every interconnect node name, in creation (chain) order.
    pub nodes: Vec<String>,
    /// The subset of `nodes` that carries a sink (pruning these is refused
    /// by `apply_eco`'s sink-survival rule).
    pub sink_nodes: Vec<String>,
}

/// A generated DAG design plus its edit-targeting metadata.
#[derive(Debug)]
pub struct EcoDag {
    /// The multi-stage design (instances wired chain by chain).
    pub design: Design,
    /// Per-net name metadata, in net insertion order.
    pub nets: Vec<EcoDagNet>,
}

impl EcoDag {
    /// Total number of instances.
    pub fn instance_count(&self) -> usize {
        self.design.instance_count()
    }

    /// A generous delay budget for `analyze`/`apply_eco` calls: every
    /// endpoint certifies against it, so edit streams exercise slack
    /// deltas rather than failures.
    pub fn budget(&self) -> Seconds {
        Seconds::from_nano(500.0)
    }
}

/// One short extracted wire: `wire_nodes` RC segments with seeded values.
/// Returns the tree and its node names in chain order.
fn wire(rng: &mut Rng, wire_nodes: usize) -> (RcTree, Vec<String>) {
    let mut b = RcTreeBuilder::new();
    let mut names = Vec::with_capacity(wire_nodes);
    let mut cur = b.input();
    for j in 0..wire_nodes.max(1) {
        let name = format!("w{j}");
        let r = Ohms::new(rng.range_f64(20.0, 200.0));
        let c = Farads::from_femto(rng.range_f64(1.0, 20.0));
        cur = if rng.chance(0.5) {
            b.add_line(cur, &name, r, c)
                .expect("generated wire is valid")
        } else {
            let node = b
                .add_resistor(cur, &name, r)
                .expect("generated wire is valid");
            b.add_capacitance(node, c).expect("generated wire is valid");
            node
        };
        names.push(name);
    }
    let _ = cur;
    (b.build().expect("generated wire is valid"), names)
}

/// Generates a DAG-shaped multi-stage design, reproducibly from a seed.
///
/// Instances are named `u{chain}_{stage}` (cells cycle through the 1981
/// library's inverters and buffer); nets are `in{c}` (primary-input
/// feeders), `n{c}_{s}` (stage nets) and `out{c}` (endpoint nets driving
/// `po{c}`).
pub fn eco_dag(params: &EcoDagParams, seed: u64) -> EcoDag {
    let mut rng = Rng::from_seed(seed ^ 0xDA6_0000);
    let chains = params.chains.max(1);
    let depth = params.depth.max(1);
    let cells = ["inv_1x", "inv_4x", "buf_8x"];

    let mut design = Design::new(CellLibrary::nmos_1981());
    for c in 0..chains {
        for s in 0..depth {
            design
                .add_instance(format!("u{c}_{s}"), cells[(c + s) % cells.len()])
                .expect("generated instances are unique");
        }
    }

    let mut nets = Vec::new();
    let mut add_net = |design: &mut Design,
                       name: String,
                       tree: RcTree,
                       node_names: Vec<String>,
                       sinks: Vec<Sink>,
                       driver: Driver| {
        let sink_nodes = sinks.iter().map(|s| s.node.clone()).collect();
        design
            .add_net(Net {
                name: name.clone(),
                driver,
                interconnect: tree,
                sinks,
            })
            .expect("generated nets are valid");
        nets.push(EcoDagNet {
            name,
            nodes: node_names,
            sink_nodes,
        });
    };

    for c in 0..chains {
        // Feeder from a primary input into the chain's first stage.
        let (tree, names) = wire(&mut rng, params.wire_nodes);
        let last = names.last().expect("wire has nodes").clone();
        add_net(
            &mut design,
            format!("in{c}"),
            tree,
            names,
            vec![Sink {
                node: last,
                load: Load::Instance(format!("u{c}_0")),
            }],
            Driver::PrimaryInput,
        );

        for s in 0..depth - 1 {
            let (tree, names) = wire(&mut rng, params.wire_nodes);
            let last = names.last().expect("wire has nodes").clone();
            let mut sinks = vec![Sink {
                node: last,
                load: Load::Instance(format!("u{c}_{}", s + 1)),
            }];
            // Cross edge into the neighbouring chain's next stage; tapped
            // mid-wire so the two sinks see different windows.
            if chains > 1 && rng.chance(params.cross_probability) {
                let tap = names[rng.index(names.len())].clone();
                sinks.push(Sink {
                    node: tap,
                    load: Load::Instance(format!("u{}_{}", (c + 1) % chains, s + 1)),
                });
            }
            add_net(
                &mut design,
                format!("n{c}_{s}"),
                tree,
                names,
                sinks,
                Driver::Instance(format!("u{c}_{s}")),
            );
        }

        // Endpoint net for every po_stride-th chain.
        if c % params.po_stride.max(1) == 0 {
            let (tree, names) = wire(&mut rng, params.wire_nodes);
            let last = names.last().expect("wire has nodes").clone();
            add_net(
                &mut design,
                format!("out{c}"),
                tree,
                names,
                vec![Sink {
                    node: last,
                    load: Load::PrimaryOutput(format!("po{c}").into()),
                }],
                Driver::Instance(format!("u{c}_{}", depth - 1)),
            );
        }
    }

    EcoDag { design, nets }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_designs_analyze_and_are_deterministic() {
        let params = EcoDagParams::default();
        let a = eco_dag(&params, 11);
        let b = eco_dag(&params, 11);
        assert_eq!(a.instance_count(), params.chains * params.depth);
        assert_eq!(a.nets.len(), b.nets.len());
        let budget = a.budget();
        let ra = a.design.analyze(0.5, budget).unwrap();
        let rb = b.design.analyze(0.5, budget).unwrap();
        assert_eq!(ra, rb, "same seed, same design");
        // Every chain ends in a primary output with the default stride.
        assert_eq!(ra.endpoints.len(), params.chains);

        let c = eco_dag(&params, 12);
        assert_ne!(
            ra,
            c.design.analyze(0.5, budget).unwrap(),
            "different seeds differ"
        );
    }

    #[test]
    fn po_stride_thins_the_endpoints() {
        let params = EcoDagParams {
            chains: 6,
            po_stride: 3,
            ..EcoDagParams::default()
        };
        let dag = eco_dag(&params, 5);
        let report = dag.design.analyze(0.5, dag.budget()).unwrap();
        assert_eq!(report.endpoints.len(), 2); // chains 0 and 3
    }

    #[test]
    fn metadata_names_resolve_against_the_design() {
        // Every advertised (net, node) pair must be editable: a no-op cap
        // edit through the public ECO API exercises the name resolution.
        use rctree_sta::{EcoEdit, EcoEditKind};
        let dag = eco_dag(&EcoDagParams::default(), 3);
        let mut design = dag.design;
        let budget = Seconds::from_nano(500.0);
        let baseline = design.analyze(0.5, budget).unwrap();
        let edits: Vec<EcoEdit> = dag
            .nets
            .iter()
            .map(|net| EcoEdit {
                net: net.name.clone(),
                kind: EcoEditKind::SetCap {
                    node: net.nodes[0].clone(),
                    cap: Farads::from_femto(5.0),
                },
            })
            .collect();
        let report = design.apply_eco(&edits, 0.5, budget).unwrap();
        assert_eq!(report, design.analyze(0.5, budget).unwrap());
        assert_ne!(report, baseline);
    }
}
