//! Graph-level optimization: "optimizes the graph using predefined rules"
//! (§2.1 step 2).
//!
//! Two rules are implemented, mirroring what the IR passes do at op level:
//!
//! 1. **Dead-vertex pruning**: vertices that cannot reach any sink do no
//!    useful work and are removed.
//! 2. **Chain fusion**: a per-row vertex on a plain data edge collapses
//!    into its only producer — another per-row vertex, or the scan, join
//!    or aggregate at the head of the chain — so the chain is one task
//!    per shard with no intermediate objects, which is the paper's
//!    motivation for cross-domain fusion.

use std::collections::HashSet;

use crate::exec::ExecOp;
use crate::logical::{EdgeKind, FlowGraph, Vertex, VertexBody, VertexId};

/// Per-row (or per-element) ops with one input: any of them may follow
/// its producer inside one task. Matches the IR-level fusable set, plus
/// `rel.limit` (a per-shard top-N keeps a superset of the global one).
fn per_row(name: &str) -> bool {
    matches!(
        name,
        "rel.filter" | "rel.project" | "rel.limit" | "tensor.map" | "tensor.from_frame"
    )
}

/// The fused-kernel body `v` contributes as the producer end of a chain:
/// per-row ops throughout, or headed by a scan, a join or an aggregate.
/// A source heads a chain only when it carries the scan to run in its
/// place; any other source is an external input no task can absorb.
fn producer_body(v: &Vertex) -> Option<Vec<String>> {
    match &v.body {
        VertexBody::Source { .. } if matches!(v.exec, Some(ExecOp::Scan { .. })) => {
            Some(vec!["rel.scan".to_string()])
        }
        VertexBody::IrOp { body, .. } => {
            let (head, rest) = body.split_first()?;
            let heads =
                per_row(head) || matches!(head.as_str(), "rel.scan" | "rel.join" | "rel.aggregate");
            (heads && rest.iter().all(|n| per_row(n))).then(|| body.clone())
        }
        _ => None,
    }
}

/// What the optimizer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizeReport {
    /// Vertices removed as unreachable-from-sinks.
    pub pruned: usize,
    /// Fusion rewrites applied (each removes one vertex).
    pub fused: usize,
    /// Vertex count before optimization.
    pub before: usize,
    /// Vertex count after optimization.
    pub after: usize,
}

/// Runs both rules to fixpoint.
pub fn optimize_graph(g: &mut FlowGraph) -> OptimizeReport {
    let before = g.len();
    let pruned = prune_dead(g);
    let mut fused = 0;
    while fuse_one(g) {
        fused += 1;
    }
    OptimizeReport {
        pruned,
        fused,
        before,
        after: g.len(),
    }
}

/// Removes vertices that cannot reach any sink. Graphs without sinks are
/// left untouched (every vertex is presumed observable).
fn prune_dead(g: &mut FlowGraph) -> usize {
    let sinks: Vec<VertexId> = g
        .vertices()
        .iter()
        .filter(|v| matches!(v.body, VertexBody::Sink { .. }))
        .map(|v| v.id)
        .collect();
    if sinks.is_empty() {
        return 0;
    }
    // Reverse reachability from sinks.
    let mut live: HashSet<VertexId> = HashSet::new();
    let mut stack = sinks;
    while let Some(v) = stack.pop() {
        if !live.insert(v) {
            continue;
        }
        for p in g.inputs_of(v) {
            stack.push(p);
        }
    }
    let doomed: HashSet<VertexId> = g
        .vertices()
        .iter()
        .filter(|v| !live.contains(&v.id))
        .map(|v| v.id)
        .collect();
    let n = doomed.len();
    if n > 0 {
        g.remove_vertices(&doomed);
    }
    n
}

/// Fuses one producer-consumer pair joined by a plain data edge, where
/// the consumer is per-row throughout, the producer can sit in front of
/// it (see [`producer_body`]), the producer's only consumer is the pair's
/// consumer and the consumer's only producer is the pair's producer.
/// Returns true if a rewrite happened.
fn fuse_one(g: &mut FlowGraph) -> bool {
    let pair = g.edges().iter().find_map(|e| {
        if e.kind != EdgeKind::Data {
            return None;
        }
        let VertexBody::IrOp { body, .. } = &g.vertex(e.to).body else {
            return None;
        };
        if !body.iter().all(|n| per_row(n)) {
            return None;
        }
        if g.outputs_of(e.from).len() != 1 || g.inputs_of(e.to).len() != 1 {
            return None;
        }
        Some((e.from, e.to, producer_body(g.vertex(e.from))?))
    });
    let Some((pid, cid, p_body)) = pair else {
        return false;
    };

    // Merge the producer's body into the consumer, then rewire the
    // producer's inputs to the consumer and drop the producer.
    let p_inputs: Vec<(VertexId, EdgeKind, u8)> = g
        .inputs_of(pid)
        .into_iter()
        .map(|u| {
            let e = g.edge_between(u, pid).expect("edge exists");
            (u, e.kind.clone(), e.port)
        })
        .collect();
    let p_rows = g.vertex(pid).rows_hint;
    let p_exec = g.vertex(pid).exec.clone();

    {
        let c = g.vertex_mut(cid);
        if let VertexBody::IrOp { name, body } = &mut c.body {
            let mut merged = p_body;
            merged.append(body);
            *body = merged;
            *name = "kernel.fused".to_string();
        }
        // The fused vertex streams the producer's input cardinality.
        c.rows_hint = c.rows_hint.max(p_rows);
        // The fused descriptor runs the producer's ops first.
        c.exec = ExecOp::fuse(p_exec, c.exec.take());
    }
    for (u, kind, port) in p_inputs {
        match kind {
            EdgeKind::Data => g.connect(u, cid).ok(),
            EdgeKind::Keyed(k) => g.connect_keyed_port(u, cid, &k, port).ok(),
            EdgeKind::Broadcast => g.connect_broadcast(u, cid).ok(),
        };
    }
    let doomed: HashSet<VertexId> = [pid].into_iter().collect();
    g.remove_vertices(&doomed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prunes_unreachable_branch() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 10, 10);
        let live = g.add_ir_op("rel.filter", 10, 10);
        let dead = g.add_ir_op("rel.project", 10, 10);
        let sink = g.add_sink("out");
        g.connect(s, live).unwrap();
        g.connect(s, dead).unwrap();
        g.connect(live, sink).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.pruned, 1);
        g.validate().unwrap();
        assert!(g.vertices().iter().all(|v| v.body.name() != "rel.project"));
    }

    #[test]
    fn fuses_linear_chain() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 1000, 8000);
        let f = g.add_ir_op("rel.filter", 1000, 4000);
        let m = g.add_ir_op("tensor.map", 1000, 4000);
        let sink = g.add_sink("out");
        g.connect(s, f).unwrap();
        g.connect(f, m).unwrap();
        g.connect(m, sink).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 1);
        assert_eq!(g.len(), 3);
        let fused = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "kernel.fused")
            .expect("fused vertex");
        match &fused.body {
            VertexBody::IrOp { body, .. } => {
                assert_eq!(
                    body,
                    &vec!["rel.filter".to_string(), "tensor.map".to_string()]
                )
            }
            _ => panic!("not an IR op"),
        }
        g.validate().unwrap();
    }

    #[test]
    fn long_chain_fuses_fully() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 10, 10);
        let a = g.add_ir_op("rel.filter", 10, 10);
        let b = g.add_ir_op("rel.project", 10, 10);
        let c = g.add_ir_op("tensor.from_frame", 10, 10);
        let d = g.add_ir_op("tensor.map", 10, 10);
        let sink = g.add_sink("out");
        g.connect(s, a).unwrap();
        g.connect(a, b).unwrap();
        g.connect(b, c).unwrap();
        g.connect(c, d).unwrap();
        g.connect(d, sink).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 3);
        assert_eq!(g.len(), 3); // source, fused, sink
    }

    #[test]
    fn fanout_blocks_fusion() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 10, 10);
        let f = g.add_ir_op("rel.filter", 10, 10);
        let p1 = g.add_ir_op("rel.project", 10, 10);
        let p2 = g.add_ir_op("rel.project", 10, 10);
        let k1 = g.add_sink("o1");
        let k2 = g.add_sink("o2");
        g.connect(s, f).unwrap();
        g.connect(f, p1).unwrap();
        g.connect(f, p2).unwrap();
        g.connect(p1, k1).unwrap();
        g.connect(p2, k2).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 0);
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn keyed_edges_block_fusion() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 10, 10);
        let f = g.add_ir_op("rel.filter", 10, 10);
        let m = g.add_ir_op("tensor.map", 10, 10);
        let sink = g.add_sink("out");
        g.connect(s, f).unwrap();
        g.connect_keyed(f, m, "k").unwrap();
        g.connect(m, sink).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 0);
    }

    #[test]
    fn an_aggregate_consumer_never_fuses() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 10, 10);
        let f = g.add_ir_op("rel.filter", 10, 10);
        let a = g.add_ir_op("rel.aggregate", 10, 10);
        let l = g.add_ir_op("rel.limit", 10, 10);
        let sink = g.add_sink("out");
        g.connect(s, f).unwrap();
        g.connect(f, a).unwrap();
        g.connect(a, l).unwrap();
        g.connect(l, sink).unwrap();
        // The limit joins the aggregate's task; the aggregate-headed
        // vertex that results is no per-row consumer for the filter.
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 1);
        let names: Vec<&str> = g.vertices().iter().map(|v| v.body.name()).collect();
        assert_eq!(names, ["in", "rel.filter", "kernel.fused", "out"]);
    }

    #[test]
    fn a_scan_heads_its_consumers_chain() {
        let mut g = FlowGraph::new();
        let s = g.add_source("t", 100, 800);
        g.set_exec(s, ExecOp::Scan { table: "t".into() });
        let p = g.add_ir_op("rel.project", 100, 400);
        g.set_exec(p, ExecOp::Project { columns: vec![] });
        let f = g.add_ir_op("rel.filter", 100, 200);
        g.set_exec(f, ExecOp::Filter { conjuncts: vec![] });
        let sink = g.add_sink("out");
        g.connect(s, p).unwrap();
        g.connect(p, f).unwrap();
        g.connect(f, sink).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 2);
        assert_eq!(g.len(), 2);
        let fused = &g.vertices()[0];
        match &fused.body {
            VertexBody::IrOp { name, body } => {
                assert_eq!(name, "kernel.fused");
                assert_eq!(body, &["rel.scan", "rel.project", "rel.filter"]);
            }
            other => panic!("not an IR op: {other:?}"),
        }
        assert_eq!(
            fused.exec,
            Some(ExecOp::Fused(vec![
                ExecOp::Scan { table: "t".into() },
                ExecOp::Project { columns: vec![] },
                ExecOp::Filter { conjuncts: vec![] },
            ]))
        );
        assert_eq!(fused.rows_hint, 100);
        g.validate().unwrap();
    }

    #[test]
    fn a_join_heads_a_chain_and_keeps_its_keyed_inputs() {
        let mut g = FlowGraph::new();
        let l = g.add_source("l", 10, 10);
        let r = g.add_source("r", 10, 10);
        let j = g.add_ir_op("rel.join", 10, 10);
        let p = g.add_ir_op("rel.project", 10, 10);
        let sink = g.add_sink("out");
        g.connect_keyed(l, j, "k").unwrap();
        g.connect_keyed_port(r, j, "k", 1).unwrap();
        g.connect(j, p).unwrap();
        g.connect(p, sink).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 1);
        let fused = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "kernel.fused")
            .expect("fused vertex");
        let ports: Vec<u8> = g
            .inputs_of(fused.id)
            .into_iter()
            .map(|u| g.edge_between(u, fused.id).unwrap().port)
            .collect();
        assert_eq!(ports, [0, 1]);
    }

    #[test]
    fn no_sinks_means_no_pruning() {
        let mut g = FlowGraph::new();
        let s = g.add_source("in", 10, 10);
        let f = g.add_ir_op("rel.aggregate", 10, 10);
        g.connect(s, f).unwrap();
        let report = optimize_graph(&mut g);
        assert_eq!(report.pruned, 0);
        assert_eq!(g.len(), 2);
    }
}
