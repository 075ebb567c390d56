//! Logical-to-physical lowering.
//!
//! §2.1: "Skadi lowers the logical FlowGraph to a physical sharded graph
//! in two steps: (1) selects hardware backends for MLIR-based ops using
//! predefined rules; (b) decides a default degree of parallelism for each
//! vertex, and keyed edges with a default or user-supplied hashing
//! scheme."

use std::collections::HashMap;

use skadi_ir::backend::estimate;
use skadi_ir::{Backend, BackendPolicy, Op};

use crate::error::GraphError;
use crate::logical::{EdgeKind, FlowGraph, VertexBody, VertexId};
use crate::physical::{PEdgeKind, PVertexKind, PhysicalEdge, PhysicalGraph, PhysicalVertex};

/// Lowering configuration.
#[derive(Debug, Clone)]
pub struct LowerConfig {
    /// Default degree of parallelism for compute and source vertices.
    pub default_parallelism: u32,
    /// Backend-selection policy for IR-based vertices.
    pub policy: BackendPolicy,
    /// Per-vertex parallelism overrides.
    pub overrides: HashMap<VertexId, u32>,
}

impl LowerConfig {
    /// Creates a config with the given default parallelism and policy.
    pub fn new(default_parallelism: u32, policy: BackendPolicy) -> Self {
        LowerConfig {
            default_parallelism: default_parallelism.max(1),
            policy,
            overrides: HashMap::new(),
        }
    }

    /// Overrides one vertex's parallelism.
    pub fn with_parallelism(mut self, v: VertexId, n: u32) -> Self {
        self.overrides.insert(v, n.max(1));
        self
    }

    fn parallelism_of(&self, g: &FlowGraph, v: VertexId) -> u32 {
        if let Some(n) = self.overrides.get(&v) {
            return *n;
        }
        let vertex = g.vertex(v);
        // A global aggregate folds every row into one output row; it only
        // makes sense on a single shard.
        if vertex
            .exec
            .as_ref()
            .is_some_and(|e| e.requires_single_shard())
        {
            return 1;
        }
        match vertex.body {
            VertexBody::Sink { .. } => 1,
            _ => self.default_parallelism,
        }
    }
}

/// The text a vertex goes by once lowered — its op label and body, which
/// task labels, traces and profiles print: a dataset or result name, an
/// op's name, or `kernel.fused` over the chain's op names.
fn text(body: &VertexBody) -> (String, Vec<String>) {
    let label = body.name().to_string();
    let names = match body {
        VertexBody::IrOp { ops } => ops.iter().map(|op| op.name().to_string()).collect(),
        VertexBody::Source { .. } | VertexBody::Sink { .. } => vec![label.clone()],
    };
    (label, names)
}

/// Lowers the logical graph to a physical sharded graph.
pub fn lower_graph(g: &FlowGraph, cfg: &LowerConfig) -> Result<PhysicalGraph, GraphError> {
    g.validate()
        .map_err(|e| GraphError::LoweringFailed(format!("logical graph invalid: {e}")))?;
    let mut phys = PhysicalGraph::new();

    // Step 1 + 2 per vertex: pick backend, decide parallelism, emit
    // shards.
    for v in g.vertices() {
        let shards = cfg.parallelism_of(g, v.id);
        let per_shard_rows = (v.rows_hint / shards as u64).max(1);
        let per_shard_bytes = v.output_bytes_hint / shards as u64;
        let (kind, backend, compute_us) = match &v.body {
            VertexBody::Source { .. } => {
                // Reading input: priced as a light scan on CPU.
                let cost = estimate(&[Op::Scan], per_shard_rows, Backend::Cpu)
                    .map_or(0.0, |c| c.total_us());
                (PVertexKind::Source, Backend::Cpu, cost)
            }
            VertexBody::Sink { .. } => (PVertexKind::Sink, Backend::Cpu, 0.0),
            VertexBody::IrOp { ops } => {
                let (backend, cost) = cfg.policy.select(ops, per_shard_rows).ok_or_else(|| {
                    GraphError::LoweringFailed(format!(
                        "no backend for vertex {} ({})",
                        v.id,
                        v.body.name()
                    ))
                })?;
                (PVertexKind::Compute, backend, cost.total_us())
            }
        };
        let (op, body) = text(&v.body);
        for shard in 0..shards {
            phys.push_vertex(PhysicalVertex {
                id: crate::physical::PVertexId(0), // Reassigned by push.
                op_id: v.id.0,
                logical: v.id,
                shard,
                shards,
                op: op.clone(),
                body: body.clone(),
                backend,
                kind,
                compute_us,
                output_bytes: per_shard_bytes,
                rows: per_shard_rows,
                exec: v.exec.clone(),
            });
        }
    }

    // Expand edges.
    for e in g.edges() {
        let from_shards: Vec<_> = phys.shards_of(e.from).to_vec();
        let to_shards: Vec<_> = phys.shards_of(e.to).to_vec();
        let (m, n) = (from_shards.len() as u64, to_shards.len() as u64);
        let out_bytes = g.vertex(e.from).output_bytes_hint;
        match &e.kind {
            EdgeKind::Keyed(key) => {
                // All-to-all shuffle: every producer shard sends each
                // consumer its hash bucket.
                let bytes = (out_bytes / (m * n)).max(1);
                for &f in &from_shards {
                    for &t in &to_shards {
                        phys.push_edge(PhysicalEdge {
                            from: f,
                            to: t,
                            bytes,
                            kind: PEdgeKind::Shuffle { key: key.clone() },
                            port: e.port,
                        });
                    }
                }
            }
            EdgeKind::Broadcast => {
                // Every consumer shard receives the full producer output.
                let bytes = (out_bytes / m).max(1);
                for &f in &from_shards {
                    for &t in &to_shards {
                        phys.push_edge(PhysicalEdge {
                            from: f,
                            to: t,
                            bytes,
                            kind: PEdgeKind::Broadcast,
                            port: e.port,
                        });
                    }
                }
            }
            EdgeKind::Data => {
                if m == n {
                    for (f, t) in from_shards.iter().zip(&to_shards) {
                        phys.push_edge(PhysicalEdge {
                            from: *f,
                            to: *t,
                            bytes: (out_bytes / m).max(1),
                            kind: PEdgeKind::Pipeline,
                            port: e.port,
                        });
                    }
                } else if n == 1 {
                    for &f in &from_shards {
                        phys.push_edge(PhysicalEdge {
                            from: f,
                            to: to_shards[0],
                            bytes: (out_bytes / m).max(1),
                            kind: PEdgeKind::Gather,
                            port: e.port,
                        });
                    }
                } else if m == 1 {
                    for &t in &to_shards {
                        phys.push_edge(PhysicalEdge {
                            from: from_shards[0],
                            to: t,
                            bytes: (out_bytes / n).max(1),
                            kind: PEdgeKind::Scatter,
                            port: e.port,
                        });
                    }
                } else {
                    // Rebalance: all-to-all round-robin.
                    let bytes = (out_bytes / (m * n)).max(1);
                    for &f in &from_shards {
                        for &t in &to_shards {
                            phys.push_edge(PhysicalEdge {
                                from: f,
                                to: t,
                                bytes,
                                kind: PEdgeKind::Scatter,
                                port: e.port,
                            });
                        }
                    }
                }
            }
        }
    }

    Ok(phys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline_graph() -> (FlowGraph, VertexId, VertexId, VertexId, VertexId) {
        let mut g = FlowGraph::new();
        let src = g.add_source("events", 1 << 20, 64 << 20);
        let filt = g.add_ir_op(Op::Filter, 1 << 20, 32 << 20);
        let agg = g.add_ir_op(Op::Aggregate, 1 << 20, 1 << 10);
        let sink = g.add_sink("out");
        g.connect(src, filt).unwrap();
        g.connect_keyed(filt, agg, "k").unwrap();
        g.connect(agg, sink).unwrap();
        (g, src, filt, agg, sink)
    }

    #[test]
    fn sharding_respects_parallelism() {
        let (g, src, filt, agg, sink) = pipeline_graph();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based()).with_parallelism(agg, 2);
        let p = lower_graph(&g, &cfg).unwrap();
        assert_eq!(p.shards_of(src).len(), 4);
        assert_eq!(p.shards_of(filt).len(), 4);
        assert_eq!(p.shards_of(agg).len(), 2);
        assert_eq!(p.shards_of(sink).len(), 1);
    }

    #[test]
    fn keyed_edge_becomes_all_to_all_shuffle() {
        let (g, _, filt, agg, _) = pipeline_graph();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based());
        let p = lower_graph(&g, &cfg).unwrap();
        let shuffles: Vec<_> = p
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, PEdgeKind::Shuffle { .. }))
            .collect();
        assert_eq!(
            shuffles.len(),
            p.shards_of(filt).len() * p.shards_of(agg).len()
        );
        assert_eq!(shuffles[0].kind, PEdgeKind::Shuffle { key: "k".into() });
    }

    #[test]
    fn aligned_data_edge_becomes_pipeline() {
        let (g, src, filt, ..) = pipeline_graph();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based());
        let p = lower_graph(&g, &cfg).unwrap();
        let pipes: Vec<_> = p
            .edges()
            .iter()
            .filter(|e| e.kind == PEdgeKind::Pipeline)
            .collect();
        assert_eq!(pipes.len(), 4);
        // Shard i feeds shard i.
        for e in pipes {
            let f = p.vertex(e.from);
            let t = p.vertex(e.to);
            assert_eq!(f.logical, src);
            assert_eq!(t.logical, filt);
            assert_eq!(f.shard, t.shard);
        }
    }

    #[test]
    fn gather_into_sink() {
        let (g, .., agg, sink) = pipeline_graph();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based());
        let p = lower_graph(&g, &cfg).unwrap();
        let gathers: Vec<_> = p
            .edges()
            .iter()
            .filter(|e| e.kind == PEdgeKind::Gather)
            .collect();
        assert_eq!(gathers.len(), p.shards_of(agg).len());
        assert!(gathers.iter().all(|e| e.to == p.shards_of(sink)[0]));
    }

    #[test]
    fn broadcast_sends_full_copies() {
        let mut g = FlowGraph::new();
        let w = g.add_source("weights", 1 << 10, 4 << 20);
        let train = g.add_ir_op(Op::SgdStep, 1 << 20, 4 << 20);
        g.connect_broadcast(w, train).unwrap();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based()).with_parallelism(w, 1);
        let p = lower_graph(&g, &cfg).unwrap();
        let bcasts: Vec<_> = p
            .edges()
            .iter()
            .filter(|e| e.kind == PEdgeKind::Broadcast)
            .collect();
        assert_eq!(bcasts.len(), 4);
        // Each consumer gets the full 4 MiB.
        assert!(bcasts.iter().all(|e| e.bytes == 4 << 20));
    }

    #[test]
    fn backend_selection_uses_policy() {
        let mut g = FlowGraph::new();
        let src = g.add_source("x", 1 << 22, 32 << 20);
        let mm = g.add_ir_op(Op::MatMul, 1 << 22, 32 << 20);
        g.connect(src, mm).unwrap();
        let p = lower_graph(&g, &LowerConfig::new(2, BackendPolicy::cost_based())).unwrap();
        for shard in p.shards_of(mm) {
            assert_eq!(p.vertex(*shard).backend, Backend::Gpu);
        }
        let p = lower_graph(&g, &LowerConfig::new(2, BackendPolicy::cpu_only())).unwrap();
        for shard in p.shards_of(mm) {
            assert_eq!(p.vertex(*shard).backend, Backend::Cpu);
        }
    }

    #[test]
    fn a_fused_vertex_is_labelled_by_its_chain() {
        let mut g = FlowGraph::new();
        let src = g.add_source("events", 1000, 8000);
        let f = g.add_ir_op(Op::Filter, 1000, 4000);
        let m = g.add_ir_op(Op::Map, 1000, 4000);
        g.connect(src, f).unwrap();
        g.connect(f, m).unwrap();
        crate::optimize::optimize_graph(&mut g);
        let p = lower_graph(&g, &LowerConfig::new(1, BackendPolicy::cost_based())).unwrap();
        let text: Vec<(&str, Vec<&str>)> = p
            .vertices()
            .iter()
            .map(|v| (v.op.as_str(), v.body.iter().map(String::as_str).collect()))
            .collect();
        assert_eq!(
            text,
            [
                ("events", vec!["events"]),
                ("kernel.fused", vec!["rel.filter", "tensor.map"])
            ]
        );
    }

    #[test]
    fn physical_graph_is_acyclic_and_costed() {
        let (g, ..) = pipeline_graph();
        let p = lower_graph(&g, &LowerConfig::new(8, BackendPolicy::cost_based())).unwrap();
        p.topo_order().unwrap();
        assert!(p.total_compute_us() > 0.0);
        assert!(p.total_edge_bytes() > 0);
        assert!(p.critical_path_us() > 0.0);
    }

    #[test]
    fn lowering_is_deterministic() {
        let (g, ..) = pipeline_graph();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based());
        let a = lower_graph(&g, &cfg).unwrap();
        let b = lower_graph(&g, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
