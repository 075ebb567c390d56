//! Hardware backends and per-op cost models.
//!
//! "A key benefit of using hardware-agnostic IR is that we can lower a
//! single piece of code to multiple hardware backends, based on a set of
//! predefined policies" (§2.2). This module supplies the backend
//! descriptors, a supports-matrix (not every op runs everywhere — RMT/
//! FPGA-style backends only take streaming ops), a simple analytical cost
//! model, and the selection policy.

use std::fmt;

use crate::op::{Attr, Op};

/// A hardware backend an op can be lowered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// General-purpose CPU: runs everything, slowest per element.
    Cpu,
    /// GPU: high-throughput batch compute, large launch overhead.
    Gpu,
    /// FPGA: streaming pipeline, modest throughput, small launch
    /// overhead, limited op repertoire.
    Fpga,
}

impl Backend {
    /// All backends.
    pub const ALL: [Backend; 3] = [Backend::Cpu, Backend::Gpu, Backend::Fpga];

    /// Stable lowercase name (matches the `backend` kernel attribute).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cpu => "cpu",
            Backend::Gpu => "gpu",
            Backend::Fpga => "fpga",
        }
    }

    /// Parses a backend name.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "cpu" => Some(Backend::Cpu),
            "gpu" => Some(Backend::Gpu),
            "fpga" => Some(Backend::Fpga),
            _ => None,
        }
    }

    /// Per-element throughput in elements/microsecond for bulk per-row or
    /// per-element work.
    fn throughput(self) -> f64 {
        match self {
            Backend::Cpu => 100.0,
            Backend::Gpu => 4_000.0,
            Backend::Fpga => 1_000.0,
        }
    }

    /// Fixed kernel-launch overhead in microseconds.
    fn launch_us(self) -> f64 {
        match self {
            Backend::Cpu => 1.0,
            Backend::Gpu => 12.0,
            Backend::Fpga => 4.0,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An estimated kernel cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Data-dependent compute time, microseconds.
    pub compute_us: f64,
    /// Fixed launch overhead, microseconds.
    pub launch_us: f64,
}

impl CostEstimate {
    /// Total time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.compute_us + self.launch_us
    }
}

/// Relative work factor of one op per element (matmul is super-linear and
/// modeled with an effective factor).
fn work_factor(name: &str) -> Option<f64> {
    Some(match name {
        "rel.scan" | "tensor.source" => 0.2,
        "rel.filter" => 1.0,
        "rel.project" => 0.5,
        "rel.join" => 4.0,
        "rel.aggregate" => 2.0,
        "rel.sort" => 6.0,
        "rel.limit" => 0.1,
        "tensor.map" => 1.0,
        "tensor.add" => 1.0,
        "tensor.reduce" => 1.5,
        "tensor.matmul" => 64.0,
        "tensor.from_frame" => 0.8,
        "tensor.sgd_step" => 2.0,
        "scalar.const" | "scalar.add" | "scalar.mul" => 0.0,
        _ => return None,
    })
}

/// Which backends can execute a given op name. CPU runs everything; GPU
/// runs relational batch ops (cudf-style) and all tensor ops; FPGA runs
/// streaming-friendly ops only.
pub fn supports(name: &str, backend: Backend) -> bool {
    match backend {
        Backend::Cpu => true,
        Backend::Gpu => matches!(
            name,
            "rel.scan"
                | "rel.filter"
                | "rel.project"
                | "rel.join"
                | "rel.aggregate"
                | "rel.sort"
                | "rel.limit"
                | "tensor.source"
                | "tensor.map"
                | "tensor.add"
                | "tensor.reduce"
                | "tensor.matmul"
                | "tensor.from_frame"
                | "tensor.sgd_step"
        ),
        Backend::Fpga => matches!(
            name,
            "rel.scan"
                | "rel.filter"
                | "rel.project"
                | "rel.aggregate"
                | "rel.limit"
                | "tensor.map"
                | "tensor.add"
                | "tensor.from_frame"
        ),
    }
}

/// True if the backend supports a fused body (it must support every
/// constituent op).
pub fn supports_fused(body: &[String], backend: Backend) -> bool {
    body.iter().all(|n| supports(n, backend))
}

/// Estimates the cost of executing `op` over `elements` rows/elements on
/// `backend`. Returns `None` when the backend cannot run the op.
pub fn estimate(op: &Op, elements: u64, backend: Backend) -> Option<CostEstimate> {
    let body = if op.name == "kernel.fused" {
        Some(op.attr("body").and_then(Attr::as_str_list)?)
    } else {
        None
    };
    estimate_named(&op.name, body, elements, backend)
}

/// Name-based variant of [`estimate`], for callers (like the flowgraph
/// layer) that track op names rather than IR ops. `body` carries the
/// constituent list for `kernel.fused`.
pub fn estimate_named(
    name: &str,
    body: Option<&[String]>,
    elements: u64,
    backend: Backend,
) -> Option<CostEstimate> {
    let factor = if name == "kernel.fused" {
        let body = body?;
        if !supports_fused(body, backend) {
            return None;
        }
        // A fused kernel streams each element through the whole body: the
        // work adds up, but launches collapse to one and intermediates
        // never materialize (modeled as a 20% discount on summed work).
        let sum: f64 = body.iter().filter_map(|n| work_factor(n)).sum();
        sum * 0.8
    } else {
        if !supports(name, backend) {
            return None;
        }
        work_factor(name)?
    };
    Some(CostEstimate {
        compute_us: factor * elements as f64 / backend.throughput(),
        launch_us: backend.launch_us(),
    })
}

/// How a policy picks among candidate backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    /// Pick the preferred backend when it supports the op, else cheapest.
    Prefer(Backend),
    /// Always pick the cheapest by estimated total time.
    CostBased,
}

/// The predefined backend-selection policy (§2.1 step 1 of lowering:
/// "selects hardware backends for MLIR-based ops using predefined
/// rules").
#[derive(Debug, Clone)]
pub struct BackendPolicy {
    allowed: Vec<Backend>,
    selection: Selection,
    /// Element count assumed when the caller has no cardinality estimate.
    pub default_elements: u64,
}

impl BackendPolicy {
    /// Allows every backend, preferring `b` when possible.
    pub fn prefer(b: Backend) -> Self {
        BackendPolicy {
            allowed: Backend::ALL.to_vec(),
            selection: Selection::Prefer(b),
            default_elements: 1 << 20,
        }
    }

    /// Allows every backend, picking the cheapest per op.
    pub fn cost_based() -> Self {
        BackendPolicy {
            allowed: Backend::ALL.to_vec(),
            selection: Selection::CostBased,
            default_elements: 1 << 20,
        }
    }

    /// CPU only (the serverful / classic-serverless baseline).
    pub fn cpu_only() -> Self {
        BackendPolicy {
            allowed: vec![Backend::Cpu],
            selection: Selection::Prefer(Backend::Cpu),
            default_elements: 1 << 20,
        }
    }

    /// Restricts the allowed set.
    pub fn restrict(mut self, allowed: &[Backend]) -> Self {
        self.allowed = allowed.to_vec();
        self
    }

    /// The allowed backends.
    pub fn allowed(&self) -> &[Backend] {
        &self.allowed
    }

    /// Picks a backend for `op` over `elements` elements, with its cost.
    pub fn select(&self, op: &Op, elements: u64) -> Option<(Backend, CostEstimate)> {
        let body = if op.name == "kernel.fused" {
            op.attr("body").and_then(Attr::as_str_list)
        } else {
            None
        };
        self.select_named(&op.name, body, elements)
    }

    /// Name-based variant of [`BackendPolicy::select`].
    pub fn select_named(
        &self,
        name: &str,
        body: Option<&[String]>,
        elements: u64,
    ) -> Option<(Backend, CostEstimate)> {
        let candidates: Vec<(Backend, CostEstimate)> = self
            .allowed
            .iter()
            .filter_map(|b| estimate_named(name, body, elements, *b).map(|c| (*b, c)))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match self.selection {
            Selection::Prefer(p) => candidates
                .iter()
                .find(|(b, _)| *b == p)
                .copied()
                .or_else(|| cheapest(&candidates)),
            Selection::CostBased => cheapest(&candidates),
        }
    }
}

fn cheapest(c: &[(Backend, CostEstimate)]) -> Option<(Backend, CostEstimate)> {
    c.iter()
        .min_by(|(_, a), (_, b)| {
            a.total_us()
                .partial_cmp(&b.total_us())
                .expect("finite costs")
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{rel, tensor};
    use crate::module::Module;
    use crate::types::{frame_ty, IrType, ScalarType};

    fn filter_op() -> Op {
        let mut m = Module::new();
        let s = rel::scan(&mut m, "t", frame_ty(&[("a", ScalarType::I64)]));
        let f = rel::filter(&mut m, s, "a > 0");
        m.def_of(f).unwrap().clone()
    }

    fn matmul_op() -> Op {
        let mut m = Module::new();
        let a = tensor::source(&mut m, "a", IrType::matrix(ScalarType::F64));
        let b = tensor::source(&mut m, "b", IrType::matrix(ScalarType::F64));
        let c = tensor::matmul(&mut m, a, b).unwrap();
        m.def_of(c).unwrap().clone()
    }

    #[test]
    fn cpu_supports_everything() {
        for name in ["rel.join", "tensor.matmul", "rel.sort", "scalar.add"] {
            assert!(supports(name, Backend::Cpu), "{name}");
        }
    }

    #[test]
    fn fpga_rejects_matmul_and_join() {
        assert!(!supports("tensor.matmul", Backend::Fpga));
        assert!(!supports("rel.join", Backend::Fpga));
        assert!(supports("rel.filter", Backend::Fpga));
    }

    #[test]
    fn gpu_wins_large_matmul_cpu_wins_tiny() {
        let op = matmul_op();
        let policy = BackendPolicy::cost_based();
        let (big, _) = policy.select(&op, 10_000_000).unwrap();
        assert_eq!(big, Backend::Gpu);
        let (tiny, _) = policy.select(&op, 4).unwrap();
        assert_eq!(tiny, Backend::Cpu, "launch overhead should dominate");
    }

    #[test]
    fn prefer_falls_back_when_unsupported() {
        let op = matmul_op();
        let policy = BackendPolicy::prefer(Backend::Fpga);
        let (b, _) = policy.select(&op, 1_000_000).unwrap();
        assert_ne!(b, Backend::Fpga);
    }

    #[test]
    fn restrict_narrows_choices() {
        let op = filter_op();
        let policy = BackendPolicy::cost_based().restrict(&[Backend::Fpga]);
        let (b, _) = policy.select(&op, 1_000_000).unwrap();
        assert_eq!(b, Backend::Fpga);
    }

    #[test]
    fn estimate_scales_with_elements() {
        let op = filter_op();
        let small = estimate(&op, 1_000, Backend::Cpu).unwrap();
        let large = estimate(&op, 1_000_000, Backend::Cpu).unwrap();
        assert!(large.compute_us > small.compute_us * 500.0);
        assert_eq!(small.launch_us, large.launch_us);
    }

    #[test]
    fn fused_body_gates_backend() {
        use std::collections::BTreeMap;
        let op = Op {
            id: crate::op::OpId(0),
            name: "kernel.fused".into(),
            dialect: crate::op::Dialect::Kernel,
            operands: vec![],
            results: vec![crate::op::ValueId(0)],
            attrs: BTreeMap::from([(
                "body".to_string(),
                Attr::StrList(vec!["rel.filter".into(), "tensor.matmul".into()]),
            )]),
        };
        // FPGA cannot take the matmul inside the fusion.
        assert!(estimate(&op, 1000, Backend::Fpga).is_none());
        assert!(estimate(&op, 1000, Backend::Gpu).is_some());
    }

    #[test]
    fn backend_name_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("tpu"), None);
    }
}
