//! Hardware backends, the per-op cost table, and backend selection.
//!
//! "A key benefit of using hardware-agnostic IR is that we can lower a
//! single piece of code to multiple hardware backends, based on a set of
//! predefined policies" (§2.2). This module supplies the backend
//! descriptors, which backends run which op (not every op runs everywhere —
//! RMT/FPGA-style backends only take streaming ops), a simple analytical
//! cost model, and the selection policy.

use std::fmt;

use crate::op::Op;

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

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cpu => "cpu",
            Backend::Gpu => "gpu",
            Backend::Fpga => "fpga",
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

    /// Fixed kernel-launch overhead in microseconds: the part of every
    /// [`estimate`] on this backend that does not grow with the elements.
    pub fn launch_us(self) -> f64 {
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

impl Op {
    /// The cost table: the op's work per element relative to a filter
    /// (matmul is super-linear and modelled with an effective factor), and
    /// whether the GPU and the FPGA run it. The CPU runs everything; the
    /// GPU runs relational batch ops (cudf-style) and every tensor op; the
    /// FPGA runs streaming-friendly ops only.
    fn costs(self) -> (f64, bool, bool) {
        match self {
            Op::Scan => (0.2, true, true),
            Op::Filter => (1.0, true, true),
            Op::Project => (0.5, true, true),
            Op::Join => (4.0, true, false),
            Op::Aggregate => (2.0, true, true),
            Op::Sort => (6.0, true, false),
            Op::Limit => (0.1, true, true),
            Op::FromFrame => (0.8, true, true),
            Op::Map => (1.0, true, true),
            Op::MatMul => (64.0, true, false),
            Op::SgdStep => (2.0, true, false),
        }
    }

    fn work_factor(self) -> f64 {
        self.costs().0
    }

    /// True if `backend` can run this op.
    pub fn supports(self, backend: Backend) -> bool {
        let (_, gpu, fpga) = self.costs();
        match backend {
            Backend::Cpu => true,
            Backend::Gpu => gpu,
            Backend::Fpga => fpga,
        }
    }
}

/// What a fused chain pays of its ops' summed work.
const FUSED_DISCOUNT: f64 = 0.8;

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

/// Estimates running `ops` in order, in one task, over `elements` rows or
/// elements on `backend`; `None` when the backend cannot run one of them.
/// A chain of several is a fused kernel: every element streams through the
/// whole chain, so the work adds up, but launches collapse to one and
/// intermediates never materialise (modelled as a 20 % discount on the
/// summed work).
pub fn estimate(ops: &[Op], elements: u64, backend: Backend) -> Option<CostEstimate> {
    if !ops.iter().all(|op| op.supports(backend)) {
        return None;
    }
    let work: f64 = ops.iter().map(|op| op.work_factor()).sum();
    let factor = if ops.len() > 1 {
        work * FUSED_DISCOUNT
    } else {
        work
    };
    Some(CostEstimate {
        compute_us: factor * elements as f64 / backend.throughput(),
        launch_us: backend.launch_us(),
    })
}

/// The predefined backend-selection policy (§2.1 step 1 of lowering:
/// "selects hardware backends for MLIR-based ops using predefined
/// rules"): the backends an op may lower to. The cheapest of them that
/// runs the op wins; on a tie, the earlier in [`Backend::ALL`].
#[derive(Debug, Clone)]
pub struct BackendPolicy {
    allowed: &'static [Backend],
}

impl BackendPolicy {
    /// Every backend.
    pub fn cost_based() -> Self {
        BackendPolicy {
            allowed: &Backend::ALL,
        }
    }

    /// CPU only (the serverful / classic-serverless baseline).
    pub fn cpu_only() -> Self {
        BackendPolicy {
            allowed: &[Backend::Cpu],
        }
    }

    /// Picks a backend for `ops` (one op, or a fused chain) over
    /// `elements` elements, with its cost; `None` when no allowed backend
    /// runs them.
    pub fn select(&self, ops: &[Op], elements: u64) -> Option<(Backend, CostEstimate)> {
        self.allowed
            .iter()
            .filter_map(|&b| estimate(ops, elements, b).map(|c| (b, c)))
            .min_by(|(_, a), (_, b)| a.total_us().total_cmp(&b.total_us()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole table, as the parent's string-keyed `supports` and
    /// `work_factor` had it: a `rel.limit` missing from a backend's list
    /// is a wrong literal here, not a worse makespan somewhere else.
    #[test]
    fn the_cost_table_spelled_out() {
        // (op, work factor, GPU runs it, FPGA runs it)
        let table = [
            (Op::Scan, 0.2, true, true),
            (Op::Filter, 1.0, true, true),
            (Op::Project, 0.5, true, true),
            (Op::Join, 4.0, true, false),
            (Op::Aggregate, 2.0, true, true),
            (Op::Sort, 6.0, true, false),
            (Op::Limit, 0.1, true, true),
            (Op::FromFrame, 0.8, true, true),
            (Op::Map, 1.0, true, true),
            (Op::MatMul, 64.0, true, false),
            (Op::SgdStep, 2.0, true, false),
        ];
        assert_eq!(table.map(|row| row.0), Op::ALL);
        for (op, work, gpu, fpga) in table {
            assert_eq!(op.work_factor(), work, "{op:?}");
            assert!(op.supports(Backend::Cpu), "{op:?}");
            assert_eq!(op.supports(Backend::Gpu), gpu, "{op:?}");
            assert_eq!(op.supports(Backend::Fpga), fpga, "{op:?}");
        }
        // Throughput (elements/us) and launch (us) per backend.
        for (b, per_us, launch) in [
            (Backend::Cpu, 100.0, 1.0),
            (Backend::Gpu, 4_000.0, 12.0),
            (Backend::Fpga, 1_000.0, 4.0),
        ] {
            let c = estimate(&[Op::Filter], 8_000, b).unwrap();
            assert_eq!((c.compute_us, c.launch_us), (8_000.0 / per_us, launch));
        }
        // A fused chain pays 0.8 of its summed work, and launches once.
        let fused = estimate(&[Op::Scan, Op::Project, Op::Limit], 1_000, Backend::Cpu).unwrap();
        assert_eq!(fused.compute_us, (0.2 + 0.5 + 0.1) * 0.8 * 1_000.0 / 100.0);
        assert_eq!(fused.launch_us, 1.0);
    }

    #[test]
    fn a_fused_chain_runs_only_where_every_op_does() {
        let chain = [Op::Filter, Op::MatMul];
        assert!(estimate(&chain, 1000, Backend::Fpga).is_none());
        assert!(estimate(&chain, 1000, Backend::Gpu).is_some());
    }

    #[test]
    fn gpu_wins_large_matmul_cpu_wins_tiny() {
        let policy = BackendPolicy::cost_based();
        let (big, _) = policy.select(&[Op::MatMul], 10_000_000).unwrap();
        assert_eq!(big, Backend::Gpu);
        let (tiny, _) = policy.select(&[Op::MatMul], 4).unwrap();
        assert_eq!(tiny, Backend::Cpu, "launch overhead should dominate");
    }

    #[test]
    fn cpu_only_always_picks_the_cpu() {
        for op in Op::ALL {
            let (b, _) = BackendPolicy::cpu_only().select(&[op], 1 << 22).unwrap();
            assert_eq!(b, Backend::Cpu, "{op:?}");
        }
    }

    #[test]
    fn estimate_scales_with_elements() {
        let small = estimate(&[Op::Filter], 1_000, Backend::Cpu).unwrap();
        let large = estimate(&[Op::Filter], 1_000_000, Backend::Cpu).unwrap();
        assert!(large.compute_us > small.compute_us * 500.0);
        assert_eq!(small.launch_us, large.launch_us);
    }
}
