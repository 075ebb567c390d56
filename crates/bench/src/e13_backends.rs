//! E13 / §2.2 + Figure 2 vertices D1/D2: one hardware-agnostic IR op
//! priced on *every* backend that runs it, for a direct comparison, with
//! the selection policy picking the winner.

use skadi::ir::backend::estimate;
use skadi::ir::{BackendPolicy, Op};
use skadi::prelude::*;

use crate::table::Table;

/// One op of each interesting kind: streaming relational, a keyed
/// relational op, a super-linear tensor op and an element-wise one.
const REP_OPS: [Op; 4] = [Op::Filter, Op::Aggregate, Op::MatMul, Op::Map];

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e13_backends",
        "One IR op lowered to every backend (the D1/D2 comparison)",
        "Hardware-agnostic IR lets Skadi lower a single piece of code to \
         multiple hardware backends and compare directly — vertex D becomes \
         GPU D1 and FPGA D2 in the paper's Figure 2 (§2.2).",
        &["op", "elements", "cpu_us", "gpu_us", "fpga_us", "winner"],
    );
    let policy = BackendPolicy::cost_based();
    for op in REP_OPS {
        for elements in [1u64 << 10, 1 << 16, 1 << 22] {
            let mut row = vec![op.name().to_string(), elements.to_string()];
            for b in Backend::ALL {
                row.push(
                    estimate(&[op], elements, b)
                        .map_or("n/a".to_string(), |c| format!("{:.1}", c.total_us())),
                );
            }
            let winner = policy.select(&[op], elements).map(|(b, _)| b);
            row.push(winner.map(|b| b.to_string()).unwrap_or_default());
            t.row(row);
        }
    }
    t.takeaway(
        "small streaming inputs win on FPGA (lowest launch overhead); large \
         batch ops go GPU; matmul never lowers to FPGA — one source, many \
         backends, policy picks"
            .to_string(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_has_no_fpga_variant() {
        let t = run();
        let rows: Vec<usize> = (0..t.rows.len())
            .filter(|&r| t.cell(r, "op") == Some(Op::MatMul.name()))
            .collect();
        assert_eq!(rows.len(), 3);
        for r in rows {
            assert_eq!(t.cell(r, "fpga_us"), Some("n/a"));
            assert_ne!(t.cell(r, "gpu_us"), Some("n/a"));
        }
    }

    #[test]
    fn winner_shifts_with_scale() {
        let policy = BackendPolicy::cost_based();
        let (small, _) = policy.select(&[Op::MatMul], 8).unwrap();
        let (large, _) = policy.select(&[Op::MatMul], 1 << 24).unwrap();
        assert_eq!(small, Backend::Cpu);
        assert_eq!(large, Backend::Gpu);
    }
}
