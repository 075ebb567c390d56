//! E9 / §1 data-plane benefit 2: "a shared format such as Arrow enables
//! functions running on heterogeneous devices to exchange data without
//! costly data marshalling, hence reducing the cost paid per transfer."
//!
//! This is the one experiment that measures *real* wall-clock work: our
//! columnar IPC (zero-copy decode) against the conventional row-at-a-time
//! marshalling baseline, over identical record batches.

use std::time::Instant;

use skadi::arrow::ipc;
use skadi::arrow::prelude::*;

use crate::marshal;
use crate::table::Table;

/// Builds a realistic mixed-type batch with `rows` rows.
pub fn sample_batch(rows: usize) -> RecordBatch {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("score", DataType::Float64, false),
        Field::new("flag", DataType::Bool, false),
        Field::new("name", DataType::Utf8, false),
    ]);
    let names: Vec<String> = (0..rows).map(|i| format!("user-{i:08}")).collect();
    RecordBatch::try_new(
        schema,
        vec![
            Array::from_i64((0..rows as i64).collect()),
            Array::from_f64((0..rows).map(|i| i as f64 * 0.5).collect()),
            Array::from_bool(&(0..rows).map(|i| i % 3 == 0).collect::<Vec<_>>()),
            Array::from_utf8(&names),
        ],
    )
    .expect("valid batch")
}

/// One measurement: (ipc_encode+decode_us, marshal_encode+decode_us,
/// ipc_bytes, marshal_bytes).
pub fn measure(rows: usize, reps: u32) -> (f64, f64, usize, usize) {
    let batch = sample_batch(rows);

    let start = Instant::now();
    let mut ipc_bytes = 0;
    for _ in 0..reps {
        let enc = ipc::encode(&batch);
        ipc_bytes = enc.len();
        let back = ipc::decode(enc).expect("decodes");
        assert_eq!(back.num_rows(), rows);
    }
    let ipc_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let start = Instant::now();
    let mut row_bytes = 0;
    for _ in 0..reps {
        let enc = marshal::to_rows(&batch);
        row_bytes = enc.len();
        let back = marshal::from_rows(&enc).expect("decodes");
        assert_eq!(back.num_rows(), rows);
    }
    let row_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    (ipc_us, row_us, ipc_bytes, row_bytes)
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e9_format",
        "Shared columnar format (Arrow-like IPC) vs row marshalling",
        "A shared format lets heterogeneous devices exchange data without \
         costly marshalling, reducing the cost paid per transfer (paper §1); \
         IPC decode aliases the wire buffer while marshalling re-parses every \
         value.",
        &[
            "rows",
            "ipc_us",
            "marshal_us",
            "cpu_ratio",
            "ipc_KB",
            "marshal_KB",
        ],
    );
    let mut worst: f64 = 0.0;
    for rows in [100usize, 1_000, 10_000, 100_000] {
        let reps = if rows >= 100_000 { 3 } else { 10 };
        let (ipc_us, row_us, ib, rb) = measure(rows, reps);
        worst = worst.max(row_us / ipc_us);
        t.row(vec![
            rows.to_string(),
            format!("{ipc_us:.0}"),
            format!("{row_us:.0}"),
            format!("{:.1}x", row_us / ipc_us),
            (ib / 1024).to_string(),
            (rb / 1024).to_string(),
        ]);
    }
    t.takeaway(format!(
        "marshalling burns up to {worst:.0}x the CPU of the shared format per exchange"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_cheaper_than_marshalling() {
        let (ipc_us, row_us, _, _) = measure(10_000, 3);
        assert!(
            row_us > ipc_us * 2.0,
            "expected marshalling to cost >2x, got ipc {ipc_us:.0}us row {row_us:.0}us"
        );
    }

    #[test]
    fn round_trips_agree() {
        let batch = sample_batch(500);
        let via_ipc = ipc::decode(ipc::encode(&batch)).unwrap();
        let via_rows = marshal::from_rows(&marshal::to_rows(&batch)).unwrap();
        assert_eq!(via_ipc, batch);
        assert_eq!(via_rows, batch);
    }
}
