//! Per-operator query profiles.
//!
//! Every physical vertex carries a stable `op_id` (the post-optimization
//! logical vertex id, shared by all shards of one operator). Executors —
//! the local engine and the distributed shard runners — record one
//! [`ShardStats`] per operator per shard; those group into [`OpProfile`]s
//! and finally a [`QueryProfile`] attached to the query result.
//!
//! [`ShardStats`] is the one record of what an operator shard measured:
//! the join and group-by kernels count into it directly. It holds wall
//! time and never simulated time, which is the simulator's trace's
//! (`skadi_dcsim::span::Trace`); no trace span holds wall time.
//!
//! Determinism contract: everything except `wall_nanos` is a pure
//! function of the plan and the data, so [`QueryProfile::to_json`] and
//! the deterministic render mode (`render(false)`) omit wall time and are
//! byte-identical across same-seed runs. `render(true)` adds measured
//! wall times and a time-skew check for interactive use.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Measurements from one shard of one operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index in `[0, shards)`.
    pub shard: u32,
    /// Rows entering the operator (sum over input ports).
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Measured output bytes (IPC-encoded payload size; 0 where the
    /// output never crosses a task boundary).
    pub output_bytes: u64,
    /// Measured wall time in nanoseconds. Non-deterministic; excluded
    /// from the JSON artifact and from deterministic rendering.
    pub wall_nanos: u64,
    /// For filters: `rows_out / rows_in` (None when rows_in is 0 or the
    /// operator is not a filter).
    pub selectivity: Option<f64>,
    /// For hash join / group-by: hash-table capacity in slots (a
    /// group-by's code tables; 0 when every key column was coded through
    /// a direct table).
    pub hash_slots: u64,
    /// For hash join / group-by: probe steps that visited an occupied
    /// slot without matching (chain walks / linear-probe steps).
    pub hash_collisions: u64,
    /// For group-by: number of distinct groups produced.
    pub groups: u64,
    /// For group-by: times a code table doubled (each starts at 16
    /// slots). A join's tables are sized from exact row counts and never
    /// grow.
    pub rehashes: u64,
    /// Joins that built their hash table on the nominal probe side
    /// because the build input held more than twice its rows (every
    /// engine does). Read through `DataPlaneStats::build_swaps`; neither
    /// the JSON artifact nor the rendered tree shows it.
    pub build_swaps: u64,
}

/// Min / median / max over a set of per-shard values. The median of an
/// even-length set is the mean of the two middle values.
fn stats3(mut v: Vec<u64>) -> (u64, f64, u64) {
    if v.is_empty() {
        return (0, 0.0, 0);
    }
    v.sort_unstable();
    let n = v.len();
    let med = if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0
    };
    (v[0], med, v[n - 1])
}

/// Profile of one operator across all of its shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// Stable operator id (shared by all shards; see
    /// [`crate::physical::PhysicalVertex::op_id`]).
    pub op_id: u32,
    /// Op name (e.g. `rel.join`, `kernel.fused`).
    pub op: String,
    /// Constituent ops (fused bodies; singleton otherwise).
    pub body: Vec<String>,
    /// The base table the operator scans, if it scans one. Rendered in
    /// front of a fused body, whose op name cannot carry it.
    pub table: Option<String>,
    /// Producers feeding this operator: `(producer op_id, input port)`.
    pub inputs: Vec<(u32, u8)>,
    /// Per-shard measurements, in shard order.
    pub shards: Vec<ShardStats>,
}

impl OpProfile {
    /// (min, median, max) of rows entering the operator per shard.
    pub fn rows_in_stats(&self) -> (u64, f64, u64) {
        stats3(self.shards.iter().map(|s| s.rows_in).collect())
    }

    /// (min, median, max) of rows leaving the operator per shard.
    pub fn rows_out_stats(&self) -> (u64, f64, u64) {
        stats3(self.shards.iter().map(|s| s.rows_out).collect())
    }

    /// (min, median, max) of wall nanoseconds per shard.
    pub fn wall_stats(&self) -> (u64, f64, u64) {
        stats3(self.shards.iter().map(|s| s.wall_nanos).collect())
    }

    /// Total measured output bytes across shards.
    pub fn total_output_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.output_bytes).sum()
    }

    /// Total rows out across shards.
    pub fn total_rows_out(&self) -> u64 {
        self.shards.iter().map(|s| s.rows_out).sum()
    }

    /// Total rows in across shards.
    pub fn total_rows_in(&self) -> u64 {
        self.shards.iter().map(|s| s.rows_in).sum()
    }

    /// True if the largest shard's row count (in or out) exceeds
    /// `multiple` times the median shard's. Deterministic — based on row
    /// counts, not time. Single-shard operators are never skewed.
    pub fn skewed(&self, multiple: f64) -> bool {
        if self.shards.len() < 2 {
            return false;
        }
        let (_, med_in, max_in) = self.rows_in_stats();
        let (_, med_out, max_out) = self.rows_out_stats();
        max_in as f64 > multiple * med_in.max(1.0) || max_out as f64 > multiple * med_out.max(1.0)
    }

    /// True if the slowest shard's wall time exceeds `multiple` times the
    /// median shard's. Non-deterministic; only used in timed rendering.
    pub fn time_skewed(&self, multiple: f64) -> bool {
        if self.shards.len() < 2 {
            return false;
        }
        let (_, med, max) = self.wall_stats();
        max as f64 > multiple * med.max(1.0)
    }
}

/// The skew threshold of every engine's profile: a shard is flagged when
/// its rows (or, in timed mode, wall time) exceed twice the median
/// shard's.
pub const SKEW_MULTIPLE: f64 = 2.0;

/// A full per-operator profile for one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// The query text (SQL or a pipeline name).
    pub query: String,
    /// Degree of parallelism the plan was lowered with.
    pub parallelism: u32,
    /// Skew threshold: a shard is flagged when its rows (or, in timed
    /// mode, wall time) exceed this multiple of the median shard's.
    pub skew_multiple: f64,
    /// Operator profiles, sorted by `op_id`.
    pub ops: Vec<OpProfile>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl QueryProfile {
    /// Builds a profile for a single-shard linear pipeline (the local
    /// engine): each entry is `(op name, stats)` in execution order and
    /// feeds the next.
    pub fn from_chain(query: &str, skew_multiple: f64, chain: Vec<(String, ShardStats)>) -> Self {
        let ops = chain
            .into_iter()
            .enumerate()
            .map(|(i, (op, stats))| OpProfile {
                op_id: i as u32,
                op: op.clone(),
                body: vec![op],
                table: None,
                inputs: if i == 0 {
                    Vec::new()
                } else {
                    vec![(i as u32 - 1, 0)]
                },
                shards: vec![stats],
            })
            .collect();
        QueryProfile {
            query: query.to_string(),
            parallelism: 1,
            skew_multiple,
            ops,
        }
    }

    /// The operator with the given id, if present.
    pub fn op(&self, op_id: u32) -> Option<&OpProfile> {
        self.ops.iter().find(|o| o.op_id == op_id)
    }

    /// Operators flagged as row-skewed under this profile's threshold.
    pub fn skewed_ops(&self) -> Vec<&OpProfile> {
        self.ops
            .iter()
            .filter(|o| o.skewed(self.skew_multiple))
            .collect()
    }

    /// Serializes the deterministic portion of the profile as JSON.
    /// Wall times are deliberately omitted: for a given seed and plan the
    /// output is byte-identical across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"query\": \"{}\",", json_escape(&self.query));
        let _ = writeln!(out, "  \"parallelism\": {},", self.parallelism);
        let _ = writeln!(out, "  \"skew_multiple\": {:.6},", self.skew_multiple);
        out.push_str("  \"ops\": [\n");
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"op_id\": {},", op.op_id);
            let _ = writeln!(out, "      \"op\": \"{}\",", json_escape(&op.op));
            let body: Vec<String> = op
                .body
                .iter()
                .map(|b| format!("\"{}\"", json_escape(b)))
                .collect();
            let _ = writeln!(out, "      \"body\": [{}],", body.join(", "));
            let inputs: Vec<String> = op
                .inputs
                .iter()
                .map(|(id, port)| format!("{{\"op_id\": {id}, \"port\": {port}}}"))
                .collect();
            let _ = writeln!(out, "      \"inputs\": [{}],", inputs.join(", "));
            let _ = writeln!(out, "      \"skewed\": {},", op.skewed(self.skew_multiple));
            out.push_str("      \"shards\": [\n");
            for (j, s) in op.shards.iter().enumerate() {
                let mut fields = vec![
                    format!("\"shard\": {}", s.shard),
                    format!("\"rows_in\": {}", s.rows_in),
                    format!("\"rows_out\": {}", s.rows_out),
                    format!("\"output_bytes\": {}", s.output_bytes),
                ];
                if let Some(sel) = s.selectivity {
                    fields.push(format!("\"selectivity\": {sel:.6}"));
                }
                if s.hash_slots > 0 {
                    fields.push(format!("\"hash_slots\": {}", s.hash_slots));
                    fields.push(format!("\"hash_collisions\": {}", s.hash_collisions));
                }
                if s.groups > 0 {
                    fields.push(format!("\"groups\": {}", s.groups));
                }
                if s.rehashes > 0 {
                    fields.push(format!("\"rehashes\": {}", s.rehashes));
                }
                let comma = if j + 1 < op.shards.len() { "," } else { "" };
                let _ = writeln!(out, "        {{{}}}{}", fields.join(", "), comma);
            }
            out.push_str("      ]\n");
            let comma = if i + 1 < self.ops.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{}", comma);
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the annotated plan tree. The root (sink-most) operator is
    /// printed first; producers are indented beneath their consumer in
    /// `(port, op_id)` order. With `show_time` the per-shard wall-time
    /// spread is included and time skew also raises the `[SKEW]` flag;
    /// without it the output is deterministic for a given seed.
    pub fn render(&self, show_time: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN ANALYZE {} (parallelism={}, skew>{}x median)",
            self.query, self.parallelism, self.skew_multiple
        );
        // Roots: ops no other op consumes.
        let consumed: BTreeSet<u32> = self
            .ops
            .iter()
            .flat_map(|o| o.inputs.iter().map(|(id, _)| *id))
            .collect();
        let mut visited = BTreeSet::new();
        for op in &self.ops {
            if !consumed.contains(&op.op_id) {
                self.render_op(&mut out, op.op_id, 0, show_time, &mut visited);
            }
        }
        out
    }

    fn render_op(
        &self,
        out: &mut String,
        op_id: u32,
        depth: usize,
        show_time: bool,
        visited: &mut BTreeSet<u32>,
    ) {
        let indent = "  ".repeat(depth);
        let Some(op) = self.op(op_id) else {
            let _ = writeln!(out, "{indent}#{op_id} <missing>");
            return;
        };
        if !visited.insert(op_id) {
            let _ = writeln!(out, "{indent}#{op_id} {} (see above)", op.op);
            return;
        }
        let mut line = format!("{indent}#{op_id} {}", op.op);
        if op.body.len() > 1 {
            let table = op
                .table
                .as_ref()
                .map_or(String::new(), |t| format!("{t}: "));
            let _ = write!(line, " [{table}{}]", op.body.join("+"));
        }
        let _ = write!(line, " shards={}", op.shards.len());
        let (i_min, i_med, i_max) = op.rows_in_stats();
        let (o_min, o_med, o_max) = op.rows_out_stats();
        let _ = write!(
            line,
            " rows_in[min={i_min} med={i_med:.1} max={i_max}] rows_out[min={o_min} med={o_med:.1} max={o_max}]"
        );
        let _ = write!(line, " bytes={}", op.total_output_bytes());
        let sels: Vec<f64> = op.shards.iter().filter_map(|s| s.selectivity).collect();
        if !sels.is_empty() {
            let avg = sels.iter().sum::<f64>() / sels.len() as f64;
            let _ = write!(line, " sel={avg:.4}");
        }
        let slots: u64 = op.shards.iter().map(|s| s.hash_slots).sum();
        if slots > 0 {
            let coll: u64 = op.shards.iter().map(|s| s.hash_collisions).sum();
            let _ = write!(line, " ht[slots={slots} collisions={coll}]");
        }
        let groups: u64 = op.shards.iter().map(|s| s.groups).sum();
        if groups > 0 {
            let _ = write!(line, " groups={groups}");
        }
        let mut skew = op.skewed(self.skew_multiple);
        if show_time {
            let (t_min, t_med, t_max) = op.wall_stats();
            let _ = write!(
                line,
                " time[min={:.3}ms med={:.3}ms max={:.3}ms]",
                t_min as f64 / 1e6,
                t_med / 1e6,
                t_max as f64 / 1e6
            );
            skew = skew || op.time_skewed(self.skew_multiple);
        }
        if skew {
            line.push_str(" [SKEW]");
        }
        out.push_str(&line);
        out.push('\n');
        let mut children = op.inputs.clone();
        children.sort_by_key(|&(id, port)| (port, id));
        for (child, _) in children {
            self.render_op(out, child, depth + 1, show_time, visited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(shard: u32, rows_in: u64, rows_out: u64, bytes: u64) -> ShardStats {
        ShardStats {
            shard,
            rows_in,
            rows_out,
            output_bytes: bytes,
            wall_nanos: 1_000_000,
            ..ShardStats::default()
        }
    }

    fn two_op_profile() -> QueryProfile {
        QueryProfile {
            query: "SELECT 1".into(),
            parallelism: 4,
            skew_multiple: 2.0,
            ops: vec![
                OpProfile {
                    op_id: 0,
                    op: "rel.scan".into(),
                    body: vec!["rel.scan".into()],
                    table: None,
                    inputs: vec![],
                    shards: vec![shard(0, 0, 100, 800), shard(1, 0, 100, 800)],
                },
                OpProfile {
                    op_id: 1,
                    op: "rel.filter".into(),
                    body: vec!["rel.filter".into()],
                    table: None,
                    inputs: vec![(0, 0)],
                    shards: vec![shard(0, 100, 10, 80), shard(1, 100, 90, 720)],
                },
            ],
        }
    }

    #[test]
    fn stats3_median_handles_even_and_odd() {
        assert_eq!(stats3(vec![3, 1, 2]), (1, 2.0, 3));
        assert_eq!(stats3(vec![4, 1, 2, 3]), (1, 2.5, 4));
        assert_eq!(stats3(vec![]), (0, 0.0, 0));
        assert_eq!(stats3(vec![7]), (7, 7.0, 7));
    }

    #[test]
    fn skew_flags_uneven_shards() {
        let p = two_op_profile();
        // Scan is perfectly balanced.
        assert!(!p.ops[0].skewed(2.0));
        // Filter rows_out: median (10+90)/2 = 50, max 90 — not > 2x.
        assert!(!p.ops[1].skewed(2.0));
        // But at a tighter threshold it is.
        assert!(p.ops[1].skewed(1.5));
        // Single shard never skews.
        let mut solo = p.ops[1].clone();
        solo.shards.truncate(1);
        assert!(!solo.skewed(0.1));
    }

    #[test]
    fn json_is_deterministic_and_omits_wall_time() {
        let p = two_op_profile();
        let a = p.to_json();
        let mut q = p.clone();
        // Wall time differs between "runs" but JSON must not.
        for op in &mut q.ops {
            for s in &mut op.shards {
                s.wall_nanos = s.wall_nanos.wrapping_mul(7) + 13;
            }
        }
        assert_eq!(a, q.to_json());
        assert!(!a.contains("wall"));
        assert!(a.contains("\"op\": \"rel.filter\""));
    }

    #[test]
    fn render_deterministic_mode_excludes_time() {
        let p = two_op_profile();
        let det = p.render(false);
        assert!(!det.contains("time["));
        assert!(det.contains("#1 rel.filter"));
        // Child (scan) is indented beneath the filter.
        assert!(det.contains("\n  #0 rel.scan"));
        let timed = p.render(true);
        assert!(timed.contains("time["));
    }

    #[test]
    fn from_chain_links_linear_pipeline() {
        let p = QueryProfile::from_chain(
            "SELECT x",
            2.0,
            vec![
                ("rel.scan".into(), shard(0, 0, 10, 0)),
                ("rel.filter".into(), shard(0, 10, 4, 0)),
            ],
        );
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.ops[1].inputs, vec![(0, 0)]);
        let tree = p.render(false);
        assert!(tree.contains("#1 rel.filter"));
        assert!(tree.contains("\n  #0 rel.scan"));
    }
}
