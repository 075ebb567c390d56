//! Quickstart: build a simulated disaggregated cluster, run a SQL query
//! through the full Skadi stack, and print the report.
//!
//! Run with: `cargo run --example quickstart`

use skadi::prelude::*;

fn main() -> Result<(), SkadiError> {
    // 1. A cluster: 2 racks of servers, GPU + FPGA devices fronted by
    //    DPUs, a disaggregated memory blade, durable cloud storage.
    let topo = presets::small_disagg_cluster();
    println!("cluster: {}", topo.summary());

    // 2. A session: the one runtime every declaration goes through.
    let session = Session::builder()
        .topology(topo)
        .catalog(Catalog::demo())
        .runtime(RuntimeConfig::skadi_gen2())
        .parallelism(4)
        .build();

    // 3. Declarative in: SQL. The access layer parses it onto FlowGraph,
    //    fuses what it can, shards it, picks backends; the stateful
    //    serverless runtime executes it on the simulated hardware.
    let report = session.sql(
        "SELECT kind, sum(value) FROM events \
         WHERE value > 0.5 AND kind = 'click' \
         GROUP BY kind ORDER BY kind LIMIT 10",
    )?;
    println!("\n{report}");

    Ok(())
}
