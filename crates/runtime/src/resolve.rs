//! Future resolution protocols: Ray's pull model and Skadi's push model.
//!
//! Ray resolves futures through an *ownership* protocol: the worker that
//! creates a future owns its metadata, and consumers ask the owner where
//! the value lives. Skadi's heterogeneity-aware ownership table (Figure 3)
//! adds a `DeviceID` and a `DeviceHandle` column; the runtime keeps no
//! separate table for it, since every column is a fact it already holds
//! in one place — the owner is the current scheduler, the locations, size
//! and holding device are the caching layer's
//! (`skadi_store::placement::CachingLayer`). DESIGN.md maps each column.
//!
//! §2.3.2 of the paper: "Ray's future resolution uses a pull-based model
//! in which the consumer pulls data from the producer on demand. This
//! creates long stalls for short-lived ops. [...] We add another
//! push-based model for future resolution, in which the producer pushes
//! data to the consumer proactively."
//!
//! [`resolve`] prices one future resolution between a producer and a
//! consumer, given who owns the metadata and which [`Generation`] routes
//! the messages: Gen-1 detours every device message through the fronting
//! DPU, Gen-2 runs a device raylet inside the device. It records the
//! protocol's spans into the caller's tracer (a disabled one records
//! nothing and prices the same). The runtime calls it on every graph
//! edge; the Fig-3 experiments sweep it directly.

use skadi_dcsim::network::Network;
use skadi_dcsim::span::{Category, SpanId, Tracer};
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::NodeId;

use crate::config::Generation;

/// Which resolution protocol an edge uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionMode {
    /// Consumer pulls: ask the owner for the location, then fetch.
    Pull,
    /// Producer pushes data to the (known) consumer when ready.
    Push,
}

impl std::fmt::Display for ResolutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolutionMode::Pull => f.write_str("pull"),
            ResolutionMode::Push => f.write_str("push"),
        }
    }
}

/// One resolution to price.
#[derive(Debug, Clone, Copy)]
pub struct ResolveScenario {
    /// Node whose worker owns the future's metadata.
    pub owner: NodeId,
    /// Node producing the value.
    pub producer: NodeId,
    /// Node consuming the value.
    pub consumer: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// When the producer finishes computing the value.
    pub value_ready: SimTime,
    /// When the consumer is scheduled and would start if its input were
    /// already local.
    pub consumer_ready: SimTime,
}

/// The priced outcome of one resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveOutcome {
    /// When the consumer has the bytes locally and can start.
    pub input_available: SimTime,
    /// Protocol-induced wait beyond the intrinsic data dependency
    /// (`input_available - max(value_ready, consumer_ready)`).
    pub stall: SimDuration,
}

/// Where resolution spans hang in the caller's span tree.
///
/// Consumer-side spans (the round trip and its steps) nest under
/// `parent` — typically the consuming task's umbrella span, whose
/// interval starts no later than `consumer_ready`. Producer-side spans
/// that can predate the consumer's window (the asynchronous ownership
/// update, an early push) nest under `root` — typically the job root,
/// which covers the whole run. With a disabled tracer both ids are the
/// sentinel and nothing is recorded.
#[derive(Debug, Clone, Copy)]
pub struct ResolveSpanCtx<'a> {
    /// Consumer-side parent span (task umbrella).
    pub parent: SpanId,
    /// Fallback parent for spans starting before `consumer_ready`.
    pub root: SpanId,
    /// Component (track) name for the consumer-side round trip.
    pub component: &'a str,
    /// Label of the input being resolved (producer task name).
    pub input: &'a str,
}

impl ResolveSpanCtx<'_> {
    /// A context for untraced callers.
    pub fn detached() -> ResolveSpanCtx<'static> {
        ResolveSpanCtx {
            parent: SpanId::NONE,
            root: SpanId::NONE,
            component: "",
            input: "",
        }
    }
}

/// Prices a pull-based resolution (Ray's ownership protocol), recording
/// one span per protocol state transition into `tracer`:
///
/// 1. producer -> owner: "value ready at my store" (table update);
/// 2. consumer -> owner: "where is the value?" (at `consumer_ready`);
/// 3. owner -> consumer: location reply (waits for step 1 if the ask
///    arrives early — this wait is the pull stall the paper calls out);
/// 4. consumer -> producer: fetch request;
/// 5. producer -> consumer: bulk data.
fn pull(
    net: &mut Network,
    s: &ResolveScenario,
    generation: Generation,
    tracer: &mut Tracer,
    ctx: &ResolveSpanCtx,
) -> ResolveOutcome {
    // Step 1: the owner learns of readiness only after this arrives.
    let owner_knows = generation.control(net, s.value_ready, s.producer, s.owner);
    // The consumer-side round trip starts when the consumer asks.
    let rt = tracer.open(
        "resolve.pull",
        ctx.component,
        Category::Resolve,
        Some(ctx.parent),
        s.consumer_ready,
    );
    tracer.span(
        "resolve.update",
        "net",
        Category::Control,
        Some(ctx.root),
        s.value_ready,
        owner_knows,
        &[("input", ctx.input), ("step", "producer->owner")],
    );
    // Step 2: consumer asks.
    let ask_arrives = generation.control(net, s.consumer_ready, s.consumer, s.owner);
    tracer.span(
        "resolve.ask",
        "net",
        Category::Control,
        Some(rt),
        s.consumer_ready,
        ask_arrives,
        &[("input", ctx.input), ("step", "consumer->owner")],
    );
    // Step 3: owner replies once it both has the ask and knows the value.
    let reply_departs = ask_arrives.max(owner_knows);
    let reply_arrives = generation.control(net, reply_departs, s.owner, s.consumer);
    tracer.span(
        "resolve.reply",
        "net",
        Category::Control,
        Some(rt),
        reply_departs,
        reply_arrives,
        &[("input", ctx.input), ("step", "owner->consumer")],
    );
    // Step 4: fetch request to the holder.
    let fetch_arrives = generation.control(net, reply_arrives, s.consumer, s.producer);
    tracer.span(
        "resolve.fetch",
        "net",
        Category::Control,
        Some(rt),
        reply_arrives,
        fetch_arrives,
        &[("input", ctx.input), ("step", "consumer->producer")],
    );
    // Step 5: bulk data.
    let input_available = generation.data(net, fetch_arrives, s.producer, s.consumer, s.bytes);
    tracer.span(
        "resolve.data",
        "net",
        Category::Data,
        Some(rt),
        fetch_arrives,
        input_available,
        &[("input", ctx.input), ("bytes", &s.bytes.to_string())],
    );

    let intrinsic = s.value_ready.max(s.consumer_ready);
    let stall = input_available.saturating_since(intrinsic);
    tracer.close(rt, input_available);
    tracer.attr(rt, "input", ctx.input);
    tracer.attr(rt, "stall", &stall.to_string());
    ResolveOutcome {
        input_available,
        stall,
    }
}

/// Prices a push-based resolution (Skadi's addition), recording spans
/// for the proactive data send and the off-path table update:
///
/// 1. producer -> consumer: bulk data, sent proactively at `value_ready`
///    (the producer knows the consumer from the physical graph);
/// 2. producer -> owner: asynchronous table update, off the critical
///    path (still counted as a control message).
fn push(
    net: &mut Network,
    s: &ResolveScenario,
    generation: Generation,
    tracer: &mut Tracer,
    ctx: &ResolveSpanCtx,
) -> ResolveOutcome {
    let rt = tracer.open(
        "resolve.push",
        ctx.component,
        Category::Resolve,
        Some(ctx.parent),
        s.consumer_ready,
    );
    let data_arrives = generation.data(net, s.value_ready, s.producer, s.consumer, s.bytes);
    // An early push predates the consumer's window; hang it off the root.
    let data_parent = if s.value_ready >= s.consumer_ready {
        rt
    } else {
        ctx.root
    };
    tracer.span(
        "resolve.data",
        "net",
        Category::Data,
        Some(data_parent),
        s.value_ready,
        data_arrives,
        &[("input", ctx.input), ("bytes", &s.bytes.to_string())],
    );
    // Off-critical-path ownership update.
    let update_arrives = generation.control(net, s.value_ready, s.producer, s.owner);
    tracer.span(
        "resolve.update",
        "net",
        Category::Control,
        Some(ctx.root),
        s.value_ready,
        update_arrives,
        &[("input", ctx.input), ("step", "producer->owner")],
    );

    let intrinsic = s.value_ready.max(s.consumer_ready);
    // The consumer can only start once it is itself ready.
    let input_available = data_arrives.max(s.consumer_ready);
    let stall = input_available.saturating_since(intrinsic);
    tracer.close(rt, input_available);
    tracer.attr(rt, "input", ctx.input);
    tracer.attr(rt, "stall", &stall.to_string());
    ResolveOutcome {
        input_available,
        stall,
    }
}

/// Prices one future resolution under `mode`, recording its protocol
/// spans into `tracer` (a disabled tracer records nothing and prices the
/// same).
pub fn resolve(
    mode: ResolutionMode,
    net: &mut Network,
    s: &ResolveScenario,
    generation: Generation,
    tracer: &mut Tracer,
    ctx: &ResolveSpanCtx,
) -> ResolveOutcome {
    match mode {
        ResolutionMode::Pull => pull(net, s, generation, tracer, ctx),
        ResolutionMode::Push => push(net, s, generation, tracer, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::network::LinkParams;
    use skadi_dcsim::topology::{presets, Topology};

    const GENERATIONS: [Generation; 2] = [Generation::Gen1, Generation::Gen2];

    /// Prices one untraced resolution on a fresh network, which is handed
    /// back so a test can read what went over it.
    fn untraced(
        mode: ResolutionMode,
        topo: &Topology,
        s: &ResolveScenario,
        generation: Generation,
    ) -> (ResolveOutcome, Network) {
        let mut net = Network::new(topo, LinkParams::default());
        let mut tracer = Tracer::new(false);
        let out = resolve(
            mode,
            &mut net,
            s,
            generation,
            &mut tracer,
            &ResolveSpanCtx::detached(),
        );
        (out, net)
    }

    fn stall(
        mode: ResolutionMode,
        topo: &Topology,
        s: &ResolveScenario,
        generation: Generation,
    ) -> SimDuration {
        untraced(mode, topo, s, generation).0.stall
    }

    fn scenario(topo: &Topology, bytes: u64) -> ResolveScenario {
        let devs = topo.accel_devices(None);
        ResolveScenario {
            owner: topo.servers()[0],
            producer: devs[0],
            consumer: devs[1],
            bytes,
            value_ready: SimTime::from_micros(100),
            consumer_ready: SimTime::from_micros(100),
        }
    }

    #[test]
    fn push_beats_pull_for_small_objects() {
        let topo = presets::device_rack();
        let s = scenario(&topo, 4 << 10);
        for generation in GENERATIONS {
            let (pull, pull_net) = untraced(ResolutionMode::Pull, &topo, &s, generation);
            let (push, push_net) = untraced(ResolutionMode::Push, &topo, &s, generation);
            assert!(
                push.stall < pull.stall,
                "{generation:?}: push {} vs pull {}",
                push.stall,
                pull.stall
            );
            // Update, ask, reply, fetch against the one update.
            assert_eq!(pull_net.stats().control_msgs, 4);
            assert_eq!(push_net.stats().control_msgs, 1);
        }
    }

    #[test]
    fn gen2_beats_gen1_between_devices() {
        let topo = presets::device_rack();
        let s = scenario(&topo, 4 << 10);
        for mode in [ResolutionMode::Pull, ResolutionMode::Push] {
            let g1 = stall(mode, &topo, &s, Generation::Gen1);
            let g2 = stall(mode, &topo, &s, Generation::Gen2);
            assert!(g2 < g1, "{mode}: gen2 {g2} vs gen1 {g1}");
        }
    }

    #[test]
    fn stall_never_negative_and_data_moved_once() {
        let topo = presets::device_rack();
        let s = scenario(&topo, 1 << 20);
        for mode in [ResolutionMode::Pull, ResolutionMode::Push] {
            for generation in GENERATIONS {
                let (o, net) = untraced(mode, &topo, &s, generation);
                assert!(o.input_available >= s.value_ready);
                let st = net.stats();
                assert_eq!(st.data_transfers, 1, "{mode} {generation:?}");
                let moved = st.loopback_bytes
                    + st.intra_rack_bytes
                    + st.cross_rack_bytes
                    + st.durable_bytes;
                assert_eq!(moved, 1 << 20, "{mode} {generation:?}");
            }
        }
    }

    #[test]
    fn pull_waits_for_late_producer() {
        let topo = presets::device_rack();
        let mut s = scenario(&topo, 1024);
        // Consumer is ready long before the value.
        s.consumer_ready = SimTime::from_micros(0);
        s.value_ready = SimTime::from_millis(5);
        for generation in GENERATIONS {
            let (o, _) = untraced(ResolutionMode::Pull, &topo, &s, generation);
            assert!(o.input_available > s.value_ready);
            // Stall is measured beyond the intrinsic dependency, so it is
            // just protocol overhead, far below the 5 ms skew.
            assert!(o.stall < SimDuration::from_millis(1));
        }
    }

    #[test]
    fn push_respects_consumer_not_ready() {
        let topo = presets::device_rack();
        let mut s = scenario(&topo, 1024);
        s.value_ready = SimTime::from_micros(0);
        s.consumer_ready = SimTime::from_millis(3);
        for generation in GENERATIONS {
            let (o, _) = untraced(ResolutionMode::Push, &topo, &s, generation);
            // Data arrived early; the consumer starts when it is ready.
            assert_eq!(o.input_available, s.consumer_ready);
            assert_eq!(o.stall, SimDuration::ZERO);
        }
    }

    #[test]
    fn traced_pull_records_protocol_steps() {
        let topo = presets::device_rack();
        let s = scenario(&topo, 4 << 10);
        for generation in GENERATIONS {
            let mut net = Network::new(&topo, LinkParams::default());
            let mut tracer = Tracer::new(true);
            let root = tracer.open("job", "driver", Category::Job, None, SimTime::ZERO);
            let task = tracer.open(
                "task",
                "n",
                Category::Task,
                Some(root),
                SimTime::from_micros(50),
            );
            let ctx = ResolveSpanCtx {
                parent: task,
                root,
                component: "n",
                input: "x",
            };
            let out = resolve(
                ResolutionMode::Pull,
                &mut net,
                &s,
                generation,
                &mut tracer,
                &ctx,
            );
            tracer.close(task, out.input_available);
            let end = tracer.latest_end();
            tracer.close(root, end);
            let trace = tracer.finish();
            trace.validate().expect("well-formed trace");
            // 4 control messages: update, ask, reply, fetch.
            assert_eq!(trace.count_category(Category::Control), 4);
            assert_eq!(trace.count_category(Category::Data), 1);
            assert_eq!(trace.count_category(Category::Resolve), 1);
            let rt = trace
                .spans()
                .iter()
                .find(|sp| sp.name == "resolve.pull")
                .unwrap();
            assert_eq!(rt.attr("input"), Some("x"));
            assert_eq!(rt.end, out.input_available);
        }
    }

    #[test]
    fn traced_push_records_single_control_msg() {
        let topo = presets::device_rack();
        let mut s = scenario(&topo, 4 << 10);
        // Early push: value ready before the consumer exists.
        s.value_ready = SimTime::from_micros(10);
        s.consumer_ready = SimTime::from_micros(200);
        for generation in GENERATIONS {
            let mut net = Network::new(&topo, LinkParams::default());
            let mut tracer = Tracer::new(true);
            let root = tracer.open("job", "driver", Category::Job, None, SimTime::ZERO);
            let task = tracer.open(
                "task",
                "n",
                Category::Task,
                Some(root),
                SimTime::from_micros(150),
            );
            let ctx = ResolveSpanCtx {
                parent: task,
                root,
                component: "n",
                input: "y",
            };
            let out = resolve(
                ResolutionMode::Push,
                &mut net,
                &s,
                generation,
                &mut tracer,
                &ctx,
            );
            tracer.close(task, out.input_available.max(SimTime::from_micros(150)));
            let end = tracer.latest_end();
            tracer.close(root, end);
            let trace = tracer.finish();
            trace.validate().expect("well-formed trace");
            assert_eq!(trace.count_category(Category::Control), 1);
            assert_eq!(trace.count_category(Category::Data), 1);
        }
    }

    #[test]
    fn untraced_and_traced_price_identically() {
        let topo = presets::device_rack();
        let s = scenario(&topo, 64 << 10);
        for mode in [ResolutionMode::Pull, ResolutionMode::Push] {
            for generation in GENERATIONS {
                let (plain, _) = untraced(mode, &topo, &s, generation);
                let mut net = Network::new(&topo, LinkParams::default());
                let mut tracer = Tracer::new(true);
                let ctx = ResolveSpanCtx {
                    parent: SpanId::NONE,
                    root: SpanId::NONE,
                    component: "n",
                    input: "z",
                };
                let traced = resolve(mode, &mut net, &s, generation, &mut tracer, &ctx);
                assert_eq!(plain, traced, "tracing must not change pricing");
                assert!(!tracer.is_empty());
            }
        }
    }

    #[test]
    fn relative_gap_shrinks_for_large_transfers() {
        // For bulk data the serialization dominates, so pull's extra
        // control round-trips matter relatively less.
        let topo = presets::device_rack();
        let small = scenario(&topo, 1 << 10);
        let large = scenario(&topo, 64 << 20);
        for generation in GENERATIONS {
            let ratio = |s: &ResolveScenario| {
                stall(ResolutionMode::Pull, &topo, s, generation).as_secs_f64()
                    / stall(ResolutionMode::Push, &topo, s, generation).as_secs_f64()
            };
            let (small_ratio, large_ratio) = (ratio(&small), ratio(&large));
            assert!(
                small_ratio > large_ratio,
                "{generation:?}: small {small_ratio:.2} vs large {large_ratio:.2}"
            );
        }
    }
}
