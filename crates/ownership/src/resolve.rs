//! Future resolution protocols: Ray's pull model and Skadi's push model.
//!
//! §2.3.2 of the paper: "Ray's future resolution uses a pull-based model
//! in which the consumer pulls data from the producer on demand. This
//! creates long stalls for short-lived ops. [...] We add another
//! push-based model for future resolution, in which the producer pushes
//! data to the consumer proactively."
//!
//! [`resolve`] prices one future resolution between a producer and a
//! consumer, given who owns the metadata and how messages are routed
//! ([`RoutePolicy`]): Gen-1 detours every device message through the
//! fronting DPU, Gen-2 runs a device raylet inside the device. It records
//! the protocol's spans into the caller's tracer (a disabled one records
//! nothing and prices the same). The runtime calls it on every graph
//! edge; the Fig-3 experiments sweep it directly.

use skadi_dcsim::network::Network;
use skadi_dcsim::span::{Category, SpanId, Tracer};
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::NodeId;

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

/// How control/data messages reach code running on a DPU-fronted device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePolicy {
    /// Gen-1: true — the DPU orchestrates its device, so every message
    /// to or from the device pays the DPU's per-message processing delay
    /// plus the internal PCIe hop in both directions. Gen-2: false — a
    /// device-resident raylet handles messages locally.
    pub dpu_detour: bool,
    /// Per-message processing cost of the Gen-2 device raylet (small but
    /// not free).
    pub device_raylet_overhead: SimDuration,
}

impl RoutePolicy {
    /// The Gen-1 (DPU-centric) routing policy.
    pub const GEN1: RoutePolicy = RoutePolicy {
        dpu_detour: true,
        device_raylet_overhead: SimDuration::ZERO,
    };

    /// The Gen-2 (device-centric) routing policy.
    pub const GEN2: RoutePolicy = RoutePolicy {
        dpu_detour: false,
        device_raylet_overhead: SimDuration::from_nanos(500),
    };

    /// Per-message overhead paid at `node` under this policy.
    pub fn endpoint_overhead(&self, net: &Network, node: NodeId) -> SimDuration {
        let dpu = net.dpu_delay(node);
        if dpu.is_zero() {
            // Regular server: raylet runs on the host CPU either way.
            return SimDuration::ZERO;
        }
        if self.dpu_detour {
            // In via NIC -> DPU processing -> PCIe hop to the device, and
            // symmetrically on the way out.
            dpu + net.internal_hop(node) * 2
        } else {
            self.device_raylet_overhead
        }
    }

    /// Prices one control message from `from` to `to` sent at `now`,
    /// paying this policy's endpoint overhead on both ends.
    pub fn control(&self, net: &mut Network, now: SimTime, from: NodeId, to: NodeId) -> SimTime {
        let depart = now + self.endpoint_overhead(net, from);
        net.control(depart, from, to) + self.endpoint_overhead(net, to)
    }

    /// Prices one bulk transfer the same way.
    fn data(
        &self,
        net: &mut Network,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> SimTime {
        let depart = now + self.endpoint_overhead(net, from);
        net.transfer(depart, from, to, bytes).arrival + self.endpoint_overhead(net, to)
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
    /// Control messages on and off the critical path.
    pub control_msgs: u32,
    /// Bulk bytes moved.
    pub data_bytes: u64,
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
    route: &RoutePolicy,
    tracer: &mut Tracer,
    ctx: &ResolveSpanCtx,
) -> ResolveOutcome {
    // Step 1: the owner learns of readiness only after this arrives.
    let owner_knows = route.control(net, s.value_ready, s.producer, s.owner);
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
    let ask_arrives = route.control(net, s.consumer_ready, s.consumer, s.owner);
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
    let reply_arrives = route.control(net, reply_departs, s.owner, s.consumer);
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
    let fetch_arrives = route.control(net, reply_arrives, s.consumer, s.producer);
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
    let input_available = route.data(net, fetch_arrives, s.producer, s.consumer, s.bytes);
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
        control_msgs: 4,
        data_bytes: s.bytes,
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
    route: &RoutePolicy,
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
    let data_arrives = route.data(net, s.value_ready, s.producer, s.consumer, s.bytes);
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
    let update_arrives = route.control(net, s.value_ready, s.producer, s.owner);
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
        control_msgs: 1,
        data_bytes: s.bytes,
    }
}

/// Prices one future resolution under `mode`, recording its protocol
/// spans into `tracer` (a disabled tracer records nothing and prices the
/// same).
pub fn resolve(
    mode: ResolutionMode,
    net: &mut Network,
    s: &ResolveScenario,
    route: &RoutePolicy,
    tracer: &mut Tracer,
    ctx: &ResolveSpanCtx,
) -> ResolveOutcome {
    match mode {
        ResolutionMode::Pull => pull(net, s, route, tracer, ctx),
        ResolutionMode::Push => push(net, s, route, tracer, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::network::LinkParams;
    use skadi_dcsim::topology::{presets, Topology};

    fn untraced(
        mode: ResolutionMode,
        net: &mut Network,
        s: &ResolveScenario,
        route: &RoutePolicy,
    ) -> ResolveOutcome {
        let mut tracer = Tracer::new(false);
        resolve(
            mode,
            net,
            s,
            route,
            &mut tracer,
            &ResolveSpanCtx::detached(),
        )
    }

    fn setup() -> (Topology, Network) {
        let topo = presets::device_rack();
        let net = Network::new(&topo, LinkParams::default());
        (topo, net)
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
        let (topo, mut net) = setup();
        let s = scenario(&topo, 4 << 10);
        let pull = untraced(ResolutionMode::Pull, &mut net, &s, &RoutePolicy::GEN1);
        let mut net2 = Network::new(&topo, LinkParams::default());
        let push = untraced(ResolutionMode::Push, &mut net2, &s, &RoutePolicy::GEN1);
        assert!(
            push.stall < pull.stall,
            "push {} vs pull {}",
            push.stall,
            pull.stall
        );
        assert!(push.control_msgs < pull.control_msgs);
    }

    #[test]
    fn gen2_beats_gen1_between_devices() {
        let (topo, mut net) = setup();
        let s = scenario(&topo, 4 << 10);
        let g1 = untraced(ResolutionMode::Pull, &mut net, &s, &RoutePolicy::GEN1);
        let mut net2 = Network::new(&topo, LinkParams::default());
        let g2 = untraced(ResolutionMode::Pull, &mut net2, &s, &RoutePolicy::GEN2);
        assert!(
            g2.stall < g1.stall,
            "gen2 {} vs gen1 {}",
            g2.stall,
            g1.stall
        );
    }

    #[test]
    fn stall_never_negative_and_data_counted() {
        let (topo, mut net) = setup();
        let s = scenario(&topo, 1 << 20);
        for (mode, route) in [
            (ResolutionMode::Pull, RoutePolicy::GEN1),
            (ResolutionMode::Pull, RoutePolicy::GEN2),
            (ResolutionMode::Push, RoutePolicy::GEN1),
            (ResolutionMode::Push, RoutePolicy::GEN2),
        ] {
            let o = untraced(mode, &mut net, &s, &route);
            assert!(o.input_available >= s.value_ready);
            assert_eq!(o.data_bytes, 1 << 20);
        }
    }

    #[test]
    fn pull_waits_for_late_producer() {
        let (topo, mut net) = setup();
        let mut s = scenario(&topo, 1024);
        // Consumer is ready long before the value.
        s.consumer_ready = SimTime::from_micros(0);
        s.value_ready = SimTime::from_millis(5);
        let o = untraced(ResolutionMode::Pull, &mut net, &s, &RoutePolicy::GEN1);
        assert!(o.input_available > s.value_ready);
        // Stall is measured beyond the intrinsic dependency, so it is just
        // protocol overhead, far below the 5 ms skew.
        assert!(o.stall < SimDuration::from_millis(1));
    }

    #[test]
    fn push_respects_consumer_not_ready() {
        let (topo, mut net) = setup();
        let mut s = scenario(&topo, 1024);
        s.value_ready = SimTime::from_micros(0);
        s.consumer_ready = SimTime::from_millis(3);
        let o = untraced(ResolutionMode::Push, &mut net, &s, &RoutePolicy::GEN2);
        // Data arrived early; the consumer starts when it is ready.
        assert_eq!(o.input_available, s.consumer_ready);
        assert_eq!(o.stall, SimDuration::ZERO);
    }

    #[test]
    fn server_endpoints_pay_no_device_overhead() {
        let (topo, net) = setup();
        let server = topo.servers()[0];
        assert_eq!(
            RoutePolicy::GEN1.endpoint_overhead(&net, server),
            SimDuration::ZERO
        );
        let dev = topo.accel_devices(None)[0];
        assert!(RoutePolicy::GEN1.endpoint_overhead(&net, dev) > SimDuration::ZERO);
        assert!(
            RoutePolicy::GEN2.endpoint_overhead(&net, dev)
                < RoutePolicy::GEN1.endpoint_overhead(&net, dev)
        );
    }

    #[test]
    fn traced_pull_records_protocol_steps() {
        let (topo, mut net) = setup();
        let s = scenario(&topo, 4 << 10);
        let mut tracer = Tracer::new(true);
        let root = tracer.open(
            "job",
            "driver",
            Category::Job,
            None,
            skadi_dcsim::time::SimTime::ZERO,
        );
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
            &RoutePolicy::GEN1,
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

    #[test]
    fn traced_push_records_single_control_msg() {
        let (topo, mut net) = setup();
        let mut s = scenario(&topo, 4 << 10);
        // Early push: value ready before the consumer exists.
        s.value_ready = SimTime::from_micros(10);
        s.consumer_ready = SimTime::from_micros(200);
        let mut tracer = Tracer::new(true);
        let root = tracer.open(
            "job",
            "driver",
            Category::Job,
            None,
            skadi_dcsim::time::SimTime::ZERO,
        );
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
            &RoutePolicy::GEN2,
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

    #[test]
    fn untraced_and_traced_price_identically() {
        let (topo, _) = setup();
        let s = scenario(&topo, 64 << 10);
        for (mode, route) in [
            (ResolutionMode::Pull, RoutePolicy::GEN1),
            (ResolutionMode::Push, RoutePolicy::GEN2),
        ] {
            let mut n1 = Network::new(&topo, LinkParams::default());
            let mut n2 = Network::new(&topo, LinkParams::default());
            let plain = untraced(mode, &mut n1, &s, &route);
            let mut tracer = Tracer::new(true);
            let ctx = ResolveSpanCtx {
                parent: SpanId::NONE,
                root: SpanId::NONE,
                component: "n",
                input: "z",
            };
            let traced = resolve(mode, &mut n2, &s, &route, &mut tracer, &ctx);
            assert_eq!(plain, traced, "tracing must not change pricing");
            assert!(!tracer.is_empty());
        }
    }

    #[test]
    fn relative_gap_shrinks_for_large_transfers() {
        // For bulk data the serialization dominates, so pull's extra
        // control round-trips matter relatively less.
        let (topo, _) = setup();
        let small = scenario(&topo, 1 << 10);
        let large = scenario(&topo, 64 << 20);
        let mut n1 = Network::new(&topo, LinkParams::default());
        let mut n2 = Network::new(&topo, LinkParams::default());
        let mut n3 = Network::new(&topo, LinkParams::default());
        let mut n4 = Network::new(&topo, LinkParams::default());
        let ps = untraced(ResolutionMode::Pull, &mut n1, &small, &RoutePolicy::GEN1);
        let qs = untraced(ResolutionMode::Push, &mut n2, &small, &RoutePolicy::GEN1);
        let pl = untraced(ResolutionMode::Pull, &mut n3, &large, &RoutePolicy::GEN1);
        let ql = untraced(ResolutionMode::Push, &mut n4, &large, &RoutePolicy::GEN1);
        let small_ratio = ps.stall.as_secs_f64() / qs.stall.as_secs_f64();
        let large_ratio = pl.stall.as_secs_f64() / ql.stall.as_secs_f64();
        assert!(
            small_ratio > large_ratio,
            "small {small_ratio:.2} vs large {large_ratio:.2}"
        );
    }
}
