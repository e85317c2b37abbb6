//! The host / network-interface model.
//!
//! Each host is a [`netsim::engine::Component`] with one injection and one
//! ejection port. It polls a [`TrafficSource`] for messages, charges
//! software send/receive overheads on a serialized "CPU", segments messages
//! into packets that respect the network's maximum packet size, injects
//! flits at link rate, reassembles arriving packets into messages, and
//! reports deliveries to the shared [`DeliveryTracker`].
//!
//! The multicast scheme is chosen per host ([`McastScheme`]):
//!
//! * **HardwareBitString** — one multidestination worm per packet segment,
//!   replicated by the switches (the paper's preferred single-phase
//!   scheme);
//! * **HardwareMultiport** — several multiport-encoded worms planned by
//!   [`mintopo::multiport::plan_multiport`], each charged its own send
//!   overhead;
//! * **SoftwareBinomial** — the U-Min software baseline: `ceil(log2(d+1))`
//!   phases of unicast hop messages, forwarded (and re-charged overheads)
//!   at every intermediate destination.

use crate::degrade::FabricMode;
use crate::recovery::{RecoveryConfig, RecoveryShared};
use crate::swmcast::{SwContext, SwCoordinator};
use crate::traffic::{DeliveryHook, MessageSpec, TrafficSource};
use crate::umin;
use mintopo::karytree::KaryTree;
use mintopo::multiport::plan_multiport;
use netsim::destset::DestSet;
use netsim::engine::{Component, PortIo};
use netsim::flit::Flit;
use netsim::header::RoutingHeader;
use netsim::ids::{MessageId, NodeId};
use netsim::message::{Message, MessageKind};
use netsim::packet::{packetize, Packet, PacketBuilder, PacketIdGen};
use netsim::stats::DeliveryTracker;
use netsim::Cycle;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Monotonic generator of unique [`MessageId`]s, shared by all hosts.
#[derive(Debug, Default, Clone)]
pub struct MessageIdGen(u64);

impl MessageIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next unused id.
    pub fn next_id(&mut self) -> MessageId {
        let id = MessageId(self.0);
        self.0 += 1;
        id
    }
}

/// How this host implements multicast messages.
#[derive(Clone)]
pub enum McastScheme {
    /// Single-phase bit-string multidestination worms (paper's scheme).
    HardwareBitString,
    /// Multiport-encoded worms planned on the given tree (companion work
    /// \[32\]); arbitrary sets may need several worms.
    HardwareMultiport(Rc<KaryTree>),
    /// U-Min binomial software multicast over unicast messages \[38\].
    SoftwareBinomial,
}

impl std::fmt::Debug for McastScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McastScheme::HardwareBitString => write!(f, "HardwareBitString"),
            McastScheme::HardwareMultiport(_) => write!(f, "HardwareMultiport"),
            McastScheme::SoftwareBinomial => write!(f, "SoftwareBinomial"),
        }
    }
}

/// Host parameters.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// This host's node id.
    pub node: NodeId,
    /// System size `N`.
    pub n_hosts: usize,
    /// Payload bits per flit (8 for SP2-style byte-wide flits).
    pub bits_per_flit: usize,
    /// Maximum packet size (header + payload) the network accepts.
    pub max_packet_flits: u16,
    /// Software cost charged per message send, in cycles.
    pub send_overhead: u32,
    /// Software cost charged before a received multicast is forwarded, in
    /// cycles (software scheme only).
    pub recv_overhead: u32,
    /// Multicast implementation.
    pub scheme: McastScheme,
    /// End-to-end recovery parameters; `None` keeps the zero-overhead
    /// fast path (no dedup map, no timers) for fault-free runs.
    pub recovery: Option<RecoveryConfig>,
}

#[derive(Debug)]
struct RxState {
    expected: u16,
    seqs: HashSet<u16>,
}

/// A sent message awaiting acknowledgement from some destinations.
#[derive(Debug)]
struct OutstandingSend {
    msg: Message,
    remaining: DestSet,
    attempts: u32,
    deadline: Cycle,
}

/// How often (in cycles) a host scans its outstanding sends for expired
/// retransmission deadlines. Power of two so the check is a mask.
const RETRY_SCAN_INTERVAL: Cycle = 16;

/// Shared generators and bookkeeping every host needs.
#[derive(Clone)]
pub struct HostShared {
    /// Delivery tracker (latency bookkeeping).
    pub tracker: Rc<RefCell<DeliveryTracker>>,
    /// Software-multicast forwarding contexts.
    pub coord: Rc<RefCell<SwCoordinator>>,
    /// Message-id generator.
    pub msg_ids: Rc<RefCell<MessageIdGen>>,
    /// Packet-id generator.
    pub pkt_ids: Rc<RefCell<PacketIdGen>>,
    /// Out-of-band ACK ledger and recovery counters (only consulted by
    /// hosts whose config enables recovery).
    pub recovery: Rc<RefCell<RecoveryShared>>,
}

impl HostShared {
    /// Creates the shared state for a system of `n_hosts` nodes.
    pub fn new(n_hosts: usize) -> Self {
        HostShared {
            tracker: Rc::new(RefCell::new(DeliveryTracker::new(n_hosts))),
            coord: Rc::new(RefCell::new(SwCoordinator::new())),
            msg_ids: Rc::new(RefCell::new(MessageIdGen::new())),
            pkt_ids: Rc::new(RefCell::new(PacketIdGen::new())),
            recovery: Rc::new(RefCell::new(RecoveryShared::new())),
        }
    }
}

/// A host NIC component (one injection port, one ejection port).
pub struct Host {
    cfg: HostConfig,
    shared: HostShared,
    source: Box<dyn TrafficSource>,
    hook: Option<Rc<RefCell<dyn DeliveryHook>>>,
    cpu_free_at: Cycle,
    pending: VecDeque<(Cycle, Vec<Rc<Packet>>)>,
    nic: VecDeque<Rc<Packet>>,
    tx: Option<(Rc<Packet>, u16)>,
    rx: HashMap<MessageId, RxState>,
    /// Whether any flit of the worm currently draining from the ejection
    /// port carried a corruption mark (worms arrive contiguously).
    worm_corrupt: bool,
    /// A worm is mid-way through the ejection port: its next flit arrives
    /// next cycle, so sleeping would only churn the wake heap.
    rx_mid_worm: bool,
    outstanding: HashMap<MessageId, OutstandingSend>,
    /// A lower bound on the outstanding deadlines: exact after each retry
    /// scan, lowered by each new send.
    next_deadline: Cycle,
    /// Fault-response mode (injection gate + degradation planner); `None`
    /// keeps the fault-oblivious fast path.
    mode: Option<Rc<FabricMode>>,
}

impl Host {
    /// Creates a host.
    ///
    /// # Panics
    ///
    /// Panics if the maximum packet size cannot even fit a unicast header
    /// plus one payload flit.
    pub fn new(cfg: HostConfig, shared: HostShared, source: Box<dyn TrafficSource>) -> Self {
        let uni = RoutingHeader::Unicast { dest: cfg.node };
        let hdr = uni.header_flits(cfg.n_hosts, cfg.bits_per_flit) as u16;
        assert!(
            cfg.max_packet_flits > hdr,
            "max packet of {} flits cannot carry any payload",
            cfg.max_packet_flits
        );
        Host {
            cfg,
            shared,
            source,
            hook: None,
            cpu_free_at: 0,
            pending: VecDeque::new(),
            nic: VecDeque::new(),
            tx: None,
            rx: HashMap::new(),
            worm_corrupt: false,
            rx_mid_worm: false,
            outstanding: HashMap::new(),
            next_deadline: Cycle::MAX,
            mode: None,
        }
    }

    /// Installs a delivery observer (e.g. a barrier engine).
    pub fn set_hook(&mut self, hook: Rc<RefCell<dyn DeliveryHook>>) {
        self.hook = Some(hook);
    }

    /// Attaches the shared fault-response mode cell. While its gate is up
    /// this host aborts/holds injection; while its degradation planner is
    /// installed, hardware multicasts are split into a coverable worm plus
    /// U-Min unicast fallback for the peeled remainder. Payloads dropped at
    /// the gate are only recovered when [`HostConfig::recovery`] is on.
    pub fn set_fabric_mode(&mut self, mode: Rc<FabricMode>) {
        self.mode = Some(mode);
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// Messages and packets awaiting injection (saturation probe).
    pub fn backlog(&self) -> usize {
        self.pending.len() + self.nic.len() + usize::from(self.tx.is_some())
    }

    /// Serializes `overhead` cycles of CPU work starting no earlier than
    /// `now`; returns the completion time.
    fn cpu_schedule(&mut self, now: Cycle, overhead: u32) -> Cycle {
        let start = self.cpu_free_at.max(now);
        self.cpu_free_at = start + Cycle::from(overhead);
        self.cpu_free_at
    }

    /// Largest payload per packet for a given header.
    fn max_payload(&self, header: &RoutingHeader) -> u16 {
        let hdr = header.header_flits(self.cfg.n_hosts, self.cfg.bits_per_flit) as u16;
        assert!(
            self.cfg.max_packet_flits > hdr,
            "header of {hdr} flits leaves no payload room in {}-flit packets",
            self.cfg.max_packet_flits
        );
        self.cfg.max_packet_flits - hdr
    }

    fn schedule_packets(&mut self, now: Cycle, packets: Vec<Packet>) {
        let ready = self.cpu_schedule(now, self.cfg.send_overhead);
        self.pending
            .push_back((ready, packets.into_iter().map(Rc::new).collect()));
    }

    /// Puts a freshly sent message on the retransmission wheel, awaiting
    /// ACKs from `dests`. No-op unless recovery is enabled.
    fn track_send(&mut self, now: Cycle, msg: &Message, dests: DestSet) {
        if let Some(rcfg) = &self.cfg.recovery {
            let deadline = rcfg.deadline_after(now, 0);
            self.next_deadline = self.next_deadline.min(deadline);
            self.outstanding.insert(
                msg.id(),
                OutstandingSend {
                    msg: msg.clone(),
                    remaining: dests,
                    attempts: 0,
                    deadline,
                },
            );
        }
    }

    /// Handles a message the workload asked us to send.
    fn send_message(&mut self, now: Cycle, spec: MessageSpec) {
        let id = self.shared.msg_ids.borrow_mut().next_id();
        let msg = Message::new(
            id,
            self.cfg.node,
            spec.kind.clone(),
            spec.payload_flits,
            now,
        );
        // Barrier gathers are consumed inside the network; they never
        // produce a host delivery, so the tracker must not expect one.
        if !matches!(spec.kind, MessageKind::BarrierGather { .. }) {
            self.shared.tracker.borrow_mut().register(&msg);
        }
        match (&spec.kind, self.cfg.scheme.clone()) {
            (MessageKind::Unicast(dest), _) => {
                let max = self.max_payload(&RoutingHeader::Unicast {
                    dest: self.cfg.node,
                });
                let pkts = packetize(
                    &msg,
                    max,
                    self.cfg.n_hosts,
                    self.cfg.bits_per_flit,
                    &mut self.shared.pkt_ids.borrow_mut(),
                );
                self.schedule_packets(now, pkts);
                self.track_send(now, &msg, DestSet::from_nodes(self.cfg.n_hosts, [*dest]));
            }
            (MessageKind::Multicast(dests), McastScheme::HardwareBitString) => {
                match self
                    .mode
                    .as_ref()
                    .and_then(|m| m.split(self.cfg.node, dests))
                {
                    Some(plan) => {
                        if !plan.worm.is_empty() {
                            self.send_worm(now, &msg, &plan.worm);
                            self.track_send(now, &msg, plan.worm.clone());
                        }
                        if !plan.peeled.is_empty() {
                            self.send_peeled(now, id, now, &plan.peeled, spec.payload_flits);
                        }
                    }
                    None => {
                        self.send_worm(now, &msg, dests);
                        self.track_send(now, &msg, dests.clone());
                    }
                }
            }
            (MessageKind::Multicast(dests), McastScheme::HardwareMultiport(tree)) => {
                self.send_multiport(now, &msg, dests, &tree);
                self.track_send(now, &msg, dests.clone());
            }
            (MessageKind::Multicast(dests), McastScheme::SoftwareBinomial) => {
                // A root that addresses itself "delivers" locally: the
                // binomial list excludes it, so account for it here.
                if dests.contains(self.cfg.node) {
                    self.shared
                        .tracker
                        .borrow_mut()
                        .deliver(id, self.cfg.node, now);
                }
                let list = Rc::new(umin::participant_list(self.cfg.node, dests));
                let n = list.len();
                for h in umin::handoffs(0, n) {
                    self.send_hop(now, id, now, &list, h, spec.payload_flits);
                }
            }
            (MessageKind::BarrierGather { .. }, _) => {
                let pkts = packetize(
                    &msg,
                    self.cfg.max_packet_flits,
                    self.cfg.n_hosts,
                    self.cfg.bits_per_flit,
                    &mut self.shared.pkt_ids.borrow_mut(),
                );
                self.schedule_packets(now, pkts);
            }
        }
    }

    /// Packetizes `msg` as one bit-string worm addressed to exactly `worm`
    /// (a subset of the message's destinations when degraded) and schedules
    /// it; returns the number of packets. Wheel tracking is the caller's
    /// job — retransmissions must not reset their entry's backoff state.
    fn send_worm(&mut self, now: Cycle, msg: &Message, worm: &DestSet) -> u64 {
        let narrowed = Message::new(
            msg.id(),
            msg.src(),
            MessageKind::Multicast(worm.clone()),
            msg.payload_flits(),
            msg.created(),
        );
        let max = self.max_payload(&RoutingHeader::BitString {
            dests: worm.clone(),
        });
        let pkts = packetize(
            &narrowed,
            max,
            self.cfg.n_hosts,
            self.cfg.bits_per_flit,
            &mut self.shared.pkt_ids.borrow_mut(),
        );
        let n = pkts.len() as u64;
        self.schedule_packets(now, pkts);
        n
    }

    /// Serves destinations no worm can reach through the U-Min binomial
    /// unicast fallback. Each hop is an independently recoverable unicast
    /// that delivers (and ACKs) the root message at its destination, so the
    /// peeled destinations must NOT stay on the root's wheel entry.
    fn send_peeled(
        &mut self,
        now: Cycle,
        root: MessageId,
        root_created: Cycle,
        peeled: &DestSet,
        payload_flits: u16,
    ) {
        if peeled.contains(self.cfg.node) {
            self.shared
                .tracker
                .borrow_mut()
                .deliver(root, self.cfg.node, now);
        }
        let list = Rc::new(umin::participant_list(self.cfg.node, peeled));
        let n = list.len();
        for h in umin::handoffs(0, n) {
            self.send_hop(now, root, root_created, &list, h, payload_flits);
        }
    }

    /// Plans and schedules the multiport worms of a multicast.
    fn send_multiport(&mut self, now: Cycle, msg: &Message, dests: &DestSet, tree: &KaryTree) {
        let plan = plan_multiport(tree, self.cfg.node, dests);
        for worm in &plan.worms {
            let header = RoutingHeader::Multiport {
                masks: worm.masks.clone(),
            };
            let max = self.max_payload(&header);
            let total = msg.payload_flits();
            let n_segs = (total.div_ceil(max)).max(1);
            let mut pkts = Vec::with_capacity(n_segs as usize);
            for seq in 0..n_segs {
                let start = u32::from(seq) * u32::from(max);
                let payload = (u32::from(total) - start).min(u32::from(max)) as u16;
                pkts.push(
                    PacketBuilder::new(self.cfg.node, header.clone(), payload, self.cfg.n_hosts)
                        .bits_per_flit(self.cfg.bits_per_flit)
                        .id(self.shared.pkt_ids.borrow_mut().next_id())
                        .msg(msg.id())
                        .segment(seq, n_segs)
                        .created(msg.created())
                        .build(),
                );
            }
            // Each worm is a separate software send.
            self.schedule_packets(now, pkts);
        }
    }

    /// Creates, registers and schedules one software-multicast hop message.
    fn send_hop(
        &mut self,
        now: Cycle,
        root: MessageId,
        root_created: Cycle,
        list: &Rc<Vec<NodeId>>,
        handoff: umin::Handoff,
        payload_flits: u16,
    ) {
        let hop_id = self.shared.msg_ids.borrow_mut().next_id();
        self.shared.coord.borrow_mut().register(
            hop_id,
            SwContext {
                root,
                list: list.clone(),
                my_idx: handoff.child,
                hi: handoff.hi,
                payload_flits,
                root_created,
            },
        );
        let child = list[handoff.child];
        let hop_msg = Message::new(
            hop_id,
            self.cfg.node,
            MessageKind::Unicast(child),
            payload_flits,
            now,
        );
        let max = self.max_payload(&RoutingHeader::Unicast { dest: child });
        let pkts = packetize(
            &hop_msg,
            max,
            self.cfg.n_hosts,
            self.cfg.bits_per_flit,
            &mut self.shared.pkt_ids.borrow_mut(),
        );
        self.schedule_packets(now, pkts);
        // Each hop is an independently recoverable unicast; the forwarding
        // context stays registered until the (sole surviving) copy claims it.
        self.track_send(
            now,
            &hop_msg,
            DestSet::from_nodes(self.cfg.n_hosts, [child]),
        );
    }

    /// A message finished reassembling at this host.
    fn on_message_complete(&mut self, id: MessageId, now: Cycle) {
        if id.0 & netsim::ids::SWITCH_MSG_BIT != 0 {
            // Switch-synthesized broadcast (barrier release): no tracker
            // entry exists; the protocol engine hook handles it.
            if let Some(hook) = &self.hook {
                hook.borrow_mut().on_delivered(id, self.cfg.node, now);
            }
            return;
        }
        // With recovery on, a retransmitted copy of an already-completed
        // message must be discarded before it reaches the tracker (which
        // treats double delivery as a protocol bug) or claims a forwarding
        // context a second time.
        if self.cfg.recovery.is_some()
            && !self
                .shared
                .recovery
                .borrow_mut()
                .first_delivery(id, self.cfg.node)
        {
            return;
        }
        let ctx = self.shared.coord.borrow_mut().claim(id);
        if let Some(ctx) = ctx {
            // Software-multicast hop: deliver the root message here, then
            // forward to our children after the receive overhead.
            self.shared
                .tracker
                .borrow_mut()
                .deliver(ctx.root, self.cfg.node, now);
            if let Some(hook) = &self.hook {
                hook.borrow_mut().on_delivered(ctx.root, self.cfg.node, now);
            }
            let handoffs = ctx.handoffs();
            if !handoffs.is_empty() {
                self.cpu_free_at = self
                    .cpu_free_at
                    .max(now + Cycle::from(self.cfg.recv_overhead));
                for h in handoffs {
                    self.send_hop(
                        now,
                        ctx.root,
                        ctx.root_created,
                        &ctx.list,
                        h,
                        ctx.payload_flits,
                    );
                }
            }
        } else {
            self.shared
                .tracker
                .borrow_mut()
                .deliver(id, self.cfg.node, now);
            if let Some(hook) = &self.hook {
                hook.borrow_mut().on_delivered(id, self.cfg.node, now);
            }
        }
    }

    /// Scans the retransmission wheel: clears acknowledged destinations,
    /// resends expired messages to whoever is still missing, and abandons
    /// messages that exhausted their retries.
    fn service_retries(&mut self, now: Cycle) {
        let Some(rcfg) = self.cfg.recovery.clone() else {
            return;
        };
        if self.outstanding.is_empty() {
            return;
        }
        let mut fire = Vec::new();
        let mut earliest = Cycle::MAX;
        {
            let mut rec = self.shared.recovery.borrow_mut();
            self.outstanding.retain(|id, o| {
                let acked: Vec<NodeId> = o
                    .remaining
                    .iter()
                    .filter(|&n| rec.is_acked(*id, n))
                    .collect();
                for n in acked {
                    o.remaining.remove(n);
                }
                if o.remaining.is_empty() {
                    return false;
                }
                if now >= o.deadline {
                    if o.attempts >= rcfg.max_retries {
                        rec.counters.gave_up += 1;
                        return false;
                    }
                    fire.push(*id);
                } else {
                    earliest = earliest.min(o.deadline);
                }
                true
            });
        }
        // Exact for the entries that did not fire; fired entries and the
        // sends their retransmissions track lower it below.
        self.next_deadline = earliest;
        // `retain` visits entries in hash order, which varies per process
        // and per thread; retransmission order feeds the shared packet-id
        // stream, so it must not. Fire in message-id order.
        fire.sort_unstable();
        for id in fire {
            let (msg, remaining, deadline) = {
                let o = self.outstanding.get_mut(&id).expect("entry retained");
                o.attempts += 1;
                o.deadline = rcfg.deadline_after(now, o.attempts);
                (o.msg.clone(), o.remaining.clone(), o.deadline)
            };
            self.next_deadline = self.next_deadline.min(deadline);
            let (n_packets, offloaded) = self.retransmit(now, &msg, &remaining);
            // Destinations handed to the U-Min fallback ride their own hop
            // ledger entries; leaving them here would retransmit the worm
            // (and respawn hops) forever, since hop deliveries ACK the hop
            // id, not the root.
            if !offloaded.is_empty() {
                if let Some(o) = self.outstanding.get_mut(&id) {
                    o.remaining.subtract(&offloaded);
                    if o.remaining.is_empty() {
                        self.outstanding.remove(&id);
                    }
                }
            }
            let mut rec = self.shared.recovery.borrow_mut();
            rec.counters.retransmits += 1;
            rec.counters.packets_retransmitted += n_packets;
        }
    }

    /// Re-injects `msg` toward exactly `remaining`; returns the number of
    /// worms scheduled plus the destinations offloaded to the U-Min
    /// fallback (which the caller must drop from the wheel entry). The
    /// resend carries the original message id (so receivers dedup and
    /// latency is charged from the first attempt) and pays the software
    /// send overhead again.
    fn retransmit(&mut self, now: Cycle, msg: &Message, remaining: &DestSet) -> (u64, DestSet) {
        let none = DestSet::empty(self.cfg.n_hosts);
        match (msg.kind(), self.cfg.scheme.clone()) {
            (MessageKind::Unicast(_), _) => {
                let max = self.max_payload(&RoutingHeader::Unicast {
                    dest: self.cfg.node,
                });
                let pkts = packetize(
                    msg,
                    max,
                    self.cfg.n_hosts,
                    self.cfg.bits_per_flit,
                    &mut self.shared.pkt_ids.borrow_mut(),
                );
                let n = pkts.len() as u64;
                self.schedule_packets(now, pkts);
                (n, none)
            }
            (MessageKind::Multicast(_), McastScheme::HardwareBitString) => {
                // One worm per segment, addressed only to the laggards —
                // re-split when the fabric degraded since the first send.
                let (worm, peeled) = match self
                    .mode
                    .as_ref()
                    .and_then(|m| m.split(self.cfg.node, remaining))
                {
                    Some(plan) => (plan.worm, plan.peeled),
                    None => (remaining.clone(), none),
                };
                let mut n = 0u64;
                if !worm.is_empty() {
                    n += self.send_worm(now, msg, &worm);
                }
                if !peeled.is_empty() {
                    self.send_peeled(now, msg.id(), msg.created(), &peeled, msg.payload_flits());
                }
                (n, peeled)
            }
            (MessageKind::Multicast(_), McastScheme::HardwareMultiport(tree)) => {
                // Replan worms over the shrunken set.
                let before = self.pending.iter().map(|(_, p)| p.len()).sum::<usize>();
                self.send_multiport(now, msg, remaining, &tree);
                let after = self.pending.iter().map(|(_, p)| p.len()).sum::<usize>();
                ((after - before) as u64, none)
            }
            (MessageKind::Multicast(_), McastScheme::SoftwareBinomial)
            | (MessageKind::BarrierGather { .. }, _) => {
                unreachable!("no retransmission wheel entries exist for this kind")
            }
        }
    }
}

impl Component for Host {
    fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>) {
        // Ejection: consume at link rate, reassemble.
        if let Some(flit) = io.recv(0) {
            io.return_credit(0);
            if flit.is_head() {
                self.worm_corrupt = false;
            }
            self.worm_corrupt |= flit.corrupted();
            self.rx_mid_worm = !flit.is_tail();
            if flit.is_tail() {
                let pkt = flit.packet().clone();
                if self.cfg.recovery.is_some() && !pkt.checksum_ok(self.worm_corrupt) {
                    // Failed CRC: drop the packet; the sender's timeout
                    // will resend it.
                    self.shared.recovery.borrow_mut().counters.corrupt_discards += 1;
                } else {
                    let entry = self.rx.entry(pkt.msg()).or_insert_with(|| RxState {
                        expected: pkt.n_packets(),
                        seqs: HashSet::new(),
                    });
                    entry.seqs.insert(pkt.seq());
                    if entry.seqs.len() == usize::from(entry.expected) {
                        self.rx.remove(&pkt.msg());
                        self.on_message_complete(pkt.msg(), now);
                    }
                }
            }
        }

        // Recovery: periodically service the retransmission wheel.
        if self.cfg.recovery.is_some() && now.is_multiple_of(RETRY_SCAN_INTERVAL) {
            self.service_retries(now);
        }

        // Generation.
        if let Some(spec) = self.source.poll(now) {
            self.send_message(now, spec);
        }

        // Software-ready packets move to the NIC queue.
        while self.pending.front().is_some_and(|(ready, _)| *ready <= now) {
            let (_, pkts) = self.pending.pop_front().expect("front exists");
            self.nic.extend(pkts);
        }

        // Quiesce gate: abort the worm being injected (the switches are
        // about to purge it) and toss queued packets — their headers were
        // planned against tables that are being replaced, and a stale
        // bit-string could be unroutable after the swap. Tracked messages
        // come back through the retransmission wheel.
        if self.mode.as_ref().is_some_and(|m| m.gated()) {
            let mode = self.mode.as_ref().expect("checked").clone();
            if self.tx.take().is_some() {
                mode.count_aborted_tx();
            }
            let dropped =
                (self.nic.len() + self.pending.iter().map(|(_, p)| p.len()).sum::<usize>()) as u64;
            if dropped > 0 {
                self.nic.clear();
                self.pending.clear();
                mode.count_dropped_queued(dropped);
            }
            return;
        }

        // Injection at link rate.
        if self.tx.is_none() {
            self.tx = self.nic.pop_front().map(|p| (p, 0));
        }
        if let Some((pkt, idx)) = &mut self.tx {
            if io.can_send(0) {
                io.send(0, Flit::new(pkt.clone(), *idx));
                *idx += 1;
                if *idx == pkt.total_flits() {
                    self.tx = None;
                }
            }
        }
    }

    /// An idle host — nothing to inject, no worm mid-way through its
    /// ejection port — sleeps until its source may fire next or, with
    /// messages awaiting ACKs, until the first retransmission scan at or
    /// after the earliest deadline. Earlier scans could only prune
    /// acknowledged destinations, and ACKs are never withdrawn, so the
    /// first scan that fires or gives up prunes exactly as much.
    /// Arriving flits wake it through the engine. Nothing else in a tick
    /// depends on the cycle, so the skipped ticks were no-ops.
    fn sleep_until(&mut self, now: Cycle) -> Option<Cycle> {
        if self.tx.is_some() || !self.nic.is_empty() || !self.pending.is_empty() || self.rx_mid_worm
        {
            return None;
        }
        let mut wake = self.source.next_fire(now);
        if self.cfg.recovery.is_some() && !self.outstanding.is_empty() {
            let next_scan = (now / RETRY_SCAN_INTERVAL + 1) * RETRY_SCAN_INTERVAL;
            let due = self
                .next_deadline
                .checked_next_multiple_of(RETRY_SCAN_INTERVAL)
                .unwrap_or(Cycle::MAX);
            wake = wake.min(due.max(next_scan));
        }
        (wake > now + 1).then_some(wake)
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Host({}, scheme {:?}, backlog {})",
            self.cfg.node,
            self.cfg.scheme,
            self.backlog()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ScheduledSource;
    use mintopo::route::RouteTables;
    use mintopo::topology::TopologyBuilder;
    use netsim::engine::Engine;
    use switches::{CentralBufferSwitch, SwitchConfig, SwitchStats};

    /// One CB switch, `n` hosts, all driven by scheduled sources.
    struct World {
        engine: Engine,
        shared: HostShared,
    }

    fn world(n: usize, scheme: McastScheme, schedules: Vec<Vec<(Cycle, MessageSpec)>>) -> World {
        world_with(n, scheme, schedules, None)
    }

    fn world_with(
        n: usize,
        scheme: McastScheme,
        schedules: Vec<Vec<(Cycle, MessageSpec)>>,
        recovery: Option<RecoveryConfig>,
    ) -> World {
        let mut b = TopologyBuilder::new(n);
        let sw = b.add_switch(8, 0);
        for h in 0..n {
            b.attach_host(NodeId::from(h), sw, h);
        }
        let topo = b.build();
        let tables = Rc::new(RouteTables::build(&topo));
        let swcfg = SwitchConfig::default();
        let shared = HostShared::new(n);
        let mut engine = Engine::new();
        let to_switch: Vec<_> = (0..8)
            .map(|_| engine.add_link(1, swcfg.staging_flits))
            .collect();
        let to_host: Vec<_> = (0..8).map(|_| engine.add_link(1, 8)).collect();
        let stats = Rc::new(RefCell::new(SwitchStats::default()));
        engine.add_component(
            Box::new(CentralBufferSwitch::new(sw, swcfg, tables, stats)),
            to_switch.clone(),
            to_host.clone(),
        );
        for (h, schedule) in schedules.into_iter().enumerate() {
            let cfg = HostConfig {
                node: NodeId::from(h),
                n_hosts: n,
                bits_per_flit: 8,
                max_packet_flits: 128,
                send_overhead: 40,
                recv_overhead: 20,
                scheme: scheme.clone(),
                recovery: recovery.clone(),
            };
            let host = Host::new(
                cfg,
                shared.clone(),
                Box::new(ScheduledSource::new(schedule)),
            );
            engine.add_component(Box::new(host), vec![to_host[h]], vec![to_switch[h]]);
        }
        World { engine, shared }
    }

    fn mcast_spec(dests: &[u32], n: usize, payload: u16) -> MessageSpec {
        MessageSpec {
            kind: MessageKind::Multicast(DestSet::from_nodes(n, dests.iter().map(|&d| NodeId(d)))),
            payload_flits: payload,
        }
    }

    #[test]
    fn unicast_end_to_end_latency_includes_overhead() {
        let spec = MessageSpec {
            kind: MessageKind::Unicast(NodeId(1)),
            payload_flits: 16,
        };
        let mut w = world(
            4,
            McastScheme::HardwareBitString,
            vec![vec![(1, spec)], vec![], vec![], vec![]],
        );
        w.engine.run_for(300);
        let t = w.shared.tracker.borrow();
        assert_eq!(t.completed_unicasts(), 1);
        let lat = t.unicast.summary().max;
        // send_overhead (40) + 18 flits serialization + switch pipeline.
        assert!(lat >= 58, "latency {lat} too small");
        assert!(lat <= 90, "latency {lat} unexpectedly large");
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn hardware_multicast_delivers_to_all() {
        let spec = mcast_spec(&[1, 2, 3], 4, 32);
        let mut w = world(
            4,
            McastScheme::HardwareBitString,
            vec![vec![(1, spec)], vec![], vec![], vec![]],
        );
        w.engine.run_for(500);
        let t = w.shared.tracker.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.deliveries(), 3);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn software_multicast_delivers_to_all_and_is_slower() {
        let run = |scheme: McastScheme| -> u64 {
            let spec = mcast_spec(&[1, 2, 3, 4, 5, 6, 7], 8, 32);
            let mut w = world(8, scheme, {
                let mut v = vec![vec![(1, spec)]];
                v.extend((1..8).map(|_| vec![]));
                v
            });
            w.engine.run_for(3000);
            let t = w.shared.tracker.borrow();
            assert_eq!(t.completed_mcasts(), 1);
            assert_eq!(t.deliveries(), 7);
            assert_eq!(t.outstanding(), 0);
            t.mcast_last.summary().max
        };
        let hw = run(McastScheme::HardwareBitString);
        let sw = run(McastScheme::SoftwareBinomial);
        assert!(
            sw > hw,
            "software multicast ({sw}) must be slower than hardware ({hw})"
        );
        // 7 destinations -> 3 phases, each costing >= send_overhead.
        assert!(sw >= hw + 80, "sw {sw} vs hw {hw}");
    }

    #[test]
    fn long_message_is_segmented_and_reassembled() {
        let spec = MessageSpec {
            kind: MessageKind::Unicast(NodeId(2)),
            payload_flits: 500, // > 126-flit max payload -> 4 packets
        };
        let mut w = world(
            4,
            McastScheme::HardwareBitString,
            vec![vec![(1, spec)], vec![], vec![], vec![]],
        );
        w.engine.run_for(2000);
        let t = w.shared.tracker.borrow();
        assert_eq!(t.completed_unicasts(), 1);
        assert_eq!(t.payload_delivered(), 500);
    }

    #[test]
    fn software_multicast_including_the_sender_self_delivers() {
        let mut dests = DestSet::from_nodes(4, [0, 2].map(NodeId));
        dests.insert(NodeId(0));
        let spec = MessageSpec {
            kind: MessageKind::Multicast(dests),
            payload_flits: 8,
        };
        let mut w = world(
            4,
            McastScheme::SoftwareBinomial,
            vec![vec![(1, spec)], vec![], vec![], vec![]],
        );
        w.engine.run_for(1000);
        let t = w.shared.tracker.borrow();
        assert_eq!(t.completed_mcasts(), 1);
        assert_eq!(t.deliveries(), 2, "self + host 2");
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn retransmit_race_dedups_and_settles() {
        // Timeout far below the delivery latency: the sender retransmits
        // while the original copy is still in flight, so the ACK lands
        // after a retransmission already fired and the receivers see
        // several copies of the same message.
        let rcfg = RecoveryConfig {
            timeout: 32,
            timeout_cap: 32,
            max_retries: 8,
        };
        let spec = mcast_spec(&[1, 2, 3], 4, 16);
        let mut w = world_with(
            4,
            McastScheme::HardwareBitString,
            vec![vec![(1, spec)], vec![], vec![], vec![]],
            Some(rcfg),
        );
        w.engine.run_for(4_000);
        let t = w.shared.tracker.borrow();
        assert_eq!(t.completed_mcasts(), 1, "one logical completion");
        assert_eq!(t.deliveries(), 3, "no double delivery");
        assert_eq!(t.outstanding(), 0);
        drop(t);
        let rec = w.shared.recovery.borrow();
        assert!(rec.counters.retransmits >= 1, "the race actually happened");
        assert!(
            rec.counters.duplicate_discards >= 1,
            "duplicate copies were discarded, not re-delivered"
        );
        assert_eq!(rec.counters.gave_up, 0, "acks eventually stop the wheel");
    }

    #[test]
    fn multicast_latency_last_definition() {
        // Two destinations: one on the same switch "near", both reachable;
        // last-delivery must be >= average-delivery.
        let spec = mcast_spec(&[1, 3], 4, 64);
        let mut w = world(
            4,
            McastScheme::HardwareBitString,
            vec![vec![(1, spec)], vec![], vec![], vec![]],
        );
        w.engine.run_for(600);
        let t = w.shared.tracker.borrow();
        let last = t.mcast_last.summary().max;
        let avg = t.mcast_avg.summary().max;
        assert!(last >= avg);
    }

    /// A source that never fires and lets its host sleep indefinitely.
    struct Idle;
    impl TrafficSource for Idle {
        fn poll(&mut self, _now: Cycle) -> Option<MessageSpec> {
            None
        }
        fn next_fire(&mut self, _now: Cycle) -> Cycle {
            Cycle::MAX
        }
    }

    #[test]
    fn idle_host_sleeps_until_the_scan_at_or_after_its_earliest_deadline() {
        let rcfg = RecoveryConfig {
            timeout: 100,
            ..RecoveryConfig::default()
        };
        let cfg = HostConfig {
            node: NodeId(0),
            n_hosts: 4,
            bits_per_flit: 8,
            max_packet_flits: 128,
            send_overhead: 40,
            recv_overhead: 20,
            scheme: McastScheme::HardwareBitString,
            recovery: Some(rcfg),
        };
        let mut host = Host::new(cfg, HostShared::new(4), Box::new(Idle));
        assert_eq!(host.sleep_until(5), Some(Cycle::MAX), "nothing outstanding");
        let msg = |id| {
            Message::new(
                MessageId(id),
                NodeId(0),
                MessageKind::Unicast(NodeId(1)),
                4,
                0,
            )
        };
        let to_1 = || DestSet::from_nodes(4, [NodeId(1)]);
        host.track_send(5, &msg(1), to_1()); // deadline 105
        host.track_send(9, &msg(2), to_1()); // deadline 109
        assert_eq!(host.sleep_until(9), Some(112), "first scan at or after 105");
        assert_eq!(host.sleep_until(110), Some(112));
        assert_eq!(
            host.sleep_until(112),
            Some(128),
            "a past deadline waits for the next scan"
        );
        host.next_deadline = Cycle::MAX - 3;
        assert_eq!(
            host.sleep_until(9),
            Some(Cycle::MAX),
            "no wrap past the last cycle"
        );
    }
}
