//! The resident service loop.
//!
//! [`RoutedService`] owns a [`System`] — which is `!Send` (`Rc`-linked
//! cores), so exactly one thread ever touches it — plus the storm
//! controller and the multicast group table. Reader threads (stdin, TCP
//! clients, the script driver) parse lines into
//! [`Envelope`](super::queue::Envelope)s and submit them through the
//! bounded queue ([`super::queue::submit`]); the service loop drains
//! envelopes, answers queries from the live fabric state, applies fabric
//! events, and advances the engine one slice at a time while idle.

use super::metrics::ServiceMetrics;
use super::proto::{LinkRef, Request};
use super::queue::{Envelope, ShedCounter};
use super::storm::StormResponder;
use super::RoutedConfig;
use crate::build::{build_system, System};
use crate::config::SystemConfig;
use crate::workload::{make_sources, TrafficSpec};
use collectives::{DegradePlanner, Rung};
use mintopo::route::McastPlan;
use netsim::destset::DestSet;
use netsim::ids::{LinkId, NodeId};
use netsim::Cycle;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// The resident control service.
pub struct RoutedService {
    sys: System,
    storm: StormResponder,
    routed: RoutedConfig,
    groups: BTreeMap<u64, DestSet>,
    shed: ShedCounter,
    queries_served: u64,
    events_in: u64,
}

impl std::fmt::Debug for RoutedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedService")
            .field("routed", &self.routed)
            .field("groups", &self.groups.len())
            .field("queries_served", &self.queries_served)
            .field("events_in", &self.events_in)
            .finish_non_exhaustive()
    }
}

impl RoutedService {
    /// Builds the service around a fresh idle fabric (hosts attached but
    /// generating no traffic — all payload movement is driven by fabric
    /// events and the U-Min/recovery machinery). `response` and `routed`
    /// blocks default when absent.
    ///
    /// # Errors
    ///
    /// The first static-analysis error of the configuration, verbatim —
    /// the service refuses to come up on a fabric the analyzer rejects.
    pub fn new(mut cfg: SystemConfig) -> Result<RoutedService, String> {
        let routed = cfg.routed.clone().unwrap_or_default();
        let response = cfg.response.clone().unwrap_or_default();
        cfg.response = Some(response.clone());
        cfg.routed = Some(routed.clone());
        if let Some(d) = cfg.report().first_error() {
            return Err(format!("config rejected: {}", d.message));
        }
        let n = cfg.n_hosts();
        let sources = make_sources(&TrafficSpec::unicast(0.0, 16), n, cfg.seed, Some(0));
        let mut sys = build_system(cfg, sources, None);
        let storm = StormResponder::new(routed.clone(), response, &mut sys);
        Ok(RoutedService {
            sys,
            storm,
            routed,
            groups: BTreeMap::new(),
            shed: ShedCounter::new(),
            queries_served: 0,
            events_in: 0,
        })
    }

    /// The configured request-queue bound (for sizing the sync channel).
    pub fn queue_cap(&self) -> usize {
        self.routed.queue_cap
    }

    /// The shed counter reader threads must bump (clone it into each).
    pub fn shed_counter(&self) -> ShedCounter {
        self.shed.clone()
    }

    /// The owned system (tests poke the engine directly).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// The storm controller (rung, counters, responder).
    pub fn storm(&self) -> &StormResponder {
        &self.storm
    }

    /// Advances the fabric by `cycles`, ticking storm control at the
    /// slice cadence. Cycles consumed by response protocols (quiesce,
    /// purge) count toward the budget, so a `step` during a storm
    /// returns close to, not far past, the requested cycle.
    pub fn advance(&mut self, cycles: Cycle) {
        let end = self.sys.engine.now().saturating_add(cycles);
        while self.sys.engine.now() < end {
            let step = self.routed.slice.min(end - self.sys.engine.now());
            self.sys.engine.run_for(step);
            self.storm.tick(&mut self.sys);
        }
    }

    fn fmt_set(set: &DestSet) -> String {
        let ids: Vec<String> = set.iter().map(|n| n.index().to_string()).collect();
        if ids.is_empty() {
            "-".to_string()
        } else {
            ids.join(",")
        }
    }

    fn check_host(&self, h: usize, what: &str) -> Result<NodeId, String> {
        if h < self.sys.n_hosts() {
            Ok(NodeId::from(h))
        } else {
            Err(format!(
                "err {what} {h} out of range (fabric has {} hosts)",
                self.sys.n_hosts()
            ))
        }
    }

    /// Coverage plan for `dests` from `src` under the current rung and
    /// tables. Queries never touch the traffic counters.
    fn plan(&self, src: NodeId, dests: &DestSet) -> McastPlan {
        if self.storm.rung() >= Rung::UMinOnly {
            return McastPlan {
                worm: DestSet::empty(dests.universe()),
                peeled: dests.clone(),
            };
        }
        DegradePlanner {
            tables: self.sys.tables.clone(),
            topo: self.sys.topology.clone(),
            policy: self.sys.config.switch.policy,
            max_hops: self.sys.config.response.as_ref().map_or(64, |r| r.max_hops),
        }
        .split(src, dests)
    }

    /// Applies one request and returns its one-line reply. Never panics
    /// on client input; every failure is an `err ...` line.
    pub fn handle(&mut self, req: &Request) -> String {
        match req {
            Request::LinkDown(link) | Request::LinkUp(link) => {
                let down = matches!(req, Request::LinkDown(_));
                let (id, label) = match *link {
                    LinkRef::Raw(id) => {
                        if id >= self.sys.engine.n_links() {
                            return format!(
                                "err link {id} out of range (fabric has {} links)",
                                self.sys.engine.n_links()
                            );
                        }
                        (LinkId::from(id), format!("{id}"))
                    }
                    LinkRef::Fabric(k) => {
                        let fabric = &self.sys.links.fabric;
                        let Some(&id) = fabric.get(k) else {
                            return format!(
                                "err fabric link f{k} out of range ({} fabric links)",
                                fabric.len()
                            );
                        };
                        (id, format!("f{k}"))
                    }
                };
                self.events_in += 1;
                self.sys.engine.set_link_forced_down(id, down);
                format!("ok link {label} {}", if down { "down" } else { "up" })
            }
            Request::Join { group, host } | Request::Leave { group, host } => {
                let node = match self.check_host(*host, "host") {
                    Ok(n) => n,
                    Err(e) => return e,
                };
                self.events_in += 1;
                let n = self.sys.n_hosts();
                let set = self
                    .groups
                    .entry(*group)
                    .or_insert_with(|| DestSet::empty(n));
                if matches!(req, Request::Join { .. }) {
                    set.insert(node);
                } else {
                    set.remove(node);
                }
                let size = set.count();
                if size == 0 {
                    self.groups.remove(group);
                }
                format!("ok group {group} size {size}")
            }
            Request::Route { src, dests } => {
                let src = match self.check_host(*src, "source") {
                    Ok(n) => n,
                    Err(e) => return e,
                };
                let mut set = DestSet::empty(self.sys.n_hosts());
                for d in dests {
                    match self.check_host(*d, "destination") {
                        Ok(n) => {
                            set.insert(n);
                        }
                        Err(e) => return e,
                    }
                }
                self.queries_served += 1;
                let plan = self.plan(src, &set);
                format!(
                    "ok worm={} peeled={} rung={}",
                    Self::fmt_set(&plan.worm),
                    Self::fmt_set(&plan.peeled),
                    self.storm.rung()
                )
            }
            Request::RouteGroup { src, group } => {
                let src = match self.check_host(*src, "source") {
                    Ok(n) => n,
                    Err(e) => return e,
                };
                let Some(set) = self.groups.get(group).cloned() else {
                    return format!("err unknown group {group}");
                };
                self.queries_served += 1;
                let plan = self.plan(src, &set);
                format!(
                    "ok worm={} peeled={} rung={}",
                    Self::fmt_set(&plan.worm),
                    Self::fmt_set(&plan.peeled),
                    self.storm.rung()
                )
            }
            Request::Reach(src) => {
                let node = match self.check_host(*src, "source") {
                    Ok(n) => n,
                    Err(e) => return e,
                };
                self.queries_served += 1;
                let n = self.sys.n_hosts();
                let mut all = DestSet::full(n);
                all.remove(node);
                let plan = self.plan(node, &all);
                format!(
                    "ok coverable={}/{} rung={}",
                    plan.worm.count(),
                    n - 1,
                    self.storm.rung()
                )
            }
            Request::Health => {
                self.queries_served += 1;
                let resp = self.storm.responder();
                let c = resp.counters();
                format!(
                    "ok rung={} masked={} suppressed={} gated={} now={} \
                     links_down={} links_up={} reroutes={} rejected={} heals={} \
                     stale={} purges={} purges_incomplete={} events_dropped={}",
                    self.storm.rung(),
                    resp.masked_ports().len(),
                    resp.suppressed().len(),
                    u8::from(self.sys.fabric_mode.gated()),
                    self.sys.engine.now(),
                    c.links_down,
                    c.links_up,
                    c.reroutes,
                    c.reroutes_rejected,
                    c.heals,
                    c.stale_detects,
                    c.purges,
                    c.purges_incomplete,
                    resp.events().dropped(),
                )
            }
            Request::Metrics => {
                self.queries_served += 1;
                format!("ok {}", self.metrics().render())
            }
            Request::Step(n) => {
                let now = self.sys.engine.now();
                if now.checked_add(*n).is_none() {
                    return format!("err step {n} overflows the cycle counter at now={now}");
                }
                self.events_in += 1;
                self.advance(*n);
                format!("ok now={}", self.sys.engine.now())
            }
            Request::Quit => "ok bye".to_string(),
        }
    }

    /// The current metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let resp = self.storm.responder();
        let sc = self.storm.counters();
        let mut m = ServiceMetrics::from_series(resp.latency(), resp.vet_stats());
        m.queries_served = self.queries_served;
        m.queries_shed = self.shed.get();
        m.events_in = self.events_in;
        m.retries = sc.retries;
        m.watchdog_trips = sc.watchdog_trips;
        m.ladder_transitions = self.storm.ladder_transitions();
        m.rung = self.storm.rung();
        m.events_dropped = resp.events().dropped();
        m
    }

    /// The service loop: drains envelopes until `Quit` arrives or every
    /// sender hangs up. With `idle_advance` set, the fabric advances one
    /// slice per ~millisecond of queue silence (the resident mode);
    /// without it, time only moves on explicit `step` requests (the
    /// deterministic script mode).
    pub fn run(&mut self, rx: &Receiver<Envelope>, idle_advance: bool) {
        loop {
            let env = if idle_advance {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(env) => Some(env),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match rx.recv() {
                    Ok(env) => Some(env),
                    Err(_) => break,
                }
            };
            match env {
                Some(env) => {
                    let quit = matches!(env.req, Request::Quit);
                    let reply = self.handle(&env.req);
                    let _ = env.reply.send(reply);
                    if quit {
                        break;
                    }
                }
                None => self.advance(self.routed.slice),
            }
        }
    }
}
