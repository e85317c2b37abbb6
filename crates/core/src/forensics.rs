//! Deadlock forensics: what exactly was stuck, and why.
//!
//! When the watchdog in [`crate::sim::run_experiment`] sees in-flight
//! traffic make no progress, a bare "deadlocked: true" is useless for
//! debugging a routing or replication protocol. This module captures a
//! structured [`DeadlockReport`] instead:
//!
//! * every switch's buffer occupancy and the worms that could not advance
//!   (with their remaining destination sets and FSM state);
//! * a **channel wait-for graph**: for each blocked worm, an edge from
//!   every link/transmitter resource it *holds* to every one it *waits*
//!   for;
//! * one explicit cycle in that graph, found by depth-first search — the
//!   circular wait that proves (and locates) the deadlock.
//!
//! Capture is cooperative: the harness raises the `forensics_requested`
//! flag on every [`switches::SwitchStats`] and runs one more cycle; each
//! switch deposits a [`switches::SwitchSnapshot`] at the end of its tick.
//! In a deadlock nothing can move, so the extra cycle perturbs no state.

use crate::build::System;
use netsim::ids::LinkId;
use netsim::Cycle;
use std::collections::HashMap;
use switches::SwitchSnapshot;

/// One switch's snapshot, tagged with its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchDump {
    /// Switch index.
    pub switch: usize,
    /// The captured state.
    pub snapshot: SwitchSnapshot,
}

/// A wait-for edge between two links: a worm holding `from_link` (its
/// input buffer or an acquired transmitter) needs `to_link` to advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaitEdge {
    /// Link whose buffer/transmitter the blocked worm occupies.
    pub from_link: usize,
    /// Link the worm is waiting to acquire or get credits on.
    pub to_link: usize,
    /// Switch at which the dependency was observed.
    pub switch: usize,
}

/// Structured description of a detected deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle at which the snapshot was taken.
    pub at_cycle: Cycle,
    /// Cycle of the last observed global flit progress before the
    /// watchdog fired. `at_cycle - last_progress_cycle` is how long the
    /// fabric sat frozen before the harness gave up on it.
    pub last_progress_cycle: Cycle,
    /// Messages still undelivered.
    pub outstanding_messages: usize,
    /// Per-switch state, omitting completely idle switches.
    pub switches: Vec<SwitchDump>,
    /// The full channel wait-for graph (deduplicated, sorted).
    pub wait_edges: Vec<WaitEdge>,
    /// Link indices forming one circular wait (`cycle[0]` is reachable
    /// again from `cycle.last()`); empty if the graph is acyclic, e.g.
    /// when the stall is livelock or an undrained fault outage instead of
    /// a true circular wait.
    pub cycle: Vec<usize>,
}

/// Captures a [`DeadlockReport`] from a stuck system. `last_progress` is
/// the cycle the caller's watchdog last saw a flit move.
///
/// Runs the engine for one extra cycle so every switch can deposit its
/// snapshot (harmless: nothing can move in a deadlock).
pub fn capture_deadlock_report(sys: &mut System, last_progress: Cycle) -> DeadlockReport {
    for st in &sys.switch_stats {
        st.borrow_mut().forensics_requested = true;
    }
    // The request flag is out-of-band state the engine's wake protocol
    // cannot see — wake sleeping switches so every one deposits a
    // snapshot during the extra cycle.
    sys.engine.wake_all();
    sys.engine.run_for(1);

    let mut switches = Vec::new();
    let mut edges = Vec::new();
    for (s, st) in sys.switch_stats.iter().enumerate() {
        let Some(snap) = st.borrow_mut().forensics.take() else {
            continue;
        };
        for w in &snap.blocked {
            let mut holds: Vec<LinkId> =
                w.holds_outputs.iter().map(|&p| sys.sw_out[s][p]).collect();
            if let Some(i) = w.input {
                holds.push(sys.sw_in[s][i]);
            }
            for &h in &holds {
                for &p in &w.waits_outputs {
                    let t = sys.sw_out[s][p];
                    if h != t {
                        edges.push(WaitEdge {
                            from_link: h.index(),
                            to_link: t.index(),
                            switch: s,
                        });
                    }
                }
            }
        }
        let interesting = !snap.blocked.is_empty()
            || snap.cq_used_chunks > 0
            || snap.input_occupancy.iter().any(|&o| o > 0);
        if interesting {
            switches.push(SwitchDump {
                switch: s,
                snapshot: snap,
            });
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let cycle = find_cycle(&edges);
    DeadlockReport {
        at_cycle: sys.engine.now(),
        last_progress_cycle: last_progress,
        outstanding_messages: sys.tracker().borrow().outstanding(),
        switches,
        wait_edges: edges,
        cycle,
    }
}

/// Finds one cycle in the wait-for graph by DFS (white/gray/black), or
/// returns an empty vec. Deterministic: roots and successors are visited
/// in sorted order.
pub fn find_cycle(edges: &[WaitEdge]) -> Vec<usize> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for e in edges {
        adj.entry(e.from_link).or_default().push(e.to_link);
    }
    for succ in adj.values_mut() {
        succ.sort_unstable();
        succ.dedup();
    }

    fn dfs(
        v: usize,
        adj: &HashMap<usize, Vec<usize>>,
        color: &mut HashMap<usize, u8>,
        path: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color.insert(v, 1); // gray: on the current path
        path.push(v);
        for &w in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            match color.get(&w).copied().unwrap_or(0) {
                0 => {
                    if let Some(c) = dfs(w, adj, color, path) {
                        return Some(c);
                    }
                }
                1 => {
                    let start = path.iter().position(|&x| x == w).expect("gray is on path");
                    return Some(path[start..].to_vec());
                }
                _ => {} // black: fully explored, no cycle through it
            }
        }
        path.pop();
        color.insert(v, 2);
        None
    }

    let mut roots: Vec<usize> = adj.keys().copied().collect();
    roots.sort_unstable();
    let mut color = HashMap::new();
    let mut path = Vec::new();
    for r in roots {
        if color.get(&r).copied().unwrap_or(0) == 0 {
            if let Some(c) = dfs(r, &adj, &mut color, &mut path) {
                return c;
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod system_tests {
    use super::*;
    use crate::build::build_system;
    use crate::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
    use collectives::{MessageSpec, ScheduledSource, SilentSource, TrafficSource};
    use netsim::destset::DestSet;
    use netsim::ids::NodeId;
    use netsim::message::MessageKind;
    use switches::ReplicationMode;

    #[test]
    fn crossed_sync_grants_deadlock_with_explicit_cycle() {
        // System-level version of the crossed-grant deadlock the paper's §3
        // uses to reject synchronous replication: a warm-up unicast from
        // host 1 to host 3 rotates output 3's grant pointer past input 0,
        // so when the multicasts from hosts 0 and 2 (both to {2, 3}) decode
        // together, input 0 wins output 2 while input 2 wins output 3.
        // Under lock-step replication each holds what the other needs.
        let mut cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 1 },
            arch: SwitchArch::InputBuffered,
            mcast: McastImpl::HwBitString,
            ..SystemConfig::default()
        };
        cfg.switch.replication = ReplicationMode::Synchronous;
        let n = cfg.n_hosts();
        let mcast = MessageSpec {
            kind: MessageKind::Multicast(DestSet::from_nodes(n, [2, 3].map(NodeId))),
            payload_flits: 48,
        };
        let mut sources: Vec<Box<dyn TrafficSource>> = (0..n)
            .map(|_| Box::new(SilentSource) as Box<dyn TrafficSource>)
            .collect();
        sources[1] = Box::new(ScheduledSource::new(vec![(
            1,
            MessageSpec {
                kind: MessageKind::Unicast(NodeId(3)),
                payload_flits: 8,
            },
        )]));
        sources[0] = Box::new(ScheduledSource::new(vec![(200, mcast.clone())]));
        sources[2] = Box::new(ScheduledSource::new(vec![(200, mcast)]));
        let mut sys = build_system(cfg, sources, None);

        // Run until nothing has moved for a long grace period.
        let mut last_moves = sys.engine.total_flit_moves();
        let mut last_progress = sys.engine.now();
        while sys.engine.now() < 30_000 {
            sys.engine.run_for(200);
            let moves = sys.engine.total_flit_moves();
            if moves != last_moves {
                last_moves = moves;
                last_progress = sys.engine.now();
            } else if sys.engine.now() - last_progress >= 3_000 {
                break;
            }
        }
        assert!(
            sys.tracker().borrow().outstanding() > 0,
            "the crossed multicasts must wedge"
        );

        let report = capture_deadlock_report(&mut sys, last_progress);
        assert!(report.outstanding_messages > 0);
        assert_eq!(report.last_progress_cycle, last_progress);
        assert!(report.at_cycle > report.last_progress_cycle);
        assert!(!report.switches.is_empty());
        let worms: Vec<_> = report
            .switches
            .iter()
            .flat_map(|d| &d.snapshot.blocked)
            .collect();
        assert!(
            worms
                .iter()
                .any(|w| w.state == "head-blocked" && w.remaining_dests == vec![2, 3]),
            "blocked multicasts keep their remaining destination set: {worms:?}"
        );
        assert!(
            !report.cycle.is_empty(),
            "crossed grants are a circular wait: {report:?}"
        );
        for (i, &from) in report.cycle.iter().enumerate() {
            let to = report.cycle[(i + 1) % report.cycle.len()];
            assert!(
                report
                    .wait_edges
                    .iter()
                    .any(|e| e.from_link == from && e.to_link == to),
                "cycle edge {from}->{to} missing from the graph"
            );
        }
        // JSON round-trips the essentials.
        let json = crate::report::deadlock_json(&report);
        assert!(json.contains("\"cycle\": ["));
        assert!(json.contains("head-blocked"));
        assert!(json.contains(&format!("\"last_progress_cycle\": {last_progress}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(from: usize, to: usize) -> WaitEdge {
        WaitEdge {
            from_link: from,
            to_link: to,
            switch: 0,
        }
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        assert!(find_cycle(&[e(0, 1), e(1, 2), e(0, 2)]).is_empty());
    }

    #[test]
    fn simple_two_cycle_is_found() {
        assert_eq!(find_cycle(&[e(3, 7), e(7, 3)]), vec![3, 7]);
    }

    #[test]
    fn cycle_behind_a_tail_is_found() {
        // 0 -> 1 -> 2 -> 3 -> 1: the cycle excludes the entry tail.
        let cycle = find_cycle(&[e(0, 1), e(1, 2), e(2, 3), e(3, 1)]);
        assert_eq!(cycle, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_across_edge_orderings() {
        let mut edges = vec![e(5, 9), e(9, 5), e(2, 3), e(3, 2)];
        let a = find_cycle(&edges);
        edges.reverse();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(a, find_cycle(&sorted));
        assert_eq!(a, vec![2, 3], "lowest-numbered root wins");
    }
}
