//! Whole-system configuration: topology, switch architecture, multicast
//! scheme, timing.
//!
//! Validation is layered on the static analyzer (`mdw-analysis`):
//! [`SystemConfig::report`] runs every check — switch buffer sizing,
//! system-level consistency, channel-dependency-graph acyclicity, header
//! round-trips — into one [`ConfigReport`], and the legacy
//! [`SystemConfig::validate`] surfaces that report's first error as a
//! [`ConfigError`] so `Result`-based callers keep working unchanged.

use crate::respond::ResponseConfig;
use collectives::RecoveryConfig;
use mdw_analysis::{
    analyze_fabric, switch_sizing, ArchClass, ConfigReport, ModelMode, ModelOptions,
};
use mintopo::irregular::Irregular;
use mintopo::karytree::KaryTree;
use mintopo::route::{ReplicatePolicy, RouteTables};
use mintopo::topology::Topology;
use mintopo::unimin::UniMin;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use switches::{ConfigError, SwitchConfig};

/// Which network to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Bidirectional MIN / fat-tree with `k^n` hosts (the paper's
    /// evaluation topology; `k = 4`, `n = 3` is the 64-processor default).
    KaryTree {
        /// Arity (half the switch ports).
        k: usize,
        /// Stages.
        n: usize,
    },
    /// Unidirectional butterfly MIN with `k^n` hosts.
    UniMin {
        /// Arity.
        k: usize,
        /// Stages.
        n: usize,
    },
    /// Random irregular network (NOW-style) with up*/down* routing.
    Irregular {
        /// Number of switches.
        switches: usize,
        /// Ports per switch.
        ports: usize,
        /// Number of hosts.
        hosts: usize,
        /// Extra links beyond the spanning tree.
        extra_links: usize,
        /// Generation seed.
        seed: u64,
    },
}

impl TopologyKind {
    /// Number of hosts this topology provides.
    pub fn n_hosts(&self) -> usize {
        match *self {
            TopologyKind::KaryTree { k, n } | TopologyKind::UniMin { k, n } => k.pow(n as u32),
            TopologyKind::Irregular { hosts, .. } => hosts,
        }
    }

    /// Ports per switch.
    pub fn switch_ports(&self) -> usize {
        match *self {
            TopologyKind::KaryTree { k, .. } | TopologyKind::UniMin { k, .. } => 2 * k,
            TopologyKind::Irregular { ports, .. } => ports,
        }
    }
}

/// Which switch architecture to instantiate (the paper's alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchArch {
    /// Shared central queue with chunk-refcount replication (paper §4).
    #[default]
    CentralBuffer,
    /// Per-input packet buffers with cursor replication (paper §5).
    InputBuffered,
}

impl From<SwitchArch> for ArchClass {
    fn from(arch: SwitchArch) -> Self {
        match arch {
            SwitchArch::CentralBuffer => ArchClass::CentralBuffer,
            SwitchArch::InputBuffered => ArchClass::InputBuffered,
        }
    }
}

/// Which multicast implementation hosts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McastImpl {
    /// Single-phase bit-string multidestination worms.
    #[default]
    HwBitString,
    /// Multiport-encoded worms (k-ary trees only).
    HwMultiport,
    /// U-Min binomial software multicast.
    SwBinomial,
}

impl McastImpl {
    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            McastImpl::HwBitString => "HW-bitstring",
            McastImpl::HwMultiport => "HW-multiport",
            McastImpl::SwBinomial => "SW-binomial",
        }
    }
}

impl SwitchArch {
    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            SwitchArch::CentralBuffer => "CB",
            SwitchArch::InputBuffered => "IB",
        }
    }
}

/// Complete system description.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Network shape.
    pub topology: TopologyKind,
    /// Switch buffer organization.
    pub arch: SwitchArch,
    /// Host multicast scheme.
    pub mcast: McastImpl,
    /// Per-switch parameters (`ports` is overridden from the topology).
    pub switch: SwitchConfig,
    /// Link propagation delay in cycles.
    pub link_delay: u32,
    /// Credit window of switch→host ejection links.
    pub host_eject_credits: u32,
    /// Payload bits per flit.
    pub bits_per_flit: usize,
    /// Host software send overhead, cycles.
    pub send_overhead: u32,
    /// Host software receive(-and-forward) overhead, cycles.
    pub recv_overhead: u32,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Enables barrier-gather combining in the switches (central-buffer
    /// architecture only; the hardware-barrier extension of §9 / \[34\]).
    pub barrier_combining: bool,
    /// End-to-end recovery (ACK/timeout/retransmit) parameters for the
    /// hosts; `None` disables recovery, keeping fault-free runs
    /// bit-identical to builds without the fault layer.
    pub recovery: Option<RecoveryConfig>,
    /// Online fault response (debounced detection, quiesce, vetted
    /// reroute, graceful degradation); `None` disables the responder.
    pub response: Option<ResponseConfig>,
    /// Decomposition strategy of the bounded model check backing the
    /// fault responder's deep reroute vet (config key `model.mode`):
    /// exact joint exploration, per-switch compositional checking, or
    /// size-driven automatic selection. See DESIGN.md §14.
    pub model_mode: ModelMode,
    /// Enables the engine's per-cycle torn-install audit (config key
    /// `epoch.audit`): every cycle, committed table epochs must agree
    /// across all switches unless the laggards hold an armed commit at
    /// the frontier epoch. Surfaced as
    /// [`crate::sim::RunOutcome::torn_cycles`]; see DESIGN.md §15.
    pub epoch_audit: bool,
}

impl Default for SystemConfig {
    /// The paper-style default: 64 processors (4-ary 3-tree of 8-port
    /// switches), central-buffer switches, bit-string hardware multicast,
    /// SP2-class buffer sizes, 1 µs send / 0.5 µs receive overheads at
    /// 40 MHz (40 / 20 cycles).
    fn default() -> Self {
        SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 3 },
            arch: SwitchArch::CentralBuffer,
            mcast: McastImpl::HwBitString,
            switch: SwitchConfig::default(),
            link_delay: 1,
            host_eject_credits: 8,
            bits_per_flit: 8,
            send_overhead: 40,
            recv_overhead: 20,
            seed: 0xD0E5_1997,
            barrier_combining: false,
            recovery: None,
            response: None,
            model_mode: ModelMode::Auto,
            epoch_audit: false,
        }
    }
}

impl SystemConfig {
    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.topology.n_hosts()
    }

    /// The switch configuration with the port count the topology dictates.
    pub fn effective_switch(&self) -> SwitchConfig {
        SwitchConfig {
            ports: self.topology.switch_ports(),
            ..self.switch.clone()
        }
    }

    /// Runs the full static analysis — switch buffer sizing, system-level
    /// consistency, and (when the cheap checks pass) the fabric pass:
    /// channel-dependency-graph cycle detection and header round-trip
    /// linting over the actual topology — into one unified
    /// [`ConfigReport`].
    ///
    /// Check order matches the historical `validate()` behavior, so
    /// [`ConfigReport::first_error`] names the same violation the legacy
    /// `Result` interface always has. The fabric pass is skipped when an
    /// earlier check already failed (building routing tables for a config
    /// with broken sizing would only bury the root cause). A per-thread
    /// table (at most `FABRIC_VERDICT_CAP` fabrics) holds each built
    /// fabric — topology and route tables, which `build_system` then
    /// wires, and a k-ary tree once multiport encoding asks for it — plus the
    /// pass's verdict per replication policy; a repeat returns the same
    /// report without building the topology.
    pub fn report(&self) -> ConfigReport {
        let mut report = ConfigReport::new();
        // Every later check reads the host count, and the fabric pass
        // builds the topology, so a shape its constructor rejects ends the
        // report here.
        let shape_error = match self.topology {
            TopologyKind::KaryTree { k, n } | TopologyKind::UniMin { k, n } => {
                let hosts = u32::try_from(n).ok().and_then(|n| k.checked_pow(n));
                (k < 2 || n < 1 || hosts.is_none_or(|h| h > 1 << 20)).then(|| {
                    format!(
                        "{:?} needs arity k >= 2, at least one stage, and at \
                         most 2^20 hosts",
                        self.topology
                    )
                })
            }
            TopologyKind::Irregular {
                switches,
                ports,
                hosts,
                ..
            } => Irregular::check_shape(switches, ports, hosts)
                .err()
                .map(|e| format!("{:?}: {e}", self.topology)),
        };
        if let Some(message) = shape_error {
            report.error("topology-shape", message);
            return report;
        }
        switch_sizing(&self.effective_switch(), self.arch.into(), &mut report);

        if self.mcast == McastImpl::HwMultiport
            && !matches!(self.topology, TopologyKind::KaryTree { .. })
        {
            report.error(
                "multiport-needs-tree",
                format!(
                    "multiport encoding requires a k-ary tree topology, got {:?}",
                    self.topology
                ),
            );
        }
        if self.barrier_combining && self.arch != SwitchArch::CentralBuffer {
            report.error(
                "barrier-combining-needs-cb",
                format!(
                    "barrier combining is implemented for the central-buffer switch, \
                     not {:?}",
                    self.arch
                ),
            );
        }
        // `netsim::Link::new` asserts both: a zero-cycle link would make
        // component order observable, a zero credit window sends nothing.
        if self.link_delay == 0 {
            report.error("link-delay-zero", "link_delay must be at least one cycle");
        }
        if self.host_eject_credits == 0 {
            report.error(
                "host-eject-credits-zero",
                "host_eject_credits must be at least one flit — a zero credit \
                 window never ejects a flit",
            );
        }
        let n = self.n_hosts();
        if self.bits_per_flit == 0 {
            report.error(
                "bits-per-flit-zero",
                "bits_per_flit must be positive — a zero-bit flit carries no \
                 header or payload bits",
            );
        } else {
            let bitstring_header = 1 + n.div_ceil(self.bits_per_flit);
            if usize::from(self.switch.max_packet_flits) <= bitstring_header {
                report.error(
                    "bitstring-header-overflow",
                    format!(
                        "bit-string header ({bitstring_header} flits) leaves no payload in \
                         {}-flit packets — grow max_packet_flits or the buffers",
                        self.switch.max_packet_flits
                    ),
                );
            }
        }
        if let Some(r) = &self.recovery {
            if r.timeout < 1 {
                report.error("recovery-timeout-zero", "recovery timeout must be positive");
            } else if r.timeout_cap < r.timeout {
                report.error(
                    "recovery-cap-below-base",
                    format!(
                        "recovery timeout cap ({}) below base timeout ({})",
                        r.timeout_cap, r.timeout
                    ),
                );
            }
        }
        if let Some(resp) = &self.response {
            if self.mcast == McastImpl::HwMultiport {
                report.error(
                    "response-needs-bitstring",
                    "fault response reroutes by re-deriving bit-string reach \
                     tables; multiport-encoded headers bake port indices of the \
                     unmasked tree into the worm and cannot survive a table swap",
                );
            }
            if self.barrier_combining {
                report.error(
                    "response-excludes-combining",
                    "switch barrier combining precomputes its gather plan \
                     against the original tables; a masked reroute would \
                     silently break the combining tree",
                );
            }
            if resp.snapshot_every < 1 {
                report.error(
                    "journal-snapshot-zero",
                    "journal.snapshot_every must be positive: a zero cadence \
                     snapshots (and compacts) after every single record, \
                     turning the write-ahead log into pure snapshot churn",
                );
            }
            if self.recovery.is_none() {
                report.warning(
                    "response-needs-recovery",
                    "fault response without end-to-end recovery loses every \
                     message the quiesce gate drops or the purge kills — \
                     enable recovery for lossless outage handling",
                );
            }
        }

        if !report.has_errors() {
            let (fabric, switches) = fabric_verdict(self.topology, self.switch.policy);
            let vet_switches = crate::respond::deep_vet_switches(switches);
            if self.response.is_some()
                && self.model_mode == ModelMode::Exact
                && vet_switches > ModelOptions::AUTO_EXACT_MAX_SWITCHES
            {
                report.warning(
                    "model-exact-vet-bound",
                    format!(
                        "model.mode = exact runs the fault responder's deep reroute \
                         vet as the unreduced oracle at {vet_switches} switches, past \
                         the {} that `auto` checks exactly: it can exhaust its state \
                         budget and reject every reroute — use model.mode = auto",
                        ModelOptions::AUTO_EXACT_MAX_SWITCHES
                    ),
                );
            }
            // The local checks count no coverage, so the fabric's
            // counters are the report's.
            report.diagnostics.extend(fabric.diagnostics);
            report.cycles.extend(fabric.cycles);
            report.stats = fabric.stats;
        }
        report
    }

    /// Validates cross-cutting constraints, returning a descriptive
    /// [`ConfigError`] on the first violation (multiport encoding off a
    /// k-ary tree, switch sizing violations, bit-string header leaving no
    /// payload room, degenerate recovery timers, dependency cycles or
    /// header-encoding mismatches in the built fabric).
    ///
    /// Thin wrapper over [`SystemConfig::report`]: the first
    /// error-severity diagnostic becomes the [`ConfigError`]. Warnings
    /// (e.g. the synchronous-replication hazard) do not fail validation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.report().first_error() {
            Some(d) => Err(ConfigError(d.message.clone())),
            None => Ok(()),
        }
    }
}

/// One built fabric: the topology and its unmasked route tables. Both
/// are a pure function of the [`TopologyKind`], and nothing mutates them
/// in place (a reroute installs fresh masked tables beside them), so every
/// system and report of a thread built from the same kind shares them.
#[derive(Clone)]
pub(crate) struct Fabric {
    pub(crate) topology: Rc<Topology>,
    pub(crate) tables: Rc<RouteTables>,
}

impl Fabric {
    /// Builds the topology and its route tables. The shape must have
    /// passed [`SystemConfig::report`]'s `topology-shape` check.
    fn build(kind: TopologyKind) -> Fabric {
        FABRIC_BUILDS.with(|n| n.set(n.get() + 1));
        let topology = Rc::new(match kind {
            TopologyKind::KaryTree { k, n } => KaryTree::new(k, n).into_topology(),
            TopologyKind::UniMin { k, n } => UniMin::new(k, n).into_topology(),
            TopologyKind::Irregular {
                switches,
                ports,
                hosts,
                extra_links,
                seed,
            } => Irregular::new(switches, ports, hosts, extra_links, seed)
                .unwrap_or_else(|e| panic!("invalid irregular topology: {e}"))
                .into_topology(),
        });
        let tables = Rc::new(RouteTables::build(&topology));
        Fabric { topology, tables }
    }
}

/// A fabric of the table, its k-ary tree, and the fabric pass's
/// sub-report on it (its findings, cycles and coverage counters) per
/// replication policy, the pass's only input besides the topology.
struct FabricEntry {
    fabric: Fabric,
    /// Built on first use by multiport encoding: a [`KaryTree`] holds a
    /// second copy of the topology, which a fabric nobody asks the tree
    /// of does not keep.
    tree: Option<Rc<KaryTree>>,
    verdicts: Vec<(ReplicatePolicy, ConfigReport)>,
}

/// Fabrics the table remembers per thread. A sweep revisits a handful; a
/// fuzz loop draws thousands of distinct ones, so the oldest entry goes
/// first.
const FABRIC_VERDICT_CAP: usize = 64;

thread_local! {
    /// This thread's built fabrics, oldest first, keyed by the
    /// `TopologyKind` they are a function of, each with the fabric pass's
    /// verdict per replication policy. `build_system` and `RunSpec::check`
    /// validate the same fabric on every run of a sweep, and
    /// `build_system` then wires the topology and tables the pass built:
    /// a warm build builds neither, a hit returns the recorded sub-report
    /// byte for byte (DESIGN.md §8, §9). One table per thread, unlike
    /// the responder's process-wide model verdicts: an entry's fabric is
    /// `Rc`s that the single-threaded engine shares without a copy.
    static FABRIC_VERDICTS: RefCell<VecDeque<(TopologyKind, FabricEntry)>> =
        const { RefCell::new(VecDeque::new()) };
    /// Fabrics built on this thread (table misses).
    static FABRIC_BUILDS: Cell<usize> = const { Cell::new(0) };
    /// Fabric passes run on this thread (verdict misses).
    #[cfg(test)]
    static FABRIC_PASSES_RUN: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` on `kind`'s entry, building the fabric first if this thread
/// has not.
fn with_fabric<R>(kind: TopologyKind, f: impl FnOnce(&mut FabricEntry) -> R) -> R {
    FABRIC_VERDICTS.with(|t| {
        let mut t = t.borrow_mut();
        let i = match t.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                let fabric = Fabric::build(kind);
                if t.len() == FABRIC_VERDICT_CAP {
                    t.pop_front();
                }
                t.push_back((
                    kind,
                    FabricEntry {
                        fabric,
                        tree: None,
                        verdicts: Vec::new(),
                    },
                ));
                t.len() - 1
            }
        };
        f(&mut t[i].1)
    })
}

/// `kind`'s built fabric, from this thread's table.
pub(crate) fn fabric(kind: TopologyKind) -> Fabric {
    with_fabric(kind, |e| e.fabric.clone())
}

/// The k-ary tree of a `KaryTree` fabric, from this thread's table.
pub(crate) fn kary_tree(kind: TopologyKind) -> Option<Rc<KaryTree>> {
    let TopologyKind::KaryTree { k, n } = kind else {
        return None;
    };
    let tree = with_fabric(kind, |e| {
        e.tree
            .get_or_insert_with(|| Rc::new(KaryTree::new(k, n)))
            .clone()
    });
    Some(tree)
}

/// The fabric pass's sub-report on `kind` under `policy` and the
/// fabric's switch count (the `model-exact-vet-bound` input), running
/// the pass only if this thread has not recorded it. The pass is the
/// channel-dependency and header round-trip analysis of the fabric's
/// tables.
fn fabric_verdict(kind: TopologyKind, policy: ReplicatePolicy) -> (ConfigReport, usize) {
    with_fabric(kind, |e| {
        let switches = e.fabric.topology.n_switches();
        if let Some((_, report)) = e.verdicts.iter().find(|(p, _)| *p == policy) {
            return (report.clone(), switches);
        }
        #[cfg(test)]
        FABRIC_PASSES_RUN.with(|n| n.set(n.get() + 1));
        let mut report = ConfigReport::new();
        analyze_fabric(&e.fabric.topology, &e.fabric.tables, policy, &mut report);
        e.verdicts.push((policy, report.clone()));
        (report, switches)
    })
}

/// Fabrics (topology plus route tables) built on this thread so far: a
/// cold `build_system` builds its fabric once, a warm one not at all.
/// For tests.
#[doc(hidden)]
pub fn fabric_builds() -> usize {
    FABRIC_BUILDS.with(Cell::get)
}

/// Fabric passes actually run on this thread so far (verdict misses).
#[cfg(test)]
pub(crate) fn fabric_passes_run() -> usize {
    FABRIC_PASSES_RUN.with(Cell::get)
}

/// `cfg.report()` on a new thread, whose table is empty.
#[cfg(test)]
pub(crate) fn fresh_report(cfg: &SystemConfig) -> ConfigReport {
    let cfg = cfg.clone();
    std::thread::spawn(move || cfg.report())
        .join()
        .expect("fresh-thread report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_64_procs() {
        let c = SystemConfig::default();
        c.validate().expect("defaults are valid");
        assert_eq!(c.n_hosts(), 64);
        assert_eq!(c.topology.switch_ports(), 8);
        assert_eq!(c.effective_switch().ports, 8);
    }

    #[test]
    fn topology_host_counts() {
        assert_eq!(TopologyKind::KaryTree { k: 2, n: 4 }.n_hosts(), 16);
        assert_eq!(TopologyKind::UniMin { k: 4, n: 2 }.n_hosts(), 16);
        assert_eq!(
            TopologyKind::Irregular {
                switches: 6,
                ports: 8,
                hosts: 12,
                extra_links: 3,
                seed: 1
            }
            .n_hosts(),
            12
        );
    }

    #[test]
    fn multiport_needs_tree() {
        let c = SystemConfig {
            mcast: McastImpl::HwMultiport,
            topology: TopologyKind::UniMin { k: 2, n: 3 },
            ..SystemConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(
            err.to_string().contains("multiport encoding requires"),
            "{err}"
        );
    }

    #[test]
    fn bitstring_header_must_fit() {
        let mut c = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 5 }, // 1024 hosts
            ..SystemConfig::default()
        };
        // 1024-bit string = 128 header flits but packets are 128 flits.
        c.switch.max_packet_flits = 128;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("leaves no payload"), "{err}");
    }

    #[test]
    fn switch_errors_propagate_and_recovery_is_checked() {
        let mut c = SystemConfig::default();
        c.switch.input_buf_flits = 4;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds input buffer"), "{err}");

        let c = SystemConfig {
            recovery: Some(collectives::RecoveryConfig {
                timeout: 100,
                timeout_cap: 10,
                max_retries: 3,
            }),
            ..SystemConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("timeout cap"), "{err}");
    }

    #[test]
    fn labels() {
        assert_eq!(McastImpl::HwBitString.label(), "HW-bitstring");
        assert_eq!(SwitchArch::InputBuffered.label(), "IB");
    }

    #[test]
    fn report_on_default_config_is_clean_with_fabric_coverage() {
        let r = SystemConfig::default().report();
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert!(r.cycles.is_empty());
        // The fabric pass actually ran: channels, dependencies and header
        // round-trips were all enumerated on the 64-host tree.
        assert!(r.stats.channels > 64, "{:?}", r.stats);
        assert!(r.stats.dependencies > 0);
        assert!(r.stats.roundtrips > 0);
    }

    #[test]
    fn report_first_error_matches_validate() {
        let mut c = SystemConfig::default();
        c.switch.input_buf_flits = 4;
        let report_err = c.report().first_error().expect("broken").message.clone();
        let validate_err = c.validate().unwrap_err().to_string();
        assert_eq!(report_err, validate_err);
    }

    /// Shapes the topology constructors reject are an error, not a panic.
    #[test]
    fn bad_topology_shapes_fail_validation() {
        let irregular = |switches, ports, hosts| TopologyKind::Irregular {
            switches,
            ports,
            hosts,
            extra_links: 2,
            seed: 1,
        };
        let trees = [(1, 3), (4, 0), (0, 3), (8, 40), (4, usize::MAX)]
            .into_iter()
            .flat_map(|(k, n)| {
                [
                    TopologyKind::KaryTree { k, n },
                    TopologyKind::UniMin { k, n },
                ]
            });
        let irregulars = [
            (0, 8, 16),
            (4, 8, 0),
            (2, 4, 16),
            (3, 3, 5),
            (usize::MAX, 8, 8),
            (4, 17, 8),
        ]
        .map(|(s, p, h)| irregular(s, p, h));
        for topology in trees.chain(irregulars) {
            let c = SystemConfig {
                topology,
                ..SystemConfig::default()
            };
            let r = c.report();
            assert_eq!(
                r.first_error().map(|d| d.code),
                Some("topology-shape"),
                "{topology:?}"
            );
            assert!(c.validate().is_err());
        }
    }

    /// Values the sizing arithmetic would divide by, or that
    /// `netsim::Link::new` asserts on, are an error, not a panic.
    #[test]
    fn zero_bits_per_flit_fails_validation() {
        let zero_bits = SystemConfig {
            bits_per_flit: 0,
            ..SystemConfig::default()
        };
        let zero_delay = SystemConfig {
            link_delay: 0,
            ..SystemConfig::default()
        };
        let zero_credits = SystemConfig {
            host_eject_credits: 0,
            ..SystemConfig::default()
        };
        for (c, code) in [
            (zero_bits, "bits-per-flit-zero"),
            (zero_delay, "link-delay-zero"),
            (zero_credits, "host-eject-credits-zero"),
        ] {
            let r = c.report();
            assert_eq!(r.first_error().map(|d| d.code), Some(code));
            assert_eq!(r.stats.channels, 0, "fabric pass must not run");
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn broken_sizing_skips_fabric_pass() {
        let mut c = SystemConfig::default();
        c.switch.cq_chunks = 0;
        let r = c.report();
        assert!(r.has_errors());
        assert_eq!(r.stats.channels, 0, "fabric pass must not run");
    }

    #[test]
    fn sync_replication_warns_but_validates() {
        let c = SystemConfig {
            arch: SwitchArch::InputBuffered,
            switch: SwitchConfig {
                replication: switches::ReplicationMode::Synchronous,
                ..SwitchConfig::default()
            },
            ..SystemConfig::default()
        };
        let r = c.report();
        assert!(!r.has_errors());
        assert!(r.warnings().any(|w| w.code == "sync-replication-hazard"));
        c.validate().expect("warnings do not fail validation");
    }

    /// Every field of the table key on its own selects a different
    /// verdict: each single-field change runs the fabric pass again and
    /// reports what a fresh thread reports.
    #[test]
    fn each_key_field_alone_changes_the_verdict() {
        let base = SystemConfig::default();
        let warm = base.report();
        let runs = fabric_passes_run();
        assert_eq!(base.report(), warm, "a repeat is answered by the table");
        assert_eq!(fabric_passes_run(), runs, "a repeat runs no fabric pass");

        let topology = SystemConfig {
            topology: TopologyKind::UniMin { k: 4, n: 3 },
            ..base.clone()
        };
        let mut policy = base.clone();
        policy.switch.policy = ReplicatePolicy::ForwardAndReturn;
        for (i, v) in [topology, policy].iter().enumerate() {
            let before = fabric_passes_run();
            let r = v.report();
            assert_eq!(fabric_passes_run(), before + 1, "variant {i} hit the table");
            assert_eq!(r, fresh_report(v), "variant {i}");
        }
    }

    /// The table holds at most `FABRIC_VERDICT_CAP` fabrics and evicts
    /// the oldest first.
    #[test]
    fn verdict_table_evicts_the_oldest_fabric() {
        let irregular = |seed| SystemConfig {
            topology: TopologyKind::Irregular {
                switches: 4,
                ports: 8,
                hosts: 8,
                extra_links: 1,
                seed,
            },
            ..SystemConfig::default()
        };
        let before = fabric_passes_run();
        for seed in 0..=FABRIC_VERDICT_CAP as u64 {
            irregular(seed).report();
        }
        assert_eq!(fabric_passes_run(), before + FABRIC_VERDICT_CAP + 1);
        assert_eq!(
            FABRIC_VERDICTS.with(|t| t.borrow().len()),
            FABRIC_VERDICT_CAP
        );
        // The newest is still known; the first was evicted.
        irregular(FABRIC_VERDICT_CAP as u64).report();
        assert_eq!(fabric_passes_run(), before + FABRIC_VERDICT_CAP + 1);
        let r = irregular(0).report();
        assert_eq!(fabric_passes_run(), before + FABRIC_VERDICT_CAP + 2);
        assert_eq!(r, fresh_report(&irregular(0)));
    }

    #[test]
    fn report_covers_all_topology_kinds() {
        for topology in [
            TopologyKind::KaryTree { k: 2, n: 3 },
            TopologyKind::UniMin { k: 2, n: 3 },
            TopologyKind::Irregular {
                switches: 6,
                ports: 8,
                hosts: 12,
                extra_links: 3,
                seed: 1,
            },
        ] {
            let c = SystemConfig {
                topology,
                ..SystemConfig::default()
            };
            let r = c.report();
            assert!(!r.has_errors(), "{topology:?}: {:?}", r.diagnostics);
            assert!(r.stats.channels > 0, "{topology:?}");
        }
    }
}
