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
    analyze_fabric, analyze_fabric_budgeted, certify_fabric, switch_sizing, ArchClass, Certificate,
    CompactTables, ConfigReport, ModelMode, ModelOptions,
};
use mintopo::irregular::Irregular;
use mintopo::route::{ReplicatePolicy, RouteTables};
use std::cell::RefCell;
use std::collections::VecDeque;
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

/// Certificate-based deadlock-freedom checking (DESIGN.md §16).
///
/// With `enabled`, the fabric pass of [`SystemConfig::report`] bounds the
/// explicit channel-dependency-graph enumeration at `cdg_budget`
/// dependency edges and additionally runs the O(routes) certificate
/// checker over the compressed route encoding. On fabrics where the
/// explicit pass completes, the two verdicts must agree (a disagreement
/// is itself an error finding); past the budget, the certificate alone
/// supplies the deadlock verdict and the truncation is recorded honestly
/// as a `cdg-budget-exhausted` warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifyConfig {
    /// Enables the certificate path (config key `certify.enabled`).
    pub enabled: bool,
    /// Dependency-edge budget of the explicit CDG enumeration (config key
    /// `certify.cdg_budget`). Paper-scale fabrics (64 hosts) sit around
    /// 1.5k edges; a 4K-endpoint fat-tree exceeds 100k.
    pub cdg_budget: usize,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            enabled: false,
            cdg_budget: 100_000,
        }
    }
}

/// One certify-vs-explicit comparison over a built fabric
/// ([`SystemConfig::certify_comparison`]): the two deadlock verdicts, the
/// wall times, and whether the explicit enumeration stayed inside its
/// dependency budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifyComparison {
    /// Channels the certificate checker enumerated.
    pub channels: usize,
    /// Dependency edges the certificate checker verified.
    pub dependencies: usize,
    /// The certificate checker accepted the fabric.
    pub certify_ok: bool,
    /// Wall time of the certificate path (compression + check), seconds.
    pub certify_secs: f64,
    /// Dependency-edge budget the explicit enumeration ran under.
    pub explicit_budget: usize,
    /// Dependency edges the explicit enumeration actually built.
    pub explicit_deps: usize,
    /// The explicit enumeration finished inside its budget.
    pub explicit_completed: bool,
    /// The explicit analysis accepted the fabric (meaningful only when
    /// it completed; `false` on budget exhaustion).
    pub explicit_ok: bool,
    /// Wall time of the explicit path, seconds.
    pub explicit_secs: f64,
    /// The verdicts agree wherever both were reached (vacuously true when
    /// the explicit pass exhausted its budget).
    pub agree: bool,
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
    /// Certificate-based deadlock-freedom checking (config keys
    /// `certify.*`): budget the explicit CDG pass and back the verdict
    /// with the topology-parametric rank certificate. See DESIGN.md §16.
    pub certify: CertifyConfig,
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
            certify: CertifyConfig::default(),
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
    /// with broken sizing would only bury the root cause). The fabric
    /// pass's verdict is remembered per thread and per fabric (at most
    /// `FABRIC_VERDICT_CAP` fabrics); a repeat returns the same report
    /// without building the topology.
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
        let arch_class = match self.arch {
            SwitchArch::CentralBuffer => ArchClass::CentralBuffer,
            SwitchArch::InputBuffered => ArchClass::InputBuffered,
        };
        switch_sizing(&self.effective_switch(), arch_class, &mut report);

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

        if self.certify.cdg_budget < 1 {
            report.error(
                "certify-budget-zero",
                "certify.cdg_budget must be positive — a zero-edge budget \
                 truncates the explicit CDG before it sees a single dependency",
            );
        }

        if !report.has_errors() {
            let fabric = fabric_verdict((self.topology, self.switch.policy, self.certify));
            let vet_switches = crate::respond::deep_vet_switches(fabric.switches);
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
            report.diagnostics.extend(fabric.report.diagnostics);
            report.cycles.extend(fabric.report.cycles);
            report.stats = fabric.report.stats;
        }
        report
    }

    /// Runs both deadlock-verdict paths — the O(routes) certificate
    /// checker and the budget-bounded explicit CDG analysis — over this
    /// configuration's built fabric, under wall-clock timers.
    ///
    /// This is the engine behind `mdw-lint --certify` and the certify
    /// bench rows: it reports whether the two verdicts agree wherever the
    /// explicit pass completes, and records honestly when the explicit
    /// enumeration hit its `certify.cdg_budget` and the certificate alone
    /// carries the verdict.
    pub fn certify_comparison(&self) -> CertifyComparison {
        let (topology, tree) = crate::build::build_topology(self.topology);
        let tables = RouteTables::build(&topology);
        let cert = match &tree {
            Some(t) => Certificate::for_karytree(t),
            None => Certificate::for_topology(&topology),
        };

        let t0 = std::time::Instant::now();
        let compact = CompactTables::from_dense(&tables);
        let mut cert_report = ConfigReport::new();
        certify_fabric(&cert, &topology, &compact, &mut cert_report);
        let certify_secs = t0.elapsed().as_secs_f64();
        let certify_ok = !cert_report.has_errors();

        let t1 = std::time::Instant::now();
        let mut explicit_report = ConfigReport::new();
        let explicit_completed = analyze_fabric_budgeted(
            &topology,
            &tables,
            self.switch.policy,
            self.certify.cdg_budget,
            &mut explicit_report,
        );
        let explicit_secs = t1.elapsed().as_secs_f64();
        let explicit_ok = explicit_completed
            && !explicit_report
                .diagnostics
                .iter()
                .any(|d| d.code == "cdg-cycle");

        CertifyComparison {
            channels: cert_report.stats.channels,
            dependencies: cert_report.stats.dependencies,
            certify_ok,
            certify_secs,
            explicit_budget: self.certify.cdg_budget,
            explicit_deps: explicit_report.stats.dependencies,
            explicit_completed,
            explicit_ok,
            explicit_secs,
            agree: !explicit_completed || certify_ok == explicit_ok,
        }
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

/// The complete argument tuple of the fabric pass of
/// [`SystemConfig::report`]: the pass reads nothing else of the config.
type FabricKey = (TopologyKind, ReplicatePolicy, CertifyConfig);

/// What the fabric pass found on one fabric.
#[derive(Clone)]
struct FabricVerdict {
    /// The pass's own findings, cycles and coverage counters.
    report: ConfigReport,
    /// Switches in the built fabric (the `model-exact-vet-bound` input).
    switches: usize,
}

/// Fabrics the verdict table remembers per thread. A sweep revisits a
/// handful; a fuzz loop draws thousands of distinct ones, so the oldest
/// entry goes first.
const FABRIC_VERDICT_CAP: usize = 64;

thread_local! {
    /// Fabric-pass verdicts of this thread, oldest first, keyed by the
    /// pass's complete argument tuple, so a new pass input has to change
    /// the key. A hit returns the recorded sub-report byte for byte and
    /// builds no topology: `build_system` and `RunSpec::check` validate
    /// the same fabric on every run of a sweep (DESIGN.md §8, §9). One
    /// table per thread, like the responder's model verdicts, keeps locks
    /// and cross-thread order out of every run.
    static FABRIC_VERDICTS: RefCell<VecDeque<(FabricKey, FabricVerdict)>> =
        const { RefCell::new(VecDeque::new()) };
    /// Fabric passes run on this thread (table misses).
    #[cfg(test)]
    static FABRIC_PASSES_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The fabric pass's verdict on `key`, running the pass only if this
/// thread has not recorded it.
fn fabric_verdict(key: FabricKey) -> FabricVerdict {
    let known = FABRIC_VERDICTS.with(|t| {
        t.borrow()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    });
    known.unwrap_or_else(|| {
        let verdict = fabric_pass(key);
        FABRIC_VERDICTS.with(|t| {
            let mut t = t.borrow_mut();
            if t.len() == FABRIC_VERDICT_CAP {
                t.pop_front();
            }
            t.push_back((key, verdict.clone()));
        });
        verdict
    })
}

/// Fabric passes actually run on this thread so far (table misses).
#[cfg(test)]
pub(crate) fn fabric_passes_run() -> usize {
    FABRIC_PASSES_RUN.with(|n| n.get())
}

/// `cfg.report()` on a new thread, whose verdict table is empty.
#[cfg(test)]
pub(crate) fn fresh_report(cfg: &SystemConfig) -> ConfigReport {
    let cfg = cfg.clone();
    std::thread::spawn(move || cfg.report())
        .join()
        .expect("fresh-thread report")
}

/// The fabric pass: builds the topology and its route tables, then runs
/// the channel-dependency and header round-trip analysis, bounded and
/// backed by the rank certificate when `certify.enabled`.
fn fabric_pass((topology_kind, policy, certify): FabricKey) -> FabricVerdict {
    #[cfg(test)]
    FABRIC_PASSES_RUN.with(|n| n.set(n.get() + 1));
    let mut report = ConfigReport::new();
    let (topology, tree) = crate::build::build_topology(topology_kind);
    let tables = RouteTables::build(&topology);
    if certify.enabled {
        let completed =
            analyze_fabric_budgeted(&topology, &tables, policy, certify.cdg_budget, &mut report);
        let cert = match &tree {
            Some(t) => Certificate::for_karytree(t),
            None => Certificate::for_topology(&topology),
        };
        let compact = CompactTables::from_dense(&tables);
        if completed {
            // The explicit verdict stands; the certificate must agree
            // with it (defense in depth — a divergence means the rank
            // construction or the checker is wrong).
            let mut shadow = ConfigReport::new();
            certify_fabric(&cert, &topology, &compact, &mut shadow);
            let explicit_rejects = report.diagnostics.iter().any(|d| d.code == "cdg-cycle");
            if shadow.has_errors() != explicit_rejects {
                report.error(
                    "certificate-disagreement",
                    format!(
                        "certificate checker {} the fabric but the \
                         explicit CDG analysis {} it — the two deadlock \
                         verdicts must agree whenever both run",
                        if shadow.has_errors() {
                            "rejects"
                        } else {
                            "accepts"
                        },
                        if explicit_rejects {
                            "rejects"
                        } else {
                            "accepts"
                        },
                    ),
                );
            }
        } else {
            // Budget exhausted: the certificate supplies the deadlock
            // verdict (and the true channel/dependency counts the
            // truncated enumeration could not).
            certify_fabric(&cert, &topology, &compact, &mut report);
        }
    } else {
        analyze_fabric(&topology, &tables, policy, &mut report);
    }
    FabricVerdict {
        report,
        switches: topology.n_switches(),
    }
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

    #[test]
    fn certified_report_is_byte_identical_when_explicit_completes() {
        // Paper-scale fabric, budget ample: the explicit verdict stands,
        // the certificate silently agrees, and the rendered report is
        // byte-identical to the uncertified one.
        let plain = SystemConfig::default().report();
        let certified = SystemConfig {
            certify: CertifyConfig {
                enabled: true,
                ..CertifyConfig::default()
            },
            ..SystemConfig::default()
        }
        .report();
        assert_eq!(plain.render_human(), certified.render_human());
        assert_eq!(plain.render_json(), certified.render_json());
    }

    #[test]
    fn exhausted_budget_hands_the_verdict_to_the_certificate() {
        let c = SystemConfig {
            certify: CertifyConfig {
                enabled: true,
                cdg_budget: 10, // far below the 64-host fabric's ~1.5k deps
            },
            ..SystemConfig::default()
        };
        let r = c.report();
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
        assert!(
            r.warnings().any(|w| w.code == "cdg-budget-exhausted"),
            "{:?}",
            r.diagnostics
        );
        // The certificate restored the true counters the truncated
        // enumeration could not provide.
        let full = SystemConfig::default().report();
        assert_eq!(r.stats.channels, full.stats.channels);
        assert_eq!(r.stats.dependencies, full.stats.dependencies);
        assert_eq!(r.stats.sccs, full.stats.sccs);
    }

    #[test]
    fn certify_budget_zero_is_rejected() {
        let c = SystemConfig {
            certify: CertifyConfig {
                enabled: true,
                cdg_budget: 0,
            },
            ..SystemConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("cdg_budget"), "{err}");
    }

    #[test]
    fn certified_report_covers_every_topology_kind() {
        // The explicit-rule certificate path (UniMin, Irregular) and the
        // family-rule path (KaryTree) both agree with the explicit CDG.
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
                certify: CertifyConfig {
                    enabled: true,
                    ..CertifyConfig::default()
                },
                ..SystemConfig::default()
            };
            let r = c.report();
            assert!(!r.has_errors(), "{topology:?}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn certify_comparison_agrees_on_the_paper_fabric() {
        let cmp = SystemConfig::default().certify_comparison();
        assert!(cmp.certify_ok);
        assert!(cmp.explicit_completed);
        assert!(cmp.explicit_ok);
        assert!(cmp.agree);
        assert!(cmp.channels > 64);
        assert_eq!(cmp.dependencies, cmp.explicit_deps);

        // Starve the explicit budget: agreement becomes vacuous, the
        // truncation is reported honestly.
        let starved = SystemConfig {
            certify: CertifyConfig {
                enabled: false,
                cdg_budget: 10,
            },
            ..SystemConfig::default()
        }
        .certify_comparison();
        assert!(starved.certify_ok);
        assert!(!starved.explicit_completed);
        assert!(!starved.explicit_ok);
        assert!(starved.agree, "vacuous agreement past the budget");
        assert!(starved.explicit_deps <= 10);
    }

    /// Every field of the table key on its own selects a different
    /// verdict: each single-field change runs the fabric pass again and
    /// reports what a fresh thread reports.
    #[test]
    fn each_key_field_alone_changes_the_verdict() {
        let base = SystemConfig {
            certify: CertifyConfig {
                enabled: true,
                ..CertifyConfig::default()
            },
            ..SystemConfig::default()
        };
        let warm = base.report();
        let runs = fabric_passes_run();
        assert_eq!(base.report(), warm, "a repeat is answered by the table");
        assert_eq!(fabric_passes_run(), runs, "a repeat runs no fabric pass");

        let mut variants = vec![
            SystemConfig {
                topology: TopologyKind::UniMin { k: 4, n: 3 },
                ..base.clone()
            },
            SystemConfig {
                certify: CertifyConfig {
                    enabled: false,
                    ..base.certify
                },
                ..base.clone()
            },
            SystemConfig {
                certify: CertifyConfig {
                    cdg_budget: 10,
                    ..base.certify
                },
                ..base.clone()
            },
        ];
        let mut policy = base.clone();
        policy.switch.policy = ReplicatePolicy::ForwardAndReturn;
        variants.push(policy);
        for (i, v) in variants.iter().enumerate() {
            let before = fabric_passes_run();
            let r = v.report();
            assert_eq!(fabric_passes_run(), before + 1, "variant {i} hit the table");
            assert_eq!(r, fresh_report(v), "variant {i}");
        }
        // The truncating budget still warns after the untruncated fabric
        // warmed the table.
        let starved = variants[2].report();
        assert!(
            starved.warnings().any(|w| w.code == "cdg-budget-exhausted"),
            "{:?}",
            starved.diagnostics
        );
        assert!(!warm.warnings().any(|w| w.code == "cdg-budget-exhausted"));
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
