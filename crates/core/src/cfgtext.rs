//! The `key = value` config-text dialect: the one config surface of
//! `simulate`, `mdw-lint` and `mdw-routed`.
//!
//! One `key = value` per line, `#` starts a comment, unknown keys are
//! rejected with their line number. A text describes a whole run
//! ([`RunSpec`]): the fabric, the workload (`traffic.*`), the run window
//! (`run.*`) and injected link faults (`fault.*`). Parsing starts from
//! [`RunSpec::default`] (the paper-style 64-host SP2 fabric under
//! multiple multicast), so a text only states what it changes.
//! `simulate --set key=value` goes through the same per-key code as a
//! line of a file. See `configs/` for annotated examples.

use crate::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use crate::sim::RunConfig;
use crate::workload::{Pattern, TrafficSpec};
use mintopo::route::ReplicatePolicy;
use netsim::FaultPlan;
use std::str::FromStr;
use switches::{ReplicationMode, UpSelect};

/// A whole run: the system, the workload it carries, and the run window
/// with its fault plan.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The fabric and its control plane.
    pub system: SystemConfig,
    /// The offered traffic.
    pub traffic: TrafficSpec,
    /// Warm-up and measurement window, and injected faults.
    pub run: RunConfig,
}

impl Default for RunSpec {
    /// The default system under multiple multicast at load 0.4, degree 16
    /// and 64 flits, over [`RunConfig::default`]'s window, with no faults.
    fn default() -> Self {
        RunSpec {
            system: SystemConfig::default(),
            traffic: TrafficSpec::multiple_multicast(0.4, 16, 64),
            run: RunConfig::default(),
        }
    }
}

impl RunSpec {
    /// This spec with the lines of `text` applied on top; errors name the
    /// line.
    pub fn with(&self, text: &str) -> Result<RunSpec, String> {
        let mut parser = SpecParser::new(self.clone());
        parser.text(text)?;
        Ok(parser.finish())
    }

    /// Rejects values that parse but that no run can use: a fabric that
    /// fails [`SystemConfig::validate`], an empty measurement window, a
    /// window whose end (drain included) overflows the cycle counter, or a
    /// traffic mix no source can generate on its host count.
    ///
    /// # Errors
    ///
    /// A message naming the offending key and value.
    pub fn check(&self) -> Result<(), String> {
        let (cfg, t) = (&self.system, &self.traffic);
        cfg.validate().map_err(|e| format!("invalid system: {e}"))?;
        if !(0.0..=1.0).contains(&t.mcast_fraction) {
            return Err(format!(
                "traffic.mcast_fraction {} is outside [0, 1]",
                t.mcast_fraction
            ));
        }
        if !(0.0..).contains(&t.load) {
            return Err(format!(
                "traffic.load {} is not a load (at least 0)",
                t.load
            ));
        }
        if t.mcast_len == 0 {
            return Err("traffic.len 0: messages must carry at least one flit".into());
        }
        // The degree goes first: a zero degree zeroes the mean payload the
        // load bound divides by.
        let hosts = cfg.n_hosts();
        if t.mcast_fraction > 0.0 && !(1..hosts).contains(&t.degree) {
            return Err(format!(
                "traffic.degree {} impossible with {hosts} hosts (1 to {})",
                t.degree,
                hosts - 1
            ));
        }
        // A host starts at most one message per cycle, so a higher load
        // would run as a lower one while the tracker piles up undelivered
        // messages.
        if !t.load.is_finite() || t.load / t.mean_payload() > 1.0 {
            return Err(format!(
                "traffic.load {} exceeds one message per host per cycle (at most {})",
                t.load,
                t.mean_payload()
            ));
        }
        if self.run.measure == 0 {
            return Err("run.measure 0: throughput needs a measurement window".into());
        }
        let run = &self.run;
        if run
            .warmup
            .checked_add(run.measure)
            .and_then(|end| end.checked_add(run.drain_max))
            .is_none()
        {
            return Err(format!(
                "run.warmup {} + run.measure {} + the {}-cycle drain overflows the cycle counter",
                run.warmup, run.measure, run.drain_max
            ));
        }
        if t.mcast_fraction < 1.0 && t.pattern != Pattern::Uniform && !hosts.is_power_of_two() {
            return Err(format!(
                "traffic.pattern {:?} permutes unicasts over a power-of-two host count, not {hosts}",
                t.pattern
            ));
        }
        Ok(())
    }
}

/// Parses config text into a [`RunSpec`], starting from its defaults.
///
/// # Errors
///
/// A message naming the line number and the offending key or value.
pub fn parse_spec(text: &str) -> Result<RunSpec, String> {
    RunSpec::default().with(text)
}

/// Parses config text into a [`SystemConfig`], starting from the
/// paper-style defaults. Workload, window and fault keys are parsed and
/// dropped.
///
/// # Errors
///
/// A message naming the line number and the offending key or value.
pub fn parse_config(text: &str) -> Result<SystemConfig, String> {
    parse_spec(text).map(|spec| spec.system)
}

/// Topology fields, gathered apart so the kind can be assembled whichever
/// order the keys appear in.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: &'static str,
    k: usize,
    stages: usize,
    switches: usize,
    ports: usize,
    hosts: usize,
    extra_links: usize,
    seed: u64,
}

impl Shape {
    fn of(topology: TopologyKind) -> Shape {
        let mut s = Shape {
            kind: "karytree",
            k: 4,
            stages: 3,
            switches: 8,
            ports: 8,
            hosts: 16,
            extra_links: 4,
            seed: 1,
        };
        match topology {
            TopologyKind::KaryTree { k, n } => (s.k, s.stages) = (k, n),
            TopologyKind::UniMin { k, n } => (s.kind, s.k, s.stages) = ("unimin", k, n),
            TopologyKind::Irregular {
                switches: w,
                ports: p,
                hosts: h,
                extra_links: e,
                seed,
            } => {
                (s.kind, s.switches, s.ports, s.hosts, s.extra_links, s.seed) =
                    ("irregular", w, p, h, e, seed)
            }
        }
        s
    }

    fn topology(self) -> TopologyKind {
        let (k, n) = (self.k, self.stages);
        match self.kind {
            "unimin" => TopologyKind::UniMin { k, n },
            "irregular" => TopologyKind::Irregular {
                switches: self.switches,
                ports: self.ports,
                hosts: self.hosts,
                extra_links: self.extra_links,
                seed: self.seed,
            },
            _ => TopologyKind::KaryTree { k, n },
        }
    }
}

/// Applies config-text lines and `--set` pairs, in order, to a
/// [`RunSpec`]; the last value of a key wins.
#[derive(Debug, Clone)]
pub struct SpecParser {
    spec: RunSpec,
    shape: Shape,
}

/// The spec's fault plan, created by the first `fault.*` key. It stays
/// even when it cannot inject a fault, so a seed set before any rate
/// survives a later layer; a no-op plan installs nothing, so the
/// fault-free fast path stays on.
fn plan(faults: &mut Option<FaultPlan>) -> &mut FaultPlan {
    // 0xFA17 is the default `fault.seed`.
    faults.get_or_insert_with(|| FaultPlan::none(0xFA17))
}

/// Parses `value` as the value of `key`.
fn num<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {key} value `{value}`"))
}

/// Parses `value` as a probability: finite and in [0, 1].
fn probability(key: &str, value: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| format!("bad {key} value `{value}` (a probability in [0, 1])"))
}

impl SpecParser {
    /// A parser whose keys apply on top of `start`.
    pub fn new(start: RunSpec) -> Self {
        SpecParser {
            shape: Shape::of(start.system.topology),
            spec: start,
        }
    }

    /// Applies every `key = value` line of `text`; errors name the line.
    pub fn text(&mut self, text: &str) -> Result<(), String> {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
            self.key(key.trim(), value.trim()).map_err(at)?;
        }
        Ok(())
    }

    /// Applies one `key=value` pair, as `simulate --set` passes it; errors
    /// name the pair.
    pub fn set(&mut self, pair: &str) -> Result<(), String> {
        let at = |e: String| format!("--set `{pair}`: {e}");
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| at("expected `key=value`".into()))?;
        self.key(key.trim(), value.trim()).map_err(at)
    }

    /// The spec with every applied key.
    pub fn finish(mut self) -> RunSpec {
        self.spec.system.topology = self.shape.topology();
        self.spec
    }

    /// The per-key code both [`SpecParser::text`] and
    /// [`SpecParser::set`] run.
    fn key(&mut self, key: &str, value: &str) -> Result<(), String> {
        let bad = |what: &str| format!("bad {what} value `{value}`");
        let cfg = &mut self.spec.system;
        // The optional blocks; a tuning key turns its block on.
        let (recovery, response) = (&mut cfg.recovery, &mut cfg.response);
        let traffic = &mut self.spec.traffic;
        let faults = &mut self.spec.run.faults;
        match key {
            "topology" => {
                self.shape.kind = match value {
                    "karytree" | "tree" => "karytree",
                    "unimin" | "butterfly" => "unimin",
                    "irregular" => "irregular",
                    other => {
                        return Err(format!(
                            "unknown topology `{other}` (karytree|unimin|irregular)"
                        ))
                    }
                }
            }
            "k" => self.shape.k = num(key, value)?,
            "stages" => self.shape.stages = num(key, value)?,
            "switches" => self.shape.switches = num(key, value)?,
            "ports" => self.shape.ports = num(key, value)?,
            "hosts" => self.shape.hosts = num(key, value)?,
            "extra_links" => self.shape.extra_links = num(key, value)?,
            "topo_seed" => self.shape.seed = num(key, value)?,
            "arch" => {
                cfg.arch = match value {
                    "cb" | "central-buffer" => SwitchArch::CentralBuffer,
                    "ib" | "input-buffered" => SwitchArch::InputBuffered,
                    _ => return Err(bad("arch (cb|ib)")),
                }
            }
            "mcast" => {
                cfg.mcast = match value {
                    "hw" | "bitstring" => McastImpl::HwBitString,
                    "mp" | "multiport" => McastImpl::HwMultiport,
                    "sw" | "binomial" => McastImpl::SwBinomial,
                    _ => return Err(bad("mcast (hw|mp|sw)")),
                }
            }
            "replication" => {
                cfg.switch.replication = match value {
                    "async" | "asynchronous" => ReplicationMode::Asynchronous,
                    "sync" | "synchronous" => ReplicationMode::Synchronous,
                    _ => return Err(bad("replication (async|sync)")),
                }
            }
            "policy" => {
                cfg.switch.policy = match value {
                    "return-only" => ReplicatePolicy::ReturnOnly,
                    "forward-and-return" => ReplicatePolicy::ForwardAndReturn,
                    _ => return Err(bad("policy (return-only|forward-and-return)")),
                }
            }
            "up_select" => {
                cfg.switch.up_select = match value {
                    "deterministic" => UpSelect::Deterministic,
                    "adaptive" => UpSelect::Adaptive,
                    _ => return Err(bad("up_select (deterministic|adaptive)")),
                }
            }
            "chunk_flits" => cfg.switch.chunk_flits = num(key, value)?,
            "cq_chunks" => cfg.switch.cq_chunks = num(key, value)?,
            "input_buf_flits" => cfg.switch.input_buf_flits = num(key, value)?,
            "max_packet_flits" => cfg.switch.max_packet_flits = num(key, value)?,
            "staging_flits" => cfg.switch.staging_flits = num(key, value)?,
            "route_delay" => cfg.switch.route_delay = num(key, value)?,
            "bypass_crossbar" => cfg.switch.bypass_crossbar = num(key, value)?,
            "link_delay" => cfg.link_delay = num(key, value)?,
            "host_eject_credits" => cfg.host_eject_credits = num(key, value)?,
            "bits_per_flit" => cfg.bits_per_flit = num(key, value)?,
            "barrier_combining" => cfg.barrier_combining = num(key, value)?,
            "seed" => cfg.seed = num(key, value)?,
            // Model-check decomposition of the deep reroute vet
            // (DESIGN.md §14).
            "model.mode" => {
                cfg.model_mode = match value {
                    "exact" => mdw_analysis::ModelMode::Exact,
                    "compositional" => mdw_analysis::ModelMode::Compositional,
                    "auto" => mdw_analysis::ModelMode::Auto,
                    _ => return Err(bad("model.mode (exact|compositional|auto)")),
                }
            }
            // End-to-end recovery (ACK ledger + retransmission).
            "recovery" => match value {
                "on" | "true" => {
                    recovery.get_or_insert_default();
                }
                "off" | "false" => *recovery = None,
                _ => return Err(bad("recovery (on|off)")),
            },
            "recovery_timeout" => recovery.get_or_insert_default().timeout = num(key, value)?,
            "recovery_timeout_cap" => {
                recovery.get_or_insert_default().timeout_cap = num(key, value)?
            }
            "recovery_max_retries" => {
                recovery.get_or_insert_default().max_retries = num(key, value)?
            }
            // Online fault response (detect / reroute / quiesce / degrade).
            "response" => match value {
                "on" | "true" => {
                    response.get_or_insert_default();
                }
                "off" | "false" => *response = None,
                _ => return Err(bad("response (on|off)")),
            },
            // Responder write-ahead journal cadence (DESIGN.md §15);
            // setting it implies `response = on`.
            "journal.snapshot_every" => {
                response.get_or_insert_default().snapshot_every = num(key, value)?
            }
            // Engine-level torn-install audit over the two-phase epoch
            // protocol.
            "epoch.audit" => match value {
                "on" | "true" => cfg.epoch_audit = true,
                "off" | "false" => cfg.epoch_audit = false,
                _ => return Err(bad("epoch.audit (on|off)")),
            },
            // The workload (`simulate`'s traffic mix).
            "traffic.load" => traffic.load = num(key, value)?,
            "traffic.mcast_fraction" => traffic.mcast_fraction = num(key, value)?,
            "traffic.degree" => traffic.degree = num(key, value)?,
            "traffic.len" => {
                traffic.unicast_len = num(key, value)?;
                traffic.mcast_len = traffic.unicast_len;
            }
            "traffic.pattern" => {
                traffic.pattern = match value {
                    "uniform" => Pattern::Uniform,
                    "bitrev" => Pattern::BitReversal,
                    "transpose" => Pattern::Transpose,
                    "neighbor" => Pattern::NearNeighbor,
                    _ => return Err(bad("traffic.pattern (uniform|bitrev|transpose|neighbor)")),
                }
            }
            // The run window.
            "run.warmup" => self.spec.run.warmup = num(key, value)?,
            "run.measure" => self.spec.run.measure = num(key, value)?,
            // Injected link faults (`netsim::FaultPlan`).
            "fault.seed" => plan(faults).seed = num(key, value)?,
            "fault.drop_rate" => plan(faults).flit_drop = probability(key, value)?,
            "fault.corrupt_rate" => plan(faults).flit_corrupt = probability(key, value)?,
            "fault.down_every" => plan(faults).down_every = num(key, value)?,
            "fault.down_len" => plan(faults).down_len = num(key, value)?,
            "fault.credit_leak" => plan(faults).credit_leak = probability(key, value)?,
            _ => return Err(format!("unknown key `{key}`")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::RecoveryConfig;

    #[test]
    fn empty_text_is_the_default_config() {
        let cfg = parse_config("").expect("parses");
        assert_eq!(cfg.n_hosts(), 64);
        assert_eq!(cfg.arch, SwitchArch::CentralBuffer);
        assert!(cfg.response.is_none());
    }

    #[test]
    fn full_config_roundtrips_values() {
        let text = "
            # an input-buffered 16-host tree with lock-step replication
            topology = karytree
            k = 2          # arity
            stages = 4
            arch = ib
            mcast = hw
            replication = sync
            policy = forward-and-return
            up_select = deterministic
            input_buf_flits = 256
            max_packet_flits = 100
            seed = 42
        ";
        let cfg = parse_config(text).expect("parses");
        assert_eq!(cfg.topology, TopologyKind::KaryTree { k: 2, n: 4 });
        assert_eq!(cfg.arch, SwitchArch::InputBuffered);
        assert_eq!(cfg.switch.replication, ReplicationMode::Synchronous);
        assert_eq!(cfg.switch.policy, ReplicatePolicy::ForwardAndReturn);
        assert_eq!(cfg.switch.up_select, UpSelect::Deterministic);
        assert_eq!(cfg.switch.input_buf_flits, 256);
        assert_eq!(cfg.switch.max_packet_flits, 100);
        assert_eq!(cfg.seed, 42);
    }

    /// A window whose end overflows `u64` would wrap in `run_experiment`
    /// (release) or panic there (debug); `check` names both keys instead.
    #[test]
    fn check_rejects_a_window_that_overflows_the_cycle_counter() {
        for text in [
            "run.warmup = 18446744073709551615",
            "run.measure = 18446744073709551000",
        ] {
            let err = parse_spec(text).expect("parses").check().unwrap_err();
            assert!(
                err.contains("run.warmup") && err.contains("run.measure"),
                "{err}"
            );
        }
        let mut spec = RunSpec::default();
        spec.run.measure = u64::MAX - spec.run.warmup - spec.run.drain_max;
        assert_eq!(
            spec.check(),
            Ok(()),
            "the last cycle that fits is a window end"
        );
        spec.run.measure += 1;
        assert!(spec.check().is_err());
    }

    #[test]
    fn irregular_topology_keys() {
        let text = "
            topology = irregular
            switches = 6
            ports = 8
            hosts = 12
            extra_links = 3
            topo_seed = 7
        ";
        let cfg = parse_config(text).expect("parses");
        assert_eq!(
            cfg.topology,
            TopologyKind::Irregular {
                switches: 6,
                ports: 8,
                hosts: 12,
                extra_links: 3,
                seed: 7
            }
        );
    }

    #[test]
    fn recovery_and_response_keys_parse_in_any_order() {
        // Tuning keys materialize the block even without an `= on` line.
        let cfg = parse_config(
            "
            recovery_timeout = 5000
            recovery = on
            recovery_max_retries = 3
            journal.snapshot_every = 128
            response = on
            ",
        )
        .expect("parses");
        let rec = cfg.recovery.expect("recovery on");
        assert_eq!(rec.timeout, 5_000);
        assert_eq!(rec.max_retries, 3);
        assert_eq!(rec.timeout_cap, RecoveryConfig::default().timeout_cap);
        assert_eq!(cfg.response.expect("response on").snapshot_every, 128);

        let cfg = parse_config("response = on\nresponse = off").expect("parses");
        assert!(cfg.response.is_none(), "later `off` wins");
        let err = parse_config("response = maybe").unwrap_err();
        assert!(err.contains("response"), "{err}");
    }

    /// The control plane's tuning is constants (`respond`, `routed`), and
    /// each remaining key has one spelling: the retired keys and aliases
    /// are unknown keys, named with their line or their `--set` pair.
    #[test]
    fn retired_keys_and_aliases_are_unknown() {
        for key in RETIRED {
            let err = parse_config(&format!("seed = 1\n{key} = 16")).unwrap_err();
            assert_eq!(err, format!("line 2: unknown key `{key}`"));
            let err = SpecParser::new(RunSpec::default())
                .set(&format!("{key}=16"))
                .unwrap_err();
            assert_eq!(err, format!("--set `{key}=16`: unknown key `{key}`"));
        }
    }

    #[test]
    fn journal_and_epoch_keys_parse() {
        // The journal cadence materializes the response block.
        let cfg = parse_config("journal.snapshot_every = 128").expect("parses");
        assert_eq!(
            cfg.response
                .as_ref()
                .expect("implies response")
                .snapshot_every,
            128
        );
        assert!(!cfg.report().has_errors(), "{:?}", cfg.report().diagnostics);

        let cfg = parse_config("epoch.audit = on").expect("parses");
        assert!(cfg.epoch_audit);
        let cfg = parse_config("epoch.audit = true\nepoch.audit = off").expect("parses");
        assert!(!cfg.epoch_audit, "later `off` wins");
        let err = parse_config("epoch.audit = maybe").unwrap_err();
        assert!(err.contains("epoch.audit"), "{err}");

        // A zero cadence is parseable but fails the lint: it would
        // snapshot on every append.
        let cfg = parse_config("journal.snapshot_every = 0").expect("parses");
        assert!(
            cfg.report()
                .diagnostics
                .iter()
                .any(|d| d.code == "journal-snapshot-zero"),
            "{:?}",
            cfg.report().diagnostics
        );
        let err = parse_config("journal.snapshot_every = many").unwrap_err();
        assert!(err.contains("journal.snapshot_every"), "{err}");
    }

    #[test]
    fn model_mode_key_parses() {
        use mdw_analysis::ModelMode;
        let cfg = parse_config("").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Auto);
        let cfg = parse_config("model.mode = exact").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Exact);
        let cfg = parse_config("model.mode = compositional").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Compositional);
        let cfg = parse_config("model.mode = auto").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Auto);
        let err = parse_config("model.mode = heuristic").unwrap_err();
        assert!(err.contains("model.mode"), "{err}");
    }

    #[test]
    fn run_keys_fill_the_spec() {
        let spec = parse_spec(
            "
            traffic.load = 0.2
            traffic.mcast_fraction = 0.1
            traffic.degree = 8
            traffic.len = 32
            traffic.pattern = transpose
            run.warmup = 100
            run.measure = 900
            fault.seed = 7
            fault.drop_rate = 0.001
            fault.corrupt_rate = 0.002
            fault.down_every = 5000
            fault.down_len = 50
            fault.credit_leak = 0.01
            ",
        )
        .expect("parses");
        assert_eq!(
            spec.traffic,
            TrafficSpec::bimodal(0.2, 0.1, 8, 32).with_pattern(Pattern::Transpose)
        );
        assert_eq!((spec.run.warmup, spec.run.measure), (100, 900));
        assert_eq!(
            spec.run.faults,
            Some(FaultPlan {
                seed: 7,
                flit_drop: 0.001,
                flit_corrupt: 0.002,
                down_every: 5000,
                down_len: 50,
                credit_leak: 0.01,
            })
        );

        // The defaults are the sweep workload over the default window; a
        // plan that cannot inject a fault is kept (it installs nothing).
        let spec = parse_spec("fault.seed = 9\nfault.down_every = 100").expect("parses");
        assert_eq!(spec.traffic, TrafficSpec::multiple_multicast(0.4, 16, 64));
        let plan = spec.run.faults.clone().expect("a fault key keeps the plan");
        assert!(plan.is_noop() && plan.seed == 9 && plan.down_every == 100);
        let no_faults = RunConfig {
            faults: None,
            ..spec.run
        };
        assert_eq!(no_faults, RunConfig::default());
        assert_eq!(
            parse_spec("run.warmup = 5").expect("parses").run.faults,
            None
        );

        for key in ["fault.drop_rate", "fault.corrupt_rate", "fault.credit_leak"] {
            for value in ["NaN", "-1", "1.5", "inf", ""] {
                let err = parse_spec(&format!("{key} = {value}")).unwrap_err();
                assert!(err.contains(key) && err.contains("probability"), "{err}");
            }
            assert!(parse_spec(&format!("{key} = 1")).is_ok());
        }
    }

    /// A fault seed set in one layer survives a rate set in the next.
    #[test]
    fn fault_seed_survives_a_later_rate_layer() {
        let layered = parse_spec("fault.seed = 9")
            .expect("parses")
            .with("fault.drop_rate = 0.001")
            .expect("parses");
        let at_once = parse_spec("fault.seed = 9\nfault.drop_rate = 0.001").expect("parses");
        assert_eq!(layered.run.faults, Some(FaultPlan::drops(9, 0.001)));
        assert_eq!(layered.run, at_once.run);
    }

    #[test]
    fn set_pairs_share_the_line_code_and_the_last_value_wins() {
        let mut parser = SpecParser::new(RunSpec::default());
        parser
            .text("traffic.load = 0.2\nstages = 2")
            .expect("parses");
        parser.set("traffic.load=0.3").expect("parses");
        parser.set(" topology = unimin ").expect("parses");
        let spec = parser.finish();
        assert_eq!(spec.traffic.load, 0.3);
        assert_eq!(spec.system.topology, TopologyKind::UniMin { k: 4, n: 2 });

        let mut parser = SpecParser::new(RunSpec::default());
        let err = parser.set("k=many").unwrap_err();
        assert_eq!(err, "--set `k=many`: bad k value `many`");
        let err = parser.set("k").unwrap_err();
        assert!(err.starts_with("--set `k`: "), "{err}");

        // `with` starts from the given spec, topology fields included.
        let irregular = parse_spec("topology = irregular\nhosts = 12").expect("parses");
        assert_eq!(
            irregular
                .with("extra_links = 2")
                .expect("parses")
                .system
                .topology,
            TopologyKind::Irregular {
                switches: 8,
                ports: 8,
                hosts: 12,
                extra_links: 2,
                seed: 1
            }
        );
    }

    /// Every key the parser knows.
    #[rustfmt::skip]
    const KEYS: &[&str] = &[
        "topology", "k", "stages", "switches", "ports", "hosts", "extra_links", "topo_seed",
        "arch", "mcast", "replication", "policy", "up_select", "chunk_flits", "cq_chunks",
        "input_buf_flits", "max_packet_flits", "staging_flits", "route_delay",
        "bypass_crossbar", "link_delay", "host_eject_credits", "bits_per_flit",
        "barrier_combining", "seed", "model.mode", "recovery", "recovery_timeout",
        "recovery_timeout_cap", "recovery_max_retries", "response", "journal.snapshot_every",
        "epoch.audit", "traffic.load", "traffic.mcast_fraction", "traffic.degree",
        "traffic.len", "traffic.pattern", "run.warmup", "run.measure", "fault.seed",
        "fault.drop_rate", "fault.corrupt_rate", "fault.down_every", "fault.down_len",
        "fault.credit_leak",
    ];

    /// Keys and second spellings that earlier versions accepted: the
    /// control plane's tuning, now constants, the removed certificate's
    /// switch and budget (the explicit CDG is the one deadlock gate,
    /// DESIGN.md §16), and the underscore aliases.
    #[rustfmt::skip]
    const RETIRED: &[&str] = &[
        "response_debounce", "response_drain_wait", "response_purge_max", "response_max_hops",
        "response_event_log_cap", "journal.latency_cap", "journal_latency_cap",
        "response.memo_cap", "response_memo_cap", "routed", "routed_queue_cap", "routed_slice",
        "routed_flap_penalty", "routed_flap_suppress", "routed_flap_reuse",
        "routed_flap_half_life", "routed_retry_base", "routed_retry_cap", "routed_retry_max",
        "routed_heal_hysteresis", "routed_deadline", "model_mode", "journal_snapshot_every",
        "epoch_audit", "certify_enabled", "certify_cdg_budget", "certify.enabled",
        "certify.cdg_budget",
    ];

    /// Values at and past the edges of every key's range, every choice
    /// word, and junk.
    #[rustfmt::skip]
    const VALUES: &[&str] = &[
        "0", "1", "2", "-1", "0.5", "1.5", "1e300", "NaN", "inf", "-0", "0x10", "65536",
        "18446744073709551616", "", "on", "off", "true", "maybe", "cb", "ib", "hw", "mp", "sw",
        "karytree", "unimin", "irregular", "uniform", "bitrev", "sync", "exact", "return-only",
        "deterministic", "=", "#", "\u{e9}", " 3 ",
    ];

    /// Texts the fuzz loop draws.
    const FUZZ_TEXTS: usize = 20_000;

    /// The fuzz loop's inputs: `count` texts of one to five lines, each a
    /// known key with a drawn value or a random byte string.
    fn fuzz_inputs(count: usize) -> Vec<Vec<String>> {
        let mut rng = netsim::rng::SimRng::new(0xCF6_7E47);
        let mut pick = |n: usize| rng.below(n);
        const BYTES: &[u8] = b"ak=.# \t\n\r0-9e\xff\xc3";
        (0..count)
            .map(|_| {
                (0..1 + pick(5))
                    .map(|_| {
                        if pick(4) == 0 {
                            let bytes: Vec<u8> =
                                (0..pick(12)).map(|_| BYTES[pick(BYTES.len())]).collect();
                            String::from_utf8_lossy(&bytes).into_owned()
                        } else {
                            let sep = ["=", " = ", "= ", " ="][pick(4)];
                            format!(
                                "{}{sep}{}",
                                KEYS[pick(KEYS.len())],
                                VALUES[pick(VALUES.len())]
                            )
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A report the thread's fabric table answers equals the one
    /// a fresh thread computes, for every config the fuzz loop parses
    /// (`tests/fabric_verdicts.rs` covers the shipped configs).
    #[test]
    fn fuzz_configs_report_alike_on_warm_and_fresh_threads() {
        use crate::config::{fabric_passes_run, fresh_report};
        let configs: Vec<(String, SystemConfig)> = fuzz_inputs(FUZZ_TEXTS)
            .into_iter()
            .filter_map(|lines| {
                let text = lines.join("\n");
                parse_config(&text).ok().map(|cfg| (text, cfg))
            })
            .collect();
        assert!(configs.len() > 100, "{}", configs.len());
        for (text, cfg) in &configs {
            let cold = cfg.report();
            let runs = fabric_passes_run();
            let warm = cfg.report();
            assert_eq!(
                fabric_passes_run(),
                runs,
                "{text:?}: the table did not answer"
            );
            assert_eq!(warm, cold, "{text:?}");
            assert_eq!(warm, fresh_report(cfg), "{text:?}");
        }
    }

    /// Seeded fuzz loop: random lines of known keys and drawn values, plus
    /// random byte strings, through the file path and the `--set` path.
    /// Nothing panics, and every error names its line or its pair.
    #[test]
    fn fuzzed_lines_never_panic_and_errors_name_their_source() {
        for key in KEYS {
            assert!(
                VALUES
                    .iter()
                    .any(|v| parse_spec(&format!("{key} = {v}")).is_ok()),
                "{key} accepts no drawn value"
            );
        }
        let (mut accepted, mut rejected) = (0, 0);
        for lines in fuzz_inputs(FUZZ_TEXTS) {
            let text = lines.join("\n");
            match parse_spec(&text) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    rejected += 1;
                    let lineno = e
                        .strip_prefix("line ")
                        .and_then(|rest| rest.split(':').next())
                        .and_then(|n| n.parse::<usize>().ok());
                    assert!(
                        lineno.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
                        "{e:?} names no line of {text:?}"
                    );
                }
            }
            let mut parser = SpecParser::new(RunSpec::default());
            for pair in &lines {
                if let Err(e) = parser.set(pair) {
                    assert!(e.starts_with(&format!("--set `{pair}`: ")), "{e:?}");
                }
            }
            parser.finish();
        }
        assert!(accepted > 300 && rejected > 300, "{accepted} / {rejected}");
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected_with_line_numbers() {
        let err = parse_config("typo_key = 3").unwrap_err();
        assert!(err.contains("line 1") && err.contains("typo_key"), "{err}");
        let err = parse_config("\nk = many").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_config("just words").unwrap_err();
        assert!(err.contains("key = value"), "{err}");
        let err = parse_config("topology = moebius").unwrap_err();
        assert!(err.contains("moebius"), "{err}");
        let err = parse_config("recovery_max_retries = many").unwrap_err();
        assert!(err.contains("recovery_max_retries"), "{err}");
    }
}
