//! The `key = value` config-text dialect shared by `mdw-lint` and
//! `mdw-routed`.
//!
//! One `key = value` per line, `#` starts a comment, unknown keys are
//! rejected with their line number. Parsing starts from
//! [`SystemConfig::default`] (the paper-style 64-host SP2 fabric), so a
//! config file only states what it changes. See `configs/` for annotated
//! examples.

use crate::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use crate::respond::ResponseConfig;
use crate::routed::RoutedConfig;
use collectives::RecoveryConfig;
use mintopo::route::ReplicatePolicy;
use switches::{ReplicationMode, UpSelect};

/// Parses `key = value` config text into a [`SystemConfig`], starting
/// from the paper-style defaults.
///
/// # Errors
///
/// A message naming the line number and the offending key or value.
pub fn parse_config(text: &str) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::default();
    // Topology fields are gathered first so the kind can be assembled
    // whichever order the keys appear in.
    let mut kind = "karytree".to_string();
    let (mut k, mut stages) = (4usize, 3usize);
    let (mut switches_n, mut ports, mut hosts, mut extra_links, mut topo_seed) =
        (8usize, 8usize, 16usize, 4usize, 1u64);

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got `{line}`", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let bad = |what: &str| format!("line {}: bad {what} value `{value}`", lineno + 1);
        let parse_usize = |what: &str| value.parse::<usize>().map_err(|_| bad(what));
        let parse_u64 = |what: &str| value.parse::<u64>().map_err(|_| bad(what));
        match key {
            "topology" => kind = value.to_string(),
            "k" => k = parse_usize("k")?,
            "stages" => stages = parse_usize("stages")?,
            "switches" => switches_n = parse_usize("switches")?,
            "ports" => ports = parse_usize("ports")?,
            "hosts" => hosts = parse_usize("hosts")?,
            "extra_links" => extra_links = parse_usize("extra_links")?,
            "topo_seed" => topo_seed = parse_u64("topo_seed")?,
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
            "chunk_flits" => cfg.switch.chunk_flits = value.parse().map_err(|_| bad(key))?,
            "cq_chunks" => cfg.switch.cq_chunks = parse_usize(key)?,
            "input_buf_flits" => {
                cfg.switch.input_buf_flits = value.parse().map_err(|_| bad(key))?
            }
            "max_packet_flits" => {
                cfg.switch.max_packet_flits = value.parse().map_err(|_| bad(key))?
            }
            "staging_flits" => cfg.switch.staging_flits = value.parse().map_err(|_| bad(key))?,
            "route_delay" => cfg.switch.route_delay = value.parse().map_err(|_| bad(key))?,
            "bypass_crossbar" => {
                cfg.switch.bypass_crossbar = value.parse().map_err(|_| bad(key))?
            }
            "link_delay" => cfg.link_delay = value.parse().map_err(|_| bad(key))?,
            "host_eject_credits" => cfg.host_eject_credits = value.parse().map_err(|_| bad(key))?,
            "bits_per_flit" => cfg.bits_per_flit = parse_usize(key)?,
            "barrier_combining" => cfg.barrier_combining = value.parse().map_err(|_| bad(key))?,
            "seed" => cfg.seed = parse_u64(key)?,
            // Model-check decomposition of the deep reroute vet
            // (DESIGN.md §14); both spellings accepted.
            "model.mode" | "model_mode" => {
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
                    cfg.recovery.get_or_insert_with(RecoveryConfig::default);
                }
                "off" | "false" => cfg.recovery = None,
                _ => return Err(bad("recovery (on|off)")),
            },
            "recovery_timeout" => {
                cfg.recovery
                    .get_or_insert_with(RecoveryConfig::default)
                    .timeout = parse_u64(key)?
            }
            "recovery_timeout_cap" => {
                cfg.recovery
                    .get_or_insert_with(RecoveryConfig::default)
                    .timeout_cap = parse_u64(key)?
            }
            "recovery_max_retries" => {
                cfg.recovery
                    .get_or_insert_with(RecoveryConfig::default)
                    .max_retries = value.parse().map_err(|_| bad(key))?
            }
            // Online fault response (detect / reroute / quiesce / degrade).
            "response" => match value {
                "on" | "true" => {
                    cfg.response.get_or_insert_with(ResponseConfig::default);
                }
                "off" | "false" => cfg.response = None,
                _ => return Err(bad("response (on|off)")),
            },
            "response_debounce" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .debounce = parse_u64(key)?
            }
            "response_drain_wait" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .drain_wait = parse_u64(key)?
            }
            "response_purge_max" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .purge_max = parse_u64(key)?
            }
            "response_max_hops" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .max_hops = parse_usize(key)?
            }
            "response_event_log_cap" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .event_log_cap = parse_usize(key)?
            }
            // Responder write-ahead journal (DESIGN.md §15); both
            // spellings accepted. Setting either implies `response = on`.
            "journal.snapshot_every" | "journal_snapshot_every" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .snapshot_every = parse_u64(key)?
            }
            "journal.latency_cap" | "journal_latency_cap" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .latency_cap = parse_usize(key)?
            }
            // Engine-level torn-install audit over the two-phase epoch
            // protocol; both spellings accepted.
            "epoch.audit" | "epoch_audit" => match value {
                "on" | "true" => cfg.epoch_audit = true,
                "off" | "false" => cfg.epoch_audit = false,
                _ => return Err(bad("epoch.audit (on|off)")),
            },
            // Certificate-based deadlock-freedom checking (DESIGN.md
            // §16); both spellings accepted.
            "certify.enabled" | "certify_enabled" => match value {
                "on" | "true" => cfg.certify.enabled = true,
                "off" | "false" => cfg.certify.enabled = false,
                _ => return Err(bad("certify.enabled (on|off)")),
            },
            "certify.cdg_budget" | "certify_cdg_budget" => {
                cfg.certify.cdg_budget = parse_usize(key)?
            }
            // LRU capacity of the fault responder's vet memos; setting it
            // implies `response = on`.
            "response.memo_cap" | "response_memo_cap" => {
                cfg.response
                    .get_or_insert_with(ResponseConfig::default)
                    .memo_cap = parse_usize(key)?
            }
            // Resident control plane (`mdw-routed`) storm hardening.
            "routed" => match value {
                "on" | "true" => {
                    cfg.routed.get_or_insert_with(RoutedConfig::default);
                }
                "off" | "false" => cfg.routed = None,
                _ => return Err(bad("routed (on|off)")),
            },
            "routed_queue_cap" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .queue_cap = parse_usize(key)?
            }
            "routed_slice" => {
                cfg.routed.get_or_insert_with(RoutedConfig::default).slice = parse_u64(key)?
            }
            "routed_flap_penalty" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .flap_penalty = parse_u64(key)?
            }
            "routed_flap_suppress" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .flap_suppress = parse_u64(key)?
            }
            "routed_flap_reuse" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .flap_reuse = parse_u64(key)?
            }
            "routed_flap_half_life" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .flap_half_life = parse_u64(key)?
            }
            "routed_retry_base" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .retry_base = parse_u64(key)?
            }
            "routed_retry_cap" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .retry_cap = parse_u64(key)?
            }
            "routed_retry_max" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .retry_max = value.parse().map_err(|_| bad(key))?
            }
            "routed_heal_hysteresis" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .heal_hysteresis = parse_u64(key)?
            }
            "routed_deadline" => {
                cfg.routed
                    .get_or_insert_with(RoutedConfig::default)
                    .deadline = parse_u64(key)?
            }
            _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
        }
    }

    cfg.topology = match kind.as_str() {
        "karytree" | "tree" => TopologyKind::KaryTree { k, n: stages },
        "unimin" | "butterfly" => TopologyKind::UniMin { k, n: stages },
        "irregular" => TopologyKind::Irregular {
            switches: switches_n,
            ports,
            hosts,
            extra_links,
            seed: topo_seed,
        },
        other => {
            return Err(format!(
                "unknown topology `{other}` (karytree|unimin|irregular)"
            ))
        }
    };
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_text_is_the_default_config() {
        let cfg = parse_config("").expect("parses");
        assert_eq!(cfg.n_hosts(), 64);
        assert_eq!(cfg.arch, SwitchArch::CentralBuffer);
        assert!(cfg.routed.is_none());
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
            response_debounce = 128
            response = on
            response_purge_max = 512
            response_max_hops = 32
            response_event_log_cap = 64
            ",
        )
        .expect("parses");
        let rec = cfg.recovery.expect("recovery on");
        assert_eq!(rec.timeout, 5_000);
        assert_eq!(rec.max_retries, 3);
        assert_eq!(rec.timeout_cap, RecoveryConfig::default().timeout_cap);
        let resp = cfg.response.expect("response on");
        assert_eq!(resp.debounce, 128);
        assert_eq!(resp.purge_max, 512);
        assert_eq!(resp.max_hops, 32);
        assert_eq!(resp.event_log_cap, 64);
        assert_eq!(resp.drain_wait, ResponseConfig::default().drain_wait);

        let cfg = parse_config("response = on\nresponse = off").expect("parses");
        assert!(cfg.response.is_none(), "later `off` wins");
        let err = parse_config("response = maybe").unwrap_err();
        assert!(err.contains("response"), "{err}");
    }

    #[test]
    fn routed_keys_materialize_and_lint() {
        let cfg = parse_config(
            "
            routed = on
            routed_queue_cap = 32
            routed_slice = 16
            routed_flap_penalty = 500
            routed_flap_suppress = 1500
            routed_flap_reuse = 400
            routed_flap_half_life = 1024
            routed_retry_base = 32
            routed_retry_cap = 2048
            routed_retry_max = 4
            routed_heal_hysteresis = 4096
            routed_deadline = 8192
            response = on
            recovery = on
            ",
        )
        .expect("parses");
        let routed = cfg.routed.clone().expect("routed on");
        assert_eq!(routed.queue_cap, 32);
        assert_eq!(routed.slice, 16);
        assert_eq!(routed.flap_penalty, 500);
        assert_eq!(routed.flap_suppress, 1_500);
        assert_eq!(routed.flap_reuse, 400);
        assert_eq!(routed.flap_half_life, 1_024);
        assert_eq!(routed.retry_base, 32);
        assert_eq!(routed.retry_cap, 2_048);
        assert_eq!(routed.retry_max, 4);
        assert_eq!(routed.heal_hysteresis, 4_096);
        assert_eq!(routed.deadline, 8_192);
        assert!(!cfg.report().has_errors(), "{:?}", cfg.report().diagnostics);

        // `routed = off` later wins, like the other optional blocks.
        let cfg = parse_config("routed = on\nrouted = off").expect("parses");
        assert!(cfg.routed.is_none());
    }

    #[test]
    fn routed_without_response_fails_the_lint() {
        let cfg = parse_config("routed = on").expect("parses");
        let report = cfg.report();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "routed-needs-response"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn routed_flap_thresholds_must_leave_a_cooling_gap() {
        let cfg = parse_config(
            "routed = on\nresponse = on\nrecovery = on\n\
             routed_flap_reuse = 3000\nrouted_flap_suppress = 2500",
        )
        .expect("parses");
        let report = cfg.report();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "routed-flap-thresholds"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn journal_and_epoch_keys_parse_both_spellings() {
        // Journal tuning keys materialize the response block and land in
        // the same fields under either spelling.
        let cfg = parse_config("journal.snapshot_every = 128").expect("parses");
        assert_eq!(
            cfg.response
                .as_ref()
                .expect("implies response")
                .snapshot_every,
            128
        );
        let cfg =
            parse_config("journal_snapshot_every = 64\njournal.latency_cap = 512").expect("parses");
        let resp = cfg.response.clone().expect("implies response");
        assert_eq!(resp.snapshot_every, 64);
        assert_eq!(resp.latency_cap, 512);
        assert!(!cfg.report().has_errors(), "{:?}", cfg.report().diagnostics);

        let cfg = parse_config("epoch.audit = on").expect("parses");
        assert!(cfg.epoch_audit);
        let cfg = parse_config("epoch_audit = true\nepoch.audit = off").expect("parses");
        assert!(!cfg.epoch_audit, "later `off` wins");
        let err = parse_config("epoch.audit = maybe").unwrap_err();
        assert!(err.contains("epoch.audit"), "{err}");

        // Zero cadences are parseable but fail the lint: a zero snapshot
        // interval would snapshot on every append, a zero latency ring
        // records nothing.
        let cfg = parse_config("journal.snapshot_every = 0").expect("parses");
        assert!(
            cfg.report()
                .diagnostics
                .iter()
                .any(|d| d.code == "journal-snapshot-zero"),
            "{:?}",
            cfg.report().diagnostics
        );
        let cfg = parse_config("journal.latency_cap = 0").expect("parses");
        assert!(
            cfg.report()
                .diagnostics
                .iter()
                .any(|d| d.code == "journal-latency-cap-zero"),
            "{:?}",
            cfg.report().diagnostics
        );
        let err = parse_config("journal.latency_cap = many").unwrap_err();
        assert!(err.contains("journal.latency_cap"), "{err}");
    }

    #[test]
    fn certify_and_memo_keys_parse_both_spellings() {
        let cfg = parse_config("").expect("parses");
        assert!(!cfg.certify.enabled);
        assert_eq!(cfg.certify.cdg_budget, 100_000);

        let cfg = parse_config("certify.enabled = on").expect("parses");
        assert!(cfg.certify.enabled);
        let cfg = parse_config("certify_enabled = true\ncertify.enabled = off").expect("parses");
        assert!(!cfg.certify.enabled, "later `off` wins");
        let cfg = parse_config("certify.cdg_budget = 5000\ncertify_enabled = on").expect("parses");
        assert!(cfg.certify.enabled);
        assert_eq!(cfg.certify.cdg_budget, 5_000);
        let cfg = parse_config("certify_cdg_budget = 123").expect("parses");
        assert_eq!(cfg.certify.cdg_budget, 123);
        assert!(!cfg.report().has_errors(), "{:?}", cfg.report().diagnostics);

        // A zero budget is parseable but fails the lint.
        let cfg = parse_config("certify.cdg_budget = 0").expect("parses");
        assert!(
            cfg.report()
                .diagnostics
                .iter()
                .any(|d| d.code == "certify-budget-zero"),
            "{:?}",
            cfg.report().diagnostics
        );
        let err = parse_config("certify.enabled = maybe").unwrap_err();
        assert!(err.contains("certify.enabled"), "{err}");
        let err = parse_config("certify.cdg_budget = many").unwrap_err();
        assert!(err.contains("certify.cdg_budget"), "{err}");

        // Memo-cap keys materialize the response block like the journal
        // keys do.
        let cfg = parse_config("response.memo_cap = 64").expect("parses");
        assert_eq!(
            cfg.response.as_ref().expect("implies response").memo_cap,
            64
        );
        let cfg = parse_config("response_memo_cap = 16").expect("parses");
        assert_eq!(
            cfg.response.as_ref().expect("implies response").memo_cap,
            16
        );
        let err = parse_config("response.memo_cap = many").unwrap_err();
        assert!(err.contains("response.memo_cap"), "{err}");
    }

    #[test]
    fn model_mode_key_parses_both_spellings() {
        use mdw_analysis::ModelMode;
        let cfg = parse_config("").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Auto);
        let cfg = parse_config("model.mode = exact").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Exact);
        let cfg = parse_config("model_mode = compositional").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Compositional);
        let cfg = parse_config("model.mode = auto").expect("parses");
        assert_eq!(cfg.model_mode, ModelMode::Auto);
        let err = parse_config("model.mode = heuristic").unwrap_err();
        assert!(err.contains("model.mode"), "{err}");
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
        let err = parse_config("routed_retry_max = many").unwrap_err();
        assert!(err.contains("routed_retry_max"), "{err}");
    }
}
