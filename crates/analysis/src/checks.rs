//! Buffer-sufficiency and protocol-invariant checks per switch
//! architecture.
//!
//! The paper's deadlock-freedom condition is *weaker than virtual
//! cut-through*: a packet accepted for transmission must **eventually** be
//! completely bufferable — not necessarily at every hop the moment it
//! arrives. Statically that turns into sizing rules per architecture:
//!
//! * **Central buffer** (SP2-class): the maximum worm must fit in the
//!   shared central queue, and the queue must hold at least *two* maximum
//!   worms so one worm's worth of chunks can be reserved for descending
//!   traffic (the store-and-forward escape path; see
//!   [`SwitchConfig::cq_down_reserve`]).
//! * **Input buffered**: the maximum worm must fit in a single input
//!   FIFO, and branch replication must be *asynchronous* — synchronous
//!   (lock-step) replication admits grant-wait cycles between partially
//!   granted multidestination worms (paper §3, Chiang & Ni), a hazard the
//!   runtime watchdog demonstrably catches.
//!
//! The sizing rules themselves live once, in
//! [`SwitchConfig::sizing_violations`]; [`SwitchConfig::validate`]
//! reports the first of them and [`switch_sizing`] reports them all.

use crate::report::ConfigReport;
use switches::{ReplicationMode, SwitchConfig};

/// Switch architecture, as the analysis sees it (mirrors
/// `core::SwitchArch` without depending on the `core` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchClass {
    /// Shared central queue with chunk-refcount replication.
    CentralBuffer,
    /// Per-input packet FIFOs with cursor replication.
    InputBuffered,
}

/// Runs every switch-level sizing and protocol check, appending findings
/// to `report`.
///
/// The sizing errors are [`SwitchConfig::sizing_violations`] in rule
/// order, so `Result`-based callers surfacing
/// [`ConfigReport::first_error`] see what [`SwitchConfig::validate`]
/// reports; the architecture-specific hazard checks follow as warnings.
pub fn switch_sizing(cfg: &SwitchConfig, arch: ArchClass, report: &mut ConfigReport) {
    for (code, message) in cfg.sizing_violations() {
        report.error(code, message);
    }

    // Architecture-specific protocol hazards (warnings: the configuration
    // can run — existing ablation experiments do — but is not
    // unconditionally safe).
    if arch == ArchClass::InputBuffered && cfg.replication == ReplicationMode::Synchronous {
        report.warning(
            "sync-replication-hazard",
            format!(
                "synchronous (lock-step) replication on the input-buffered switch \
                 admits grant-wait cycles between partially granted \
                 multidestination worms (paper §3): two worms can each hold a \
                 subset of the other's output ports and neither ever streams; \
                 use {:?} replication for a deadlock-freedom guarantee",
                ReplicationMode::Asynchronous
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    #[test]
    fn defaults_pass_clean_on_both_architectures() {
        for arch in [ArchClass::CentralBuffer, ArchClass::InputBuffered] {
            let mut r = ConfigReport::new();
            switch_sizing(&SwitchConfig::default(), arch, &mut r);
            assert!(r.is_clean(), "{:?}: {:?}", arch, r.diagnostics);
        }
    }

    #[test]
    fn messages_match_legacy_validate_exactly() {
        // Each broken field must yield the same first message the
        // `SwitchConfig::validate` Result interface produces.
        let broken = [
            SwitchConfig {
                ports: 1,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                chunk_flits: 0,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                cq_chunks: 0,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                max_packet_flits: 1,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                max_packet_flits: 2048,
                input_buf_flits: 4096,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                cq_chunks: 20,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                input_buf_flits: 64,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                staging_flits: 2,
                ..SwitchConfig::default()
            },
        ];
        for cfg in broken {
            let legacy = cfg.validate().expect_err("config is broken").to_string();
            let mut r = ConfigReport::new();
            switch_sizing(&cfg, ArchClass::CentralBuffer, &mut r);
            let first = r.first_error().expect("analysis flags it too");
            assert_eq!(first.message, legacy);
        }
    }

    /// Codes, messages and their order, pinned on two configs that break
    /// every sizing rule between them.
    #[test]
    fn sizing_codes_messages_and_order_are_pinned() {
        let all_but_sanity = SwitchConfig {
            ports: 1,
            cq_chunks: 4,
            max_packet_flits: 64,
            input_buf_flits: 32,
            staging_flits: 2,
            replication: ReplicationMode::Synchronous,
            ..SwitchConfig::default()
        };
        let sanity = SwitchConfig {
            ports: 17,
            chunk_flits: 0,
            cq_chunks: 0,
            max_packet_flits: 1,
            input_buf_flits: 0,
            ..SwitchConfig::default()
        };
        let render = |cfg: &SwitchConfig| {
            let mut r = ConfigReport::new();
            switch_sizing(cfg, ArchClass::InputBuffered, &mut r);
            r.diagnostics
                .iter()
                .map(|d| format!("{:?} {}: {}", d.severity, d.code, d.message))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            render(&all_but_sanity),
            [
                "Error ports-out-of-range: ports must be 2..=16, got 1",
                "Error cb-packet-exceeds-cq: max packet (64 flits) exceeds central queue \
                 (32 flits): deadlock-freedom guarantee impossible",
                "Error cb-no-descending-reserve: central queue (4 chunks) must hold at least \
                 two max packets (8 chunks each): one is reserved for descending traffic",
                "Error ib-packet-exceeds-fifo: max packet (64 flits) exceeds input buffer \
                 (32 flits): deadlock-freedom guarantee impossible",
                "Error staging-below-decode: staging of 2 flits cannot cover decode latency \
                 (need >= 4)",
                "Warning sync-replication-hazard: synchronous (lock-step) replication on the \
                 input-buffered switch admits grant-wait cycles between partially granted \
                 multidestination worms (paper §3): two worms can each hold a subset of the \
                 other's output ports and neither ever streams; use Asynchronous replication \
                 for a deadlock-freedom guarantee",
            ]
        );
        assert_eq!(
            render(&sanity),
            [
                "Error ports-out-of-range: ports must be 2..=16, got 17",
                "Error chunk-holds-no-flit: chunks must hold at least one flit",
                "Error cq-empty: central queue needs capacity",
                "Error packet-below-header: packets have at least a header; \
                 max_packet_flits 1 is too small",
                "Error ib-packet-exceeds-fifo: max packet (1 flits) exceeds input buffer \
                 (0 flits): deadlock-freedom guarantee impossible",
            ]
        );
    }

    #[test]
    fn undersized_central_queue_is_a_hard_error() {
        // The crafted deadlock-prone shape: a worm longer than the entire
        // central queue can never be completely buffered.
        let cfg = SwitchConfig {
            cq_chunks: 4,
            chunk_flits: 8,
            max_packet_flits: 64,
            input_buf_flits: 256,
            ..SwitchConfig::default()
        };
        let mut r = ConfigReport::new();
        switch_sizing(&cfg, ArchClass::CentralBuffer, &mut r);
        assert!(r.has_errors());
        assert!(r.errors().any(|d| d.code == "cb-packet-exceeds-cq"));
    }

    #[test]
    fn sync_replication_warns_on_input_buffered_only() {
        let cfg = SwitchConfig {
            replication: ReplicationMode::Synchronous,
            ..SwitchConfig::default()
        };
        let mut r = ConfigReport::new();
        switch_sizing(&cfg, ArchClass::InputBuffered, &mut r);
        assert!(!r.has_errors(), "hazard, not a hard error");
        let w = r.warnings().next().expect("warning emitted");
        assert_eq!(w.code, "sync-replication-hazard");
        assert_eq!(w.severity, Severity::Warning);

        let mut r = ConfigReport::new();
        switch_sizing(&cfg, ArchClass::CentralBuffer, &mut r);
        assert!(
            r.is_clean(),
            "central-buffer replication is inherently asynchronous"
        );
    }
}
