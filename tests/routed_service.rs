//! Integration tests for the resident control plane: the line protocol
//! end-to-end through the bounded queue, storm behavior at the service
//! surface, and seeded property tests (hand-rolled on `SimRng`; the
//! workspace carries no external property-testing dependency) for
//! flap-damping convergence and backoff bounds.

use mdworm::config::{SystemConfig, TopologyKind};
use mdworm::respond::ResponseConfig;
use mdworm::routed::queue::{submit, Envelope, ShedCounter};
use mdworm::routed::{Backoff, FlapDamper, Request, RoutedConfig, RoutedService};
use netsim::ids::LinkId;
use netsim::rng::SimRng;
use std::sync::mpsc;

fn service_cfg() -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 }, // 16 hosts
        response: Some(ResponseConfig::default()),
        routed: Some(RoutedConfig::default()),
        recovery: None,
        ..SystemConfig::default()
    }
}

#[test]
fn protocol_session_drives_an_outage_through_the_queue() {
    // The service loop owns the (!Send) system on this thread; a producer
    // thread plays a client session through the bounded queue exactly as
    // the binary's reader threads do.
    let mut service = RoutedService::new(service_cfg()).expect("config is clean");
    let (tx, rx) = mpsc::sync_channel::<Envelope>(service.queue_cap());
    let shed = service.shed_counter();

    let producer = std::thread::spawn(move || {
        let script = [
            "health",
            "join 7 3",
            "join 7 5",
            "route 0 group 7",
            "link down f0",
            "step 3000",
            "health",
            "route 0 group 7",
            "link up f0",
            "step 9000",
            "health",
            "metrics",
            "quit",
        ];
        let mut replies = Vec::new();
        for line in script {
            let req = Request::parse(line).expect(line);
            let (reply_tx, reply_rx) = mpsc::channel();
            submit(
                &tx,
                Envelope {
                    req,
                    reply: reply_tx,
                },
                &shed,
            )
            .expect("service loop alive");
            replies.push((line, reply_rx.recv().expect("reply")));
        }
        replies
    });

    service.run(&rx, false);
    let replies = producer.join().expect("producer thread");

    let get = |line: &str| -> &str {
        &replies
            .iter()
            .find(|(l, _)| *l == line)
            .unwrap_or_else(|| panic!("no reply for `{line}`"))
            .1
    };
    assert!(get("join 7 5").contains("size 2"));
    // During the outage the fabric is masked and the group still routes.
    let masked_health = &replies[6].1;
    assert!(
        masked_health.contains("rung=masked-mcast") && masked_health.contains("masked=1"),
        "{masked_health}"
    );
    assert!(replies[7].1.starts_with("ok worm="), "{}", replies[7].1);
    // After heal the rung climbs back to full multicast.
    let healed_health = &replies[10].1;
    assert!(
        healed_health.contains("rung=full-mcast") && healed_health.contains("heals=1"),
        "{healed_health}"
    );
    let metrics = get("metrics");
    assert!(metrics.contains("episodes=2"), "{metrics}");
    assert!(get("quit") == "ok bye");
    // Clean shutdown: the final metrics snapshot is still coherent.
    assert_eq!(service.metrics().episodes, 2);
}

#[test]
fn malformed_and_out_of_range_requests_get_err_replies() {
    let mut service = RoutedService::new(service_cfg()).expect("config is clean");
    let n_links = service.system().engine.n_links();
    let cases = [
        (format!("link down {n_links}"), "out of range"),
        ("link down f9999".to_string(), "out of range"),
        ("route 99 1".to_string(), "out of range"),
        ("route 0 99".to_string(), "out of range"),
        ("reach 99".to_string(), "out of range"),
        ("join 1 99".to_string(), "out of range"),
        ("route 0 group 42".to_string(), "unknown group"),
    ];
    for (line, want) in &cases {
        let req = Request::parse(line).expect(line);
        let reply = service.handle(&req);
        assert!(
            reply.starts_with("err") && reply.contains(want),
            "`{line}` → `{reply}`"
        );
    }
    // Requests after errors still work: the service never wedges.
    let reply = service.handle(&Request::parse("health").unwrap());
    assert!(reply.starts_with("ok "), "{reply}");
}

#[test]
fn query_shedding_applies_backpressure_policy_per_class() {
    // A one-slot queue that nobody drains: queries shed, never block.
    let (tx, _rx) = mpsc::sync_channel::<Envelope>(1);
    let shed = ShedCounter::new();
    let send = |line: &str| {
        let (reply_tx, reply_rx) = mpsc::channel();
        let ok = submit(
            &tx,
            Envelope {
                req: Request::parse(line).unwrap(),
                reply: reply_tx,
            },
            &shed,
        )
        .unwrap();
        (ok, reply_rx)
    };
    let (ok, _) = send("health");
    assert!(ok, "first request fills the queue");
    for i in 0..5 {
        let (ok, reply_rx) = send("route 0 1 2");
        assert!(!ok, "query {i} must shed, not block");
        assert!(reply_rx.recv().unwrap().starts_with("err shed"));
    }
    assert_eq!(shed.get(), 5);
}

/// Property: under any random flap schedule, damping converges — a link
/// that keeps flapping is suppressed (and stays suppressed while the
/// pressure continues), and once the flapping stops every link cools
/// off, is reinstated exactly once, and nothing oscillates afterwards.
#[test]
fn flap_damping_converges_under_random_schedules() {
    let base = RoutedConfig::default();
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xF1A9 ^ case).fork(case);
        let mut damp = FlapDamper::new(
            base.flap_penalty,
            base.flap_suppress,
            base.flap_reuse,
            base.flap_half_life,
        );
        let links: Vec<LinkId> = (0..4usize).map(LinkId::from).collect();
        // A random storm: bursts of confirmed transitions over random
        // links at random (increasing) times.
        let mut t = 0u64;
        let events = 20 + rng.below(60);
        for _ in 0..events {
            t += rng.below(base.flap_half_life as usize / 2) as u64;
            let link = links[rng.below(links.len())];
            damp.record(link, t);
            damp.advance(t);
            // Invariant: a link at/above the suppress threshold is in the
            // suppressed set until decay brings it under reuse.
            for l in &links {
                if damp.current_penalty(*l) >= base.flap_suppress {
                    assert!(
                        damp.suppressed().contains(l),
                        "case {case}: hot link not suppressed at t={t}"
                    );
                }
            }
        }
        // Storm over. Advance in random strides: every suppression must
        // clear within the analytic cool-off bound, and once cleared the
        // counters freeze — no oscillation without new transitions.
        let worst_penalty = base.flap_penalty * events as u64;
        let halvings = 64 - u64::leading_zeros(worst_penalty / base.flap_reuse.max(1)) as u64 + 1;
        let deadline = t + (halvings + 2) * base.flap_half_life;
        while t < deadline {
            t += 1 + rng.below(base.flap_half_life as usize) as u64;
            damp.advance(t);
        }
        assert!(
            damp.suppressed().is_empty(),
            "case {case}: suppression survived past the decay deadline"
        );
        assert_eq!(
            damp.suppressions(),
            damp.reinstatements(),
            "case {case}: every suppression reinstates exactly once"
        );
        let (sup, reins) = (damp.suppressions(), damp.reinstatements());
        for _ in 0..16 {
            t += base.flap_half_life;
            damp.advance(t);
        }
        assert_eq!(
            (damp.suppressions(), damp.reinstatements()),
            (sup, reins),
            "case {case}: damper oscillated with no input"
        );
    }
}

/// Property: backoff delays are monotone non-decreasing up to the cap,
/// never exceed the cap, and the attempt budget is exact.
#[test]
fn backoff_is_capped_and_budgeted_under_random_seeds() {
    for case in 0..64u64 {
        let cfg = RoutedConfig::default();
        let rng = SimRng::new(0xB0FF ^ case).fork(case);
        let mut b = Backoff::new(cfg.retry_base, cfg.retry_cap, cfg.retry_max, rng);
        let mut delays = Vec::new();
        while let Some(d) = b.next_delay() {
            delays.push(d);
        }
        assert_eq!(delays.len(), cfg.retry_max as usize, "case {case}");
        for (i, d) in delays.iter().enumerate() {
            assert!(*d >= cfg.retry_base.min(cfg.retry_cap), "case {case}[{i}]");
            assert!(*d <= cfg.retry_cap, "case {case}[{i}]: {d} over cap");
        }
        // Exhausted stays exhausted until reset.
        assert!(b.next_delay().is_none(), "case {case}");
        b.reset();
        assert!(
            b.next_delay().is_some(),
            "case {case}: reset restores budget"
        );
    }
}

/// `step` past the end of the cycle counter is an `err` reply — not an
/// overflow panic in debug builds or a wrapped no-op in release ones —
/// and the clock stays where it was.
#[test]
fn step_past_the_end_of_the_cycle_counter_is_an_err_reply() {
    let mut service = RoutedService::new(service_cfg()).expect("config is clean");
    let mut send = |line: &str| service.handle(&Request::parse(line).expect(line));
    assert_eq!(send("step 1"), "ok now=1");
    let reply = send(&format!("step {}", u64::MAX));
    assert!(
        reply.starts_with("err ") && reply.contains("overflows"),
        "{reply}"
    );
    assert_eq!(send("step 1"), "ok now=2");
}

/// Seeded fuzz over the line protocol: random lines of command words,
/// junk tokens and numbers up to `u64::MAX` never panic the parser or
/// the service, and every parsed request gets a reply starting `ok ` or
/// `err `. Steps run only over small counts, so the loop stays fast; the
/// one exception is a step that would overflow the cycle counter, which
/// must be refused with `err`.
#[test]
fn random_protocol_lines_never_panic_and_reply_ok_or_err() {
    const COMMANDS: [&str; 10] = [
        "link", "join", "leave", "route", "reach", "health", "metrics", "step", "quit", "exit",
    ];
    const WORDS: [&str; 4] = ["down", "up", "group", "f"];
    const JUNK: [&str; 6] = ["-1", "f-3", "1.5", "x9", "\u{fffd}", "18446744073709551616"];
    const MAX_STEP: u64 = 64;
    let mut service = RoutedService::new(service_cfg()).expect("config is clean");
    let mut rng = SimRng::new(0xF022);
    let number = |rng: &mut SimRng| match rng.below(3) {
        0 => rng.below(20) as u64,
        1 => u64::MAX - rng.below(4) as u64,
        _ => rng.below(usize::MAX) as u64,
    };
    let (mut handled, mut overflows) = (0, 0);
    for case in 0..20_000 {
        let mut tokens = vec![COMMANDS[rng.below(COMMANDS.len())].to_string()];
        for _ in 0..rng.below(4) {
            tokens.push(match rng.below(6) {
                0 | 1 => WORDS[rng.below(WORDS.len())].to_string(),
                2 => format!("f{}", number(&mut rng)),
                3 => JUNK[rng.below(JUNK.len())].to_string(),
                _ => number(&mut rng).to_string(),
            });
        }
        if rng.below(8) == 0 {
            let j = rng.below(tokens.len());
            tokens.swap(0, j);
        }
        let line = tokens.join(" ");
        let Ok(req) = Request::parse(&line) else {
            continue;
        };
        let now = service.system().engine.now();
        let overflow = match req {
            Request::Step(n) if now.checked_add(n).is_none() => true,
            Request::Step(n) if n > MAX_STEP => continue,
            _ => false,
        };
        let reply = service.handle(&req);
        handled += 1;
        assert!(
            reply.starts_with("ok ") || reply.starts_with("err "),
            "case {case}: `{line}` → `{reply}`"
        );
        if overflow {
            overflows += 1;
            assert!(
                reply.starts_with("err "),
                "case {case}: `{line}` → `{reply}`"
            );
            assert_eq!(service.system().engine.now(), now, "case {case}");
        }
    }
    assert!(handled >= 2000, "only {handled} lines parsed");
    assert!(overflows > 0, "no overflowing step was drawn");
}
