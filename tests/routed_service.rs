//! Integration tests for the resident control plane: the line protocol
//! end-to-end through the bounded queue, storm behavior at the service
//! surface, and seeded property tests (hand-rolled on `SimRng`; the
//! workspace carries no external property-testing dependency) for
//! flap-damping convergence and backoff bounds.

use mdworm::config::{SystemConfig, TopologyKind};
use mdworm::respond::ResponseConfig;
use mdworm::routed::queue::{submit, Envelope, ShedCounter};
use mdworm::routed::{
    Backoff, FlapDamper, Request, RoutedService, FLAP_HALF_LIFE, FLAP_PENALTY, FLAP_REUSE,
    FLAP_SUPPRESS, MAX_STEP, QUEUE_CAP, RETRY_BASE, RETRY_CAP, RETRY_MAX,
};
use netsim::ids::LinkId;
use netsim::rng::SimRng;
use std::sync::mpsc;
use std::time::Duration;

fn service_cfg() -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 }, // 16 hosts
        response: Some(ResponseConfig::default()),
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
    let (tx, rx) = mpsc::sync_channel::<Envelope>(QUEUE_CAP);
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
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xF1A9 ^ case).fork(case);
        let mut damp = FlapDamper::new(FLAP_PENALTY, FLAP_SUPPRESS, FLAP_REUSE, FLAP_HALF_LIFE);
        let links: Vec<LinkId> = (0..4usize).map(LinkId::from).collect();
        // A random storm: bursts of confirmed transitions over random
        // links at random (increasing) times.
        let mut t = 0u64;
        let events = 20 + rng.below(60);
        for _ in 0..events {
            t += rng.below(FLAP_HALF_LIFE as usize / 2) as u64;
            let link = links[rng.below(links.len())];
            damp.record(link, t);
            damp.advance(t);
            // Invariant: a link at/above the suppress threshold is in the
            // suppressed set until decay brings it under reuse.
            for l in &links {
                if damp.current_penalty(*l) >= FLAP_SUPPRESS {
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
        let worst_penalty = FLAP_PENALTY * events as u64;
        let halvings = 64 - u64::leading_zeros(worst_penalty / FLAP_REUSE) as u64 + 1;
        let deadline = t + (halvings + 2) * FLAP_HALF_LIFE;
        while t < deadline {
            t += 1 + rng.below(FLAP_HALF_LIFE as usize) as u64;
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
            t += FLAP_HALF_LIFE;
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
        let rng = SimRng::new(0xB0FF ^ case).fork(case);
        let mut b = Backoff::new(RETRY_BASE, RETRY_CAP, RETRY_MAX, rng);
        let mut delays = Vec::new();
        while let Some(d) = b.next_delay() {
            delays.push(d);
        }
        assert_eq!(delays.len(), RETRY_MAX as usize, "case {case}");
        for (i, d) in delays.iter().enumerate() {
            assert!(*d >= RETRY_BASE.min(RETRY_CAP), "case {case}[{i}]");
            assert!(*d <= RETRY_CAP, "case {case}[{i}]: {d} over cap");
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

/// Seeded fuzz over the line protocol, through the bounded queue as the
/// binary's reader threads use it: random lines of command words, junk
/// tokens and numbers up to `u64::MAX` never panic the parser or the
/// service, every parsed request gets a reply starting `ok ` or `err `
/// within a deadline, and a step over [`MAX_STEP`] — almost every drawn
/// step count, since most numbers are huge — is refused with `err`
/// without moving the clock.
#[test]
fn random_protocol_lines_never_panic_and_reply_ok_or_err() {
    const COMMANDS: [&str; 10] = [
        "link", "join", "leave", "route", "reach", "health", "metrics", "step", "quit", "exit",
    ];
    const WORDS: [&str; 4] = ["down", "up", "group", "f"];
    const JUNK: [&str; 6] = ["-1", "f-3", "1.5", "x9", "\u{fffd}", "18446744073709551616"];
    // The service owns a `!Send` system, so it is built on a thread of
    // its own; this thread is the client and can give up on a reply
    // instead of hanging behind a wedged request.
    let (tx, rx) = mpsc::sync_channel::<Envelope>(QUEUE_CAP);
    let service = std::thread::spawn(move || {
        let mut service = RoutedService::new(service_cfg()).expect("config is clean");
        service.run(&rx, false);
        service.system().engine.now()
    });
    let shed = ShedCounter::new();
    let send = |line: &str, req: Request| -> String {
        let (reply_tx, reply_rx) = mpsc::channel();
        let env = Envelope {
            req,
            reply: reply_tx,
        };
        submit(&tx, env, &shed).expect("service loop alive");
        reply_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("no reply to `{line}`: {e}"))
    };
    let mut rng = SimRng::new(0xF022);
    let number = |rng: &mut SimRng| match rng.below(3) {
        0 => rng.below(20) as u64,
        1 => u64::MAX - rng.below(4) as u64,
        _ => rng.below(usize::MAX) as u64,
    };
    let (mut handled, mut refused, mut now) = (0, 0, 0);
    for case in 0..30_000 {
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
        // `quit` would end the session; it is sent once, at the end.
        let Ok(req) = Request::parse(&line) else {
            continue;
        };
        if req == Request::Quit {
            continue;
        }
        let step = match req {
            Request::Step(n) => Some(n),
            _ => None,
        };
        let reply = send(&line, req);
        handled += 1;
        assert!(
            reply.starts_with("ok ") || reply.starts_with("err "),
            "case {case}: `{line}` → `{reply}`"
        );
        match step {
            Some(n) if n > MAX_STEP => {
                refused += 1;
                assert!(
                    reply.starts_with("err "),
                    "case {case}: `{line}` → `{reply}`"
                );
                let clock = send("step 0", Request::Step(0));
                assert_eq!(clock, format!("ok now={now}"), "case {case}: `{line}`");
            }
            Some(_) => {
                now = reply
                    .strip_prefix("ok now=")
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| panic!("case {case}: `{line}` → `{reply}`"));
            }
            None => {}
        }
    }
    assert_eq!(send("quit", Request::Quit), "ok bye");
    assert_eq!(service.join().expect("service thread"), now);
    assert!(handled >= 2000, "only {handled} lines parsed");
    assert!(refused > 100, "only {refused} over-cap steps drawn");
}

/// A step over [`MAX_STEP`] is refused with `err` and leaves the clock
/// alone; a step of exactly [`MAX_STEP`] runs.
#[test]
fn step_over_the_cap_is_an_err_reply() {
    let mut service = RoutedService::new(service_cfg()).expect("config is clean");
    let mut send = |line: &str| service.handle(&Request::parse(line).expect(line));
    let reply = send(&format!("step {}", MAX_STEP + 1));
    assert!(
        reply.starts_with("err ") && reply.contains("cap"),
        "{reply}"
    );
    assert_eq!(send("step 0"), "ok now=0");
    assert_eq!(
        send(&format!("step {MAX_STEP}")),
        format!("ok now={MAX_STEP}")
    );
}
