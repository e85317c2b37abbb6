//! The line-delimited request protocol `mdw-routed` clients speak.
//!
//! One request per line, ASCII, whitespace-separated; one reply line per
//! request, starting `ok ` or `err `. The full grammar:
//!
//! ```text
//! link down <link-id>          # administratively fail a link
//! link up <link-id>            # restore it
//! join <group> <host>          # add a host to a multicast group
//! leave <group> <host>         # remove it
//! route <src> <host>...        # coverage plan for an explicit dest set
//! route <src> group <group>    # coverage plan for a group
//! reach <src>                  # worm-coverable hosts from src
//! health                       # rung, masked/suppressed counts, totals
//! metrics                      # p50/p99 latency + service counters
//! step <cycles>                # advance the fabric deterministically
//!                              # (at most MAX_STEP = 1000000 cycles)
//! quit                         # shut the service down cleanly
//! ```
//!
//! Parsing is total and allocation-light: every error names the offending
//! token so a misbehaving client can be debugged from its own transcript.

/// How a client names a link: by raw engine id, or as the `k`-th fabric
/// (switch-to-switch) link — `f3` in protocol text. Fabric addressing is
/// stable for a fixed config, so storm scripts can target links that
/// actually carry reroutable traffic without dumping the id space first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRef {
    /// Raw engine link id.
    Raw(usize),
    /// Index into the fabric-link list.
    Fabric(usize),
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Administratively fail a link.
    LinkDown(LinkRef),
    /// Restore an administratively failed link.
    LinkUp(LinkRef),
    /// Add a host to a multicast group (created on first join).
    Join {
        /// Group identifier.
        group: u64,
        /// Host to add.
        host: usize,
    },
    /// Remove a host from a multicast group.
    Leave {
        /// Group identifier.
        group: u64,
        /// Host to remove.
        host: usize,
    },
    /// Coverage plan for an explicit destination set.
    Route {
        /// Source host.
        src: usize,
        /// Destination hosts.
        dests: Vec<usize>,
    },
    /// Coverage plan for a multicast group.
    RouteGroup {
        /// Source host.
        src: usize,
        /// Group identifier.
        group: u64,
    },
    /// Worm-coverable hosts from a source.
    Reach(usize),
    /// Health snapshot.
    Health,
    /// Service metrics.
    Metrics,
    /// Advance the fabric by this many cycles.
    Step(u64),
    /// Clean shutdown.
    Quit,
}

impl Request {
    /// `true` for read-only requests that may be shed under overload;
    /// `false` for fabric events that must apply backpressure instead.
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            Request::Route { .. }
                | Request::RouteGroup { .. }
                | Request::Reach(_)
                | Request::Health
                | Request::Metrics
        )
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bad token or arity.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut words = line.split_whitespace();
        let cmd = words.next().ok_or("empty request")?;
        let rest: Vec<&str> = words.collect();
        let num = |w: &str, what: &str| -> Result<usize, String> {
            w.parse::<usize>().map_err(|_| format!("bad {what} `{w}`"))
        };
        let num64 = |w: &str, what: &str| -> Result<u64, String> {
            w.parse::<u64>().map_err(|_| format!("bad {what} `{w}`"))
        };
        let link_ref = |w: &str| -> Result<LinkRef, String> {
            match w.strip_prefix('f') {
                Some(k) => Ok(LinkRef::Fabric(num(k, "fabric link index")?)),
                None => Ok(LinkRef::Raw(num(w, "link id")?)),
            }
        };
        match cmd {
            "link" => match rest.as_slice() {
                ["down", id] => Ok(Request::LinkDown(link_ref(id)?)),
                ["up", id] => Ok(Request::LinkUp(link_ref(id)?)),
                _ => Err("usage: link down|up <link-id | f<fabric-index>>".to_string()),
            },
            "join" | "leave" => match rest.as_slice() {
                [g, h] => {
                    let group = num64(g, "group")?;
                    let host = num(h, "host")?;
                    Ok(if cmd == "join" {
                        Request::Join { group, host }
                    } else {
                        Request::Leave { group, host }
                    })
                }
                _ => Err(format!("usage: {cmd} <group> <host>")),
            },
            "route" => match rest.as_slice() {
                [src, "group", g] => Ok(Request::RouteGroup {
                    src: num(src, "source host")?,
                    group: num64(g, "group")?,
                }),
                [src, dests @ ..] if !dests.is_empty() => Ok(Request::Route {
                    src: num(src, "source host")?,
                    dests: dests
                        .iter()
                        .map(|d| num(d, "destination host"))
                        .collect::<Result<_, _>>()?,
                }),
                _ => Err("usage: route <src> <host>... | route <src> group <g>".to_string()),
            },
            "reach" => match rest.as_slice() {
                [src] => Ok(Request::Reach(num(src, "source host")?)),
                _ => Err("usage: reach <src>".to_string()),
            },
            "health" if rest.is_empty() => Ok(Request::Health),
            "metrics" if rest.is_empty() => Ok(Request::Metrics),
            "step" => match rest.as_slice() {
                [n] => Ok(Request::Step(num64(n, "cycle count")?)),
                _ => Err("usage: step <cycles>".to_string()),
            },
            "quit" | "exit" if rest.is_empty() => Ok(Request::Quit),
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        assert_eq!(
            Request::parse("link down 12"),
            Ok(Request::LinkDown(LinkRef::Raw(12)))
        );
        assert_eq!(
            Request::parse("link up 12"),
            Ok(Request::LinkUp(LinkRef::Raw(12)))
        );
        assert_eq!(
            Request::parse("link down f3"),
            Ok(Request::LinkDown(LinkRef::Fabric(3)))
        );
        assert_eq!(
            Request::parse("link up f0"),
            Ok(Request::LinkUp(LinkRef::Fabric(0)))
        );
        assert_eq!(
            Request::parse("join 3 7"),
            Ok(Request::Join { group: 3, host: 7 })
        );
        assert_eq!(
            Request::parse("leave 3 7"),
            Ok(Request::Leave { group: 3, host: 7 })
        );
        assert_eq!(
            Request::parse("route 0 1 2 3"),
            Ok(Request::Route {
                src: 0,
                dests: vec![1, 2, 3]
            })
        );
        assert_eq!(
            Request::parse("route 0 group 9"),
            Ok(Request::RouteGroup { src: 0, group: 9 })
        );
        assert_eq!(Request::parse("reach 5"), Ok(Request::Reach(5)));
        assert_eq!(Request::parse("health"), Ok(Request::Health));
        assert_eq!(Request::parse("metrics"), Ok(Request::Metrics));
        assert_eq!(Request::parse("step 4096"), Ok(Request::Step(4096)));
        assert_eq!(Request::parse("quit"), Ok(Request::Quit));
        assert_eq!(Request::parse("  step   7  "), Ok(Request::Step(7)));
    }

    #[test]
    fn errors_name_the_offense() {
        assert!(Request::parse("").unwrap_err().contains("empty"));
        assert!(Request::parse("warp 9").unwrap_err().contains("warp"));
        assert!(Request::parse("link sideways 3")
            .unwrap_err()
            .contains("usage: link"));
        assert!(Request::parse("step fast").unwrap_err().contains("fast"));
        assert!(Request::parse("route 0").unwrap_err().contains("usage"));
        assert!(Request::parse("join 1").unwrap_err().contains("usage"));
    }

    #[test]
    fn query_classification_drives_shedding() {
        assert!(Request::Health.is_query());
        assert!(Request::Metrics.is_query());
        assert!(Request::Reach(0).is_query());
        assert!(Request::Route {
            src: 0,
            dests: vec![1]
        }
        .is_query());
        assert!(!Request::LinkDown(LinkRef::Raw(0)).is_query());
        assert!(!Request::Step(1).is_query());
        assert!(!Request::Quit.is_query());
        assert!(!Request::Join { group: 0, host: 0 }.is_query());
    }
}
