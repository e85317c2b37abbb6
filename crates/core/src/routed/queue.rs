//! Bounded request queues with an explicit backpressure/shed split.
//!
//! Reader threads parse client lines into [`Envelope`]s and hand them to
//! the service loop over an `std::sync::mpsc::sync_channel` whose bound
//! is [`QUEUE_CAP`](super::QUEUE_CAP). The enqueue policy differs by request class:
//!
//! * **fabric events** (link up/down, join/leave, `step`, `quit`) use a
//!   *blocking* send — the producer stalls until the service catches up.
//!   Losing one would desynchronize the client's view of fabric state,
//!   so backpressure is the only safe overload response;
//! * **queries** (route, reach, health, metrics) use `try_send` — under
//!   overload the reader replies `err shed` immediately and bumps the
//!   shared [`ShedCounter`]. A stale answer a client never gets is
//!   strictly better than a queue that grows without bound.

use super::proto::Request;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;

/// One queued request plus the channel its one-line reply goes back on.
#[derive(Debug)]
pub struct Envelope {
    /// The parsed request.
    pub req: Request,
    /// Reply channel back to the submitting reader thread.
    pub reply: std::sync::mpsc::Sender<String>,
}

/// Shared count of queries shed at the queue boundary.
#[derive(Debug, Default, Clone)]
pub struct ShedCounter(Arc<AtomicU64>);

impl ShedCounter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        ShedCounter::default()
    }

    /// Records one shed query.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries shed so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Submits `env` under the class-appropriate policy. Returns `Ok(true)`
/// if enqueued, `Ok(false)` if the query was shed (an `err shed` reply
/// was already sent), and `Err` if the service loop hung up.
pub fn submit(
    tx: &SyncSender<Envelope>,
    env: Envelope,
    shed: &ShedCounter,
) -> Result<bool, &'static str> {
    if env.req.is_query() {
        match tx.try_send(env) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(env)) => {
                shed.bump();
                let _ = env
                    .reply
                    .send("err shed: service overloaded, retry later".to_string());
                Ok(false)
            }
            Err(TrySendError::Disconnected(_)) => Err("service loop closed"),
        }
    } else {
        tx.send(env)
            .map(|()| true)
            .map_err(|_| "service loop closed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn env(req: Request) -> (Envelope, mpsc::Receiver<String>) {
        let (reply, rx) = mpsc::channel();
        (Envelope { req, reply }, rx)
    }

    #[test]
    fn queries_shed_when_full_events_would_block() {
        let (tx, _service_rx) = mpsc::sync_channel(1);
        let shed = ShedCounter::new();

        let (e1, _r1) = env(Request::Health);
        assert_eq!(submit(&tx, e1, &shed), Ok(true));

        // Queue full: the second query is shed with an immediate reply.
        let (e2, r2) = env(Request::Metrics);
        assert_eq!(submit(&tx, e2, &shed), Ok(false));
        assert_eq!(shed.get(), 1);
        assert!(r2.recv().unwrap().starts_with("err shed"));
    }

    #[test]
    fn disconnected_service_is_an_error() {
        let (tx, service_rx) = mpsc::sync_channel::<Envelope>(1);
        drop(service_rx);
        let shed = ShedCounter::new();
        let (e, _r) = env(Request::Health);
        assert!(submit(&tx, e, &shed).is_err());
    }
}
