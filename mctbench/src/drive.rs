//! Load drivers: a closed loop and a fixed-rate open loop.
//!
//! Both drive a caller-supplied `send` with requests numbered from 0;
//! request `i` always goes to client `i % clients`, so a replay of the
//! same numbered requests issues the same requests from the same
//! clients. `send` returns whether the request succeeded; a failure
//! is recorded and never retried.
//!
//! The open loop schedules request `i` at `start + i / rate` whatever
//! happened before it, and times it from that scheduled instant. A
//! stall therefore shows in the latency of every request queued
//! behind it (no coordinated omission), and how late each send was
//! against its schedule is recorded as generator lag.

use std::time::{Duration, Instant};

/// What one request was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Update,
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// The request's number.
    pub i: u64,
    pub kind: Kind,
    /// Completion minus the start instant (closed loop: the send; open
    /// loop: the scheduled send time).
    pub latency_ns: u64,
    /// Actual send minus scheduled send (always 0 on a closed loop).
    pub lag_ns: u64,
    pub ok: bool,
}

/// Everything a run recorded.
#[derive(Debug, Default)]
pub struct Run {
    pub records: Vec<Record>,
    pub elapsed: Duration,
}

impl Run {
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        self.records.len() as f64 / self.elapsed.as_secs_f64()
    }
}

/// How requests are offered.
#[derive(Clone, Copy, Debug)]
pub enum Loop {
    /// `clients` callers that each wait for a reply before sending on.
    Closed { clients: usize },
    /// Requests scheduled at a fixed `rate` per second, spread over
    /// `clients` senders.
    Open { clients: usize, rate: f64 },
}

impl Loop {
    pub fn clients(self) -> usize {
        match self {
            Loop::Closed { clients } | Loop::Open { clients, .. } => clients,
        }
    }
}

/// Run `lp` for `duration`. `kind(i)` classifies request `i`;
/// `send(client, i)` issues it.
pub fn run<K, S>(lp: Loop, duration: Duration, kind: K, send: S) -> Run
where
    K: Fn(u64) -> Kind + Sync,
    S: Fn(usize, u64) -> bool + Sync,
{
    let clients = lp.clients();
    let start = Instant::now();
    let per_client: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (kind, send) = (&kind, &send);
                scope.spawn(move || match lp {
                    Loop::Closed { .. } => closed_client(c, clients, start, duration, kind, send),
                    Loop::Open { rate, .. } => {
                        open_client(c, clients, start, duration, rate, kind, send)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    Run {
        records: per_client.into_iter().flatten().collect(),
        elapsed: start.elapsed(),
    }
}

fn closed_client<K, S>(
    c: usize,
    clients: usize,
    start: Instant,
    duration: Duration,
    kind: &K,
    send: &S,
) -> Vec<Record>
where
    K: Fn(u64) -> Kind,
    S: Fn(usize, u64) -> bool,
{
    let mut out = Vec::new();
    let mut i = c as u64;
    while start.elapsed() < duration {
        let t = Instant::now();
        let ok = send(c, i);
        out.push(Record {
            i,
            kind: kind(i),
            latency_ns: t.elapsed().as_nanos() as u64,
            lag_ns: 0,
            ok,
        });
        i += clients as u64;
    }
    out
}

fn open_client<K, S>(
    c: usize,
    clients: usize,
    start: Instant,
    duration: Duration,
    rate: f64,
    kind: &K,
    send: &S,
) -> Vec<Record>
where
    K: Fn(u64) -> Kind,
    S: Fn(usize, u64) -> bool,
{
    let total = (rate * duration.as_secs_f64()) as u64;
    let mut out = Vec::new();
    for i in (c as u64..total).step_by(clients) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let lag = Instant::now().saturating_duration_since(due);
        let ok = send(c, i);
        out.push(Record {
            i,
            kind: kind(i),
            latency_ns: Instant::now().saturating_duration_since(due).as_nanos() as u64,
            lag_ns: lag.as_nanos() as u64,
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile_sorted;

    /// A stub server that stalls once: request 100 takes 100 ms, every
    /// other request returns at once.
    #[test]
    fn open_loop_counts_the_wait_behind_a_stall() {
        const STALL: Duration = Duration::from_millis(100);
        let rate = 2000.0; // one request every 0.5 ms
        let run = run(
            Loop::Open { clients: 1, rate },
            Duration::from_millis(600),
            |_| Kind::Read,
            |_, i| {
                if i == 100 {
                    std::thread::sleep(STALL);
                }
                true
            },
        );
        assert_eq!(run.records.len(), 1200);
        assert_eq!(run.failed(), 0);
        let by_index = &run.records; // one client: records are in index order
                                     // Request 101 was due 0.5 ms after 100 but could only be sent
                                     // once the stall ended: its latency includes that wait.
        let next = by_index[101];
        assert!(next.lag_ns >= 90_000_000, "lag {} ns", next.lag_ns);
        assert!(next.latency_ns >= next.lag_ns);
        // The backlog behind the stall drains later requests' lag
        // gradually; a request well after it is back on schedule.
        assert!(by_index[150].lag_ns > 50_000_000);
        assert!(by_index[1150].lag_ns < 50_000_000);
        // ~200 of 1200 requests were held up: the reported p99 lag
        // shows the stall.
        let mut lags: Vec<u64> = run.records.iter().map(|r| r.lag_ns).collect();
        lags.sort_unstable();
        let p99 = quantile_sorted(&lags, 0.99).expect("1200 samples support p99");
        assert!(p99 >= 50_000_000, "p99 lag {p99} ns");
    }

    #[test]
    fn closed_loop_numbers_requests_per_client() {
        let seen = std::sync::Mutex::new(Vec::new());
        let run = run(
            Loop::Closed { clients: 2 },
            Duration::from_millis(20),
            |i| {
                if i % 20 == 19 {
                    Kind::Update
                } else {
                    Kind::Read
                }
            },
            |c, i| {
                assert_eq!(i % 2, c as u64);
                seen.lock().expect("no panics while held").push(i);
                i != 7
            },
        );
        assert!(!run.records.is_empty());
        assert!(run.records.iter().all(|r| r.lag_ns == 0));
        let seen = seen.into_inner().expect("no panics while held");
        assert_eq!(seen.len(), run.records.len());
        assert_eq!(run.failed(), u64::from(seen.contains(&7)));
    }
}
