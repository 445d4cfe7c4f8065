//! The load generator: a few connections, each on its own thread, sending
//! request bytes that were rendered before the clock started.
//!
//! Open loop: every connection sends on its own fixed schedule, staggered
//! against the others, and a request's latency runs from the instant it was
//! *due*, so a stalled reply is charged to the requests queued behind it.
//! Closed loop: a connection sends its next request when the reply to the
//! previous one is complete.

use crate::client::Conn;
use diagnet_rng::SplitMix64;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What a request is, which decides the reply it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A diagnosis of one probe or of a batch; must be answered 200.
    Diagnose,
    /// A valid probe submitted for training; must be answered 200.
    Submit,
    /// A probe the admission gate must refuse; must be answered 400.
    Corrupt,
}

pub const KINDS: [Kind; 3] = [Kind::Diagnose, Kind::Submit, Kind::Corrupt];

impl Kind {
    fn expected_status(self) -> u16 {
        match self {
            Kind::Diagnose | Kind::Submit => 200,
            Kind::Corrupt => 400,
        }
    }
}

/// Shares of the traffic; the remainder after both is corrupt submits.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub diagnose: f64,
    pub submit: f64,
}

/// Rendered requests, one list per [`Kind`] in the order of [`KINDS`]. A kind
/// with a non-zero share must have at least one request.
#[derive(Default)]
pub struct Pool {
    pub requests: [Vec<Vec<u8>>; 3],
}

#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Requests per second over all connections together.
    Open {
        rps: f64,
    },
    Closed,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub pacing: Pacing,
    pub mix: Mix,
    pub connections: usize,
    /// Sent and answered, but not recorded.
    pub warmup: Duration,
    pub measure: Duration,
    pub seed: u64,
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// When it was due (open loop) or sent (closed loop), from the start of
    /// the measured time.
    pub start_ns: u64,
    /// From that instant until the reply was complete.
    pub latency_ns: u64,
    /// How long after it was due the generator sent it; 0 in a closed loop.
    pub late_ns: u64,
    /// The reply arrived and had the status its kind must get.
    pub ok: bool,
}

pub struct Load {
    /// Measured requests of all connections, by `start_ns`.
    pub samples: Vec<Sample>,
    /// Requests sent during warm-up, by kind in the order of [`KINDS`].
    pub warmup_sent: [usize; 3],
}

/// The request sequence depends on the seed alone.
fn pick<'p>(pool: &'p Pool, mix: &Mix, rng: &mut SplitMix64) -> (Kind, &'p [u8]) {
    let u = rng.next_f64();
    let slot = if u < mix.diagnose {
        0
    } else if u < mix.diagnose + mix.submit {
        1
    } else {
        2
    };
    let list = &pool.requests[slot];
    (KINDS[slot], &list[rng.next_below(list.len())])
}

/// Runs the plan against `addr` and returns when every connection is done.
pub fn drive(addr: SocketAddr, pool: &Pool, plan: &Plan) -> Load {
    // A common start a little ahead, so that no thread begins behind.
    let warm_start = Instant::now() + Duration::from_millis(20);
    let start = warm_start + plan.warmup;
    let end = start + plan.measure;
    let parts: Vec<(Vec<Sample>, [usize; 3])> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.connections)
            .map(|i| scope.spawn(move || connection(addr, pool, plan, i, warm_start, start, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    let warmup_sent = [0, 1, 2].map(|kind| parts.iter().map(|(_, n)| n[kind]).sum());
    let mut samples: Vec<Sample> = parts.into_iter().flat_map(|(s, _)| s).collect();
    samples.sort_by_key(|s| s.start_ns);
    Load {
        samples,
        warmup_sent,
    }
}

fn connection(
    addr: SocketAddr,
    pool: &Pool,
    plan: &Plan,
    index: usize,
    warm_start: Instant,
    start: Instant,
    end: Instant,
) -> (Vec<Sample>, [usize; 3]) {
    let mut conn = Conn::new(addr);
    let mut rng = SplitMix64::new(SplitMix64::derive(plan.seed, index as u64));
    let mut samples = Vec::new();
    let mut warmup_sent = [0; 3];
    // Each connection's share of the rate, offset by its place among them.
    let schedule = match plan.pacing {
        Pacing::Open { rps } => Some((
            Duration::from_secs_f64(plan.connections as f64 / rps),
            Duration::from_secs_f64(index as f64 / rps),
        )),
        Pacing::Closed => None,
    };
    if let Some(wait) = warm_start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    for k in 0u32.. {
        let (begin, late_ns) = match schedule {
            Some((period, offset)) => {
                let due = warm_start + offset + period * k;
                if due >= end {
                    break;
                }
                // Waiting by yielding, not sleeping: a sleeping thread lets its
                // virtual CPU halt, and waking a halted virtual CPU costs
                // either of two prices 150 us apart, which would be charged
                // to the server and flip its latency between two levels.
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                (due, due.elapsed().as_nanos() as u64)
            }
            None => {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                (now, 0)
            }
        };
        let (kind, request) = pick(pool, &plan.mix, &mut rng);
        let ok =
            matches!(conn.roundtrip(request), Ok((status, _)) if status == kind.expected_status());
        let latency_ns = begin.elapsed().as_nanos() as u64;
        match begin.checked_duration_since(start) {
            Some(since_start) => samples.push(Sample {
                kind,
                start_ns: since_start.as_nanos() as u64,
                latency_ns,
                late_ns,
                ok,
            }),
            None => warmup_sent[kind as usize] += 1,
        }
    }
    (samples, warmup_sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Answers every request on one connection with an empty 200, and sleeps
    /// `stall` before answering request number `stall_at`.
    fn fake_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut served = 0;
            let mut pending = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let n = stream.read(&mut chunk).unwrap_or(0);
                if n == 0 {
                    return served;
                }
                pending.extend_from_slice(&chunk[..n]);
                // The test's requests have no body: one per blank line.
                while let Some(at) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                    pending.drain(..at + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                        .unwrap();
                }
            }
        });
        (addr, handle)
    }

    fn diagnose_only_pool() -> Pool {
        let mut pool = Pool::default();
        pool.requests[0].push(crate::client::render_request("GET", "/", ""));
        pool
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(50);
        let (addr, server) = fake_server(100, stall);
        let plan = Plan {
            pacing: Pacing::Open { rps: 1000.0 },
            mix: Mix {
                diagnose: 1.0,
                submit: 0.0,
            },
            connections: 1,
            warmup: Duration::ZERO,
            measure: Duration::from_millis(400),
            seed: 1,
        };
        let load = drive(addr, &diagnose_only_pool(), &plan);
        let served = server.join().unwrap();

        // The schedule is kept whatever the server does: 1000 rps for 0.4 s.
        assert_eq!(load.samples.len(), 400);
        assert_eq!(served, 400);
        assert!(load
            .samples
            .iter()
            .all(|s| s.ok && s.kind == Kind::Diagnose));
        // One reply stalled for 50 ms; the requests that fell due meanwhile
        // were sent late, and each is charged the part of the stall that was
        // left when it fell due. A generator that timed from the send would
        // report a single slow request.
        let slow = |ms: u64| {
            load.samples
                .iter()
                .filter(|s| s.latency_ns >= ms * 1_000_000)
                .count()
        };
        assert!(slow(45) >= 1, "the stalled request itself");
        assert!(slow(10) >= 30, "only {} requests saw the stall", slow(10));
        let sent_late = load
            .samples
            .iter()
            .filter(|s| s.late_ns >= 10_000_000)
            .count();
        assert!(sent_late >= 30, "only {sent_late} requests were sent late");
        // Before the stall nothing waits.
        assert!(load.samples[..90].iter().all(|s| s.latency_ns < 10_000_000));
    }

    #[test]
    fn closed_loop_sends_the_next_request_after_the_reply() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let plan = Plan {
            pacing: Pacing::Closed,
            mix: Mix {
                diagnose: 1.0,
                submit: 0.0,
            },
            connections: 1,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(150),
            seed: 1,
        };
        let load = drive(addr, &diagnose_only_pool(), &plan);
        let warmup_sent = load.warmup_sent[Kind::Diagnose as usize];
        assert_eq!(server.join().unwrap(), load.samples.len() + warmup_sent);
        assert!(warmup_sent > 0 && !load.samples.is_empty());
        for pair in load.samples.windows(2) {
            assert!(pair[1].start_ns >= pair[0].start_ns + pair[0].latency_ns);
        }
        assert!(load.samples.iter().all(|s| s.late_ns == 0 && s.ok));
    }

    #[test]
    fn the_mix_and_the_seed_decide_the_sequence() {
        let mut pool = Pool::default();
        for (slot, list) in pool.requests.iter_mut().enumerate() {
            list.push(vec![slot as u8]);
            list.push(vec![slot as u8, 1]);
        }
        let mix = Mix {
            diagnose: 0.6,
            submit: 0.3,
        };
        let sequence = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2000)
                .map(|_| pick(&pool, &mix, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
        let share = |kind| sequence(7).iter().filter(|(k, _)| *k == kind).count() as f64 / 2000.0;
        assert!((share(Kind::Diagnose) - 0.6).abs() < 0.05);
        assert!((share(Kind::Submit) - 0.3).abs() < 0.05);
        assert!((share(Kind::Corrupt) - 0.1).abs() < 0.05);
    }
}
