//! Open-loop load generation: requests go out on a fixed-interval
//! schedule whatever the server is doing, and each is timed from when
//! it was *due*, so a stall is charged to every request it delays
//! (no coordinated omission). A fixed ladder of arrival rates finds the
//! highest rate that meets the latency objective without a backlog.

use crate::stats::{percentile, summarize, Summary};
use std::time::{Duration, Instant};

/// Latency objective a rung must meet at p99, in ms: the serve layer's
/// own `SloTracker::default()` latency SLO.
pub const P99_LIMIT_MS: f64 = 50.0;

/// A send counts as late when it leaves this long after its due time.
pub const LATE_MS: f64 = 1.0;

/// Growth of the generator's lag, first third → last third of a rung,
/// beyond which the rung is judged to be building a backlog.
pub const LAG_GROWTH_MS: f64 = 5.0;

/// Timing of one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it actually left.
    pub sent: Instant,
    /// When its response (or failure) came back.
    pub done: Instant,
}

impl Shot {
    /// Latency from due time, in ms (counts the wait a stall imposed).
    pub fn due_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// Service latency from the actual send, in ms.
    pub fn sent_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.sent))
    }

    /// How late the generator sent it, in ms.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends `count` requests due at `start + k·interval`, spread round-robin
/// over `threads` generator threads (so at most `threads` requests are
/// in flight). `send(k)` performs request `k` and returns its outcome.
/// Results come back in schedule order.
pub fn drive<R: Send>(
    start: Instant,
    interval: Duration,
    count: usize,
    threads: usize,
    send: impl Fn(usize) -> R + Sync,
) -> Vec<(Shot, R)> {
    let threads = threads.clamp(1, count.max(1));
    let send = &send;
    let mut lanes: Vec<Vec<(usize, Shot, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(count / threads + 1);
                    for k in (lane..count).step_by(threads) {
                        let due = start + interval * k as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let r = send(k);
                        out.push((
                            k,
                            Shot {
                                due,
                                sent,
                                done: Instant::now(),
                            },
                            r,
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, Shot, R)> = lanes.iter_mut().flat_map(std::mem::take).collect();
    all.sort_by_key(|(k, _, _)| *k);
    all.into_iter().map(|(_, shot, r)| (shot, r)).collect()
}

/// What one rate rung achieved.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Requests scheduled.
    pub n: usize,
    /// Requests that failed (any non-200 or transport error).
    pub failed: usize,
    /// Due-time latency, ms.
    pub latency: Summary,
    /// Nearest-rank p99 of the due-time latency (the rung criterion,
    /// whatever the sample count supports).
    pub p99_ms: f64,
    /// Generator lag, ms.
    pub lag: Summary,
    /// Sends more than [`LATE_MS`] late.
    pub late_sends: usize,
    /// Median lag grew by more than [`LAG_GROWTH_MS`] across the rung.
    pub lag_growing: bool,
    /// Successful responses per second of wall time, first due time to
    /// last response.
    pub achieved_rps: f64,
}

impl Rung {
    /// Reduces a rung's shots; `ok[i]` says whether shot `i` succeeded.
    pub fn from_shots(rate: f64, shots: &[Shot], ok: &[bool]) -> Rung {
        let due: Vec<f64> = shots.iter().map(Shot::due_ms).collect();
        let lags: Vec<f64> = shots.iter().map(Shot::lag_ms).collect();
        let mut sorted = due.clone();
        sorted.sort_by(f64::total_cmp);
        let third = shots.len() / 3;
        let lag_growing = third > 0 && {
            let head = crate::stats::median(&lags[..third]);
            let tail = crate::stats::median(&lags[lags.len() - third..]);
            tail - head > LAG_GROWTH_MS
        };
        let span = match (shots.first(), shots.iter().map(|s| s.done).max()) {
            (Some(first), Some(last)) => last.saturating_duration_since(first.due).as_secs_f64(),
            _ => 0.0,
        };
        let good = ok.iter().filter(|&&o| o).count();
        Rung {
            rate,
            n: shots.len(),
            failed: shots.len() - good,
            latency: summarize(&due),
            p99_ms: percentile(&sorted, 99.0),
            lag: summarize(&lags),
            late_sends: lags.iter().filter(|&&l| l > LATE_MS).count(),
            lag_growing,
            achieved_rps: if span > 0.0 { good as f64 / span } else { 0.0 },
        }
    }

    /// Whether the rung met the objective: nothing failed, p99 within
    /// [`P99_LIMIT_MS`], and no growing backlog.
    pub fn passes(&self) -> bool {
        self.n > 0 && self.failed == 0 && self.p99_ms <= P99_LIMIT_MS && !self.lag_growing
    }
}

/// A rung's verdict, confirmed: a failing rung is run once more and
/// the second attempt decides. On a shared host one ~100 ms scheduling
/// stall pushes enough requests past 50 ms to fail any rung's p99, so a
/// single attempt would measure the neighbours, not the server.
pub fn confirmed(first: Rung, rerun: impl FnOnce() -> Rung) -> Rung {
    if first.passes() {
        first
    } else {
        rerun()
    }
}

/// The highest rung of an ascending ladder that passes, scanning up and
/// stopping at the first failure (a rate above a failing one does not
/// count, even if it happened to pass).
pub fn max_passing(rungs: &[Rung]) -> Option<&Rung> {
    rungs.iter().take_while(|r| r.passes()).last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // One lane, 10 ms apart; request 3 stalls for 100 ms. Requests
        // 4..=12 were due during the stall: their service time is ~0
        // but their due-time latency must carry the wait.
        let start = Instant::now() + Duration::from_millis(5);
        let shots = drive(start, Duration::from_millis(10), 16, 1, |k| {
            if k == 3 {
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let shots: Vec<Shot> = shots.into_iter().map(|(s, ())| s).collect();
        assert!(shots[3].due_ms() >= 100.0);
        // Request 4 was due 10 ms after 3 and could leave only after
        // the stall: at least 90 ms of wait, almost none of it service.
        assert!(shots[4].due_ms() >= 85.0, "due-timed {}", shots[4].due_ms());
        assert!(shots[4].sent_ms() < 20.0, "service {}", shots[4].sent_ms());
        assert!(shots[4].lag_ms() >= 85.0);
        let rung = Rung::from_shots(100.0, &shots, &[true; 16]);
        assert!(rung.late_sends >= 8, "late sends {}", rung.late_sends);
        assert!(rung.p99_ms >= 100.0);
        assert!(
            !rung.passes(),
            "a 100 ms stall breaks the 50 ms p99 objective"
        );
    }

    #[test]
    fn lanes_cap_in_flight_and_keep_schedule_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let shots = drive(Instant::now(), Duration::ZERO, 12, 2, |k| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            k
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
        let order: Vec<usize> = shots.iter().map(|(_, k)| *k).collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    fn rung(rate: f64, p99: f64, failed: usize, growing: bool) -> Rung {
        let s = summarize(&[p99]);
        Rung {
            rate,
            n: 100,
            failed,
            latency: s,
            p99_ms: p99,
            lag: s,
            late_sends: 0,
            lag_growing: growing,
            achieved_rps: rate,
        }
    }

    #[test]
    fn max_rps_is_the_last_rung_before_the_first_failure() {
        let ladder = [
            rung(50.0, 5.0, 0, false),
            rung(100.0, 9.0, 0, false),
            rung(200.0, 80.0, 0, false),
        ];
        assert_eq!(max_passing(&ladder).map(|r| r.rate), Some(100.0));
        // A failed request fails the rung even with a fast p99.
        let ladder = [rung(50.0, 5.0, 0, false), rung(100.0, 9.0, 1, false)];
        assert_eq!(max_passing(&ladder).map(|r| r.rate), Some(50.0));
        // A growing backlog fails the rung.
        let ladder = [rung(50.0, 5.0, 0, false), rung(100.0, 9.0, 0, true)];
        assert_eq!(max_passing(&ladder).map(|r| r.rate), Some(50.0));
        // A pass above a failure does not count.
        let ladder = [
            rung(50.0, 5.0, 0, false),
            rung(100.0, 60.0, 0, false),
            rung(200.0, 9.0, 0, false),
        ];
        assert_eq!(max_passing(&ladder).map(|r| r.rate), Some(50.0));
        let ladder = [rung(50.0, 60.0, 0, false)];
        assert!(max_passing(&ladder).is_none());
    }

    #[test]
    fn only_a_failing_rung_is_rerun() {
        let pass = rung(100.0, 9.0, 0, false);
        let stalled = rung(100.0, 120.0, 0, false);
        let mut reruns = 0;
        let mut rerun = |r: Rung| {
            reruns += 1;
            r
        };
        assert!(confirmed(pass, || rerun(stalled)).passes());
        assert!(confirmed(stalled, || rerun(pass)).passes());
        assert!(!confirmed(stalled, || rerun(stalled)).passes());
        assert_eq!(reruns, 2);
    }
}
