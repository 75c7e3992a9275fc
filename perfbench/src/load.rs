//! Load generation: seeded Poisson arrival schedules, the open loop
//! (requests sent on schedule, latency timed from each request's *due*
//! time) and the windowed closed loop (a fixed number of requests
//! outstanding).
//!
//! Both loops issue requests from the calling thread; the open loop adds
//! exactly one collector thread, so the benchmark never puts more than two
//! threads of its own on the machine.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// SplitMix64: a small, fully specified generator, so a workload seed
/// yields the same inputs and schedules on every build and host.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` of it is always finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from a workload seed and a tag.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Due times (offsets from the phase start) of a Poisson arrival process
/// at `rate_per_s`, covering `span` and at least `min_count` arrivals.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    span: Duration,
    min_count: usize,
) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.next_unit().ln() / rate_per_s;
        if t >= span.as_secs_f64() && due.len() >= min_count {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// When one open-loop request was due, actually sent, and seen complete,
/// as offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

fn signed_ms(later: Duration, earlier: Duration) -> f64 {
    (later.as_secs_f64() - earlier.as_secs_f64()) * 1e3
}

impl Timing {
    /// Latency from the due time: a generator stall is charged to every
    /// request it delays, not hidden by starting the clock late.
    pub fn latency_ms(&self) -> f64 {
        signed_ms(self.done, self.due)
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        signed_ms(self.sent, self.due)
    }
}

/// One open-loop phase's result: per request its timing, the time spent
/// inside `issue`, and the collector's verdict.
pub struct OpenLoop<T> {
    pub timings: Vec<Timing>,
    pub issue_ms: Vec<f64>,
    pub outcomes: Vec<T>,
}

/// Sends request `i` at `schedule[i]` (sleeping until it is due, never
/// early) and hands each handle to a collector thread, which resolves
/// handles in send order and stamps each completion.  A request whose
/// result arrives while the collector waits on an earlier one is stamped
/// when the collector reaches it.
pub fn open_loop<H, T>(
    schedule: &[Duration],
    mut issue: impl FnMut(usize) -> H,
    finish: impl Fn(usize, H) -> T + Send,
) -> OpenLoop<T>
where
    H: Send,
    T: Send,
{
    let start = Instant::now();
    let mut issue_ms = Vec::with_capacity(schedule.len());
    let (tx, rx) = mpsc::channel::<(usize, Duration, Duration, H)>();
    let (timings, outcomes) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut timings = Vec::new();
            let mut outcomes = Vec::new();
            for (i, due, sent, handle) in rx {
                outcomes.push(finish(i, handle));
                timings.push(Timing {
                    due,
                    sent,
                    done: start.elapsed(),
                });
            }
            (timings, outcomes)
        });
        for (i, &due) in schedule.iter().enumerate() {
            let now = start.elapsed();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = start.elapsed();
            let handle = issue(i);
            issue_ms.push(signed_ms(start.elapsed(), sent));
            tx.send((i, due, sent, handle))
                .expect("collector lives until the sender is dropped");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    OpenLoop {
        timings,
        issue_ms,
        outcomes,
    }
}

/// One windowed closed-loop phase's result.
pub struct Windowed<T> {
    /// Completion instants as offsets from the phase start, in order.
    pub completions: Vec<Duration>,
    /// Per request: issue → completion seen.
    pub latencies_ms: Vec<f64>,
    /// Per request: time spent inside `issue`.
    pub issue_ms: Vec<f64>,
    pub outcomes: Vec<T>,
}

impl<T> Windowed<T> {
    /// The steady-state completion rate per second: completions after the
    /// first over the time they took, which leaves out the pipeline fill
    /// before the first result.
    pub fn rate(&self) -> Option<f64> {
        let (first, last) = (self.completions.first()?, self.completions.last()?);
        let span = last.as_secs_f64() - first.as_secs_f64();
        (self.completions.len() >= 2 && span > 0.0)
            .then(|| (self.completions.len() - 1) as f64 / span)
    }
}

/// Keeps `window` requests outstanding until `span` has passed and at
/// least `min` were issued, then drains.  Handles resolve oldest first.
pub fn windowed<H, T>(
    window: usize,
    span: Duration,
    min: usize,
    mut issue: impl FnMut(usize) -> H,
    mut finish: impl FnMut(usize, H) -> T,
) -> Windowed<T> {
    assert!(window >= 1, "window must be at least 1");
    let start = Instant::now();
    let mut out = Windowed {
        completions: Vec::new(),
        latencies_ms: Vec::new(),
        issue_ms: Vec::new(),
        outcomes: Vec::new(),
    };
    let mut queue: VecDeque<(usize, Instant, H)> = VecDeque::with_capacity(window);
    let mut issued = 0;
    loop {
        while queue.len() < window && (issued < min || start.elapsed() < span) {
            let t0 = Instant::now();
            let handle = issue(issued);
            out.issue_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            queue.push_back((issued, t0, handle));
            issued += 1;
        }
        let Some((i, t0, handle)) = queue.pop_front() else {
            return out;
        };
        out.outcomes.push(finish(i, handle));
        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.completions.push(start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_reproducible_per_seed() {
        let span = Duration::from_secs(5);
        let a = poisson_schedule(42, 100.0, span, 0);
        let b = poisson_schedule(42, 100.0, span, 0);
        let c = poisson_schedule(43, 100.0, span, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.iter().all(|&d| d < span));
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        // 100/s over 20 s: 2000 expected arrivals, sd ~45.
        let n = poisson_schedule(7, 100.0, Duration::from_secs(20), 0).len();
        assert!((1800..=2200).contains(&n), "{n} arrivals");
    }

    #[test]
    fn poisson_schedule_extends_to_the_minimum_count() {
        let short = poisson_schedule(7, 100.0, Duration::from_millis(100), 0);
        let long = poisson_schedule(7, 100.0, Duration::from_millis(100), 50);
        assert_eq!(long.len(), 50);
        assert_eq!(&long[..short.len()], &short[..], "same stream, just longer");
    }

    #[test]
    fn derived_seeds_differ_by_tag() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // A generator stalled until 25 ms sends three requests due at 0,
        // 10 and 20 ms; they complete at 30, 31 and 32 ms.
        let t: Vec<Timing> = [(0, 30), (10, 31), (20, 32)]
            .iter()
            .map(|&(due, done)| Timing {
                due: ms(due),
                sent: ms(25),
                done: ms(done),
            })
            .collect();
        let lat: Vec<f64> = t.iter().map(Timing::latency_ms).collect();
        let late: Vec<f64> = t.iter().map(Timing::late_ms).collect();
        for (got, want) in lat.iter().zip([30.0, 21.0, 12.0]) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
        for (got, want) in late.iter().zip([25.0, 15.0, 5.0]) {
            assert!((got - want).abs() < 1e-9, "{late:?}");
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        let schedule = [ms(0), ms(1), ms(2)];
        // Request 0's issue call blocks the generator for 30 ms, so 1 and 2
        // go out late; the service itself answers instantly.
        let run = open_loop(
            &schedule,
            |i| {
                if i == 0 {
                    std::thread::sleep(ms(30));
                }
                i
            },
            |i, h| {
                assert_eq!(i, h);
                h
            },
        );
        assert_eq!(run.outcomes, vec![0, 1, 2]);
        assert!(run.issue_ms[0] >= 30.0);
        for (i, t) in run.timings.iter().enumerate() {
            assert_eq!(t.due, schedule[i]);
            assert!(t.sent >= t.due, "never sent early");
            assert!(t.done >= t.sent);
        }
        assert!(run.timings[1].late_ms() >= 29.0);
        assert!(run.timings[2].late_ms() >= 28.0);
        // Latency from due includes the stall, not just service time.
        assert!(run.timings[1].latency_ms() >= run.timings[1].late_ms());
        assert!(run.timings[1].latency_ms() >= 29.0);
    }

    #[test]
    fn windowed_keeps_the_window_and_meets_the_minimum() {
        use std::cell::Cell;
        let outstanding = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let run = windowed(
            3,
            Duration::ZERO,
            10,
            |i| {
                outstanding.set(outstanding.get() + 1);
                peak.set(peak.get().max(outstanding.get()));
                i
            },
            |_, h| {
                outstanding.set(outstanding.get() - 1);
                h
            },
        );
        assert_eq!(run.outcomes, (0..10).collect::<Vec<_>>());
        assert_eq!(run.completions.len(), 10);
        assert_eq!(peak.get(), 3);
        assert_eq!(outstanding.get(), 0);
        assert!(run.rate().is_some());
    }
}
