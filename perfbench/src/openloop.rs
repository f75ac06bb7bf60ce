//! Open-loop request scheduling: operations are due on a fixed schedule, whether or
//! not the previous one finished, and latency counts from the due time.

use std::time::{Duration, Instant};

/// Timing of one scheduled operation, together with its result.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// When the schedule said the operation should start.
    pub due: Instant,
    /// When the generator actually started it.
    pub started: Instant,
    /// When it completed.
    pub done: Instant,
    /// What the operation returned.
    pub result: R,
}

impl<R> Timed<R> {
    /// Latency from the due time: includes any wait a stall on an earlier
    /// operation imposed on this one.
    pub fn latency(&self) -> Duration {
        self.done.duration_since(self.due)
    }

    /// How late the generator started the operation.
    pub fn late(&self) -> Duration {
        self.started.duration_since(self.due)
    }
}

/// Run `op` on a fixed schedule: operation `i` is due at `start + i * interval`.
/// Stops after `max_ops`, or before the first operation for which `go(due)` is
/// false. A single thread issues the operations, so an operation that overruns
/// its slot delays the ones queued behind it; their latency still counts from
/// their own due time.
pub fn run<R>(
    start: Instant,
    interval: Duration,
    max_ops: usize,
    go: impl Fn(Instant) -> bool,
    mut op: impl FnMut(usize) -> R,
) -> Vec<Timed<R>> {
    let mut out = Vec::new();
    for i in 0..max_ops {
        let due = start + interval * i as u32;
        if !go(due) {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let started = Instant::now();
        let result = op(i);
        out.push(Timed {
            due,
            started,
            done: Instant::now(),
            result,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_so_a_stall_delays_later_ops() {
        let interval = Duration::from_millis(10);
        let stall = Duration::from_millis(120);
        let start = Instant::now();
        let samples = run(
            start,
            interval,
            8,
            |_| true,
            |i| {
                if i == 2 {
                    std::thread::sleep(stall);
                }
                i
            },
        );
        assert_eq!(samples.len(), 8);
        // The stalled operation itself takes at least the stall.
        assert!(samples[2].latency() >= stall);
        // The one queued behind it was due 10 ms after it but could only start
        // once the stall ended: its latency carries the rest of the stall even
        // though its own service time is near zero.
        let behind = &samples[3];
        assert!(behind.done.duration_since(behind.started) < Duration::from_millis(5));
        assert!(behind.latency() >= stall - interval);
        assert!(behind.late() >= stall - interval);
        // Every operation after the stall that was due before it ended is late.
        for sample in &samples[3..] {
            if sample.due < samples[2].done {
                assert!(sample.latency() >= samples[2].done.duration_since(sample.due));
            }
        }
        // Before the stall the schedule is kept.
        assert!(samples[1].late() < Duration::from_millis(5));
    }

    #[test]
    fn stops_at_the_end_of_the_window() {
        let start = Instant::now();
        let end = start + Duration::from_millis(22);
        let samples = run(
            start,
            Duration::from_millis(5),
            100,
            |due| due < end,
            |_| (),
        );
        assert_eq!(samples.len(), 5); // due at 0, 5, 10, 15, 20 ms
    }
}
