//! Host steal time: how long the hypervisor ran something else on this
//! machine's CPUs, from the `steal` column of `/proc/stat`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `USER_HZ`, the unit of `/proc/stat` and of `utime`/`stime` in
/// `/proc/<pid>/stat` (100 on every mainstream Linux build).
pub const TICKS_PER_S: f64 = 100.0;

/// How often the sampler reads `/proc/stat`.
const EVERY: Duration = Duration::from_millis(20);

/// Steal seconds summed over all CPUs since boot, or 0 where
/// `/proc/stat` has no steal column.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// A cumulative steal curve: `(seconds since origin, steal seconds since
/// origin)`, in time order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StealCurve {
    points: Vec<(f64, f64)>,
}

impl StealCurve {
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        StealCurve { points }
    }

    /// Steal seconds at time `t`: the last sample at or before `t`.
    fn at(&self, t: f64) -> f64 {
        let i = self.points.partition_point(|&(s, _)| s <= t);
        if i == 0 {
            0.0
        } else {
            self.points[i - 1].1
        }
    }

    /// Steal seconds (summed over CPUs) between `t0` and `t1`.
    pub fn between(&self, t0: f64, t1: f64) -> f64 {
        (self.at(t1) - self.at(t0)).max(0.0)
    }

    pub fn total(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, s)| s)
    }
}

/// Samples [`steal_s`] on a thread of its own from `origin` until
/// [`StealSampler::finish`]. Reading `/proc/stat` touches no state of the
/// measured process.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, f64)>>,
}

impl StealSampler {
    pub fn start(origin: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let base = steal_s();
                let mut points = vec![(origin.elapsed().as_secs_f64(), 0.0)];
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(EVERY);
                    points.push((origin.elapsed().as_secs_f64(), steal_s() - base));
                }
                points
            })
        };
        StealSampler { stop, handle }
    }

    pub fn finish(self) -> StealCurve {
        self.stop.store(true, Ordering::Relaxed);
        StealCurve::new(self.handle.join().expect("steal sampler panicked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_between_uses_the_last_sample_before_each_end() {
        let curve = StealCurve::new(vec![(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 2.0)]);
        assert_eq!(curve.between(0.0, 1.0), 0.5);
        assert_eq!(curve.between(1.5, 2.9), 0.0);
        assert_eq!(curve.between(0.5, 3.5), 2.0);
        assert_eq!(curve.total(), 2.0);
        assert_eq!(StealCurve::default().between(0.0, 9.0), 0.0);
    }
}
