//! Order statistics over latency samples, and the end-to-end summary.

use crate::host::StealCurve;

/// How many samples must lie strictly above a reported tail percentile.
/// Below that support a "p99" is one or two outliers, not a percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank index of quantile `q` among `n` sorted samples:
/// `ceil(q·n) − 1`, clamped to `0..n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "no samples");
    // The epsilon keeps products such as 0.99 × 1000 = 990.000…01 on rank 990.
    let rank = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
    rank.min(n) - 1
}

/// Index of the value reported for tail quantile `q`: the nearest-rank
/// index, lowered where needed so that at least [`TAIL_SUPPORT`] samples
/// lie above it. With too few samples for `q` (fewer than 1 000 for a
/// p99) the report is the highest order statistic that still has that
/// support.
pub fn tail_index(n: usize, q: f64) -> usize {
    rank_index(n, q).min(n.saturating_sub(TAIL_SUPPORT + 1))
}

/// The quantile actually reported by [`tail_index`].
pub fn effective_quantile(n: usize, q: f64) -> f64 {
    (tail_index(n, q) + 1) as f64 / n as f64
}

/// Sorted samples with the two summaries the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Nearest-rank median; 0 for no samples.
    pub fn median(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[rank_index(self.sorted.len(), 0.5)]
    }

    /// The tail value for `q` under the [`TAIL_SUPPORT`] rule; 0 for no
    /// samples.
    pub fn tail(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[tail_index(self.sorted.len(), q)]
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Samples a slice needs so that its p99 has [`TAIL_SUPPORT`] above it.
pub const SLICE_MIN: usize = 1000;
/// Most slices a run is cut into.
pub const MAX_SLICES: usize = 20;

/// One answered call of the measured window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// When it finished: wall seconds since the window opened.
    pub end_s: f64,
    pub latency_ms: f64,
    pub jobs: usize,
    /// State evolutions answered (see `Expect::evolutions`).
    pub evolutions: usize,
}

/// The end-to-end figures of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub jobs_per_s: f64,
    pub evolutions_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub slices: usize,
    /// The quantile `p99_ms` reports within a slice.
    pub tail_quantile: f64,
    /// Calls per second of each slice, in order.
    pub slice_rates: Vec<f64>,
    /// The tail latency of each slice, in order.
    pub slice_p99_ms: Vec<f64>,
    /// Share of each slice's CPU time the host stole, in order.
    pub slice_steal: Vec<f64>,
    /// How many of the least-stolen slices the figures come from.
    pub quiet_slices: usize,
}

/// Cuts the completions, in order of finishing, into as many consecutive
/// slices of at least [`SLICE_MIN`] as fit (at most [`MAX_SLICES`], at
/// least one), computes every figure per slice, and reports the median
/// over the quarter of the slices in which the host stole the least CPU
/// time from the machine's `cpus` CPUs (`steal`). On an oversubscribed
/// virtual machine the tail latency follows the steal share almost
/// one for one; this keeps host contention from reading as a slower
/// program. Rates are also per second of the slice's wall time less the
/// stolen time.
///
/// # Panics
///
/// Panics if `completions` is empty.
pub fn summarise(mut completions: Vec<Completion>, steal: &StealCurve, cpus: usize) -> Summary {
    assert!(!completions.is_empty(), "no completions");
    completions.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let n = completions.len();
    let slices = (n / SLICE_MIN).clamp(1, MAX_SLICES);
    let mut figures: [Vec<f64>; 5] = Default::default();
    let mut slice_steal = Vec::with_capacity(slices);
    let mut start_s = 0.0;
    for k in 0..slices {
        let slice = &completions[k * n / slices..(k + 1) * n / slices];
        let end_s = slice.last().expect("slices are non-empty").end_s;
        let wall = end_s - start_s;
        let stolen = steal.between(start_s, end_s) / cpus as f64;
        slice_steal.push(stolen / wall.max(1e-12));
        let duration = (wall - stolen).max(1e-12);
        start_s = end_s;
        let latency = Samples::new(slice.iter().map(|c| c.latency_ms).collect());
        let per_s =
            |f: fn(&Completion) -> usize| slice.iter().map(f).sum::<usize>() as f64 / duration;
        for (figure, value) in figures.iter_mut().zip([
            slice.len() as f64 / duration,
            per_s(|c| c.jobs),
            per_s(|c| c.evolutions),
            latency.median(),
            latency.tail(0.99),
        ]) {
            figure.push(value);
        }
    }
    let slice_rates = figures[0].clone();
    let slice_p99_ms = figures[4].clone();
    let quiet = least_stolen(&slice_steal);
    let [_, jobs, evolutions, p50, p99] =
        figures.map(|f| Samples::new(quiet.iter().map(|&k| f[k]).collect()).median());
    Summary {
        jobs_per_s: jobs,
        evolutions_per_s: evolutions,
        p50_ms: p50,
        p99_ms: p99,
        samples: n,
        slices,
        tail_quantile: effective_quantile(n / slices, 0.99),
        slice_rates,
        slice_p99_ms,
        slice_steal,
        quiet_slices: quiet.len(),
    }
}

/// The slices whose steal share is within the smallest quarter (at
/// least one slice; every slice tied with the cut-off is kept, so with
/// no steal at all every slice counts).
fn least_stolen(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted[steal.len().div_ceil(4) - 1];
    (0..steal.len()).filter(|&k| steal[k] <= cut).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indices() {
        assert_eq!(rank_index(1, 0.5), 0);
        assert_eq!(rank_index(10, 0.5), 4);
        assert_eq!(rank_index(11, 0.5), 5);
        assert_eq!(rank_index(1000, 0.99), 989);
        assert_eq!(rank_index(100, 0.99), 98);
        assert_eq!(rank_index(5, 1.0), 4);
        assert_eq!(rank_index(5, 0.0), 0);
    }

    #[test]
    fn p99_keeps_ten_samples_above_it() {
        // Exactly enough support: 1 000 samples leave 10 above index 989.
        assert_eq!(tail_index(1000, 0.99), 989);
        assert_eq!(1000 - 1 - tail_index(1000, 0.99), TAIL_SUPPORT);
        // More samples: the plain nearest rank already has the support.
        assert_eq!(tail_index(5000, 0.99), 4949);
        // Too few: lowered until ten lie above.
        assert_eq!(tail_index(100, 0.99), 89);
        assert_eq!(tail_index(32, 0.99), 21);
        for n in [11, 50, 999, 1001, 20_000] {
            assert!(n - 1 - tail_index(n, 0.99) >= TAIL_SUPPORT, "n = {n}");
        }
        // Fewer than eleven samples: nothing can have ten above it.
        assert_eq!(tail_index(7, 0.99), 0);
        assert!((effective_quantile(100, 0.99) - 0.90).abs() < 1e-12);
        assert!((effective_quantile(1000, 0.99) - 0.99).abs() < 1e-12);
    }

    fn completion(end_s: f64, latency_ms: f64) -> Completion {
        Completion {
            end_s,
            latency_ms,
            jobs: 2,
            evolutions: 3,
        }
    }

    #[test]
    fn small_runs_are_one_slice() {
        // 30 calls of 0.1 s each, back to back: 10 calls/s.
        let calls: Vec<Completion> = (1..=30)
            .map(|i| completion(i as f64 * 0.1, 100.0 + i as f64))
            .collect();
        let s = summarise(calls, &StealCurve::default(), 2);
        assert_eq!((s.samples, s.slices), (30, 1));
        assert!((s.slice_rates[0] - 10.0).abs() < 1e-9);
        assert!((s.jobs_per_s - 20.0).abs() < 1e-9);
        assert!((s.evolutions_per_s - 30.0).abs() < 1e-9);
        assert_eq!(s.p50_ms, 115.0);
        // Ten of the 30 latencies lie above the reported tail.
        assert_eq!(s.p99_ms, 120.0);
        assert!((s.tail_quantile - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn a_stalled_slice_does_not_move_the_median() {
        // 5 000 calls, 1 ms apart, except that the second slice stalls.
        let mut t = 0.0;
        let mut calls: Vec<Completion> = (0..5000)
            .map(|i| {
                let stalled = (1000..2000).contains(&i);
                t += if stalled { 0.010 } else { 0.001 };
                completion(t, if stalled { 10.0 } else { 1.0 })
            })
            .collect();
        // Order of arrival does not matter, only order of finishing.
        calls.reverse();
        let s = summarise(calls, &StealCurve::default(), 2);
        assert_eq!((s.slices, s.quiet_slices), (5, 5));
        assert!((s.jobs_per_s - 2000.0).abs() < 1e-6, "{}", s.jobs_per_s);
        assert_eq!((s.p50_ms, s.p99_ms), (1.0, 1.0));
        assert!((s.tail_quantile - 0.99).abs() < 1e-12);
    }

    #[test]
    fn stolen_time_is_taken_out_of_the_rates() {
        // 2 000 calls over 2 s; the host stole 1 CPU-second of 2 CPUs in
        // the first second, so that slice had 0.5 s of machine time.
        let calls: Vec<Completion> = (1..=2000)
            .map(|i| completion(i as f64 * 0.001, 1.0))
            .collect();
        let steal = StealCurve::new(vec![(0.0, 0.0), (0.5, 1.0), (2.0, 1.0)]);
        let s = summarise(calls, &steal, 2);
        assert_eq!(s.slices, 2);
        assert!(
            (s.slice_rates[0] - 2000.0).abs() < 1e-6,
            "{:?}",
            s.slice_rates
        );
        assert!(
            (s.slice_rates[1] - 1000.0).abs() < 1e-6,
            "{:?}",
            s.slice_rates
        );
        assert!((s.slice_steal[0] - 0.5).abs() < 1e-9);
        // The figures come from the unstolen second slice.
        assert_eq!(s.quiet_slices, 1);
        assert!((s.jobs_per_s - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn the_least_stolen_quarter_is_picked() {
        assert_eq!(least_stolen(&[0.3, 0.1, 0.2, 0.15, 0.5]), vec![1, 3]);
        assert_eq!(least_stolen(&[0.3, 0.1, 0.2, 0.1, 0.5]), vec![1, 3]);
        assert_eq!(least_stolen(&[0.0; 6]), (0..6).collect::<Vec<_>>());
        assert_eq!(least_stolen(&[0.7]), vec![0]);
    }

    #[test]
    fn samples_sort_and_summarise() {
        let s = Samples::new((1..=2000).rev().map(f64::from).collect());
        assert_eq!(s.median(), 1000.0);
        assert_eq!(s.tail(0.99), 1980.0);
        assert_eq!(s.mean(), 1000.5);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
