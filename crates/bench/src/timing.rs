//! A minimal wall-clock micro-benchmark harness.
//!
//! In-tree replacement for `criterion` (removed per the offline/no-deps
//! build policy), behind the wall-clock quantities of the `cf2df bench`
//! artifacts: each benchmark warms up, then measures batched iterations
//! until a time budget is spent, and records its statistics. No
//! statistical regression machinery — the goal is honest relative
//! numbers measured offline, which `cf2df check-bench` compares.
//!
//! ```no_run
//! use std::time::Duration;
//! let mut t = cf2df_bench::timing::Timer::with_budgets(
//!     Duration::from_millis(300),
//!     Duration::from_millis(800),
//! );
//! t.bench("sum", || (0..1000u64).sum::<u64>());
//! ```

use std::time::{Duration, Instant};

/// One benchmark's collected statistics, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Benchmark label.
    pub name: String,
    /// Total measured iterations.
    pub iters: u64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Median of the per-batch means, ns/iter (robust to scheduler noise).
    pub median_ns: f64,
    /// 95th percentile of the per-batch means, ns/iter. The honest tail
    /// number: `max_ns` is routinely 4–12× the median from one unlucky
    /// batch, which would make regression comparisons flaky.
    pub p95_ns: f64,
    /// Fastest batch, ns/iter.
    pub min_ns: f64,
    /// Slowest batch, ns/iter.
    pub max_ns: f64,
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.2} s ", ns / 1_000_000_000.0)
    }
}

impl Stats {
    /// One aligned report line.
    pub fn line(&self) -> String {
        format!(
            "{:<44} {} /iter  (median {}, p95 {}, min {}, max {}, {} iters)",
            self.name,
            human(self.mean_ns),
            human(self.median_ns),
            human(self.p95_ns),
            human(self.min_ns),
            human(self.max_ns),
            self.iters
        )
    }
}

/// The benchmark driver: time budgets plus the accumulated results.
pub struct Timer {
    warmup: Duration,
    measure: Duration,
    /// Results of every `bench` call, in execution order.
    pub results: Vec<Stats>,
    quiet: bool,
}

impl Timer {
    /// Custom budgets.
    pub fn with_budgets(warmup: Duration, measure: Duration) -> Timer {
        Timer {
            warmup,
            measure,
            results: Vec::new(),
            quiet: false,
        }
    }

    /// Suppress per-benchmark printing (used by this module's tests).
    pub fn quiet(mut self) -> Timer {
        self.quiet = true;
        self
    }

    /// Measure `f`, print one report line, and record the stats.
    ///
    /// The closure's return value is passed through
    /// [`std::hint::black_box`] so the computation cannot be optimized
    /// away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &Stats {
        // Warm-up, and estimate the per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let est_per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;

        // Batch so each batch lasts ≳100 µs: per-batch clock reads then
        // cost well under 1% of what they time.
        let batch = ((100_000.0 / est_per_iter.max(1.0)).ceil() as u64).clamp(1, 1 << 20);

        let mut per_iter: Vec<f64> = Vec::new();
        let mut total_iters = 0u64;
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || per_iter.is_empty() {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            per_iter.push(t0.elapsed().as_nanos() as f64 / batch as f64);
            total_iters += batch;
        }

        // Even after the warm-up loop, the first *measured* batch is
        // routinely several times slower than the rest (page faults,
        // frequency ramp, cold branch predictors); with enough samples
        // it is discarded so one cold batch cannot poison the mean.
        if per_iter.len() >= 8 {
            let dropped = per_iter.remove(0);
            total_iters -= batch;
            debug_assert!(dropped >= 0.0);
        }

        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let mut sorted = per_iter.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        // Nearest-rank p95 (clamped to the last sample).
        let p95 = sorted[((sorted.len() * 95).div_ceil(100)).saturating_sub(1)];
        let stats = Stats {
            name: name.to_owned(),
            iters: total_iters,
            mean_ns: mean,
            median_ns: median,
            p95_ns: p95,
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
        };
        if !self.quiet {
            println!("{}", stats.line());
        }
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// Measure several alternatives *paired*: cycle through the arms in
    /// `slice`-long contiguous chunks until every arm has spent the full
    /// measure budget. Sequential [`Timer::bench`] calls give each arm a
    /// different stretch of wall-clock time, so slow machine-speed drift
    /// (thermal, background load) shows up as a phantom difference
    /// between arms; interleaving spreads the drift over all of them, so
    /// the *comparison* is honest even when the absolute numbers wander.
    /// Chunks (rather than strict alternation) keep each arm's runs
    /// back-to-back and warm.
    ///
    /// Returns one [`Stats`] per arm, in order; all are also appended to
    /// [`Timer::results`].
    pub fn bench_paired(
        &mut self,
        arms: &mut [(&str, &mut dyn FnMut())],
        slice: Duration,
    ) -> Vec<Stats> {
        let n = arms.len();
        assert!(n > 0, "bench_paired needs at least one arm");
        // Warm up each arm and size its batch, as in `bench`.
        let mut batches = Vec::with_capacity(n);
        for (_, f) in arms.iter_mut() {
            let warm_start = Instant::now();
            let mut warm_iters = 0u64;
            while warm_start.elapsed() < self.warmup || warm_iters == 0 {
                f();
                warm_iters += 1;
            }
            let est = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
            batches.push(((100_000.0 / est.max(1.0)).ceil() as u64).clamp(1, 1 << 20));
        }

        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut spent = vec![Duration::ZERO; n];
        while spent.iter().any(|s| *s < self.measure) {
            for (i, (_, f)) in arms.iter_mut().enumerate() {
                if spent[i] >= self.measure && !samples[i].is_empty() {
                    continue;
                }
                let slice_start = Instant::now();
                loop {
                    let t0 = Instant::now();
                    for _ in 0..batches[i] {
                        f();
                    }
                    samples[i].push(t0.elapsed().as_nanos() as f64 / batches[i] as f64);
                    if slice_start.elapsed() >= slice || spent[i] + slice_start.elapsed() >= self.measure
                    {
                        break;
                    }
                }
                spent[i] += slice_start.elapsed();
            }
        }

        let mut out = Vec::with_capacity(n);
        for (i, (name, _)) in arms.iter().enumerate() {
            let mut per_iter = std::mem::take(&mut samples[i]);
            let mut total_iters = per_iter.len() as u64 * batches[i];
            if per_iter.len() >= 8 {
                per_iter.remove(0);
                total_iters -= batches[i];
            }
            let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
            let mut sorted = per_iter;
            sorted.sort_by(|a, b| a.total_cmp(b));
            let stats = Stats {
                name: (*name).to_owned(),
                iters: total_iters,
                mean_ns: mean,
                median_ns: sorted[sorted.len() / 2],
                p95_ns: sorted[((sorted.len() * 95).div_ceil(100)).saturating_sub(1)],
                min_ns: sorted[0],
                max_ns: sorted[sorted.len() - 1],
            };
            if !self.quiet {
                println!("{}", stats.line());
            }
            self.results.push(stats.clone());
            out.push(stats);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_sane() {
        let mut t =
            Timer::with_budgets(Duration::from_millis(5), Duration::from_millis(20)).quiet();
        let s = t.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.iters > 0);
        assert!(s.mean_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert!(s.median_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        assert!(s.line().contains("p95"));
        assert_eq!(t.results.len(), 1);
    }

    #[test]
    fn paired_measurement_compares_arms_fairly() {
        let mut t =
            Timer::with_budgets(Duration::from_millis(5), Duration::from_millis(30)).quiet();
        let spin = |turns: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..turns {
                    acc = acc.wrapping_add(i * i);
                }
                std::hint::black_box(acc);
            }
        };
        let mut fast = spin(100);
        let mut slow = spin(10_000);
        let stats = t.bench_paired(
            &mut [("fast", &mut fast), ("slow", &mut slow)],
            Duration::from_millis(5),
        );
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "fast");
        assert_eq!(stats[1].name, "slow");
        for s in &stats {
            assert!(s.iters > 0);
            assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        }
        // A 100x bigger workload cannot measure faster than the small one.
        assert!(stats[1].mean_ns > stats[0].mean_ns);
        assert_eq!(t.results.len(), 2);
    }

    #[test]
    fn report_lines_are_humane() {
        assert!(human(12.3).contains("ns"));
        assert!(human(12_300.0).contains("µs"));
        assert!(human(12_300_000.0).contains("ms"));
        assert!(human(2_000_000_000.0).contains('s'));
    }
}
