//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal wall-clock benchmark harness exposing the API subset
//! its benches use: [`Criterion::benchmark_group`], `sample_size`,
//! `throughput`, `bench_function`, [`Bencher::iter`], `finish`, and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! There is no statistical analysis, warm-up scheduling, or HTML report:
//! each benchmark runs `sample_size` timed samples (after one warm-up
//! call) and prints min/median/mean wall-clock per iteration, plus
//! throughput when one was declared. That is enough to compare code paths
//! in this repo (the benches exist to contrast implementations, not to
//! publish microbenchmark numbers).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Declared throughput for a benchmark, used to derive rate output.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
    /// The benchmark processes this many elements per iteration.
    Elements(u64),
}

/// The timing driver handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
    sample_target: usize,
}

impl Bencher {
    /// Times `routine`, collecting the configured number of samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warm-up call so lazy one-time costs (page faults,
        // allocator growth) don't land in the first sample.
        let _ = routine();

        // Pick an iteration count that makes each sample's duration
        // comfortably larger than timer resolution.
        #[expect(
            clippy::disallowed_methods,
            reason = "a bench harness measures wall time"
        )]
        let probe = Instant::now();
        let _ = routine();
        let once = probe.elapsed().max(Duration::from_nanos(1));
        let per_sample = (Duration::from_millis(2).as_nanos() / once.as_nanos()).max(1);
        self.iters_per_sample = u64::try_from(per_sample).unwrap_or(u64::MAX).min(10_000);

        for _ in 0..self.sample_target {
            #[expect(
                clippy::disallowed_methods,
                reason = "a bench harness measures wall time"
            )]
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                let _ = routine();
            }
            self.samples
                .push(start.elapsed() / self.iters_per_sample as u32);
        }
    }
}

/// A named group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares per-iteration throughput so results include a rate.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark and prints its timing summary.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            iters_per_sample: 1,
            sample_target: self.sample_size,
        };
        f(&mut bencher);
        let mut samples = bencher.samples;
        if samples.is_empty() {
            println!("{}/{id}: no samples collected", self.name);
            return self;
        }
        samples.sort_unstable();
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        print!(
            "{}/{id}: min {} | median {} | mean {} ({} samples x {} iters)",
            self.name,
            fmt_duration(min),
            fmt_duration(median),
            fmt_duration(mean),
            samples.len(),
            bencher.iters_per_sample,
        );
        if let Some(tp) = self.throughput {
            let secs = median.as_secs_f64().max(1e-12);
            match tp {
                Throughput::Bytes(n) => {
                    print!(" | {:.1} MiB/s", n as f64 / secs / (1024.0 * 1024.0))
                }
                Throughput::Elements(n) => print!(" | {:.0} elem/s", n as f64 / secs),
            }
        }
        println!();
        self
    }

    /// Ends the group (output is already printed per-benchmark).
    pub fn finish(&mut self) {}
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} us", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// The benchmark manager passed to each `criterion_group!` target.
#[derive(Default, Debug)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Bundles benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running each group (honors `--bench`/`--test` harness
/// flags by ignoring them).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes harness flags like `--bench`; a plain-main
            // harness can ignore them. `--test` means "smoke-run", which
            // this harness already is.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.throughput(Throughput::Bytes(1024));
        let mut calls = 0u64;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                std::hint::black_box(calls)
            })
        });
        group.finish();
        assert!(calls > 0);
    }
}
