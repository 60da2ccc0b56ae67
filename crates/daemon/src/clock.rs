//! Time, confined: the backoff schedule (pure, seeded, unit-tested) and
//! the daemon's **only** wall-clock touchpoint.
//!
//! Everywhere else in the workspace time is data (`SimTime`), and clippy's
//! `disallowed_methods` (root `clippy.toml`) enforces that. A network
//! daemon legitimately needs two wall-clock behaviors — waiting (sleeps,
//! socket read timeouts: kernel services, no clock *read*) and measuring
//! uptime for its operator-facing status endpoint. The single clock *read*
//! lives here in [`Stopwatch`], behind one reviewed `#[expect]`, so any
//! new wall-clock read elsewhere in the crate still fails clippy.
//!
//! Determinism note: nothing the daemon *absorbs* depends on any value
//! produced by this module. Backoff delays and timeouts shift *when*
//! frames arrive, never *what* is admitted — the cursor protocol makes
//! absorption a pure function of the frame stream.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssfa_sim::rng::derive;

/// Domain separator for backoff jitter draws.
const BACKOFF_STREAM: u64 = 0xBAC0_FF00;

/// Reconnect backoff policy: capped exponential with seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first reconnect, in milliseconds.
    pub base_ms: u64,
    /// Ceiling on the uncapped exponential, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream (derived per attempt, so the whole
    /// schedule is a pure function of `(config, attempt)`).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0,
        }
    }
}

/// The computed backoff schedule.
///
/// `delay(n)` for reconnect attempt `n` (1-based) is
/// `min(cap, base * 2^(n-1))` plus a jitter draw in `[0, delay/2]` —
/// full determinism (replay the seed, replay the schedule) with enough
/// spread that a burst of agents killed by one network event does not
/// reconnect in lockstep, the thundering-herd regime Meza et al. observe
/// after datacenter-wide events.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    config: BackoffConfig,
}

impl Backoff {
    /// A schedule for one agent.
    pub fn new(config: BackoffConfig) -> Backoff {
        Backoff { config }
    }

    /// Milliseconds to wait before reconnect attempt `attempt` (1-based;
    /// attempt 0 — the initial connection — waits nothing).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let uncapped = self.config.base_ms.saturating_mul(1u64 << exp);
        let capped = uncapped.min(self.config.cap_ms);
        let mut rng = StdRng::seed_from_u64(derive(
            derive(self.config.seed, BACKOFF_STREAM),
            u64::from(attempt),
        ));
        let jitter_span = capped / 2;
        let jitter = if jitter_span == 0 {
            0
        } else {
            rng.gen_range(0..=jitter_span)
        };
        capped.saturating_add(jitter)
    }

    /// [`Backoff::delay_ms`] as a [`Duration`], ready for `thread::sleep`.
    pub fn delay(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.delay_ms(attempt))
    }
}

/// The daemon's one wall-clock read: uptime measurement for the
/// operator-facing status endpoint. Keep the `Instant::now` inside this
/// type: its `#[expect(clippy::disallowed_methods)]` is the daemon's only
/// wall-clock exception.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Stopwatch {
        #[expect(
            clippy::disallowed_methods,
            reason = "operator-facing uptime only; nothing deterministic reads it"
        )]
        let started = std::time::Instant::now();
        Stopwatch { started }
    }

    /// Whole milliseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> u128 {
        self.started.elapsed().as_millis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> BackoffConfig {
        BackoffConfig {
            base_ms: 10,
            cap_ms: 160,
            seed,
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = Backoff::new(cfg(7));
        let b = Backoff::new(cfg(7));
        let c = Backoff::new(cfg(8));
        let series = |bk: &Backoff| (1..=10).map(|n| bk.delay_ms(n)).collect::<Vec<_>>();
        assert_eq!(series(&a), series(&b));
        assert_ne!(series(&a), series(&c), "seeds must decorrelate jitter");
    }

    #[test]
    fn delays_grow_exponentially_then_cap() {
        let backoff = Backoff::new(cfg(1));
        for attempt in 1..=20u32 {
            let d = backoff.delay_ms(attempt);
            let exp = attempt.saturating_sub(1).min(32);
            let capped = (10u64 << exp).min(160);
            assert!(
                d >= capped && d <= capped + capped / 2,
                "attempt {attempt}: delay {d} outside [{capped}, {}]",
                capped + capped / 2
            );
        }
        // Deep attempts stay bounded: cap + half-cap jitter.
        assert!(backoff.delay_ms(1_000) <= 160 + 80);
    }

    #[test]
    fn attempt_zero_is_immediate_and_huge_attempts_do_not_overflow() {
        let backoff = Backoff::new(BackoffConfig {
            base_ms: u64::MAX / 2,
            cap_ms: u64::MAX,
            seed: 0,
        });
        assert_eq!(backoff.delay_ms(0), 0);
        // Saturating arithmetic: no panic, just the cap regime.
        let _ = backoff.delay_ms(u32::MAX);
    }
}
