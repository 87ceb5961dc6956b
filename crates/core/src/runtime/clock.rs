//! The scheduling clock both execution backends implement.
//!
//! Every master-side timer — heartbeat miss/dead detection, transport
//! retransmission, speculation age — reads time through a [`Clock`] instead of
//! calling [`Instant::now`] directly.
//! Both stock backends run on [`Clock::wall`]; the manual variant exists
//! for tests, which can jump time forward deterministically and observe
//! that timers fire in deadline order instead of sleeping real
//! milliseconds and hoping the ordering holds.
//!
//! A [`Clock`] hands out real [`Instant`] values (a fixed base plus a
//! controlled offset for the manual variant), so all existing
//! `Instant`-arithmetic call sites — deadline `min`s, `duration_since`,
//! `elapsed`-style subtraction — work unchanged against either variant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotone time source.
///
/// Cloning is cheap; clones of a manual clock share the same offset, so
/// advancing one advances every component holding a clone.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// Real monotonic wall-clock time ([`Instant::now`]).
    #[default]
    Wall,
    /// Test-controlled time: a fixed base instant plus an explicitly
    /// advanced millisecond offset. Never moves on its own.
    Manual(Arc<ManualClock>),
}

/// Shared state of a [`Clock::Manual`].
#[derive(Debug)]
pub struct ManualClock {
    base: Instant,
    offset_ms: AtomicU64,
}

impl Clock {
    /// The real monotonic clock (both stock backends).
    pub fn wall() -> Self {
        Clock::Wall
    }

    /// A manual clock starting at an arbitrary base instant with zero
    /// offset.
    pub fn manual() -> Self {
        Clock::Manual(Arc::new(ManualClock {
            base: Instant::now(),
            offset_ms: AtomicU64::new(0),
        }))
    }

    /// The current instant as this clock sees it.
    pub fn now(&self) -> Instant {
        match self {
            Clock::Wall => Instant::now(),
            Clock::Manual(m) => m.base + Duration::from_millis(m.offset_ms.load(Ordering::SeqCst)),
        }
    }

    /// Advances a manual clock by `ms` milliseconds. No-op on the wall
    /// clock (real time cannot be pushed).
    pub fn advance_ms(&self, ms: u64) {
        if let Clock::Manual(m) = self {
            m.offset_ms.fetch_add(ms, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = Clock::manual();
        let t0 = c.now();
        assert_eq!(c.now(), t0);
        c.advance_ms(250);
        assert_eq!(c.now() - t0, Duration::from_millis(250));
        c.advance_ms(10);
        assert_eq!(c.now() - t0, Duration::from_millis(260));
    }

    #[test]
    fn manual_clones_share_the_offset() {
        let a = Clock::manual();
        let t0 = a.now();
        let b = a.clone();
        b.advance_ms(40);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.now() - t0, Duration::from_millis(40));
    }

    #[test]
    fn wall_clock_advance_is_a_noop() {
        let c = Clock::wall();
        c.advance_ms(1_000_000); // Must not panic or distort `now`.
        let a = c.now();
        let b = Instant::now();
        assert!(b >= a);
        assert!(b - a < Duration::from_secs(60));
    }
}
