//! Lock-step virtual clock for the in-memory transport.
//!
//! The coordinator runtime is discrete-event: nothing happens *between*
//! message deliveries, so the clock (a tick count) only ever jumps
//! forward to the next scheduled delivery (or deadline) instead of
//! ticking through idle time. Ticks are the transport's scheduling unit; wall-clock-shaped
//! quantities (heartbeat intervals, deadlines, simulated round times)
//! are expressed in seconds and converted with [`ticks_for_seconds`].
//!
//! The clock is reset at every round boundary, which keeps checkpoints
//! trivially resume-safe: no in-flight transport state ever needs to be
//! serialized, because rounds begin and end with an empty wire and
//! `tick == 0`.

/// Virtual-clock resolution: ticks per simulated second.
pub const TICKS_PER_SECOND: f64 = 10.0;

/// Converts a simulated duration in seconds to a whole number of ticks,
/// rounding up so an event never lands *before* its duration has
/// elapsed, and adding one tick so zero-duration events still occupy a
/// distinct delivery slot.
pub fn ticks_for_seconds(seconds: f64) -> u64 {
    if !seconds.is_finite() || seconds <= 0.0 {
        return 1;
    }
    (seconds * TICKS_PER_SECOND).ceil() as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_up_and_never_collapse_to_zero() {
        assert_eq!(ticks_for_seconds(0.0), 1);
        assert_eq!(ticks_for_seconds(-3.0), 1);
        assert_eq!(ticks_for_seconds(f64::NAN), 1);
        assert_eq!(ticks_for_seconds(0.05), 2); // ceil(0.5) + 1
        assert_eq!(ticks_for_seconds(1.0), 11); // 10 ticks + 1
        assert!(ticks_for_seconds(2.0) > ticks_for_seconds(1.0));
    }
}
