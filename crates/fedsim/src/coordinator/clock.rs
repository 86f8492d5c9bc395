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

/// The longest duration the clock holds, in simulated seconds (about
/// 31 700 years). It is 10¹³ ticks, so a round's deadlines, round times
/// and the offsets between them add up far inside a `u64`. The
/// coordinator refuses a timing knob or a priced round time past it.
pub const MAX_SECONDS: f64 = 1e12;

/// Whether the clock holds a duration of `seconds`: at most
/// [`MAX_SECONDS`], and not NaN.
pub fn holds(seconds: f64) -> bool {
    seconds <= MAX_SECONDS
}

/// Converts a simulated duration in seconds to a whole number of ticks,
/// rounding up so an event never lands *before* its duration has
/// elapsed, and adding one tick so zero-duration events still occupy a
/// distinct delivery slot. Saturates at `u64::MAX` for a duration the
/// clock does not hold ([`holds`]).
pub fn ticks_for_seconds(seconds: f64) -> u64 {
    if !seconds.is_finite() || seconds <= 0.0 {
        return 1;
    }
    ((seconds * TICKS_PER_SECOND).ceil() as u64).saturating_add(1)
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

    #[test]
    fn durations_past_the_range_saturate_and_are_not_held() {
        assert_eq!(ticks_for_seconds(1e308), u64::MAX);
        assert_eq!(ticks_for_seconds(f64::MAX), u64::MAX);
        assert_eq!(ticks_for_seconds(MAX_SECONDS), 10_000_000_000_001);
        assert!(holds(MAX_SECONDS) && holds(0.0));
        for seconds in [MAX_SECONDS * 1.5, 1e308, f64::INFINITY, f64::NAN] {
            assert!(!holds(seconds), "{seconds}");
        }
    }
}
