//! Typed access to the `MPC_*` environment knobs.
//!
//! Every knob the workspace resolves from the environment goes through this
//! module, so a set-but-malformed value is a loud configuration error naming
//! the variable instead of a silent fallback to the default — a sweep whose
//! knob is misspelled must not quietly measure the wrong thing. Unset and
//! blank variables count as absent; only then does the caller's default
//! apply.

use std::fmt::Display;
use std::str::FromStr;

/// The raw value of the environment variable `name`, trimmed, treating unset
/// and blank values as absent.
pub fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) if !v.trim().is_empty() => Some(v.trim().to_string()),
        _ => None,
    }
}

/// Parses the environment variable `name` as a `T`. `what` names the
/// expected shape in the failure message.
///
/// # Panics
///
/// Panics, naming the variable and the offending value, if the variable is
/// set and non-blank but does not parse.
pub fn parsed<T>(name: &str, what: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    raw(name).map(|v| parse(name, &v, what))
}

/// Parses one knob value: the pure core of [`parsed`], unit-tested without
/// touching the process environment.
///
/// # Panics
///
/// Panics with the variable name, the offending value and `what` if `value`
/// does not parse as a `T`.
pub(crate) fn parse<T>(name: &str, value: &str, what: &str) -> T
where
    T: FromStr,
    T::Err: Display,
{
    value
        .parse()
        .unwrap_or_else(|e| panic!("{name}={value:?} could not be parsed as {what}: {e}"))
}

/// An on/off knob value: `1`/`true`/`on` or `0`/`false`/`off` (ASCII
/// case-insensitive). Anything else fails to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Switch(pub(crate) bool);

impl FromStr for Switch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => Ok(Switch(true)),
            "0" | "false" | "off" => Ok(Switch(false)),
            _ => Err("expected 0/1/false/true/off/on".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::{NonZeroU64, NonZeroUsize};

    #[test]
    fn switch_accepts_exactly_the_documented_spellings() {
        for on in ["1", "true", "on", "ON", "True"] {
            assert_eq!(parse::<Switch>("MPC_FRAMES", on, "a switch"), Switch(true));
        }
        for off in ["0", "false", "off", "OFF", "False"] {
            assert_eq!(
                parse::<Switch>("MPC_FRAMES", off, "a switch"),
                Switch(false)
            );
        }
    }

    #[test]
    #[should_panic(expected = "MPC_FRAMES=\"no\" could not be parsed")]
    fn switch_rejects_other_spellings() {
        let _ = parse::<Switch>("MPC_FRAMES", "no", "a switch");
    }

    #[test]
    fn counts_parse_plain_integers() {
        let threads: NonZeroUsize = parse("MPC_THREADS", "4", "a thread count");
        assert_eq!(threads.get(), 4);
        let tick: NonZeroU64 = parse("MPC_TICK_US", "250", "microseconds");
        assert_eq!(tick.get(), 250);
    }

    #[test]
    #[should_panic(expected = "MPC_TICK_US=\"1ms\" could not be parsed")]
    fn counts_reject_units() {
        let _ = parse::<NonZeroU64>("MPC_TICK_US", "1ms", "microseconds");
    }

    #[test]
    #[should_panic(expected = "MPC_THREADS=\"four\" could not be parsed")]
    fn counts_reject_words() {
        let _ = parse::<NonZeroUsize>("MPC_THREADS", "four", "a thread count");
    }

    #[test]
    #[should_panic(expected = "MPC_WEDGE_MS=\"0\" could not be parsed")]
    fn positive_counts_reject_zero() {
        let _ = parse::<NonZeroU64>("MPC_WEDGE_MS", "0", "milliseconds");
    }
}
