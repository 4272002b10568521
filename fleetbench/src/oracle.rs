//! Correctness checks on what `fleetd` answered.
//!
//! * The digest gate: before timing, the daemon's `stats` digest must
//!   equal the in-process fleet's.
//! * Structure, on every reply: the reply kind and chip match the
//!   request, report epochs never go backwards on a connection, a DC
//!   chip's projection never undercuts its current shift, and headroom is
//!   exactly the margin left after the projection.
//! * Replay, where epochs are frozen: every `report` and a seeded 1-in-32
//!   sample of `plan`/`predict` go through [`FleetDaemon::handle`] in
//!   connection order, and the reply bytes must equal what the daemon
//!   sent.

use std::collections::HashSet;

use rand::Rng;
use selfheal_fleet::{FleetDaemon, FleetState, Request, Response};
use selfheal_runtime::SeedSequence;
use selfheal_units::DutyCycle;

use crate::loadgen::Exchange;

/// One in this many `plan`/`predict` requests is replayed.
pub const SAMPLE: u64 = 32;

/// Checks the daemon's `stats` reply against the in-process digest.
///
/// # Errors
///
/// When the reply is not a stats reply or the digests differ.
pub fn digest_gate(reply: &[u8], expected: u64) -> Result<(), String> {
    match Response::from_payload(reply) {
        Some(Response::Stats(stats)) if stats.state_digest == expected => Ok(()),
        Some(Response::Stats(stats)) => Err(format!(
            "fleetd serves state {:016x}, the in-process fleet is {expected:016x}",
            stats.state_digest
        )),
        other => Err(format!("expected a stats reply, got {other:?}")),
    }
}

/// Whether a reply is an answer at all: `None` for a missing, unparsable
/// or error reply (the run counts those as failed).
#[must_use]
pub fn answered(exchange: &Exchange) -> Option<Response> {
    match Response::from_payload(&exchange.reply)? {
        Response::Error { .. } => None,
        response => Some(response),
    }
}

/// Structural checks over one connection's log against `initial`, the
/// state the daemon started serving from. Failed exchanges (see
/// [`answered`]) are skipped; they are counted, not judged.
///
/// A connection owns its chips, so `initial` plus its own log say which
/// of them still age under DC stress: only those must project at or
/// above their current shift (a duty below 1 lets traps recover).
///
/// # Errors
///
/// The first reply that does not fit its request.
pub fn structure(log: &[Exchange], initial: &FleetState) -> Result<(), String> {
    let margin_mv = initial.config().margin.get();
    let at_dc = |chip: u64| {
        usize::try_from(chip)
            .ok()
            .and_then(|c| initial.chip_duty(c))
            .is_some_and(|duty| duty == DutyCycle::ALWAYS_ON)
    };
    let mut last_epoch = 0;
    let mut reported = HashSet::new();
    for exchange in log {
        let Some(response) = answered(exchange) else {
            continue;
        };
        let fits = match (&exchange.request, &response) {
            (
                Request::Plan { chip, .. },
                Response::Plan {
                    chip: got,
                    consumed,
                    ..
                },
            ) => chip == got && consumed.get() >= 0.0,
            (
                Request::Predict { chip, .. },
                Response::Predict {
                    chip: got,
                    current,
                    projected,
                    headroom,
                },
            ) => {
                chip == got
                    && (reported.contains(chip) || !at_dc(*chip) || projected >= current)
                    && headroom.get().to_bits() == (margin_mv - projected.get()).to_bits()
            }
            (
                Request::Report { chip, duty },
                Response::Report {
                    chip: got,
                    duty: on_file,
                    epoch,
                },
            ) => {
                let monotone = *epoch >= last_epoch;
                last_epoch = *epoch;
                reported.insert(*chip);
                chip == got && duty == on_file && monotone
            }
            (Request::Stats, Response::Stats(_)) => true,
            _ => false,
        };
        if !fits {
            return Err(format!(
                "reply {response:?} does not answer {:?}",
                exchange.request
            ));
        }
    }
    Ok(())
}

/// The reply `daemon` gives now must be byte-identical to `sent`.
///
/// # Errors
///
/// Both replies, decoded, when they differ.
pub fn compare(expected: &Response, sent: &[u8]) -> Result<(), String> {
    if expected.to_payload() == sent {
        Ok(())
    } else {
        Err(format!(
            "fleetd sent {:?}, the in-process daemon answers {expected:?}",
            Response::from_payload(sent)
        ))
    }
}

/// Replays each connection's log through `daemon`, which must start in
/// the state `fleetd` served from. Returns the number of replies compared.
///
/// # Errors
///
/// The first mismatch.
pub fn replay(
    daemon: &mut FleetDaemon,
    logs: &[Vec<Exchange>],
    seed: u64,
) -> Result<usize, String> {
    let mut compared = 0;
    for (connection, log) in logs.iter().enumerate() {
        let mut sample = SeedSequence::new(seed)
            .child(0x000d_ac1e)
            .rng(connection as u64);
        for exchange in log {
            let check = match exchange.request {
                Request::Report { .. } => true,
                Request::Plan { .. } | Request::Predict { .. } => sample.gen_range(0..SAMPLE) == 0,
                _ => false,
            };
            if !check {
                continue;
            }
            // A report without a reply still reached the daemon's state
            // thread unless the daemon died, and then the run fails anyway.
            let expected = daemon.handle(&exchange.request);
            if !exchange.reply.is_empty() {
                compare(&expected, &exchange.reply)?;
                compared += 1;
            }
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_fleet::FleetConfig;
    use selfheal_runtime::ResultCache;
    use selfheal_units::{Millivolts, Seconds};

    #[test]
    fn the_comparator_rejects_a_perturbed_reply() {
        let config = FleetConfig {
            chips: 16,
            shards: 2,
            ..FleetConfig::default()
        };
        let mut daemon = FleetDaemon::new(config, ResultCache::disabled(), 0);
        daemon.advance_epoch();
        let reply = daemon.handle(&Request::Predict {
            chip: 3,
            dt: Seconds::new(86_400.0),
        });
        let sent = reply.to_payload();
        assert_eq!(compare(&reply, &sent), Ok(()));

        let Response::Predict {
            chip,
            current,
            projected,
            headroom,
        } = reply.clone()
        else {
            panic!("expected a predict reply, got {reply:?}");
        };
        let one_ulp_off = Response::Predict {
            chip,
            current,
            projected: Millivolts::new(f64::from_bits(projected.get().to_bits() + 1)),
            headroom,
        };
        assert!(compare(&reply, &one_ulp_off.to_payload()).is_err());
        assert!(compare(&reply, b"{\"type\":\"bye\"}").is_err());
    }
}
