//! Kill-and-resume determinism: a daemon killed mid-campaign and
//! resumed from its cache checkpoint must reproduce the *identical*
//! fleet state and the identical responses to every subsequent request,
//! at any pool worker count.
//!
//! The campaign is a fixed script of epochs with interleaved
//! `REPORT`/`PLAN`/`PREDICT` traffic, driven through the same
//! [`FleetDaemon`] entry points the socket front end uses — transport
//! adds nothing to state evolution, so this pins the whole service path.

use selfheal_fleet::proto::{Request, Response};
use selfheal_fleet::{FleetConfig, FleetDaemon};
use selfheal_runtime::{set_global_threads, ResultCache};
use selfheal_units::{DutyCycle, Seconds};

const EPOCHS: u64 = 6;
/// The daemon checkpoints every 2 epochs, so a kill after epoch 5
/// resumes from epoch 4 and must replay epoch 5's script suffix.
const CHECKPOINT_EVERY: u64 = 2;
const KILL_AFTER: u64 = 5;

fn campaign_config() -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = 48;
    config.shards = 5;
    config.seed = 77;
    config.trap_params.mean_trap_count = 10.0;
    config
}

fn scratch_cache(tag: &str) -> ResultCache {
    let root = std::env::temp_dir().join(format!(
        "selfheal-fleet-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    ResultCache::at(root)
}

/// The request traffic arriving while epoch `epoch` is the latest
/// completed one (issued *after* the advance).
fn script(epoch: u64) -> Vec<Request> {
    #[allow(clippy::cast_precision_loss)]
    let duty = DutyCycle::new(0.1 + 0.08 * epoch as f64);
    vec![
        Request::Report {
            chip: (epoch * 11) % 48,
            duty,
        },
        Request::Plan {
            chip: (epoch * 7) % 48,
            technique: selfheal::RejuvenationTechnique::Combined,
            period: None,
            horizon: None,
        },
        Request::Predict {
            chip: (epoch * 5) % 48,
            dt: Seconds::new(86_400.0),
        },
    ]
}

/// Renders a response to its exact wire bytes — the bit-exactness
/// currency (every f64 serializes shortest-round-trip).
fn wire(response: &Response) -> Vec<u8> {
    response.to_payload()
}

/// Runs epochs `from+1..=to` with scripted traffic, returning the wire
/// form of every response.
fn drive(daemon: &mut FleetDaemon, from: u64, to: u64) -> Vec<Vec<u8>> {
    let mut responses = Vec::new();
    for epoch in from + 1..=to {
        daemon.advance_epoch();
        assert_eq!(daemon.state().epoch(), epoch);
        for request in script(epoch) {
            responses.push(wire(&daemon.handle(&request)));
        }
    }
    responses
}

/// The full kill/resume/replay campaign for one configuration: at 1, 2
/// and 8 workers, an uninterrupted run and a killed-and-resumed run
/// must produce bit-identical wire logs and state digests.
fn assert_kill_resume_is_bit_exact(config: &FleetConfig, tag: &str) {
    let mut reference: Option<(Vec<Vec<u8>>, u64)> = None;

    for workers in [1usize, 2, 8] {
        set_global_threads(workers);

        // Uninterrupted run.
        let mut uninterrupted = FleetDaemon::new(config.clone(), ResultCache::disabled(), 0);
        let full_log = drive(&mut uninterrupted, 0, EPOCHS);
        let full_digest = uninterrupted.state().state_digest();

        // Same campaign, killed after KILL_AFTER epochs, resumed.
        let cache = scratch_cache(&format!("{tag}-w{workers}"));
        let mut victim = FleetDaemon::new(config.clone(), cache.clone(), CHECKPOINT_EVERY);
        let pre_kill_log = drive(&mut victim, 0, KILL_AFTER);
        drop(victim); // the kill: no final checkpoint, state discarded

        let (mut resumed, was_resumed) =
            FleetDaemon::resume_or_new(config.clone(), cache, CHECKPOINT_EVERY);
        assert!(was_resumed, "a checkpoint must exist to resume from");
        let resumed_at = resumed.state().epoch();
        assert_eq!(
            resumed_at,
            KILL_AFTER - KILL_AFTER % CHECKPOINT_EVERY,
            "resume lands on the newest checkpoint cadence boundary"
        );

        // Replay everything the checkpoint had not yet seen: the
        // requests that arrived after the checkpoint was written but
        // before the kill (the checkpoint lands inside the epoch-4
        // advance, *before* epoch 4's traffic), then the remaining
        // epochs of the campaign.
        let mut replayed_log: Vec<Vec<u8>> = script(resumed_at)
            .iter()
            .map(|request| wire(&resumed.handle(request)))
            .collect();
        replayed_log.extend(drive(&mut resumed, resumed_at, EPOCHS));
        let resumed_digest = resumed.state().state_digest();

        // The uninterrupted log's suffix from the resume point onward
        // must match the replay bit for bit.
        let suffix_start =
            (usize::try_from(resumed_at).expect("small epoch") - 1) * script(0).len();
        assert_eq!(
            replayed_log,
            full_log[suffix_start..],
            "replayed responses must be bit-identical at {workers} workers"
        );
        assert_eq!(
            resumed_digest, full_digest,
            "resumed fleet state must be bit-identical at {workers} workers"
        );
        // The pre-kill prefix also matches the uninterrupted run.
        assert_eq!(pre_kill_log, full_log[..pre_kill_log.len()]);

        // And every worker count agrees with every other.
        match &reference {
            None => reference = Some((full_log, full_digest)),
            Some((log, digest)) => {
                assert_eq!(&full_log, log, "worker count must not change responses");
                assert_eq!(full_digest, *digest, "worker count must not change state");
            }
        }
    }
}

#[test]
fn killed_daemon_resumes_bit_exactly_at_any_worker_count() {
    assert_kill_resume_is_bit_exact(&campaign_config(), "flat");
}

#[test]
fn resume_with_a_cold_cache_builds_fresh() {
    set_global_threads(2);
    let cache = scratch_cache("cold");
    let (daemon, resumed) = FleetDaemon::resume_or_new(campaign_config(), cache, 2);
    assert!(!resumed);
    assert_eq!(daemon.state().epoch(), 0);
}
