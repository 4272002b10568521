//! `fleetd` refuses an invalid fleet before it builds or binds
//! anything: the process exits with status 2 and names the problem.

use std::process::Command;

/// Runs `fleetd` with `args` and returns its exit code and stderr. The
/// base flags keep a wrongly accepted config cheap: four chips, and one
/// 1 ms epoch before a clean shutdown.
fn fleetd(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .args(["--no-cache", "--chips", "4", "--shards", "1"])
        .args(["--epoch-ms", "1", "--max-epochs", "1"])
        .args(args)
        .output()
        .expect("fleetd runs");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn trap_counts_past_the_sampler_range_exit_2() {
    // A mean of 1000 used to sample about 747 traps per chip without a
    // word; infinity used to pass validation outright.
    for traps in ["1000", "inf", "NaN", "0"] {
        let (code, stderr) = fleetd(&["--traps", traps]);
        assert_eq!(code, Some(2), "--traps {traps}: {stderr}");
        assert!(stderr.contains("invalid fleet config"), "--traps {traps}: {stderr}");
    }
}
