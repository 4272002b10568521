//! The paper's Table 1: the accelerated wearout and self-healing test
//! matrix, encoded verbatim.

use selfheal_bti::SwitchingActivity;
use selfheal_fpga::ChipId;
use selfheal_units::{Celsius, Hours, Minutes, Ratio, Volts};

use crate::schedule::PhaseSpec;

/// Whether a test case is an active (stress) or sleep (recovery) phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// Active wearout phase (`AS…` cases).
    Stress {
        /// AC or DC stress mode.
        activity: SwitchingActivity,
    },
    /// Sleep/recovery phase (`R…`/`AR…` cases).
    Recovery {
        /// The active-vs-sleep ratio this case realises against its
        /// preceding stress phase (4 for every recovery row in Table 1).
        alpha: Ratio,
    },
}

/// One row of Table 1.
///
/// # Examples
///
/// ```
/// use selfheal_testbench::cases;
///
/// let table = cases::table1();
/// assert_eq!(table.len(), 11);
/// let headline = table.iter().find(|c| c.name == "AR110N6").unwrap();
/// assert!(headline.supply.is_negative());
/// assert_eq!(headline.code(), "AR110N6");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestCase {
    /// The paper's case name (`AS110DC24`, `AR110N6`, …).
    pub name: &'static str,
    /// Which of the five chips runs this case.
    pub chip: ChipId,
    /// Chamber setpoint.
    pub temperature: Celsius,
    /// Core supply during the case.
    pub supply: Volts,
    /// Case length.
    pub duration: Hours,
    /// Stress or recovery, with the mode details.
    pub kind: PhaseKind,
}

impl TestCase {
    /// Reconstructs the paper's case code from the fields — a structural
    /// check that the table is encoded faithfully.
    ///
    /// Stress: `AS<temp><AC|DC><hours>`. Recovery: `R`/`AR` (accelerated
    /// when either knob is turned) + `<temp>` + `Z` (0 V) or `N`
    /// (negative) + `<hours>`.
    #[must_use]
    pub fn code(&self) -> String {
        let t = self.temperature.get().round() as i64;
        let h = self.duration.get().round() as i64;
        match self.kind {
            PhaseKind::Stress { activity } => format!("AS{t}{}{h}", activity.code()),
            PhaseKind::Recovery { .. } => {
                let accelerated =
                    self.supply.is_negative() || self.temperature > Celsius::new(20.0);
                let prefix = if accelerated { "AR" } else { "R" };
                let v = if self.supply.is_negative() { "N" } else { "Z" };
                format!("{prefix}{t}{v}{h}")
            }
        }
    }

    /// Converts the case into a runnable [`PhaseSpec`] with the paper's
    /// sampling cadence: every 20 minutes during stress (§4.4,
    /// AS110DC24), every 30 minutes during recovery (§4.4, AR110N6).
    #[must_use]
    pub fn to_phase_spec(&self) -> PhaseSpec {
        let duration = self.duration.to_seconds();
        match self.kind {
            PhaseKind::Stress { activity } => {
                let sampling = Minutes::new(20.0).to_seconds();
                let spec = match activity {
                    SwitchingActivity::Dc => {
                        PhaseSpec::dc_stress_phase(self.temperature, duration, sampling)
                    }
                    SwitchingActivity::Ac => {
                        PhaseSpec::ac_stress_phase(self.temperature, duration, sampling)
                    }
                };
                spec.named(self.name)
            }
            PhaseKind::Recovery { .. } => PhaseSpec::recovery_phase(
                self.supply,
                self.temperature,
                duration,
                Minutes::new(30.0).to_seconds(),
            )
            .named(self.name),
        }
    }

    /// Whether this is a recovery case.
    #[must_use]
    pub fn is_recovery(&self) -> bool {
        matches!(self.kind, PhaseKind::Recovery { .. })
    }
}

/// Builds a stress row.
const fn stress(
    name: &'static str,
    chip: u32,
    temp: f64,
    hours: f64,
    activity: SwitchingActivity,
) -> TestCase {
    TestCase {
        name,
        chip: ChipId::new(chip),
        temperature: Celsius::new(temp),
        supply: Volts::new(1.2),
        duration: Hours::new(hours),
        kind: PhaseKind::Stress { activity },
    }
}

/// Builds a recovery row (every Table 1 recovery row has α = 4).
const fn recovery(name: &'static str, chip: u32, temp: f64, volts: f64, hours: f64) -> TestCase {
    TestCase {
        name,
        chip: ChipId::new(chip),
        temperature: Celsius::new(temp),
        supply: Volts::new(volts),
        duration: Hours::new(hours),
        kind: PhaseKind::Recovery {
            alpha: Ratio::PAPER_ALPHA,
        },
    }
}

/// The paper's Table 1, in row order.
#[must_use]
pub fn table1() -> Vec<TestCase> {
    use SwitchingActivity::{Ac, Dc};
    vec![
        stress("AS110AC24", 1, 110.0, 24.0, Ac),
        stress("AS110DC24", 2, 110.0, 24.0, Dc),
        stress("AS110DC24", 3, 110.0, 24.0, Dc),
        stress("AS100DC24", 4, 100.0, 24.0, Dc),
        stress("AS110DC24", 5, 110.0, 24.0, Dc),
        stress("AS110DC48", 5, 110.0, 48.0, Dc),
        recovery("R20Z6", 2, 20.0, 0.0, 6.0),
        recovery("AR20N6", 3, 20.0, -0.3, 6.0),
        recovery("AR110Z6", 4, 110.0, 0.0, 6.0),
        recovery("AR110N6", 5, 110.0, -0.3, 6.0),
        recovery("AR110N12", 5, 110.0, -0.3, 12.0),
    ]
}

/// The stress case whose aged state each recovery case starts from.
///
/// Table 1 groups rows by phase, not chronology; chip 5's actual order is
/// AS110DC24 → AR110N6 → AS110DC48 → AR110N12 (§4.4: "the last test case,
/// which is conducted after Chip 5 is re-stressed for 48 hours"), so the
/// pairing is encoded explicitly rather than inferred from row order.
#[must_use]
pub fn stress_case_for(recovery_case: &TestCase) -> Option<TestCase> {
    let stress_name = match recovery_case.name {
        "R20Z6" | "AR20N6" | "AR110N6" => "AS110DC24",
        "AR110Z6" => "AS100DC24",
        "AR110N12" => "AS110DC48",
        _ => return None,
    };
    table1()
        .into_iter()
        .find(|c| c.name == stress_name && c.chip == recovery_case.chip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_eleven_rows() {
        assert_eq!(table1().len(), 11);
    }

    #[test]
    fn every_code_matches_its_name() {
        for case in table1() {
            assert_eq!(case.code(), case.name, "row {:?}", case);
        }
    }

    #[test]
    fn chips_match_paper_assignment() {
        let table = table1();
        let chip_of = |name: &str| {
            table
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.chip.get())
                .unwrap()
        };
        assert_eq!(chip_of("AS110AC24"), 1);
        assert_eq!(chip_of("AS100DC24"), 4);
        assert_eq!(chip_of("R20Z6"), 2);
        assert_eq!(chip_of("AR20N6"), 3);
        assert_eq!(chip_of("AR110Z6"), 4);
        assert_eq!(chip_of("AR110N6"), 5);
        assert_eq!(chip_of("AR110N12"), 5);
    }

    #[test]
    fn recovery_rows_realise_alpha_four() {
        for case in table1().iter().filter(|c| c.is_recovery()) {
            let PhaseKind::Recovery { alpha } = case.kind else {
                unreachable!()
            };
            assert_eq!(alpha, Ratio::PAPER_ALPHA);
            let stress = stress_case_for(case).expect("every recovery follows a stress");
            let realised = stress.duration.get() / case.duration.get();
            assert!(
                (realised - 4.0).abs() < 1e-9,
                "{}: stress {} h / sleep {} h",
                case.name,
                stress.duration.get(),
                case.duration.get()
            );
        }
    }

    #[test]
    fn ar110n12_heals_the_48h_restress() {
        let case = table1().into_iter().find(|c| c.name == "AR110N12").unwrap();
        let stress = stress_case_for(&case).unwrap();
        assert_eq!(stress.name, "AS110DC48");
        assert_eq!(stress.chip.get(), 5);
    }

    #[test]
    fn phase_specs_follow_paper_cadence() {
        let table = table1();
        let dc = table.iter().find(|c| c.name == "AS110DC24").unwrap();
        let spec = dc.to_phase_spec();
        assert!((spec.sampling_interval.get() - 20.0 * 60.0).abs() < 1e-9);
        assert_eq!(spec.name, "AS110DC24");

        let ar = table.iter().find(|c| c.name == "AR110N6").unwrap();
        let spec = ar.to_phase_spec();
        assert!((spec.sampling_interval.get() - 30.0 * 60.0).abs() < 1e-9);
        assert!(spec.supply.is_negative());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn stress_case_for_rejects_stress_rows() {
        let table = table1();
        let stress_row = table.iter().find(|c| !c.is_recovery()).unwrap();
        assert!(stress_case_for(stress_row).is_none());
    }
}
