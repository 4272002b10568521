//! Fixture for the `bare-physical-f64` lint. Offending lines carry a
//! `//~ <lint-id>` marker; unmarked lines are deliberate true negatives.

pub struct Regulator {
    // True negative: private fields are not API surface.
    setpoint_mv: f64,
}

pub struct Readout {
    pub shift_mv: f64, //~ bare-physical-f64
    pub per_core_mv: Vec<f64>, //~ bare-physical-f64
    pub margin: Option<f64>, //~ bare-physical-f64
    // True negative: typed field, the shape this lint pushes toward.
    pub worst: Millivolts,
    // True negative: no physical-name hint.
    pub samples: Vec<f64>,
    // analyzer: allow(bare-physical-f64) -- compound unit (core-seconds)
    pub served_core_seconds: f64,
}

impl Regulator {
    pub fn program(&mut self, vdd_volts: f64) { //~ bare-physical-f64
        self.setpoint_mv = 1000.0 * vdd_volts;
    }

    pub fn margin_mv(&self) -> f64 { //~ bare-physical-f64
        self.setpoint_mv
    }
}

pub fn schedule(temp_celsius: f64, weight: f64) -> f64 { //~ bare-physical-f64
    temp_celsius * weight
}

// The `->` of an `Fn` bound does not close the generics list early.
pub fn wait<F: Fn() -> f64>(f: F, vdd: f64) -> f64 { //~ bare-physical-f64
    f() * vdd
}

// True negative: private functions are not part of the API contract.
fn helper(vdd_volts: f64) -> f64 {
    vdd_volts
}

// True negative: the typed signature this lint pushes toward.
pub fn plan(vdd: Volts, temp: Celsius) -> Millivolts {
    Millivolts::new(vdd.get() * temp.get())
}

#[cfg(test)]
mod tests {
    // True negative: test-region signatures are exempt.
    pub fn stress(vdd_volts: f64) -> f64 {
        vdd_volts
    }
}
