//! Outputs pinned from the seed tree at [`crate::harness::Scale::TABLE3`].
//!
//! The search is deterministic for a given config and any worker count,
//! so a change to any of these values is a change in what the program
//! computes, not noise: the run counts it as a failed operation.

/// One Table 3 scenario run in-process (`repair`, seeds 42 + 1001·t).
pub struct Table3Pin {
    /// Scenario id.
    pub id: &'static str,
    /// Status of the deciding trial.
    pub status: &'static str,
    /// Distinct simulations across every trial.
    pub evals: u64,
    /// Minimized patch length.
    pub patch_len: usize,
    /// A trial found a plausible repair.
    pub plausible: bool,
    /// The repair passed the held-out bench.
    pub correct: bool,
}

/// One scenario as a cold daemon job (`repair_session`, seeds 42 + t).
pub struct ServePin {
    /// Scenario id.
    pub id: &'static str,
    /// Terminal job state.
    pub state: &'static str,
    /// Distinct simulations across every trial.
    pub evals: u64,
    /// Minimized patch length.
    pub patch_len: usize,
    /// The repaired output passed the held-out bench.
    pub correct: bool,
}

const fn t3(
    id: &'static str,
    status: &'static str,
    evals: u64,
    patch_len: usize,
    plausible: bool,
    correct: bool,
) -> Table3Pin {
    Table3Pin {
        id,
        status,
        evals,
        patch_len,
        plausible,
        correct,
    }
}

const fn sv(
    id: &'static str,
    state: &'static str,
    evals: u64,
    patch_len: usize,
    correct: bool,
) -> ServePin {
    ServePin {
        id,
        state,
        evals,
        patch_len,
        correct,
    }
}

const TABLE3: &[Table3Pin] = &[
    t3("decoder_two_numeric", "plausible", 272, 2, true, true),
    t3("decoder_wrong_assign", "exhausted", 5141, 1, false, false),
    t3("counter_sens_list", "plausible", 1922, 1, true, true),
    t3("counter_reset", "plausible", 512, 2, true, true),
    t3("counter_increment", "plausible", 110, 1, true, true),
    t3("flip_flop_cond", "plausible", 19, 1, true, true),
    t3("flip_flop_branches", "plausible", 784, 2, true, true),
    t3("fsm_case", "plausible", 1747, 3, true, false),
    t3("fsm_blocking", "plausible", 573, 1, true, true),
    t3("fsm_next_default", "plausible", 119, 1, true, true),
    t3("fsm_next_sens", "plausible", 19, 1, true, true),
    t3("lshift_blocking", "plausible", 17, 1, true, true),
    t3("lshift_cond", "plausible", 35, 1, true, true),
    t3("lshift_sens", "plausible", 59, 1, true, true),
    t3("mux_width", "exhausted", 4072, 0, false, false),
    t3("mux_hex", "plausible", 715, 3, true, true),
    t3("mux_three_numeric", "plausible", 2287, 2, true, false),
    t3("i2c_sens", "plausible", 215, 1, true, true),
    t3("i2c_address", "plausible", 304, 1, true, true),
    t3("i2c_no_ack", "plausible", 87, 1, true, true),
    t3("sha3_off_by_one", "plausible", 1496, 1, true, true),
    t3("sha3_negation", "exhausted", 6040, 7, false, false),
    t3("sha3_wire_assign", "exhausted", 5837, 4, false, false),
    t3("sha3_overflow_check", "plausible", 800, 1, true, true),
    t3("tate_shift_logic", "exhausted", 6121, 3, false, false),
    t3("tate_shift_op", "exhausted", 6098, 2, false, false),
    t3("tate_instantiation", "plausible", 702, 1, true, false),
    t3("rs_register_size", "plausible", 18, 1, true, false),
    t3("rs_reset_sens", "plausible", 18, 1, true, true),
    t3("sdram_numeric", "exhausted", 4981, 0, false, false),
    t3("sdram_case", "exhausted", 6291, 5, false, false),
    t3("sdram_sync_reset", "plausible", 2777, 2, true, true),
];

const SERVE: &[ServePin] = &[
    sv("decoder_two_numeric", "plausible", 258, 2, true),
    sv("decoder_wrong_assign", "failed", 4237, 1, false),
    sv("counter_sens_list", "plausible", 1593, 1, true),
    sv("counter_reset", "plausible", 451, 2, true),
    sv("counter_increment", "plausible", 106, 1, true),
    sv("flip_flop_cond", "plausible", 19, 1, true),
    sv("flip_flop_branches", "plausible", 618, 2, true),
    sv("fsm_case", "plausible", 1589, 3, false),
    sv("fsm_blocking", "plausible", 523, 1, true),
    sv("fsm_next_default", "plausible", 116, 1, true),
    sv("fsm_next_sens", "plausible", 19, 1, true),
    sv("lshift_blocking", "plausible", 17, 1, true),
    sv("lshift_cond", "plausible", 35, 1, true),
    sv("lshift_sens", "plausible", 59, 1, true),
    sv("mux_width", "failed", 3015, 0, false),
    sv("mux_hex", "plausible", 569, 3, true),
    sv("mux_three_numeric", "plausible", 2564, 4, true),
    sv("i2c_sens", "plausible", 205, 1, true),
    sv("i2c_address", "plausible", 292, 1, true),
    sv("i2c_no_ack", "plausible", 85, 1, true),
    sv("rs_register_size", "plausible", 17, 1, false),
    sv("rs_reset_sens", "plausible", 18, 1, true),
];

/// The pinned outputs of a Table 3 scenario.
pub fn table3(id: &str) -> Option<&'static Table3Pin> {
    TABLE3.iter().find(|p| p.id == id)
}

/// The pinned cold-round outputs of a daemon job.
pub fn serve(id: &str) -> Option<&'static ServePin> {
    SERVE.iter().find(|p| p.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{table3_scenarios, Scale};

    #[test]
    fn pins_cover_every_scenario_and_todays_counts() {
        for large in [true, false] {
            let ids: Vec<&str> = table3_scenarios(large, &Scale::TABLE3)
                .iter()
                .map(|s| s.id)
                .collect();
            let pins: Vec<&Table3Pin> = ids.iter().filter_map(|id| table3(id)).collect();
            assert_eq!(pins.len(), ids.len());
            let plausible = pins.iter().filter(|p| p.plausible).count();
            let correct = pins.iter().filter(|p| p.correct).count();
            assert_eq!((plausible, correct), if large { (4, 3) } else { (20, 17) });
            if !large {
                assert!(ids.iter().all(|id| serve(id).is_some()));
            }
        }
        assert_eq!(TABLE3.len(), 32);
        assert_eq!(SERVE.len(), 22);
    }
}
