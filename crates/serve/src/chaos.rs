//! The deterministic chaos plan: a seeded assignment of faults to
//! request indices, shared by `loadgen --chaos` and the resilience
//! tests.
//!
//! The plan is a pure function of `(seed, rate, index)` — no RNG state
//! is consumed as requests run, so the same seed produces the same
//! fault at the same request index regardless of worker interleaving.
//! That is what makes a chaos run assertable: the driver knows, per
//! request, which fault it injected and therefore which outcome class
//! (success, `parse_error`, `internal_panic`, …) the server owed it.

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Send bytes that are not a well-formed request; the server owes
    /// `400 parse_error` (or closes on unrecoverable framing) and must
    /// not die.
    MalformedBody,
    /// Send the body in two writes separated by a pause; the server's
    /// patient read policy owes a response bit-identical to a fast
    /// request.
    SlowWrite,
    /// Send the request, then drop the connection without reading the
    /// response; the server owes nothing but survival.
    DropAfterSend,
    /// Target the poisoned engine family; the server owes
    /// `500 internal_panic` while the worker and peers survive.
    PanicFamily,
}

/// The seeded fault plan: assigns [`Fault`]s to roughly `rate_pct`% of
/// request indices, deterministically.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    rate_pct: u8,
}

impl FaultPlan {
    /// A plan injecting faults into `rate_pct`% (clamped to 100) of
    /// request indices under `seed`.
    pub fn new(seed: u64, rate_pct: u8) -> Self {
        FaultPlan {
            seed,
            rate_pct: rate_pct.min(100),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's injection rate, percent.
    pub fn rate_pct(&self) -> u8 {
        self.rate_pct
    }

    /// The fault assigned to request `index`, if any. Pure: the same
    /// `(seed, rate, index)` always answers the same.
    pub fn fault_for(&self, index: u64) -> Option<Fault> {
        let h = cellsync_runtime::stream_seed(self.seed, index);
        if (h % 100) as u8 >= self.rate_pct {
            return None;
        }
        Some(match (h / 100) % 4 {
            0 => Fault::MalformedBody,
            1 => Fault::SlowWrite,
            2 => Fault::DropAfterSend,
            _ => Fault::PanicFamily,
        })
    }

    /// How many of the first `n` indices carry a fault.
    pub fn planned_faults(&self, n: u64) -> u64 {
        (0..n).filter(|&i| self.fault_for(i).is_some()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let a = FaultPlan::new(42, 25);
        let b = FaultPlan::new(42, 25);
        for i in 0..1000 {
            assert_eq!(a.fault_for(i), b.fault_for(i));
        }
        let c = FaultPlan::new(43, 25);
        let differs = (0..1000).any(|i| a.fault_for(i) != c.fault_for(i));
        assert!(differs, "different seeds must give different plans");
    }

    #[test]
    fn rate_is_roughly_honored_and_all_faults_appear() {
        let plan = FaultPlan::new(7, 20);
        let n = 10_000;
        let faults = plan.planned_faults(n);
        let rate = faults as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "rate = {rate}");
        for want in [
            Fault::MalformedBody,
            Fault::SlowWrite,
            Fault::DropAfterSend,
            Fault::PanicFamily,
        ] {
            assert!(
                (0..n).any(|i| plan.fault_for(i) == Some(want)),
                "{want:?} never planned"
            );
        }
    }

    #[test]
    fn zero_and_full_rates() {
        let quiet = FaultPlan::new(1, 0);
        assert_eq!(quiet.planned_faults(1000), 0);
        let storm = FaultPlan::new(1, 100);
        assert_eq!(storm.planned_faults(1000), 1000);
        let clamped = FaultPlan::new(1, 250);
        assert_eq!(clamped.rate_pct(), 100);
    }
}
