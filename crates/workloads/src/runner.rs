//! Glue between benchmark definitions and the simulated system.

use std::fmt;

use hsc_core::{Metrics, ObsConfig, ObsData, System, SystemBuilder, SystemConfig};
use hsc_noc::SimError;

/// A collaborative CPU/GPU benchmark: knows how to populate a system and
/// how to verify its own results from the final coherent memory state.
///
/// `Send + Sync` are supertraits so a `&dyn Workload` can be shared with
/// the worker threads of a parallel campaign (`hsc_bench::par`): each job
/// builds its own `System` from the shared, immutable workload
/// definition. Workloads are plain data, so this costs implementors
/// nothing.
pub trait Workload: fmt::Debug + Send + Sync {
    /// Short CHAI-style identifier (`bs`, `cedd`, `tq`, …).
    fn name(&self) -> &'static str;

    /// One-line description of the collaboration pattern.
    fn description(&self) -> &'static str;

    /// Adds CPU threads, GPU wavefronts, DMA commands and initial memory
    /// contents to the builder.
    fn build(&self, b: &mut SystemBuilder);

    /// Checks the benchmark's functional result against its specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch — which, given a
    /// correct workload, means a coherence-protocol bug.
    fn verify(&self, sys: &System) -> Result<(), String>;
}

/// Default event budget per run: generous, but low enough to catch
/// livelock quickly.
pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;

/// Runs `w` on an arbitrary system configuration: the panicking
/// shorthand for [`run_workload_observed`] with observability off.
///
/// # Panics
///
/// Panics if verification fails, the run livelocks, or the protocol
/// deadlocks. For a panic-free variant (fault-injection campaigns), use
/// [`run_workload_observed`] and match its `outcome`.
#[must_use]
pub fn run_workload_on(w: &dyn Workload, config: SystemConfig) -> Metrics {
    match run_workload_observed(w, config, ObsConfig::off()).outcome {
        Ok(m) => m,
        Err(e) => panic!("workload {} failed: {e}", w.name()),
    }
}

/// What went wrong in a [`run_workload_observed`] run.
#[derive(Debug, Clone)]
pub enum WorkloadError {
    /// The simulation itself failed (deadlock, budget, wiring).
    Sim(SimError),
    /// The run completed but the functional result was wrong.
    Verification(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Sim(e) => write!(f, "{e}"),
            WorkloadError::Verification(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One observed run: the verified outcome plus everything the
/// observability layer collected.
///
/// The [`ObsData`] is populated on failures too — a deadlocked run keeps
/// its time series, agent profile, open-span count, and Perfetto trace,
/// which is usually exactly what you want to look at.
#[derive(Debug)]
pub struct ObservedRun {
    /// The verified run's metrics, or the typed failure.
    pub outcome: Result<Metrics, WorkloadError>,
    /// What the observability layer collected (empty with
    /// [`ObsConfig::off`]).
    pub obs: ObsData,
}

/// Builds `w` on `config`, runs it, verifies the functional result and
/// collects what `obs` asks for. Every failure — protocol deadlock,
/// livelock, mis-wired topology, or a wrong answer — is a typed
/// [`WorkloadError`] in the outcome, never a panic.
///
/// A failed run's Perfetto trace ends with the flight-recorder tail on a
/// `"flight"` track, so the viewer shows what was delivered just before
/// the failure.
#[must_use]
pub fn run_workload_observed(
    w: &dyn Workload,
    config: SystemConfig,
    obs: ObsConfig,
) -> ObservedRun {
    let mut b = SystemBuilder::new(config);
    b.with_observability(obs);
    w.build(&mut b);
    let mut sys = b.build();
    let outcome = match sys.run(DEFAULT_EVENT_BUDGET) {
        Ok(metrics) => w.verify(&sys).map(|()| metrics).map_err(WorkloadError::Verification),
        Err(e) => Err(WorkloadError::Sim(e)),
    };
    let mut obs = sys.take_obs_data();
    if outcome.is_err() {
        if let Some(p) = &mut obs.perfetto {
            p.append_flight_tail(&obs.flight);
        }
    }
    ObservedRun { outcome, obs }
}

// Compile-time proof that everything a campaign worker returns from a run
// is `Send` (`hsc_bench::par` moves these across threads).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<WorkloadError>();
    assert_send::<ObservedRun>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hsc_cluster::{CpuOp, CpuScript};
    use hsc_mem::Addr;
    use hsc_noc::FaultPlan;

    const TARGET: Addr = Addr(0x4_0000);

    /// A CPU store to one line, then a load of `TARGET`: the store's
    /// messages fill the flight recorder before the load's `RdBlk`, the
    /// first of its class, goes out. `verify` checks nothing but can be
    /// told to reject every run.
    #[derive(Debug)]
    struct StoreLoad {
        wrong_answer: bool,
    }

    impl Workload for StoreLoad {
        fn name(&self) -> &'static str {
            "store_load"
        }

        fn description(&self) -> &'static str {
            "one CPU store, then one load"
        }

        fn build(&self, b: &mut SystemBuilder) {
            b.init_words([(TARGET, 42)]);
            let ops = vec![CpuOp::Store(Addr(0x8_0000), 1), CpuOp::Load(TARGET)];
            b.add_cpu_thread(Box::new(CpuScript::new(ops)));
        }

        fn verify(&self, _: &System) -> Result<(), String> {
            if self.wrong_answer {
                Err("always wrong".to_owned())
            } else {
                Ok(())
            }
        }
    }

    /// Flight instants in the run's Perfetto trace.
    fn flight_instants(run: &ObservedRun) -> usize {
        let trace = run.obs.perfetto.as_ref().expect("full observability records a trace");
        trace.to_json_string().matches(r#""cat":"flight""#).count()
    }

    #[test]
    fn every_failed_outcome_ends_its_trace_with_the_flight_tail() {
        let obs = ObsConfig::full(1_000);
        let ok =
            run_workload_observed(&StoreLoad { wrong_answer: false }, SystemConfig::default(), obs);
        assert!(ok.outcome.is_ok(), "{:?}", ok.outcome);
        assert!(!ok.obs.flight.is_empty(), "the recorder saw the run's deliveries");
        assert_eq!(flight_instants(&ok), 0, "a passing run has no post-mortem");

        let lost = SystemConfig::default().with_faults(FaultPlan::drop_first("RdBlk"));
        let deadlock = run_workload_observed(&StoreLoad { wrong_answer: false }, lost, obs);
        assert!(
            matches!(deadlock.outcome, Err(WorkloadError::Sim(SimError::Deadlock { .. }))),
            "{:?}",
            deadlock.outcome
        );
        let wrong =
            run_workload_observed(&StoreLoad { wrong_answer: true }, SystemConfig::default(), obs);
        assert!(
            matches!(wrong.outcome, Err(WorkloadError::Verification(_))),
            "{:?}",
            wrong.outcome
        );
        for run in [&deadlock, &wrong] {
            assert!(!run.obs.flight.is_empty());
            assert_eq!(flight_instants(run), run.obs.flight.len(), "{:?}", run.outcome);
        }
    }
}
