//! The dyn-object layer: type-erased quorum systems and probe strategies.
//!
//! The paper's strategies are *typed*: `Probe_CW` only probes
//! [`CrumblingWalls`](quorum_systems::CrumblingWalls), `Probe_Tree` only
//! probes [`TreeQuorum`](quorum_systems::TreeQuorum), and so on — the Rust
//! traits mirror that as `ProbeStrategy<S>`. To run *every* system × strategy
//! combination from one table-driven engine, this module erases both sides:
//!
//! * [`DynSystem`] is a shared [`EvalSystem`] trait object that is still
//!   downcastable ([`EvalSystem::as_any`]), so typed strategies can recover
//!   their concrete system;
//! * [`DynStrategy`] is the object-safe strategy interface; [`ForSystem`]
//!   adapts a typed `ProbeStrategy<S>` (checking compatibility by downcast)
//!   and [`ForAny`] adapts a generic `ProbeStrategy<dyn QuorumSystem>` such
//!   as `SequentialScan` / `RandomScan`.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use quorum_core::{Coloring, QuorumSystem};
use quorum_probe::{run_strategy, ProbeRun, ProbeStrategy};
use quorum_systems::{BuiltSystem, SpecError, SystemSpec};
use rand::RngCore;

/// A quorum system that can be stored in heterogeneous collections *and*
/// recovered at its concrete type.
///
/// Implemented automatically for every `QuorumSystem + Send + Sync + 'static`.
pub trait EvalSystem: QuorumSystem + Send + Sync {
    /// The system as `Any`, for downcasting by typed strategy adapters.
    fn as_any(&self) -> &dyn Any;

    /// The system as a plain [`QuorumSystem`] trait object.
    fn as_quorum_system(&self) -> &(dyn QuorumSystem + Send + Sync + 'static);
}

impl<T: QuorumSystem + Send + Sync + 'static> EvalSystem for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_quorum_system(&self) -> &(dyn QuorumSystem + Send + Sync + 'static) {
        self
    }
}

/// A shared, type-erased, downcastable quorum system.
pub type DynSystem = Arc<dyn EvalSystem>;

/// Wraps a concrete system into a [`DynSystem`].
pub fn erase_system<S: QuorumSystem + Send + Sync + 'static>(system: S) -> DynSystem {
    Arc::new(system)
}

/// Builds `spec` and erases the result into a [`DynSystem`].
///
/// Unlike [`SystemSpec::build`] (which produces a plain
/// `DynQuorumSystem`), the erased system keeps its concrete type behind
/// [`EvalSystem::as_any`], so typed strategies (`Probe_Maj`, `Probe_Tree`,
/// …) can still downcast and run against spec-built systems.
pub fn erase_spec(spec: &SystemSpec) -> Result<DynSystem, SpecError> {
    Ok(match spec.build_concrete()? {
        BuiltSystem::Majority(s) => erase_system(s),
        BuiltSystem::Wheel(s) => erase_system(s),
        BuiltSystem::Walls(s) => erase_system(s),
        BuiltSystem::Tree(s) => erase_system(s),
        BuiltSystem::Hqs(s) => erase_system(s),
        BuiltSystem::Grid(s) => erase_system(s),
        BuiltSystem::Composition(s) => erase_system(s),
    })
}

/// Builds the [`quorum_systems::catalogue`] family named `family` at roughly
/// `size_hint` elements through [`SystemSpec::family_with_size_hint`] and
/// erases it like [`erase_spec`], so typed strategies still downcast.
/// Returns `None` when `family` is not a catalogue name.
pub fn erase_family(family: &str, size_hint: usize) -> Option<DynSystem> {
    let spec = SystemSpec::family_with_size_hint(family, size_hint)?;
    Some(erase_spec(&spec).unwrap_or_else(|e| panic!("{spec} is invalid: {e}")))
}

/// An object-safe probe strategy: the engine-facing face of
/// [`ProbeStrategy`].
pub trait DynStrategy: Send + Sync {
    /// The strategy's report name, e.g. `"Probe_CW"`.
    fn name(&self) -> String;

    /// Whether this strategy can probe `system` (typed strategies only
    /// support their own system family).
    fn supports(&self, system: &dyn EvalSystem) -> bool;

    /// Runs the strategy once against `coloring`, returning the verified
    /// probe run.
    ///
    /// # Panics
    ///
    /// Panics if `supports(system)` is false, or propagates
    /// [`run_strategy`]'s panic on an invalid witness.
    fn run(&self, system: &dyn EvalSystem, coloring: &Coloring, rng: &mut dyn RngCore) -> ProbeRun;
}

/// A shared, type-erased probe strategy.
pub type DynProbeStrategy = Arc<dyn DynStrategy>;

/// Adapter: a typed `ProbeStrategy<S>` as a [`DynStrategy`], recovering `S`
/// by downcast.
pub struct ForSystem<S, T> {
    strategy: T,
    _system: PhantomData<fn() -> S>,
}

impl<S, T> ForSystem<S, T>
where
    S: QuorumSystem + 'static,
    T: ProbeStrategy<S> + Send + Sync,
{
    /// Wraps `strategy`.
    pub fn new(strategy: T) -> Self {
        ForSystem {
            strategy,
            _system: PhantomData,
        }
    }
}

impl<S, T> DynStrategy for ForSystem<S, T>
where
    S: QuorumSystem + 'static,
    T: ProbeStrategy<S> + Send + Sync,
{
    fn name(&self) -> String {
        self.strategy.name()
    }

    fn supports(&self, system: &dyn EvalSystem) -> bool {
        system.as_any().is::<S>()
    }

    fn run(&self, system: &dyn EvalSystem, coloring: &Coloring, rng: &mut dyn RngCore) -> ProbeRun {
        let concrete = system.as_any().downcast_ref::<S>().unwrap_or_else(|| {
            panic!(
                "strategy {} does not support system {} (wrong concrete type)",
                self.strategy.name(),
                system.name()
            )
        });
        run_strategy(concrete, &self.strategy, coloring, rng)
    }
}

/// Adapter: a system-generic strategy (e.g. `SequentialScan`, `RandomScan`)
/// as a [`DynStrategy`] compatible with every system.
pub struct ForAny<T> {
    strategy: T,
}

impl<T> ForAny<T>
where
    T: ProbeStrategy<dyn QuorumSystem + Send + Sync> + Send + Sync,
{
    /// Wraps `strategy`.
    pub fn new(strategy: T) -> Self {
        ForAny { strategy }
    }
}

impl<T> DynStrategy for ForAny<T>
where
    T: ProbeStrategy<dyn QuorumSystem + Send + Sync> + Send + Sync,
{
    fn name(&self) -> String {
        self.strategy.name()
    }

    fn supports(&self, _system: &dyn EvalSystem) -> bool {
        true
    }

    fn run(&self, system: &dyn EvalSystem, coloring: &Coloring, rng: &mut dyn RngCore) -> ProbeRun {
        run_strategy(system.as_quorum_system(), &self.strategy, coloring, rng)
    }
}

/// Wraps a typed `ProbeStrategy<S>` into a shared [`DynProbeStrategy`].
pub fn typed_strategy<S, T>(strategy: T) -> DynProbeStrategy
where
    S: QuorumSystem + 'static,
    T: ProbeStrategy<S> + Send + Sync + 'static,
{
    Arc::new(ForSystem::<S, T>::new(strategy))
}

/// Wraps a system-generic strategy into a shared [`DynProbeStrategy`].
pub fn universal_strategy<T>(strategy: T) -> DynProbeStrategy
where
    T: ProbeStrategy<dyn QuorumSystem + Send + Sync> + Send + Sync + 'static,
{
    Arc::new(ForAny::new(strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_probe::strategies::{ProbeCw, ProbeMaj, SequentialScan};
    use quorum_systems::{CrumblingWalls, Majority};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn typed_adapter_supports_only_its_system() {
        let maj: DynSystem = erase_system(Majority::new(5).unwrap());
        let wall: DynSystem = erase_system(CrumblingWalls::triang(3).unwrap());
        let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
        assert!(probe_maj.supports(maj.as_ref()));
        assert!(!probe_maj.supports(wall.as_ref()));
        let probe_cw = typed_strategy::<CrumblingWalls, _>(ProbeCw::new());
        assert!(probe_cw.supports(wall.as_ref()));
        assert!(!probe_cw.supports(maj.as_ref()));
    }

    #[test]
    fn universal_adapter_supports_everything() {
        let scan = universal_strategy(SequentialScan::new());
        for system in [
            erase_system(Majority::new(5).unwrap()),
            erase_system(CrumblingWalls::triang(3).unwrap()),
        ] {
            assert!(scan.supports(system.as_ref()));
            let coloring = Coloring::all_green(system.universe_size());
            let mut rng = StdRng::seed_from_u64(1);
            let run = scan.run(system.as_ref(), &coloring, &mut rng);
            assert!(run.witness.is_green());
        }
    }

    #[test]
    fn typed_adapter_runs_through_the_dyn_interface() {
        let maj: DynSystem = erase_system(Majority::new(5).unwrap());
        let strategy = typed_strategy::<Majority, _>(ProbeMaj::new());
        let coloring = Coloring::all_green(5);
        let mut rng = StdRng::seed_from_u64(2);
        let run = strategy.run(maj.as_ref(), &coloring, &mut rng);
        assert!(run.witness.is_green());
        assert_eq!(run.probes, 3);
        assert_eq!(strategy.name(), "Probe_Maj");
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn typed_adapter_rejects_wrong_system() {
        let wall: DynSystem = erase_system(CrumblingWalls::triang(3).unwrap());
        let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
        let coloring = Coloring::all_green(wall.universe_size());
        let mut rng = StdRng::seed_from_u64(3);
        let _ = probe_maj.run(wall.as_ref(), &coloring, &mut rng);
    }

    #[test]
    fn erase_spec_preserves_concrete_types() {
        let maj = erase_spec(&SystemSpec::parse("maj(5)").unwrap()).unwrap();
        assert!(maj.as_ref().as_any().is::<Majority>());
        let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
        assert!(probe_maj.supports(maj.as_ref()));
        let compose = erase_spec(&SystemSpec::parse("2(2(0,1,2),2(3,4,5),2(6,7,8))").unwrap())
            .expect("valid composition spec");
        assert!(compose
            .as_ref()
            .as_any()
            .is::<quorum_systems::Composition>());
        assert_eq!(compose.universe_size(), 9);
        let err = match erase_spec(&SystemSpec::Majority { n: 4 }) {
            Err(e) => e,
            Ok(_) => panic!("maj(4) must not build"),
        };
        assert!(err.to_string().contains("odd universe"), "{err}");
    }

    #[test]
    fn boxed_dyn_probe_strategy_adapts_too() {
        // The ISSUE's `Box<dyn ProbeStrategy<dyn QuorumSystem>>` shape.
        let boxed: Box<dyn ProbeStrategy<dyn QuorumSystem + Send + Sync> + Send + Sync> =
            Box::new(SequentialScan::new());
        let strategy = universal_strategy(boxed);
        let maj: DynSystem = erase_system(Majority::new(3).unwrap());
        let mut rng = StdRng::seed_from_u64(4);
        let run = strategy.run(maj.as_ref(), &Coloring::all_red(3), &mut rng);
        assert!(run.witness.is_red());
    }
}
