//! The configuration boundary: the one place `SYMMERGE_*` environment
//! variables are read.
//!
//! Every library `Default` ([`EngineConfig`], [`ParallelConfig`],
//! [`SolverConfig`] and the strategies) is a set of constants, so a
//! library user — and `cargo test` — gets the same behaviour whatever
//! the process environment holds. Callers that want the environment to
//! steer a run opt in explicitly through [`from_env`]: the `symmerge`
//! CLI, the `symmerge-bench` harnesses, and the differential test
//! harness (which is how the CI ablation legs reach it).
//!
//! | variable | field | role |
//! |---|---|---|
//! | `SYMMERGE_SOLVER_CACHE` | [`SolverConfig::use_cache`] | oracle |
//! | `SYMMERGE_SOLVER_INDEPENDENCE` | [`SolverConfig::use_independence`] | oracle |
//! | `SYMMERGE_SOLVER_INCREMENTAL` | [`SolverConfig::use_incremental`] | oracle |
//! | `SYMMERGE_SOLVER_RETRY_LADDER` | [`SolverConfig::retry_ladder`] | oracle |
//! | `SYMMERGE_SHARED_CACHE` | [`SolverConfig::shared_cache`] | oracle |
//! | `SYMMERGE_SCHEDULER` | [`ParallelConfig::scheduler`] | oracle |
//! | `SYMMERGE_FAULT_PLAN` | [`EngineConfig::fault_plan`] | deployment |
//! | `SYMMERGE_PANIC_ISOLATION` | [`EngineConfig::panic_isolation`] | deployment |
//! | `SYMMERGE_CHECKPOINT_PATH`, `SYMMERGE_CHECKPOINT_EVERY` | [`EngineConfig::checkpoint`] | deployment |
//! | `SYMMERGE_MAX_CTX_CLAUSES` | [`SolverConfig::max_context_clauses`] | deployment |
//!
//! Every value parses strictly. Booleans accept exactly
//! `1`/`true`/`on`/`yes` and `0`/`false`/`off`/`no`; counts must be
//! unsigned integers; `SYMMERGE_SCHEDULER` is `bsp` or `steal`;
//! `SYMMERGE_SOLVER_RETRY_LADDER` is comma-separated budget multipliers
//! or `0`/`false`/`off`/`no`/empty for no ladder; `SYMMERGE_FAULT_PLAN`
//! follows [`FaultPlan::parse`]. Anything else is an `Err` naming the
//! variable and its value: a typo'd setting silently running the
//! default would defeat the CI leg or deployment that set it.

use crate::checkpoint::CheckpointConfig;
use crate::fault::FaultPlan;
use crate::{EngineConfig, ParallelConfig, SchedulerKind, SolverConfig};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

/// Checkpoint interval (picks) when `SYMMERGE_CHECKPOINT_PATH` is set
/// and `SYMMERGE_CHECKPOINT_EVERY` is not.
const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

/// Builds the engine and fleet configurations from the library defaults
/// overridden by the `SYMMERGE_*` variables that `lookup` returns (see
/// the [module docs](self) for the variables and their grammar). An
/// unset variable keeps its default.
///
/// # Errors
///
/// Returns a message naming the variable and its value when any value
/// is malformed.
pub fn configs_from(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<(EngineConfig, ParallelConfig), String> {
    let lookup: &dyn Fn(&str) -> Option<String> = &lookup;
    let d = SolverConfig::default();
    let solver = SolverConfig {
        use_cache: flag(lookup, "SYMMERGE_SOLVER_CACHE", d.use_cache)?,
        use_independence: flag(lookup, "SYMMERGE_SOLVER_INDEPENDENCE", d.use_independence)?,
        use_incremental: flag(lookup, "SYMMERGE_SOLVER_INCREMENTAL", d.use_incremental)?,
        retry_ladder: match lookup("SYMMERGE_SOLVER_RETRY_LADDER") {
            Some(v) => retry_ladder(&v)
                .ok_or_else(|| invalid("SYMMERGE_SOLVER_RETRY_LADDER", &v, LADDER))?,
            None => d.retry_ladder.clone(),
        },
        max_context_clauses: number(lookup, "SYMMERGE_MAX_CTX_CLAUSES", d.max_context_clauses)?,
        shared_cache: flag(lookup, "SYMMERGE_SHARED_CACHE", d.shared_cache)?,
        ..d
    };
    let fault_plan = match lookup("SYMMERGE_FAULT_PLAN") {
        Some(v) if !v.trim().is_empty() => Some(Arc::new(
            FaultPlan::parse(&v).map_err(|e| invalid("SYMMERGE_FAULT_PLAN", &v, &e))?,
        )),
        _ => None,
    };
    let every = number(lookup, "SYMMERGE_CHECKPOINT_EVERY", DEFAULT_CHECKPOINT_EVERY)?;
    let checkpoint = lookup("SYMMERGE_CHECKPOINT_PATH")
        .map(|p| p.trim().to_owned())
        .filter(|p| !p.is_empty() && every > 0)
        .map(|p| CheckpointConfig { path: PathBuf::from(p), every });
    let engine = EngineConfig {
        solver,
        fault_plan,
        panic_isolation: flag(lookup, "SYMMERGE_PANIC_ISOLATION", false)?,
        checkpoint,
        ..EngineConfig::default()
    };
    let scheduler = match lookup("SYMMERGE_SCHEDULER") {
        None => ParallelConfig::default().scheduler,
        Some(v) => match v.trim() {
            "bsp" => SchedulerKind::Bsp,
            "steal" => SchedulerKind::Steal,
            _ => return Err(invalid("SYMMERGE_SCHEDULER", &v, "`bsp` or `steal`")),
        },
    };
    Ok((engine, ParallelConfig { scheduler, ..ParallelConfig::default() }))
}

/// [`configs_from`] over the process environment.
///
/// # Errors
///
/// As [`configs_from`].
#[allow(clippy::disallowed_methods)] // The one sanctioned environment reader.
pub fn from_env() -> Result<(EngineConfig, ParallelConfig), String> {
    configs_from(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
}

const LADDER: &str = "comma-separated budget multipliers, or 0/false/off/no";

fn invalid(name: &str, value: &str, expected: &str) -> String {
    format!("{name}={value:?}: expected {expected}")
}

fn flag(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: bool,
) -> Result<bool, String> {
    let Some(v) = lookup(name) else { return Ok(default) };
    match v.trim() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        _ => Err(invalid(name, &v, "1/true/on/yes or 0/false/off/no")),
    }
}

fn number<T: FromStr>(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match lookup(name) {
        Some(v) => v.trim().parse().map_err(|_| invalid(name, &v, "an unsigned integer")),
        None => Ok(default),
    }
}

/// Parses a retry-ladder value; `None` when malformed.
fn retry_ladder(v: &str) -> Option<Vec<u64>> {
    match v.trim() {
        "" | "0" | "false" | "off" | "no" => Some(Vec::new()),
        v => v.split(',').map(|m| m.trim().parse().ok()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn configs(vars: &[(&str, &str)]) -> Result<(EngineConfig, ParallelConfig), String> {
        let vars: HashMap<String, String> =
            vars.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect();
        configs_from(|name| vars.get(name).cloned())
    }

    #[test]
    fn empty_environment_yields_the_library_defaults() {
        let (engine, par) = configs(&[]).unwrap();
        assert_eq!(format!("{engine:?}"), format!("{:?}", EngineConfig::default()));
        assert_eq!(format!("{par:?}"), format!("{:?}", ParallelConfig::default()));
    }

    #[test]
    fn every_kept_variable_lands_in_its_field() {
        let (e, p) = configs(&[
            ("SYMMERGE_SOLVER_CACHE", "0"),
            ("SYMMERGE_SOLVER_INDEPENDENCE", "false"),
            ("SYMMERGE_SOLVER_INCREMENTAL", " 0 "),
            ("SYMMERGE_SOLVER_RETRY_LADDER", "2, 8"),
            ("SYMMERGE_SHARED_CACHE", "0"),
            ("SYMMERGE_SCHEDULER", "steal"),
            ("SYMMERGE_FAULT_PLAN", "panic=1:40,unknown=1/16:7"),
            ("SYMMERGE_PANIC_ISOLATION", "yes"),
            ("SYMMERGE_CHECKPOINT_PATH", "out/run.ck"),
            ("SYMMERGE_CHECKPOINT_EVERY", "9"),
            ("SYMMERGE_MAX_CTX_CLAUSES", "1234"),
        ])
        .unwrap();
        let s = &e.solver;
        assert!(!s.use_cache && !s.use_independence);
        assert!(!s.use_incremental && !s.shared_cache);
        assert_eq!(s.retry_ladder, vec![2, 8]);
        assert_eq!(s.max_context_clauses, 1234);
        assert_eq!(p.scheduler, SchedulerKind::Steal);
        assert_eq!(
            e.fault_plan.as_deref(),
            Some(&FaultPlan::parse("panic=1:40,unknown=1/16:7").unwrap())
        );
        assert!(e.panic_isolation);
        assert_eq!(e.checkpoint, Some(CheckpointConfig { path: "out/run.ck".into(), every: 9 }));
        // The fields no variable reaches keep their defaults.
        let d = SolverConfig::default();
        assert_eq!(s.max_contexts, d.max_contexts);
        assert_eq!(p.jobs, ParallelConfig::default().jobs);
    }

    #[test]
    fn on_values_and_off_spellings_parse() {
        for on in ["1", "true", "on", "yes"] {
            let (e, _) = configs(&[("SYMMERGE_SOLVER_CACHE", on)]).unwrap();
            assert!(e.solver.use_cache, "{on}");
        }
        let (e, p) = configs(&[
            ("SYMMERGE_SOLVER_RETRY_LADDER", "off"),
            ("SYMMERGE_SCHEDULER", "bsp"),
            ("SYMMERGE_FAULT_PLAN", " "),
        ])
        .unwrap();
        assert!(e.solver.retry_ladder.is_empty());
        for off in ["", "0", "false", "no"] {
            let (e, _) = configs(&[("SYMMERGE_SOLVER_RETRY_LADDER", off)]).unwrap();
            assert!(e.solver.retry_ladder.is_empty(), "{off:?}");
        }
        assert_eq!(p.scheduler, SchedulerKind::Bsp);
        assert!(e.fault_plan.is_none(), "an empty plan injects nothing");
    }

    #[test]
    fn checkpointing_needs_a_path_and_a_nonzero_interval() {
        let path = ("SYMMERGE_CHECKPOINT_PATH", "run.ck");
        let (e, _) = configs(&[path]).unwrap();
        assert_eq!(e.checkpoint.map(|c| c.every), Some(DEFAULT_CHECKPOINT_EVERY));
        let (e, _) = configs(&[path, ("SYMMERGE_CHECKPOINT_EVERY", "0")]).unwrap();
        assert!(e.checkpoint.is_none(), "interval 0 turns checkpointing off");
        let (e, _) = configs(&[("SYMMERGE_CHECKPOINT_EVERY", "5")]).unwrap();
        assert!(e.checkpoint.is_none(), "no path, no checkpoint");
        let (e, _) = configs(&[("SYMMERGE_CHECKPOINT_PATH", "  ")]).unwrap();
        assert!(e.checkpoint.is_none());
    }

    /// One malformed value per variable: each is an error naming the
    /// variable and the value, never a panic or a silent default.
    #[test]
    fn malformed_values_are_errors_naming_variable_and_value() {
        let cases = [
            ("SYMMERGE_SOLVER_CACHE", "of"),
            ("SYMMERGE_SOLVER_CACHE", ""),
            ("SYMMERGE_SOLVER_INDEPENDENCE", "2"),
            ("SYMMERGE_SOLVER_INCREMENTAL", "TRUE!"),
            ("SYMMERGE_SHARED_CACHE", "enabled"),
            ("SYMMERGE_PANIC_ISOLATION", "y"),
            ("SYMMERGE_SOLVER_RETRY_LADDER", "4,x"),
            ("SYMMERGE_MAX_CTX_CLAUSES", "1e6"),
            ("SYMMERGE_CHECKPOINT_EVERY", "often"),
            ("SYMMERGE_CHECKPOINT_EVERY", "-1"),
            ("SYMMERGE_SCHEDULER", "stealing"),
            ("SYMMERGE_FAULT_PLAN", "panic=1"),
        ];
        for (name, value) in cases {
            let err = configs(&[(name, value)]).expect_err(name);
            assert!(err.contains(name), "{err}");
            assert!(err.contains(&format!("{value:?}")), "{err}");
        }
    }
}
