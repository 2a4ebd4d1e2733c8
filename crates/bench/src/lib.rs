//! `bench` — figure-reproduction harnesses.
//!
//! One binary per figure of the paper (`fig1`, `fig3`, `fig4`, `fig5`) and
//! per ablation (`ablation_policies`, `ablation_poll`, `ablation_cache`,
//! `ablation_decentralized`), each printing the table/series the paper
//! plots; see DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
//! results. The `report` binary runs the Figure-4 scenario with full
//! observability: a per-application cycle-breakdown table, a Perfetto
//! trace, and a JSON report (see [`observe`]). The figure binaries accept
//! `--json <path>` to also write their plotted series as JSON. The
//! end-to-end benchmark, native pool and control-plane throughput
//! included, is `bench_all` (`crates/bench-all`).

#![warn(missing_docs)]

pub mod figures;
pub mod observe;
pub mod report;
pub mod scenario;

pub use figures::{
    ablation_cache, ablation_crlock, ablation_policies, ablation_poll, baselines, fig1, fig3, fig4,
    fig4_launches, fig4_with_stagger, fig5, fig5_with_stagger, Fig4Row, CR_VARIANTS, PAPER_STAGGER,
};
pub use observe::{cycle_table, report_json, run_json, scenario_trace};
pub use scenario::{
    run_scenario, run_scenario_instrumented, run_scenario_instrumented_tuned, run_scenario_tuned,
    run_solo, run_solo_tuned, spawn_server, spawn_server_logged, AppKind, AppLaunch, AppRun,
    PolicyKind, RunOutcome, ScenarioRun, SimEnv, SERVER_APP,
};
