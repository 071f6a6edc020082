//! Determinism guarantees: identical seeds must reproduce identical
//! results byte-for-byte across every experiment surface.

use consent_core::{experiments, Study, StudyConfig};
use consent_faultsim::FaultProfile;

fn study() -> Study {
    Study::new(StudyConfig::quick())
}

#[test]
fn table1_renders_identically() {
    for fault_profile in [FaultProfile::none(), FaultProfile::mild()] {
        let study = || {
            Study::new(StudyConfig {
                fault_profile,
                ..StudyConfig::quick()
            })
        };
        let a = experiments::table1::table1(&study()).render();
        let b = experiments::table1::table1(&study()).render();
        assert_eq!(a, b, "{fault_profile}");
    }
}

#[test]
fn fig10_identical_statistics() {
    let a = experiments::fig10::fig10(&study());
    let b = experiments::fig10::fig10(&study());
    assert_eq!(
        a.experiment.direct.accept_times,
        b.experiment.direct.accept_times
    );
    assert_eq!(a.render(), b.render());
}

#[test]
fn gvl_history_identical_json() {
    let a = experiments::fig7_8::gvl_figures(&study());
    let b = experiments::fig7_8::gvl_figures(&study());
    let ja = a.history.last().unwrap().to_json().to_compact();
    let jb = b.history.last().unwrap().to_json().to_compact();
    assert_eq!(ja, jb);
}

#[test]
fn different_seeds_differ() {
    let mut config = StudyConfig::quick();
    config.seed = 1;
    let a = experiments::fig9::fig9_with_hours(&Study::new(config.clone()), 48);
    config.seed = 2;
    let b = experiments::fig9::fig9_with_hours(&Study::new(config), 48);
    assert_ne!(a.median_wait_s, b.median_wait_s);
}

#[test]
fn fig9_stable_across_runs() {
    let a = experiments::fig9::fig9_with_hours(&study(), 48);
    let b = experiments::fig9::fig9_with_hours(&study(), 48);
    assert_eq!(a.median_wait_s, b.median_wait_s);
    assert_eq!(a.probes, b.probes);
}

/// Every table, figure and ablation the paper regenerator renders at
/// `Study::quick()`: the `reproduce` example's stdout. Two runs of one
/// build agree on their own; this pins what the experiments print
/// across builds.
const GOLDEN_PAPER: &str = include_str!("fixtures/paper_quick_v1.txt");

#[test]
fn reproduce_matches_the_committed_golden_fixture() {
    let text = experiments::reproduce(&Study::quick());
    if let Some((n, (got, want))) = text
        .lines()
        .zip(GOLDEN_PAPER.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "reproduce differs from the fixture at line {}:\n  got  {got:?}\n  want {want:?}",
            n + 1
        );
    }
    assert_eq!(text, GOLDEN_PAPER);
}
