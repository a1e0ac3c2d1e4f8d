//! The same seed gives the same operation sequence, the same mix shares and
//! the same result fingerprints; another seed gives other ones.

use perfbench::batch::{BatchSpec, Expected, Inputs, Rig};
use perfbench::interactive::{self, Kind, MIX};
use std::collections::BTreeMap;

#[test]
fn interactive_sequence_is_a_function_of_the_seed() {
    let x = interactive::Inputs::generate(7);
    let a = interactive::generate_ops(&x, 7, 0, 3_000);
    let b = interactive::generate_ops(&interactive::Inputs::generate(7), 7, 0, 3_000);
    assert_eq!(a, b, "same seed, same operations and expected fingerprints");

    let other = interactive::generate_ops(&interactive::Inputs::generate(8), 8, 0, 3_000);
    assert_ne!(a, other, "another seed, another sequence");
    let tenant1 = interactive::generate_ops(&x, 7, 1, 3_000);
    assert_ne!(a, tenant1, "tenants draw independent sequences");
}

#[test]
fn interactive_mix_shares_match_the_weights() {
    let x = interactive::Inputs::generate(3);
    let ops = interactive::generate_ops(&x, 3, 0, 20_000);
    let mut counts: BTreeMap<Kind, usize> = BTreeMap::new();
    for op in &ops {
        *counts.entry(op.kind).or_default() += 1;
    }
    let total: u32 = MIX.iter().map(|(_, w)| w).sum();
    for (kind, weight) in MIX {
        let share = counts.get(kind).copied().unwrap_or(0) as f64 / ops.len() as f64;
        let want = *weight as f64 / total as f64;
        assert!(
            (share - want).abs() < 0.01,
            "{kind:?}: share {share:.4}, weight {want:.4}"
        );
    }
    // Writes always move P to another version.
    let mut version = 0;
    for op in ops.iter().filter(|o| o.kind == Kind::Write) {
        assert_ne!(op.version, version);
        version = op.version;
    }
}

#[test]
fn interactive_sequence_can_repeat() {
    // A client that gets through its list starts again from the first
    // operation, with `P` still bound where the last write left it. Run
    // each list round three times and check every expected reply against
    // the version bound at that point.
    let mut closed = 0;
    for seed in 1..=20 {
        let x = interactive::Inputs::generate(seed);
        for tenant in 0..interactive::TENANTS {
            let ops = interactive::generate_ops(&x, seed, tenant, 200);
            closed += usize::from(ops.len() > 200);
            let mut bound = 0;
            for op in ops.iter().cycle().take(3 * ops.len()) {
                match op.kind {
                    Kind::Write => bound = op.version,
                    Kind::PrivAdd => {
                        assert_eq!(op.version, bound, "seed {seed} tenant {tenant}");
                        let want = x.p[tenant][bound].add(&x.a);
                        assert_eq!(op.expect, perfbench::matrix_fingerprint(&want));
                    }
                    _ => {}
                }
            }
            assert_eq!(bound, 0, "the list ends with P at version 0");
        }
    }
    assert!(closed > 0, "some lists needed a closing write");
}

fn small_spec() -> BatchSpec {
    BatchSpec {
        n: 96,
        k: 16,
        with_add: true,
        worker_procs: 0,
    }
}

#[test]
fn batch_inputs_and_references_are_a_function_of_the_seed() {
    let spec = small_spec();
    let a = Expected::compute(&spec, &Inputs::generate(&spec, 5)).fingerprint();
    let b = Expected::compute(&spec, &Inputs::generate(&spec, 5)).fingerprint();
    let c = Expected::compute(&spec, &Inputs::generate(&spec, 6)).fingerprint();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn batch_round_matches_its_reference() {
    let spec = small_spec();
    let inputs = Inputs::generate(&spec, 9);
    let expected = Expected::compute(&spec, &inputs);
    let rig = Rig::build(&spec, &inputs);
    let out = rig.round(true).expect("round runs");
    assert!(
        expected.check(&out),
        "the program's round matches the reference"
    );
    let mut tracer = perfbench::spans::Tracer::new(std::time::Instant::now(), 0);
    let id = tracer.begin("round", None, 0);
    let phased = rig
        .round_phased(true, &mut tracer, id, 0)
        .expect("phased round runs");
    tracer.end(id);
    assert!(expected.check(&phased), "the phase-split round matches too");
}
