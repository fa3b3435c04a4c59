//! Benchmark self-tests: a tiny pass of each workload passes its gates,
//! planted defects raise the failure count, digests repeat per seed, and
//! the metrics a run emits are exactly those `BENCHMARK.json` names.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use perfbench::{run, Opts, Outcome, Plant, Size, Workload};

/// Spans and the allocation counter are process-wide: one run at a time.
fn serial() -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny(workload: Workload, seed: u64) -> Opts {
    Opts {
        seconds: 0.0,
        min_passes: 2,
        setups: 1,
        size: Size::Tiny,
        ..Opts::new(workload, seed)
    }
}

fn run_tiny(opts: &Opts) -> Outcome {
    run(opts, Instant::now())
}

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("named")
                .to_string()
        })
        .collect()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn tiny_pass_of_each_workload_passes_its_gates() {
    let _g = serial();
    let e2e = declared("end_to_end");
    for w in Workload::ALL {
        let out = run_tiny(&tiny(w, 7));
        assert_eq!(out.tally.failed, 0, "{}: {:?}", w.name(), out.tally.notes);
        assert!(out.tally.attempted > 0);
        assert_eq!(names(&out), e2e, "{}", w.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(out.digest.is_some());
    }
}

#[test]
fn traced_run_emits_every_declared_layer_metric() {
    let _g = serial();
    let layer = declared("per_layer");
    for w in Workload::ALL {
        let opts = Opts {
            trace: true,
            ..tiny(w, 7)
        };
        let out = run_tiny(&opts);
        assert_eq!(out.tally.failed, 0, "{}: {:?}", w.name(), out.tally.notes);
        assert_eq!(names(&out), layer, "{}", w.name());
        assert_eq!(out.metric("failed_ratio"), Some(0.0));
        assert!(!out.spans.is_empty());
        for layer in ["overlapd", "simmpi", "simcore", "simnet"] {
            assert!(
                out.spans.iter().any(|s| s.layer() == layer),
                "{}: no {layer} span",
                w.name()
            );
        }
    }
}

#[test]
fn digest_repeats_for_a_seed_and_moves_with_it() {
    let _g = serial();
    for w in Workload::ALL {
        let a = run_tiny(&tiny(w, 11)).digest;
        let b = run_tiny(&tiny(w, 11)).digest;
        let c = run_tiny(&tiny(w, 12)).digest;
        assert_eq!(a, b, "{}", w.name());
        assert_ne!(a, c, "{}", w.name());
    }
}

#[test]
fn corrupted_served_byte_is_a_failure() {
    let _g = serial();
    for w in Workload::ALL {
        let opts = Opts {
            plant: Plant {
                corrupt_served_byte: true,
                ..Plant::default()
            },
            ..tiny(w, 7)
        };
        let out = run_tiny(&opts);
        assert!(out.tally.failed > 0, "{}", w.name());
        assert!(out
            .tally
            .notes
            .iter()
            .all(|n| n.contains("differs from the batch artifact")));
    }
}

#[test]
fn dropped_transfer_is_a_failure() {
    let _g = serial();
    let opts = Opts {
        plant: Plant {
            drop_transfer: true,
            ..Plant::default()
        },
        ..tiny(Workload::Halo4k, 7)
    };
    let out = run_tiny(&opts);
    assert!(out.tally.failed > 0);
    assert!(out
        .tally
        .notes
        .iter()
        .all(|n| n.contains("transfers, expected")));
}
