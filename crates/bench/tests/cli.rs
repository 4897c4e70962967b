//! The `paper` binary's command-line contract, driven through the built
//! executable: knob names it rejects, an output path it refuses before
//! any simulation, and the flags `probe` honours or refuses.

use std::process::{Command, Output};

/// `paper` with every inherited `DPC_*` variable removed, so only the
/// knobs a test sets reach the binary.
fn paper() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_paper"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DPC_") {
            command.env_remove(name);
        }
    }
    command
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn deleted_engine_gates_exit_2_before_any_simulation() {
    for gate in ["DPC_SIMD", "DPC_TRACE_STORE"] {
        let output = paper().args(["fig1", "--quick"]).env(gate, "off").output().unwrap();
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{gate}=off must be rejected: {err}");
        assert!(output.stdout.is_empty(), "{gate}: nothing may be rendered");
        assert!(!err.contains("# campaign plan"), "{gate}: rejected before planning: {err}");
        assert!(err.contains(gate), "the message names the rejected knob: {err}");
        let accepted = err.split_once("accepted: ").map_or("", |(_, list)| list.trim());
        assert_eq!(
            accepted, "DPC_SCALE, DPC_WARMUP, DPC_MEASURE, DPC_SEED, DPC_PAGE_SIZE, DPC_THREADS",
            "the message lists exactly the six accepted knobs"
        );
    }
}

#[test]
fn probe_honours_quick() {
    let output = paper().args(["probe", "mcf", "--quick"]).output().unwrap();
    let err = stderr(&output);
    assert!(output.status.success(), "probe --quick failed: {err}");
    assert!(err.contains("# scale=Tiny warmup=2000 measure=20000"), "quick header: {err}");
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.starts_with("mcf: walks "), "probe dumps the workload's counters: {out}");
}

#[test]
fn probe_rejects_campaign_outputs_and_unknown_workloads() {
    let dir = std::env::temp_dir().join(format!("dpc-cli-probe-{}", std::process::id()));
    let dir = dir.to_string_lossy().into_owned();
    let cases: [&[&str]; 3] =
        [&["probe", "mcf", "--csv", &dir], &["probe", "mcf", "--timing", &dir], &["probe", "nope"]];
    for args in cases {
        let output = paper().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}: {}", stderr(&output));
        assert!(output.stdout.is_empty(), "{args:?}: nothing may run");
    }
    assert!(!std::path::Path::new(&dir).exists(), "a rejected probe creates no directory");
}

#[test]
fn unwritable_timing_path_exits_2_before_any_simulation() {
    let output = paper()
        .args(["fig9", "--quick", "--timing", "/nonexistent-dpc-dir/t.json"])
        .output()
        .unwrap();
    let err = stderr(&output);
    assert_eq!(output.status.code(), Some(2), "{err}");
    assert!(output.stdout.is_empty(), "nothing may be rendered: {err}");
    assert!(!err.contains("# campaign plan"), "rejected before planning: {err}");
    assert!(err.contains("/nonexistent-dpc-dir/t.json"), "the message names the path: {err}");
}

#[test]
fn run_lengths_that_wrap_or_pass_the_clock_limit_exit_2() {
    let limit = dpc_memsim::MAX_RUN_MEM_OPS;
    let past_limit = limit.to_string();
    for (warmup, measure) in [("18446744073709551615", "2"), (past_limit.as_str(), "1")] {
        let output = paper()
            .arg("fig1")
            .env("DPC_SCALE", "tiny")
            .env("DPC_WARMUP", warmup)
            .env("DPC_MEASURE", measure)
            .output()
            .unwrap();
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{warmup} + {measure}: {err}");
        assert!(output.stdout.is_empty(), "nothing may be rendered: {err}");
        assert!(!err.contains("# campaign plan"), "rejected before planning: {err}");
        assert!(err.contains("DPC_WARMUP + DPC_MEASURE"), "names both knobs: {err}");
        assert!(err.contains(&limit.to_string()), "names the limit: {err}");
    }
}
