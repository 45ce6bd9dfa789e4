//! The one-shot `prox summarize` command, driven through the real binary:
//! its report on stdout and its typed exit codes. Also the shell's `set`,
//! which shares the knob setter with the one-shot flags.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::io::Write;
use std::process::{Command, Output, Stdio};

use prox::datasets::{MovieLens, MovieLensConfig};
use prox::provenance::{save_workload, AggKind, SavedWorkload};

fn prox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prox"))
        .args(args)
        .env_remove("PROX_TRACE")
        .env_remove("PROX_FAULT")
        .output()
        .expect("prox binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn default_run_reports_the_demo_dataset() {
    let out = prox(&["summarize"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        stdout(&out),
        "steps: 10\nsize: 297 -> 225\ndistance: 0.0000\nstop: MaxSteps\n"
    );
}

#[test]
fn knob_flags_reach_the_run() {
    let out = prox(&[
        "summarize",
        "--wdist",
        "0.7",
        "--steps",
        "4",
        "--tsize",
        "2",
        "--tdist",
        "0.9",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        stdout(&out),
        "steps: 4\nsize: 297 -> 264\ndistance: 0.0000\nstop: MaxSteps\n"
    );
}

#[test]
fn load_summarizes_a_saved_workload() {
    let path = std::env::temp_dir().join(format!("prox-cli-load-{}.json", std::process::id()));
    let data = MovieLens::generate(MovieLensConfig {
        users: 12,
        movies: 4,
        ratings_per_user: 2,
        seed: 5,
    });
    let p0 = data.provenance(AggKind::Max);
    save_workload(&path, &SavedWorkload::aggregated(data.store.clone(), p0))
        .expect("temp dir is writable");
    let path_str = path.to_str().expect("utf8 temp path");
    let out = prox(&["summarize", "--load", path_str, "--steps", "3"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        stdout(&out),
        "steps: 3\nsize: 99 -> 69\ndistance: 0.0000\nstop: MaxSteps\n"
    );
}

#[test]
fn unknown_flag_exits_2() {
    let out = prox(&["summarize", "--nope", "1"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--nope\""));
}

#[test]
fn invalid_knob_value_exits_2() {
    let out = prox(&["summarize", "--wdist", "abc"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn zero_budget_exits_3() {
    let out = prox(&["summarize", "--budget-ms", "0"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget exhausted before any work"));
}

#[test]
fn shell_set_rejects_bad_values_and_keeps_the_old_one() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prox"))
        .env_remove("PROX_TRACE")
        .env_remove("PROX_FAULT")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("prox shell starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"set wdist abc\nset wdist 1.5\nset steps -1\nset wdist 0.3\nparams\nquit\n")
        .expect("script written");
    let out = child.wait_with_output().expect("shell exits");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let replies: Vec<&str> = text
        .split("prox> ")
        .skip(1)
        .map(|r| r.lines().next().unwrap_or(""))
        .collect();
    assert_eq!(
        replies[..4],
        [
            "error: invalid configuration: invalid value for wdist: \"abc\"",
            "error: invalid configuration: wDist must lie in [0,1]",
            "error: invalid configuration: invalid value for steps: \"-1\"",
            "wDist = 0.3",
        ],
        "{text}"
    );
    assert!(text.contains("Distance weight: 0.3"), "{text}");
}
