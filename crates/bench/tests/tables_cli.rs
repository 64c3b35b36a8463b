//! The `tables` binary's command line: a mistyped CI gate must fail, not
//! print a complaint and exit 0 having checked nothing.

use std::process::Command;

#[test]
fn mistyped_invocations_print_usage_and_exit_2_before_any_table_runs() {
    let invocations: [&[&str]; 8] = [
        &["symbolc", "--smoke", "--budget"],
        // The reorder ablation is gone; its old CI step must not pass green.
        &["reorder", "--smoke"],
        &["symbolic", "--smok"],
        &["symbolic", "--smoke", "--timeout"],
        // `--budget` takes no value: each ablation is gated against its own
        // checked-in file, so the old spelling's path is an unknown table.
        &["symbolic", "--smoke", "--budget", "crates/bench/symbolic_budget.txt"],
        &[
            "symbolic",
            "synthesis",
            "--smoke",
            "--budget",
            concat!(env!("CARGO_MANIFEST_DIR"), "/symbolic_budget.txt"),
        ],
        // The paper tables and `all` have no budget gate: a budget passed
        // to them used to be ignored.
        &["table1", "--budget"],
        &["all", "--smoke", "--budget"],
    ];
    for args in invocations {
        let output = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .output()
            .expect("the tables binary runs");
        assert_eq!(output.status.code(), Some(2), "`tables {}`", args.join(" "));
        assert!(output.stdout.is_empty(), "`tables {}` ran a table", args.join(" "));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: tables"), "`tables {}`: {stderr}", args.join(" "));
    }
}
