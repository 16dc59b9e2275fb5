//! Exit-code contract for the `hyve-cli` binary: usage errors exit `2`,
//! runtime failures exit `1`, success exits `0`.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hyve-cli"))
        .args(args)
        .output()
        .expect("spawn hyve-cli")
}

#[test]
fn help_exits_zero() {
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn usage_errors_exit_two() {
    // Unknown subcommand.
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Missing required flag.
    let out = run(&["run", "--dataset", "yt"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Usage errors echo the usage text to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn runtime_failures_exit_one() {
    // The arguments parse fine; the input file simply does not exist.
    let out = run(&["run", "--alg", "pr", "--input", "/nonexistent/graph.txt"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("USAGE"),
        "runtime failures should not dump usage: {stderr}"
    );
}

#[test]
fn report_on_unparsable_artifact_exits_one() {
    let dir = std::env::temp_dir().join("hyve-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.jsonl");
    std::fs::write(&path, "this is not a trace artifact\n").unwrap();
    let out = run(&["report", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_file(path).ok();
}

#[test]
fn sram_size_whose_byte_count_overflows_is_a_usage_error() {
    // 2^44 MB is 2^64 bytes: the byte count would wrap to 0.
    for mb in ["17592186044416", "18446744073709551615"] {
        let out = run(&["run", "--alg", "pr", "--dataset", "yt", "--sram-mb", mb]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("SRAM capacity of {mb} MB overflows")),
            "{stderr}"
        );
    }
}

#[test]
fn graph_with_fewer_vertices_than_pus_exits_one_with_the_counts() {
    // A 5-vertex path cannot give each of the 8 PUs an interval.
    let dir = std::env::temp_dir().join("hyve-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("path5.txt");
    std::fs::write(&path, "0 1\n1 2\n2 3\n3 4\n").unwrap();
    for config in [None, Some("acc-dram")] {
        let mut args = vec!["run", "--alg", "bfs", "--input", path.to_str().unwrap()];
        args.extend(config.iter().flat_map(|c| ["--config", *c]));
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("5 vertices < 8 processing units"),
            "{stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}
