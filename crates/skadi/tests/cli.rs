//! Drives the built `skadi-cli` binary.

use std::process::Command;

/// `trace` and `chaos` write their artifact to a user-supplied path; a
/// path that cannot be written must end in the io error and exit status
/// 1, never a panic.
#[test]
fn unwritable_trace_path_is_a_clean_error() {
    let missing_dir = std::env::temp_dir().join("skadi-cli-no-such-dir/out.json");
    let path = missing_dir.to_str().expect("utf-8 temp dir");
    for args in [
        vec!["trace", path],
        vec!["chaos", "--seed", "7", path],
        vec!["chaos", "--seed", "5", "--multi", path],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_skadi-cli"))
            .args(&args)
            .output()
            .expect("skadi-cli starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("cannot write"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
