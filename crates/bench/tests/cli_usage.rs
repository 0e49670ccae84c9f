//! `swe_run` command lines that cannot run end with one `usage: …` line on
//! stderr and exit code 64 (`EX_USAGE`), never a panic. Exit 2 stays the
//! `--validate` band violation, so scripts can tell the two apart.

use std::process::Command;

#[test]
fn misuse_exits_64_with_a_usage_line() {
    let cases: [&[&str]; 7] = [
        &["--layers", "0"],
        &["--backend", "avx512"],
        &["--ranks", "2", "--backend", "simd", "--layers", "4"],
        &["--no-such-flag"],
        &["--level", "3", "--layers"],
        &["--days", "soon"],
        &["--level", "2", "--gate", "no/such/baseline.json"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_swe_run"))
            .args(args)
            .output()
            .expect("run swe_run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().filter(|l| l.starts_with("usage: ")).count(),
            1,
            "{args:?}: {stderr}"
        );
    }
}
