//! `train-grid` refuses an out-of-range short-form scenario family at parse
//! time: before it prints its banner, and before the zoo directory exists.

use std::process::Command;

#[test]
fn out_of_range_family_rates_exit_1_before_the_zoo_exists() {
    for rate in ["r1.5", "rNaN", "r-0.2"] {
        let zoo = std::env::temp_dir().join(format!("noc-cli-zoo-{rate}-{}", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
            .arg("train-grid")
            .arg(&zoo)
            .args(["--families", &format!("mesh/uniform/{rate}")])
            .output()
            .expect("spawn noc-cli");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{rate}: {stderr}");
        assert!(
            stderr.starts_with("error: cannot parse scenario family")
                && stderr.lines().count() == 1,
            "{rate}: {stderr}"
        );
        assert!(!zoo.exists(), "{rate}: {} was created", zoo.display());
    }
}
