//! The `sqlgen` binary's flag surface: removed flags are rejected as
//! unknown, and `--load` accepts only versioned checkpoints.

use std::process::{Command, Output};

fn sqlgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sqlgen"))
        .args(args)
        .output()
        .expect("run sqlgen")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn removed_flags_fail_as_unknown() {
    for (args, message) in [
        (
            &["serve", "--threads", "2"][..],
            "unknown serve flag --threads",
        ),
        (
            &["serve", "--legacy-pool"][..],
            "unknown serve flag --legacy-pool",
        ),
        (
            &["--threads", "2", "--range", "1", "2"][..],
            "unknown flag --threads",
        ),
    ] {
        let out = sqlgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn help_describes_versioned_checkpoints() {
    let out = sqlgen(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("versioned checkpoint"), "{help}");
    assert!(!help.contains("as JSON"), "{help}");
}

#[test]
fn load_rejects_bare_actor_json() {
    let dir = std::env::temp_dir().join(format!("sqlgen-cli-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("actor.json");
    std::fs::write(&path, r#"{"vocab_size": 3}"#).unwrap();
    let out = sqlgen(&[
        "--range",
        "1",
        "2",
        "--scale",
        "0.01",
        "--n",
        "1",
        "--quiet",
        "--load",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("missing `sqlgen-checkpoint` header"),
        "{}",
        stderr(&out)
    );
}
