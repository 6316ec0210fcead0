//! Integration tests driving the `vaultc` binary end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn vaultc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vaultc"))
        .args(args)
        .output()
        .expect("vaultc runs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("vaultc_test_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

const GOOD: &str = "type FILE;
stateset FS = [ open < closed ];
tracked(F) FILE fopen(string p) [new F@open];
void fclose(tracked(F) FILE f) [-F];
void ok() {
  tracked(F) FILE f = fopen(\"x\");
  fclose(f);
}";

const LEAKY: &str = "type FILE;
stateset FS = [ open < closed ];
tracked(F) FILE fopen(string p) [new F@open];
void fclose(tracked(F) FILE f) [-F];
void leak() {
  tracked(F) FILE f = fopen(\"x\");
}";

#[test]
fn check_accepts_good_program() {
    let path = write_temp("good.vlt", GOOD);
    let out = vaultc(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("accepted"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_rejects_leaky_program_with_code() {
    let path = write_temp("leaky.vlt", LEAKY);
    let out = vaultc(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("V304"), "{stdout}");
    assert!(stdout.contains("rejected"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn emit_c_produces_guard_free_output() {
    let path = write_temp("emit.vlt", GOOD);
    let out = vaultc(&["emit-c", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FILE* fopen(const char* p)"), "{stdout}");
    assert!(!stdout.contains("tracked"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn emit_c_refuses_rejected_program() {
    let path = write_temp("emit_bad.vlt", LEAKY);
    let out = vaultc(&["emit-c", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not emitting"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn dump_cfg_emits_dot() {
    let path = write_temp("cfg.vlt", GOOD);
    let out = vaultc(&["dump-cfg", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn corpus_subcommand_runs_clean() {
    let out = vaultc(&["corpus", "E1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 mismatch(es)"), "{stdout}");
}

#[test]
fn corpus_full_run_is_clean() {
    let out = vaultc(&["corpus"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
}

#[test]
fn stats_reports_shape() {
    let path = write_temp("stats.vlt", GOOD);
    let out = vaultc(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statements"), "{stdout}");
    assert!(stdout.contains("basic blocks"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn explain_describes_codes() {
    let out = vaultc(&["explain", "V301"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("held-key set"), "{stdout}");
    let out = vaultc(&["explain", "V999"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_on_bad_arguments() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["check"][..],
        &["serve", "--executors", "2"][..],
    ] {
        let out = vaultc(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    }
}

#[test]
fn run_subcommand_interprets_entry() {
    let path = write_temp(
        "runme.vlt",
        "struct point { int x; int y; }
         int forty_two() {
           tracked(K) point p = new tracked point {x=6; y=7;};
           int r = p.x * p.y;
           free(p);
           return r;
         }",
    );
    let out = vaultc(&["run", path.to_str().unwrap(), "forty_two"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("forty_two returned 42"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_subcommand_refuses_rejected_programs() {
    let path = write_temp("runbad.vlt", LEAKY);
    let out = vaultc(&["run", path.to_str().unwrap(), "leak"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("refusing to run"));
    std::fs::remove_file(path).ok();
}

#[test]
fn run_subcommand_stops_a_loop_when_fuel_runs_out() {
    let path = write_temp(
        "spin.vlt",
        "int spin() {
           int i = 0;
           while (i >= 0) { i = i + 1; }
           return i;
         }",
    );
    let out = vaultc(&["run", "--fuel", "10", path.to_str().unwrap(), "spin"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("ran out of fuel"));
    std::fs::remove_file(path).ok();
}

#[test]
fn run_subcommand_has_no_engine_flag() {
    let path = write_temp("engine.vlt", "int one() { return 1; }");
    let out = vaultc(&["run", "--engine", "vm", path.to_str().unwrap(), "one"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    std::fs::remove_file(path).ok();
}

#[test]
fn shipped_vlt_examples_have_documented_verdicts() {
    let base = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/vlt");
    for good in ["regions.vlt", "sockets.vlt", "driver_snippet.vlt"] {
        let out = vaultc(&["check", &format!("{base}/{good}")]);
        assert!(
            out.status.success(),
            "{good}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let out = vaultc(&["check", &format!("{base}/regions_buggy.vlt")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("V301"), "{stdout}");
    assert!(stdout.contains("V304"), "{stdout}");
}

#[test]
fn missing_file_reports_cleanly() {
    let out = vaultc(&["check", "/nonexistent/nope.vlt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn check_continues_past_unreadable_files() {
    // An unreadable file in the middle of a batch is reported, the
    // remaining files are still checked, and the exit code is 2.
    let good = write_temp("multi_good.vlt", GOOD);
    let leaky = write_temp("multi_leaky.vlt", LEAKY);
    let out = vaultc(&[
        "check",
        good.to_str().unwrap(),
        "/nonexistent/nope.vlt",
        leaky.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(stdout.contains("multi_good.vlt: accepted"), "{stdout}");
    assert!(stdout.contains("multi_leaky.vlt: rejected"), "{stdout}");
    assert!(stdout.contains("V304"), "{stdout}");
    std::fs::remove_file(good).ok();
    std::fs::remove_file(leaky).ok();
}

#[test]
fn check_jobs_output_is_identical_to_sequential() {
    let good = write_temp("jobs_good.vlt", GOOD);
    let leaky = write_temp("jobs_leaky.vlt", LEAKY);
    let paths = [good.to_str().unwrap(), leaky.to_str().unwrap()];
    let sequential = vaultc(&["check", "--jobs", "1", paths[0], paths[1]]);
    let parallel = vaultc(&["check", "--jobs", "4", paths[0], paths[1]]);
    assert_eq!(sequential.status.code(), parallel.status.code());
    assert_eq!(
        String::from_utf8_lossy(&sequential.stdout),
        String::from_utf8_lossy(&parallel.stdout)
    );
    assert_eq!(parallel.status.code(), Some(1));
    std::fs::remove_file(good).ok();
    std::fs::remove_file(leaky).ok();
}

#[test]
fn check_rejects_bad_jobs_flag() {
    let out = vaultc(&["check", "--jobs", "zero", "x.vlt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = vaultc(&["check", "--jobs", "4"]); // flags but no paths
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_stdio_speaks_the_wire_protocol() {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_vaultc"))
        .args(["serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vaultc serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    // Two checks of the same unit (second must be a cache hit), then
    // status, then EOF ends the session.
    let unit = r#"{"name":"wire.vlt","source":"void f() { }"}"#;
    writeln!(stdin, r#"{{"op":"check","id":1,"units":[{unit}]}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"check","id":2,"units":[{unit}]}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"status","id":3}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("vaultc serve exits");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains(r#""id":1"#), "{}", lines[0]);
    assert!(lines[0].contains(r#""verdict":"accepted""#));
    assert!(lines[0].contains(r#""cached":false"#));
    assert!(lines[1].contains(r#""cached":true"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""cache_hits":1"#), "{}", lines[2]);
    assert!(lines[2].contains(r#""workers":2"#), "{}", lines[2]);
}

#[test]
fn serve_socket_checks_over_unix_socket() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    let sock = std::env::temp_dir().join(format!("vaultc_serve_{}.sock", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_vaultc"))
        .args(["serve", "--socket", sock.to_str().unwrap(), "--jobs", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("vaultc serve spawns");

    // Wait for the socket to come up.
    let mut stream = None;
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(&sock) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut stream = stream.expect("daemon socket comes up");
    writeln!(
        stream,
        r#"{{"op":"check","id":1,"units":[{{"name":"s.vlt","source":"void f() {{ }}"}}]}}"#
    )
    .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""verdict":"accepted""#), "{line}");
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "{line}");
    // The daemon exits cleanly after shutdown.
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
    std::fs::remove_file(&sock).ok();
}
