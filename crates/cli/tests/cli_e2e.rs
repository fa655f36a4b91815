//! End-to-end tests of the `tane` binary: real process, real files.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

fn tane() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tane"))
}

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("tane-cli-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const FIGURE1: &str = "\
A,B,C,D
1,a,$,Flower
1,AA,£,Tulip
2,AA,$,Daffodil
2,AA,$,Flower
2,b,£,Lily
3,b,$,Orchid
3,c,£,Flower
3,c,#,Rose
";

#[test]
fn discover_prints_the_minimal_cover() {
    let path = write_fixture("discover.csv", FIGURE1);
    let out = tane()
        .args(["discover", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("{B,C} -> A"),
        "missing Example 2's FD in:\n{stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("6 minimal dependencies"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(path).unwrap();
}

#[test]
fn algorithms_agree_through_the_cli() {
    let path = write_fixture("algos.csv", FIGURE1);
    let mut outputs = Vec::new();
    for algo in ["tane", "fdep", "naive"] {
        let out = tane()
            .args(["discover", path.to_str().unwrap(), "--algorithm", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo} failed");
        let mut lines: Vec<String> = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        outputs.push(lines);
    }
    assert_eq!(outputs[0], outputs[1], "tane vs fdep");
    assert_eq!(outputs[0], outputs[2], "tane vs naive");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn epsilon_and_stats_flags() {
    let path = write_fixture("eps.csv", FIGURE1);
    let out = tane()
        .args([
            "discover",
            path.to_str().unwrap(),
            "--epsilon",
            "0.375",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // {A} -> B holds at g3 = 3/8.
    assert!(stdout.contains("{A} -> B"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("# validity_tests: "), "{stderr}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn megabyte_sizes_that_overflow_are_refused() {
    // 2^44 MiB is 2^64 bytes: one past the byte count's range.
    let path = write_fixture("huge-cache.csv", FIGURE1);
    let out = tane()
        .args([
            "discover",
            path.to_str().unwrap(),
            "--disk",
            "17592186044416",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--disk"));
    std::fs::remove_file(path).unwrap();
}

#[test]
fn serve_refuses_an_overflowing_disk_quota() {
    // A wrapped quota would start the server, so give it a deadline.
    let mut child = tane()
        .args(["serve", "--port", "0", "--disk-quota-mb", "17592186044416"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    for _ in 0..100 {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(!status.success());
            let mut stderr = String::new();
            child
                .stderr
                .take()
                .unwrap()
                .read_to_string(&mut stderr)
                .unwrap();
            assert!(stderr.contains("--disk-quota-mb"), "{stderr}");
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().ok();
    panic!("serve started with a quota of 2^44 MB");
}

/// `tane patch` answers exactly like `tane discover` on a CSV of the
/// surviving and appended rows, exact and approximate, at any thread count.
#[test]
fn patch_matches_discover_on_the_merged_rows() {
    let base = write_fixture(
        "patch-base.csv",
        "A,B,C\n1,x,10\n2,x,10\n3,y,20\n4,y,20\n5,q,30\n",
    );
    let more = write_fixture("patch-more.csv", "A,B,C\n6,x,99\n7,y,20\n");
    let merged = write_fixture(
        "patch-merged.csv",
        "A,B,C\n1,x,10\n2,x,10\n3,y,20\n4,y,20\n6,x,99\n7,y,20\n",
    );
    let [base, more, merged] = [&base, &more, &merged].map(|p| p.to_str().unwrap());
    for epsilon in ["0", "0.05"] {
        for threads in ["1", "8"] {
            let flags = ["--epsilon", epsilon, "--threads", threads];
            let patched = tane()
                .args(["patch", base, "--append", more, "--delete", "4", "--stats"])
                .args(flags)
                .output()
                .unwrap();
            let stderr = String::from_utf8(patched.stderr).unwrap();
            assert!(patched.status.success(), "{stderr}");
            assert!(stderr.contains("# partitions_supplied: 0\n"), "{stderr}");
            assert!(!stderr.contains("base run"), "{stderr}");
            let discovered = tane()
                .args(["discover", merged])
                .args(flags)
                .output()
                .unwrap();
            assert!(discovered.status.success());
            assert_eq!(
                String::from_utf8(patched.stdout).unwrap(),
                String::from_utf8(discovered.stdout).unwrap(),
                "epsilon {epsilon}, threads {threads}"
            );
        }
    }

    let out = tane()
        .args(["patch", base, "--delete", "9"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("row index 9 is out of range"), "{stderr}");
    for path in [base, more, merged] {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn dataset_roundtrip_through_discover() {
    let csv = std::env::temp_dir().join(format!("tane-cli-test-{}-wbc.csv", std::process::id()));
    let out = tane()
        .args(["dataset", "wbc", "-o", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = tane()
        .args(["discover", csv.to_str().unwrap(), "--max-lhs", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(csv).unwrap();
}

#[test]
fn profile_reports_columns() {
    let path = write_fixture("profile.csv", FIGURE1);
    let out = tane()
        .args(["profile", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("rows: 8"));
    assert!(stdout.contains("attributes: 4"));
    assert!(stdout.contains("distinct=6"), "D has 6 values: {stdout}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn errors_are_reported_not_panicked() {
    // Missing file.
    let out = tane()
        .args(["discover", "/nonexistent/nope.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    // Bad epsilon.
    let path = write_fixture("bad-eps.csv", FIGURE1);
    let out = tane()
        .args(["discover", path.to_str().unwrap(), "--epsilon", "7"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Unknown dataset.
    let out = tane().args(["dataset", "nope"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
    // Unknown command.
    let out = tane().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(path).unwrap();
}

#[test]
fn serve_answers_discover_and_shuts_down() {
    // `--port 0` binds an ephemeral port; the first stdout line names it.
    let mut child = tane()
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    let http = |method: &str, path: &str, body: &[u8]| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        // `connection: close` so the EOF-terminated read below works
        // against the keep-alive server.
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        stream.write_all(body).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw[9..12].parse().unwrap();
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    };

    let (status, body) = http("GET", "/health", b"");
    assert_eq!(status, 200, "{body}");

    // Discovery over HTTP matches the CLI on the same data: Example 2's FD
    // appears, rendered identically to `tane discover`.
    let (status, _) = http("POST", "/datasets/figure1", FIGURE1.as_bytes());
    assert_eq!(status, 200);
    let (status, body) = http("POST", "/discover", br#"{"dataset":"figure1"}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("{B,C} -> A"), "{body}");
    assert!(body.contains("\"count\":6"), "{body}");

    let (status, body) = http("GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"queue\""), "{body}");
    assert!(body.contains("\"level_times\""), "{body}");

    // Graceful stop: the endpoint answers, then the process exits cleanly.
    let (status, _) = http("POST", "/shutdown", b"");
    assert_eq!(status, 200);
    for _ in 0..100 {
        if let Some(code) = child.try_wait().unwrap() {
            assert!(code.success());
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().ok();
    panic!("server did not exit within 10s of /shutdown");
}

#[test]
fn serve_rejects_bad_flags() {
    let out = tane().args(["serve", "--workers", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one worker"));
    let out = tane()
        .args(["serve", "--port", "notaport"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = tane().args(["serve", "stray"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no positional"));
    let out = tane().args(["serve", "--max-conns", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("connection slot"));
    let out = tane()
        .args(["serve", "--conn-requests", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = tane()
        .args(["serve", "--idle-timeout", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_is_printed() {
    let out = tane().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    let out = tane().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
