//! Generation-lifecycle tests for mutable datasets: delete → re-upload
//! under the same name, cache staleness across PATCH (eager eviction,
//! `evicted_stale` in /metrics), concurrent discovery racing a patch, and
//! the built-in corpus refusing mutation — all over loopback sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tane_core::{discover_fds, TaneConfig};
use tane_relation::{Schema, Value};
use tane_server::{Server, ServerConfig};
use tane_util::Json;

/// One request on a fresh `Connection: close` socket → `(status, body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {raw:.60}"));
    let body_text = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let parsed = Json::parse(body_text).unwrap_or_else(|e| panic!("bad body ({e:?}): {body_text}"));
    (status, parsed)
}

fn fds_of(body: &Json) -> Vec<String> {
    body.get("fds")
        .and_then(Json::as_array)
        .expect("fds array")
        .iter()
        .map(|f| f.as_str().expect("fd string").to_string())
        .collect()
}

const CSV_V1: &[u8] = b"A,B,C\n1,x,10\n2,x,10\n3,y,20\n4,y,20\n";
const CSV_V2: &[u8] = b"A,B,C\n1,x,10\n1,y,10\n2,x,20\n2,y,20\n3,x,30\n";

#[test]
fn delete_then_reupload_same_name_is_a_fresh_generation() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, up1) = call(addr, "POST", "/v1/datasets/churn", CSV_V1);
    assert_eq!(status, 200, "{up1:?}");
    let hash1 = up1
        .get("content_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let (status, first) = call(addr, "POST", "/v1/discover", br#"{"dataset":"churn"}"#);
    assert_eq!(status, 200, "{first:?}");

    let (status, _) = call(addr, "DELETE", "/v1/datasets/churn", b"");
    assert_eq!(status, 200);
    let (status, _) = call(addr, "GET", "/v1/datasets/churn", b"");
    assert_eq!(status, 404, "deleted uploads no longer resolve");
    let (status, body) = call(addr, "POST", "/v1/discover", br#"{"dataset":"churn"}"#);
    assert_eq!(status, 404, "{body:?}");

    // Same name, different data: a brand-new lineage, not a resurrection.
    let (status, up2) = call(addr, "POST", "/v1/datasets/churn", CSV_V2);
    assert_eq!(status, 200, "{up2:?}");
    let hash2 = up2
        .get("content_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_ne!(hash1, hash2);
    let (status, second) = call(addr, "POST", "/v1/discover", br#"{"dataset":"churn"}"#);
    assert_eq!(status, 200, "{second:?}");
    assert_eq!(
        second.get("cached").unwrap().as_bool(),
        Some(false),
        "the new generation cannot hit the old generation's cache"
    );
    assert_ne!(fds_of(&first), fds_of(&second));
}

#[test]
fn patch_evicts_stale_results_and_metrics_count_it() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, _) = call(addr, "POST", "/v1/datasets/mut", CSV_V1);
    assert_eq!(status, 200);
    let (status, warm) = call(addr, "POST", "/v1/discover", br#"{"dataset":"mut"}"#);
    assert_eq!(status, 200, "{warm:?}");

    // Rows 1 and 2 agreed on B,C; the appended row breaks B -> C.
    let (status, patched) = call(
        addr,
        "PATCH",
        "/v1/datasets/mut/rows",
        br#"{"append":[["5","x","99"]]}"#,
    );
    assert_eq!(status, 200, "{patched:?}");
    assert_eq!(patched.get("generation").unwrap().as_usize(), Some(1));
    assert_eq!(patched.get("rows").unwrap().as_usize(), Some(5));

    let (status, metrics) = call(addr, "GET", "/v1/metrics", b"");
    assert_eq!(status, 200);
    let cache = metrics.get("cache").expect("cache block");
    assert!(
        cache.get("evicted_stale").unwrap().as_usize().unwrap() >= 1,
        "the old generation's cached result was evicted eagerly: {cache:?}"
    );

    let (status, fresh) = call(addr, "POST", "/v1/discover", br#"{"dataset":"mut"}"#);
    assert_eq!(status, 200, "{fresh:?}");
    assert_eq!(
        fresh.get("cached").unwrap().as_bool(),
        Some(false),
        "post-patch discovery recomputes"
    );
    assert_ne!(
        fds_of(&warm),
        fds_of(&fresh),
        "the appended row changes the dependencies"
    );
    // The patched upload answers like a fresh upload of the same rows.
    let (status, _) = call(
        addr,
        "POST",
        "/v1/datasets/mut-fresh",
        b"A,B,C\n1,x,10\n2,x,10\n3,y,20\n4,y,20\n5,x,99\n",
    );
    assert_eq!(status, 200);
    for mode in ["", r#","epsilon":0.25"#, r#","top_k":4"#] {
        let answer = |dataset: &str| {
            let body = format!(r#"{{"dataset":"{dataset}"{mode}}}"#);
            let (status, reply) = call(addr, "POST", "/v1/discover", body.as_bytes());
            assert_eq!(status, 200, "{reply:?}");
            (fds_of(&reply), reply.get("keys").cloned())
        };
        assert_eq!(answer("mut"), answer("mut-fresh"), "mode {mode:?}");
    }

    // And the new generation caches normally.
    let (_, again) = call(addr, "POST", "/v1/discover", br#"{"dataset":"mut"}"#);
    assert_eq!(again.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(fds_of(&fresh), fds_of(&again));
}

#[test]
fn builtins_reject_patch_with_403_envelope() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, body) = call(
        addr,
        "PATCH",
        "/v1/datasets/lymphography/rows",
        br#"{"delete":[0]}"#,
    );
    assert_eq!(status, 403, "{body:?}");
    let err = body.get("error").expect("versioned error envelope");
    assert_eq!(err.get("code").unwrap().as_str(), Some("builtin-dataset"));
    assert!(
        err.get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("built-in"),
        "{err:?}"
    );

    // Unknown uploads 404; malformed bodies 400; oversized patches 413.
    let (status, _) = call(
        addr,
        "PATCH",
        "/v1/datasets/ghost/rows",
        br#"{"delete":[0]}"#,
    );
    assert_eq!(status, 404);
    let (status, _) = call(addr, "POST", "/v1/datasets/tiny", CSV_V1);
    assert_eq!(status, 200);
    let (status, body) = call(addr, "PATCH", "/v1/datasets/tiny/rows", br#"{"nope":1}"#);
    assert_eq!(status, 400, "{body:?}");
    let big = format!(
        "{{\"delete\":[{}]}}",
        (0..70_000)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, body) = call(addr, "PATCH", "/v1/datasets/tiny/rows", big.as_bytes());
    assert_eq!(status, 413, "{body:?}");
    assert_eq!(
        body.get("error").unwrap().get("code").unwrap().as_str(),
        Some("patch-too-large")
    );
}

/// Discoveries racing a stream of patches: every response must be
/// internally coherent (some generation's complete answer), and once the
/// churn stops the service must agree with a from-scratch library run on
/// the final merged rows.
#[test]
fn concurrent_discover_during_patch_stays_coherent() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, _) = call(addr, "POST", "/v1/datasets/race", CSV_V1);
    assert_eq!(status, 200);

    let patcher = std::thread::spawn(move || {
        for i in 0..8 {
            let body = format!(
                "{{\"append\":[[\"{}\",\"p{}\",\"{}\"]]}}",
                100 + i,
                i % 3,
                i * 7
            );
            let (status, reply) = call(addr, "PATCH", "/v1/datasets/race/rows", body.as_bytes());
            assert_eq!(status, 200, "patch {i}: {reply:?}");
        }
    });
    let finders: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..6 {
                    let (status, body) =
                        call(addr, "POST", "/v1/discover", br#"{"dataset":"race"}"#);
                    assert_eq!(status, 200, "{body:?}");
                    assert!(body.get("fds").is_some(), "{body:?}");
                }
            })
        })
        .collect();
    patcher.join().unwrap();
    for f in finders {
        f.join().unwrap();
    }

    // Independent ground truth: rebuild the final rows with the builder
    // and run the plain library search.
    let mut b = tane_relation::Relation::builder(Schema::new(["A", "B", "C"]).unwrap());
    for row in [
        ["1", "x", "10"],
        ["2", "x", "10"],
        ["3", "y", "20"],
        ["4", "y", "20"],
    ] {
        b.push_row(row.map(Value::parse)).unwrap();
    }
    for i in 0..8u32 {
        let row = [
            (100 + i).to_string(),
            format!("p{}", i % 3),
            (i * 7).to_string(),
        ];
        b.push_row([
            Value::parse(&row[0]),
            Value::parse(&row[1]),
            Value::parse(&row[2]),
        ])
        .unwrap();
    }
    let expected_relation = b.build();
    let names = expected_relation.schema().names().to_vec();
    let expected: Vec<String> = discover_fds(&expected_relation, &TaneConfig::default())
        .unwrap()
        .fds
        .iter()
        .map(|fd| fd.display_with(&names))
        .collect();

    let (status, settled) = call(addr, "POST", "/v1/discover", br#"{"dataset":"race"}"#);
    assert_eq!(status, 200, "{settled:?}");
    assert_eq!(
        fds_of(&settled),
        expected,
        "after the churn settles, the service matches a cold library run"
    );

    server.shutdown();
    server.wait();
}
