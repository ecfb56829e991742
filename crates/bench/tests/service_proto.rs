//! Protocol robustness tier: hostile and broken clients against a live
//! server.
//!
//! Truncated frames, oversized length prefixes, garbage or deeply nested
//! JSON, and mid-request disconnects must each produce a typed error (the
//! `SimError::Protocol` taxonomy on the wire as `code: "protocol"`) or a
//! clean connection drop — never a panic, and never a wedged worker pool.
//! Every scenario ends by proving the server still answers pings.

use std::io::Write;
use std::net::TcpStream;

use memcomm_bench::service::client::Client;
use memcomm_bench::service::server::{Server, ServerConfig};
use memcomm_bench::service::Request;
use memcomm_memsim::SimError;
use memcomm_util::json::Json;

fn start(workers: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn assert_alive(server: &Server, probes: usize) {
    for i in 0..probes {
        let mut c = Client::connect(server.addr()).expect("connect for liveness probe");
        let doc = c.request(&Request::Ping).expect("ping succeeds");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("pong"),
            "probe {i}"
        );
    }
}

#[test]
fn garbage_json_gets_a_typed_error_and_the_connection_survives() {
    let server = start(2);
    let mut c = Client::connect(server.addr()).expect("connect");
    let reply = c.call_bytes(b"this is not json").expect("server replies");
    let doc = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
    // The same connection keeps working after the error.
    let pong = c.request(&Request::Ping).expect("connection still usable");
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
    assert_alive(&server, 2);
}

/// A frame far under the size cap that nests 100,000 arrays deep: the
/// parser refuses it at its depth bound instead of overflowing the
/// connection thread's stack.
#[test]
fn a_deeply_nested_frame_gets_a_typed_error_and_the_connection_survives() {
    let server = start(2);
    let mut c = Client::connect(server.addr()).expect("connect");
    let reply = c.call_bytes(&[b'['; 100_000]).expect("server replies");
    let doc = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
    let pong = c.request(&Request::Ping).expect("connection still usable");
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
    assert_alive(&server, 2);
}

#[test]
fn unknown_kinds_and_fields_get_typed_errors() {
    let server = start(1);
    let mut c = Client::connect(server.addr()).expect("connect");
    for payload in [
        "{\"kind\": \"frobnicate\"}",
        "{\"kind\": \"ping\", \"mystery\": 1}",
        "{\"kind\": \"query\", \"machine\": \"t3d\", \"transfer\": \"1C1\"}",
        "[]",
        "null",
    ] {
        let reply = c.call_bytes(payload.as_bytes()).expect("server replies");
        let doc = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some("protocol"),
            "payload {payload:?} must be refused as a protocol error"
        );
    }
    assert_alive(&server, 1);
}

#[test]
fn oversized_prefix_is_refused_with_a_typed_error() {
    let server = Server::start(ServerConfig {
        workers: 1,
        max_frame: 1024,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Announce 1 MiB against a 1 KiB cap; the payload never needs to
    // exist — the refusal happens on the prefix alone.
    stream
        .write_all(&(1_048_576u32).to_be_bytes())
        .expect("send hostile prefix");
    let reply = memcomm_util::frame::read_frame(&mut stream, 1 << 20)
        .expect("typed refusal arrives")
        .expect("refusal is a frame");
    let doc = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
    let msg = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        msg.contains("oversized"),
        "message names the refusal: {msg}"
    );
    // The connection is closed after a refused frame...
    let next = memcomm_util::frame::read_frame(&mut stream, 1 << 20).expect("clean close");
    assert!(next.is_none(), "refusing a frame closes the connection");
    // ...but the pool is unharmed.
    assert_alive(&server, 2);
}

#[test]
fn truncated_frames_and_mid_request_disconnects_drop_cleanly() {
    // One worker: if a broken request wedged the pool, the liveness
    // probes below would hang.
    let server = start(1);
    // Partial prefix, then vanish.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(&[0, 0]).expect("send half a prefix");
    }
    // Full prefix announcing 64 bytes, deliver 10, then vanish.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(&64u32.to_be_bytes()).expect("send prefix");
        stream.write_all(&[b'x'; 10]).expect("send partial payload");
    }
    // Disconnect immediately after connecting.
    drop(TcpStream::connect(server.addr()).expect("connect"));
    assert_alive(&server, 4);
}

#[test]
fn worker_pool_survives_a_burst_of_hostile_connections() {
    let server = start(2);
    for round in 0..10 {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Alternate hostile shapes.
        match round % 3 {
            0 => stream.write_all(&[round as u8]).expect("partial prefix"),
            1 => {
                stream
                    .write_all(&(u32::MAX).to_be_bytes())
                    .expect("oversized prefix");
            }
            _ => {
                let garbage = b"\xff\xfe\xfd not a request";
                stream
                    .write_all(&(garbage.len() as u32).to_be_bytes())
                    .expect("prefix");
                stream.write_all(garbage).expect("garbage payload");
            }
        }
    }
    assert_alive(&server, 4);
}

#[test]
fn client_maps_wire_failures_into_the_protocol_taxonomy() {
    let server = start(1);
    let mut c = Client::connect(server.addr()).expect("connect");
    // Force the *client's* frame cap below the response size: the typed
    // failure surfaces as SimError::Protocol.
    c.set_max_frame(4);
    match c.call(&Request::Ping) {
        Err(SimError::Protocol { detail, .. }) => {
            assert!(detail.contains("oversized"), "{detail}");
        }
        other => panic!("want a protocol error, got {other:?}"),
    }
    // Server-side error documents surface through request() the same way.
    let mut c2 = Client::connect(server.addr()).expect("connect");
    let err = c2
        .request(&Request::Query {
            machine: "cm5".to_string(),
            transfer: memcomm_model::BasicTransfer::parse("1C1").unwrap(),
            words: 4,
        })
        .expect_err("unknown machine is refused");
    match err {
        SimError::Protocol { detail, .. } => assert!(detail.contains("cm5"), "{detail}"),
        other => panic!("want a protocol error, got {other:?}"),
    }
    assert_alive(&server, 1);
}

#[test]
fn shutdown_request_stops_the_server() {
    let server = start(2);
    let mut c = Client::connect(server.addr()).expect("connect");
    let bye = c
        .request(&Request::Shutdown)
        .expect("shutdown acknowledged");
    assert_eq!(bye.get("kind").and_then(Json::as_str), Some("bye"));
    // wait() returns because the request flipped the flag — not a timeout.
    server.wait();
}
