//! Failure containment in the serving layer: a panicking job must not take
//! a worker, the service or a connection down with it, an over-long or
//! non-UTF-8 protocol line must be refused without ending the connection,
//! and a client must turn a malformed reply frame into a typed error.
//!
//! The panicking jobs below print the usual panic message to stderr; that
//! output is expected.

use service::pool::{Pool, Reply};
use service::protocol::{read_response, serve_connection, Frame, MAX_REQUEST_LINE};
use service::{Service, ServiceConfig, ServiceError};
use std::io::{BufReader, ErrorKind};
use std::sync::Arc;
use std::time::Duration;

const Q: &str = r#"FOR $p IN document("auction.xml")//person RETURN $p/name"#;

fn small_service() -> Arc<Service> {
    let db = Arc::new(xmark::auction_database(0.001));
    Arc::new(Service::new(db, ServiceConfig { workers: 2, queue_depth: 16, ..Default::default() }))
}

#[test]
fn pool_answers_after_every_worker_has_panicked() {
    let pool: Pool<u32> = Pool::new(2, 16);
    // More panicking jobs than workers: if a panic killed its worker, the
    // pool would have no thread left for the normal job below.
    let panics = pool.workers() + 2;
    let receivers: Vec<_> = (0..panics)
        .map(|i| pool.submit(None, Box::new(move || panic!("injected fault {i}"))).unwrap())
        .collect();
    for (i, rx) in receivers.into_iter().enumerate() {
        match rx.recv_timeout(Duration::from_secs(30)).expect("a panicking job still replies") {
            Reply::Panicked { message, .. } => assert_eq!(message, format!("injected fault {i}")),
            _ => panic!("job {i} should have been answered as panicked"),
        }
    }
    let rx = pool.submit(None, Box::new(|| 42)).unwrap();
    match rx.recv_timeout(Duration::from_secs(30)).expect("the pool still answers") {
        Reply::Done { value, .. } => assert_eq!(value, 42),
        _ => panic!("a normal job after the panics must complete"),
    }
    assert_eq!(pool.batch_stats().jobs, panics as u64 + 1);
}

#[test]
fn service_answers_byte_identically_after_an_internal_error() {
    let svc = small_service();
    let reference = baselines::run(baselines::Engine::Tlc, Q, &svc.database()).unwrap();
    let before = svc.execute(Q).unwrap();
    assert_eq!(before.output, reference);
    for _ in 0..svc.workers() + 1 {
        let got = svc.run_on_snapshot("main", "fault", None, |_| panic!("injected fault"));
        match got {
            Err(ServiceError::Internal(message)) => assert_eq!(message, "injected fault"),
            other => panic!("expected an internal error, got {other:?}"),
        }
    }
    // Every worker has caught a panic by now (more panics than workers);
    // the cached plan, the match cache and the catalog still serve the
    // same bytes.
    let after = svc.execute(Q).unwrap();
    assert!(after.cache_hit, "the plan cache survived the panics");
    assert_eq!(after.output, reference);
    let snap = svc.metrics_snapshot();
    assert_eq!(snap.panicked, svc.workers() as u64 + 1);
    assert_eq!(snap.ok, 2);
    assert!(svc.metrics_report().contains(&format!("{} panicked", svc.workers() + 1)));
}

#[test]
fn malformed_request_lines_are_refused_and_the_connection_stays_open() {
    let svc = small_service();
    let reference = baselines::run(baselines::Engine::Tlc, Q, &svc.database()).unwrap();
    let mut script = vec![b'x'; MAX_REQUEST_LINE + 1];
    script.push(b'\n');
    script.extend_from_slice(b"\xff\xfe not UTF-8\n");
    script.extend_from_slice(Q.as_bytes());
    script.extend_from_slice(b"\n.quit\n");
    let mut reader = BufReader::new(&script[..]);
    let mut out = Vec::new();
    let served = serve_connection(&svc, &mut reader, &mut out).unwrap();
    assert_eq!(served, 1, "only the valid query counts as served");
    let mut replies = BufReader::new(&out[..]);
    assert_eq!(
        read_response(&mut replies).unwrap(),
        Frame::Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
    );
    assert_eq!(
        read_response(&mut replies).unwrap(),
        Frame::Err("request line is not valid UTF-8".into())
    );
    assert_eq!(read_response(&mut replies).unwrap(), Frame::Ok(reference));
}

#[test]
fn malformed_reply_frames_are_typed_errors() {
    let read = |wire: &str| read_response(&mut BufReader::new(wire.as_bytes())).unwrap_err();
    // `len + 1` would overflow.
    assert_eq!(read(&format!("OK {}\nx\n", usize::MAX)).kind(), ErrorKind::InvalidData);
    // A huge claimed length with a short body: the claim is not allocated
    // up front, and the missing bytes are an early end of stream.
    assert_eq!(read("OK 1000000000000\nshort\n").kind(), ErrorKind::UnexpectedEof);
    assert_eq!(read("OK 5\nab").kind(), ErrorKind::UnexpectedEof);
    // The body is there but its trailing newline is not.
    assert_eq!(read("OK 3\nabcd\n").kind(), ErrorKind::InvalidData);
    assert_eq!(read("OK x\n").kind(), ErrorKind::InvalidData);
    // A well-formed frame after the checks above still parses.
    let mut ok = BufReader::new(&b"OK 3\nabc\nOK 0\n\n"[..]);
    assert_eq!(read_response(&mut ok).unwrap(), Frame::Ok("abc".into()));
    assert_eq!(read_response(&mut ok).unwrap(), Frame::Ok(String::new()));
}
