//! `protocol::Session` is the one command interpreter behind both
//! `tlc-serve` connections and `tlc-shell`'s prompt: driving it directly
//! must answer exactly what `serve_connection` writes for the same lines,
//! and sessions sharing one service must see each other's commits.

use service::protocol::{read_response, serve_connection, Frame, Session};
use service::{Service, ServiceConfig};
use std::io::BufReader;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;

const PEOPLE: &str = r#"FOR $p IN document("auction.xml")//person RETURN $p/name"#;
const NOTES: &str = r#"FOR $n IN document("auction.xml")//note RETURN $n"#;

fn small_service() -> Arc<Service> {
    let db = Arc::new(xmark::auction_database(0.001));
    Arc::new(Service::new(db, ServiceConfig { workers: 2, queue_depth: 16, ..Default::default() }))
}

/// A five-node document whose GAP-spaced pre ordinals are known:
/// site=32, person=64, name=96.
fn tiny_file(tag: &str) -> PathBuf {
    let file = std::env::temp_dir().join(format!("tlc_session_{tag}_{}.xml", std::process::id()));
    std::fs::write(&file, "<site><person><name>Ann</name></person></site>").unwrap();
    file
}

/// Replaces every duration token (`20µs`, `mean=1.5ms`, ...) of a metrics
/// report with `<t>` and collapses the table padding around it, so two
/// reports of the same work compare equal.
fn mask_durations(text: &str) -> String {
    let is_duration = |v: &str| {
        ["ns", "µs", "ms", "s"].iter().any(|unit| {
            v.strip_suffix(unit)
                .is_some_and(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit() || c == '.'))
        })
    };
    let mask = |token: &str| match token.split_once('=') {
        Some((key, value)) if is_duration(value) => format!("{key}=<t>"),
        None if is_duration(token) => "<t>".to_string(),
        _ => token.to_string(),
    };
    text.lines()
        .map(|line| line.split_whitespace().map(mask).collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn masked(frame: Frame) -> Frame {
    match frame {
        Frame::Ok(payload) => Frame::Ok(mask_durations(&payload)),
        err => err,
    }
}

/// Feeds `script` to a fresh session line by line, as `serve_connection`
/// does, and collects the frames it answers.
fn session_frames(service: Arc<Service>, script: &str) -> Vec<Frame> {
    let mut session = Session::new(service);
    let mut frames = Vec::new();
    for line in script.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match session.answer(line) {
            ControlFlow::Continue(frame) => frames.push(frame),
            ControlFlow::Break(last) => {
                frames.extend(last);
                break;
            }
        }
    }
    frames
}

fn wire_frames(service: &Arc<Service>, script: &str) -> Vec<Frame> {
    let mut out = Vec::new();
    serve_connection(service, &mut BufReader::new(script.as_bytes()), &mut out).unwrap();
    let mut reader = BufReader::new(&out[..]);
    let mut frames = Vec::new();
    while let Ok(frame) = read_response(&mut reader) {
        frames.push(frame);
    }
    frames
}

#[test]
fn session_answers_what_serve_connection_writes() {
    let file = tiny_file("transcript");
    let script = format!(
        "\
.open tiny {file}
.open tiny
{PEOPLE}
.use main
.use nowhere
.use
.use tiny
{NOTES}
.insert auction.xml 32 <note>one two</note>
.insert auction.xml x <note/>
.insert auction.xml 32
{NOTES}
.settext auction.xml 96 Bea
.settext auction.xml
{PEOPLE}
.delete auction.xml 96
.delete auction.xml 99999
.delete auction.xml
.explain {PEOPLE}
.explain
.explain NOT A QUERY
.reload tiny
.reload a b
.drop tiny
.use main

.drop tiny
.open other {file}
.drop main
.drop
.catalog
.bogus
{PEOPLE}
.metrics
.quit
{PEOPLE}
",
        file = file.display()
    );
    let direct: Vec<Frame> =
        session_frames(small_service(), &script).into_iter().map(masked).collect();
    let wire: Vec<Frame> = wire_frames(&small_service(), &script).into_iter().map(masked).collect();
    std::fs::remove_file(&file).ok();
    assert_eq!(direct.len(), wire.len(), "{direct:#?}\nvs\n{wire:#?}");
    for (i, (d, w)) in direct.iter().zip(&wire).enumerate() {
        assert_eq!(d, w, "frame {i} differs");
    }
    // Every line up to `.quit` answers one frame, and `.quit` ends the
    // session: the query after it is never answered.
    let answered = script.lines().take_while(|l| *l != ".quit").filter(|l| !l.is_empty()).count();
    assert_eq!(direct.len(), answered);
    let text = |i: usize| match &direct[i] {
        Frame::Ok(m) | Frame::Err(m) => m.as_str(),
    };
    assert!(text(0).starts_with("opened tiny: epoch 0"), "{}", text(0));
    assert!(text(8).starts_with("updated tiny: epoch 1, +1/-0 node(s)"), "{}", text(8));
    assert_eq!(text(11), "<note>one two</note>");
    assert_eq!(text(14), "<name>Bea</name>");
    assert!(text(18).contains("== footprint =="), "{}", text(18));
    assert!(text(21).starts_with("reloaded tiny: epoch 4"), "{}", text(21));
    assert!(matches!(&direct[23], Frame::Err(m) if m.contains("current database")));
    assert!(text(25).starts_with("dropped tiny:"), "{}", text(25));
    assert!(matches!(&direct[27], Frame::Err(m) if m.contains("default database")));
    assert!(text(29).contains("catalog: 2 database(s)"), "{}", text(29));
    assert!(text(32).contains("db tiny: 3 update(s)"), "{}", text(32));
}

/// The `OK` payload `session` answers for `line`.
fn ask(session: &mut Session, line: &str) -> String {
    match session.answer(line) {
        ControlFlow::Continue(Frame::Ok(payload)) => payload,
        other => panic!("{line}: {other:?}"),
    }
}

#[test]
fn sessions_sharing_a_service_see_each_others_commits() {
    let svc = small_service();
    let mut writer = Session::new(Arc::clone(&svc));
    let mut reader = Session::new(Arc::clone(&svc));
    // Warm the shared plan cache through the reader's session.
    let people = ask(&mut reader, PEOPLE);
    assert_eq!(ask(&mut reader, NOTES), "");
    let site = svc.database().nodes_with_tag("site")[0].pre;
    let reply = ask(&mut writer, &format!(".insert auction.xml {site} <note>shared</note>"));
    assert!(reply.starts_with("updated main: epoch 1"), "{reply}");
    // The person plan never reads `note`, so the commit carries it.
    let carried: u64 = reply
        .split(" plan(s) and ")
        .next()
        .and_then(|head| head.rsplit(", ").next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no carried-plan count in {reply:?}"));
    assert!(carried >= 1, "{reply}");
    // The reader's next queries answer from the new epoch, byte-equal to
    // the single-threaded reference on that snapshot.
    let snapshot = svc.entry("main").unwrap();
    assert_eq!(snapshot.epoch(), 1);
    let reference = |query| baselines::run(baselines::Engine::Tlc, query, snapshot.database());
    assert_eq!(ask(&mut reader, NOTES), "<note>shared</note>");
    assert_eq!(reference(NOTES).unwrap(), "<note>shared</note>");
    assert_eq!(ask(&mut reader, PEOPLE), reference(PEOPLE).unwrap());
    assert_eq!(ask(&mut reader, PEOPLE), people);
}
