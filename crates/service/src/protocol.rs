//! The line protocol `tlc-serve` speaks, shared with `tlc-shell`.
//!
//! Requests are single lines:
//!
//! * a query — any line not starting with `.`, executed against the
//!   session's current database;
//! * `.open <name> <file>` — load a TLCX snapshot or XML file into the
//!   catalog under `name` (hot-swapping if the name exists) and switch
//!   this session to it;
//! * `.use <name>` — switch this session to a registered database;
//! * `.reload [<name>]` — re-read a database's source file and hot-swap
//!   the result in (defaults to the session's current database);
//! * `.drop <name>` — unregister a database and purge its cached plans
//!   and match entries; the session's current database (and the default
//!   database) cannot be dropped;
//! * `.insert <doc> <parent-ord> <xml-fragment>` — commit an in-place
//!   insert against the session's current database: the fragment becomes
//!   the last child of the node at `parent-ord` in document `doc`
//!   (see [`crate::Service::apply_update`]). The fragment is the raw rest
//!   of the line and may contain spaces;
//! * `.delete <doc> <ord>` — delete the subtree rooted at `ord`;
//! * `.settext <doc> <ord> [<text>]` — replace the node's text content
//!   (the raw rest of the line; empty clears it);
//! * `.explain <query>` — compile the query (raw rest of the line)
//!   against the session's current database without executing it and
//!   report the static-analysis view: the typed plan, its read-effect
//!   footprint, what class-liveness pruning removes, and lint warnings
//!   (see [`crate::explain`]);
//! * `.catalog` — list the registered databases;
//! * `.metrics` — the service's text metrics report;
//! * `.quit` — close this connection.
//!
//! The *current database* is per-connection state: two clients of one
//! server can sit on different databases, and `.use` in one session never
//! disturbs another. Catalog mutations (`.open`, `.reload`) are global —
//! every session sees the new snapshot on its next query.
//!
//! Responses are length-prefixed frames so payloads may span lines:
//!
//! ```text
//! OK <byte-len>\n<payload>\n        e.g.  OK 17\n<name>Ann</name>\n
//! ERR <message>\n                   message is single-line
//! ```
//!
//! Request lines are bounded by [`MAX_REQUEST_LINE`]: a longer line is
//! discarded up to its newline and answered with
//! `ERR request line exceeds N bytes`, and the connection stays open.
//!
//! [`Session`] is the one interpreter of these requests: it answers a
//! request line with a [`Frame`]. [`serve_connection`] runs one session
//! over any reader/writer pair (stdin/stdout or a TCP stream), and
//! `tlc-shell` drives one against its in-process service for the catalog
//! and update commands. [`read_response`] is the client-side frame parser.

use crate::{Service, ServiceError, UpdateOp};
use std::io::{self, BufRead, Read, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;

/// Longest request line [`serve_connection`] accepts, in bytes, newline
/// excluded. The bound keeps one client from growing a connection's line
/// buffer without limit.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// What [`read_request_line`] found.
enum LineRead {
    /// End of input before any byte of a new line.
    Eof,
    /// A line (without its newline) is in the buffer.
    Line,
    /// The line exceeded [`MAX_REQUEST_LINE`]; it was consumed and dropped.
    TooLong,
}

/// Reads one request line into `line` without ever holding more than
/// [`MAX_REQUEST_LINE`] bytes of it: an over-long line is consumed through
/// its newline (or end of input) and reported as [`LineRead::TooLong`].
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<LineRead> {
    line.clear();
    let mut too_long = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(match (too_long, line.is_empty()) {
                (true, _) => LineRead::TooLong,
                (false, true) => LineRead::Eof,
                (false, false) => LineRead::Line,
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let chunk = &buf[..newline.unwrap_or(buf.len())];
        if !too_long {
            if line.len() + chunk.len() > MAX_REQUEST_LINE {
                too_long = true;
                line.clear();
            } else {
                line.extend_from_slice(chunk);
            }
        }
        let used = newline.map_or(buf.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            return Ok(if too_long { LineRead::TooLong } else { LineRead::Line });
        }
    }
}

/// Splits up to `n` leading whitespace-delimited words off `s`, returning
/// them plus the raw remainder (leading whitespace trimmed). The update
/// commands use this because their final argument — an XML fragment or
/// text content — may itself contain spaces that tokenizing would destroy.
fn split_words(s: &str, n: usize) -> (Vec<&str>, &str) {
    let mut rest = s.trim_start();
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        if rest.is_empty() {
            break;
        }
        match rest.find(char::is_whitespace) {
            Some(i) => {
                words.push(&rest[..i]);
                rest = rest[i..].trim_start();
            }
            None => {
                words.push(rest);
                rest = "";
            }
        }
    }
    (words, rest)
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `OK` with the payload bytes (result text or metrics report).
    Ok(String),
    /// `ERR` with the message.
    Err(String),
}

/// Writes an `OK` frame.
pub fn write_ok(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write!(w, "OK {}\n{payload}\n", payload.len())?;
    w.flush()
}

/// Per-connection reusable response buffer: the `OK <len>\n<payload>\n`
/// envelope is assembled here and handed to the writer as one
/// `write_all`, and the buffer's capacity is recycled across replies
/// instead of re-formatting each frame into fresh allocations. One
/// instance lives for the whole [`Session`], so a connection's largest
/// reply sizes the buffer once.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: String,
}

impl FrameBuf {
    /// Empty buffer; grows to the connection's largest reply and stays.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Writes an `OK` frame through the reusable buffer.
    pub fn write_ok(&mut self, w: &mut impl Write, payload: &str) -> io::Result<()> {
        use std::fmt::Write as _;
        self.buf.clear();
        let _ = writeln!(self.buf, "OK {}", payload.len());
        self.buf.push_str(payload);
        self.buf.push('\n');
        w.write_all(self.buf.as_bytes())?;
        w.flush()
    }

    /// Bytes currently retained for reuse.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Writes an `ERR` frame; newlines in the message are flattened to keep the
/// frame single-line.
pub fn write_err(w: &mut impl Write, message: &str) -> io::Result<()> {
    let flat: String =
        message.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect();
    writeln!(w, "ERR {flat}")?;
    w.flush()
}

/// Reads one response frame from the server.
///
/// The `OK <len>` header is the peer's claim, not a promise: the body is
/// read through `take(len + 1)` into a buffer preallocated for at most
/// [`MAX_REQUEST_LINE`] bytes, so a huge `len` costs memory only as bytes
/// actually arrive. A `len` that overflows, a short body
/// ([`io::ErrorKind::UnexpectedEof`]) and a body without its trailing
/// newline ([`io::ErrorKind::InvalidData`]) are typed errors.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Frame> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let header = header.trim_end_matches(['\n', '\r']);
    if let Some(rest) = header.strip_prefix("OK ") {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what);
        let len: usize = rest.parse().map_err(|_| bad("bad OK length"))?;
        let framed = len.checked_add(1).ok_or_else(|| bad("OK length overflows"))?; // + newline
        let mut payload = Vec::with_capacity(len.min(MAX_REQUEST_LINE) + 1);
        r.by_ref().take(framed as u64).read_to_end(&mut payload)?;
        if payload.len() < framed {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "response body cut short"));
        }
        if payload.pop() != Some(b'\n') {
            return Err(bad("response body not newline-terminated"));
        }
        String::from_utf8(payload)
            .map(Frame::Ok)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "payload not UTF-8"))
    } else if let Some(msg) = header.strip_prefix("ERR ") {
        Ok(Frame::Err(msg.to_string()))
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad frame header: {header}")))
    }
}

/// An `ERR` frame; newlines in the message are flattened, as on the wire.
fn err(message: impl std::fmt::Display) -> Frame {
    let flat = message.to_string().replace(['\n', '\r'], " ");
    Frame::Err(flat)
}

/// One protocol session: the request handler behind [`serve_connection`]
/// and `tlc-shell`'s prompt. It holds the session's current database and
/// its reusable [`FrameBuf`], and answers one request line at a time.
///
/// Every session starts on [`crate::catalog::DEFAULT_DB`]; `.open` and
/// `.use` move this session only. Sessions sharing one [`Service`] share
/// its catalog and caches, so each sees the others' commits on its next
/// request.
pub struct Session {
    service: Arc<Service>,
    current: String,
    frame: FrameBuf,
    /// Queries answered so far (dot-commands do not count).
    served: u64,
}

impl Session {
    /// A session on `service`, starting on its default database.
    pub fn new(service: Arc<Service>) -> Session {
        let current = service.default_database().to_string();
        Session { service, current, frame: FrameBuf::new(), served: 0 }
    }

    /// The service this session drives.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The catalog name of the session's current database.
    pub fn current(&self) -> &str {
        &self.current
    }

    /// Answers one trimmed, non-empty request line. `Break` ends the
    /// session: with no frame on `.quit`, with the error frame when the
    /// service is shutting down.
    pub fn answer(&mut self, request: &str) -> ControlFlow<Option<Frame>, Frame> {
        let frame = match request {
            ".quit" => return ControlFlow::Break(None),
            ".metrics" => Frame::Ok(self.service.metrics_report()),
            ".catalog" => Frame::Ok(self.service.catalog_report()),
            dot if dot.starts_with('.') => self.command(dot),
            query => {
                self.served += 1;
                match self.service.execute_on(&self.current, query) {
                    Ok(resp) => Frame::Ok(resp.output),
                    Err(e @ ServiceError::ShuttingDown) => return ControlFlow::Break(Some(err(e))),
                    Err(e) => err(e),
                }
            }
        };
        ControlFlow::Continue(frame)
    }

    /// Writes `frame` in wire format, `OK` frames through the session's
    /// reusable buffer.
    fn write(&mut self, w: &mut impl Write, frame: &Frame) -> io::Result<()> {
        match frame {
            Frame::Ok(payload) => self.frame.write_ok(w, payload),
            Frame::Err(message) => write_err(w, message),
        }
    }

    /// Answers a dot-command other than `.quit`, `.metrics` and `.catalog`.
    fn command(&mut self, dot: &str) -> Frame {
        let mut words = dot.split_whitespace();
        let cmd = words.next().expect("non-empty dot line");
        let args: Vec<&str> = words.collect();
        let service = &self.service;
        match (cmd, args.as_slice()) {
            (".open", [name, file]) => match service.open(name, Path::new(file)) {
                Ok(entry) => {
                    self.current = name.to_string();
                    let db = entry.database();
                    Frame::Ok(format!(
                        "opened {name}: epoch {}, {} document(s), {} nodes",
                        entry.epoch(),
                        db.document_count(),
                        db.node_count()
                    ))
                }
                Err(e) => err(e),
            },
            (".open", _) => err("usage: .open <name> <file>"),
            (".use", [name]) => {
                if service.has_database(name) {
                    self.current = name.to_string();
                    Frame::Ok(format!("using {name}"))
                } else {
                    err(format!("unknown database: {name}"))
                }
            }
            (".use", _) => err("usage: .use <name>"),
            (".reload", rest @ ([] | [_])) => {
                let name = rest.first().copied().unwrap_or(&self.current);
                match service.reload(name) {
                    Ok((entry, invalidated)) => Frame::Ok(format!(
                        "reloaded {name}: epoch {}, {invalidated} plan(s) invalidated",
                        entry.epoch()
                    )),
                    Err(e) => err(e),
                }
            }
            (".reload", _) => err("usage: .reload [<name>]"),
            (".drop", [name]) if *name == self.current => err(format!(
                "cannot drop the session's current database {name:?}; .use another first"
            )),
            (".drop", [name]) => match service.drop_database(name) {
                Ok((plans, entries)) => Frame::Ok(format!(
                    "dropped {name}: {plans} plan(s), {entries} match entr(ies) purged"
                )),
                Err(e) => err(e),
            },
            (".drop", _) => err("usage: .drop <name>"),
            (".insert", _) => match split_words(&dot[cmd.len()..], 2) {
                (head, xml) if head.len() == 2 && !xml.is_empty() => match head[1].parse() {
                    Ok(parent) => self.update(&UpdateOp::Insert {
                        doc: head[0].to_string(),
                        parent,
                        xml: xml.to_string(),
                    }),
                    Err(_) => err("parent must be a pre ordinal (u32)"),
                },
                _ => err("usage: .insert <doc> <parent-ord> <xml-fragment>"),
            },
            (".delete", [doc, ord]) => match ord.parse() {
                Ok(pre) => self.update(&UpdateOp::Delete { doc: doc.to_string(), pre }),
                Err(_) => err("ord must be a pre ordinal (u32)"),
            },
            (".delete", _) => err("usage: .delete <doc> <ord>"),
            (".settext", _) => match split_words(&dot[cmd.len()..], 2) {
                (head, text) if head.len() == 2 => match head[1].parse() {
                    Ok(pre) => self.update(&UpdateOp::SetText {
                        doc: head[0].to_string(),
                        pre,
                        text: text.to_string(),
                    }),
                    Err(_) => err("ord must be a pre ordinal (u32)"),
                },
                _ => err("usage: .settext <doc> <ord> [<text>]"),
            },
            (".explain", _) => match dot[cmd.len()..].trim_start() {
                "" => err("usage: .explain <query>"),
                query => match service.explain(&self.current, query) {
                    Ok(report) => Frame::Ok(report),
                    Err(e) => err(e),
                },
            },
            _ => err(format!("unknown command: {dot}")),
        }
    }

    /// Commits one update against the current database and reports it.
    fn update(&self, op: &UpdateOp) -> Frame {
        let db = &self.current;
        match self.service.apply_update(db, op) {
            Ok(o) => {
                let renumbered = if o.summary.renumbered > 0 {
                    format!(", {} node(s) renumbered", o.summary.renumbered)
                } else {
                    String::new()
                };
                Frame::Ok(format!(
                    "updated {db}: epoch {}, +{}/-{} node(s){renumbered}, {} plan(s) and {} match entr(ies) carried",
                    o.entry.epoch(),
                    o.summary.nodes_added,
                    o.summary.nodes_removed,
                    o.plans_seeded,
                    o.matches_seeded
                ))
            }
            Err(e) => err(e),
        }
    }
}

/// Serves one connection: reads request lines until `.quit` or EOF and
/// answers each through one [`Session`], writing its frame. Returns the
/// number of queries served.
pub fn serve_connection(
    service: &Arc<Service>,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<u64> {
    let mut session = Session::new(Arc::clone(service));
    let mut raw = Vec::new();
    loop {
        match read_request_line(reader, &mut raw)? {
            LineRead::Eof => return Ok(session.served),
            LineRead::TooLong => {
                write_err(writer, &format!("request line exceeds {MAX_REQUEST_LINE} bytes"))?;
                continue;
            }
            LineRead::Line => {}
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            write_err(writer, "request line is not valid UTF-8")?;
            continue;
        };
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        match session.answer(request) {
            ControlFlow::Continue(frame) => session.write(writer, &frame)?,
            ControlFlow::Break(last) => {
                if let Some(frame) = last {
                    session.write(writer, &frame)?;
                }
                return Ok(session.served);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_ok(&mut buf, "<name>Ann</name>").unwrap();
        write_err(&mut buf, "multi\nline message").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("<name>Ann</name>".into()));
        assert_eq!(read_response(&mut r).unwrap(), Frame::Err("multi line message".into()));
    }

    #[test]
    fn frame_buf_matches_write_ok_and_reuses_capacity() {
        let mut plain = Vec::new();
        write_ok(&mut plain, "<a>1</a>").unwrap();
        write_ok(&mut plain, "x\ny").unwrap();
        let mut pooled = Vec::new();
        let mut frame = FrameBuf::new();
        frame.write_ok(&mut pooled, "<a>1</a>").unwrap();
        let cap = frame.capacity();
        assert!(cap > 0);
        frame.write_ok(&mut pooled, "x\ny").unwrap();
        // Byte-identical wire format, and the second (smaller) frame reused
        // the first frame's buffer instead of allocating.
        assert_eq!(plain, pooled);
        assert_eq!(frame.capacity(), cap);
        let mut r = BufReader::new(&pooled[..]);
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("<a>1</a>".into()));
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("x\ny".into()));
    }

    #[test]
    fn request_lines_are_bounded_across_buffer_refills() {
        // A tiny buffer capacity forces every line through several refills.
        let exact = "a".repeat(MAX_REQUEST_LINE);
        let long = "b".repeat(MAX_REQUEST_LINE + 1);
        let input = format!("{exact}\n{long}\nok\n{long}");
        let mut reader = BufReader::with_capacity(7, input.as_bytes());
        let mut line = Vec::new();
        let mut next = || {
            let kind = read_request_line(&mut reader, &mut line).unwrap();
            (kind, String::from_utf8(line.clone()).unwrap())
        };
        assert!(matches!(next(), (LineRead::Line, l) if l == exact), "the cap itself fits");
        assert!(matches!(next(), (LineRead::TooLong, _)));
        assert!(matches!(next(), (LineRead::Line, l) if l == "ok"), "the next line is intact");
        assert!(matches!(next(), (LineRead::TooLong, _)), "an over-long last line without newline");
        assert!(matches!(next(), (LineRead::Eof, _)));
    }

    #[test]
    fn ok_payload_may_contain_newlines() {
        let mut buf = Vec::new();
        write_ok(&mut buf, "a\nb\nc").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("a\nb\nc".into()));
    }

    #[test]
    fn serve_connection_speaks_the_protocol() {
        let db = Arc::new(xmark::auction_database(0.001));
        let svc = Arc::new(Service::new(db, ServiceConfig::default()));
        let script = concat!(
            "FOR $p IN document(\"auction.xml\")//person RETURN $p/name\n",
            "NOT A QUERY\n",
            ".metrics\n",
            ".bogus\n",
            ".quit\n",
            "never reached\n",
        );
        let mut reader = BufReader::new(script.as_bytes());
        let mut out = Vec::new();
        let served = serve_connection(&svc, &mut reader, &mut out).unwrap();
        assert_eq!(served, 2); // the query + the bad query; dot-commands don't count
        let mut r = BufReader::new(&out[..]);
        let direct = baselines::run(
            baselines::Engine::Tlc,
            "FOR $p IN document(\"auction.xml\")//person RETURN $p/name",
            &svc.database(),
        )
        .unwrap();
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok(direct));
        assert!(matches!(read_response(&mut r).unwrap(), Frame::Err(m) if m.contains("compile")));
        assert!(matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.contains("plan cache")));
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Err(m) if m.contains("unknown command"))
        );
    }

    #[test]
    fn session_commands_drive_the_catalog() {
        let db = Arc::new(xmark::auction_database(0.001));
        let svc = Arc::new(Service::new(db, ServiceConfig::default()));
        let dir = std::env::temp_dir();
        let file = dir.join(format!("tlc_proto_{}.xml", std::process::id()));
        std::fs::write(&file, "<site><person><name>Zoe</name></person></site>").unwrap();
        let q = "FOR $p IN document(\"auction.xml\")//person RETURN $p/name";
        let script = format!(
            ".open second {}\n{q}\n.use main\n.use nowhere\n.reload second\n.reload\n.catalog\n.open second\n.quit\n",
            file.display()
        );
        let mut reader = BufReader::new(script.as_bytes());
        let mut out = Vec::new();
        let served = serve_connection(&svc, &mut reader, &mut out).unwrap();
        assert_eq!(served, 1);
        let mut r = BufReader::new(&out[..]);
        // .open loads the file and switches the session.
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("opened second: epoch 0"))
        );
        // The query runs against `second`, not `main`.
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("<name>Zoe</name>".into()));
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("using main".into()));
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Err(m) if m.contains("unknown database"))
        );
        // Explicit reload of `second` bumps its epoch.
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("reloaded second: epoch 1"))
        );
        // Bare .reload targets the current db (`main`), which has no source.
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Err(m) if m.contains("nothing to reload"))
        );
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.contains("catalog: 2 database(s)"))
        );
        assert_eq!(read_response(&mut r).unwrap(), Frame::Err("usage: .open <name> <file>".into()));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn update_commands_mutate_the_current_database() {
        let db = Arc::new(xmark::auction_database(0.001));
        let svc = Arc::new(Service::new(db, ServiceConfig::default()));
        let people = svc.database().nodes_with_tag("person").to_vec();
        assert!(people.len() >= 2, "scale 0.001 must have at least two persons");
        // The first <name> in document order after person[0] is its child
        // (xmark uses <name> under categories and items too).
        let name = *svc
            .database()
            .nodes_with_tag("name")
            .iter()
            .find(|n| n.pre > people[0].pre)
            .expect("person has a name");
        let script = format!(
            concat!(
                ".insert auction.xml {} <memo>hello world</memo>\n",
                "FOR $m IN document(\"auction.xml\")//memo RETURN $m\n",
                ".settext auction.xml {} Renamed\n",
                ".delete auction.xml {}\n",
                "FOR $p IN document(\"auction.xml\")//person RETURN $p/name\n",
                ".delete auction.xml abc\n",
                ".insert auction.xml 1\n",
                ".settext auction.xml\n",
                ".quit\n",
            ),
            people[0].pre, name.pre, people[1].pre
        );
        let mut reader = BufReader::new(script.as_bytes());
        let mut out = Vec::new();
        serve_connection(&svc, &mut reader, &mut out).unwrap();
        let mut r = BufReader::new(&out[..]);
        // Insert commits epoch 1; the fragment keeps its inner space.
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("updated main: epoch 1"))
        );
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("<memo>hello world</memo>".into()));
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("updated main: epoch 2"))
        );
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("updated main: epoch 3"))
        );
        // The surviving person list reflects both the rename and the delete.
        match read_response(&mut r).unwrap() {
            Frame::Ok(m) => assert!(m.contains("<name>Renamed</name>"), "{m}"),
            other => panic!("expected name list, got {other:?}"),
        }
        assert_eq!(
            read_response(&mut r).unwrap(),
            Frame::Err("ord must be a pre ordinal (u32)".into())
        );
        assert_eq!(
            read_response(&mut r).unwrap(),
            Frame::Err("usage: .insert <doc> <parent-ord> <xml-fragment>".into())
        );
        assert_eq!(
            read_response(&mut r).unwrap(),
            Frame::Err("usage: .settext <doc> <ord> [<text>]".into())
        );
        // Three committed updates, each its own epoch.
        assert_eq!(svc.databases()[0].epoch, 3);
    }

    #[test]
    fn explain_command_reports_plan_and_lints() {
        let db = Arc::new(xmark::auction_database(0.001));
        let svc = Arc::new(Service::new(db, ServiceConfig::default()));
        let script = concat!(
            // absent tag on a required path → statically empty
            ".explain FOR $z IN document(\"auction.xml\")//zzz RETURN $z\n",
            // single-variable FOR → the translator's DupElim is a no-op
            ".explain FOR $s IN document(\"auction.xml\")/site RETURN $s\n",
            // $n is bound but never returned → dead Project column
            ".explain FOR $p IN document(\"auction.xml\")//person LET $n := $p/name RETURN <r>{$p/age}</r>\n",
            ".explain\n",
            ".explain NOT A QUERY\n",
            ".metrics\n",
            ".quit\n",
        );
        let mut reader = BufReader::new(script.as_bytes());
        let mut out = Vec::new();
        let served = serve_connection(&svc, &mut reader, &mut out).unwrap();
        assert_eq!(served, 0, ".explain compiles but never executes");
        let mut r = BufReader::new(&out[..]);
        match read_response(&mut r).unwrap() {
            Frame::Ok(m) => {
                assert!(m.contains("== plan"), "{m}");
                assert!(m.contains("== footprint =="), "{m}");
                assert!(m.contains("== liveness =="), "{m}");
                assert!(m.contains("== lints =="), "{m}");
                assert!(m.contains("warning[empty-select]"), "{m}");
                assert!(m.contains("statically empty"), "{m}");
            }
            other => panic!("expected explain report, got {other:?}"),
        }
        match read_response(&mut r).unwrap() {
            Frame::Ok(m) => {
                assert!(m.contains("warning[redundant-dupelim]"), "{m}");
                assert!(m.contains("DupElim(s) removed"), "{m}");
            }
            other => panic!("expected explain report, got {other:?}"),
        }
        match read_response(&mut r).unwrap() {
            Frame::Ok(m) => {
                assert!(m.contains("warning[dead-project-column]"), "{m}");
            }
            other => panic!("expected explain report, got {other:?}"),
        }
        assert_eq!(read_response(&mut r).unwrap(), Frame::Err("usage: .explain <query>".into()));
        assert!(matches!(read_response(&mut r).unwrap(), Frame::Err(m) if m.contains("compile")));
        // The analyses feed the per-db metrics counters.
        match read_response(&mut r).unwrap() {
            Frame::Ok(m) => assert!(m.contains("lint(s) raised"), "{m}"),
            other => panic!("expected metrics report, got {other:?}"),
        }
    }

    #[test]
    fn drop_command_guards_current_and_default_databases() {
        let db = Arc::new(xmark::auction_database(0.001));
        let svc = Arc::new(Service::new(db, ServiceConfig::default()));
        let dir = std::env::temp_dir();
        let file = dir.join(format!("tlc_proto_drop_{}.xml", std::process::id()));
        std::fs::write(&file, "<site><person><name>Zoe</name></person></site>").unwrap();
        let script = format!(
            ".open doomed {0}\n.drop doomed\n.use main\n.drop doomed\n.drop main\n.drop\n.quit\n",
            file.display()
        );
        let mut reader = BufReader::new(script.as_bytes());
        let mut out = Vec::new();
        serve_connection(&svc, &mut reader, &mut out).unwrap();
        let mut r = BufReader::new(&out[..]);
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("opened doomed"))
        );
        // .open switched the session to `doomed`, so dropping it is refused.
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Err(m) if m.contains("current database"))
        );
        assert_eq!(read_response(&mut r).unwrap(), Frame::Ok("using main".into()));
        // Off the session now: the drop succeeds and reports the purge.
        assert!(
            matches!(read_response(&mut r).unwrap(), Frame::Ok(m) if m.starts_with("dropped doomed"))
        );
        // `main` is both current and default; either guard refuses it.
        assert!(matches!(read_response(&mut r).unwrap(), Frame::Err(_)));
        assert_eq!(read_response(&mut r).unwrap(), Frame::Err("usage: .drop <name>".into()));
        assert!(!svc.has_database("doomed"));
        std::fs::remove_file(&file).ok();
    }
}
