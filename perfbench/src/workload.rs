//! The three traffic mixes and their seeded request streams.
//!
//! Every stream is a pure function of the seed (and, for writes, of the
//! store the earlier writes produced), so two runs with one seed send the
//! same bytes in the same order on every single-client workload.

use service::{Service, UpdateOp};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// The document every generated database carries.
pub const DOC: &str = "auction.xml";

/// Which traffic a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Skewed repeats of the 23 Figure 15 queries.
    HotMix,
    /// Literal-bearing templates with fresh literals on every request.
    AdhocLarge,
    /// The skewed read mix with writes interleaved.
    RwMix,
}

/// One workload's fixed shape.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// XMark scale factor of the served database.
    pub factor: f64,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Writes per round of 115 reads in the timed stream.
    pub writes_per_round: usize,
    /// Requests in the deterministic prefix the layer counters cover.
    pub prefix: usize,
    /// Commits sent after set-up to measure write latency on workloads
    /// whose timed stream carries no writes.
    pub probe_writes: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "hot_mix",
        kind: Kind::HotMix,
        factor: 0.005,
        clients: 2,
        writes_per_round: 0,
        prefix: 2000,
        probe_writes: 2000,
    },
    Spec {
        name: "adhoc_large",
        kind: Kind::AdhocLarge,
        factor: 0.02,
        clients: 1,
        writes_per_round: 0,
        prefix: 200,
        probe_writes: 1200,
    },
    Spec {
        name: "rw_mix",
        kind: Kind::RwMix,
        factor: 0.005,
        clients: 1,
        writes_per_round: 29,
        prefix: 1000,
        probe_writes: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One request.
#[derive(Debug, Clone)]
pub enum Op {
    /// A Figure 15 query, by its index in [`queries::all_queries`].
    Suite(usize),
    /// A one-off instance (already a single line) of the template with this
    /// index in the ad hoc table.
    Adhoc(usize, String),
    /// An update command.
    Write(UpdateOp),
}

impl Op {
    /// The request line sent over the wire (without the newline).
    pub fn line(&self, suite: &[String]) -> String {
        match self {
            Op::Suite(i) => suite[*i].clone(),
            Op::Adhoc(_, text) => text.clone(),
            Op::Write(UpdateOp::Insert { doc, parent, xml }) => {
                format!(".insert {doc} {parent} {xml}")
            }
            Op::Write(UpdateOp::SetText { doc, pre, text }) => {
                format!(".settext {doc} {pre} {text}")
            }
            Op::Write(UpdateOp::Delete { doc, pre }) => format!(".delete {doc} {pre}"),
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(_))
    }

    /// Requests of one class cost about the same: one suite query, one ad
    /// hoc template, or any write.
    pub fn class(&self) -> usize {
        match self {
            Op::Suite(i) => *i,
            Op::Adhoc(t, _) => 1000 + t,
            Op::Write(_) => usize::MAX,
        }
    }
}

/// The Figure 15 queries as single protocol lines.
pub fn suite_lines() -> Vec<String> {
    queries::all_queries().iter().map(|q| one_line(q.text)).collect()
}

fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Suite indices of x15, x16, x17 and x10a, which get 80% of the reads.
const HOT_SET: [usize; 4] = [14, 15, 16, 22];

/// Draws from a fixed multiset in seeded, shuffled rounds: every round
/// holds the mix's exact proportions and the seed only changes the order,
/// so the seed moves which requests come when, not how many of each.
pub struct Deck<T> {
    cards: Vec<T>,
    dealt: usize,
    rng: StdRng,
}

impl<T: Copy> Deck<T> {
    pub fn new(cards: Vec<T>, rng: StdRng) -> Deck<T> {
        let dealt = cards.len();
        Deck { cards, dealt, rng }
    }

    pub fn draw(&mut self) -> T {
        if self.dealt == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.cards.swap(i, j);
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// The skewed read mix in rounds of 115: each hot query 23 times (80%),
/// then every suite query once.
pub fn hot_deck(rng: StdRng) -> Deck<usize> {
    let n = queries::all_queries().len();
    let mut cards: Vec<usize> = HOT_SET.iter().flat_map(|&q| [q; 23]).collect();
    cards.extend(0..n);
    Deck::new(cards, rng)
}

/// What a write tries to do: 45% insert, 35% settext, 20% delete (settext
/// and delete become inserts while no note exists yet).
#[derive(Debug, Clone, Copy)]
enum WriteKind {
    Insert,
    SetText,
    Delete,
}

fn write_deck(rng: StdRng) -> Deck<WriteKind> {
    let cards =
        [[WriteKind::Insert; 9].as_slice(), &[WriteKind::SetText; 7], &[WriteKind::Delete; 4]];
    Deck::new(cards.concat(), rng)
}

/// Per-stream RNG: one base seed, decorrelated per stream.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A client's request source.
pub enum Stream {
    /// A fixed list, sent once.
    List(VecDeque<Op>),
    /// The skewed read mix.
    Hot(Deck<usize>),
    /// Fresh template instances.
    Adhoc(Adhoc),
    /// The skewed read mix with writes. Write targets are drawn from the
    /// service's current snapshot, which one client alone determines.
    Rw(Rw),
}

impl Stream {
    /// The next request, or `None` when a list is exhausted.
    pub fn next(&mut self) -> Option<Op> {
        Some(match self {
            Stream::List(ops) => return ops.pop_front(),
            Stream::Hot(deck) => Op::Suite(deck.draw()),
            Stream::Adhoc(gen) => gen.next(),
            Stream::Rw(rw) => rw.next(),
        })
    }
}

pub struct Rw {
    svc: Arc<Service>,
    mix: Deck<bool>,
    reads: Deck<usize>,
    kinds: Deck<WriteKind>,
    rng: StdRng,
    n: u64,
}

impl Rw {
    /// Rounds of `reads` reads and `writes` writes.
    pub fn new(seed: u64, stream: u64, svc: Arc<Service>, reads: usize, writes: usize) -> Rw {
        let rng = |salt: u64| stream_rng(seed, stream.wrapping_mul(4).wrapping_add(salt));
        Rw {
            svc,
            mix: Deck::new([vec![true; writes], vec![false; reads]].concat(), rng(0)),
            reads: hot_deck(rng(1)),
            kinds: write_deck(rng(2)),
            rng: rng(3),
            n: 0,
        }
    }

    fn next(&mut self) -> Op {
        self.n += 1;
        if self.mix.draw() {
            Op::Write(next_write(&self.svc.database(), &mut self.rng, self.kinds.draw(), self.n))
        } else {
            Op::Suite(self.reads.draw())
        }
    }
}

fn pick(db: &Database, rng: &mut StdRng, tag: &str) -> Option<u32> {
    let nodes = db.nodes_with_tag(tag);
    (!nodes.is_empty()).then(|| nodes[rng.random_range(0..nodes.len())].pre)
}

/// Elements inserted notes hang under.
const PARENTS: [&str; 3] = ["person", "item", "bidder"];

/// Writes stay inside a `<note>` namespace, as in `experiments rw`:
/// inserts hang a note under a person, item or bidder, settext and delete
/// target an earlier note, so the base document is never consumed.
fn next_write(db: &Database, rng: &mut StdRng, kind: WriteKind, n: u64) -> UpdateOp {
    if !matches!(kind, WriteKind::Insert) {
        if let Some(pre) = pick(db, rng, "note") {
            return match kind {
                WriteKind::SetText => {
                    UpdateOp::SetText { doc: DOC.into(), pre, text: format!("note v{n}") }
                }
                _ => UpdateOp::Delete { doc: DOC.into(), pre },
            };
        }
    }
    // Notes under a bidder show up in the answers of x3, Q1 and Q2, which
    // return bidder subtrees, so a read served from a stale snapshot fails
    // its check.
    let tag = PARENTS[rng.random_range(0..PARENTS.len())];
    let parent = pick(db, rng, tag)
        .or_else(|| pick(db, rng, "person"))
        .unwrap_or_else(|| db.nodes_with_tag("site")[0].pre);
    let xml = if n.is_multiple_of(2) {
        format!("<note>rw payload {n}</note>")
    } else {
        format!("<note seq=\"{n}\">rw payload {n}</note>")
    };
    UpdateOp::Insert { doc: DOC.into(), parent, xml }
}

/// Strata each numeric literal's range is cut into.
const STRATA: u32 = 16;

/// How a template literal is drawn.
#[derive(Debug, Clone, Copy)]
enum Lit {
    /// A `"personN"` id; about half name no existing person.
    Person,
    /// A decimal with three fraction digits in `[lo, hi)`, from each
    /// sixteenth of the range in turn (in shuffled rounds).
    Num(u32, u32),
    /// A substring of a generator word, for `contains`.
    Word,
}

/// The literal-bearing templates: a suite or extended query, and each
/// literal in it (with its left context, so the match is unambiguous)
/// together with how its replacement is drawn.
const TEMPLATES: &[(&str, &[(&str, Lit)])] = &[
    ("x1", &[("= \"person0\"", Lit::Person)]),
    ("x3", &[("count($a/bidder) > 3", Lit::Num(0, 6))]),
    ("x4", &[("$o/initial > 299", Lit::Num(150, 300))]),
    ("x5", &[("count($o/bidder) > 5", Lit::Num(0, 8)), ("increase > 25", Lit::Num(0, 40))]),
    ("x10a", &[("= \"person3\"", Lit::Person)]),
    ("x12", &[("@income > 65000", Lit::Num(20_000, 110_000))]),
    ("x14", &[("\"gold\"", Lit::Word)]),
    ("x18", &[("$o/initial > 10", Lit::Num(0, 150))]),
    ("Q1", &[("count($o/bidder) > 5", Lit::Num(0, 8)), ("$p/age > 25", Lit::Num(18, 60))]),
    (
        "Q2",
        &[
            ("count($o/bidder) > 5", Lit::Num(0, 8)),
            ("$p/age > 25", Lit::Num(18, 60)),
            ("$i > 2", Lit::Num(0, 4)),
        ],
    ),
    ("e1-or", &[("= \"person0\"", Lit::Person), ("$p/age > 65", Lit::Num(18, 70))]),
    ("e2-some", &[("$i > 28", Lit::Num(0, 40))]),
    ("e4-forvar", &[("$b/increase > 28", Lit::Num(0, 40))]),
];

/// The `adhoc_large` generator: each request instantiates a template (in
/// shuffled rounds of all 13) with fresh literals, and no text is ever sent
/// twice, so no plan is ever reused.
pub struct Adhoc {
    rng: StdRng,
    order: Deck<usize>,
    /// Per template and hole: which sixteenth of a numeric literal's range
    /// comes next, so literal sizes are spread evenly too.
    strata: Vec<Vec<Deck<u32>>>,
    seen: HashSet<String>,
    persons: usize,
    /// Template text (one line) with its literal holes.
    templates: Vec<(String, &'static [(&'static str, Lit)])>,
}

impl Adhoc {
    pub fn new(seed: u64, db: &Database) -> Adhoc {
        let templates: Vec<_> = TEMPLATES
            .iter()
            .map(|&(name, holes)| {
                let spec = queries::all_queries()
                    .iter()
                    .chain(queries::extended_queries())
                    .find(|q| q.name == name)
                    .unwrap_or_else(|| panic!("template {name} is not in the query suite"));
                let text = one_line(spec.text);
                for (needle, _) in holes {
                    assert!(text.contains(needle), "template {name} lacks `{needle}`");
                }
                (text, holes)
            })
            .collect();
        let mut salt = 0xADC2;
        let strata = templates
            .iter()
            .map(|(_, holes)| {
                holes
                    .iter()
                    .map(|_| {
                        salt += 1;
                        Deck::new((0..STRATA).collect(), stream_rng(seed, salt))
                    })
                    .collect()
            })
            .collect();
        Adhoc {
            order: Deck::new((0..templates.len()).collect(), stream_rng(seed, 0xADC1)),
            strata,
            rng: stream_rng(seed, 0xADC0),
            seen: HashSet::new(),
            persons: db.nodes_with_tag("person").len(),
            templates,
        }
    }

    /// One fresh instance of every template, in table order.
    pub fn warm(&mut self) -> VecDeque<Op> {
        (0..self.templates.len()).map(|t| Op::Adhoc(t, self.instance(t))).collect()
    }

    fn next(&mut self) -> Op {
        let t = self.order.draw();
        Op::Adhoc(t, self.instance(t))
    }

    fn instance(&mut self, t: usize) -> String {
        loop {
            let (text, holes) = &self.templates[t];
            let mut out = text.clone();
            for (h, &(needle, lit)) in holes.iter().enumerate() {
                let stratum = self.strata[t][h].draw();
                let literal = self.literal(lit, stratum);
                let keep = needle.rfind(' ').map_or("", |i| &needle[..=i]);
                out = out.replacen(needle, &format!("{keep}{literal}"), 1);
            }
            if self.seen.insert(out.clone()) {
                return out;
            }
        }
    }

    fn literal(&mut self, lit: Lit, stratum: u32) -> String {
        let rng = &mut self.rng;
        match lit {
            // The id space grows with the stream, so redraws always end.
            Lit::Person => {
                format!("\"person{}\"", rng.random_range(0..self.persons * 2 + self.seen.len()))
            }
            Lit::Num(lo, hi) => {
                // A point of the stratum's share of [lo, hi), in thousandths.
                let width = u64::from(hi - lo) * 1000;
                let from = width * u64::from(stratum) / u64::from(STRATA);
                let to = width * u64::from(stratum + 1) / u64::from(STRATA);
                let at = u64::from(lo) * 1000 + rng.random_range(from..to);
                format!("{}.{:03}", at / 1000, at % 1000)
            }
            Lit::Word => {
                let words = xmark::WORDS;
                let w = words[rng.random_range(0..words.len())];
                let w = if w.len() < 3 { xmark::KEYWORD } else { w };
                let start = rng.random_range(0..=w.len() - 3);
                let end = rng.random_range(start + 3..=w.len());
                if self.seen.len() > 4 * words.len() {
                    // Substrings run out on long streams; pairs do not.
                    let v = words[rng.random_range(0..words.len())];
                    format!("\"{} {v}\"", &w[start..end])
                } else {
                    format!("\"{}\"", &w[start..end])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(seed: u64, n: usize) -> Vec<usize> {
        let mut deck = hot_deck(stream_rng(seed, 0));
        (0..n).map(|_| deck.draw()).collect()
    }

    #[test]
    fn hot_rounds_keep_exact_proportions_and_follow_the_seed() {
        let round = hot(7, 115);
        let hot_share = round.iter().filter(|q| HOT_SET.contains(q)).count();
        assert_eq!(hot_share, 4 * 23 + 4, "each hot query 23 times plus its uniform turn");
        assert_eq!(hot(7, 500), hot(7, 500));
        assert_ne!(hot(7, 500), hot(8, 500));
    }

    #[test]
    fn adhoc_never_repeats_and_follows_the_seed() {
        let db = xmark::auction_database(0.001);
        let draw = |seed| {
            let mut gen = Adhoc::new(seed, &db);
            (0..600).map(|_| gen.next().line(&[])).collect::<Vec<_>>()
        };
        let a = draw(1);
        let distinct: HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
        let templates: Vec<String> =
            Adhoc::new(1, &db).templates.into_iter().map(|t| t.0).collect();
        assert!(a.iter().all(|q| !templates.contains(q) && xquery::parse(q).is_ok()));
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
    }
}
