#![warn(missing_docs)]

//! # xmldb — a TIMBER-like native XML store
//!
//! This crate is the storage substrate for the TLC reproduction. It mirrors
//! the architecture sketched in §5 of *"Tree Logical Classes for Efficient
//! Evaluation of XQuery"* (SIGMOD 2004):
//!
//! * **Interval-encoded node identifiers** satisfying the four properties of
//!   the paper's Figure 13: uniqueness, structural-relationship testing (for
//!   structural joins), absolute document order, and order-within-class for
//!   temporary nodes (see [`node::NodeId`] and [`node::TempId`]).
//! * **Pre-order arena documents** ([`document::Document`]): records in
//!   document order under sparse pre ords, so document order is free and
//!   ancestor/descendant testing is two integer comparisons. The arena is
//!   split into shared chunks, and the indexes into shared per-tag parts, so
//!   a cloned database shares storage with its original and a mutation
//!   copies only what it changes.
//! * **Tag-name and content-value indexes** ([`index`]): the paper's
//!   experiments "used an index on element tag name for all the queries" and
//!   "a value index on all queries that had a condition on content". There is
//!   deliberately no index on join values, matching the paper's setup.
//! * A small hand-written **XML parser and serializer** ([`parse`],
//!   [`serialize`]) since the reproduction builds everything from scratch.
//! * A **store invariant checker** ([`check`]): an O(n) verifier for the
//!   interval encoding, arena layout, and index completeness, run against
//!   generated and reloaded databases.
//!
//! Everything in the query engines (the TLC algebra as well as the TAX, GTP
//! and navigational baselines) sits on top of this one store, so measured
//! performance differences reflect algorithmic structure rather than storage
//! maturity.

pub mod check;
pub mod database;
pub mod document;
pub mod error;
pub mod index;
pub mod node;
pub mod parse;
pub mod persist;
pub mod serialize;
pub mod tag;
pub mod update;

pub use check::{check_database, check_document, CheckReport};
pub use database::{Database, NodeRef, Sharing};
pub use document::{Document, DocumentBuilder};
pub use error::{Error, Result};
pub use index::{TagIndex, ValueIndex};
pub use node::{AxisRel, DocId, NodeId, NodeKind, TempId};
pub use persist::{load_file, load_path, save_file};
pub use tag::{TagId, TagInterner};
pub use update::{delete_subtree, insert_subtree, set_text, UpdateSummary};
