//! Compatibility stub of the removed register-IR backend. Plans execute
//! on the tree walker ([`crate::exec`]) only; no [`Program`] can exist, so
//! callers written against the old two-backend API compile and always take
//! their walker branch.

use crate::error::Result;
use crate::exec::ExecCtx;
use crate::tree::ResultTree;
use xmldb::Database;

/// A lowered program. Uninhabited: nothing lowers any more.
#[derive(Debug)]
pub enum Program {}

/// Runs a lowered program. Unreachable, as no [`Program`] value exists.
pub fn run(_db: &Database, program: &Program, _ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    match *program {}
}
