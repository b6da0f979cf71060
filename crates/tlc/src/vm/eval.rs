//! The register evaluator: runs a verified [`Program`] against a snapshot.
//!
//! One flat loop over the instruction stream, a preallocated register
//! frame, and the same operator kernels ([`crate::ops`]) the tree walker
//! calls — in the same order, so temporary-id minting and therefore output
//! bytes are identical. The deadline is checked at every instruction
//! boundary and at every fused spine step (kernels additionally tick
//! through [`ExecCtx::tick`] exactly as they do under the walker).
//!
//! Register values move: an instruction that reads a register takes its
//! tree set out rather than cloning it ([`Instr::Store`] alone reads by
//! reference, since the stored set stays live for the next level of its
//! chain). The verifier's liveness pass guarantees every read finds a
//! value on every reachable path.

use super::{Instr, Program, RegId, SpineOp};
use crate::error::{Error, Result};
use crate::exec::ExecCtx;
use crate::ops;
use crate::tree::ResultTree;
use xmldb::Database;

fn take(regs: &mut [Option<Vec<ResultTree>>], r: RegId) -> Result<Vec<ResultTree>> {
    regs[r.0 as usize]
        .take()
        .ok_or_else(|| Error::Unsupported(format!("vm: read of empty register {r}")))
}

fn peek(regs: &[Option<Vec<ResultTree>>], r: RegId) -> Result<&[ResultTree]> {
    regs[r.0 as usize]
        .as_deref()
        .ok_or_else(|| Error::Unsupported(format!("vm: read of empty register {r}")))
}

/// Executes `prog` under a caller-supplied context — the VM counterpart of
/// [`crate::execute_with_ctx`]. Deadline, match cache and counters all live
/// on `ctx`; cache probe/store sequencing (and hence
/// [`crate::ExecStats::match_cache_hits`] / misses and the resulting cache
/// content) matches the tree walker's exactly.
pub fn run(db: &Database, prog: &Program, ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    let instrs = prog.instrs();
    let mut regs: Vec<Option<Vec<ResultTree>>> = vec![None; prog.reg_count()];
    let mut ip = 0usize;
    while ip < instrs.len() {
        ctx.check_deadline()?;
        match &instrs[ip] {
            Instr::Probe { key, dst, target } => {
                if let Some(cache) = ctx.cache.clone() {
                    if let Some(hit) = cache.get(prog.key(*key)) {
                        ctx.stats.match_cache_hits += 1;
                        // Clone the trees out of the shared entry (mirrors
                        // the walker's hit path, so bytes and counters stay
                        // identical).
                        regs[dst.0 as usize] = Some(hit.as_ref().clone());
                        ip = *target as usize;
                        continue;
                    }
                }
            }
            Instr::Store { key, src } => {
                if let Some(cache) = ctx.cache.clone() {
                    let trees = peek(&regs, *src)?;
                    ctx.stats.match_cache_misses += 1;
                    cache.put(prog.key(*key), trees);
                }
            }
            Instr::Spine { input, steps, dst } => {
                let mut rolling = match input {
                    Some(r) => take(&mut regs, *r)?,
                    None => Vec::new(),
                };
                for step in steps {
                    ctx.check_deadline()?;
                    rolling = match step {
                        SpineOp::Match(apt) | SpineOp::Extend(apt) => {
                            ops::select(db, apt, rolling, ctx)?
                        }
                        SpineOp::Filter { lcl, pred, mode } => {
                            ops::filter(db, rolling, *lcl, pred, *mode, &mut ctx.stats)
                        }
                        SpineOp::Project { keep } => ops::project(rolling, keep, &mut ctx.stats),
                        SpineOp::DupElim { on, kind } => {
                            ops::duplicate_elimination(db, rolling, on, *kind, &mut ctx.stats)?
                        }
                    };
                }
                regs[dst.0 as usize] = Some(rolling);
            }
            Instr::Join { left, right, spec, dst } => {
                let l = take(&mut regs, *left)?;
                let r = take(&mut regs, *right)?;
                let out = ops::join(db, l, r, spec, &mut ctx.tmp, &mut ctx.stats)?;
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Aggregate { input, func, over, new_lcl, dst } => {
                let inputs = take(&mut regs, *input)?;
                let out = ops::aggregate(
                    db,
                    inputs,
                    *func,
                    *over,
                    *new_lcl,
                    &mut ctx.tmp,
                    &mut ctx.stats,
                );
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Construct { input, spec, dst } => {
                let inputs = take(&mut regs, *input)?;
                let out = ops::construct(db, inputs, spec, &mut ctx.tmp, &mut ctx.stats)?;
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Sort { input, keys, dst } => {
                let inputs = take(&mut regs, *input)?;
                regs[dst.0 as usize] = Some(ops::sort_by_keys(db, inputs, keys));
            }
            Instr::Flatten { input, parent, child, dst } => {
                let inputs = take(&mut regs, *input)?;
                let out = ops::flatten(inputs, *parent, *child, &mut ctx.stats)?;
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Shadow { input, parent, child, dst } => {
                let inputs = take(&mut regs, *input)?;
                let out = ops::shadow(inputs, *parent, *child, &mut ctx.stats)?;
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Illuminate { input, lcl, dst } => {
                let inputs = take(&mut regs, *input)?;
                regs[dst.0 as usize] = Some(ops::illuminate(inputs, *lcl, &mut ctx.stats));
            }
            Instr::GroupBy { input, by, collect, dst } => {
                let inputs = take(&mut regs, *input)?;
                let out = ops::grouping_procedure(db, inputs, *by, *collect, &mut ctx.stats)?;
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Materialize { input, lcls, dst } => {
                let inputs = take(&mut regs, *input)?;
                regs[dst.0 as usize] = Some(ops::materialize(db, inputs, lcls, &mut ctx.stats));
            }
            Instr::Union { inputs, dedup_on, dst } => {
                let mut branches = Vec::with_capacity(inputs.len());
                for r in inputs {
                    branches.push(take(&mut regs, *r)?);
                }
                let out = ops::union_all(db, branches, dedup_on, &mut ctx.stats)?;
                regs[dst.0 as usize] = Some(out);
            }
            Instr::Return { src } => {
                return take(&mut regs, *src);
            }
        }
        ip += 1;
    }
    Err(Error::Unsupported("vm: program fell off the end without Return".to_string()))
}
