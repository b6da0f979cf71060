//! Execution counters.
//!
//! Cheap counters threaded through matching and the operators; the ablation
//! benches and the redundancy discussion in EXPERIMENTS.md read them to show
//! *why* plans differ (e.g. how many pattern-match probes each algebra runs
//! for the same query — the paper's "redundant accesses" argument).

/// Counters accumulated during one plan execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Index probes performed by pattern matching (one per bound-node ×
    /// pattern-child candidate lookup).
    pub probes: u64,
    /// Candidate nodes individually inspected (axis/predicate checks).
    pub nodes_inspected: u64,
    /// Full APT matches executed (one per Select evaluation).
    pub pattern_matches: u64,
    /// Trees produced by all operators combined.
    pub trees_built: u64,
    /// Base subtrees materialized (copied) into intermediate results —
    /// TAX's "early materialization" cost shows up here.
    pub subtrees_materialized: u64,
    /// Value-join key comparisons/merge steps.
    pub join_steps: u64,
    /// Candidate lists fetched from a tag or value index by pattern
    /// matching (one per index access, before interval slicing). This is
    /// the work a match-cache hit amortizes away — the denominator that
    /// makes hit rates interpretable.
    pub candidate_fetches: u64,
    /// Structural-join element comparisons: interval binary-search steps
    /// plus per-candidate axis/level tests inside pattern matching.
    pub struct_cmps: u64,
    /// Select/Filter evaluations answered from the match cache.
    pub match_cache_hits: u64,
    /// Select/Filter evaluations that probed the match cache and ran the
    /// structural match (populating the cache afterwards).
    pub match_cache_misses: u64,
}

impl ExecStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Adds another stats bundle into this one.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.probes += other.probes;
        self.nodes_inspected += other.nodes_inspected;
        self.pattern_matches += other.pattern_matches;
        self.trees_built += other.trees_built;
        self.subtrees_materialized += other.subtrees_materialized;
        self.join_steps += other.join_steps;
        self.candidate_fetches += other.candidate_fetches;
        self.struct_cmps += other.struct_cmps;
        self.match_cache_hits += other.match_cache_hits;
        self.match_cache_misses += other.match_cache_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = ExecStats {
            probes: 1,
            nodes_inspected: 2,
            pattern_matches: 3,
            trees_built: 4,
            subtrees_materialized: 5,
            join_steps: 6,
            candidate_fetches: 7,
            struct_cmps: 8,
            match_cache_hits: 9,
            match_cache_misses: 10,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.probes, 2);
        assert_eq!(a.join_steps, 12);
        assert_eq!(a.candidate_fetches, 14);
        assert_eq!(a.struct_cmps, 16);
        assert_eq!(a.match_cache_hits, 18);
        assert_eq!(a.match_cache_misses, 20);
    }
}
