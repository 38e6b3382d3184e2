//! Key agreement at corpus scale: for every match probe the finder
//! issues on the Starbench corpus (8 benchmarks × 2 versions, analysis
//! inputs), in every iteration, the match stage's hashed key
//! ([`repro_query::MatchKey`]) splits the views into exactly the groups
//! the exact reference key ([`ddg::grouped_key`]) does. Views are
//! compared across programs as well as within one, since the match
//! cache shares entries between them.

use cp::CancelToken;
use ddg::{grouped_key, NodeId, StructuralKey};
use discovery::{match_subddg_full, FinderConfig, FrontEnd, SubDdg, SubKind};
use repro_query::MatchKey;
use starbench::{all_benchmarks, Version};
use std::collections::HashMap;

/// The exact key of a view, tagged with the dispatch class the match
/// stage uses (`None` for fused views, which are never keyed).
fn exact_key(g: &ddg::Ddg, sub: &SubDdg) -> Option<StructuralKey> {
    let class = match sub.kind {
        SubKind::Loop { .. } | SubKind::Derived { from_loop: Some(_) } => 0,
        SubKind::Assoc { .. } | SubKind::Derived { from_loop: None } => 1,
        SubKind::Fused { .. } => return None,
    };
    Some(match &sub.groups {
        Some(groups) => grouped_key(g, groups, class),
        None => {
            let singletons: Vec<[NodeId; 1]> =
                sub.nodes.iter().map(|n| [NodeId(n as u32)]).collect();
            grouped_key(g, &singletons, class)
        }
    })
}

#[test]
fn hashed_and_exact_keys_split_every_probe_alike() {
    let mut by_exact: HashMap<StructuralKey, MatchKey> = HashMap::new();
    let mut by_hash: HashMap<MatchKey, StructuralKey> = HashMap::new();
    let mut probes = 0usize;
    for bench in all_benchmarks() {
        for v in Version::BOTH {
            let name = format!("{}-{}", bench.name, v.name());
            let ddg = bench.run_analysis(v).ddg.expect("traced");
            let config = FinderConfig::default();
            let mut fe = FrontEnd::new(&ddg, &config, CancelToken::new());
            let g = fe.graph_arc();
            let extracted = fe
                .take_tasks()
                .iter()
                .map(|task| discovery::decompose::extract(&g, task))
                .collect();
            let mut state = fe.assemble(extracted);
            while !state.is_done() {
                let budget = state.budget();
                let phase = state.begin_matching();
                let mut outcomes = Vec::new();
                for job in state.active_jobs() {
                    let hashed = MatchKey::of(state.graph(), &job.sub, &budget);
                    let exact = exact_key(state.graph(), &job.sub);
                    assert_eq!(hashed.is_some(), exact.is_some(), "{name}: cacheability");
                    if let (Some(hashed), Some(exact)) = (hashed, exact) {
                        probes += 1;
                        let same_hash = *by_exact.entry(exact.clone()).or_insert(hashed);
                        assert_eq!(same_hash, hashed, "{name}: one exact key, two hashes");
                        let same_exact = by_hash.entry(hashed).or_insert(exact.clone());
                        assert!(*same_exact == exact, "{name}: one hash, two exact keys");
                    }
                    let outcome = match_subddg_full(state.graph(), &job.sub, &budget);
                    outcomes.push((job.pool_index, outcome));
                }
                state.end_matching(phase);
                state.apply_matches(outcomes);
            }
        }
    }
    assert_eq!(by_exact.len(), by_hash.len());
    assert!(
        probes > 2 * by_exact.len(),
        "the corpus repeats views ({probes} probes, {} distinct keys)",
        by_exact.len()
    );
}
