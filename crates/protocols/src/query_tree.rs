//! A query-tree anti-collision baseline (cited family \[2, 3\]).
//!
//! The query-tree protocol is the deterministic alternative to ALOHA:
//! the reader broadcasts an ID *prefix*; every tag whose ID starts with
//! that prefix answers with its full ID. On a collision the reader
//! pushes both one-bit extensions of the prefix; on a single reply it
//! records the ID; on silence the branch is dead. The protocol is
//! memoryless for tags (they only match prefixes), needs no frame-size
//! estimation, and its query count adapts to the ID distribution — but
//! every query is a full slot, and like every identification protocol
//! it is Ω(n), which is exactly the bound the paper's monitoring
//! approach escapes.
//!
//! IDs are walked most-significant bit first over the 96-bit EPC space.

use tagwatch_sim::{SimDuration, TagId, TagPopulation, TimingModel};

/// Metrics from one query-tree inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTreeRun {
    /// Collected IDs in discovery order.
    pub collected: Vec<TagId>,
    /// Total queries broadcast (the protocol's slot count).
    pub total_queries: u64,
    /// Queries that collided (≥ 2 matching tags).
    pub collisions: u64,
    /// Queries that went unanswered.
    pub idle: u64,
    /// Air time: every query is billed as an ID slot (tags answer with
    /// full IDs) plus command overhead under the given timing model.
    pub duration: SimDuration,
}

/// Runs a query-tree inventory over the *present, tuned* tags of
/// `population` and bills air time under `timing`.
///
/// Detuned tags never answer, exactly as on the air; silenced state is
/// ignored (the query tree has its own notion of "already identified").
#[must_use]
pub fn query_tree_inventory(population: &TagPopulation, timing: &TimingModel) -> QueryTreeRun {
    let ids: Vec<u128> = population
        .iter()
        .filter(|t| !t.is_detuned())
        .map(|t| t.id().as_u128())
        .collect();

    let mut run = QueryTreeRun {
        collected: Vec::with_capacity(ids.len()),
        total_queries: 0,
        collisions: 0,
        idle: 0,
        duration: SimDuration::ZERO,
    };

    // A prefix is (bits, len): the top `len` bits of the 96-bit space.
    // Depth-first, LIFO stack — 0-branch explored first.
    let mut stack: Vec<(u128, u32)> = vec![(0, 0)];
    while let Some((prefix, len)) = stack.pop() {
        run.total_queries += 1;
        run.duration += timing.frame_announce + timing.slot_broadcast;

        let matching: Vec<u128> = ids
            .iter()
            .copied()
            .filter(|&id| matches_prefix(id, prefix, len))
            .collect();
        match matching.len() {
            0 => {
                run.idle += 1;
                run.duration += timing.empty_slot;
            }
            1 => {
                run.collected.push(TagId::new(matching[0]));
                run.duration += timing.id_reply;
            }
            _ => {
                run.collisions += 1;
                run.duration += timing.id_reply;
                debug_assert!(len < TagId::BITS, "distinct ids must split before 96 bits");
                // Push 1-branch first so the 0-branch pops first.
                stack.push((prefix | (1u128 << (TagId::BITS - 1 - len)), len + 1));
                stack.push((prefix, len + 1));
            }
        }
    }
    run
}

/// Whether `id`'s top `len` bits equal `prefix`'s top `len` bits.
fn matches_prefix(id: u128, prefix: u128, len: u32) -> bool {
    if len == 0 {
        return true;
    }
    let shift = TagId::BITS - len;
    (id >> shift) == (prefix >> shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform() -> TimingModel {
        TimingModel::uniform_slots()
    }

    #[test]
    fn collects_every_tuned_tag_exactly_once() {
        let pop = TagPopulation::with_sequential_ids(300);
        let run = query_tree_inventory(&pop, &uniform());
        assert_eq!(run.collected.len(), 300);
        let distinct: std::collections::BTreeSet<_> = run.collected.iter().collect();
        assert_eq!(distinct.len(), 300);
    }

    #[test]
    fn collects_random_ids() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = TagPopulation::with_random_ids(128, &mut rng);
        let run = query_tree_inventory(&pop, &uniform());
        assert_eq!(run.collected.len(), 128);
    }

    #[test]
    fn query_accounting_balances() {
        let pop = TagPopulation::with_sequential_ids(100);
        let run = query_tree_inventory(&pop, &uniform());
        // Every query collides, idles, or decodes exactly one tag.
        assert_eq!(run.total_queries, run.collisions + run.idle + 100);
        // Binary-tree identity: internal (collision) nodes of a trie
        // with L leaves, where every query splits into exactly two
        // children, satisfy queries = 1 + 2·collisions.
        assert_eq!(run.total_queries, 1 + 2 * run.collisions);
    }

    #[test]
    fn query_count_is_at_least_linear() {
        // Identification cannot beat n queries — the bound the paper's
        // monitoring protocols escape.
        for n in [50usize, 200, 800] {
            let pop = TagPopulation::with_sequential_ids(n);
            let run = query_tree_inventory(&pop, &uniform());
            assert!(run.total_queries as usize >= n);
            // ...and for sane ID distributions it stays O(n) too.
            assert!(run.total_queries as usize <= 6 * n + 100);
        }
    }

    #[test]
    fn empty_population_costs_one_query() {
        let pop = TagPopulation::new();
        let run = query_tree_inventory(&pop, &uniform());
        assert_eq!(run.total_queries, 1);
        assert_eq!(run.idle, 1);
        assert!(run.collected.is_empty());
    }

    #[test]
    fn single_tag_costs_one_query() {
        let pop = TagPopulation::with_sequential_ids(1);
        let run = query_tree_inventory(&pop, &uniform());
        assert_eq!(run.total_queries, 1);
        assert_eq!(run.collected.len(), 1);
        assert_eq!(run.collisions, 0);
    }

    #[test]
    fn detuned_tags_are_invisible() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pop = TagPopulation::with_sequential_ids(40);
        pop.detune_random(15, &mut rng).unwrap();
        let run = query_tree_inventory(&pop, &uniform());
        assert_eq!(run.collected.len(), 25);
    }

    #[test]
    fn adjacent_ids_force_deep_splits() {
        // IDs 2k and 2k+1 share 95 bits: the trie must descend to the
        // last bit, and still terminates correctly.
        let pop = TagPopulation::from_ids([TagId::new(2), TagId::new(3)]).unwrap();
        let run = query_tree_inventory(&pop, &uniform());
        assert_eq!(run.collected.len(), 2);
        assert!(run.collisions >= 94, "collisions = {}", run.collisions);
    }

    #[test]
    fn duration_dominated_by_id_replies() {
        let pop = TagPopulation::with_sequential_ids(64);
        let run = query_tree_inventory(&pop, &TimingModel::gen2());
        let id_floor = TimingModel::gen2().id_reply * 64;
        assert!(run.duration >= id_floor);
    }
}
