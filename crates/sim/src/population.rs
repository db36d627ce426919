//! Collections of tags: the physical "set of tags" `T*` of the paper.
//!
//! The problem formulation (§3) fixes a *static* set of `n` tags. The
//! adversary acts by physically removing tags; the split-set colluder
//! attack (§5.1) partitions the set into a remaining part `s1` and a
//! stolen part `s2`. [`TagPopulation`] models all of that: it owns the
//! tag devices and supports random removal, random splitting, and
//! failure injection, all through explicit RNGs for reproducibility.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::SimError;
use crate::ident::TagId;
use crate::tag::{Counter, Tag};

/// An owned collection of simulated tags with unique IDs.
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_sim::TagPopulation;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut set = TagPopulation::with_sequential_ids(100);
/// let stolen = set.remove_random(6, &mut rng)?;
/// assert_eq!(stolen.len(), 6);
/// assert_eq!(set.len(), 94);
/// # Ok::<(), tagwatch_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TagPopulation {
    tags: Vec<Tag>,
    index: BTreeMap<TagId, usize>,
}

impl TagPopulation {
    /// Creates an empty population.
    #[must_use]
    pub fn new() -> Self {
        TagPopulation::default()
    }

    /// Creates `n` tags with IDs `1..=n`.
    ///
    /// Sequential IDs exercise the hash exactly as hard as random ones
    /// (the hash is the randomizer) while keeping experiments easy to
    /// reason about and reproduce.
    #[must_use]
    pub fn with_sequential_ids(n: usize) -> Self {
        (1..=n as u64).map(|i| Tag::new(TagId::from(i))).collect()
    }

    /// Creates `n` tags with uniformly random, distinct 96-bit IDs.
    pub fn with_random_ids<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut pop = TagPopulation::new();
        while pop.len() < n {
            let raw = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
            // Duplicates are astronomically unlikely but loop anyway.
            let _ = pop.insert(Tag::new(TagId::new(raw)));
        }
        pop
    }

    /// Builds a population from explicit IDs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateTagId`] if any ID repeats.
    pub fn from_ids<I: IntoIterator<Item = TagId>>(ids: I) -> Result<Self, SimError> {
        let mut pop = TagPopulation::new();
        for id in ids {
            pop.insert(Tag::new(id))?;
        }
        Ok(pop)
    }

    /// Number of tags currently present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the population holds no tags.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Whether a tag with this ID is present.
    #[must_use]
    pub fn contains(&self, id: TagId) -> bool {
        self.index.contains_key(&id)
    }

    /// Shared access to a tag by ID.
    #[must_use]
    pub fn get(&self, id: TagId) -> Option<&Tag> {
        self.index.get(&id).map(|&i| &self.tags[i])
    }

    /// Exclusive access to a tag by ID.
    pub fn get_mut(&mut self, id: TagId) -> Option<&mut Tag> {
        self.index.get(&id).map(|&i| &mut self.tags[i])
    }

    /// Iterates over the tags in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tag> {
        self.tags.iter()
    }

    /// Iterates mutably over the tags in insertion order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Tag> {
        self.tags.iter_mut()
    }

    /// The IDs of all present tags, in insertion order.
    #[must_use]
    pub fn ids(&self) -> Vec<TagId> {
        self.tags.iter().map(Tag::id).collect()
    }

    /// Adds a tag.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateTagId`] if a tag with the same ID is
    /// already present.
    pub fn insert(&mut self, tag: Tag) -> Result<(), SimError> {
        if self.index.contains_key(&tag.id()) {
            return Err(SimError::DuplicateTagId {
                id: tag.id().to_string(),
            });
        }
        self.index.insert(tag.id(), self.tags.len());
        self.tags.push(tag);
        Ok(())
    }

    /// Removes a tag by ID, returning it if present.
    pub fn remove(&mut self, id: TagId) -> Option<Tag> {
        let i = self.index.remove(&id)?;
        let tag = self.tags.swap_remove(i);
        if let Some(moved) = self.tags.get(i) {
            self.index.insert(moved.id(), i);
        }
        Some(tag)
    }

    /// Removes `count` uniformly random tags — the adversary "stealing"
    /// tags (§3: the hardest case for the server is exactly `m + 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotEnoughTags`] if `count > self.len()`.
    pub fn remove_random<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        rng: &mut R,
    ) -> Result<Vec<Tag>, SimError> {
        if count > self.len() {
            return Err(SimError::NotEnoughTags {
                requested: count,
                available: self.len(),
            });
        }
        let victims: Vec<TagId> = self.ids().choose_multiple(rng, count).copied().collect();
        #[expect(
            clippy::expect_used,
            reason = "victims were just drawn from self.ids(), so every removal hits a present tag"
        )]
        Ok(victims
            .into_iter()
            .map(|id| self.remove(id).expect("chosen from present ids"))
            .collect())
    }

    /// Splits off `count` uniformly random tags into a new population
    /// (the stolen set `s2` handed to the collaborator, §5.1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotEnoughTags`] if `count > self.len()`.
    pub fn split_random<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        rng: &mut R,
    ) -> Result<TagPopulation, SimError> {
        let removed = self.remove_random(count, rng)?;
        let mut other = TagPopulation::new();
        for tag in removed {
            #[expect(
                clippy::expect_used,
                reason = "tags removed from one population keep their unique ids, and `other` starts empty"
            )]
            other.insert(tag).expect("ids unique by construction");
        }
        Ok(other)
    }

    /// Marks `count` random tags detuned (present but mute) — failure
    /// injection for false-alarm experiments.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotEnoughTags`] if `count > self.len()`.
    pub fn detune_random<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        rng: &mut R,
    ) -> Result<Vec<TagId>, SimError> {
        if count > self.len() {
            return Err(SimError::NotEnoughTags {
                requested: count,
                available: self.len(),
            });
        }
        let victims: Vec<TagId> = self.ids().choose_multiple(rng, count).copied().collect();
        for id in &victims {
            #[expect(
                clippy::expect_used,
                reason = "victims were just drawn from self.ids(), so every lookup hits a present tag"
            )]
            self.get_mut(*id)
                .expect("chosen from present ids")
                .set_detuned(true);
        }
        Ok(victims)
    }

    /// Re-arms every tag for a fresh inventory round.
    pub fn reset_inventory(&mut self) {
        for tag in &mut self.tags {
            tag.reset_inventory();
        }
    }

    /// Snapshot of every tag's counter, keyed by ID — what the server
    /// persists so it can keep predicting UTRP slots.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<TagId, Counter> {
        self.tags.iter().map(|t| (t.id(), t.counter())).collect()
    }
}

impl FromIterator<Tag> for TagPopulation {
    /// Collects tags, keeping the **first** occurrence of each ID.
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        let mut pop = TagPopulation::new();
        for tag in iter {
            let _ = pop.insert(tag);
        }
        pop
    }
}

impl Extend<Tag> for TagPopulation {
    /// Adds tags, keeping the first occurrence of each ID.
    fn extend<I: IntoIterator<Item = Tag>>(&mut self, iter: I) {
        for tag in iter {
            let _ = self.insert(tag);
        }
    }
}

impl<'a> IntoIterator for &'a TagPopulation {
    type Item = &'a Tag;
    type IntoIter = std::slice::Iter<'a, Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.tags.iter()
    }
}

impl IntoIterator for TagPopulation {
    type Item = Tag;
    type IntoIter = std::vec::IntoIter<Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.tags.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn sequential_population_has_distinct_ids() {
        let pop = TagPopulation::with_sequential_ids(500);
        assert_eq!(pop.len(), 500);
        let ids: std::collections::BTreeSet<_> = pop.ids().into_iter().collect();
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn random_population_has_requested_size() {
        let mut r = rng();
        let pop = TagPopulation::with_random_ids(64, &mut r);
        assert_eq!(pop.len(), 64);
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut pop = TagPopulation::new();
        pop.insert(Tag::new(TagId::new(1))).unwrap();
        let err = pop.insert(Tag::new(TagId::new(1))).unwrap_err();
        assert!(matches!(err, SimError::DuplicateTagId { .. }));
        assert_eq!(pop.len(), 1);
    }

    #[test]
    fn from_ids_rejects_duplicates() {
        let ids = [TagId::new(1), TagId::new(2), TagId::new(1)];
        assert!(TagPopulation::from_ids(ids).is_err());
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut pop = TagPopulation::with_sequential_ids(10);
        assert!(pop.remove(TagId::from(5u64)).is_some());
        assert!(pop.remove(TagId::from(5u64)).is_none());
        assert_eq!(pop.len(), 9);
        // Every surviving tag is still reachable through the index.
        for id in pop.ids() {
            assert_eq!(pop.get(id).unwrap().id(), id);
        }
    }

    #[test]
    fn remove_random_takes_exactly_count() {
        let mut r = rng();
        let mut pop = TagPopulation::with_sequential_ids(100);
        let stolen = pop.remove_random(21, &mut r).unwrap();
        assert_eq!(stolen.len(), 21);
        assert_eq!(pop.len(), 79);
        for tag in &stolen {
            assert!(!pop.contains(tag.id()));
        }
    }

    #[test]
    fn remove_random_rejects_overdraw() {
        let mut r = rng();
        let mut pop = TagPopulation::with_sequential_ids(5);
        let err = pop.remove_random(6, &mut r).unwrap_err();
        assert_eq!(
            err,
            SimError::NotEnoughTags {
                requested: 6,
                available: 5
            }
        );
        // Population untouched on error.
        assert_eq!(pop.len(), 5);
    }

    #[test]
    fn split_random_partitions_the_set() {
        let mut r = rng();
        let mut s1 = TagPopulation::with_sequential_ids(50);
        let s2 = s1.split_random(20, &mut r).unwrap();
        assert_eq!(s1.len(), 30);
        assert_eq!(s2.len(), 20);
        for tag in &s2 {
            assert!(!s1.contains(tag.id()));
        }
    }

    #[test]
    fn split_is_random_not_prefix() {
        let mut r = rng();
        let mut s1 = TagPopulation::with_sequential_ids(1000);
        let _s2 = s1.split_random(500, &mut r).unwrap();
        // A prefix split would put ids 1..=500 in s2; a random one keeps
        // roughly half of the low ids in s1.
        let low_in_s1 = (1..=500u64)
            .filter(|&i| s1.contains(TagId::from(i)))
            .count();
        assert!(
            (150..=350).contains(&low_in_s1),
            "suspiciously non-random split: {low_in_s1}"
        );
    }

    #[test]
    fn detune_random_marks_tags_mute() {
        let mut r = rng();
        let mut pop = TagPopulation::with_sequential_ids(20);
        let victims = pop.detune_random(4, &mut r).unwrap();
        assert_eq!(victims.len(), 4);
        let detuned = pop.iter().filter(|t| t.is_detuned()).count();
        assert_eq!(detuned, 4);
        assert_eq!(pop.len(), 20, "detuned tags remain present");
    }

    #[test]
    fn counters_snapshot_tracks_ids() {
        let pop = TagPopulation::with_sequential_ids(3);
        let counters = pop.counters();
        assert_eq!(counters.len(), 3);
        assert!(counters.values().all(|ct| ct.get() == 0));
    }

    #[test]
    fn collect_and_extend_keep_first_occurrence() {
        let mut pop: TagPopulation = [Tag::new(TagId::new(1)), Tag::new(TagId::new(1))]
            .into_iter()
            .collect();
        assert_eq!(pop.len(), 1);
        pop.extend([Tag::new(TagId::new(2)), Tag::new(TagId::new(2))]);
        assert_eq!(pop.len(), 2);
    }

    #[test]
    fn removal_is_reproducible_for_equal_seeds() {
        let mut a = TagPopulation::with_sequential_ids(100);
        let mut b = TagPopulation::with_sequential_ids(100);
        let mut ra = StdRng::seed_from_u64(7);
        let mut rb = StdRng::seed_from_u64(7);
        let xa: Vec<_> = a
            .remove_random(10, &mut ra)
            .unwrap()
            .iter()
            .map(Tag::id)
            .collect();
        let xb: Vec<_> = b
            .remove_random(10, &mut rb)
            .unwrap()
            .iter()
            .map(Tag::id)
            .collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn reset_inventory_rearms_silenced_tags() {
        let mut pop = TagPopulation::with_sequential_ids(4);
        for tag in pop.iter_mut() {
            tag.silence();
        }
        pop.reset_inventory();
        assert!(pop.iter().all(|t| t.state() == crate::tag::TagState::Ready));
    }
}
