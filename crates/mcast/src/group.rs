//! Multicast group discovery: keying users on provably-identical
//! undelivered tile state, with hysteresis-stabilised group ids.
//!
//! Two users can share one staged row — and one fanned-out frame — only
//! when the *bytes* the server would send them are identical. The
//! [`GroupKey`] makes that exact, not heuristic: it combines the cell
//! whose panorama is served, the orientation bucket (poses sharing a
//! bucket provably share the FoV tile set, see
//! [`cvr_content::plane::SharedFovCache`]), and an FNV-1a fingerprint of
//! the undelivered level-prefix state (tile ids, per-(tile, level)
//! delivered bits, and the raw bits of the per-level undelivered rate
//! sums). Equal keys ⇒ byte-identical manifests and rate rows.
//!
//! Group *membership* is recomputed every slot from scratch — a user who
//! looks away or leaves is out of the group the same slot, so a stale
//! group can never deliver to a departed user. What hysteresis stabilises
//! is the group *id*: a key keeps its id for `hysteresis_slots` slots
//! after it was last seen, so FoV jitter that briefly empties a bucket
//! does not re-number the group when the users come back.

use std::collections::HashMap;

use cvr_content::cache::UndeliveredSums;
use cvr_content::grid::CellId;
use cvr_content::plane::OrientationKey;

/// FNV-1a offset basis (the same constant the bench fingerprints use).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Feeds `bytes` into an FNV-1a accumulator.
fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Identity of one multicast-sharable unit of work: users with equal keys
/// are guaranteed to need byte-identical tile manifests at every quality
/// level this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Cell whose panorama the users are served.
    pub cell: CellId,
    /// Orientation bucket — equal buckets provably share the FoV tile set.
    pub orientation: OrientationKey,
    /// Fingerprint of the undelivered level-prefix state
    /// ([`content_fingerprint`]).
    pub content: u64,
}

/// FNV-1a fingerprint of one user's undelivered tile state: the targeted
/// tile ids, each tile's per-level delivered bit, and the raw bits of the
/// per-level undelivered rate sums. Two users with equal fingerprints
/// (over the same `(cell, tiles)`) would be sent byte-identical manifests
/// at every quality level.
///
/// The delivered bits come from the accumulator's mask, which the paired
/// ACK/release calls keep equal to the ledger's answer for the targeted
/// ids, so no ledger lookup is needed.
pub fn content_fingerprint(undelivered: &UndeliveredSums) -> u64 {
    let tiles = undelivered.tiles();
    let sums = undelivered.sums();
    let mut hash = FNV_OFFSET;
    hash = fnv(hash, &(tiles.len() as u64).to_le_bytes());
    for (t, &tile) in tiles.iter().enumerate() {
        hash = fnv(hash, &[tile.get()]);
        for l in 0..sums.len() {
            hash = fnv(hash, &[u8::from(undelivered.delivered(l)[t])]);
        }
    }
    for &s in sums {
        hash = fnv(hash, &s.to_bits().to_le_bytes());
    }
    hash
}

/// One discovered group of the current slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Stable group id: assigned when the key was first seen, kept while
    /// the key stays within the hysteresis window.
    pub id: u64,
    /// The key every member shares this slot.
    pub key: GroupKey,
    /// Member handles in observation (= plan) order.
    pub members: Vec<usize>,
}

/// A key's persistent identity across slots.
#[derive(Debug, Clone, Copy)]
struct KnownKey {
    id: u64,
    last_seen: u64,
}

/// Per-slot group discovery with deterministic, arrival-order-stable ids.
///
/// Usage per slot: [`GroupTracker::begin_slot`], one
/// [`GroupTracker::observe`] per groupable user *in plan order*, then
/// [`GroupTracker::finish_slot`] to read the groups (in
/// first-observation order) and prune keys outside the hysteresis
/// window. Determinism: ids depend only on the sequence of observed keys
/// since construction — never on hash-map iteration order, thread count,
/// or shard layout.
#[derive(Debug, Clone)]
pub struct GroupTracker {
    hysteresis_slots: u64,
    next_id: u64,
    known: HashMap<GroupKey, KnownKey>,
    slot: u64,
    /// The current slot's groups are `groups[..active]`; entries past
    /// `active` are earlier slots' groups kept so their member `Vec`s are
    /// reused instead of reallocated.
    groups: Vec<Group>,
    active: usize,
    /// Maps a group id to its index in `groups` for the current slot.
    index: HashMap<u64, usize>,
}

impl GroupTracker {
    /// Creates a tracker whose keys keep their group id for
    /// `hysteresis_slots` slots after they were last observed.
    pub fn new(hysteresis_slots: u64) -> Self {
        GroupTracker {
            hysteresis_slots,
            next_id: 0,
            known: HashMap::new(),
            slot: 0,
            groups: Vec::new(),
            active: 0,
            index: HashMap::new(),
        }
    }

    /// Starts a new slot, clearing the previous slot's membership. Slots
    /// must be observed in non-decreasing order for hysteresis to mean
    /// anything.
    pub fn begin_slot(&mut self, slot: u64) {
        self.slot = slot;
        self.active = 0;
        self.index.clear();
    }

    /// Registers `member` (an opaque caller handle, typically the plan
    /// index) under `key`, returning the group id. Callers must observe
    /// members in plan order so member lists — and therefore value
    /// summation order — are deterministic.
    pub fn observe(&mut self, member: usize, key: GroupKey) -> u64 {
        let slot = self.slot;
        let id = match self.known.get_mut(&key) {
            Some(known) => {
                known.last_seen = slot;
                known.id
            }
            None => {
                let id = self.next_id;
                self.next_id += 1;
                self.known.insert(
                    key,
                    KnownKey {
                        id,
                        last_seen: slot,
                    },
                );
                id
            }
        };
        match self.index.get(&id) {
            Some(&at) => self.groups[at].members.push(member),
            None => {
                self.index.insert(id, self.active);
                if let Some(group) = self.groups.get_mut(self.active) {
                    group.id = id;
                    group.key = key;
                    group.members.clear();
                    group.members.push(member);
                } else {
                    self.groups.push(Group {
                        id,
                        key,
                        members: vec![member],
                    });
                }
                self.active += 1;
            }
        }
        id
    }

    /// Ends the slot: prunes keys not seen within the hysteresis window
    /// and returns the slot's groups in first-observation order.
    pub fn finish_slot(&mut self) -> &[Group] {
        let cutoff = self.slot.saturating_sub(self.hysteresis_slots);
        self.known.retain(|_, k| k.last_seen >= cutoff);
        self.groups()
    }

    /// The current slot's groups (valid after
    /// [`GroupTracker::finish_slot`]).
    pub fn groups(&self) -> &[Group] {
        &self.groups[..self.active]
    }

    /// Number of groups with two or more members this slot — the value
    /// behind the `cvr_mcast_groups` gauge.
    pub fn multicast_groups(&self) -> usize {
        self.groups()
            .iter()
            .filter(|g| g.members.len() >= 2)
            .count()
    }

    /// Number of keys currently remembered (for tests and introspection).
    pub fn known_keys(&self) -> usize {
        self.known.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(x: i32, o: i64, c: u64) -> GroupKey {
        GroupKey {
            cell: CellId { x, z: 0 },
            orientation: (o, 0),
            content: c,
        }
    }

    #[test]
    fn members_sharing_a_key_group_together_in_observation_order() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(0);
        t.observe(0, key(1, 5, 9));
        t.observe(1, key(2, 5, 9));
        t.observe(2, key(1, 5, 9));
        let groups = t.finish_slot().to_vec();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0, 2]);
        assert_eq!(groups[1].members, vec![1]);
        assert_eq!(t.multicast_groups(), 1);
    }

    #[test]
    fn ids_are_arrival_order_stable_across_slots() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(0);
        let a = t.observe(0, key(1, 0, 0));
        let b = t.observe(1, key(2, 0, 0));
        t.finish_slot();
        // Next slot, observed in the opposite order: ids stick to keys.
        t.begin_slot(1);
        let b2 = t.observe(1, key(2, 0, 0));
        let a2 = t.observe(0, key(1, 0, 0));
        t.finish_slot();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert_ne!(a, b);
    }

    #[test]
    fn hysteresis_keeps_ids_across_jitter_gaps_and_prunes_after() {
        let mut t = GroupTracker::new(3);
        t.begin_slot(0);
        let id = t.observe(0, key(1, 0, 0));
        t.finish_slot();
        // Absent for 3 slots — inside the window, id survives.
        for slot in 1..=3 {
            t.begin_slot(slot);
            t.finish_slot();
        }
        t.begin_slot(4);
        // last_seen 0, cutoff 4 - 3 = 1 ⇒ pruned at slot-4 finish; but the
        // key re-observed *during* slot 4 refreshes last_seen first.
        let again = t.observe(0, key(1, 0, 0));
        t.finish_slot();
        assert_eq!(id, again, "id must survive a jitter gap inside the window");

        // Now stay away past the window: the key is forgotten and the
        // next sighting mints a fresh id.
        for slot in 5..=9 {
            t.begin_slot(slot);
            t.finish_slot();
        }
        assert_eq!(t.known_keys(), 0);
        t.begin_slot(10);
        let fresh = t.observe(0, key(1, 0, 0));
        assert_ne!(id, fresh, "expired key must re-number");
    }

    #[test]
    fn membership_is_per_slot_never_carried_over() {
        let mut t = GroupTracker::new(8);
        t.begin_slot(0);
        t.observe(0, key(1, 0, 0));
        t.observe(1, key(1, 0, 0));
        t.finish_slot();
        t.begin_slot(1);
        t.observe(1, key(1, 0, 0));
        let groups = t.finish_slot();
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[0].members,
            vec![1],
            "departed member 0 must not linger in the group"
        );
    }

    #[test]
    fn content_fingerprint_tracks_delivered_bits() {
        use cvr_content::cache::DeliveryLedger;
        use cvr_content::id::VideoId;
        use cvr_content::tile::TileId;
        use cvr_core::quality::QualityLevel;

        let cell = CellId { x: 3, z: -2 };
        let tiles = [TileId::new(0), TileId::new(2)];
        // Level-major 3 × 4 rate table.
        let rows: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        let mut ledger = DeliveryLedger::new();
        let mut undelivered = UndeliveredSums::new(3);
        undelivered.retarget(cell, &tiles, &rows, &ledger);
        let before = content_fingerprint(&undelivered);
        assert_eq!(
            before,
            content_fingerprint(&undelivered),
            "fingerprint must be a pure function"
        );
        let id = |t: u8| VideoId::new(cell, TileId::new(t), QualityLevel::new(2));
        undelivered.acknowledge(&mut ledger, id(0));
        let after = content_fingerprint(&undelivered);
        assert_ne!(before, after, "a delivered bit must change the key");
        // A delivery on a tile outside the target set is invisible.
        undelivered.acknowledge(&mut ledger, id(1));
        assert_eq!(after, content_fingerprint(&undelivered));
        // Releasing the targeted tile restores the original key.
        undelivered.release(&mut ledger, [id(0)]);
        assert_eq!(before, content_fingerprint(&undelivered));
    }
}
