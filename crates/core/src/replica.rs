//! Replica-group slot layout shared by both substrates.
//!
//! Horizontal scaling gives each service up to `max_replicas` container
//! replicas. Containers are addressed by *slot*: slots `0..n` are the
//! primaries (slot `s` is replica 0 of service `s`, preserving the
//! pre-replica `ContainerId(s) == ServiceId(s)` identity), and extra
//! replica `r >= 1` of service `s` lives at slot
//! `n + s*(max_replicas-1) + (r-1)`. With `max_replicas == 1` the layout
//! degenerates to exactly the single-replica world: `n_slots == n` and
//! every slot is a primary — which is what keeps the default
//! configuration byte-identical to the pre-replica engine.

use crate::ids::ServiceId;

/// Maps `(service, replica)` pairs to dense container slots and back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLayout {
    /// Number of services in the task graph.
    pub services: usize,
    /// Upper bound on replicas per service (>= 1).
    pub max_replicas: u32,
}

impl ReplicaLayout {
    /// Layout for `services` services with up to `max_replicas` replicas
    /// each.
    pub fn new(services: usize, max_replicas: u32) -> Self {
        assert!(max_replicas >= 1, "max_replicas must be at least 1");
        ReplicaLayout {
            services,
            max_replicas,
        }
    }

    /// Reconstruct the layout from a controller's `NodeInit` bounds:
    /// `max_container_id` covers every replica slot in the cluster
    /// (active or not), so `max_container_id + 1` is `n_slots`.
    pub fn from_bounds(max_container_id: usize, max_replicas: u32) -> Self {
        let n_slots = max_container_id + 1;
        debug_assert_eq!(
            n_slots % max_replicas.max(1) as usize,
            0,
            "slot bound must be a whole number of replica groups"
        );
        ReplicaLayout::new(n_slots / max_replicas.max(1) as usize, max_replicas)
    }

    /// Total container slots (`services × max_replicas`).
    pub fn n_slots(&self) -> usize {
        self.services * self.max_replicas as usize
    }

    /// Slot of replica `r` of service `s`.
    pub fn slot_of(&self, s: ServiceId, r: u32) -> usize {
        debug_assert!((s.0 as usize) < self.services);
        debug_assert!(r < self.max_replicas);
        if r == 0 {
            s.0 as usize
        } else {
            self.services + s.0 as usize * (self.max_replicas as usize - 1) + (r as usize - 1)
        }
    }

    /// Service a slot belongs to.
    pub fn service_of(&self, slot: usize) -> ServiceId {
        debug_assert!(slot < self.n_slots());
        if slot < self.services {
            ServiceId(slot as u32)
        } else {
            ServiceId(((slot - self.services) / (self.max_replicas as usize - 1)) as u32)
        }
    }

    /// Replica index (0 = primary) of a slot within its service group.
    pub fn replica_of(&self, slot: usize) -> u32 {
        debug_assert!(slot < self.n_slots());
        if slot < self.services {
            0
        } else {
            ((slot - self.services) % (self.max_replicas as usize - 1)) as u32 + 1
        }
    }

    /// True when `slot` is a service's replica 0.
    pub fn is_primary(&self, slot: usize) -> bool {
        slot < self.services
    }

    /// All slots of a service group, primary first.
    pub fn slots_of(&self, s: ServiceId) -> impl Iterator<Item = usize> + '_ {
        let copy = *self;
        (0..self.max_replicas).map(move |r| copy.slot_of(s, r))
    }
}

/// The power-of-two-choices decision rule shared by both substrates'
/// per-edge load balancers: of two uniformly drawn candidate slots,
/// dispatch to the one with the shallower queue, ties to the lower slot
/// number (so a duplicate draw is a forced pick and replica order stays
/// deterministic).
#[inline]
pub fn p2c_winner(a: usize, depth_a: u64, b: usize, depth_b: u64) -> usize {
    let ((lo, d_lo), (hi, d_hi)) = if a <= b {
        ((a, depth_a), (b, depth_b))
    } else {
        ((b, depth_b), (a, depth_a))
    };
    if d_hi < d_lo {
        hi
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replica_layout_is_the_identity() {
        let l = ReplicaLayout::new(5, 1);
        assert_eq!(l.n_slots(), 5);
        for s in 0..5u32 {
            assert_eq!(l.slot_of(ServiceId(s), 0), s as usize);
            assert_eq!(l.service_of(s as usize), ServiceId(s));
            assert_eq!(l.replica_of(s as usize), 0);
            assert!(l.is_primary(s as usize));
        }
    }

    #[test]
    fn slots_round_trip_for_every_service_and_replica() {
        let l = ReplicaLayout::new(4, 3);
        assert_eq!(l.n_slots(), 12);
        let mut seen = vec![false; l.n_slots()];
        for s in 0..4u32 {
            for r in 0..3u32 {
                let slot = l.slot_of(ServiceId(s), r);
                assert!(!seen[slot], "slot {slot} assigned twice");
                seen[slot] = true;
                assert_eq!(l.service_of(slot), ServiceId(s));
                assert_eq!(l.replica_of(slot), r);
                assert_eq!(l.is_primary(slot), r == 0);
            }
        }
        assert!(seen.iter().all(|&b| b), "layout must be a bijection");
    }

    #[test]
    fn from_bounds_round_trips_the_constructor() {
        for services in 1..6usize {
            for max in 1..4u32 {
                let l = ReplicaLayout::new(services, max);
                assert_eq!(ReplicaLayout::from_bounds(l.n_slots() - 1, max), l);
            }
        }
    }

    #[test]
    fn primaries_keep_their_service_index() {
        // The pre-replica identity ContainerId(s) == ServiceId(s) must
        // survive any max_replicas choice.
        for max in 1..5 {
            let l = ReplicaLayout::new(6, max);
            for s in 0..6u32 {
                assert_eq!(l.slot_of(ServiceId(s), 0), s as usize);
            }
        }
    }

    #[test]
    fn slots_of_lists_the_group_primary_first() {
        let l = ReplicaLayout::new(3, 3);
        let group: Vec<usize> = l.slots_of(ServiceId(1)).collect();
        assert_eq!(group[0], 1);
        assert_eq!(group.len(), 3);
        for &slot in &group {
            assert_eq!(l.service_of(slot), ServiceId(1));
        }
    }

    #[test]
    fn p2c_prefers_the_shallower_queue_and_breaks_ties_low() {
        assert_eq!(p2c_winner(2, 5, 7, 1), 7);
        assert_eq!(p2c_winner(7, 1, 2, 5), 7);
        // Ties (including a duplicate draw) go to the lower slot.
        assert_eq!(p2c_winner(2, 3, 7, 3), 2);
        assert_eq!(p2c_winner(7, 3, 2, 3), 2);
        assert_eq!(p2c_winner(4, 9, 4, 9), 4);
    }
}
