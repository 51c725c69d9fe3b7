//! Shard topology: which CPUs, NUMA nodes and submissions belong to which
//! scheduler shard.
//!
//! The sharded scheduler splits the node-wide scheduling state into
//! `shards` independent [`crate::SchedCore`] instances (one per NUMA node
//! by default), each serialized on its own lock, so CPUs of different
//! shards schedule concurrently instead of convoying on one critical
//! section. The *decisions* of where things live must be identical in the
//! live runtime and the simulator, so the mapping is pure data here:
//!
//! * **CPUs** are split into `shards` contiguous, balanced blocks
//!   (`shard_of_cpu`). With `shards` = NUMA nodes and even node sizes, the
//!   blocks coincide with the nodes.
//! * **Placed tasks** route to the shard owning their target: a core
//!   affinity to `shard_of_cpu(core)`, a NUMA affinity to the shard of the
//!   node's first CPU (`shard_of_numa`). Each core/NUMA queue therefore
//!   has exactly one owning shard and is only ever touched under that
//!   shard's lock.
//! * **Unconstrained tasks** route *stickily per submitter*: a pure hash
//!   of the submitter's identity (`submitter % shards`) picks the shard,
//!   so one producer thread's whole stream lands in one shard — its FIFO
//!   order survives sharding, its delegation batches stay intact, and the
//!   mapping needs no shared cursor. Distinct submitters spread across
//!   shards by their ids; steal rotation rebalances any residual skew.
//!   With `shards == 1` this degenerates to the single-queue routing.
//! * **Steal rotation**: a CPU whose shard is empty visits the other
//!   shards in rotated order (`home+1, home+2, … mod shards`), mirroring
//!   the in-shard victim rotation.

use crate::affinity::Affinity;

/// Largest supported shard count (the live runtime's in-segment arrays
/// are sized for it; one shard per NUMA node needs at most
/// `MAX_NUMA = 16`).
pub const MAX_SHARDS: usize = 16;

/// Pure CPU/NUMA/submission → shard mapping; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    cpus: usize,
    cpus_per_numa: usize,
    shards: usize,
}

impl ShardMap {
    /// A map of `cpus` CPUs (`cpus_per_numa` per node, `0` = one node)
    /// onto `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero, exceeds `cpus` (every shard must own
    /// at least one CPU) or exceeds [`MAX_SHARDS`].
    pub fn new(cpus: usize, cpus_per_numa: usize, shards: usize) -> ShardMap {
        assert!(shards > 0, "at least one shard");
        assert!(shards <= cpus, "more shards than CPUs");
        assert!(shards <= MAX_SHARDS, "at most {MAX_SHARDS} shards");
        ShardMap {
            cpus,
            cpus_per_numa,
            shards,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of CPUs the map covers.
    #[inline]
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Shard owning a CPU: contiguous balanced blocks.
    #[inline]
    pub fn shard_of_cpu(&self, cpu: usize) -> usize {
        debug_assert!(cpu < self.cpus);
        cpu * self.shards / self.cpus
    }

    /// Shard owning a NUMA node's queue: the shard of the node's first
    /// CPU. With the default `shards = NUMA nodes` and even node sizes
    /// this is the identity.
    #[inline]
    pub fn shard_of_numa(&self, node: usize) -> usize {
        if self.cpus_per_numa == 0 {
            return 0;
        }
        let first_cpu = (node * self.cpus_per_numa).min(self.cpus - 1);
        self.shard_of_cpu(first_cpu)
    }

    /// Owner shard of a *placed* task's target, `None` for unconstrained
    /// tasks — the placement half of the routing rule.
    #[inline]
    pub fn placed_shard(&self, affinity: Affinity) -> Option<usize> {
        match affinity {
            Affinity::Core { index, .. } => Some(self.shard_of_cpu(index)),
            Affinity::Numa { index, .. } => Some(self.shard_of_numa(index)),
            Affinity::None => None,
        }
    }

    /// Destination shard of a submission: placed tasks go to the shard
    /// owning their target; unconstrained tasks go to the shard their
    /// *submitter* hashes to (`submitter % shards`).
    ///
    /// The sticky-per-submitter rule is a pure function of its arguments —
    /// no shared cursor — so every backend (live lock-free submit, locked
    /// fallback, simulator, parity fuzz) routes identically by
    /// construction. One producer thread's unconstrained stream stays in
    /// one shard: its FIFO order is preserved and its delegation batches
    /// are not scattered (the round-robin cursor this replaces sprayed
    /// consecutive submissions of one producer across every shard, which
    /// measurably *hurt* many-producer throughput).
    #[inline]
    pub fn route_shard(&self, affinity: Affinity, submitter: u64) -> usize {
        self.placed_shard(affinity)
            .unwrap_or_else(|| (submitter % self.shards as u64) as usize)
    }

    /// The other shards in steal order for a CPU of `home`:
    /// `home+1, home+2, … mod shards`.
    pub fn steal_rotation(&self, home: usize) -> impl Iterator<Item = usize> {
        let shards = self.shards;
        (1..shards).map(move |i| (home + i) % shards)
    }
}

/// Resolves a user-facing shard-count knob: `0` means "one shard per NUMA
/// node", any other value is taken as-is but clamped into the valid range
/// (at least 1, at most `cpus`, at most [`MAX_SHARDS`]).
pub fn resolve_shards(requested: usize, cpus: usize, numa_nodes: usize) -> usize {
    let want = if requested == 0 {
        numa_nodes
    } else {
        requested
    };
    want.clamp(1, cpus.min(MAX_SHARDS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_balanced_blocks() {
        let m = ShardMap::new(8, 2, 4);
        let blocks: Vec<usize> = (0..8).map(|c| m.shard_of_cpu(c)).collect();
        assert_eq!(blocks, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // Aligned topology: node queues owned by their own block.
        for node in 0..4 {
            assert_eq!(m.shard_of_numa(node), node);
        }
    }

    #[test]
    fn uneven_split_still_covers_every_shard() {
        let m = ShardMap::new(5, 2, 3);
        let blocks: Vec<usize> = (0..5).map(|c| m.shard_of_cpu(c)).collect();
        assert_eq!(blocks, vec![0, 0, 1, 1, 2]);
        // Every shard owns at least one CPU.
        for s in 0..3 {
            assert!(blocks.contains(&s), "shard {s} owns no CPU");
        }
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let m = ShardMap::new(6, 2, 1);
        for c in 0..6 {
            assert_eq!(m.shard_of_cpu(c), 0);
        }
        for n in 0..3 {
            assert_eq!(m.shard_of_numa(n), 0);
        }
    }

    #[test]
    fn unconstrained_routes_stick_to_the_submitter() {
        let m = ShardMap::new(4, 0, 2);
        // One submitter's whole unconstrained stream lands in one shard.
        for _ in 0..5 {
            assert_eq!(m.route_shard(Affinity::None, 0), 0);
            assert_eq!(m.route_shard(Affinity::None, 1), 1);
        }
        // Submitter ids spread across shards by modulo.
        assert_eq!(m.route_shard(Affinity::None, 2), 0);
        assert_eq!(m.route_shard(Affinity::None, 7), 1);
        // Placed tasks ignore the submitter entirely.
        let placed = Affinity::Core {
            index: 3,
            strict: true,
        };
        assert_eq!(m.route_shard(placed, 0), m.route_shard(placed, 1));
        assert_eq!(m.route_shard(placed, 0), 1, "core 3 belongs to shard 1");
    }

    #[test]
    fn steal_rotation_visits_every_other_shard_once() {
        let m = ShardMap::new(8, 0, 4);
        let order: Vec<usize> = m.steal_rotation(2).collect();
        assert_eq!(order, vec![3, 0, 1]);
        assert_eq!(m.steal_rotation(0).count(), 3);
        let single = ShardMap::new(2, 0, 1);
        assert_eq!(single.steal_rotation(0).count(), 0);
    }

    #[test]
    fn resolve_defaults_to_numa_nodes() {
        assert_eq!(resolve_shards(0, 8, 4), 4);
        assert_eq!(resolve_shards(0, 8, 1), 1);
        assert_eq!(resolve_shards(2, 8, 1), 2);
        // Clamped to CPUs and MAX_SHARDS.
        assert_eq!(resolve_shards(0, 2, 4), 2);
        assert_eq!(resolve_shards(64, 256, 1), MAX_SHARDS);
    }

    #[test]
    #[should_panic(expected = "more shards than CPUs")]
    fn more_shards_than_cpus_panics() {
        let _ = ShardMap::new(2, 0, 4);
    }
}
