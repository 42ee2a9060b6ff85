//! The serving topologies a trace can replay against.

use std::fmt;
use std::str::FromStr;

use emsim::{Device, EmConfig};
use topk_core::TopK;

/// A serving topology: a [`TopK`] handle over this many range shards. Every
/// harness sweep runs [`Topology::ALL`] — 1, 4 and 16 shards (one shard is
/// the shape small and durable indexes serve from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology(pub usize);

impl Topology {
    /// Every topology the harnesses sweep.
    pub const ALL: [Topology; 3] = [Topology(1), Topology(4), Topology(16)];

    /// Build an empty index of this topology on its own device, sized for
    /// `expected_n` points (the harness default machine: 256-word blocks,
    /// 128-block pool).
    pub fn build(&self, expected_n: usize) -> (Device, TopK) {
        let device = Device::new(EmConfig::new(256, 256 * 128));
        let handle = self.build_on(&device, expected_n);
        (device, handle)
    }

    /// Build an empty index of this topology on the given device.
    pub fn build_on(&self, device: &Device, expected_n: usize) -> TopK {
        TopK::builder()
            .device(device)
            .expected_n(expected_n.max(64))
            .shards(self.0)
            .build_auto()
            .expect("harness build parameters are valid")
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sharded-{}", self.0)
    }
}

impl FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.strip_prefix("sharded-") {
            Some(n) => n
                .parse::<usize>()
                .map_err(|e| format!("bad shard count in '{s}': {e}"))
                .map(Topology),
            None => Err(format!("unknown topology '{s}' (expected sharded-<n>)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_names_round_trip() {
        for topology in Topology::ALL {
            assert_eq!(topology.to_string().parse::<Topology>(), Ok(topology));
        }
        assert!("single".parse::<Topology>().is_err());
        assert!("sharded".parse::<Topology>().is_err());
        assert!("sharded-x".parse::<Topology>().is_err());
    }

    #[test]
    fn every_topology_builds_and_serves() {
        for topology in Topology::ALL {
            let (_device, handle) = topology.build(128);
            assert_eq!(handle.shard_count(), topology.0);
            handle.insert(epst::Point::new(5, 9)).unwrap();
            assert_eq!(
                handle.query(0, 10, 1).unwrap(),
                vec![epst::Point::new(5, 9)]
            );
        }
    }
}
