//! Output digests: 64-bit FNV-1a over the bytes a pipeline produces.
//!
//! Digests are compared against the reference values in
//! `reference.txt`, so they must be a pure function of the outputs:
//! no hasher state from the process, no addresses, no map iteration
//! order.

use std::fmt::Write as _;

use sdfs_simkit::CounterSet;
use sdfs_trace::Record;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher that also accepts formatted text.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a rendered report.
pub fn text(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.finish()
}

/// Digest of a merged record stream (every field, in stream order).
pub fn records(records: &[Record]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        let _ = writeln!(h, "{r:?}");
    }
    h.finish()
}

/// Digest of the final per-client and per-server counter sets, in
/// machine order.
pub fn counters<'a>(
    clients: impl IntoIterator<Item = &'a CounterSet>,
    servers: impl IntoIterator<Item = &'a CounterSet>,
) -> u64 {
    let mut h = Fnv::new();
    for (tag, sets) in [
        ("client", clients.into_iter().collect::<Vec<_>>()),
        ("server", servers.into_iter().collect()),
    ] {
        for (i, set) in sets.iter().enumerate() {
            let _ = writeln!(h, "{tag} {i}");
            for (name, value) in set.iter() {
                let _ = writeln!(h, "{name}={value}");
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(text(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(text("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(text("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn counter_digest_depends_on_machine_order() {
        let mut a = CounterSet::new();
        a.add("cache.read.ops", 3);
        let b = CounterSet::new();
        assert_ne!(counters([&a, &b], []), counters([&b, &a], []));
        assert_ne!(counters([&a], []), counters([], [&a]));
    }
}
