//! Erasure-coding parameters.
//!
//! The paper (§2.1) lists an erasure-coded reliable caching layer as an
//! alternative to lineage re-execution and plain replication (citing
//! Carbink). The runtime prices systematic Reed-Solomon placement — `k`
//! data shards plus `m` parity shards, any `k` of which reconstruct the
//! object — without coding a byte: objects are sizes, so only the shard
//! count and size matter. Storage overhead is `(k + m) / k`, versus `r`
//! for `r`-way replication — the trade-off experiment E7 measures.

/// Erasure-coding configuration: `data` data shards + `parity` parity
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcConfig {
    /// Number of data shards (`k`).
    pub data: usize,
    /// Number of parity shards (`m`).
    pub parity: usize,
}

impl EcConfig {
    /// The common RS(4, 2) configuration.
    pub const RS_4_2: EcConfig = EcConfig { data: 4, parity: 2 };

    /// Total shard count.
    pub fn total(&self) -> usize {
        self.data + self.parity
    }

    /// Storage blow-up factor relative to the raw object.
    pub fn overhead(&self) -> f64 {
        self.total() as f64 / self.data as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!((EcConfig::RS_4_2.overhead() - 1.5).abs() < 1e-12);
        let rs63 = EcConfig { data: 6, parity: 3 };
        assert!((rs63.overhead() - 1.5).abs() < 1e-12);
    }
}
