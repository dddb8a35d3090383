//! Serving configuration, validated like
//! [`FuzzyFdConfig`].

use fuzzy_fd_core::FuzzyFdConfig;

/// Configuration of a [`LakeServer`](crate::LakeServer) instance.
///
/// Sizing semantics follow the rest of the workspace: every count is an
/// explicit command, never a hint, and [`validate`](Self::validate) rejects
/// configurations the server cannot honour instead of silently clamping
/// them.  See `docs/OPERATIONS.md` for guidance on choosing values.
///
/// # Examples
///
/// ```
/// use lake_serve::ServePolicy;
///
/// let policy = ServePolicy { shards: 4, queue_depth: 8, ..ServePolicy::default() };
/// assert!(policy.validate().is_ok());
///
/// let broken = ServePolicy { shards: 0, ..ServePolicy::default() };
/// assert!(broken.validate().unwrap_err().contains("shards"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServePolicy {
    /// Number of lake shards.  Each shard owns one
    /// [`IntegrationSession`](fuzzy_fd_core::IntegrationSession) drained by
    /// a dedicated writer thread; table groups are routed to shards by name
    /// hash ([`route_group`](crate::route_group)).
    pub shards: usize,
    /// Bounded admission-queue depth per shard.  An ingest arriving at a
    /// full queue is rejected with `429 Too Many Requests` instead of
    /// queueing unboundedly.
    pub queue_depth: usize,
    /// Number of reader threads, each accepting and serving one connection
    /// at a time — also the bound on connections in flight (the rest wait
    /// in the kernel's listen backlog).  Readers only ever clone a shard's
    /// published snapshot, so they never block on (or are blocked by) writers.
    pub readers: usize,
    /// Advisory `Retry-After` (seconds) attached to `429` responses.
    pub retry_after_secs: u32,
    /// Integration configuration handed to every shard's session.
    pub integration: FuzzyFdConfig,
}

impl Default for ServePolicy {
    /// Two shards, depth-64 queues, two readers, 1-second retry hint,
    /// default integration config.
    fn default() -> Self {
        ServePolicy {
            shards: 2,
            queue_depth: 64,
            readers: 2,
            retry_after_secs: 1,
            integration: FuzzyFdConfig::default(),
        }
    }
}

impl ServePolicy {
    /// Validates the policy, returning a human-readable description of the
    /// first problem found (same contract as [`FuzzyFdConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if self.shards > 1024 {
            return Err(format!("shards must be at most 1024, got {}", self.shards));
        }
        if self.queue_depth == 0 {
            return Err("queue_depth must be at least 1".to_string());
        }
        if self.readers == 0 {
            return Err("readers must be at least 1".to_string());
        }
        if self.readers > 1024 {
            return Err(format!("readers must be at most 1024, got {}", self.readers));
        }
        self.integration.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        assert_eq!(ServePolicy::default().validate(), Ok(()));
    }

    #[test]
    fn zero_counts_are_rejected() {
        for (field, policy) in [
            ("shards", ServePolicy { shards: 0, ..ServePolicy::default() }),
            ("queue_depth", ServePolicy { queue_depth: 0, ..ServePolicy::default() }),
            ("readers", ServePolicy { readers: 0, ..ServePolicy::default() }),
        ] {
            let err = policy.validate().unwrap_err();
            assert!(err.contains(field), "error {err:?} does not name {field}");
        }
    }

    #[test]
    fn absurd_counts_are_rejected() {
        assert!(ServePolicy { shards: 5000, ..ServePolicy::default() }.validate().is_err());
        assert!(ServePolicy { readers: 5000, ..ServePolicy::default() }.validate().is_err());
    }

    #[test]
    fn invalid_integration_config_propagates() {
        // A threshold that would poison distance ordering mid-ingest on a
        // shard thread must be refused at start-up instead.
        for integration in [FuzzyFdConfig::with_theta(f32::NAN), FuzzyFdConfig::with_theta(2.5)] {
            let policy = ServePolicy { integration, ..ServePolicy::default() };
            assert!(policy.validate().is_err(), "{integration:?} passed validation");
        }
    }
}
