//! Budget-aware 1-in-N sampling policy for hybrid shadow protection.
//!
//! The paper's page-aliasing scheme protects *every* allocation; production
//! fleets (GWP-ASan) instead protect a sampled subset and accept
//! probabilistic detection in exchange for near-zero overhead. This module
//! is the decision layer: per allocation the detector asks
//! [`SamplingPolicy::decide`] whether the object gets a full shadow alias
//! (hidden word, registry entry, `PROT_NONE` on free) or is routed straight
//! to the inner allocator.
//!
//! Design points, in decreasing order of subtlety:
//!
//! - **Deterministic endpoints draw no randomness.** `N = 1` always
//!   protects and `N = ∞` ([`SamplingConfig::NEVER`]) never does; neither
//!   consults the RNG, so `N = 1` is an *identity* with the unsampled
//!   detector — same decisions, same RNG-free hot path, same trap reports —
//!   and the `sampled` marker in trap reports stays `false` for it.
//! - **Lint cooperation.** Sites the lint proved `ProvablySafe` never reach
//!   the policy: their allocations take the backend's unchecked path, so
//!   the budget is spent exclusively where the analysis could not rule out
//!   a dangling use.
//! - **Budgets are token buckets.** One bucket per size class and one per
//!   allocation site (the MiniC proxy for an alias class); a protection
//!   decision spends one token from each. Empty bucket → the allocation is
//!   skipped with `budget_exhausted`. Every `refill_window` candidate
//!   allocations all buckets refill to their caps.
//! - **Host-side only.** Decisions cost zero simulated cycles; the policy
//!   perturbs the machine clock only through the protection work it elides.

use crate::diag::SiteId;
use dangle_testkit::SeededRng;
use std::collections::HashMap;

/// Telemetry counter: allocations that received shadow protection while
/// sampling was enabled.
pub const COUNTER_PROTECTED: &str = "sampling.protected";
/// Telemetry counter: allocations routed to the unchecked fast path by the
/// sampling policy (this is distinct from `shadow.elided`, which counts
/// lint-driven elisions).
pub const COUNTER_SKIPPED: &str = "sampling.skipped";
/// Telemetry counter: skips caused specifically by an empty token bucket.
pub const COUNTER_BUDGET_EXHAUSTED: &str = "sampling.budget_exhausted";

/// Off-by-default configuration for [`SamplingPolicy`].
///
/// The default (`enabled: false`) makes every decision `Protect` without
/// touching RNG or budgets, so `Config::Ours` and the paper tables are
/// bit-for-bit unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Master switch; `false` means the policy is inert.
    pub enabled: bool,
    /// Protect one in `one_in` candidate allocations. `1` = always
    /// (deterministic), [`Self::NEVER`] = never (deterministic); anything in
    /// between is a seeded probabilistic draw.
    pub one_in: u64,
    /// Seed for the policy's [`SeededRng`]; runs reproduce exactly.
    pub seed: u64,
    /// Token cap per size class, or `None` for unlimited.
    pub class_tokens: Option<u32>,
    /// Token cap per allocation site (alias-class proxy), or `None` for
    /// unlimited.
    pub site_tokens: Option<u32>,
    /// Refill all buckets to their caps every this many candidate
    /// allocations; `0` disables refill.
    pub refill_window: u64,
}

impl SamplingConfig {
    /// `one_in` value meaning "never protect" (the N = ∞ sweep point).
    pub const NEVER: u64 = u64::MAX;

    /// Sampling disabled: the detector behaves exactly as before.
    pub fn off() -> SamplingConfig {
        SamplingConfig {
            enabled: false,
            one_in: 1,
            seed: 0x5eed_1e55,
            class_tokens: None,
            site_tokens: None,
            refill_window: 0,
        }
    }

    /// Enabled policy protecting one in `n` candidate allocations.
    pub fn one_in(n: u64) -> SamplingConfig {
        SamplingConfig {
            enabled: true,
            one_in: n.max(1),
            ..SamplingConfig::off()
        }
    }

    /// Same policy with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SamplingConfig {
        self.seed = seed;
        self
    }

    /// Same policy with per-size-class and per-site token caps refilled
    /// every `window` candidates.
    pub fn with_budgets(
        mut self,
        class_tokens: u32,
        site_tokens: u32,
        window: u64,
    ) -> SamplingConfig {
        self.class_tokens = Some(class_tokens);
        self.site_tokens = Some(site_tokens);
        self.refill_window = window;
        self
    }

    /// The configuration shard `shard` of a sharded pool should run.
    ///
    /// Shard 0 keeps the base seed so a 1-shard sharded detector is
    /// byte-identical to the flat one; later shards mix the shard index in
    /// with a golden-ratio stride so their draws are independent without
    /// any cross-shard state.
    pub fn for_shard(mut self, shard: usize) -> SamplingConfig {
        if shard > 0 {
            self.seed = self
                .seed
                .wrapping_add((shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        self
    }
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig::off()
    }
}

/// Outcome of one [`SamplingPolicy::decide`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleDecision {
    /// Give the allocation full page-aliasing protection. `sampled` is true
    /// only when the decision came from a probabilistic draw (1 < N < ∞) —
    /// deterministic N = 1 protection is indistinguishable from the
    /// unsampled detector and is not marked.
    Protect { sampled: bool },
    /// Route the allocation to the unchecked fast path.
    Skip { budget_exhausted: bool },
}

/// Stateful decision engine owned by each detector (one per shard in the
/// sharded pool, so there is no cross-shard contention).
#[derive(Clone, Debug)]
pub struct SamplingPolicy {
    config: SamplingConfig,
    rng: SeededRng,
    /// Candidate allocations seen (drives budget refill).
    candidates: u64,
    class_buckets: HashMap<usize, u32>,
    site_buckets: HashMap<SiteId, u32>,
}

impl SamplingPolicy {
    pub fn new(config: SamplingConfig) -> SamplingPolicy {
        SamplingPolicy {
            config,
            rng: SeededRng::new(config.seed),
            candidates: 0,
            class_buckets: HashMap::new(),
            site_buckets: HashMap::new(),
        }
    }

    /// Whether the policy does anything at all; detectors gate every
    /// sampling branch on this so the disabled hot path is unchanged.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Decide the fate of one allocation at `site` in the given size class.
    pub fn decide(&mut self, site: SiteId, size_class: usize) -> SampleDecision {
        if !self.config.enabled {
            return SampleDecision::Protect { sampled: false };
        }
        self.candidates += 1;
        let window = self.config.refill_window;
        if window > 0 && self.candidates.is_multiple_of(window) {
            // Buckets re-initialise lazily at their caps on next touch.
            self.class_buckets.clear();
            self.site_buckets.clear();
        }
        if self.config.one_in == SamplingConfig::NEVER {
            return SampleDecision::Skip {
                budget_exhausted: false,
            };
        }
        // N = 1 is deterministic full protection: no draw, no marker.
        let sampled = self.config.one_in > 1;
        if sampled && self.rng.below(self.config.one_in) != 0 {
            return SampleDecision::Skip {
                budget_exhausted: false,
            };
        }
        if !self.spend(size_class, site) {
            return SampleDecision::Skip {
                budget_exhausted: true,
            };
        }
        SampleDecision::Protect { sampled }
    }

    /// Spend one token from the class and site buckets; a decision only
    /// goes through when *both* have capacity, and neither is charged
    /// otherwise.
    fn spend(&mut self, size_class: usize, site: SiteId) -> bool {
        let class_left = match self.config.class_tokens {
            Some(cap) => *self.class_buckets.entry(size_class).or_insert(cap),
            None => 1,
        };
        let site_left = match self.config.site_tokens {
            Some(cap) => *self.site_buckets.entry(site).or_insert(cap),
            None => 1,
        };
        if class_left == 0 || site_left == 0 {
            return false;
        }
        if self.config.class_tokens.is_some() {
            *self.class_buckets.get_mut(&size_class).expect("entry exists") -= 1;
        }
        if self.config.site_tokens.is_some() {
            *self.site_buckets.get_mut(&site).expect("entry exists") -= 1;
        }
        true
    }
}

impl Default for SamplingPolicy {
    fn default() -> SamplingPolicy {
        SamplingPolicy::new(SamplingConfig::off())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(cfg: SamplingConfig, n: usize) -> Vec<SampleDecision> {
        let mut p = SamplingPolicy::new(cfg);
        (0..n)
            .map(|i| p.decide(SiteId(i as u32 % 7), i % 4))
            .collect()
    }

    #[test]
    fn disabled_policy_always_protects_unmarked() {
        let mut p = SamplingPolicy::new(SamplingConfig::off());
        for i in 0..100 {
            assert_eq!(
                p.decide(SiteId(i), 0),
                SampleDecision::Protect { sampled: false }
            );
        }
    }

    #[test]
    fn n1_protects_everything_without_touching_rng() {
        // Different seeds, identical decisions: N = 1 never draws.
        let a = decisions(SamplingConfig::one_in(1).with_seed(1), 500);
        let b = decisions(SamplingConfig::one_in(1).with_seed(999), 500);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|d| *d == SampleDecision::Protect { sampled: false }));
    }

    #[test]
    fn never_skips_everything_without_touching_rng() {
        let a = decisions(SamplingConfig::one_in(SamplingConfig::NEVER).with_seed(1), 500);
        let b = decisions(
            SamplingConfig::one_in(SamplingConfig::NEVER).with_seed(999),
            500,
        );
        assert_eq!(a, b);
        assert!(a.iter().all(|d| *d
            == SampleDecision::Skip {
                budget_exhausted: false
            }));
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let cfg = SamplingConfig::one_in(8).with_seed(0xfeed);
        assert_eq!(decisions(cfg, 2000), decisions(cfg, 2000));
        assert_ne!(decisions(cfg, 2000), decisions(cfg.with_seed(0xbeef), 2000));
    }

    #[test]
    fn one_in_n_hits_at_roughly_the_requested_rate() {
        let hits = decisions(SamplingConfig::one_in(8).with_seed(42), 16_000)
            .iter()
            .filter(|d| matches!(d, SampleDecision::Protect { .. }))
            .count();
        // Expect ~2000; allow generous slack, this is a sanity bound.
        assert!((1000..4000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn probabilistic_protections_carry_the_sampled_marker() {
        for d in decisions(SamplingConfig::one_in(4).with_seed(3), 1000) {
            if let SampleDecision::Protect { sampled } = d {
                assert!(sampled);
            }
        }
    }

    #[test]
    fn budgets_exhaust_then_refill() {
        let cfg = SamplingConfig::one_in(1).with_budgets(2, 2, 6);
        let mut p = SamplingPolicy::new(cfg);
        let d: Vec<_> = (0..6)
            .map(|_| p.decide(SiteId(1), 0))
            .collect();
        assert_eq!(d[0], SampleDecision::Protect { sampled: false });
        assert_eq!(d[1], SampleDecision::Protect { sampled: false });
        assert_eq!(
            d[2],
            SampleDecision::Skip {
                budget_exhausted: true
            }
        );
        assert_eq!(
            d[4],
            SampleDecision::Skip {
                budget_exhausted: true
            }
        );
        // The 6th candidate crosses the refill window: buckets are full
        // again before its own decision.
        assert_eq!(d[5], SampleDecision::Protect { sampled: false });
    }

    #[test]
    fn class_and_site_budgets_are_independent() {
        let cfg = SamplingConfig::one_in(1).with_budgets(8, 1, 0);
        let mut p = SamplingPolicy::new(cfg);
        assert_eq!(
            p.decide(SiteId(1), 0),
            SampleDecision::Protect { sampled: false }
        );
        // Same site: site bucket empty even though the class has tokens.
        assert_eq!(
            p.decide(SiteId(1), 1),
            SampleDecision::Skip {
                budget_exhausted: true
            }
        );
        // Fresh site in a fresh class still goes through.
        assert_eq!(
            p.decide(SiteId(2), 2),
            SampleDecision::Protect { sampled: false }
        );
    }

    #[test]
    fn exhausted_site_does_not_drain_the_class_bucket() {
        let cfg = SamplingConfig::one_in(1).with_budgets(2, 1, 0);
        let mut p = SamplingPolicy::new(cfg);
        assert!(matches!(
            p.decide(SiteId(1), 0),
            SampleDecision::Protect { .. }
        ));
        // Site 1 is dry; the failed spends must not charge class 0.
        for _ in 0..5 {
            assert!(matches!(
                p.decide(SiteId(1), 0),
                SampleDecision::Skip {
                    budget_exhausted: true
                }
            ));
        }
        assert!(matches!(
            p.decide(SiteId(2), 0),
            SampleDecision::Protect { .. }
        ));
    }

    #[test]
    fn shard_zero_keeps_the_base_seed() {
        let cfg = SamplingConfig::one_in(8).with_seed(0xabc);
        assert_eq!(cfg.for_shard(0), cfg);
        assert_ne!(cfg.for_shard(1), cfg);
        assert_ne!(cfg.for_shard(1), cfg.for_shard(2));
    }
}
