//! Kernel configuration knobs.

use crate::time::VTime;

/// A configuration value the builders refuse to accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `checkpoint_interval` was zero (state could never be saved, so
    /// rollback would be impossible).
    ZeroCheckpointInterval,
    /// `gvt_period` was zero (GVT would never advance).
    ZeroGvtPeriod,
    /// A cost-model field that scales work was zero, which would collapse
    /// the modeled time axis. The field name is included.
    ZeroCost(&'static str),
    /// `nodes`/`clusters` was zero — nowhere to run.
    ZeroNodes,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint_interval must be >= 1")
            }
            ConfigError::ZeroGvtPeriod => write!(f, "gvt_period must be >= 1"),
            ConfigError::ZeroCost(field) => {
                write!(f, "cost model field `{field}` must be >= 1")
            }
            ConfigError::ZeroNodes => write!(f, "node/cluster count must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How rolled-back output events are cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cancellation {
    /// Send anti-messages immediately on rollback (Jefferson's original
    /// scheme; WARPED's default).
    #[default]
    Aggressive,
    /// Hold anti-messages back: if re-execution regenerates an identical
    /// event, both are dropped ("lazy cancellation"); an anti-message goes
    /// out only once the LP's local clock passes the held event's send
    /// time without regenerating it.
    Lazy,
}

/// Configuration shared by the optimistic executives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Cancellation strategy.
    pub cancellation: Cancellation,
    /// Save LP state every `checkpoint_interval` event batches (1 = every
    /// batch; larger values trade rollback cost — coast-forward
    /// re-execution — for state-queue memory).
    pub checkpoint_interval: u32,
    /// Trigger a GVT round every `gvt_period` executed batches per
    /// cluster/node.
    pub gvt_period: u64,
    /// Bounded-window optimism control: when set, an LP may only execute
    /// events with `recv_time <= GVT + window` (using the last computed
    /// GVT). `None` is pure, unthrottled Time Warp — the paper's setting.
    /// Throttling trades idle time for fewer rollbacks; the window is
    /// measured in virtual-time units. Honoured by the virtual-platform
    /// and threaded executives.
    pub window: Option<u64>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cancellation: Cancellation::Aggressive,
            checkpoint_interval: 1,
            gvt_period: 512,
            window: None,
        }
    }
}

impl KernelConfig {
    /// Validate and clamp nonsensical values (0 intervals become 1).
    pub fn normalized(mut self) -> KernelConfig {
        if self.checkpoint_interval == 0 {
            self.checkpoint_interval = 1;
        }
        if self.gvt_period == 0 {
            self.gvt_period = 1;
        }
        self
    }

    /// The optimism horizon after a GVT round agreed on `gvt`: the latest
    /// receive time an LP may execute (unbounded without a window).
    pub(crate) fn horizon(&self, gvt: VTime) -> VTime {
        match self.window {
            Some(w) => gvt.after(w),
            None => VTime::INF,
        }
    }

    /// Start a validated builder (preferred over struct literals: invalid
    /// values are rejected with a [`ConfigError`] instead of silently
    /// clamped).
    pub fn builder() -> KernelConfigBuilder {
        KernelConfigBuilder { cfg: KernelConfig::default() }
    }
}

/// Validated builder for [`KernelConfig`]; see [`KernelConfig::builder`].
#[derive(Debug, Clone)]
pub struct KernelConfigBuilder {
    cfg: KernelConfig,
}

impl KernelConfigBuilder {
    /// Set the cancellation strategy.
    pub fn cancellation(mut self, c: Cancellation) -> Self {
        self.cfg.cancellation = c;
        self
    }

    /// Save state every `n` batches (must be >= 1).
    pub fn checkpoint_interval(mut self, n: u32) -> Self {
        self.cfg.checkpoint_interval = n;
        self
    }

    /// Run a GVT round every `n` batches per cluster/node (must be >= 1).
    pub fn gvt_period(mut self, n: u64) -> Self {
        self.cfg.gvt_period = n;
        self
    }

    /// Bound optimism to `GVT + w` virtual-time units (`None` = unbounded).
    pub fn window(mut self, w: Option<u64>) -> Self {
        self.cfg.window = w;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<KernelConfig, ConfigError> {
        if self.cfg.checkpoint_interval == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.cfg.gvt_period == 0 {
            return Err(ConfigError::ZeroGvtPeriod);
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = KernelConfig::default();
        assert_eq!(c.cancellation, Cancellation::Aggressive);
        assert_eq!(c.checkpoint_interval, 1);
        assert!(c.gvt_period > 0);
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = KernelConfig { checkpoint_interval: 0, gvt_period: 0, ..Default::default() }
            .normalized();
        assert_eq!(c.checkpoint_interval, 1);
        assert_eq!(c.gvt_period, 1);
    }

    #[test]
    fn builder_accepts_valid_values() {
        let c = KernelConfig::builder()
            .cancellation(Cancellation::Lazy)
            .checkpoint_interval(4)
            .gvt_period(64)
            .window(Some(8))
            .build()
            .unwrap();
        assert_eq!(c.cancellation, Cancellation::Lazy);
        assert_eq!(c.checkpoint_interval, 4);
        assert_eq!(c.gvt_period, 64);
        assert_eq!(c.window, Some(8));
    }

    #[test]
    fn builder_rejects_zero_checkpoint_interval() {
        let err = KernelConfig::builder().checkpoint_interval(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroCheckpointInterval);
    }

    #[test]
    fn builder_rejects_zero_gvt_period() {
        let err = KernelConfig::builder().gvt_period(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroGvtPeriod);
    }
}
