use crate::error::DeviceError;
use crate::port::PortLayout;

/// Timing parameters of the device, in controller clock cycles.
///
/// The defaults follow the parameters commonly used in the 2013–2015
/// racetrack-memory literature (≈ 2 GHz controller clock, one cycle per
/// single-domain shift, SRAM-like port access latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Cycles to shift the tape by one domain position.
    pub shift_cycles: u64,
    /// Cycles for a read through an aligned port.
    pub read_cycles: u64,
    /// Cycles for a write through an aligned port.
    pub write_cycles: u64,
    /// Controller clock period in nanoseconds (for latency projection).
    pub clock_ns: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            shift_cycles: 1,
            read_cycles: 2,
            write_cycles: 2,
            clock_ns: 0.5,
        }
    }
}

/// Energy parameters of the device, in picojoules.
///
/// `shift_pj_per_track` is charged once per track per single-domain
/// shift; a DBC-level shift of distance `d` on a `W`-track cluster
/// therefore costs `d * W * shift_pj_per_track`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Energy to shift one track by one domain, in pJ.
    pub shift_pj_per_track: f64,
    /// Energy of one word read through an aligned port, in pJ.
    pub read_pj: f64,
    /// Energy of one word write through an aligned port, in pJ.
    pub write_pj: f64,
    /// Static leakage power in milliwatts (for energy projection over a
    /// simulated interval).
    pub leakage_mw: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            shift_pj_per_track: 0.02,
            read_pj: 0.5,
            write_pj: 0.7,
            leakage_mw: 0.1,
        }
    }
}

/// Validated geometry, timing, and energy description of a DWM array.
///
/// Construct with [`DeviceConfig::builder`]; the builder validates all
/// cross-parameter constraints (ports ≤ domains, nonzero sizes, word
/// width ≤ 64) so that a `DeviceConfig` in hand is always usable.
///
/// # Example
///
/// ```
/// use dwm_device::DeviceConfig;
///
/// let config = DeviceConfig::builder()
///     .domains_per_track(64)
///     .tracks_per_dbc(32)
///     .ports(2)
///     .build()?;
/// assert_eq!(config.words_per_dbc(), 64);
/// assert_eq!(config.port_layout().len(), 2);
/// # Ok::<(), dwm_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    domains_per_track: usize,
    tracks_per_dbc: usize,
    ports: PortLayout,
    dbcs: usize,
    timing: TimingConfig,
    energy: EnergyConfig,
}

impl DeviceConfig {
    /// Starts building a configuration from the literature defaults.
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder::new()
    }

    /// Number of data domains per track (`L`). Equals the number of
    /// addressable words per DBC.
    pub fn domains_per_track(&self) -> usize {
        self.domains_per_track
    }

    /// Number of tracks ganged into one DBC (`W`), i.e. the word width
    /// in bits.
    pub fn tracks_per_dbc(&self) -> usize {
        self.tracks_per_dbc
    }

    /// Number of addressable words in one DBC (alias for
    /// [`domains_per_track`](Self::domains_per_track)).
    pub fn words_per_dbc(&self) -> usize {
        self.domains_per_track
    }

    /// Number of DBCs in the array (scratchpad capacity =
    /// `dbcs * words_per_dbc` words).
    pub fn dbcs(&self) -> usize {
        self.dbcs
    }

    /// Total addressable words across all DBCs.
    pub fn capacity_words(&self) -> usize {
        self.dbcs * self.domains_per_track
    }

    /// The access-port layout shared by every DBC.
    pub fn port_layout(&self) -> &PortLayout {
        &self.ports
    }

    /// Timing parameters.
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// Energy parameters.
    pub fn energy(&self) -> &EnergyConfig {
        &self.energy
    }

    /// Number of *padding* domains each track needs beyond the data
    /// region so every word can reach every port.
    ///
    /// With ports at positions `p_0 < … < p_{k-1}` in `[0, L)`, the tape
    /// displacement ranges over `[-(L-1-p_0), p_{k-1}]` when the nearest
    /// port is always chosen, so the physical track must be longer than
    /// the data region by `overhead = (L-1-p_0) + p_{k-1}` domains. This
    /// is the classical capacity overhead of racetrack shifting; more
    /// ports reduce it.
    pub fn overhead_domains(&self) -> usize {
        let mut min_disp = 0i64;
        let mut max_disp = 0i64;
        for o in 0..self.domains_per_track {
            // Static nearest port (by position): the displacement range
            // actually exercised by the nearest-port policy.
            let disp = self
                .ports
                .positions()
                .iter()
                .map(|&p| o as i64 - p as i64)
                .min_by_key(|d| d.abs())
                .unwrap_or(0);
            min_disp = min_disp.min(disp);
            max_disp = max_disp.max(disp);
        }
        (max_disp - min_disp) as usize
    }

    /// Storage efficiency: data domains over total physical domains.
    pub fn storage_efficiency(&self) -> f64 {
        let l = self.domains_per_track as f64;
        l / (l + self.overhead_domains() as f64)
    }
}

impl Default for DeviceConfig {
    /// The default configuration used throughout the evaluation:
    /// 64-domain tracks, 32-track DBCs, a single port at offset 0,
    /// one DBC, and literature-default timing/energy.
    fn default() -> Self {
        DeviceConfig::builder()
            .build()
            .expect("default configuration is valid")
    }
}

/// Builder for [`DeviceConfig`]; see the type-level docs for an example.
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    domains_per_track: usize,
    tracks_per_dbc: usize,
    ports: Option<PortLayout>,
    port_count: usize,
    dbcs: usize,
    timing: TimingConfig,
    energy: EnergyConfig,
}

impl DeviceConfigBuilder {
    fn new() -> Self {
        DeviceConfigBuilder {
            domains_per_track: 64,
            tracks_per_dbc: 32,
            ports: None,
            port_count: 1,
            dbcs: 1,
            timing: TimingConfig::default(),
            energy: EnergyConfig::default(),
        }
    }

    /// Sets the number of data domains per track (`L`).
    pub fn domains_per_track(mut self, l: usize) -> Self {
        self.domains_per_track = l;
        self
    }

    /// Sets the number of tracks per DBC (`W`, the word width in bits).
    pub fn tracks_per_dbc(mut self, w: usize) -> Self {
        self.tracks_per_dbc = w;
        self
    }

    /// Uses `count` evenly spaced ports (positions computed by
    /// [`PortLayout::evenly_spaced`]). Overridden by
    /// [`port_positions`](Self::port_positions) if both are called.
    pub fn ports(mut self, count: usize) -> Self {
        self.port_count = count;
        self.ports = None;
        self
    }

    /// Uses explicit port positions (word offsets within the track).
    pub fn port_positions<I: IntoIterator<Item = usize>>(mut self, positions: I) -> Self {
        self.ports = Some(PortLayout::at_positions(positions));
        self
    }

    /// Sets the number of DBCs in the array.
    pub fn dbcs(mut self, dbcs: usize) -> Self {
        self.dbcs = dbcs;
        self
    }

    /// Overrides the timing parameters.
    pub fn timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the energy parameters.
    pub fn energy(mut self, energy: EnergyConfig) -> Self {
        self.energy = energy;
        self
    }

    /// Validates the parameters and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] when any of the following
    /// holds: `domains_per_track == 0`, `tracks_per_dbc == 0` or `> 64`,
    /// `dbcs == 0`, no ports, more ports than domains, a port position
    /// outside the data region, duplicate port positions, or
    /// non-positive timing/energy scale factors.
    pub fn build(self) -> Result<DeviceConfig, DeviceError> {
        let invalid = |parameter: &'static str, reason: String| DeviceError::InvalidConfig {
            parameter,
            reason,
        };
        if self.domains_per_track == 0 {
            return Err(invalid("domains_per_track", "must be nonzero".into()));
        }
        if self.tracks_per_dbc == 0 {
            return Err(invalid("tracks_per_dbc", "must be nonzero".into()));
        }
        if self.tracks_per_dbc > 64 {
            return Err(invalid(
                "tracks_per_dbc",
                format!(
                    "word width {} exceeds the 64-bit word model",
                    self.tracks_per_dbc
                ),
            ));
        }
        if self.dbcs == 0 {
            return Err(invalid("dbcs", "must be nonzero".into()));
        }
        let ports = self
            .ports
            .unwrap_or_else(|| PortLayout::evenly_spaced(self.port_count, self.domains_per_track));
        if ports.is_empty() {
            return Err(invalid("ports", "at least one access port required".into()));
        }
        if ports.len() > self.domains_per_track {
            return Err(invalid(
                "ports",
                format!(
                    "{} ports do not fit on a {}-domain track",
                    ports.len(),
                    self.domains_per_track
                ),
            ));
        }
        if let Some(&p) = ports
            .positions()
            .iter()
            .find(|&&p| p >= self.domains_per_track)
        {
            return Err(invalid(
                "ports",
                format!(
                    "port position {p} outside the {}-word data region",
                    self.domains_per_track
                ),
            ));
        }
        let mut sorted = ports.positions().to_vec();
        sorted.dedup();
        if sorted.len() != ports.len() {
            return Err(invalid("ports", "duplicate port positions".into()));
        }
        if self.timing.clock_ns.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(invalid("timing.clock_ns", "must be positive".into()));
        }
        for (name, v) in [
            ("energy.shift_pj_per_track", self.energy.shift_pj_per_track),
            ("energy.read_pj", self.energy.read_pj),
            ("energy.write_pj", self.energy.write_pj),
            ("energy.leakage_mw", self.energy.leakage_mw),
        ] {
            if v < 0.0 || !v.is_finite() {
                return Err(DeviceError::InvalidConfig {
                    parameter: match name {
                        "energy.shift_pj_per_track" => "energy.shift_pj_per_track",
                        "energy.read_pj" => "energy.read_pj",
                        "energy.write_pj" => "energy.write_pj",
                        _ => "energy.leakage_mw",
                    },
                    reason: "must be finite and non-negative".into(),
                });
            }
        }
        Ok(DeviceConfig {
            domains_per_track: self.domains_per_track,
            tracks_per_dbc: self.tracks_per_dbc,
            ports,
            dbcs: self.dbcs,
            timing: self.timing,
            energy: self.energy,
        })
    }
}

impl Default for DeviceConfigBuilder {
    fn default() -> Self {
        DeviceConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_single_ported() {
        let c = DeviceConfig::default();
        assert_eq!(c.domains_per_track(), 64);
        assert_eq!(c.tracks_per_dbc(), 32);
        assert_eq!(c.port_layout().len(), 1);
        assert_eq!(c.dbcs(), 1);
        assert_eq!(c.capacity_words(), 64);
    }

    #[test]
    fn zero_domains_rejected() {
        let err = DeviceConfig::builder().domains_per_track(0).build();
        assert!(matches!(
            err,
            Err(DeviceError::InvalidConfig {
                parameter: "domains_per_track",
                ..
            })
        ));
    }

    #[test]
    fn wide_words_rejected() {
        let err = DeviceConfig::builder().tracks_per_dbc(65).build();
        assert!(matches!(err, Err(DeviceError::InvalidConfig { .. })));
    }

    #[test]
    fn too_many_ports_rejected() {
        let err = DeviceConfig::builder()
            .domains_per_track(4)
            .ports(5)
            .build();
        assert!(matches!(err, Err(DeviceError::InvalidConfig { .. })));
    }

    #[test]
    fn port_position_outside_track_rejected() {
        let err = DeviceConfig::builder()
            .domains_per_track(8)
            .port_positions([9])
            .build();
        assert!(matches!(err, Err(DeviceError::InvalidConfig { .. })));
    }

    #[test]
    fn duplicate_port_positions_rejected() {
        let err = DeviceConfig::builder()
            .domains_per_track(8)
            .port_positions([2, 2])
            .build();
        assert!(matches!(err, Err(DeviceError::InvalidConfig { .. })));
    }

    #[test]
    fn overhead_shrinks_with_more_ports() {
        let one = DeviceConfig::builder()
            .domains_per_track(64)
            .ports(1)
            .build()
            .unwrap();
        let four = DeviceConfig::builder()
            .domains_per_track(64)
            .ports(4)
            .build()
            .unwrap();
        assert!(four.overhead_domains() < one.overhead_domains());
        assert!(four.storage_efficiency() > one.storage_efficiency());
    }

    #[test]
    fn negative_energy_rejected() {
        let err = DeviceConfig::builder()
            .energy(EnergyConfig {
                read_pj: -1.0,
                ..EnergyConfig::default()
            })
            .build();
        assert!(matches!(err, Err(DeviceError::InvalidConfig { .. })));
    }
}
