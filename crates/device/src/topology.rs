//! Topology-parametric track geometry: the single source of truth for
//! "what does one shift cost, and which port serves this access".
//!
//! The paper's model is a 1D racetrack with fixed ports, but the
//! related work changes the geometry — and with it the meaning of
//! shift distance, hence what an optimal placement is:
//!
//! * [`Linear`] — today's semantics: a finite tape shifting under fixed
//!   ports; moving from word `a` to word `b` costs `|a − b|` steps on a
//!   single-port track (the minimum-linear-arrangement objective).
//! * [`Ring`] — a circular track: the domain train wraps, so the tape
//!   can always take the shorter of the two directions.
//! * [`Grid2d`] — XDWM-style orthogonal shift axes: words live on an
//!   `rows × cols` grid; longitudinal (column) and transverse (row)
//!   moves have independent per-axis step costs.
//! * [`Pirm`] — PIRM-style multi-domain transverse access: the track is
//!   tiled into fixed windows; a transverse head reads a whole aligned
//!   window, so intra-window moves are free and the tape advances in
//!   window-sized hops.
//!
//! Every geometry implements [`TrackTopology`]: pairwise
//! [`shift_distance`](TrackTopology::shift_distance) (the metric
//! placement optimizes), per-access [`plan`](TrackTopology::plan)
//! (access-port resolution + tape-state update, the replay inner loop),
//! and relative energy/wear weights per shift step. The cost model in
//! `dwm-core` (`TopologyCost`), the simulator in `dwm-sim`, and the
//! bit-level [`Dbc`](crate::Dbc) in this crate all consume this module
//! instead of re-deriving port arithmetic — [`Linear`] reproduces the
//! pre-topology behaviour byte-for-byte (golden-pinned by the workspace
//! integration tests).

use std::fmt;

use crate::port::{PortId, PortLayout};
use crate::stats::ShiftStats;

/// Generalized tape state across topologies.
///
/// `Linear` and `Ring` use only the longitudinal component (the classic
/// displacement); `Grid2d` adds the transverse row displacement; `Pirm`
/// tracks displacement in window units. A fresh track is at
/// [`rest`](TapeState::rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TapeState {
    /// Longitudinal displacement (domains, or windows for [`Pirm`]).
    pub longitudinal: i64,
    /// Transverse displacement (rows; zero except for [`Grid2d`]).
    pub transverse: i64,
}

impl TapeState {
    /// The rest state of a fresh track (no displacement on any axis).
    pub fn rest() -> Self {
        TapeState::default()
    }
}

/// Resolution of one access under a topology: the chosen port, the
/// weighted shift distance, and the tape state afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyPlan {
    /// Port chosen to serve the access (nearest-port policy, ties to
    /// the lowest-numbered port).
    pub port: PortId,
    /// Shift steps the access costs, already weighted by per-axis step
    /// costs where the topology has them.
    pub distance: u64,
    /// Tape state after the access completes.
    pub state: TapeState,
}

/// Discriminant of the four built-in topologies, used for metric labels
/// and dispatch tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Finite 1D tape (the paper's model).
    Linear,
    /// Circular 1D track.
    Ring,
    /// 2D grid with orthogonal shift axes (XDWM).
    Grid2d,
    /// Multi-domain transverse access windows (PIRM).
    Pirm,
}

impl TopologyKind {
    /// All four kinds, in canonical order (stable metric-label order).
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::Linear,
        TopologyKind::Ring,
        TopologyKind::Grid2d,
        TopologyKind::Pirm,
    ];

    /// Stable lower-case label (`"linear"`, `"ring"`, …).
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Linear => "linear",
            TopologyKind::Ring => "ring",
            TopologyKind::Grid2d => "grid2d",
            TopologyKind::Pirm => "pirm",
        }
    }

    /// Index into [`TopologyKind::ALL`] (stable across releases).
    pub fn index(self) -> usize {
        match self {
            TopologyKind::Linear => 0,
            TopologyKind::Ring => 1,
            TopologyKind::Grid2d => 2,
            TopologyKind::Pirm => 3,
        }
    }
}

/// A track geometry: shift-distance metric, access-port resolution, and
/// energy/wear weights.
///
/// `len` is the number of addressable words on the track (the DBC's
/// `L`); implementations must be total for any `len ≥ 1` and any
/// `offset < len`. All implementations use integer arithmetic only, so
/// replay is byte-deterministic at any thread count.
pub trait TrackTopology {
    /// Which of the four geometries this is.
    fn kind(&self) -> TopologyKind;

    /// Canonical parameter string (`"linear"`, `"ring"`,
    /// `"grid2d:4x16"`, `"pirm:4"`). Feeds cache identity: two
    /// topologies with equal canonical strings are interchangeable.
    fn canonical(&self) -> String;

    /// Resolves one access: the port minimizing weighted shift distance
    /// from `state` (ties to the lowest-numbered port) and the state
    /// after aligning `offset` with it.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ports` is empty (validated
    /// configurations always have at least one port).
    fn plan(&self, ports: &PortLayout, len: usize, state: TapeState, offset: usize)
        -> TopologyPlan;

    /// Steady-state pairwise shift distance from word `from` to word
    /// `to`: the cost of serving `to` when the tape last served `from`
    /// (reached from rest). This is the edge metric placement
    /// optimizes; for [`Linear`] with a single port it is `|from − to|`.
    fn shift_distance(&self, ports: &PortLayout, len: usize, from: usize, to: usize) -> u64 {
        let aligned = self.plan(ports, len, TapeState::rest(), from).state;
        self.plan(ports, len, aligned, to).distance
    }

    /// Energy per counted shift step, relative to a linear longitudinal
    /// single-domain step (1.0). Model parameter, not a measurement.
    fn shift_energy_weight(&self) -> f64 {
        1.0
    }

    /// Wear per counted shift step, relative to linear (1.0). Model
    /// parameter, not a measurement.
    fn wear_weight(&self) -> f64 {
        1.0
    }

    /// Wear units accumulated by the counted activity: shift steps
    /// scaled by this topology's per-step wear weight.
    fn wear_units(&self, stats: &ShiftStats) -> f64 {
        stats.shifts as f64 * self.wear_weight()
    }
}

/// Today's semantics: a finite 1D tape under fixed ports. An access
/// aligns its word with the nearest port
/// ([`PortLayout::nearest_port`]); the tape's displacement afterwards
/// is [`PortLayout::required_displacement`]. With a single port at
/// offset 0 the distance is `|from − to|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Linear;

impl TrackTopology for Linear {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Linear
    }

    fn canonical(&self) -> String {
        "linear".into()
    }

    #[inline]
    fn plan(
        &self,
        ports: &PortLayout,
        _len: usize,
        state: TapeState,
        offset: usize,
    ) -> TopologyPlan {
        let (port, distance) = ports.nearest_port(offset, state.longitudinal);
        TopologyPlan {
            port,
            distance,
            state: TapeState {
                longitudinal: ports.required_displacement(offset, port),
                transverse: 0,
            },
        }
    }
}

/// Circular track: the domain train wraps at the track boundary, so a
/// shift may take either direction and the cost is the minimum of the
/// two. Distances are computed modulo `len`; with a single port the
/// metric is the circular distance `min(|a − b|, len − |a − b|)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ring;

impl TrackTopology for Ring {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Ring
    }

    fn canonical(&self) -> String {
        "ring".into()
    }

    fn plan(
        &self,
        ports: &PortLayout,
        len: usize,
        state: TapeState,
        offset: usize,
    ) -> TopologyPlan {
        let modulus = len.max(1) as i64;
        let current = state.longitudinal.rem_euclid(modulus);
        let (port, distance, target) = ports
            .iter()
            .map(|(id, p)| {
                let target = (offset as i64 - p as i64).rem_euclid(modulus);
                let forward = (target - current).rem_euclid(modulus);
                (id, forward.min(modulus - forward).max(0) as u64, target)
            })
            .min_by_key(|&(id, d, _)| (d, id))
            .expect("port layout must not be empty");
        TopologyPlan {
            port,
            distance,
            state: TapeState {
                longitudinal: target,
                transverse: 0,
            },
        }
    }
}

/// XDWM-style 2D grid: word `o` lives at row `o / cols`, column
/// `o % cols`. Ports sit along the column axis; aligning an access
/// moves the tape longitudinally (columns) and a transverse head
/// assembly across rows, each axis with its own per-step cost.
///
/// With one row the transverse term is always zero and the grid
/// degenerates byte-for-byte to [`Linear`] (a topology law pinned by
/// the workspace property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2d {
    /// Number of rows (transverse extent).
    pub rows: usize,
    /// Number of columns (longitudinal extent; `rows × cols` should
    /// cover the track's word count).
    pub cols: usize,
    /// Cost of one transverse (row) step, in linear-step units. The
    /// default of 2 models the slower orthogonal shift path reported
    /// for XDWM-class designs.
    pub row_cost: u64,
    /// Cost of one longitudinal (column) step. Default 1.
    pub col_cost: u64,
}

impl Grid2d {
    /// Grid with the default per-axis costs (row steps cost 2 linear
    /// steps, column steps cost 1).
    pub fn new(rows: usize, cols: usize) -> Self {
        Grid2d {
            rows: rows.max(1),
            cols: cols.max(1),
            row_cost: 2,
            col_cost: 1,
        }
    }

    /// Grid with explicit per-axis step costs.
    pub fn with_costs(rows: usize, cols: usize, row_cost: u64, col_cost: u64) -> Self {
        Grid2d {
            rows: rows.max(1),
            cols: cols.max(1),
            row_cost,
            col_cost,
        }
    }
}

impl TrackTopology for Grid2d {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Grid2d
    }

    fn canonical(&self) -> String {
        format!("grid2d:{}x{}", self.rows, self.cols)
    }

    fn plan(
        &self,
        ports: &PortLayout,
        _len: usize,
        state: TapeState,
        offset: usize,
    ) -> TopologyPlan {
        let cols = self.cols as i64;
        let (row, col) = ((offset as i64) / cols, (offset as i64) % cols);
        let (port, distance, target) = ports
            .iter()
            .map(|(id, p)| {
                // Port positions are column offsets; aligning column
                // `col` with port `p` needs longitudinal displacement
                // `col − p`, plus the transverse move to `row`.
                let target = col - p as i64;
                let d = self.col_cost * target.abs_diff(state.longitudinal)
                    + self.row_cost * row.abs_diff(state.transverse);
                (id, d, target)
            })
            .min_by_key(|&(id, d, _)| (d, id))
            .expect("port layout must not be empty");
        TopologyPlan {
            port,
            distance,
            state: TapeState {
                longitudinal: target,
                transverse: row,
            },
        }
    }
}

/// PIRM-style multi-domain transverse access: the track is tiled into
/// contiguous windows of `window` words; a transverse head reads a
/// whole aligned window at once. Moving between windows costs `window`
/// longitudinal steps per hop; moves inside the aligned window are
/// free. The wider transverse head moves more domain walls per step, so
/// each counted step carries an energy/wear premium (model parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pirm {
    /// Words per transverse access window (≥ 1).
    pub window: usize,
}

impl Pirm {
    /// The default window of 4 words (the multi-domain access width the
    /// PIRM evaluation uses).
    pub const DEFAULT_WINDOW: usize = 4;

    /// PIRM topology with the given access-window width.
    pub fn new(window: usize) -> Self {
        Pirm {
            window: window.max(1),
        }
    }
}

impl Default for Pirm {
    fn default() -> Self {
        Pirm::new(Pirm::DEFAULT_WINDOW)
    }
}

impl TrackTopology for Pirm {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Pirm
    }

    fn canonical(&self) -> String {
        format!("pirm:{}", self.window)
    }

    fn plan(
        &self,
        ports: &PortLayout,
        _len: usize,
        state: TapeState,
        offset: usize,
    ) -> TopologyPlan {
        let w = self.window as i64;
        let win = offset as i64 / w;
        let (port, distance, target) = ports
            .iter()
            .map(|(id, p)| {
                // The tape state counts displacement in window units;
                // ports are quantized to the window that sits under
                // their transverse head at rest.
                let target = win - p as i64 / w;
                let d = (w as u64) * target.abs_diff(state.longitudinal);
                (id, d, target)
            })
            .min_by_key(|&(id, d, _)| (d, id))
            .expect("port layout must not be empty");
        TopologyPlan {
            port,
            distance,
            state: TapeState {
                longitudinal: target,
                transverse: 0,
            },
        }
    }

    fn shift_energy_weight(&self) -> f64 {
        1.5
    }

    fn wear_weight(&self) -> f64 {
        1.5
    }
}

/// A concrete topology value: the four geometries behind one cloneable,
/// parseable type. Implements [`TrackTopology`] by delegation, so code
/// can hold a `Topology` by value instead of a trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Finite 1D tape (default, the paper's model).
    Linear(Linear),
    /// Circular track.
    Ring(Ring),
    /// 2D grid with orthogonal shift axes.
    Grid2d(Grid2d),
    /// Multi-domain transverse access windows.
    Pirm(Pirm),
}

impl Default for Topology {
    fn default() -> Self {
        Topology::Linear(Linear)
    }
}

impl Topology {
    /// The linear default (today's semantics).
    pub fn linear() -> Self {
        Topology::default()
    }

    /// Whether this is the linear default — the case every legacy code
    /// path must keep byte-identical.
    pub fn is_linear(&self) -> bool {
        matches!(self, Topology::Linear(_))
    }

    /// Parses the CLI/wire grammar:
    /// `linear | ring | grid2d:<rows>x<cols> | pirm[:<window>]`.
    ///
    /// # Errors
    ///
    /// A one-line message naming the grammar on any malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        fn positive(text: &str, what: &str) -> Result<usize, String> {
            match text.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{what} must be a positive integer, got {text:?}")),
            }
        }
        let spec = spec.trim();
        match spec {
            "linear" => Ok(Topology::Linear(Linear)),
            "ring" => Ok(Topology::Ring(Ring)),
            "pirm" => Ok(Topology::Pirm(Pirm::default())),
            _ => {
                if let Some(dims) = spec.strip_prefix("grid2d:") {
                    let (rows, cols) = dims.split_once('x').ok_or_else(|| {
                        format!("grid2d spec must look like grid2d:<rows>x<cols>, got {spec:?}")
                    })?;
                    return Ok(Topology::Grid2d(Grid2d::new(
                        positive(rows, "grid2d rows")?,
                        positive(cols, "grid2d cols")?,
                    )));
                }
                if let Some(window) = spec.strip_prefix("pirm:") {
                    return Ok(Topology::Pirm(Pirm::new(positive(window, "pirm window")?)));
                }
                Err(format!(
                    "unknown topology {spec:?} (expected \"linear\", \"ring\", \
                     \"grid2d:<rows>x<cols>\", or \"pirm[:<window>]\")"
                ))
            }
        }
    }

    /// Checks that the geometry can address a track of `len` words
    /// (grid dimensions must cover `len`; others are always valid).
    ///
    /// # Errors
    ///
    /// A one-line message on a grid that cannot hold `len` words.
    pub fn validate_for(&self, len: usize) -> Result<(), String> {
        if let Topology::Grid2d(g) = self {
            if g.rows * g.cols < len {
                return Err(format!(
                    "grid2d:{}x{} holds {} words but the track needs {len}",
                    g.rows,
                    g.cols,
                    g.rows * g.cols
                ));
            }
        }
        Ok(())
    }

    /// Where `count` evenly spaced ports sit on a track of `len` words
    /// under this topology. Grid ports are column offsets, so on
    /// `grid2d` they spread over the columns the track occupies
    /// (`min(cols, len)`); everywhere else over the whole track. One
    /// port sits at offset 0 either way (see
    /// [`PortLayout::evenly_spaced`]).
    pub fn evenly_spaced_ports(&self, count: usize, len: usize) -> PortLayout {
        let span = match self {
            Topology::Grid2d(g) => g.cols.min(len),
            _ => len,
        };
        PortLayout::evenly_spaced(count, span)
    }

    fn as_dyn(&self) -> &dyn TrackTopology {
        match self {
            Topology::Linear(t) => t,
            Topology::Ring(t) => t,
            Topology::Grid2d(t) => t,
            Topology::Pirm(t) => t,
        }
    }
}

impl TrackTopology for Topology {
    fn kind(&self) -> TopologyKind {
        self.as_dyn().kind()
    }

    fn canonical(&self) -> String {
        self.as_dyn().canonical()
    }

    fn plan(
        &self,
        ports: &PortLayout,
        len: usize,
        state: TapeState,
        offset: usize,
    ) -> TopologyPlan {
        self.as_dyn().plan(ports, len, state, offset)
    }

    fn shift_distance(&self, ports: &PortLayout, len: usize, from: usize, to: usize) -> u64 {
        self.as_dyn().shift_distance(ports, len, from, to)
    }

    fn shift_energy_weight(&self) -> f64 {
        self.as_dyn().shift_energy_weight()
    }

    fn wear_weight(&self) -> f64 {
        self.as_dyn().wear_weight()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// Stateful trace replay through a topology: the inner loop every cost
/// model and analytic simulator shares. Feeding offsets in access order
/// and recording into a [`ShiftStats`] reproduces exactly what the
/// matching bit-level replay would count (for [`Linear`], golden-pinned
/// against the pre-topology code).
#[derive(Debug, Clone)]
pub struct TopologyReplayer<'a> {
    topology: &'a Topology,
    ports: &'a PortLayout,
    len: usize,
    state: TapeState,
}

impl<'a> TopologyReplayer<'a> {
    /// A replayer at rest for a track of `len` words.
    pub fn new(topology: &'a Topology, ports: &'a PortLayout, len: usize) -> Self {
        TopologyReplayer {
            topology,
            ports,
            len,
            state: TapeState::rest(),
        }
    }

    /// The current tape state.
    pub fn state(&self) -> TapeState {
        self.state
    }

    /// Serves one access, returning its shift distance and advancing
    /// the tape state.
    pub fn access(&mut self, offset: usize) -> u64 {
        let plan = self.topology.plan(self.ports, self.len, self.state, offset);
        self.state = plan.state;
        plan.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spaced_ports_stay_inside_the_grid_columns() {
        let grid = Topology::parse("grid2d:4x8").unwrap();
        assert_eq!(grid.evenly_spaced_ports(2, 32).positions(), &[2, 6]);
        assert_eq!(grid.evenly_spaced_ports(1, 32).positions(), &[0]);
        // A one-row grid spans the track, so its ports are linear's.
        let row = Topology::parse("grid2d:1x64").unwrap();
        for n in [1, 2, 4] {
            assert_eq!(
                row.evenly_spaced_ports(n, 32),
                Topology::linear().evenly_spaced_ports(n, 32)
            );
        }
        let ring = Topology::parse("ring").unwrap();
        assert_eq!(ring.evenly_spaced_ports(2, 32).positions(), &[8, 24]);
    }

    fn single() -> PortLayout {
        PortLayout::single()
    }

    #[test]
    fn linear_plan_picks_the_nearest_port_and_moves_the_tape() {
        let ports = PortLayout::at_positions([0, 8]);
        // From rest, word 7 is one step from the port at 8: the tape
        // moves to displacement 7 − 8 = −1.
        let p1 = Linear.plan(&ports, 16, TapeState::rest(), 7);
        assert_eq!((p1.port, p1.distance), (PortId(1), 1));
        assert_eq!(p1.state.longitudinal, -1);
        // Word 0 via port 0 needs displacement 0: one step from −1.
        let p2 = Linear.plan(&ports, 16, p1.state, 0);
        assert_eq!((p2.port, p2.distance), (PortId(0), 1));
        assert_eq!(p2.state, TapeState::rest());
        // A single port at 0 charges |from − to|.
        for (a, b) in [(4usize, 9usize), (9, 1), (1, 1)] {
            assert_eq!(
                Linear.shift_distance(&single(), 16, a, b),
                a.abs_diff(b) as u64
            );
        }
    }

    #[test]
    fn ring_distance_is_circular_and_symmetric() {
        let len = 16;
        for a in 0..len {
            for b in 0..len {
                let d = Ring.shift_distance(&single(), len, a, b);
                let lin = a.abs_diff(b) as u64;
                assert_eq!(d, lin.min(len as u64 - lin), "a={a} b={b}");
                assert_eq!(d, Ring.shift_distance(&single(), len, b, a));
                assert!(d <= Linear.shift_distance(&single(), len, a, b));
            }
        }
    }

    #[test]
    fn ring_wraps_the_short_way_on_replay() {
        // 0 → 15 on a 16-ring: one step backwards, not 15 forwards.
        let topo = Topology::Ring(Ring);
        let ports = single();
        let mut r = TopologyReplayer::new(&topo, &ports, 16);
        assert_eq!(r.access(0), 0);
        assert_eq!(r.access(15), 1);
        assert_eq!(r.access(1), 2);
    }

    #[test]
    fn grid2d_single_row_equals_linear() {
        let g = Grid2d::new(1, 64);
        let ports = PortLayout::at_positions([0, 32]);
        let mut gs = TapeState::rest();
        let mut ls = TapeState::rest();
        for offset in [5usize, 60, 33, 0, 17, 63] {
            let gp = g.plan(&ports, 64, gs, offset);
            let lp = Linear.plan(&ports, 64, ls, offset);
            assert_eq!((gp.port, gp.distance), (lp.port, lp.distance));
            gs = gp.state;
            ls = lp.state;
        }
    }

    #[test]
    fn grid2d_charges_per_axis_costs() {
        // 4×4 grid, default costs (row 2, col 1): from rest, word 5 is
        // row 1 col 1 → 1 column step + 1 row step = 1 + 2.
        let g = Grid2d::new(4, 4);
        let plan = g.plan(&single(), 16, TapeState::rest(), 5);
        assert_eq!(plan.distance, 3);
        assert_eq!(plan.state.longitudinal, 1);
        assert_eq!(plan.state.transverse, 1);
        // Staying in the row only pays columns.
        assert_eq!(g.plan(&single(), 16, plan.state, 7).distance, 2);
    }

    #[test]
    fn pirm_intra_window_moves_are_free() {
        let topo = Topology::Pirm(Pirm::new(4));
        let ports = single();
        let mut r = TopologyReplayer::new(&topo, &ports, 16);
        assert_eq!(r.access(1), 0); // window 0 aligned at rest
        assert_eq!(r.access(3), 0); // same window
        assert_eq!(r.access(4), 4); // next window: one 4-word hop
        assert_eq!(r.access(7), 0);
        assert_eq!(r.access(15), 8); // two windows ahead
    }

    #[test]
    fn pirm_carries_energy_and_wear_premium() {
        let p = Pirm::default();
        assert!(p.shift_energy_weight() > Linear.shift_energy_weight());
        assert!(p.wear_weight() > Linear.wear_weight());
        let mut stats = ShiftStats::new();
        stats.record(10, false);
        assert!((p.wear_units(&stats) - 15.0).abs() < 1e-12);
        assert!((Linear.wear_units(&stats) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn parse_round_trips_canonical_forms() {
        for spec in ["linear", "ring", "grid2d:4x16", "pirm:4"] {
            let t = Topology::parse(spec).unwrap();
            assert_eq!(t.canonical(), spec);
            assert_eq!(Topology::parse(&t.canonical()).unwrap(), t);
        }
        // Shorthand and default window.
        assert_eq!(
            Topology::parse("pirm").unwrap().canonical(),
            format!("pirm:{}", Pirm::DEFAULT_WINDOW)
        );
        assert_eq!(format!("{}", Topology::linear()), "linear");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "torus",
            "grid2d",
            "grid2d:4",
            "grid2d:0x8",
            "grid2d:4x",
            "grid2d:axb",
            "pirm:0",
            "pirm:x",
            "ring:8",
        ] {
            assert!(Topology::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn grid_validation_checks_coverage() {
        let t = Topology::parse("grid2d:2x4").unwrap();
        assert!(t.validate_for(8).is_ok());
        assert!(t.validate_for(9).is_err());
        assert!(Topology::linear().validate_for(1 << 20).is_ok());
        assert!(Topology::parse("ring")
            .unwrap()
            .validate_for(1 << 20)
            .is_ok());
    }

    #[test]
    fn kind_labels_and_indices_are_stable() {
        for (i, kind) in TopologyKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(TopologyKind::Grid2d.label(), "grid2d");
        assert_eq!(Topology::parse("ring").unwrap().kind(), TopologyKind::Ring);
    }

    #[test]
    fn replayer_matches_manual_plan_chain() {
        let topo = Topology::parse("grid2d:4x8").unwrap();
        let ports = PortLayout::at_positions([0, 4]);
        let mut r = TopologyReplayer::new(&topo, &ports, 32);
        let mut state = TapeState::rest();
        for offset in [9usize, 30, 2, 17, 17, 0] {
            let plan = topo.plan(&ports, 32, state, offset);
            assert_eq!(r.access(offset), plan.distance);
            state = plan.state;
            assert_eq!(r.state(), state);
        }
    }
}
