//! The `dwmplace` subcommands.
//!
//! Each command is a pure function from parsed arguments to a text
//! report (plus optional file side effects), which keeps the whole CLI
//! unit-testable without spawning processes.
//!
//! Failures carry a [`CliError`] with a distinct process exit code per
//! failure class, so scripts can tell a typo from a missing file from a
//! corrupt one:
//!
//! | code | class                                            |
//! |------|--------------------------------------------------|
//! | 1    | internal/model error                             |
//! | 2    | usage: bad flags, unknown command/algorithm      |
//! | 3    | I/O: missing or unreadable file                  |
//! | 4    | malformed input: unparseable trace or JSON       |

use std::fmt;

use dwm_core::algorithms::{standard_suite, PlacementAlgorithm};
use dwm_core::cost::TopologyCost;
use dwm_core::online::{OnlineConfig, OnlinePlacer};
use dwm_core::spm::SpmAllocator;
use dwm_core::{GroupedChainGrowth, Hybrid, Placement};
use dwm_device::{DeviceConfig, PortLayout, Topology, TrackTopology};
use dwm_graph::AccessGraph;
use dwm_trace::analysis::ReuseProfile;
use dwm_trace::kernels::Kernel;
use dwm_trace::synth::{
    MarkovGen, ProfiledGen, SequentialGen, StridedGen, TraceGenerator, UniformGen, ZipfGen,
};
use dwm_trace::{io as trace_io, Trace, TraceProfile};

use crate::args::{ParseArgsError, ParsedArgs};

/// A command failure: user-facing message plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Process exit code (see the module table).
    pub code: u8,
    /// One-line message printed to stderr.
    pub message: String,
}

impl CliError {
    /// Exit code for usage errors (bad flags, unknown names).
    pub const USAGE: u8 = 2;
    /// Exit code for I/O errors (missing/unreadable files).
    pub const IO: u8 = 3;
    /// Exit code for malformed input files.
    pub const MALFORMED: u8 = 4;

    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: Self::USAGE,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> Self {
        CliError {
            code: Self::IO,
            message: message.into(),
        }
    }

    fn malformed(message: impl Into<String>) -> Self {
        CliError {
            code: Self::MALFORMED,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError::usage(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::io(e.to_string())
    }
}

impl From<dwm_foundation::json::JsonError> for CliError {
    fn from(e: dwm_foundation::json::JsonError) -> Self {
        CliError::malformed(e.to_string())
    }
}

impl From<dwm_trace::io::ParseTraceError> for CliError {
    fn from(e: dwm_trace::io::ParseTraceError) -> Self {
        CliError::malformed(e.to_string())
    }
}

impl From<dwm_core::PlacementError> for CliError {
    fn from(e: dwm_core::PlacementError) -> Self {
        CliError::internal(e.to_string())
    }
}

impl From<dwm_cache::CacheConfigError> for CliError {
    fn from(e: dwm_cache::CacheConfigError) -> Self {
        CliError::usage(e.to_string())
    }
}

type CommandResult = Result<String, CliError>;

/// Usage text printed by `dwmplace help` (and on errors).
pub const USAGE: &str = "\
dwmplace — data placement for domain-wall memories

USAGE: dwmplace <command> [args] [--flags]

COMMANDS:
  gen --kind <uniform|zipf|seq|stride|markov|kernel:NAME>
      [--items N] [--len N] [--seed N] [--out FILE]
                     generate a trace (text format to stdout or FILE)
  stats <trace>      trace statistics and reuse profile
  trace profile <trace> [--out FILE]
                     emit a compact versioned JSON workload profile
                     (kernel mix, reuse-distance histogram, phase
                     structure, Zipf skew)
  trace synth --profile FILE|- [--scale K] [--len N] [--seed N]
        [--out FILE]
                     stream a statistically matched synthetic trace
                     from a profile ('-' reads the profile from stdin;
                     generation is streaming, so 10^8-access instances
                     need --out, not a shell pipe buffer)
  hash <trace>       canonical 128-bit workload fingerprint (the
                     solve-cache key used by `serve`)
  place <trace> [--algorithm NAME] [--topology T] [--out FILE]
                     compute a placement; report shifts vs naive
  sweep <trace>      compare the full algorithm suite
  eval <trace> <placement.json> [--ports N] [--tape-length L]
       [--topology T]
                     evaluate a saved placement under a port layout;
                     the tape must hold every item (L defaults to the
                     item count) and no two ports may share a position
  device info [--topology T] [--domains N] [--tracks N] [--ports N]
       [--dbcs N]
                     resolved track topology, port layout, and cost
                     parameters as JSON. Topology grammar (everywhere
                     --topology is accepted): linear | ring |
                     grid2d:<rows>x<cols> | pirm[:<window>]
  spm <trace> [--dbcs K] [--words L]
                     multi-DBC scratchpad allocation comparison
  online <trace> [--window N] [--migration-cost N]
                     windowed adaptive placement report
  cache <trace> [--sets N] [--ways N] [--window N]
                     DWM cache policy comparison (LRU vs shift-aware)
  serve [start] [--addr HOST:PORT] [--workers N] [--queue N]
        [--cache-capacity N] [--session-capacity N] [--session-ttl SECS]
        [--no-upgrades] [--cluster N]
                     placement-as-a-service daemon (solve/evaluate/
                     simulate/stats/health/metrics over HTTP, plus
                     streaming /session endpoints with phase-triggered
                     re-placement; tiered solves take quality/
                     deadline_us knobs and quality:\"best\" enqueues
                     background tier-2 upgrades unless --no-upgrades;
                     GET /metrics is a Prometheus scrape; --cluster N
                     runs N engine shards behind a consistent-hash
                     front with disjoint solve-cache slices — see
                     docs/SERVING.md; DWM_SERVE_ADDR overrides the
                     default 127.0.0.1:7077; stops gracefully on
                     SIGINT/SIGTERM or POST /admin/drain)
  serve status [--addr HOST:PORT]
                     one /stats round-trip against a running daemon
  serve drain [--addr HOST:PORT]
                     ask a running daemon to drain and exit gracefully
  help               this text

GLOBAL FLAGS:
  --threads N        cap the parallel worker count (1 = sequential;
                     default: DWM_THREADS env var, then all cores).
                     Results are identical at any thread count.
  --obs              after the command finishes, dump the metric
                     registry as JSON to stderr (see
                     docs/OBSERVABILITY.md; DWM_OBS=0 disables solver
                     metric collection entirely).

EXIT CODES:
  0 success   1 internal error   2 usage   3 I/O   4 malformed input
";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Propagates argument, I/O, and model errors with user-facing
/// messages and class-specific exit codes.
pub fn dispatch(args: &ParsedArgs) -> CommandResult {
    match args.command.as_str() {
        "gen" => cmd_gen(args),
        "stats" => cmd_stats(args),
        "trace" => cmd_trace(args),
        "hash" => cmd_hash(args),
        "place" => cmd_place(args),
        "sweep" => cmd_sweep(args),
        "eval" => cmd_eval(args),
        "device" => cmd_device(args),
        "spm" => cmd_spm(args),
        "online" => cmd_online(args),
        "cache" => cmd_cache(args),
        "serve" => cmd_serve(args),
        "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}; try 'dwmplace help'"
        ))),
    }
}

/// Writes a command's report and a trailing newline to `out`.
///
/// A reader that has gone away (`dwmplace sweep t.trace | head -1`) is
/// not an error: it took what it wanted, so the command still succeeds.
///
/// # Errors
///
/// Any other write failure is an I/O error (exit code 3).
pub fn write_report(out: &mut impl std::io::Write, report: &str) -> Result<(), CliError> {
    match writeln!(out, "{report}").and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::io(format!("cannot write output: {e}")))
        }
        _ => Ok(()),
    }
}

/// Loads the `n`-th positional argument as a text trace, mapping a
/// missing/unreadable file to exit code 3 and an unparseable one to 4,
/// both with the path in the message.
fn load_trace(args: &ParsedArgs, n: usize) -> Result<Trace, CliError> {
    let path = args.positional(n, "trace file")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read trace file {path:?}: {e}")))?;
    trace_io::from_text(&text).map_err(|e| CliError::malformed(format!("trace file {path:?}: {e}")))
}

fn cmd_gen(args: &ParsedArgs) -> CommandResult {
    let kind = args.opt_str("kind", "uniform");
    let items: usize = args.opt_num("items", 64)?;
    let len: usize = args.opt_num("len", 10_000)?;
    let seed: u64 = args.opt_num("seed", 1)?;
    let trace = if let Some(kernel_name) = kind.strip_prefix("kernel:") {
        Kernel::suite()
            .into_iter()
            .find(|k| k.name() == kernel_name)
            .ok_or_else(|| {
                CliError::usage(format!(
                    "unknown kernel {kernel_name:?}; choose from: {}",
                    Kernel::suite()
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?
            .trace()
    } else {
        match kind.as_str() {
            "uniform" => UniformGen::new(items, seed).generate(len),
            "zipf" => ZipfGen::new(items, seed).generate(len),
            "seq" => SequentialGen::new(items).generate(len),
            "stride" => StridedGen::new(items, args.opt_num("stride", 3)?).generate(len),
            "markov" => MarkovGen::new(items, (items / 8).max(2), seed).generate(len),
            other => return Err(CliError::usage(format!("unknown generator kind {other:?}"))),
        }
    };
    let text = trace_io::to_text(&trace);
    match args.opt("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::io(format!("cannot write {path:?}: {e}")))?;
            Ok(format!(
                "wrote {} accesses over {} items to {path}",
                trace.len(),
                trace.num_items()
            ))
        }
        None => Ok(text),
    }
}

fn cmd_stats(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?;
    let s = trace.stats();
    let reuse = ReuseProfile::compute(&trace);
    Ok(format!(
        "label:           {}\n\
         accesses:        {}\n\
         distinct items:  {}\n\
         reads / writes:  {} / {}\n\
         mean stride:     {:.2}\n\
         hot-20% share:   {:.0}%\n\
         self-transition: {:.0}%\n\
         mean reuse dist: {:.2}\n\
         cold accesses:   {}",
        if trace.label().is_empty() {
            "(none)"
        } else {
            trace.label()
        },
        s.length,
        s.distinct_items,
        s.reads,
        s.writes,
        s.mean_stride,
        s.hot20_share * 100.0,
        s.self_transition_rate * 100.0,
        reuse.mean_distance(),
        reuse.cold_accesses,
    ))
}

fn cmd_trace(args: &ParsedArgs) -> CommandResult {
    match args.positional(0, "trace subcommand ('profile' or 'synth')")? {
        "profile" => cmd_trace_profile(args),
        "synth" => cmd_trace_synth(args),
        other => Err(CliError::usage(format!(
            "unknown trace subcommand {other:?} (expected 'profile' or 'synth')"
        ))),
    }
}

fn cmd_trace_profile(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 1)?.normalize();
    let profile = TraceProfile::from_trace(&trace);
    let json = profile.to_json_pretty();
    match args.opt("out") {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::io(format!("cannot write {path:?}: {e}")))?;
            Ok(format!(
                "profiled {} accesses over {} items ({} phase(s)) to {path}",
                profile.length, profile.items, profile.phases
            ))
        }
        None => Ok(json),
    }
}

fn cmd_trace_synth(args: &ParsedArgs) -> CommandResult {
    let src = args
        .opt("profile")
        .ok_or_else(|| CliError::usage("--profile FILE is required ('-' reads stdin)"))?;
    let text = if src == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
            .map_err(|e| CliError::io(format!("cannot read profile from stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(src)
            .map_err(|e| CliError::io(format!("cannot read profile file {src:?}: {e}")))?
    };
    let profile = TraceProfile::parse(&text)
        .map_err(|e| CliError::malformed(format!("profile {src:?}: {e}")))?;
    let scale: f64 = args.opt_num("scale", 1.0)?;
    if scale <= 0.0 || scale.is_nan() {
        return Err(CliError::usage("--scale must be positive"));
    }
    let len: u64 = match args.opt_num("len", 0u64)? {
        0 => (profile.length as f64 * scale).round() as u64,
        n => n,
    };
    let seed: u64 = args.opt_num("seed", 1)?;
    let generator = ProfiledGen::new(profile, seed);
    let items = generator.profile().items;
    // Stream access-by-access: the trace is never materialized, so
    // --scale can take the profile to 10^8+ accesses in O(items) memory.
    let write_stream = |w: &mut dyn std::io::Write| -> std::io::Result<()> {
        writeln!(w, "# label: {}", generator.name())?;
        for a in generator.stream(len) {
            let k = if a.kind.is_write() { 'w' } else { 'r' };
            writeln!(w, "{k} {}", a.item.0)?;
        }
        w.flush()
    };
    match args.opt("out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::io(format!("cannot write {path:?}: {e}")))?;
            let mut w = std::io::BufWriter::new(file);
            write_stream(&mut w)
                .map_err(|e| CliError::io(format!("cannot write {path:?}: {e}")))?;
            Ok(format!("wrote {len} accesses over {items} items to {path}"))
        }
        None => {
            let mut buf = Vec::new();
            write_stream(&mut buf).map_err(|e| CliError::io(e.to_string()))?;
            Ok(String::from_utf8(buf).expect("trace text is ASCII"))
        }
    }
}

fn cmd_hash(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?.normalize();
    let graph = AccessGraph::from_trace(&trace);
    let fp = dwm_graph::fingerprint(&graph);
    Ok(format!(
        "{fp} ({} items, {} edges)",
        graph.num_items(),
        graph.num_edges()
    ))
}

fn algorithm_by_name(name: &str) -> Result<Box<dyn PlacementAlgorithm>, CliError> {
    standard_suite(1)
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| {
            CliError::usage(format!(
                "unknown algorithm {name:?}; choose from: {}",
                standard_suite(1)
                    .iter()
                    .map(|a| a.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

fn cmd_place(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?.normalize();
    let algorithm = algorithm_by_name(&args.opt_str("algorithm", "hybrid"))?;
    let topology = topology_flag(args)?;
    let graph = AccessGraph::from_trace(&trace);
    topology
        .validate_for(graph.num_items())
        .map_err(CliError::usage)?;
    let placement = algorithm.place(&graph);
    let model = TopologyCost::single_port(topology, graph.num_items());
    let naive = model
        .trace_cost(&Placement::identity(graph.num_items()), &trace)
        .stats
        .shifts;
    let tuned = model.trace_cost(&placement, &trace).stats.shifts;
    let label = if topology.is_linear() {
        algorithm.name()
    } else {
        format!("{} on {topology}", algorithm.name())
    };
    let mut out = format!(
        "{label}: {naive} -> {tuned} shifts ({:.1}% reduction)\ntape order: {:?}",
        100.0 * (naive as f64 - tuned as f64) / naive.max(1) as f64,
        placement.order(),
    );
    if let Some(path) = args.opt("out") {
        std::fs::write(path, dwm_foundation::json::to_string_pretty(&placement))
            .map_err(|e| CliError::io(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("\nsaved placement to {path}"));
    }
    Ok(out)
}

fn cmd_sweep(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?.normalize();
    let csv = args.switch("csv");
    let graph = AccessGraph::from_trace(&trace);
    let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
    let naive = model
        .trace_cost(&Placement::identity(graph.num_items()), &trace)
        .stats
        .shifts;
    let mut out = if csv {
        "algorithm,shifts,reduction_percent\n".to_string()
    } else {
        format!("{:<16} {:>10} {:>9}\n", "algorithm", "shifts", "vs naive")
    };
    for alg in standard_suite(args.opt_num("seed", 1)?) {
        let shifts = model.trace_cost(&alg.place(&graph), &trace).stats.shifts;
        let reduction = 100.0 * (naive as f64 - shifts as f64) / naive.max(1) as f64;
        if csv {
            out.push_str(&format!("{},{shifts},{reduction:.1}\n", alg.name()));
        } else {
            out.push_str(&format!(
                "{:<16} {:>10} {:>8.1}%\n",
                alg.name(),
                shifts,
                reduction
            ));
        }
    }
    Ok(out)
}

fn cmd_eval(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?.normalize();
    let placement_path = args.positional(1, "placement.json")?;
    let placement_text = std::fs::read_to_string(placement_path).map_err(|e| {
        CliError::io(format!(
            "cannot read placement file {placement_path:?}: {e}"
        ))
    })?;
    let placement: Placement = dwm_foundation::json::from_str(&placement_text)
        .map_err(|e| CliError::malformed(format!("placement file {placement_path:?}: {e}")))?;
    let ports: usize = args.opt_num("ports", 1)?;
    let tape_length: usize = args.opt_num("tape-length", placement.num_items().max(1))?;
    if ports == 0 || tape_length == 0 {
        return Err(CliError::usage(
            "--ports and --tape-length must be at least 1",
        ));
    }
    if trace.num_items() > placement.num_items() {
        return Err(CliError::usage(format!(
            "placement covers {} items but the trace touches {}",
            placement.num_items(),
            trace.num_items()
        )));
    }
    let topology = topology_flag(args)?;
    topology
        .validate_for(tape_length)
        .map_err(CliError::usage)?;
    let layout = topology.evenly_spaced_ports(ports, tape_length);
    let model = TopologyCost::new(topology, layout, tape_length);
    model.check_fit(&placement).map_err(CliError::usage)?;
    Ok(format!(
        "{} under {}: {}",
        trace.label(),
        model.name(),
        model.trace_cost(&placement, &trace).stats
    ))
}

/// Parses the `--topology` flag (`linear` when absent); the grammar is
/// `linear | ring | grid2d:<rows>x<cols> | pirm[:<window>]`.
fn topology_flag(args: &ParsedArgs) -> Result<Topology, CliError> {
    Topology::parse(&args.opt_str("topology", "linear"))
        .map_err(|e| CliError::usage(format!("--topology: {e}")))
}

fn cmd_device(args: &ParsedArgs) -> CommandResult {
    match args.positional(0, "device subcommand ('info')")? {
        "info" => cmd_device_info(args),
        other => Err(CliError::usage(format!(
            "unknown device subcommand {other:?} (expected 'info')"
        ))),
    }
}

/// `device info`: the resolved track topology, port layout, and cost
/// parameters as one JSON object, so scripts and experiments can read
/// the exact model a `--topology`/geometry flag combination denotes.
fn cmd_device_info(args: &ParsedArgs) -> CommandResult {
    use dwm_foundation::json::{Number, Object, Value};
    let topology = topology_flag(args)?;
    let domains = args.opt_num("domains", 64)?;
    let ports = topology.evenly_spaced_ports(args.opt_num("ports", 1)?, domains);
    let config = DeviceConfig::builder()
        .domains_per_track(domains)
        .tracks_per_dbc(args.opt_num("tracks", 32)?)
        .port_positions(ports.positions().iter().copied())
        .dbcs(args.opt_num("dbcs", 1)?)
        .build()
        .map_err(|e| CliError::usage(format!("invalid device config: {e}")))?;
    topology
        .validate_for(config.words_per_dbc())
        .map_err(CliError::usage)?;

    let num = |f: f64| Value::Num(Number::F(f));
    let uint = |u: u64| Value::Num(Number::U(u));
    let mut topo = Object::new();
    topo.insert("kind", Value::Str(topology.kind().label().into()));
    topo.insert("canonical", Value::Str(topology.canonical()));
    topo.insert("shift_energy_weight", num(topology.shift_energy_weight()));
    topo.insert("wear_weight", num(topology.wear_weight()));
    let mut geometry = Object::new();
    geometry.insert("domains_per_track", uint(config.domains_per_track() as u64));
    geometry.insert("tracks_per_dbc", uint(config.tracks_per_dbc() as u64));
    geometry.insert("words_per_dbc", uint(config.words_per_dbc() as u64));
    geometry.insert("dbcs", uint(config.dbcs() as u64));
    geometry.insert("capacity_words", uint(config.capacity_words() as u64));
    geometry.insert("storage_efficiency", num(config.storage_efficiency()));
    let mut ports = Object::new();
    ports.insert("count", uint(config.port_layout().len() as u64));
    ports.insert(
        "positions",
        Value::Arr(
            config
                .port_layout()
                .positions()
                .iter()
                .map(|&p| uint(p as u64))
                .collect(),
        ),
    );
    let timing = config.timing();
    let mut t = Object::new();
    t.insert("shift_cycles", uint(timing.shift_cycles));
    t.insert("read_cycles", uint(timing.read_cycles));
    t.insert("write_cycles", uint(timing.write_cycles));
    t.insert("clock_ns", num(timing.clock_ns));
    let energy = config.energy();
    let mut e = Object::new();
    e.insert("shift_pj_per_track", num(energy.shift_pj_per_track));
    e.insert("read_pj", num(energy.read_pj));
    e.insert("write_pj", num(energy.write_pj));
    e.insert("leakage_mw", num(energy.leakage_mw));
    let mut body = Object::new();
    body.insert("topology", Value::Obj(topo));
    body.insert("geometry", Value::Obj(geometry));
    body.insert("ports", Value::Obj(ports));
    body.insert("timing", Value::Obj(t));
    body.insert("energy", Value::Obj(e));
    Ok(Value::Obj(body).to_pretty())
}

fn cmd_spm(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?.normalize();
    let dbcs: usize = args.opt_num("dbcs", 4)?;
    let words: usize = args.opt_num("words", 16)?;
    if dbcs == 0 || words == 0 {
        return Err(CliError::usage("--dbcs and --words must be at least 1"));
    }
    let alloc = SpmAllocator::new(dbcs, words);
    let ports = PortLayout::single();
    let rr = alloc.allocate_round_robin(trace.num_items())?;
    let smart = alloc.allocate(&trace, &GroupedChainGrowth)?;
    let (rr_stats, _) = rr.trace_cost(&trace, &ports);
    let (smart_stats, _) = smart.trace_cost(&trace, &ports);
    Ok(format!(
        "SPM {dbcs}x{words}: round-robin {} shifts, anti-affinity {} shifts ({:.1}% reduction)",
        rr_stats.shifts,
        smart_stats.shifts,
        100.0 * (rr_stats.shifts as f64 - smart_stats.shifts as f64)
            / rr_stats.shifts.max(1) as f64
    ))
}

fn cmd_online(args: &ParsedArgs) -> CommandResult {
    let trace = load_trace(args, 0)?.normalize();
    let window: usize = args.opt_num("window", 512)?;
    if window == 0 {
        return Err(CliError::usage("--window must be at least 1"));
    }
    let config = OnlineConfig {
        window,
        migration_shifts_per_item: args.opt_num("migration-cost", 64)?,
        ..OnlineConfig::default()
    };
    let report = OnlinePlacer::new(config).run(&trace);
    let model = TopologyCost::single_port(Topology::linear(), trace.num_items());
    let naive = model
        .trace_cost(&Placement::identity(trace.num_items()), &trace)
        .stats
        .shifts;
    let graph = AccessGraph::from_trace(&trace);
    let oracle = model
        .trace_cost(&Hybrid::default().place(&graph), &trace)
        .stats
        .shifts;
    Ok(format!(
        "static-naive:  {naive} shifts\n\
         static-oracle: {oracle} shifts\n\
         online:        {} shifts ({} access + {} migration, {} adaptations)",
        report.total_shifts(),
        report.access_shifts,
        report.migration_shifts,
        report.migrations,
    ))
}

fn cmd_cache(args: &ParsedArgs) -> CommandResult {
    use dwm_cache::{CacheConfig, DwmCache, ReplacementPolicy};
    let trace = load_trace(args, 0)?;
    let sets: usize = args.opt_num("sets", 8)?;
    let ways: usize = args.opt_num("ways", 8)?;
    let window: usize = args.opt_num("window", 2)?;
    let lru = DwmCache::new(CacheConfig::new(sets, ways)?).run_trace(&trace);
    let aware = DwmCache::new(
        CacheConfig::new(sets, ways)?.with_replacement(ReplacementPolicy::ShiftAwareLru { window }),
    )
    .run_trace(&trace);
    Ok(format!(
        "cache {sets}x{ways}:\n\
         lru            {:.1}% hits, {:.2} shifts/access\n\
         shift-aware(w={window}) {:.1}% hits, {:.2} shifts/access ({:.1}% fewer shifts)",
        lru.hit_ratio() * 100.0,
        lru.shifts_per_access(),
        aware.hit_ratio() * 100.0,
        aware.shifts_per_access(),
        100.0 * (lru.shifts as f64 - aware.shifts as f64) / lru.shifts.max(1) as f64
    ))
}

/// Connects to the daemon named by `--addr`/`DWM_SERVE_ADDR`/the
/// default address, for the `serve status|drain` lifecycle verbs.
fn serve_connect(addr: &str) -> Result<dwm_serve::ClientConn, CliError> {
    use std::net::ToSocketAddrs;
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| CliError::usage(format!("bad daemon address {addr:?}: {e}")))?
        .next()
        .ok_or_else(|| CliError::usage(format!("daemon address {addr:?} resolves to nothing")))?;
    dwm_serve::ClientConn::connect(resolved)
        .map_err(|e| CliError::io(format!("cannot reach dwm-serve at {addr}: {e}")))
}

/// `serve status`: one `/stats` round-trip, body passed through.
fn cmd_serve_status(addr: &str) -> CommandResult {
    let mut conn = serve_connect(addr)?;
    let resp = conn
        .get("/stats")
        .map_err(|e| CliError::io(format!("stats request to {addr} failed: {e}")))?;
    let body = resp.body_str().unwrap_or("").trim_end();
    if resp.status != 200 {
        return Err(CliError::io(format!(
            "dwm-serve at {addr} answered {}: {body}",
            resp.status
        )));
    }
    Ok(body.to_owned())
}

/// `serve drain`: asks the daemon to begin a graceful shutdown.
fn cmd_serve_drain(addr: &str) -> CommandResult {
    let mut conn = serve_connect(addr)?;
    let resp = conn
        .post_json("/admin/drain", "{}")
        .map_err(|e| CliError::io(format!("drain request to {addr} failed: {e}")))?;
    let body = resp.body_str().unwrap_or("").trim_end();
    if resp.status != 200 {
        return Err(CliError::io(format!(
            "dwm-serve at {addr} answered {}: {body}",
            resp.status
        )));
    }
    Ok(format!("drain requested at {addr}: {body}"))
}

fn cmd_serve(args: &ParsedArgs) -> CommandResult {
    let mut config = dwm_serve::ServeConfig::default();
    if let Some(addr) = args.opt("addr") {
        config.addr = addr.to_owned();
    }
    // Lifecycle verb: bare `serve` keeps its historical run-the-daemon
    // meaning, spelled `serve start` going forward.
    match args.positional(0, "subcommand") {
        Err(_) | Ok("start") => {}
        Ok("status") => return cmd_serve_status(&config.addr),
        Ok("drain") => return cmd_serve_drain(&config.addr),
        Ok(other) => {
            return Err(CliError::usage(format!(
                "unknown serve subcommand {other:?}; try start, status, or drain"
            )))
        }
    }
    config.workers = args.opt_num("workers", config.workers)?;
    config.queue_capacity = args.opt_num("queue", config.queue_capacity)?;
    config.cache_capacity = args.opt_num("cache-capacity", config.cache_capacity)?;
    config.session_capacity = args.opt_num("session-capacity", config.session_capacity)?;
    config.cluster = args.opt_num("cluster", config.cluster)?;
    let ttl_secs: u64 = args.opt_num("session-ttl", config.session_ttl.as_secs())?;
    config.session_ttl = std::time::Duration::from_secs(ttl_secs);
    config.upgrades = !args.switch("no-upgrades");
    if config.workers == 0 || config.queue_capacity == 0 {
        return Err(CliError::usage("--workers and --queue must be at least 1"));
    }
    if config.cluster == 0 {
        return Err(CliError::usage("--cluster must be at least 1"));
    }

    dwm_serve::signal::install();
    let handle = dwm_serve::start(config.clone())
        .map_err(|e| CliError::io(format!("cannot listen on {}: {e}", config.addr)))?;
    // Printed eagerly (not returned) so operators see it before the
    // daemon blocks.
    println!(
        "dwm-serve listening on {} ({} workers, queue {}, solve cache {}, cluster {})",
        handle.local_addr(),
        config.workers,
        config.queue_capacity,
        config.cache_capacity,
        config.cluster
    );
    while !dwm_serve::signal::triggered() && !handle.drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.shutdown();
    let served = handle
        .stats()
        .requests
        .load(std::sync::atomic::Ordering::Relaxed);
    // The engine's request/cache metrics live in its private registry,
    // which dies with the handle — dump it here so a global --obs dump
    // (which only sees obs::global) still captures them.
    if args.switch("obs") {
        eprintln!(
            "{}",
            dwm_foundation::obs::dump_json(&[handle.engine().registry()]).to_pretty()
        );
    }
    handle.join();
    Ok(format!(
        "shutdown: drained in-flight work, {served} requests served"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> CommandResult {
        let args = ParsedArgs::parse(line.split_whitespace().map(String::from))
            .expect("parseable test command");
        dispatch(&args)
    }

    /// A fresh trace file per call: tests run on parallel threads of
    /// one process, and each removes its file when done.
    fn temp_trace() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dwmplace_test_{}_{n}.trace", std::process::id()));
        let trace = ZipfGen::new(32, 5).generate(2000);
        trace_io::save_text(&trace, &path).expect("temp file writable");
        path
    }

    /// A writer whose every write fails with one error kind.
    struct FailingWriter(std::io::ErrorKind);

    impl std::io::Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_reader_is_not_an_error_but_other_write_failures_are() {
        let mut out = Vec::new();
        write_report(&mut out, "report").unwrap();
        assert_eq!(out, b"report\n");
        let closed = FailingWriter(std::io::ErrorKind::BrokenPipe);
        assert_eq!(write_report(&mut { closed }, "report"), Ok(()));
        let full = FailingWriter(std::io::ErrorKind::StorageFull);
        let err = write_report(&mut { full }, "report").unwrap_err();
        assert_eq!(err.code, CliError::IO, "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("sweep"));
        assert!(out.contains("serve"));
        assert!(out.contains("hash"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let err = run("frobnicate").unwrap_err();
        assert_eq!(err.code, CliError::USAGE);
    }

    #[test]
    fn gen_produces_parseable_text() {
        let out = run("gen --kind zipf --items 16 --len 100 --seed 2").unwrap();
        let trace = trace_io::from_text(&out).unwrap();
        assert_eq!(trace.len(), 100);
        assert!(trace.num_items() <= 16);
    }

    #[test]
    fn gen_kernel_kind_works() {
        let out = run("gen --kind kernel:fft").unwrap();
        let trace = trace_io::from_text(&out).unwrap();
        assert_eq!(trace.label(), "fft");
    }

    #[test]
    fn gen_unknown_kind_is_a_usage_error() {
        assert_eq!(run("gen --kind nonsense").unwrap_err().code, 2);
        assert_eq!(run("gen --kind kernel:nonsense").unwrap_err().code, 2);
    }

    #[test]
    fn stats_reports_counts() {
        let path = temp_trace();
        let out = run(&format!("stats {}", path.display())).unwrap();
        assert!(out.contains("accesses:        2000"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hash_matches_the_library_fingerprint() {
        let path = temp_trace();
        let out = run(&format!("hash {}", path.display())).unwrap();
        let trace = trace_io::load_text(&path).unwrap().normalize();
        let expected = dwm_graph::fingerprint(&AccessGraph::from_trace(&trace));
        assert!(
            out.starts_with(&expected.to_hex()),
            "hash output {out:?} does not start with {expected}"
        );
        assert!(out.contains("items"));
        assert!(out.contains("edges"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_trace_file_is_an_io_error() {
        for cmd in [
            "stats",
            "hash",
            "place",
            "sweep",
            "online",
            "spm",
            "cache",
            "trace profile",
        ] {
            let err = run(&format!("{cmd} /no/such/file.trace")).unwrap_err();
            assert_eq!(err.code, CliError::IO, "{cmd}: {err}");
            assert!(err.message.contains("/no/such/file.trace"), "{cmd}: {err}");
        }
    }

    #[test]
    fn trace_profile_then_synth_round_trips() {
        let path = temp_trace();
        let profile_path =
            std::env::temp_dir().join(format!("dwmplace_test_{}.profile.json", std::process::id()));
        let out = run(&format!(
            "trace profile {} --out {}",
            path.display(),
            profile_path.display()
        ))
        .unwrap();
        assert!(out.contains("profiled 2000 accesses"), "{out}");
        let profile =
            TraceProfile::parse(&std::fs::read_to_string(&profile_path).unwrap()).unwrap();
        assert_eq!(profile.length, 2000);
        assert_eq!(profile.items, 32);

        // synth --scale 2 doubles the length and stays in-universe.
        let synth = run(&format!(
            "trace synth --profile {} --scale 2 --seed 7",
            profile_path.display()
        ))
        .unwrap();
        let trace = trace_io::from_text(&synth).unwrap();
        assert_eq!(trace.len(), 4000);
        assert!(trace.num_items() <= 32);
        assert!(trace.label().starts_with("profiled-32"));

        // --out streams to a file and reports instead of dumping.
        let out_path =
            std::env::temp_dir().join(format!("dwmplace_test_{}.synth.trace", std::process::id()));
        let msg = run(&format!(
            "trace synth --profile {} --len 500 --out {}",
            profile_path.display(),
            out_path.display()
        ))
        .unwrap();
        assert!(msg.contains("wrote 500 accesses"), "{msg}");
        assert_eq!(trace_io::load_text(&out_path).unwrap().len(), 500);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(profile_path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn trace_profile_without_out_prints_versioned_json() {
        let path = temp_trace();
        let out = run(&format!("trace profile {}", path.display())).unwrap();
        assert!(out.contains("\"version\": 1"), "{out}");
        let profile = TraceProfile::parse(&out).unwrap();
        assert_eq!(profile.length, 2000);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_subcommand_misuse_is_a_usage_error() {
        assert_eq!(run("trace").unwrap_err().code, CliError::USAGE);
        assert_eq!(run("trace frobnicate").unwrap_err().code, CliError::USAGE);
        assert_eq!(run("trace synth").unwrap_err().code, CliError::USAGE);
        let path = temp_trace();
        let profile_path = std::env::temp_dir().join(format!(
            "dwmplace_usage_{}.profile.json",
            std::process::id()
        ));
        run(&format!(
            "trace profile {} --out {}",
            path.display(),
            profile_path.display()
        ))
        .unwrap();
        let err = run(&format!(
            "trace synth --profile {} --scale 0",
            profile_path.display()
        ))
        .unwrap_err();
        assert_eq!(err.code, CliError::USAGE);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(profile_path).ok();
    }

    #[test]
    fn trace_synth_rejects_bad_profiles() {
        assert_eq!(
            run("trace synth --profile /no/such/p.json")
                .unwrap_err()
                .code,
            CliError::IO
        );
        let path = std::env::temp_dir().join(format!("dwmplace_badp_{}.json", std::process::id()));
        std::fs::write(&path, "{ nope").unwrap();
        let err = run(&format!("trace synth --profile {}", path.display())).unwrap_err();
        assert_eq!(err.code, CliError::MALFORMED);
        std::fs::write(&path, "{\"version\": 99}").unwrap();
        let err = run(&format!("trace synth --profile {}", path.display())).unwrap_err();
        assert_eq!(err.code, CliError::MALFORMED);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_trace_file_is_a_malformed_input_error() {
        let path = std::env::temp_dir().join(format!("dwmplace_bad_{}.trace", std::process::id()));
        std::fs::write(&path, "r 1\nnot a trace line\n").unwrap();
        let err = run(&format!("stats {}", path.display())).unwrap_err();
        assert_eq!(err.code, CliError::MALFORMED);
        assert!(err.message.contains("line 2"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_placement_json_is_a_malformed_input_error() {
        let trace = temp_trace();
        let path = std::env::temp_dir().join(format!("dwmplace_bad_{}.json", std::process::id()));
        std::fs::write(&path, "{ definitely not json").unwrap();
        let err = run(&format!("eval {} {}", trace.display(), path.display())).unwrap_err();
        assert_eq!(err.code, CliError::MALFORMED);
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(path).ok();
    }

    /// Writes the trace `r 0, r 1, r 0, r 2, r 1` and `placement` to
    /// temp files named after `tag`; returns their paths.
    fn three_item_case(tag: &str, placement: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let trace = dir.join(format!("dwmplace_{tag}_{id}.trace"));
        let json = dir.join(format!("dwmplace_{tag}_{id}.json"));
        std::fs::write(&trace, "r 0\nr 1\nr 0\nr 2\nr 1\n").unwrap();
        std::fs::write(&json, placement).unwrap();
        (trace, json)
    }

    #[test]
    fn non_permutation_placement_files_are_malformed_input() {
        for (tag, placement) in [
            ("dup", r#"{"offsets":[0,0,0],"items":[0,1,2]}"#),
            ("range", r#"{"offsets":[0,1,9],"items":[0,1,2]}"#),
            ("inverse", r#"{"offsets":[1,2,0],"items":[0,1,2]}"#),
        ] {
            let (trace, json) = three_item_case(tag, placement);
            let err = run(&format!("eval {} {}", trace.display(), json.display())).unwrap_err();
            assert_eq!(err.code, CliError::MALFORMED, "{placement}: {err}");
            std::fs::remove_file(trace).ok();
            std::fs::remove_file(json).ok();
        }
    }

    #[test]
    fn eval_refuses_layouts_that_do_not_fit_the_tape() {
        let (trace, json) = three_item_case("fit", r#"{"offsets":[0,1,2],"items":[0,1,2]}"#);
        let eval = |flags: &str| {
            run(&format!(
                "eval {} {} {flags}",
                trace.display(),
                json.display()
            ))
        };
        for flags in [
            "--tape-length 2",
            "--tape-length 2 --topology grid2d:1x2",
            "--ports 5 --tape-length 3",
            "--ports 3 --topology grid2d:4x2",
        ] {
            let err = eval(flags).unwrap_err();
            assert_eq!(err.code, CliError::USAGE, "{flags}: {err}");
        }
        // The same placement on a tape it fits is costed as before.
        assert!(eval("--tape-length 3")
            .unwrap()
            .ends_with(": 5 shifts over 5 accesses (mean 1.00, max 2, 1 aligned)"));
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(json).ok();
    }

    #[test]
    fn zero_valued_knobs_are_usage_errors_not_panics() {
        let path = temp_trace();
        let online = run(&format!("online {} --window 0", path.display())).unwrap_err();
        assert_eq!(online.code, CliError::USAGE);
        let spm = run(&format!("spm {} --dbcs 0", path.display())).unwrap_err();
        assert_eq!(spm.code, CliError::USAGE);
        let cache = run(&format!("cache {} --sets 0", path.display())).unwrap_err();
        assert_eq!(cache.code, CliError::USAGE);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn place_reports_reduction_and_saves() {
        let path = temp_trace();
        let out_path = std::env::temp_dir().join(format!(
            "dwmplace_test_{}.placement.json",
            std::process::id()
        ));
        let out = run(&format!(
            "place {} --algorithm hybrid --out {}",
            path.display(),
            out_path.display()
        ))
        .unwrap();
        assert!(out.contains("shifts"));
        let placement: Placement =
            dwm_foundation::json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(placement.num_items(), 32);

        // eval round-trips the saved placement.
        let eval = run(&format!(
            "eval {} {} --ports 2 --tape-length 32",
            path.display(),
            out_path.display()
        ))
        .unwrap();
        assert!(eval.contains("2-port"));
        // eval with a zero port count is a usage error, not a panic.
        let zero = run(&format!(
            "eval {} {} --ports 0",
            path.display(),
            out_path.display()
        ))
        .unwrap_err();
        assert_eq!(zero.code, CliError::USAGE);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn sweep_lists_all_algorithms() {
        let path = temp_trace();
        let out = run(&format!("sweep {}", path.display())).unwrap();
        for name in ["naive", "hybrid", "organ-pipe", "annealing"] {
            assert!(out.contains(name), "missing {name} in sweep output");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn spm_and_online_commands_run() {
        let path = temp_trace();
        let spm = run(&format!("spm {} --dbcs 4 --words 8", path.display())).unwrap();
        assert!(spm.contains("round-robin"));
        let online = run(&format!("online {} --window 500", path.display())).unwrap();
        assert!(online.contains("online:"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cache_command_compares_policies() {
        let path = temp_trace();
        let out = run(&format!("cache {} --sets 4 --ways 4", path.display())).unwrap();
        assert!(out.contains("lru"));
        assert!(out.contains("shift-aware"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_csv_emits_machine_readable_rows() {
        let path = temp_trace();
        let out = run(&format!("sweep --csv {}", path.display())).unwrap();
        assert!(out.starts_with("algorithm,shifts,reduction_percent"));
        assert!(out.lines().count() >= 9);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn place_accepts_a_topology_and_rejects_garbage() {
        let path = temp_trace();
        let default = run(&format!("place {}", path.display())).unwrap();
        let linear = run(&format!("place {} --topology linear", path.display())).unwrap();
        assert_eq!(default, linear, "explicit linear must change nothing");
        let ring = run(&format!("place {} --topology ring", path.display())).unwrap();
        assert!(ring.contains("hybrid on ring:"), "{ring}");
        let bad = run(&format!("place {} --topology mobius", path.display())).unwrap_err();
        assert_eq!(bad.code, CliError::USAGE);
        // A grid too small for the item set is a usage error too.
        let small = run(&format!("place {} --topology grid2d:2x2", path.display())).unwrap_err();
        assert_eq!(small.code, CliError::USAGE);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eval_accepts_a_topology() {
        let path = temp_trace();
        let out_path = std::env::temp_dir().join(format!(
            "dwmplace_topo_{}.placement.json",
            std::process::id()
        ));
        run(&format!(
            "place {} --out {}",
            path.display(),
            out_path.display()
        ))
        .unwrap();
        let ring = run(&format!(
            "eval {} {} --ports 2 --tape-length 32 --topology ring",
            path.display(),
            out_path.display()
        ))
        .unwrap();
        assert!(ring.contains("ring@2-port"), "{ring}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn place_and_single_port_eval_agree_on_every_topology() {
        // Both commands put a lone port at offset 0, so `eval --ports 1`
        // replays exactly the shifts `place` reported for its placement.
        let path = temp_trace();
        let out_path = std::env::temp_dir().join(format!(
            "dwmplace_agree_{}.placement.json",
            std::process::id()
        ));
        for topology in ["linear", "ring", "grid2d:4x8", "pirm:4"] {
            let place = run(&format!(
                "place {} --topology {topology} --out {}",
                path.display(),
                out_path.display()
            ))
            .unwrap();
            let eval = run(&format!(
                "eval {} {} --ports 1 --topology {topology}",
                path.display(),
                out_path.display()
            ))
            .unwrap();
            // "<label>: <naive> -> <tuned> shifts ..." and
            // "<label> under <model>: <shifts> shifts over ...".
            let placed = place.split(" -> ").nth(1).unwrap().split(' ').next();
            let evaluated = eval.rsplit(": ").next().unwrap().split(' ').next();
            assert_eq!(placed, evaluated, "{topology}: {place:?} vs {eval:?}");
        }
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn grid_ports_sit_inside_the_columns_and_eval_uses_them() {
        let path = temp_trace();
        let out_path = std::env::temp_dir().join(format!(
            "dwmplace_gridports_{}.placement.json",
            std::process::id()
        ));
        run(&format!(
            "place {} --out {}",
            path.display(),
            out_path.display()
        ))
        .unwrap();
        let spec = "grid2d:4x8";
        let info = run(&format!(
            "device info --topology {spec} --ports 2 --domains 32"
        ))
        .unwrap();
        let value = dwm_foundation::json::parse(&info).unwrap();
        let ports = value.as_object().unwrap().get("ports").unwrap();
        let positions: Vec<usize> = ports
            .as_object()
            .unwrap()
            .get("positions")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_number().unwrap().as_u64().unwrap() as usize)
            .collect();
        assert_eq!(positions.len(), 2);
        assert!(
            positions.iter().all(|&p| p < 8),
            "{positions:?} past column 7"
        );

        let eval = run(&format!(
            "eval {} {} --ports 2 --tape-length 32 --topology {spec}",
            path.display(),
            out_path.display()
        ))
        .unwrap();
        let trace = trace_io::load_text(&path).unwrap().normalize();
        let placement: Placement =
            dwm_foundation::json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        let by_hand = TopologyCost::new(
            Topology::parse(spec).unwrap(),
            PortLayout::at_positions(positions),
            32,
        );
        let stats = by_hand.trace_cost(&placement, &trace).stats;
        assert!(eval.ends_with(&format!(": {stats}")), "{eval} vs {stats}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn device_info_prints_the_resolved_model_as_json() {
        let out = run("device info --topology grid2d:8x8 --ports 2").unwrap();
        let value = dwm_foundation::json::parse(&out).unwrap();
        let obj = value.as_object().unwrap();
        let topo = obj.get("topology").unwrap().as_object().unwrap();
        assert_eq!(topo.get("kind").unwrap().as_str(), Some("grid2d"));
        assert_eq!(topo.get("canonical").unwrap().as_str(), Some("grid2d:8x8"));
        let ports = obj.get("ports").unwrap().as_object().unwrap();
        assert_eq!(
            ports.get("count").unwrap().as_number().unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(ports.get("positions").unwrap().as_array().unwrap().len(), 2);
        assert!(obj.get("energy").is_some());
        assert!(obj.get("timing").is_some());
        // pirm carries its 1.5x transverse energy weight.
        let pirm = run("device info --topology pirm:4").unwrap();
        assert!(pirm.contains("1.5"), "{pirm}");
        // Misuse maps to the usage exit code.
        assert_eq!(run("device").unwrap_err().code, CliError::USAGE);
        assert_eq!(run("device frobnicate").unwrap_err().code, CliError::USAGE);
        assert_eq!(
            run("device info --topology mobius").unwrap_err().code,
            CliError::USAGE
        );
        // A grid smaller than the track is refused up front.
        assert_eq!(
            run("device info --topology grid2d:2x2").unwrap_err().code,
            CliError::USAGE
        );
    }

    #[test]
    fn unknown_algorithm_is_a_usage_error() {
        let path = temp_trace();
        let err = run(&format!("place {} --algorithm magic", path.display())).unwrap_err();
        assert_eq!(err.code, CliError::USAGE);
        std::fs::remove_file(path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn serve_command_runs_until_sigterm() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // Install the handler *before* spawning anything so the later
        // raise can never hit the default disposition.
        dwm_serve::signal::install();
        dwm_serve::signal::reset();
        let worker =
            std::thread::spawn(|| run("serve --addr 127.0.0.1:0 --workers 2 --cache-capacity 8"));
        std::thread::sleep(std::time::Duration::from_millis(300));
        // SAFETY: delivers SIGTERM to this process; the handler
        // installed above records it in an atomic flag.
        unsafe {
            raise(15);
        }
        let out = worker.join().unwrap().unwrap();
        assert!(out.contains("shutdown"), "{out}");
        dwm_serve::signal::reset();
    }

    #[test]
    fn serve_rejects_zero_workers() {
        let err = run("serve --workers 0").unwrap_err();
        assert_eq!(err.code, CliError::USAGE);
    }

    #[test]
    fn serve_rejects_zero_cluster_and_unknown_subcommands() {
        let err = run("serve --cluster 0").unwrap_err();
        assert_eq!(err.code, CliError::USAGE);
        let err = run("serve restart").unwrap_err();
        assert_eq!(err.code, CliError::USAGE);
        assert!(err.message.contains("restart"), "{}", err.message);
    }

    #[test]
    fn serve_status_and_drain_talk_to_a_running_daemon() {
        let handle = dwm_serve::start(dwm_serve::ServeConfig {
            cluster: 2,
            ..dwm_serve::ServeConfig::ephemeral()
        })
        .unwrap();
        let addr = handle.local_addr();
        let status = run(&format!("serve status --addr {addr}")).unwrap();
        assert!(status.contains("\"cluster\""), "{status}");
        assert!(!handle.drain_requested());
        let drained = run(&format!("serve drain --addr {addr}")).unwrap();
        assert!(drained.contains("draining"), "{drained}");
        assert!(handle.drain_requested());
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn serve_status_reports_unreachable_daemons_as_io_errors() {
        // A port from the ephemeral range that nothing in this test
        // process is listening on: bind-then-drop guarantees it was
        // free a moment ago.
        let free = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = free.local_addr().unwrap();
        drop(free);
        let err = run(&format!("serve status --addr {addr}")).unwrap_err();
        assert_eq!(err.code, CliError::IO);
    }
}
