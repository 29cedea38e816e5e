//! The benchmark workloads and the `simulate` pipeline one pass runs.
//!
//! A pass makes the same public calls `parlogsim simulate` makes — circuit
//! generation, circuit graph, multilevel partition, replication plan, app
//! build, sequential baseline, parallel run — and adds a real-thread run
//! the CLI cannot reach. The oracle check runs after the timed region.

use parlogsim::gatesim::{CompileOptions, ExecModel, GateModel, GateSimBuilder, SimConfig};
use parlogsim::netlist::{IscasSynth, Netlist};
use parlogsim::partition::multilevel::coarsen::{coarsen, CoarsenConfig};
use parlogsim::partition::multilevel::initial::initial_partition;
use parlogsim::partition::multilevel::refine::{greedy_refine, rebalance, GreedyConfig};
use parlogsim::partition::{
    metrics, plan_replication, CircuitGraph, MultilevelPartitioner, Partitioner, Partitioning,
    ReplicationConfig,
};
use parlogsim::timewarp::{Application, Backend, KernelStats, Simulator};

use crate::trace::Clock;

/// The seed that reproduces the presets `parlogsim simulate` uses.
pub const DEFAULT_SEED: u64 = 0;

/// Which generated circuit a workload simulates.
#[derive(Debug, Clone, Copy)]
enum Circuit {
    S9234,
    S15850,
}

/// What `parlogsim simulate` prints for a workload at [`DEFAULT_SEED`]:
/// modeled seconds to three decimals, messages, rollbacks.
#[derive(Debug, Clone, Copy)]
struct CliReport {
    modeled_s: &'static str,
    app_messages: u64,
    rollbacks: u64,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    circuit: Circuit,
    /// Parts, platform nodes and threaded clusters.
    k: usize,
    end_time: u64,
    compiled: bool,
    replicate: bool,
    threaded: bool,
    /// Input variants a run cycles through, one per pass.
    variants: u64,
    /// The matching CLI command and its output at the default seed.
    cli_command: &'static str,
    cli: CliReport,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "s15850_platform_k8",
        circuit: Circuit::S15850,
        k: 8,
        end_time: 400,
        compiled: false,
        replicate: false,
        threaded: false,
        variants: 16,
        cli_command: "parlogsim simulate s15850 -k 8",
        cli: CliReport { modeled_s: "5.705", app_messages: 69812, rollbacks: 20438 },
    },
    Workload {
        name: "s9234_threaded_k2",
        circuit: Circuit::S9234,
        k: 2,
        end_time: 100,
        compiled: false,
        replicate: false,
        threaded: true,
        variants: 32,
        cli_command: "parlogsim simulate s9234 -k 2 --end 100",
        cli: CliReport { modeled_s: "2.789", app_messages: 3283, rollbacks: 176 },
    },
    Workload {
        name: "s15850_compiled_k2",
        circuit: Circuit::S15850,
        k: 2,
        end_time: 400,
        compiled: true,
        replicate: true,
        threaded: true,
        variants: 32,
        cli_command: "parlogsim simulate s15850 -k 2 --exec compiled --replicate",
        cli: CliReport { modeled_s: "0.557", app_messages: 3801, rollbacks: 385 },
    },
];

/// The executives a pass runs, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Sequential,
    Platform,
    Threaded,
}

impl Exec {
    /// Every executive, in metric order.
    pub const ALL: [Exec; 3] = [Exec::Sequential, Exec::Platform, Exec::Threaded];

    /// Span and metric name.
    pub fn span(self) -> &'static str {
        match self {
            Exec::Sequential => "timewarp.sequential",
            Exec::Platform => "timewarp.platform",
            Exec::Threaded => "timewarp.threaded",
        }
    }
}

/// Spans whose durations make up `setup_s`.
pub const SETUP_SPANS: [&str; 5] = [
    "netlist.generate",
    "partition.graph",
    "partition.multilevel",
    "partition.replicate",
    "gatesim.build",
];

/// The generator, stimulus and partitioner inputs of one pass.
#[derive(Debug)]
pub struct Inputs {
    profile: IscasSynth,
    cfg: SimConfig,
    partition_seed: u64,
    /// Whether these are the presets `parlogsim simulate` runs.
    pub preset: bool,
    /// Sequential gate-per-LP events of these inputs, once a pass has
    /// counted them: the shared denominator of `ns_per_gate_event`.
    gate_events: Option<u64>,
    /// Events a sequential run of the partitioned app commits, once a
    /// pass has counted them, when that app is not the baseline's.
    oracle_events: Option<u64>,
}

/// SplitMix64 finalizer: spreads consecutive seeds over all 64 bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The executives this workload runs.
    pub fn execs(&self) -> Vec<Exec> {
        Exec::ALL.into_iter().filter(|&e| e != Exec::Threaded || self.threaded).collect()
    }

    /// The input variants of a run with `seed`, which passes cycle
    /// through so that every median spans several inputs. Each variant
    /// overrides the stimulus and partitioner seeds; the first variant of
    /// [`DEFAULT_SEED`] keeps the presets. The circuit generator keeps its
    /// preset seed: the generated netlist is what the workload is named
    /// after, and other netlists of one profile differ by up to ±20% in
    /// modeled time, more than a run-to-run bound can absorb.
    pub fn inputs(&self, seed: u64) -> Vec<Inputs> {
        (0..self.variants).map(|v| self.variant(seed.wrapping_mul(self.variants) + v)).collect()
    }

    fn variant(&self, key: u64) -> Inputs {
        let profile = match self.circuit {
            Circuit::S9234 => IscasSynth::s9234(),
            Circuit::S15850 => IscasSynth::s15850(),
        };
        let mut cfg = SimConfig { end_time: self.end_time, ..Default::default() };
        if self.compiled {
            cfg.exec = ExecModel::CompiledBlocks(CompileOptions::default());
        }
        if self.replicate {
            cfg.replication = Some(ReplicationConfig::default());
        }
        let preset = key == DEFAULT_SEED;
        if !preset {
            cfg.stim.seed ^= mix(key);
        }
        Inputs { profile, cfg, partition_seed: key, preset, gate_events: None, oracle_events: None }
    }

    /// Partition `graph` with the multilevel partitioner. A traced pass
    /// composes the phases itself, one span per phase call, exactly as
    /// `MultilevelPartitioner::partition_with_report` does for the default
    /// configuration; an untraced pass makes the one public call.
    fn partition(&self, clock: &mut Clock, graph: &CircuitGraph, seed: u64) -> MultilevelSplit {
        if !clock.traced() {
            let partitioning = MultilevelPartitioner::default().partition(graph, self.k, seed);
            return MultilevelSplit { partitioning, levels: 0, refine_moves: 0 };
        }
        let gcfg = GreedyConfig::default();
        let span = clock.open("partition.coarsen");
        let hierarchy = coarsen(graph, &CoarsenConfig::for_k(self.k));
        clock.close(span);
        let coarsest = hierarchy.last().map_or(graph, |l| &l.graph);

        let span = clock.open("partition.initial");
        let mut p = initial_partition(coarsest, self.k, seed);
        clock.close(span);

        let span = clock.open("partition.refine");
        let mut moves = rebalance(coarsest, &mut p, gcfg.balance_eps, seed);
        moves += greedy_refine(coarsest, &mut p, &gcfg, seed).moves;
        clock.close(span);
        for (idx, level) in hierarchy.iter().enumerate().rev() {
            let span = clock.open("partition.refine");
            p = p.project(&level.map);
            let fine = if idx == 0 { graph } else { &hierarchy[idx - 1].graph };
            let level_seed = seed ^ idx as u64;
            moves += rebalance(fine, &mut p, gcfg.balance_eps, level_seed);
            moves += greedy_refine(fine, &mut p, &gcfg, level_seed).moves;
            clock.close(span);
        }
        MultilevelSplit { partitioning: p, levels: hierarchy.len() + 1, refine_moves: moves }
    }

    /// Build the partitioned app: the body of
    /// `SimConfig::build_app_partitioned`, with the replication plan made
    /// beforehand so it is timed as its own layer.
    fn build_app(
        &self,
        inputs: &Inputs,
        netlist: &Netlist,
        partitioning: &Partitioning,
        replicas: &[(u32, u32)],
    ) -> GateModel {
        let exec = match &inputs.cfg.exec {
            ExecModel::CompiledBlocks(opts) if opts.blocks.is_none() => {
                ExecModel::CompiledBlocks(CompileOptions {
                    blocks: Some(partitioning.assignment.clone()),
                })
            }
            e => e.clone(),
        };
        let cfg = &inputs.cfg;
        let mut builder = GateSimBuilder::new(netlist)
            .delay(cfg.delay)
            .stimulus(cfg.stim)
            .clock_period(cfg.clock_period)
            .end_time(cfg.end_time)
            .exec(exec);
        if !replicas.is_empty() {
            builder = builder.replicate(&partitioning.assignment, replicas);
        }
        builder.build()
    }

    /// Run one pass. `Err` carries why the pass failed: an executive
    /// error or an oracle mismatch. With `check_split`, a traced pass also
    /// checks its phase split against `MultilevelPartitioner::partition`.
    pub fn pass(
        &self,
        clock: &mut Clock,
        inputs: &mut Inputs,
        check_split: bool,
    ) -> Result<PassResult, String> {
        let cfg = &inputs.cfg;
        let pass_span = clock.open("pass");

        let span = clock.open("netlist.generate");
        let netlist = inputs.profile.build();
        clock.close(span);
        clock.count(span, "gates", netlist.len() as f64);

        let span = clock.open("partition.graph");
        let graph = CircuitGraph::from_netlist(&netlist);
        clock.close(span);

        let span = clock.open("partition.multilevel");
        let split = self.partition(clock, &graph, inputs.partition_seed);
        clock.close(span);
        clock.count(span, "levels", split.levels as f64);
        clock.count(span, "refine_moves", split.refine_moves as f64);
        let part = &split.partitioning;

        let mut replicas = Vec::new();
        if let Some(rc) = &cfg.replication {
            let span = clock.open("partition.replicate");
            replicas = plan_replication(&graph, part, rc).pairs();
            clock.close(span);
            clock.count(span, "replicas", replicas.len() as f64);
        }

        // The CLI's sequential baseline runs `SimConfig::build_app`, which
        // differs from the partitioned app in compiled mode (one fused
        // block) and under replication; otherwise the two are one model.
        let span = clock.open("gatesim.build");
        let app = self.build_app(inputs, &netlist, part, &replicas);
        let base_app = (self.compiled || !replicas.is_empty()).then(|| cfg.build_app(&netlist));
        let assignment = app.lp_assignment(&part.assignment);
        clock.close(span);
        clock.count(span, "lps", app.num_lps() as f64);
        let base = base_app.as_ref().unwrap_or(&app);

        let mut runs = Vec::new();
        for exec in self.execs() {
            let sim = Simulator::new(if exec == Exec::Sequential { base } else { &app })
                .platform_config(&cfg.platform);
            let backend = match exec {
                Exec::Sequential => Backend::Sequential,
                Exec::Platform => Backend::Platform { assignment: &assignment, nodes: self.k },
                Exec::Threaded => Backend::Threaded { assignment: &assignment, clusters: self.k },
            };
            let span = clock.open(exec.span());
            let report = sim.run(backend).map_err(|e| format!("{}: {e}", exec.span()))?;
            clock.close(span);
            for (key, value) in kernel_counts(&report.stats) {
                clock.count(span, key, value);
            }
            runs.push((exec, report));
        }
        clock.close(pass_span);

        // Untimed from here on: the oracle check and the quality report.
        let total_s = clock.pass_total_s("pass");
        let setup_s = SETUP_SPANS.iter().map(|s| clock.pass_total_s(s)).sum();
        let run_s = Exec::ALL.iter().map(|e| clock.pass_total_s(e.span())).sum();
        let (seq_exec, seq) = &runs[0];
        debug_assert_eq!(*seq_exec, Exec::Sequential);
        let fingerprint = base.fingerprint(&seq.states);
        let committed = match base_app {
            None => seq.stats.events_processed,
            Some(_) => *inputs.oracle_events.get_or_insert_with(|| sequential_events(&app)),
        };
        for (exec, report) in &runs[1..] {
            if app.fingerprint(&report.states) != fingerprint {
                return Err(format!(
                    "{}: committed fingerprint differs from sequential",
                    exec.span()
                ));
            }
            if report.stats.events_committed != committed {
                return Err(format!(
                    "{}: {} committed events, the sequential oracle has {committed}",
                    exec.span(),
                    report.stats.events_committed
                ));
            }
        }
        let gate_events = *inputs.gate_events.get_or_insert_with(|| match self.compiled {
            false => seq.stats.events_processed,
            true => {
                let gate_cfg = SimConfig { exec: ExecModel::GatePerLp, ..cfg.clone() };
                sequential_events(&gate_cfg.build_app(&netlist))
            }
        });
        let platform = &runs.iter().find(|(e, _)| *e == Exec::Platform).expect("always run").1;
        let modeled_s = platform.outcome.exec_time_s().expect("platform outcome");
        let quality = clock.traced().then(|| metrics::quality(&graph, part));
        let split_matches = (clock.traced() && check_split).then(|| {
            let whole =
                MultilevelPartitioner::default().partition(&graph, self.k, inputs.partition_seed);
            whole.assignment == part.assignment
        });
        Ok(PassResult {
            total_s,
            setup_s,
            run_s,
            scale: 1.0,
            modeled_s,
            gate_events,
            gates: netlist.len(),
            lps: app.num_lps(),
            levels: split.levels,
            refine_moves: split.refine_moves,
            replicas: replicas.len(),
            quality,
            split_matches,
            runs: runs
                .into_iter()
                .map(|(exec, r)| ExecRun {
                    exec,
                    run_s: clock.pass_total_s(exec.span()),
                    stats: r.stats,
                })
                .collect(),
        })
    }

    /// The CLI check at [`DEFAULT_SEED`]: `Err` names the first figure
    /// that differs from what `parlogsim simulate` prints.
    pub fn check_cli(&self, pass: &PassResult) -> Result<(), String> {
        let platform = &pass.run(Exec::Platform).expect("every workload runs the platform").stats;
        let got = (format!("{:.3}", pass.modeled_s), platform.app_messages, platform.rollbacks());
        let cli = &self.cli;
        if got != (cli.modeled_s.to_string(), cli.app_messages, cli.rollbacks) {
            return Err(format!(
                "`{}` prints {} modeled s, {} messages, {} rollbacks; this pass got {}, {}, {}",
                self.cli_command,
                cli.modeled_s,
                cli.app_messages,
                cli.rollbacks,
                got.0,
                got.1,
                got.2
            ));
        }
        Ok(())
    }
}

/// The multilevel partitioning and the phase counts a traced pass saw.
#[derive(Debug)]
struct MultilevelSplit {
    partitioning: Partitioning,
    levels: usize,
    refine_moves: usize,
}

/// Events a sequential run of `app` processes (= commits).
fn sequential_events(app: &GateModel) -> u64 {
    Simulator::new(app)
        .run(Backend::Sequential)
        .expect("sequential runs cannot fail")
        .stats
        .events_processed
}

/// The kernel counts every executive reports, by metric suffix.
pub fn kernel_counts(s: &KernelStats) -> [(&'static str, f64); 7] {
    [
        ("events_processed", s.events_processed as f64),
        ("events_committed", s.events_committed as f64),
        ("rollbacks", s.rollbacks() as f64),
        ("antis_sent", s.antis_sent as f64),
        ("app_messages", s.app_messages as f64),
        ("ops_executed", s.ops_executed as f64),
        ("gvt_rounds", s.gvt_rounds as f64),
    ]
}

/// What one successful pass measured.
#[derive(Debug)]
pub struct PassResult {
    /// Host seconds from generation to the end of the last executive run.
    pub total_s: f64,
    /// Host seconds of generate + graph + partition + replication + build.
    pub setup_s: f64,
    /// Host seconds of all executive runs.
    pub run_s: f64,
    /// Factor the host timings were scaled by, from raw host seconds to
    /// reference-machine seconds (1 until [`PassResult::rescale`]).
    pub scale: f64,
    /// Platform makespan, modeled seconds.
    pub modeled_s: f64,
    /// Sequential gate-per-LP events of these inputs: the shared
    /// denominator of `ns_per_gate_event`.
    pub gate_events: u64,
    pub gates: usize,
    pub lps: usize,
    /// Multilevel levels `G0 … Gm` (traced passes only).
    pub levels: usize,
    /// Rebalance and greedy-refinement moves (traced passes only).
    pub refine_moves: usize,
    pub replicas: usize,
    /// Partition quality (traced passes only).
    pub quality: Option<metrics::QualityReport>,
    /// Whether the traced phase split reproduced
    /// `MultilevelPartitioner::partition` (checked on traced passes).
    pub split_matches: Option<bool>,
    /// The executive runs, in order.
    pub runs: Vec<ExecRun>,
}

/// One executive run of a pass.
#[derive(Debug)]
pub struct ExecRun {
    pub exec: Exec,
    /// Host seconds of the run.
    pub run_s: f64,
    pub stats: KernelStats,
}

impl PassResult {
    /// Scale every host timing by `scale` (see [`crate::speed`]).
    pub fn rescale(&mut self, scale: f64) {
        self.total_s *= scale;
        self.setup_s *= scale;
        self.run_s *= scale;
        for r in &mut self.runs {
            r.run_s *= scale;
        }
        self.scale = scale;
    }

    /// The run of `exec`, if this pass made one.
    pub fn run(&self, exec: Exec) -> Option<&ExecRun> {
        self.runs.iter().find(|r| r.exec == exec)
    }
}
