//! The layered bench: every measured kernel of the stack in one table.
//!
//! Each row of [`CASES`] is `(layer, name, unit, setup)`: `setup`
//! builds the kernel outside the timed region, and every kernel call
//! returns the units of work it did. [`RATIOS`] relates rate cases of
//! one layer — each new path against its reference. The table runs in
//! interleaved rounds (`dlk_bench::harness`) and this binary writes one
//! `BENCH_<layer>.json` per layer at the workspace root, then prints
//! the engine cases' simulated device cycles, which are deterministic
//! and so are not timed:
//!
//! ```sh
//! cargo bench -p dlk-bench --bench layers   # a baseline and the CI gate's run alike
//! ```
//!
//! Layers: `dram` (command issue, RowClone, SWAP), `memctrl` (direct
//! and queued servicing, scheduling, page walks), `locker` (µISA
//! decode, lock-table probes), `defenses` (tracker updates, weight
//! repair), `engine` (sharded trace replay), `dnn` (GEMM, bit search),
//! `sim` (whole scenarios), `sweep` (the work-stealing runner and its
//! bare queue) and `figures` (regenerating each paper table and
//! figure at test fidelity, plus the §IV-D Monte-Carlo kernel);
//! paper-scale figures print from `examples/paper_figures.rs`.

use std::hint::black_box;
use std::path::Path;

use dlk_attacks::bfa::{BfaConfig, BitSearch};
use dlk_bench::harness::{self, Case, Kernel, Ratio};
use dlk_defenses::training::transforms::WeightReconstruction;
use dlk_defenses::{CounterPerRow, Graphene, Hydra, RowTracker, Twice};
use dlk_dnn::{models, Tensor, WeightLayout};
use dlk_dram::{DramCommand, DramConfig, DramDevice, RowAddr, RowId};
use dlk_engine::{EngineConfig, ShardedEngine, Trace, TraceReplay, Workload};
use dlk_locker::locktable::reference::ScanLockTable;
use dlk_locker::{CompiledProgram, Instruction, LockTable, LockTarget};
use dlk_memctrl::{
    AddressMapper, MappingScheme, MemCtrlConfig, MemRequest, MemoryController, PageTable,
    PageTableConfig, SchedulingPolicy, VirtAddr,
};
use dlk_sim::sweep::{SweepGrid, SweepRunner};
use dlk_sim::{
    AttackSpec, Budget, DefenseSpec, RunReport, Scenario, ScenarioSpec, SimError, VictimSpec,
};
use dlk_xlayer::circuit::{MonteCarlo, VariationConfig};
use dlk_xlayer::experiments::{
    ablation, fig1a, fig1b, fig7a, fig7b, fig8, mc_variation, pta, table1, table2, Fidelity,
};

const fn case(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    setup: fn() -> Kernel,
) -> Case {
    Case { layer, name, unit, setup }
}

const fn ratio(
    layer: &'static str,
    name: &'static str,
    numerator: &'static str,
    denominator: &'static str,
) -> Ratio {
    Ratio { layer, name, numerator, denominator }
}

/// Every measured kernel, grouped by layer.
const CASES: &[Case] = &[
    case("dram", "act_pre_mpair_per_s", "M/s", act_pre),
    // Same subarray: Fast Parallel Mode; across banks: Pipelined Serial Mode.
    case("dram", "rowclone_fpm_kcopy_per_s", "k/s", || {
        rowclone(RowAddr::new(0, 0, 1), RowAddr::new(0, 0, 2))
    }),
    case("dram", "rowclone_psm_kcopy_per_s", "k/s", || {
        rowclone(RowAddr::new(0, 0, 1), RowAddr::new(1, 1, 2))
    }),
    case("dram", "swap_kswap_per_s", "k/s", swap),
    case("dram", "channel_copy_swap_kswap_per_s", "k/s", channel_copy_swap),
    case("memctrl", "service_step_kreq_per_s", "k/s", service_step),
    case("memctrl", "service_per_request_kreq_per_s", "k/s", service_direct),
    case("memctrl", "row_hit_read_kreq_per_s", "k/s", row_hit_read),
    case("memctrl", "schedule_fcfs_kreq_per_s", "k/s", || schedule(SchedulingPolicy::Fcfs)),
    case("memctrl", "schedule_frfcfs_kreq_per_s", "k/s", || schedule(SchedulingPolicy::FrFcfs)),
    case("memctrl", "page_walk_kwalk_per_s", "k/s", page_walk),
    case("locker", "decode_minstr_per_s", "M/s", decode),
    case("locker", "decode_reference_minstr_per_s", "M/s", decode_reference),
    case("locker", "probe_mprobe_per_s", "M/s", probe),
    case("locker", "probe_scan_reference_mprobe_per_s", "M/s", probe_scan_reference),
    case("locker", "lookup_hit_56kb_mprobe_per_s", "M/s", || lookup_56kb(RowId(1234))),
    case("locker", "lookup_miss_56kb_mprobe_per_s", "M/s", || lookup_56kb(RowId(u64::MAX))),
    case("defenses", "graphene_mact_per_s", "M/s", || tracker(Graphene::new(1024, 1_000_000))),
    case("defenses", "hydra_mact_per_s", "M/s", || tracker(Hydra::for_threshold(1_000_000))),
    case("defenses", "twice_mact_per_s", "M/s", || tracker(Twice::for_threshold(1_000_000))),
    case("defenses", "counter_per_row_mact_per_s", "M/s", || {
        tracker(CounterPerRow::new(1_000_000))
    }),
    case("defenses", "weight_repair_per_s", "/s", weight_repair),
    case("engine", "replay_1ch_kop_per_s", "k/s", || replay(1, sharding_trace())),
    case("engine", "replay_2ch_kop_per_s", "k/s", || replay(2, sharding_trace())),
    case("engine", "replay_4ch_kop_per_s", "k/s", || replay(4, sharding_trace())),
    case("engine", "cnn_fetch_1ch_kreq_per_s", "k/s", || replay(1, cnn_fetch_trace())),
    case("engine", "cnn_fetch_2ch_kreq_per_s", "k/s", || replay(2, cnn_fetch_trace())),
    case("engine", "cnn_fetch_direct_kreq_per_s", "k/s", cnn_fetch_direct),
    // Blocked, 8-way-unrolled GEMM against the scalar dot product it replaced.
    case("dnn", "gemm_mflop_per_s", "MFLOP/s", || gemm(false)),
    case("dnn", "gemm_reference_mflop_per_s", "MFLOP/s", || gemm(true)),
    case("dnn", "bfa_next_flip_per_s", "/s", bfa_next_flip),
    case("dnn", "bfa_next_flip_cnn_per_s", "/s", bfa_next_flip_cnn),
    case("sim", "denied_hammer_campaign_per_s", "/s", denied_hammer_campaign),
    case("sim", "ablation_relock100_per_s", "/s", ablation_relock100),
    case("sweep", "replay_jobs_serial_per_s", "/s", || sweep_grid(SweepRunner::serial())),
    case("sweep", "replay_jobs_parallel_per_s", "/s", || sweep_grid(SweepRunner::parallel())),
    case("sweep", "queue_kjobs_per_s", "k/s", queue_noop),
    case("figures", "fig1a_wall_ms", "ms", || regenerate(|| fig1a::run(FAST).render())),
    case("figures", "fig1b_wall_ms", "ms", || regenerate(|| fig1b::run().to_string())),
    case("figures", "fig7a_wall_ms", "ms", || regenerate(|| fig7a::run(FAST).render())),
    case("figures", "fig7b_wall_ms", "ms", || regenerate(|| fig7b::run().to_string())),
    case("figures", "fig8_wall_ms", "ms", || {
        regenerate(|| fig8::run(FAST).iter().map(fig8::Fig8Panel::render).collect())
    }),
    case("figures", "table1_wall_ms", "ms", || regenerate(|| table1::run().to_string())),
    case("figures", "table2_wall_ms", "ms", || regenerate(|| table2::run(FAST).to_string())),
    case("figures", "mc_variation_wall_ms", "ms", || {
        regenerate(|| mc_variation::run(FAST).to_string())
    }),
    case("figures", "pta_wall_ms", "ms", || {
        regenerate(|| pta::run().expect("pta experiment runs").to_string())
    }),
    case("figures", "ablation_wall_ms", "ms", || {
        regenerate(|| ablation::run().expect("ablation runs").to_string())
    }),
    case("figures", "mc_ktrial_per_s", "k/s", mc_trials),
];

/// New-vs-reference speedups, per round.
const RATIOS: &[Ratio] = &[
    ratio("dram", "swap_vs_channel_copy", "swap_kswap_per_s", "channel_copy_swap_kswap_per_s"),
    ratio(
        "memctrl",
        "service_step_vs_direct",
        "service_step_kreq_per_s",
        "service_per_request_kreq_per_s",
    ),
    ratio("locker", "decode_vs_reference", "decode_minstr_per_s", "decode_reference_minstr_per_s"),
    ratio(
        "locker",
        "probe_vs_scan_reference",
        "probe_mprobe_per_s",
        "probe_scan_reference_mprobe_per_s",
    ),
    ratio("engine", "replay_2ch_vs_1ch", "replay_2ch_kop_per_s", "replay_1ch_kop_per_s"),
    ratio("engine", "replay_4ch_vs_1ch", "replay_4ch_kop_per_s", "replay_1ch_kop_per_s"),
    ratio("engine", "cnn_fetch_2ch_vs_1ch", "cnn_fetch_2ch_kreq_per_s", "cnn_fetch_1ch_kreq_per_s"),
    ratio("dnn", "gemm_vs_reference", "gemm_mflop_per_s", "gemm_reference_mflop_per_s"),
    ratio(
        "sweep",
        "replay_jobs_parallel_vs_serial",
        "replay_jobs_parallel_per_s",
        "replay_jobs_serial_per_s",
    ),
];

fn main() {
    let results =
        harness::run(CASES, RATIOS).unwrap_or_else(|err| panic!("malformed bench table: {err}"));
    print!("{}", results.render());

    // Anchor the snapshots at the workspace root regardless of the CWD
    // cargo chose for the bench binary.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    for snap in results.snapshots() {
        let out = root.join(format!("BENCH_{}.json", snap.name()));
        snap.write(&out).expect("snapshot write");
        println!("snapshot -> {}", out.display());
    }
    print!("{}", device_cycles());
}

// ---- dram: command issue, RowClone, SWAP ----

fn tiny_dram() -> DramDevice {
    DramDevice::new(DramConfig::tiny_for_tests())
}

fn act_pre() -> Kernel {
    let mut dram = tiny_dram();
    let row = RowAddr::new(0, 0, 5);
    Box::new(move || {
        for _ in 0..64 {
            black_box(dram.issue(DramCommand::Act(row)).expect("act"));
            black_box(dram.issue(DramCommand::Pre(0)).expect("pre"));
        }
        64
    })
}

fn rowclone(src: RowAddr, dst: RowAddr) -> Kernel {
    let mut dram = tiny_dram();
    Box::new(move || {
        for _ in 0..16 {
            black_box(dram.row_clone(src, dst).expect("rowclone"));
        }
        16
    })
}

/// DRAM-Locker's SWAP: three RowClone copies through a buffer row.
fn swap() -> Kernel {
    let mut dram = tiny_dram();
    let (a, b, buffer) = (RowAddr::new(0, 0, 1), RowAddr::new(0, 0, 2), RowAddr::new(0, 0, 63));
    Box::new(move || {
        black_box(dram.swap_rows(a, b, buffer).expect("swap"));
        1
    })
}

/// What a swap costs without RowClone: both rows read out and written
/// back over the channel.
fn channel_copy_swap() -> Kernel {
    let mut dram = tiny_dram();
    let (a, b) = (RowAddr::new(0, 0, 1), RowAddr::new(0, 0, 2));
    Box::new(move || {
        let row_a = dram.read_row(a).expect("read");
        let row_b = dram.read_row(b).expect("read");
        for (i, chunk) in row_a.chunks(8).enumerate() {
            dram.access_write(b, i * 8, chunk).expect("write");
        }
        for (i, chunk) in row_b.chunks(8).enumerate() {
            dram.access_write(a, i * 8, chunk).expect("write");
        }
        1
    })
}

// ---- memctrl: servicing, scheduling, page walks ----

fn tiny_ctrl() -> MemoryController {
    MemoryController::new(MemCtrlConfig::tiny_for_tests())
}

/// 256 requests over 128 rows of the tiny geometry, every fourth a
/// write: the one mix both servicing paths run.
fn service_mix() -> Vec<MemRequest> {
    let row_bytes = 64u64; // DramGeometry::tiny()
    (0..256)
        .map(|i| {
            let addr = (i as u64 % 128) * row_bytes;
            if i % 4 == 3 {
                MemRequest::write(addr, vec![i as u8; 8])
            } else {
                MemRequest::read(addr, 8)
            }
        })
        .collect()
}

/// Queued: `submit` maps and enqueues, `run_to_completion` steps.
fn service_step() -> Kernel {
    let (mix, mut ctrl) = (service_mix(), tiny_ctrl());
    Box::new(move || {
        for request in &mix {
            ctrl.submit(request.clone());
        }
        black_box(ctrl.run_to_completion().expect("valid"));
        mix.len() as u64
    })
}

/// Direct: `service` maps at service time.
fn service_direct() -> Kernel {
    let (mix, mut ctrl) = (service_mix(), tiny_ctrl());
    Box::new(move || {
        let done: Vec<_> =
            mix.iter().map(|request| ctrl.service(request.clone()).expect("valid")).collect();
        black_box(done);
        mix.len() as u64
    })
}

fn row_hit_read() -> Kernel {
    let mut ctrl = tiny_ctrl();
    ctrl.service(MemRequest::write(0, vec![1, 2, 3, 4])).expect("seed");
    Box::new(move || {
        for _ in 0..64 {
            black_box(ctrl.service(MemRequest::read(0, 4)).expect("read"));
        }
        64
    })
}

/// 64 reads alternating between two rows: FR-FCFS batches the row
/// hits, FCFS serves them in arrival order.
fn schedule(policy: SchedulingPolicy) -> Kernel {
    let mut ctrl =
        MemoryController::new(MemCtrlConfig { policy, ..MemCtrlConfig::tiny_for_tests() });
    let row_bytes = ctrl.geometry().row_bytes as u64;
    Box::new(move || {
        for index in 0..64u64 {
            let row = if index % 2 == 0 { 3 } else { 4 };
            ctrl.submit(MemRequest::read(row * row_bytes + index % 8, 1));
        }
        black_box(ctrl.run_to_completion().expect("drain"));
        64
    })
}

/// A walk through the DRAM-resident page table (§V).
fn page_walk() -> Kernel {
    let mut dram = tiny_dram();
    let mapper = AddressMapper::new(*dram.geometry(), MappingScheme::BankSequential);
    let table = PageTable::new(PageTableConfig::tiny_for_tests());
    for vpn in 0..16 {
        table.map(&mut dram, &mapper, vpn, vpn + 8).expect("map");
    }
    Box::new(move || {
        for vpn in 0..16 {
            black_box(table.translate(&dram, &mapper, VirtAddr(vpn * 256 + 7)).expect("mapped"));
        }
        16
    })
}

// ---- locker: µISA decode, lock-table probes ----

/// A canonical word stream: the SWAP-loop shape (copy bursts, a
/// counted branch, `done`) tiled to 4096 instructions.
fn word_stream() -> Vec<u16> {
    const LEN: usize = 4096;
    let mut words: Vec<u16> = (0..LEN - 1)
        .map(|i| {
            let word = match i % 4 {
                0 => Instruction::Copy { dst: (i % 128) as u8, src: ((i + 1) % 128) as u8 },
                1 => Instruction::Copy { dst: ((i + 2) % 128) as u8, src: (i % 128) as u8 },
                2 => Instruction::Bnez { reg: (i % 128) as u8, target: 0 },
                _ => Instruction::Copy { dst: 3, src: 4 },
            };
            word.encode()
        })
        .collect();
    words.push(Instruction::Done.encode());
    words
}

/// Table-driven bulk decode into a `CompiledProgram`.
fn decode() -> Kernel {
    let words = word_stream();
    Box::new(move || {
        black_box(CompiledProgram::from_words(black_box(&words)).expect("canonical stream"));
        words.len() as u64
    })
}

/// The per-word `match` decoder it replaced.
fn decode_reference() -> Kernel {
    let words = word_stream();
    Box::new(move || {
        let decoded: Result<Vec<Instruction>, _> =
            black_box(&words).iter().map(|&w| Instruction::decode_reference(w)).collect();
        black_box(decoded.expect("canonical stream"));
        words.len() as u64
    })
}

const PROBES: u64 = 4096;

/// A half-full 1024-entry table and a ~50/50 hit/miss probe tape.
fn probe_tape(mut is_locked: impl FnMut(RowId) -> bool + 'static) -> Kernel {
    Box::new(move || {
        let hits: u64 = (0..PROBES).map(|p| u64::from(is_locked(RowId((p * 3) % 4096)))).sum();
        black_box(hits);
        PROBES
    })
}

/// The open-addressed, branch-free `LockTable`.
fn probe() -> Kernel {
    let mut table = LockTable::new(1024);
    for row in 0..512 {
        table.lock(RowId(row * 3)).expect("capacity");
    }
    probe_tape(move |row| table.is_locked(row))
}

/// The linear-scan table it replaced.
fn probe_scan_reference() -> Kernel {
    let mut scan = ScanLockTable::new(1024);
    for row in 0..512 {
        scan.lock(RowId(row * 3)).expect("capacity");
    }
    probe_tape(move |row| scan.is_locked(row))
}

/// Table I's budget: a full 56 KB lock table, probed for one row.
fn lookup_56kb(row: RowId) -> Kernel {
    let capacity = 56 * 1024 / 8;
    let mut table = LockTable::new(capacity);
    table.extend((0..capacity as u64).map(RowId));
    Box::new(move || {
        for _ in 0..1024 {
            black_box(table.is_locked(black_box(row)));
        }
        1024
    })
}

// ---- defenses: tracker updates, weight repair ----

/// 256 activations sweeping 4096 rows, far below any threshold.
fn tracker(mut tracker: impl RowTracker + 'static) -> Kernel {
    let mut row = 0u64;
    Box::new(move || {
        for _ in 0..256 {
            row = (row + 1) % 4096;
            black_box(tracker.on_activate(RowId(row)));
        }
        256
    })
}

/// Table II's weight-reconstruction repair pass.
fn weight_repair() -> Kernel {
    let victim = models::victim_tiny(2);
    let envelope = WeightReconstruction::envelope(&victim.model);
    let defense = WeightReconstruction::default();
    let mut model = victim.model.clone();
    Box::new(move || {
        black_box(defense.repair(&mut model, &envelope));
        1
    })
}

// ---- engine: sharded trace replay ----

/// Three pointer chasers and a streaming pass confined to one
/// channel's capacity (256 rows of 64 B), so the same global trace is
/// valid on every engine width.
fn sharding_trace() -> Trace {
    const SPAN: u64 = 256 * 64;
    Workload::multi_tenant(&[
        Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 12_000, seed: 9 },
        Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 12_000, seed: 10 },
        Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 12_000, seed: 11 },
        Workload::Sequential { base: 0, len: 8, count: 2_000 },
    ])
}

/// The ResNet-20-shaped CNN's weight image fetched as its inference
/// loop would (4 batches, 32-byte chunks), laid out contiguously in
/// the global space so its rows stripe across channels.
fn cnn_fetch_trace() -> Trace {
    let model = models::victim_resnet20_cnn(42).model;
    let config = MemCtrlConfig::tiny_for_tests();
    let mapper = AddressMapper::new(config.dram.geometry, config.scheme);
    WeightLayout::new(0x400, mapper).fetch_trace(&model, 4, 32).expect("image fits")
}

/// Replays `trace` on a fresh `channels`-wide engine; returns the
/// simulated device cycles (the slowest channel's).
fn replay_cycles(channels: usize, trace: &Trace) -> u64 {
    let mut engine =
        ShardedEngine::new(EngineConfig::sharded(channels), MemCtrlConfig::tiny_for_tests())
            .expect("engine builds");
    engine.replay(TraceReplay::new(trace)).expect("replay runs");
    engine.snapshot().cycles
}

/// Serves `requests` one by one on a fresh controller; returns cycles.
fn direct_cycles(requests: &[MemRequest]) -> u64 {
    let mut ctrl = tiny_ctrl();
    for request in requests {
        ctrl.service(request.clone()).expect("request serves");
    }
    ctrl.dram().stats().cycles
}

fn replay(channels: usize, trace: Trace) -> Kernel {
    Box::new(move || {
        black_box(replay_cycles(channels, &trace));
        trace.len() as u64
    })
}

/// The same fetch served request by request on one controller.
fn cnn_fetch_direct() -> Kernel {
    let requests: Vec<MemRequest> = cnn_fetch_trace().requests().collect();
    Box::new(move || {
        black_box(direct_cycles(&requests));
        requests.len() as u64
    })
}

/// The engine cases' simulated device cycles and their speedup over
/// one channel: the hardware-side scaling, which host rates cannot
/// show.
fn device_cycles() -> String {
    let mut out = String::from("device cycles (simulated, speedup vs 1 channel):\n");
    for (name, trace, widths) in
        [("replay", sharding_trace(), &[1, 2, 4][..]), ("cnn_fetch", cnn_fetch_trace(), &[1, 2])]
    {
        let one = replay_cycles(1, &trace);
        for &channels in widths {
            let cycles = replay_cycles(channels, &trace);
            let speedup = one as f64 / cycles as f64;
            out.push_str(&format!("  {name}_{channels}ch {cycles:>9} cycles  {speedup:.2}x\n"));
        }
    }
    let direct = direct_cycles(&cnn_fetch_trace().requests().collect::<Vec<_>>());
    out.push_str(&format!("  cnn_fetch_direct {direct:>9} cycles\n"));
    out
}

// ---- dnn: GEMM, bit search ----

/// The im2col shape of the CNN victim: activations (rows of patches)
/// times a transposed weight matrix.
fn gemm(reference: bool) -> Kernel {
    let (m, k, n) = (64, 128, 32);
    let a = Tensor::randn(m, k, 11);
    let b = Tensor::randn(n, k, 12);
    Box::new(move || {
        let product = if reference {
            black_box(&a).matmul_transpose_reference(black_box(&b))
        } else {
            black_box(&a).matmul_transpose(black_box(&b))
        };
        black_box(product.expect("shapes"));
        (2 * m * k * n) as u64
    })
}

/// One progressive-bit-search step (Fig. 1a's attack).
fn bfa_next_flip() -> Kernel {
    let victim = models::victim_tiny(1);
    let (x, y) = victim.dataset.test_sample(32, 0);
    let mut search = BitSearch::new(BfaConfig::default());
    Box::new(move || {
        black_box(search.next_flip(&victim.model, &x, &y));
        1
    })
}

/// One bit-search step through convs, an average pool and open
/// residual shortcuts: the Tiny CNN victim under the CNN BFA entries'
/// search (2 candidates per layer, bits 6–7).
fn bfa_next_flip_cnn() -> Kernel {
    let victim = models::victim_tiny_cnn(1);
    let (x, y) = victim.dataset.test_sample(32, 0);
    let config = BfaConfig { candidates_per_layer: 2, bits_considered: Some([6, 7]) };
    let mut search = BitSearch::new(config);
    Box::new(move || {
        black_box(search.next_flip(&victim.model, &x, &y));
        1
    })
}

// ---- sim: whole scenarios ----

/// Fig. 8's defended hammer attempt through the scenario pipeline.
fn denied_hammer_campaign() -> Kernel {
    let mut run = Scenario::builder()
        .label("fig8-kernel")
        .victim(VictimSpec::row(20, 0xA5))
        .attack(AttackSpec::Hammer { bit: 5 })
        .defense(DefenseSpec::locker_adjacent())
        .budget(Budget { max_activations: 64, check_interval: 8, iterations: 1 })
        .build()
        .expect("scenario builds");
    Box::new(move || {
        black_box(run.run().expect("defended campaign runs"));
        1
    })
}

/// The ablation's victim workload at the shortest re-lock interval
/// (the most SWAP churn).
fn ablation_relock100() -> Kernel {
    Box::new(|| {
        black_box(ablation::victim_workload(100, LockTarget::AdjacentRows).expect("workload runs"));
        1
    })
}

// ---- sweep: the work-stealing runner and its queue ----

/// 12 jobs of about a millisecond each: a pointer chase and a
/// streaming replay over {1, 2, 4} channels × {none, dram-locker}.
/// Each job steps its shards serially, so all parallelism is the
/// runner's and a job is long enough to dwarf a thread start-up.
fn sweep_specs() -> Vec<ScenarioSpec> {
    const SPAN: u64 = 256 * 64; // valid on every channel count
    let mut base = dlk_sim::find("replay-chase-2ch").expect("catalog entry").spec;
    base.engine.parallel = false;
    SweepGrid::over(base)
        .attacks([
            AttackSpec::tenants(vec![Workload::PointerChase {
                base: 0,
                span: SPAN,
                len: 8,
                count: 2_000,
                seed: 7,
            }]),
            AttackSpec::tenants(vec![Workload::Sequential { base: 0, len: 8, count: 2_000 }]),
        ])
        .defenses([vec![], vec![DefenseSpec::locker_adjacent()]])
        .channels([1, 2, 4])
        .expand()
}

fn sweep_grid(runner: SweepRunner) -> Kernel {
    let specs = sweep_specs();
    Box::new(move || {
        black_box(runner.run_reports(&specs).expect("sweep runs"));
        specs.len() as u64
    })
}

/// No-op jobs: every microsecond measured is queue overhead —
/// injector, deques, stealing, slot bookkeeping.
fn queue_noop() -> Kernel {
    const JOBS: usize = 2_000;
    let runner = SweepRunner::parallel();
    Box::new(move || {
        let outcomes = runner.run_fn(JOBS, |index| -> Result<RunReport, SimError> {
            Err(SimError::Build(format!("noop {index}")))
        });
        assert_eq!(outcomes.len(), JOBS);
        JOBS as u64
    })
}

// ---- figures: regenerating each paper artifact ----

/// Model-backed artifacts regenerate at test fidelity; paper scale
/// takes minutes per artifact.
const FAST: Fidelity = Fidelity::Fast;

/// One regeneration of an artifact per call.
fn regenerate(render: impl Fn() -> String + 'static) -> Kernel {
    Box::new(move || {
        black_box(render());
        1
    })
}

/// The §IV-D Monte-Carlo kernel: 1000 SWAP trials at ±20% variation.
fn mc_trials() -> Kernel {
    let mc = MonteCarlo::new(VariationConfig::default());
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        black_box(mc.run(0.20, 1_000, seed));
        1_000
    })
}
