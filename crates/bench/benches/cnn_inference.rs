//! CNN inference weight-fetch on the sharded engine: the ResNet-20-
//! shaped victim's weight image streamed through the memory controller
//! as its inference loop would fetch it, serial vs. 2-channel sharded.
//!
//! Bench hygiene (ROADMAP): the artifact block — device cycles of the
//! engine replays and of one controller serving the fetch directly —
//! prints once via `print_once`, strictly outside the measured
//! closures; the criterion group then measures only the replay kernels.

use std::sync::Once;

use criterion::{criterion_group, criterion_main, Criterion};

use dlk_bench::print_once;
use dlk_dnn::{models, QuantizedMlp, WeightLayout};
use dlk_engine::{EngineConfig, ShardedEngine, TraceReplay};
use dlk_memctrl::{AddressMapper, MemCtrlConfig, MemoryController, Trace};

static ARTIFACT: Once = Once::new();

const WEIGHT_BASE: u64 = 0x400;
const BATCHES: usize = 4;
const CHUNK: usize = 32;

fn model() -> QuantizedMlp {
    models::victim_resnet20_cnn(42).model
}

/// The weight-fetch trace in *global* addresses. The image is laid
/// out contiguously in the global space, so on a multi-channel engine
/// its rows interleave across channels (the router's row striping) and
/// the fetch stream fans out — the deployment a bandwidth-hungry
/// inference server would choose. (`ChannelRouter::globalize_trace`
/// would instead pin the image to one shard, the single-tenant
/// isolation layout the scenario catalog exercises.)
fn global_fetch_trace(model: &QuantizedMlp) -> Trace {
    let config = MemCtrlConfig::tiny_for_tests();
    let mapper = AddressMapper::new(config.dram.geometry, config.scheme);
    let layout = WeightLayout::new(WEIGHT_BASE, mapper);
    layout.fetch_trace(model, BATCHES, CHUNK).expect("image fits")
}

/// Replays the fetch trace on a fresh engine; returns device cycles.
fn replay_once(channels: usize, trace: &Trace) -> u64 {
    let mut engine =
        ShardedEngine::new(EngineConfig::sharded(channels), MemCtrlConfig::tiny_for_tests())
            .expect("engine builds");
    engine.replay(TraceReplay::new(trace)).expect("replay runs");
    engine.snapshot().cycles
}

/// Services the whole fetch request by request on one controller;
/// returns cycles.
fn direct_once(requests: &[dlk_memctrl::MemRequest]) -> u64 {
    let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
    for request in requests {
        ctrl.service(request.clone()).expect("request serves");
    }
    ctrl.dram().stats().cycles
}

fn bench_cnn_inference(c: &mut Criterion) {
    let model = model();
    let trace = global_fetch_trace(&model);
    let requests: Vec<dlk_memctrl::MemRequest> = trace.requests().collect();

    print_once(&ARTIFACT, || {
        let mut out = String::from("== CNN weight fetch: serial vs 2-channel sharded ==\n");
        out.push_str(&format!(
            "ResNet-20-shaped victim: {} weight bytes, {} fetch requests ({BATCHES} batches, \
             {CHUNK}-byte chunks)\n",
            model.total_weights(),
            trace.len(),
        ));
        let mut base = None;
        for channels in [1usize, 2] {
            let cycles = replay_once(channels, &trace);
            let reference = *base.get_or_insert(cycles);
            out.push_str(&format!(
                "  {channels} channel(s): {cycles:>7} device cycles (speedup {:.2}x)\n",
                reference as f64 / cycles as f64
            ));
        }
        out.push_str(&format!("  direct controller fetch: {} cycles\n", direct_once(&requests)));
        out
    });

    let mut group = c.benchmark_group("cnn_inference");
    group.sample_size(10);
    for channels in [1usize, 2] {
        group.bench_function(format!("fetch_{channels}ch"), |b| {
            b.iter(|| replay_once(channels, &trace))
        });
    }
    group.bench_function("fetch_direct_ctrl", |b| b.iter(|| direct_once(&requests)));
    group.finish();
}

criterion_group!(benches, bench_cnn_inference);
criterion_main!(benches);
