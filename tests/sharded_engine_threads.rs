//! A parallel sharded engine really leaves the caller's thread, and the
//! serial reference never does.
//!
//! This is the only test of its process, so no other test holds the
//! worker pool while it runs. The caller replays shards too (the pool
//! is work-first), so one run may finish every shard before a helper
//! wakes; the test therefore runs the scenario until a shard is served
//! off the main thread, and fails if none ever is.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use dram_locker::dram::{DramDevice, RowAddr};
use dram_locker::memctrl::{pool, DefenseHook, HookAction, MemRequest};
use dram_locker::sim::{AttackSpec, EngineConfig, Scenario, VictimSpec, Workload};

const ROW_BYTES: u64 = 64; // tiny geometry

/// A mounted hook that records which thread served its shard's
/// traffic.
struct ThreadSpy {
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl DefenseHook for ThreadSpy {
    fn before_access(
        &mut self,
        _request: &MemRequest,
        _target: RowAddr,
        _dram: &mut DramDevice,
    ) -> HookAction {
        self.seen.lock().unwrap().insert(std::thread::current().id());
        HookAction::Allow
    }

    fn name(&self) -> &str {
        "thread-spy"
    }
}

/// The threads that served a 4-channel multi-tenant replay on
/// `engine`. A spy mounts on every shard between `build()` and
/// `run()`: the victims are already deployed then, exactly as when a
/// defense mounts during the build.
fn spy_threads(engine: EngineConfig) -> HashSet<ThreadId> {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let mut run = Scenario::builder()
        .victim_on(VictimSpec::row(20, 0xA5), 0)
        .attack(AttackSpec::tenants(vec![
            Workload::Sequential { base: 0, len: 8, count: 400 },
            Workload::PointerChase { base: 0, span: 512 * ROW_BYTES, len: 8, count: 400, seed: 3 },
        ]))
        .engine(engine)
        .build()
        .unwrap();
    for channel in 0..run.engine().channels() {
        let spy = Box::new(ThreadSpy { seen: seen.clone() });
        run.engine_mut().shard_mut(channel).controller_mut().set_hook(spy);
    }
    run.run().unwrap();
    let set = seen.lock().unwrap().clone();
    set
}

#[test]
fn parallel_engine_steps_shards_off_the_main_thread() {
    // The measurement probes after the replay run on the main thread,
    // so `main` legitimately appears in every set.
    let main = std::thread::current().id();
    let serial = spy_threads(EngineConfig::serial_reference(4));
    assert_eq!(serial, HashSet::from([main]), "serial reference stays on the main thread");
    if pool::threads() < 2 {
        return; // one core: the pool has no helper to hand a shard to
    }
    let runs = 50;
    let left_main = (0..runs).any(|_| spy_threads(EngineConfig::sharded(4)).len() > 1);
    assert!(left_main, "{runs} parallel runs served every shard on the main thread");
}
