//! Satellites of the temporal-observability layer, end to end: the
//! serve heartbeat's rolling series (and monotonic scan sequence)
//! surviving a daemon restart, the golden-pinned `dlk top` frame, and
//! the `dlk bench diff` regression gate against the real binary.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

use dlk_cli::cmd::top::render_frame;
use dlk_cli::spool::{serve, ServeConfig, METRICS_FILE};
use dlk_sim::obs::json::{self, Value};
use dlk_sim::obs::series::parse_series_object;

fn dlk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlk")).args(args).output().expect("dlk must spawn")
}

fn sandbox(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dlk-obs-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).unwrap();
    root
}

fn quiet() -> Arc<dlk_cli::spool::LogFn> {
    Arc::new(|_line: &str| {})
}

fn config(root: &std::path::Path) -> ServeConfig {
    ServeConfig {
        spool: root.join("spool"),
        out: root.join("out"),
        jobs: 2,
        poll: Duration::from_millis(10),
        once: true,
        job_timeout: Some(Duration::from_secs(60)),
        abort_after: None,
        max_scans: None,
    }
}

fn heartbeat(root: &std::path::Path) -> Value {
    json::parse_file(root.join("out").join(METRICS_FILE)).expect("heartbeat parses")
}

fn gauge(doc: &Value, name: &str) -> f64 {
    doc.section("gauges")
        .iter()
        .find(|g| g.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|g| g.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("gauge {name} missing from heartbeat"))
}

fn series_samples(doc: &Value, name: &str) -> Vec<dlk_sim::obs::Sample> {
    doc.section("series")
        .iter()
        .filter_map(parse_series_object)
        .find(|(n, _)| n == name)
        .map(|(_, samples)| samples)
        .unwrap_or_else(|| panic!("series {name} missing from heartbeat"))
}

#[test]
fn heartbeat_series_and_scan_seq_survive_a_restart() {
    let root = sandbox("restart");
    fs::create_dir_all(root.join("spool")).unwrap();
    let spec = dlk_sim::find("hammer-vs-dram-locker").unwrap().spec.to_text();
    fs::write(root.join("spool/job.dlk"), spec).unwrap();

    let first = serve(&config(&root), quiet()).unwrap();
    assert_eq!((first.executed, first.scans), (1, 1));
    let doc = heartbeat(&root);
    assert_eq!(gauge(&doc, "serve.scan_seq"), 1.0, "first lifetime scan");
    let executed_before = series_samples(&doc, "serve.executed");
    assert!(!executed_before.is_empty(), "every heartbeat carries at least its own tick");
    assert_eq!(executed_before.last().unwrap().value, 1.0);

    // Restart into the same out dir: the job skips, but the heartbeat's
    // history must replay — the series keeps its old samples and the
    // scan sequence continues instead of resetting to 1.
    let second = serve(&config(&root), quiet()).unwrap();
    assert_eq!((second.executed, second.skipped), (0, 1));
    let doc = heartbeat(&root);
    assert_eq!(gauge(&doc, "serve.scan_seq"), 2.0, "monotonic across restarts");
    let executed_after = series_samples(&doc, "serve.executed");
    assert!(
        executed_after.len() > executed_before.len(),
        "replayed history plus the fresh tick: {} -> {}",
        executed_before.len(),
        executed_after.len()
    );
    assert!(
        executed_after.starts_with(&executed_before),
        "the old samples are a prefix of the replayed series"
    );
    let stamps: Vec<u64> = executed_after.iter().map(|s| s.t_us).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "one monotone time axis: {stamps:?}");
    assert!(gauge(&doc, "serve.heartbeat_write_us") >= 0.0);
}

#[test]
fn top_frame_is_golden_pinned() {
    let doc = json::parse(include_str!("golden/heartbeat.json")).expect("fixture parses");
    // 5s past the fixture's pinned epoch: fresh heartbeat, work moving.
    let frame = render_frame(&doc, 5_000_000);
    assert_eq!(frame, include_str!("golden/top_frame.txt"));
}

#[test]
fn top_once_renders_the_fixture_through_the_binary() {
    let root = sandbox("topbin");
    fs::write(root.join(METRICS_FILE), include_str!("golden/heartbeat.json")).unwrap();
    let out = dlk(&["top", "--spool", root.to_str().unwrap(), "--once"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let frame = String::from_utf8_lossy(&out.stdout);
    // Real wall clock vs the pinned epoch: decades stale, so the frame
    // must call the daemon stalled — the discrimination `top` exists
    // for — while still rendering the series it last reported.
    assert!(frame.contains("STALLED"), "{frame}");
    assert!(frame.contains("serve.executed"), "{frame}");
    assert!(frame.contains("sweep.job_wall_us"), "{frame}");
    fs::remove_dir_all(&root).ok();

    let missing = dlk(&["top", "--spool", "/nonexistent", "--once"]);
    assert_eq!(missing.status.code(), Some(1), "missing heartbeat is a clean failure");
}

#[test]
fn bench_diff_gate_passes_identical_and_fails_regressed() {
    use dlk_bench::snapshot::{Snapshot, Spread};
    let root = sandbox("benchdiff");
    let mut old = Snapshot::new("locker", 5);
    old.metric("decode_minstr_per_s", "M/s", Spread::of(&[98.0, 99.0, 100.0, 101.0, 102.0]));
    old.metric("table2_wall_ms", "ms", Spread::exact(50.0));
    old.metric("fig1b_wall_ms", "ms", Spread::exact(0.01));
    old.speedup("decode_vs_reference", Spread::exact(4.0));
    old.write(root.join("old.json")).unwrap();

    let old_path = root.join("old.json").display().to_string();
    let same = dlk(&["bench", "diff", &old_path, &old_path, "--check", "--max-regress", "15"]);
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stderr));
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(table.contains("+0.0%"), "{table}");
    assert!(table.contains("no metric regressed"), "{table}");

    // 20% throughput drop and 20% wall-time growth: both past the 15%
    // gate and the recorded spread, in opposite numeric directions. The
    // sub-millisecond wall time triples and stays ungated.
    let mut new = Snapshot::new("locker", 5);
    new.metric("decode_minstr_per_s", "M/s", Spread::of(&[78.0, 79.0, 80.0, 81.0, 82.0]));
    new.metric("table2_wall_ms", "ms", Spread::exact(60.0));
    new.metric("fig1b_wall_ms", "ms", Spread::exact(0.03));
    new.speedup("decode_vs_reference", Spread::exact(4.0));
    new.write(root.join("new.json")).unwrap();

    let new_path = root.join("new.json").display().to_string();
    let gate = dlk(&["bench", "diff", &old_path, &new_path, "--check", "--max-regress", "15"]);
    assert_eq!(gate.status.code(), Some(1));
    let table = String::from_utf8_lossy(&gate.stdout);
    assert!(table.contains("<< REGRESSION"), "{table}");
    assert!(table.contains("(below floor)"), "{table}");
    let err = String::from_utf8_lossy(&gate.stderr);
    assert!(err.contains("locker: 2 metric(s) regressed"), "the gate names the layer: {err}");
    assert!(err.contains("decode_minstr_per_s") && err.contains("table2_wall_ms"), "{err}");
    assert!(!err.contains("fig1b_wall_ms"), "{err}");

    // Without --check the same diff reports and exits zero.
    let report = dlk(&["bench", "diff", &old_path, &new_path]);
    assert!(report.status.success());
    assert!(String::from_utf8_lossy(&report.stdout).contains("-20.0%"));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn real_snapshots_diff_cleanly_against_themselves() {
    // The committed BENCH_*.json baselines must flow through the gate:
    // schema drift here is exactly what this test exists to catch.
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut snapshots: Vec<PathBuf> = fs::read_dir(&repo)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    snapshots.sort();
    for path in snapshots {
        let path = path.display().to_string();
        let out = dlk(&["bench", "diff", &path, &path, "--check", "--max-regress", "0.1"]);
        assert!(
            out.status.success(),
            "{path} vs itself must pass the gate: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
