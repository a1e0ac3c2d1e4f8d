//! Dropping a `WorkerGroup` while its heartbeat sweep is in flight.
//!
//! The heartbeat thread upgrades its `Weak` for the length of one sweep. If
//! the owner drops the group meanwhile, the sweep holds the last strong
//! reference and `Drop` runs on the heartbeat thread itself. The group must
//! then shut down without joining its own thread (a self-join panics) and
//! still kill and reap every worker process.

use sparkline::transport::{WorkerConfig, WORKER_BIN_ENV};
use sparkline::WorkerGroup;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

static HEARTBEAT_PANICS: AtomicUsize = AtomicUsize::new(0);

#[cfg(target_os = "linux")]
#[test]
fn dropping_a_group_mid_sweep_runs_drop_on_the_heartbeat_thread_cleanly() {
    std::env::set_var(WORKER_BIN_ENV, env!("CARGO_BIN_EXE_sparkline-worker"));
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("sparkline-heartbeat") {
            HEARTBEAT_PANICS.fetch_add(1, Ordering::SeqCst);
        }
        default_hook(info);
    }));
    let config = WorkerConfig {
        heartbeat_interval: Duration::from_millis(5),
        liveness_deadline: Duration::from_millis(50),
        ..WorkerConfig::default()
    };
    let group = WorkerGroup::spawn(2, config).expect("spawn worker group");
    // The worker-loss callback runs inside a sweep, while the heartbeat
    // holds its strong reference: park it there until the owner has
    // dropped its own.
    let (in_sweep, owner_dropped) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let (a, b) = (in_sweep.clone(), owner_dropped.clone());
    group.set_on_worker_lost(move |_| {
        a.wait();
        b.wait();
    });
    let killed = group.pid(0);
    let status = std::process::Command::new("kill")
        .args(["-9", &killed.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success());
    in_sweep.wait();
    // The respawned worker replaced the killed one.
    let pids = [group.pid(0), group.pid(1)];
    drop(group);
    owner_dropped.wait();

    // The last reference now drops on the heartbeat thread, which must
    // kill and reap the workers: their /proc entries (zombies included)
    // disappear.
    let deadline = Instant::now() + Duration::from_secs(10);
    let alive = |pid: &u32| std::path::Path::new(&format!("/proc/{pid}")).exists();
    while pids.iter().any(alive) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let leaked: Vec<&u32> = pids.iter().filter(|p| alive(p)).collect();
    assert!(leaked.is_empty(), "worker processes not reaped: {leaked:?}");
    assert_eq!(HEARTBEAT_PANICS.load(Ordering::SeqCst), 0);
}
