//! Fault-injected persistence tests for the verdict store: injected
//! `ENOSPC` is a typed error that never touches the committed file, a
//! torn rename is quarantined (not silently deleted) on the next open,
//! and the generation marker counts exactly the successful flushes.
//!
//! Each test hands its own store its own plan, so they run in parallel
//! without firing each other's faults.

use rela_cache::{CacheEpoch, CacheKey, VerdictStore};
use rela_net::faultio::FaultPlan;
use rela_net::{BehaviorHash, Granularity};
use serde::Value;
use std::path::{Path, PathBuf};

fn plan(spec: &str) -> Option<FaultPlan> {
    Some(FaultPlan::parse(spec).expect("valid fault spec"))
}

fn key(n: u128) -> CacheKey {
    CacheKey {
        pre: BehaviorHash::from_u128(n),
        post: BehaviorHash::from_u128(n + 1),
        granularity: Granularity::Group,
        route: None,
        variant: 0,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rela-crashfaults-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store_files(dir: &Path, marker: &str) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.contains(marker))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn injected_enospc_fails_the_flush_but_never_the_committed_file() {
    let dir = tmpdir("enospc");
    let epoch = CacheEpoch::derive(1, "engine/v1");
    let mut store = VerdictStore::open(&dir, epoch).unwrap();
    store.put(&key(1), Value::Int(1));
    store.persist().unwrap();
    assert_eq!(store.generation(), 1);
    let path = dir.join(format!("verdicts-{epoch}.json"));
    let committed = std::fs::read_to_string(&path).unwrap();

    store.put(&key(2), Value::Int(2));
    store.set_faults(plan("enospc-after=16"));
    let err = store.persist().expect_err("the write budget must run out");
    assert!(err.to_string().contains("No space left"), "{err}");
    store.set_faults(None);
    // the failed flush: no generation bump, still dirty, no temp corpse,
    // and the committed bytes untouched
    assert_eq!(store.generation(), 1);
    assert!(store.is_dirty());
    assert_eq!(store_files(&dir, ".tmp."), Vec::<String>::new());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);

    // with the plan gone the same flush goes through
    store.persist().unwrap();
    assert_eq!(store.generation(), 2);
    assert!(!store.is_dirty());
    let reopened = VerdictStore::open(&dir, epoch).unwrap();
    assert_eq!(reopened.loaded(), 2);
    assert_eq!(reopened.generation(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_rename_is_quarantined_not_silently_dropped() {
    let dir = tmpdir("torn");
    let epoch = CacheEpoch::derive(2, "engine/v1");
    let mut store = VerdictStore::open(&dir, epoch).unwrap();
    store.put(&key(1), Value::Int(1));
    // the tear truncates the temp file *after* its fsync, so the rename
    // commits half a document — the classic torn-write crash artifact
    store.set_faults(plan("tear=persist@1"));
    store.persist().unwrap();

    let recovered = VerdictStore::open(&dir, epoch).unwrap();
    assert!(recovered.is_empty(), "a torn store must cold-start");
    let quarantined = recovered.quarantined();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert!(
        quarantined[0].to_string_lossy().contains(".quarantine."),
        "{quarantined:?}"
    );
    assert!(
        quarantined[0].exists(),
        "the torn bytes are evidence, not garbage"
    );

    // the recovered store can rebuild and persist over the loss
    recovered.put(&key(1), Value::Int(1));
    recovered.persist().unwrap();
    let warm = VerdictStore::open(&dir, epoch).unwrap();
    assert_eq!(warm.loaded(), 1);
    assert!(warm.quarantined().is_empty(), "clean open after recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panic_mid_persist_leaves_the_previous_file_intact() {
    let dir = tmpdir("panic");
    let epoch = CacheEpoch::derive(3, "engine/v1");
    let mut store = VerdictStore::open(&dir, epoch).unwrap();
    store.put(&key(1), Value::Int(1));
    store.persist().unwrap();
    let path = dir.join(format!("verdicts-{epoch}.json"));
    let committed = std::fs::read_to_string(&path).unwrap();

    store.put(&key(2), Value::Int(2));
    store.set_faults(plan("panic=persist@1"));
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.persist()));
    assert!(unwound.is_err(), "the injected panic must fire");
    // the crash window is between temp-fsync and rename: the committed
    // file is exactly the previous flush
    assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);
    assert_eq!(store.generation(), 1);

    // a later clean flush commits both entries
    store.persist().unwrap();
    let reopened = VerdictStore::open(&dir, epoch).unwrap();
    assert_eq!(reopened.loaded(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eintr_during_the_flush_is_retried_not_fatal() {
    let dir = tmpdir("eintr");
    let epoch = CacheEpoch::derive(4, "engine/v1");
    let mut store = VerdictStore::open(&dir, epoch).unwrap();
    for n in 0..64 {
        store.put(&key(n), Value::Int(n as i64));
    }
    // a high EINTR rate: `write_all` must absorb every interruption
    store.set_faults(plan("seed=11,eintr=0.4"));
    store.persist().unwrap();
    let reopened = VerdictStore::open(&dir, epoch).unwrap();
    assert_eq!(reopened.loaded(), 64);
    assert!(reopened.quarantined().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
