//! The disk tier end-to-end: a fresh `SimCache` (standing in for a fresh
//! process) pointed at a populated cache directory must serve lowered
//! traces and plan sets from disk, and the reloaded artifacts must drive
//! simulations whose results are byte-identical to the cold run — the
//! persistent tier is transparent or it is broken.

use std::path::PathBuf;
use std::sync::Arc;

use charllm::prelude::*;

/// A unique scratch directory per test run.
fn scratch_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("charllm_it_{tag}_{}_{nanos}", std::process::id()))
}

fn experiment(cache: Arc<SimCache>) -> RunReport {
    Experiment::builder()
        .cluster(single_hgx_node())
        .job(TrainJob::pretrain(gpt3_13b()).with_global_batch(8))
        .parallelism("TP2-PP2")
        .unwrap()
        .sim_config(SimConfig::fast())
        .cache(cache)
        .run()
        .unwrap()
}

#[test]
fn experiment_roundtrips_byte_identically_through_the_disk_tier() {
    let dir = scratch_dir("roundtrip");

    // Cold run: everything misses, and Experiment::run persists both the
    // lowered trace and the (now-built) plan set.
    let cold_cache = Arc::new(SimCache::new().with_disk_tier(&dir).unwrap());
    let cold = experiment(Arc::clone(&cold_cache));
    let stats = cold.cache.expect("cached experiment reports stats");
    assert_eq!(stats.lowered_misses, 1);
    assert_eq!(stats.lowered_disk_hits, 0);
    assert_eq!(
        stats.lowered_disk_misses, 1,
        "a miss with a disk tier attached is a disk miss"
    );
    assert!(
        stats.bytes_written > 0,
        "the run's artifacts were persisted"
    );

    // "New process": a fresh cache over the same directory. Both families
    // must come back from disk and the simulation must not notice.
    let warm_cache = Arc::new(SimCache::new().with_disk_tier(&dir).unwrap());
    let warm = experiment(Arc::clone(&warm_cache));
    let stats = warm.cache.expect("cached experiment reports stats");
    assert_eq!(stats.lowered_disk_hits, 1, "lowering served from disk");
    assert_eq!(stats.plan_disk_hits, 1, "plan set served from disk");
    assert_eq!(stats.lowered_misses, 0);
    assert_eq!(stats.plan_misses, 0);
    assert_eq!(
        serde_json::to_string(&cold.sim).unwrap(),
        serde_json::to_string(&warm.sim).unwrap(),
        "disk-served artifacts must be observationally identical"
    );
    assert_eq!(
        warm_cache.sync_disk().unwrap(),
        0,
        "nothing dirty after a fully disk-served run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_rerun_in_a_fresh_cache_is_served_from_disk() {
    let dir = scratch_dir("sweep");
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let specs = vec![
        ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
        ParallelismSpec::parse("TP4-PP2", 8).unwrap(),
    ];
    let sweep = |cache: Arc<SimCache>| {
        Sweep::new(single_hgx_node(), job.clone(), specs.clone())
            .with_microbatches(vec![1, 2])
            .with_sim_config(SimConfig::fast())
            .workers(2)
            .with_cache(cache)
            .run_outcomes()
    };

    let pass1 = sweep(Arc::new(SimCache::new().with_disk_tier(&dir).unwrap()));
    let pass2 = sweep(Arc::new(SimCache::new().with_disk_tier(&dir).unwrap()));
    assert_eq!(pass1.len(), 4);
    assert_eq!(pass2.len(), 4);

    let total = |outcomes: &[SweepOutcome]| {
        outcomes
            .iter()
            .filter_map(|o| o.report().and_then(|r| r.cache))
            .fold(CacheStats::default(), |acc, s| acc.add(&s))
    };
    let warm = total(&pass2);
    assert!(
        warm.disk_hits() > 0,
        "second pass must hit the disk tier: {warm}"
    );
    assert_eq!(warm.lowered_misses, 0, "nothing re-lowered: {warm}");
    assert_eq!(warm.plan_misses, 0, "no plan set rebuilt: {warm}");

    for (a, b) in pass1.iter().zip(&pass2) {
        assert_eq!(a.point(), b.point());
        let (a, b) = (a.report().unwrap(), b.report().unwrap());
        assert_eq!(
            serde_json::to_string(&a.sim).unwrap(),
            serde_json::to_string(&b.sim).unwrap(),
            "point {} must be byte-identical when served from disk",
            a.parallelism
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `text` (a persisted plan-set entry) with the first flow of its first
/// built plan rewritten by `edit`, which gets the flow's
/// `work pr src dst` tokens.
fn tamper_first_flow(text: &str, edit: impl Fn(&mut [String])) -> String {
    let built = text.find("\"built\":[[").expect("entry has built plans");
    let start = built + text[built..].find(",\"").unwrap() + 2;
    let end = start + text[start..].find([';', '"']).unwrap();
    let mut tokens: Vec<String> = text[start..end].split(' ').map(str::to_string).collect();
    assert_eq!(tokens.len(), 4, "a flow packs work, ratio, src and dst");
    edit(&mut tokens);
    format!("{}{}{}", &text[..start], tokens.join(" "), &text[end..])
}

#[test]
fn a_tampered_plan_entry_is_a_miss_and_rebuilds_the_cold_result() {
    let dir = scratch_dir("tamper");
    let cold = experiment(Arc::new(SimCache::new().with_disk_tier(&dir).unwrap()));
    let entries: Vec<PathBuf> = std::fs::read_dir(dir.join("plans"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one persisted plan set");
    let pristine = std::fs::read_to_string(&entries[0]).unwrap();
    let cases = [
        (
            "a GPU outside the cluster",
            tamper_first_flow(&pristine, |t| t[2] = "999999".into()),
        ),
        (
            "a flow from a GPU to itself",
            tamper_first_flow(&pristine, |t| t[3] = t[2].clone()),
        ),
    ];
    for (tag, text) in cases {
        std::fs::write(&entries[0], text).unwrap();
        let warm = experiment(Arc::new(SimCache::new().with_disk_tier(&dir).unwrap()));
        let stats = warm.cache.expect("cached experiment reports stats");
        assert_eq!(stats.lowered_disk_hits, 1, "{tag}");
        assert_eq!(
            (stats.plan_disk_hits, stats.plan_misses),
            (0, 1),
            "{tag}: the entry must read as a miss"
        );
        assert_eq!(
            serde_json::to_string(&cold.sim).unwrap(),
            serde_json::to_string(&warm.sim).unwrap(),
            "{tag}: the rebuilt run must equal the cold one"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
