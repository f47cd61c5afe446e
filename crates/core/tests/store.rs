//! Corruption-injection tests for the on-disk dictionary store: every
//! way a checkpoint file can go bad must degrade to a silent
//! recomputation — same report, no panic — never a wrong ranking.

use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::testutil::TestDir;
use sdd_netlist::profiles;
use std::fs;
use std::path::{Path, PathBuf};

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("sdds"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn pattern_checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    checkpoint_files(dir)
        .into_iter()
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with("pat-"))
                .unwrap_or(false)
        })
        .collect()
}

fn run(dir: &Path, seed: u64) -> AccuracyReport {
    ArtifactLayer::builder()
        .store_dir(dir)
        .build()
        .expect("layer builds")
        .session("")
        .run_campaign(&profiles::S27, &CampaignConfig::quick(seed))
        .expect("campaign runs")
}

#[test]
fn corrupted_checkpoints_degrade_to_recomputation() {
    let guard = TestDir::new("store-it-corrupt");
    let dir = guard.path();

    // Cold run populates the store; a warm run must reuse it and still
    // produce the bit-identical report (the round-trip determinism
    // contract of the store).
    let baseline = run(dir, 7);
    assert!(
        !checkpoint_files(dir).is_empty(),
        "campaign left no checkpoints"
    );
    let warm = run(dir, 7);
    assert_eq!(baseline, warm, "loaded dictionaries changed the report");
    assert!(warm.metrics.store_hits > 0, "warm run never loaded");
    assert_eq!(warm.metrics.store_misses, 0);

    // Truncated files: cut every checkpoint in half.
    for f in checkpoint_files(dir) {
        let bytes = fs::read(&f).unwrap();
        fs::write(&f, &bytes[..bytes.len() / 2]).unwrap();
    }
    let after_truncation = run(dir, 7);
    assert_eq!(baseline, after_truncation, "truncation changed the report");
    assert_eq!(after_truncation.metrics.store_hits, 0);
    assert!(after_truncation.metrics.store_misses > 0);

    // Flipped byte: one bit of payload somewhere mid-file (the previous
    // run re-checkpointed, so the files are whole again).
    for f in checkpoint_files(dir) {
        let mut bytes = fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&f, &bytes).unwrap();
    }
    let after_flip = run(dir, 7);
    assert_eq!(baseline, after_flip, "a flipped byte changed the report");
    assert_eq!(after_flip.metrics.store_hits, 0);
    assert!(after_flip.metrics.store_misses > 0);

    // Wrong version: stamp an unknown format version into the header
    // (bytes 8..12, after the 8-byte magic).
    for f in checkpoint_files(dir) {
        let mut bytes = fs::read(&f).unwrap();
        bytes[8] = 0xFE;
        fs::write(&f, &bytes).unwrap();
    }
    let after_version = run(dir, 7);
    assert_eq!(baseline, after_version, "version skew changed the report");
    assert_eq!(after_version.metrics.store_hits, 0);
    assert!(after_version.metrics.store_misses > 0);

    // Wrong fingerprint: swap the contents of two checkpoints. Each file
    // is internally valid but its embedded key no longer matches the key
    // its name promises, so both must be rejected as misses.
    let files = checkpoint_files(dir);
    if files.len() >= 2 {
        let a = fs::read(&files[0]).unwrap();
        let b = fs::read(&files[1]).unwrap();
        fs::write(&files[0], &b).unwrap();
        fs::write(&files[1], &a).unwrap();
        let after_swap = run(dir, 7);
        assert_eq!(baseline, after_swap, "a key mismatch changed the report");
        assert!(
            after_swap.metrics.store_misses >= 2,
            "both swapped checkpoints should be rejected"
        );
    }
}

#[test]
fn corrupted_pattern_checkpoints_degrade_to_regeneration() {
    let guard = TestDir::new("store-it-pattern-corrupt");
    let dir = guard.path();

    let baseline = run(dir, 11);
    assert!(
        !pattern_checkpoint_files(dir).is_empty(),
        "campaign left no pattern checkpoints"
    );
    let warm = run(dir, 11);
    assert_eq!(baseline, warm, "loaded patterns changed the report");
    assert!(warm.metrics.pattern_store_hits > 0, "warm run never loaded");
    assert_eq!(warm.metrics.pattern_store_misses, 0);

    // Corrupt *only* the pattern checkpoints (truncate half, flip a byte
    // in the rest): every one must be rejected and silently regenerated
    // while dictionary banks keep loading from their untouched files.
    for (i, f) in pattern_checkpoint_files(dir).into_iter().enumerate() {
        let mut bytes = fs::read(&f).unwrap();
        if i % 2 == 0 {
            bytes.truncate(bytes.len() / 2);
        } else {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
        }
        fs::write(&f, &bytes).unwrap();
    }
    let after = run(dir, 11);
    assert_eq!(baseline, after, "pattern corruption changed the report");
    assert_eq!(after.metrics.pattern_store_hits, 0);
    assert!(after.metrics.pattern_store_misses > 0);
    assert!(
        after.metrics.pattern_store_flushes > 0,
        "regenerated patterns were not re-checkpointed"
    );
    assert!(
        after.metrics.store_hits > 0,
        "dictionary checkpoints should be unaffected"
    );

    // The regeneration re-flushed valid checkpoints: one more run loads
    // them all again.
    let healed = run(dir, 11);
    assert_eq!(baseline, healed);
    assert!(healed.metrics.pattern_store_hits > 0);
    assert_eq!(healed.metrics.pattern_store_misses, 0);
}

#[test]
fn bulk_decoded_checkpoints_reject_word_level_corruption() {
    // The grid payload is now decoded in one bulk word pass over the
    // single `fs::read` buffer (no per-word cursor checks). This pins
    // the two failure shapes that pass touches directly: a truncation
    // that cuts a 64-bit word mid-boundary, and a flipped bit inside
    // the word payload itself. Both must degrade to a *recorded* miss
    // and an unchanged report — never a short read or a wrong grid.
    let guard = TestDir::new("store-it-bulk-corrupt");
    let dir = guard.path();

    let baseline = run(dir, 13);
    let warm = run(dir, 13);
    assert_eq!(baseline, warm, "warm bulk-decoded run changed the report");
    assert!(warm.metrics.store_hits > 0, "warm run never loaded");
    assert_eq!(warm.metrics.store_misses, 0);

    // Shave 3 bytes off the tail: the last payload word is now partial,
    // so the bulk u64 decode must report truncation.
    for f in checkpoint_files(dir) {
        let bytes = fs::read(&f).unwrap();
        fs::write(&f, &bytes[..bytes.len() - 3]).unwrap();
    }
    let after_shave = run(dir, 13);
    assert_eq!(
        baseline, after_shave,
        "a mid-word truncation changed the report"
    );
    assert_eq!(after_shave.metrics.store_hits, 0);
    assert!(
        after_shave.metrics.store_misses > 0,
        "mid-word truncation was not recorded as a miss"
    );

    // Flip one bit deep inside the word payload (not the header): the
    // section checksum over the bulk-decoded words must catch it.
    for f in checkpoint_files(dir) {
        let mut bytes = fs::read(&f).unwrap();
        let ix = bytes.len() * 3 / 4;
        bytes[ix] ^= 0x01;
        fs::write(&f, &bytes).unwrap();
    }
    let after_flip = run(dir, 13);
    assert_eq!(
        baseline, after_flip,
        "a payload bit flip changed the report"
    );
    assert_eq!(after_flip.metrics.store_hits, 0);
    assert!(after_flip.metrics.store_misses > 0);

    // The corrupted files were re-flushed whole: the store heals and the
    // next run loads everything again.
    let healed = run(dir, 13);
    assert_eq!(baseline, healed);
    assert!(healed.metrics.store_hits > 0);
    assert_eq!(healed.metrics.store_misses, 0);
}

#[test]
fn store_roundtrip_reports_are_bit_identical_across_processes_worth_of_state() {
    // The tentpole acceptance check in miniature: two layers, two
    // lifetimes, one directory — the second run's dictionaries come from
    // disk and the reports match exactly.
    let dir = TestDir::new("store-it-roundtrip");
    let cold = run(dir.path(), 21);
    let warm = run(dir.path(), 21);
    assert_eq!(cold, warm);
    // Neither store path changes an answer: a store-less layer agrees.
    let storeless = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &CampaignConfig::quick(21))
        .expect("campaign runs");
    assert_eq!(cold, storeless, "the store changed the report");
    assert!(warm.metrics.store_hits > 0);
    assert_eq!(
        warm.metrics.dict_cache_misses, 0,
        "warm run should simulate no dictionary banks"
    );
}
