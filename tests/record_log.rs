//! The OPDK record log under both checkpoint payloads: sweep buckets
//! (version 1) and serve vshards (version 2).
//!
//! - A proptest cuts arbitrary record sequences of either payload at an
//!   arbitrary byte and flips an arbitrary byte. The reader must return
//!   exactly the longest whole-record prefix, never panic, and never
//!   size an allocation from a corrupt length or count field.
//! - Golden images assembled byte by byte from the documented layouts
//!   (not by the writer) pin both formats.
//! - File-level tests cover roundtrip, torn tail, checksum flip,
//!   oversized length, header refusal, strict bucket decoding, and
//!   resuming from an empty file on the sweep and the serve path.

#[path = "common/alloc.rs"]
mod alloc;

use std::fmt::Debug;
use std::path::PathBuf;

use opd::core::DetectedPhase;
use opd::experiments::checkpoint::{
    decode_bucket, encode_bucket, parse_checkpoint, run_fingerprint, sweep_many_checkpointed,
    BucketRuns, CheckpointWriter, CHECKPOINT_VERSION,
};
use opd::experiments::runner::{prepare_all, sweep_many};
use opd::microvm::workloads::Workload;
use opd::serve::checkpoint::{
    decode_vshard, encode_vshard, ServeCheckpointWriter, SERVE_CHECKPOINT_VERSION,
};
use opd::serve::{
    run_service, MemorySource, ServeConfig, ServiceOptions, SessionReport, SessionStats,
    SessionStatus,
};
use opd::trace::fnv64;
use opd::trace::record::{
    read_log, CheckpointError, RecordWriter, HEADER_LEN, MAGIC, MAX_RECORD_LEN, RECORD_MARKER,
};
use proptest::prelude::*;

const FP: u64 = 0x0123_4567_89AB_CDEF;

/// A per-test temp file, so parallel tests never share one.
fn tmp(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opd_record_log_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{test}.opdk"))
}

type Bucket = ((u32, u32), BucketRuns);
type Vshard = (u32, Vec<SessionReport>);

fn encode_bucket_record(((workload, unit), runs): &Bucket) -> Vec<u8> {
    let runs: Vec<(usize, Vec<DetectedPhase>)> = runs
        .iter()
        .map(|(ci, phases)| (*ci as usize, phases.clone()))
        .collect();
    encode_bucket(*workload, *unit, &runs)
}

fn encode_vshard_record((vshard, reports): &Vshard) -> Vec<u8> {
    encode_vshard(*vshard, reports)
}

/// The writer's in-memory log of `payloads`, with each record's end
/// offset.
fn image(version: u16, payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut w = RecordWriter::start(&mut bytes, version, FP).expect("in-memory header");
    let mut end = HEADER_LEN;
    let mut ends = Vec::with_capacity(payloads.len());
    for p in payloads {
        w.append(p).expect("in-memory append");
        end += 1 + 4 + p.len() + 8;
        ends.push(end);
    }
    drop(w);
    (bytes, ends)
}

/// Checks the reader's contract on `records` written as one log, cut
/// to `cut` bytes, with the byte at `flip.0` xor-ed by `flip.1`.
fn check_damage<T: PartialEq + Debug>(
    version: u16,
    records: &[T],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    cut: usize,
    flip: Option<(usize, u8)>,
) -> Result<(), TestCaseError> {
    let payloads: Vec<Vec<u8>> = records.iter().map(&encode).collect();
    let (mut bytes, ends) = image(version, &payloads);
    let cut = cut % (bytes.len() + 1);
    bytes.truncate(cut);
    let flip = flip.map(|(at, mask)| (at % bytes.len().max(1), mask));
    if let Some((at, mask)) = flip {
        if let Some(b) = bytes.get_mut(at) {
            *b ^= mask;
        }
    }
    let (parsed, max_alloc) =
        alloc::thread_max_allocation_during(|| read_log(&bytes, version, &decode));
    prop_assert!(
        max_alloc <= 4 * bytes.len() + 256,
        "a {}-byte image drove a {max_alloc}-byte allocation",
        bytes.len()
    );
    let flipped = |lo: usize, hi: usize| flip.is_some_and(|(at, _)| (lo..hi).contains(&at));
    if cut < HEADER_LEN || flipped(0, 4) {
        prop_assert!(
            matches!(parsed, Err(CheckpointError::BadMagic)),
            "{parsed:?}"
        );
        return Ok(());
    }
    if flipped(4, 6) {
        prop_assert!(
            matches!(parsed, Err(CheckpointError::BadVersion(_))),
            "{parsed:?}"
        );
        return Ok(());
    }
    let log = parsed.map_err(|e| TestCaseError::fail(format!("header is intact: {e}")))?;
    prop_assert_eq!(log.fingerprint == FP, !flipped(6, HEADER_LEN));
    let whole = ends
        .iter()
        .enumerate()
        .take_while(|&(i, &end)| {
            let start = if i == 0 { HEADER_LEN } else { ends[i - 1] };
            end <= cut && !flipped(start, end)
        })
        .count();
    let valid_len = if whole == 0 {
        HEADER_LEN
    } else {
        ends[whole - 1]
    };
    prop_assert_eq!(&log.records[..], &records[..whole]);
    prop_assert_eq!(log.valid_len, valid_len as u64);
    prop_assert_eq!(log.damaged_tail_bytes, (cut - valid_len) as u64);
    Ok(())
}

fn phase_strategy() -> impl Strategy<Value = DetectedPhase> {
    (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>()).prop_map(
        |(start, anchored_start, has_end, end)| DetectedPhase {
            start,
            anchored_start,
            end: has_end.then_some(end),
        },
    )
}

fn bucket_strategy() -> impl Strategy<Value = Bucket> {
    (
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(
            (any::<u32>(), prop::collection::vec(phase_strategy(), 0..4)),
            0..4,
        ),
    )
        .prop_map(|(workload, unit, runs)| ((workload, unit), runs))
}

fn report_strategy() -> impl Strategy<Value = SessionReport> {
    (
        any::<u32>(),
        0u8..3,
        any::<bool>(),
        prop::collection::vec(any::<u64>(), 19..20),
    )
        .prop_map(|(client, status, verified, v)| SessionReport {
            client,
            status: SessionStatus::from_code(status).expect("codes 0..3 exist"),
            stats: counters(&v, verified),
        })
}

fn vshard_strategy() -> impl Strategy<Value = Vshard> {
    (any::<u32>(), prop::collection::vec(report_strategy(), 0..3))
}

/// Session stats from the 19 counters in their documented payload
/// order.
fn counters(v: &[u64], verified: bool) -> SessionStats {
    let mut s = SessionStats::default();
    for (field, &value) in [
        &mut s.frames_total,
        &mut s.frames_delivered,
        &mut s.frames_processed,
        &mut s.elements_accepted,
        &mut s.steps,
        &mut s.crashes,
        &mut s.timeouts,
        &mut s.restarts,
        &mut s.replayed_elements,
        &mut s.corrupt_frames,
        &mut s.corrupt_records_lost,
        &mut s.phase_count,
        &mut s.phase_digest,
        &mut s.ticks,
        &mut s.shed.shed_oldest_frames,
        &mut s.shed.rejected_frames,
        &mut s.shed.blocked_ticks,
        &mut s.shed.quarantined_frames,
        &mut s.shed.undelivered_frames,
    ]
    .into_iter()
    .zip(v)
    {
        *field = value;
    }
    s.verified = verified;
    s
}

/// A flip mask of zero leaves the image intact.
fn flip_strategy() -> impl Strategy<Value = Option<(usize, u8)>> {
    (any::<usize>(), any::<u8>()).prop_map(|(at, mask)| (mask != 0).then_some((at, mask)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sweep_logs_keep_exactly_the_longest_whole_prefix(
        records in prop::collection::vec(bucket_strategy(), 0..6),
        cut in any::<usize>(),
        flip in flip_strategy(),
    ) {
        check_damage(CHECKPOINT_VERSION, &records, encode_bucket_record, decode_bucket, cut, flip)?;
    }

    #[test]
    fn serve_logs_keep_exactly_the_longest_whole_prefix(
        records in prop::collection::vec(vshard_strategy(), 0..6),
        cut in any::<usize>(),
        flip in flip_strategy(),
    ) {
        check_damage(SERVE_CHECKPOINT_VERSION, &records, encode_vshard_record, decode_vshard, cut, flip)?;
    }
}

fn put32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A log image from the documented layout: `OPDK`, version, the
/// fingerprint, then `[0xA5][len][payload][FNV-1a 64]` per payload.
fn golden_image(version: u16, payloads: &[&[u8]]) -> Vec<u8> {
    let mut out = b"OPDK".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    put64(&mut out, FP);
    for p in payloads {
        out.push(0xA5);
        put32(&mut out, p.len() as u32);
        out.extend_from_slice(p);
        put64(&mut out, fnv64(p));
    }
    out
}

/// One phase as the bucket payload documents it.
fn golden_phase(out: &mut Vec<u8>, start: u64, anchored: u64, end: Option<u64>) {
    put64(out, start);
    put64(out, anchored);
    out.push(u8::from(end.is_some()));
    put64(out, end.unwrap_or(0));
}

/// workload 1, unit 2: config 3 with a closed and an open phase,
/// config 9 with none.
fn golden_bucket() -> Vec<u8> {
    let mut p = Vec::new();
    for v in [1, 2, 2, 3, 2] {
        put32(&mut p, v);
    }
    golden_phase(&mut p, 10, 8, Some(42));
    golden_phase(&mut p, 50, 48, None);
    put32(&mut p, 9);
    put32(&mut p, 0);
    p
}

fn expected_bucket() -> BucketRuns {
    vec![
        (
            3,
            vec![
                DetectedPhase {
                    start: 10,
                    anchored_start: 8,
                    end: Some(42),
                },
                DetectedPhase {
                    start: 50,
                    anchored_start: 48,
                    end: None,
                },
            ],
        ),
        (9, Vec::new()),
    ]
}

#[test]
fn golden_v1_image_parses_to_the_expected_buckets() {
    let bucket = golden_bucket();
    let golden = golden_image(1, &[&bucket]);
    assert_eq!(&golden[..4], MAGIC);
    let recovered = parse_checkpoint(&golden).expect("golden v1 image");
    assert_eq!(recovered.fingerprint, FP);
    assert_eq!(recovered.valid_len, golden.len() as u64);
    assert_eq!(recovered.damaged_tail_bytes, 0);
    assert_eq!(recovered.buckets.len(), 1);
    assert_eq!(recovered.buckets[&(1, 2)], expected_bucket());
    // The writer produces exactly these bytes.
    assert_eq!(encode_bucket_record(&((1, 2), expected_bucket())), bucket);
    let (written, _) = image(1, &[bucket]);
    assert_eq!(written, golden);
}

#[test]
fn golden_v2_image_parses_to_the_expected_reports() {
    let mut payload = Vec::new();
    put32(&mut payload, 5); // vshard
    put32(&mut payload, 1); // report count
    put32(&mut payload, 7); // client
    payload.push(1); // status: quarantined
    payload.push(0); // verified: no
    for v in 1..=19 {
        put64(&mut payload, v);
    }
    let image = golden_image(2, &[&payload]);
    let log = read_log(&image, SERVE_CHECKPOINT_VERSION, decode_vshard).expect("golden v2 image");
    assert_eq!(log.fingerprint, FP);
    assert_eq!(log.valid_len, image.len() as u64);
    let counters_in_order: Vec<u64> = (1..=19).collect();
    let expected = SessionReport {
        client: 7,
        status: SessionStatus::Quarantined,
        stats: counters(&counters_in_order, false),
    };
    assert_eq!(log.records, vec![(5, vec![expected])]);
    assert_eq!(encode_vshard(5, &[expected]), payload);
}

#[test]
fn bucket_decoding_is_the_exact_inverse_of_encoding() {
    // A record with a valid checksum whose phase says `has_end = 2`,
    // or `has_end = 0` with a stored end, is damage, not a phase.
    let has_end_at = 5 * 4 + 16;
    for (byte, end) in [(2u8, 0u64), (0, 42)] {
        let mut bucket = golden_bucket();
        bucket[has_end_at] = byte;
        bucket[has_end_at + 1..has_end_at + 9].copy_from_slice(&end.to_le_bytes());
        let good = golden_bucket();
        let image = golden_image(1, &[&good, &bucket]);
        let recovered = parse_checkpoint(&image).expect("header is intact");
        assert_eq!(recovered.buckets.len(), 1, "has_end {byte}, end {end}");
        let tail = golden_image(1, &[&bucket]).len() - HEADER_LEN;
        assert_eq!(recovered.damaged_tail_bytes, tail as u64);
    }
}

#[test]
fn lying_counts_with_valid_checksums_allocate_nothing_large() {
    // Counts that cannot fit their payload are refused before any
    // `Vec::with_capacity`, so a record that checksums fine cannot
    // make the decoder reserve megabytes. (A count of 2^20 keeps a
    // regression a failed assertion rather than an aborted process.)
    let lie = 1 << 20;
    let mut runs = Vec::new();
    for v in [1, 2, lie] {
        put32(&mut runs, v);
    }
    let mut phases = Vec::new();
    for v in [1, 2, 1, 0, lie] {
        put32(&mut phases, v);
    }
    let mut reports = Vec::new();
    put32(&mut reports, 0);
    put32(&mut reports, lie);
    for (version, payload) in [(1, &runs), (1, &phases), (2, &reports)] {
        let image = golden_image(version, &[payload]);
        let (log, max) = alloc::thread_max_allocation_during(|| {
            if version == 1 {
                read_log(&image, version, decode_bucket).map(|l| l.records.len())
            } else {
                read_log(&image, version, decode_vshard).map(|l| l.records.len())
            }
        });
        assert_eq!(log.expect("header is intact"), 0);
        assert!(max < 4096, "a lying count drove a {max}-byte allocation");
    }
}

fn sample_reports(base: u32) -> Vec<SessionReport> {
    (0..3u32)
        .map(|i| {
            let mut stats = SessionStats::default();
            stats.frames_total = 10 + u64::from(i);
            stats.frames_processed = 9;
            stats.elements_accepted = 800 + u64::from(base);
            stats.phase_digest = 0xDEAD_0000 + u64::from(i);
            stats.phase_count = 4;
            stats.verified = i != 2;
            stats.shed.rejected_frames = u64::from(i);
            SessionReport {
                client: base + i * 7,
                status: if i == 2 {
                    SessionStatus::Quarantined
                } else {
                    SessionStatus::Completed
                },
                stats,
            }
        })
        .collect()
}

fn sample_runs() -> Vec<(usize, Vec<DetectedPhase>)> {
    expected_bucket()
        .into_iter()
        .map(|(ci, phases)| (ci as usize, phases))
        .collect()
}

#[test]
fn both_payloads_roundtrip_through_files() {
    let path = tmp("roundtrip_v1");
    let mut w = CheckpointWriter::create(&path, 0xDEAD).unwrap();
    w.append_bucket(1, 2, &sample_runs()).unwrap();
    w.append_bucket(7, 0, &[]).unwrap();
    drop(w);
    let recovered = parse_checkpoint(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(recovered.fingerprint, 0xDEAD);
    assert_eq!(recovered.damaged_tail_bytes, 0);
    assert_eq!(recovered.buckets.len(), 2);
    assert_eq!(recovered.buckets[&(1, 2)], expected_bucket());
    assert!(recovered.buckets[&(7, 0)].is_empty());

    let path = tmp("roundtrip_v2");
    let mut w = ServeCheckpointWriter::create(&path, 0xABCD_EF01).unwrap();
    w.append(3, &sample_reports(100)).unwrap();
    w.append(1, &sample_reports(200)).unwrap();
    drop(w);
    let (_w, map) = ServeCheckpointWriter::resume(&path, 0xABCD_EF01).unwrap();
    assert_eq!(map.len(), 2);
    assert_eq!(map[&3], sample_reports(100));
    assert_eq!(map[&1], sample_reports(200));
}

#[test]
fn torn_tails_are_dropped_and_appends_continue() {
    // Sweep: a kill mid-append chops the last record.
    let path = tmp("torn_v1");
    let mut w = CheckpointWriter::create(&path, 1).unwrap();
    w.append_bucket(0, 0, &sample_runs()).unwrap();
    w.append_bucket(0, 1, &sample_runs()).unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let recovered = parse_checkpoint(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(recovered.buckets.len(), 1, "only the whole record");
    assert!(recovered.buckets.contains_key(&(0, 0)));
    assert!(recovered.damaged_tail_bytes > 0);
    let (mut w, log) = RecordWriter::resume(&path, CHECKPOINT_VERSION, 1, decode_bucket).unwrap();
    assert_eq!(log.valid_len, recovered.valid_len);
    w.append(&encode_bucket(0, 1, &sample_runs())).unwrap();
    drop(w);
    let again = parse_checkpoint(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(again.buckets.len(), 2);
    assert_eq!(again.damaged_tail_bytes, 0);

    // Serve: the same heal through the service writer.
    let path = tmp("torn_v2");
    let mut w = ServeCheckpointWriter::create(&path, 7).unwrap();
    w.append(0, &sample_reports(1)).unwrap();
    w.append(5, &sample_reports(2)).unwrap();
    drop(w);
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 11]).unwrap();
    let (mut w, map) = ServeCheckpointWriter::resume(&path, 7).unwrap();
    assert_eq!(map.len(), 1, "torn record dropped");
    assert!(map.contains_key(&0));
    w.append(5, &sample_reports(2)).unwrap();
    drop(w);
    let (_w, healed) = ServeCheckpointWriter::resume(&path, 7).unwrap();
    assert_eq!(healed.len(), 2);
    assert_eq!(healed[&5], sample_reports(2));
}

#[test]
fn checksum_flips_and_oversized_lengths_are_tail_damage() {
    let payload = encode_vshard(2, &sample_reports(9));
    let good = golden_image(2, &[&payload]);
    let mut flipped = good.clone();
    flipped[HEADER_LEN + 9] ^= 0x40;
    let mut oversized = good.clone();
    oversized[HEADER_LEN + 1..HEADER_LEN + 5].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
    let mut marker = good.clone();
    marker[HEADER_LEN] = !RECORD_MARKER;
    for (name, image) in [
        ("flip", flipped),
        ("oversized", oversized),
        ("marker", marker),
    ] {
        let path = tmp(&format!("damage_{name}"));
        std::fs::write(&path, &image).unwrap();
        let (_w, map) = ServeCheckpointWriter::resume(&path, FP).unwrap();
        assert!(
            map.is_empty(),
            "{name}: a damaged record must not be restored"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            HEADER_LEN as u64,
            "{name}: the damaged tail is truncated"
        );
    }
}

#[test]
fn foreign_headers_are_typed_errors() {
    assert!(matches!(
        parse_checkpoint(b"not a checkpoint"),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(
        parse_checkpoint(&golden_image(99, &[])),
        Err(CheckpointError::BadVersion(99))
    ));
    // Each payload refuses the other's version rather than misread it.
    assert!(matches!(
        parse_checkpoint(&golden_image(2, &[])),
        Err(CheckpointError::BadVersion(2))
    ));
    let path = tmp("foreign_v1_header");
    std::fs::write(&path, golden_image(1, &[])).unwrap();
    assert!(matches!(
        ServeCheckpointWriter::resume(&path, FP),
        Err(CheckpointError::BadVersion(1))
    ));
    let path = tmp("foreign_fingerprint");
    drop(ServeCheckpointWriter::create(&path, 10).unwrap());
    assert!(matches!(
        ServeCheckpointWriter::resume(&path, 11),
        Err(CheckpointError::FingerprintMismatch {
            expected: 11,
            found: 10
        })
    ));
    for e in [
        CheckpointError::BadMagic,
        CheckpointError::BadVersion(9),
        CheckpointError::FingerprintMismatch {
            expected: 1,
            found: 2,
        },
    ] {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn sweep_resume_from_an_empty_file_starts_fresh() {
    // A kill between creating the file and writing its header leaves
    // zero bytes; resuming must start over, not fail forever.
    let ws = [Workload::Lexgen, Workload::Blockcomp];
    let prepared = prepare_all(&ws, 1, &[1_000], 20_000, 2);
    let configs = opd::experiments::grid::default_plan_grid();
    let fp = run_fingerprint(&configs, &ws, 1, 20_000);
    let path = tmp("empty_sweep");
    std::fs::write(&path, b"").unwrap();
    let (runs, summary) = sweep_many_checkpointed(&prepared, &configs, 1, &path, fp, true)
        .expect("an empty checkpoint resumes as a fresh start");
    assert_eq!(summary.restored_buckets, 0);
    assert_eq!(summary.damaged_tail_bytes, 0);
    let reference = sweep_many(&prepared, &configs, 1);
    for (w_ref, w_run) in reference.iter().zip(&runs) {
        for (r_ref, r_run) in w_ref.iter().zip(w_run) {
            assert_eq!(r_ref.detected, r_run.detected);
            assert_eq!(r_ref.anchored, r_run.anchored);
        }
    }
    let recovered = parse_checkpoint(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(recovered.fingerprint, fp);
    assert_eq!(recovered.buckets.len(), summary.computed_buckets);
}

#[test]
fn serve_resume_from_an_empty_file_starts_fresh() {
    let config = ServeConfig::default();
    let source = MemorySource::synthetic(6, 6, 40);
    let reference = run_service(&config, &source, &ServiceOptions::default()).unwrap();
    let path = tmp("empty_serve");
    std::fs::write(&path, b"").unwrap();
    let options = ServiceOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..ServiceOptions::default()
    };
    let resumed = run_service(&config, &source, &options)
        .expect("an empty checkpoint resumes as a fresh start");
    assert_eq!(resumed, reference);
    // The fresh log is whole: resuming it again restores every vshard.
    let again = run_service(&config, &source, &options).unwrap();
    assert_eq!(again.restored_vshards, again.vshards);
    assert_eq!(again.sessions, reference.sessions);
}
