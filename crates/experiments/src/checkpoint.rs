//! Crash-safe checkpointing for long sweep runs: the sweep's payload
//! codec on the OPDK record log ([`opd_trace::record`]), version 1.
//!
//! A full-grid sweep is hours of work at production scale; a crash at
//! 95% must not mean starting over. The sweep engine's unit of work —
//! one `(workload, engine unit)` bucket — is deterministic and
//! scan-order independent, so completed buckets are appended to the
//! log as they finish, and a resumed run recomputes only the missing
//! ones: it is bit-identical to an uninterrupted run.
//!
//! # Bucket payload
//!
//! ```text
//! workload u32 LE, unit u32 LE, run_count u32 LE
//! then, per member config:
//!   config index u32 LE, phase_count u32 LE
//!   then, per phase:
//!     start u64 LE, anchored_start u64 LE,
//!     has_end u8 (0 or 1), end u64 LE (0 when has_end is 0)
//! ```
//!
//! Exact `u64`s only — no floats — so restoring is bit-identical by
//! construction. Decoding is the exact inverse of encoding: any other
//! `has_end`, a non-zero `end` without one, or trailing bytes make the
//! record damage, and the log keeps only the records before it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use opd_core::{DetectedPhase, DetectorConfig, SweepEngine};
use opd_microvm::workloads::Workload;
pub use opd_trace::record::CheckpointError;
use opd_trace::record::{read_log, Cursor, RecordWriter};

use crate::runner::{
    config_run, filled, max_site_capacity, run_lpt, unit_prices, ConfigRun, PreparedWorkload,
};

/// The OPDK payload version of sweep checkpoints (serve checkpoints
/// use version 2).
pub const CHECKPOINT_VERSION: u16 = 1;
/// Encoded bytes of one phase: start, anchored start, has-end, end.
const PHASE_LEN: usize = 8 + 8 + 1 + 8;

/// Fingerprints a sweep's parameters so a checkpoint is only ever
/// resumed against the run that produced it.
#[must_use]
pub fn run_fingerprint(
    configs: &[DetectorConfig],
    workloads: &[Workload],
    scale: u32,
    fuel: u64,
) -> u64 {
    let mut text = format!("scale={scale};fuel={fuel};");
    for c in configs {
        text.push_str(&format!("{c:?};"));
    }
    for w in workloads {
        text.push_str(w.name());
        text.push(';');
    }
    opd_trace::fnv64(text.as_bytes())
}

/// The per-config phase lists of one completed `(workload, unit)`
/// bucket, exactly as [`SweepEngine::run_unit`] returned them.
pub type BucketRuns = Vec<(u32, Vec<DetectedPhase>)>;

/// What [`parse_checkpoint`] recovered from a (possibly torn) image.
#[derive(Debug, Clone)]
pub struct RecoveredCheckpoint {
    /// The fingerprint stored in the header.
    pub fingerprint: u64,
    /// Completed buckets keyed by `(workload index, unit index)`.
    pub buckets: BTreeMap<(u32, u32), BucketRuns>,
    /// Length of the valid prefix; the resuming writer truncates the
    /// file here before appending.
    pub valid_len: u64,
    /// Bytes of torn or corrupt data discarded after the prefix.
    pub damaged_tail_bytes: u64,
}

/// An append-only sweep checkpoint file.
#[derive(Debug)]
pub struct CheckpointWriter(RecordWriter<File>);

impl CheckpointWriter {
    /// Creates (or overwrites) a checkpoint file for a new run.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn create(path: &Path, fingerprint: u64) -> io::Result<Self> {
        RecordWriter::create(path, CHECKPOINT_VERSION, fingerprint).map(CheckpointWriter)
    }

    /// Appends one completed bucket as a single checksummed record.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn append_bucket(
        &mut self,
        workload: u32,
        unit: u32,
        runs: &[(usize, Vec<DetectedPhase>)],
    ) -> io::Result<()> {
        self.0.append(&encode_bucket(workload, unit, runs))
    }
}

/// Encodes one completed bucket's per-config phases as a record
/// payload.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn encode_bucket(workload: u32, unit: u32, runs: &[(usize, Vec<DetectedPhase>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&workload.to_le_bytes());
    out.extend_from_slice(&unit.to_le_bytes());
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (ci, phases) in runs {
        out.extend_from_slice(&(*ci as u32).to_le_bytes());
        out.extend_from_slice(&(phases.len() as u32).to_le_bytes());
        for p in phases {
            out.extend_from_slice(&p.start.to_le_bytes());
            out.extend_from_slice(&p.anchored_start.to_le_bytes());
            out.push(u8::from(p.end.is_some()));
            out.extend_from_slice(&p.end.unwrap_or(0).to_le_bytes());
        }
    }
    out
}

/// Decodes a payload [`encode_bucket`] wrote, keyed by `(workload,
/// unit)`; `None` for any other bytes.
#[must_use]
pub fn decode_bucket(payload: &[u8]) -> Option<((u32, u32), BucketRuns)> {
    let mut c = Cursor::new(payload);
    let workload = c.u32()?;
    let unit = c.u32()?;
    let n_runs = c.count(8)?;
    let mut runs = Vec::with_capacity(n_runs);
    for _ in 0..n_runs {
        let ci = c.u32()?;
        let n_phases = c.count(PHASE_LEN)?;
        let mut phases = Vec::with_capacity(n_phases);
        for _ in 0..n_phases {
            let start = c.u64()?;
            let anchored_start = c.u64()?;
            let end = match (c.u8()?, c.u64()?) {
                (0, 0) => None,
                (1, end) => Some(end),
                _ => return None,
            };
            phases.push(DetectedPhase {
                start,
                anchored_start,
                end,
            });
        }
        runs.push((ci, phases));
    }
    c.is_empty().then_some(((workload, unit), runs))
}

/// Parses a checkpoint image, accepting the longest valid record
/// prefix and discarding any torn or corrupt tail.
///
/// # Errors
///
/// Returns [`CheckpointError::BadMagic`] or
/// [`CheckpointError::BadVersion`] for images this build cannot have
/// written; tail damage is *not* an error (that is the crash being
/// survived).
pub fn parse_checkpoint(bytes: &[u8]) -> Result<RecoveredCheckpoint, CheckpointError> {
    let log = read_log(bytes, CHECKPOINT_VERSION, decode_bucket)?;
    Ok(RecoveredCheckpoint {
        fingerprint: log.fingerprint,
        buckets: log.records.into_iter().collect(),
        valid_len: log.valid_len,
        damaged_tail_bytes: log.damaged_tail_bytes,
    })
}

/// How a checkpointed sweep's work split between restore and compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Buckets restored from the checkpoint file.
    pub restored_buckets: usize,
    /// Buckets computed (and appended) by this run.
    pub computed_buckets: usize,
    /// Torn bytes discarded from the file's tail before resuming.
    pub damaged_tail_bytes: u64,
}

/// Like [`crate::runner::sweep_many`], but checkpointing each
/// completed `(workload, unit)` bucket to `path` — and, when `resume`
/// is set and the file exists, restoring completed buckets instead of
/// recomputing them. An empty file (a kill before its header was
/// written) resumes as a fresh start.
///
/// Results are bit-identical to an uninterrupted
/// [`crate::runner::sweep_many`] run regardless of where (or whether)
/// the previous run died: buckets are deterministic and phase records
/// are exact integers.
///
/// # Errors
///
/// Returns [`CheckpointError`] for I/O failures, for a checkpoint
/// written by an incompatible build, or for one whose fingerprint does
/// not match this run's `configs`/`prepared` parameters.
pub fn sweep_many_checkpointed(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    threads: usize,
    path: &Path,
    fingerprint: u64,
    resume: bool,
) -> Result<(Vec<Vec<ConfigRun>>, ResumeSummary), CheckpointError> {
    sweep_many_checkpointed_with_progress(
        prepared,
        configs,
        threads,
        path,
        fingerprint,
        resume,
        &|_, _| {},
    )
}

/// [`sweep_many_checkpointed`] with a progress callback: `progress(
/// completed, total)` fires once per bucket append (after the durable
/// write), with `completed` counting restored buckets too. The CLI's
/// heartbeat line for long runs hangs off this; the callback runs
/// under the writer lock, so keep it cheap.
///
/// # Errors
///
/// Same as [`sweep_many_checkpointed`].
#[allow(clippy::cast_possible_truncation)]
pub fn sweep_many_checkpointed_with_progress(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    threads: usize,
    path: &Path,
    fingerprint: u64,
    resume: bool,
    progress: &(dyn Fn(usize, usize) + Sync),
) -> Result<(Vec<Vec<ConfigRun>>, ResumeSummary), CheckpointError> {
    let engine = SweepEngine::new(configs);

    let (writer, mut buckets, damaged_tail_bytes) = if resume && path.exists() {
        let (writer, log) =
            RecordWriter::resume(path, CHECKPOINT_VERSION, fingerprint, decode_bucket)?;
        let buckets = log.records.into_iter().collect();
        (CheckpointWriter(writer), buckets, log.damaged_tail_bytes)
    } else {
        (
            CheckpointWriter::create(path, fingerprint)?,
            BTreeMap::new(),
            0,
        )
    };
    let restored_buckets = buckets.len();

    // Work items: every (workload, unit) pair not already restored.
    let items: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|wi| (0..engine.units().len()).map(move |ui| (wi, ui)))
        .filter(|&(wi, ui)| !buckets.contains_key(&(wi as u32, ui as u32)))
        .collect();
    let computed_buckets = items.len();
    let total_buckets = restored_buckets + computed_buckets;

    // Appends, and the completed count behind the progress callback,
    // go under one lock; each worker stops at its first I/O error.
    let writer = Mutex::new((writer, restored_buckets));
    run_lpt(
        &items,
        threads,
        max_site_capacity(prepared),
        |items| unit_prices(prepared, configs, &engine, items),
        |&(wi, ui), scratch| {
            let key = (wi as u32, ui as u32);
            let runs = engine.run_unit(ui, prepared[wi].interned(), scratch);
            let mut guard = writer.lock().expect("checkpoint writer lock");
            let (writer, completed) = &mut *guard;
            writer.append_bucket(key.0, key.1, &runs)?;
            *completed += 1;
            progress(*completed, total_buckets);
            drop(guard);
            let runs: BucketRuns = runs.into_iter().map(|(ci, p)| (ci as u32, p)).collect();
            Ok::<_, io::Error>((key, runs))
        },
        |_, (key, runs)| {
            buckets.insert(key, runs);
        },
    )?;

    // Assemble configs-ordered results per workload from the buckets.
    let mut cells = vec![vec![None; configs.len()]; prepared.len()];
    for (&(wi, _), runs) in &buckets {
        let total = prepared[wi as usize].interned().len() as u64;
        for (ci, phases) in runs {
            cells[wi as usize][*ci as usize] =
                Some(config_run(configs[*ci as usize], phases, total));
        }
    }
    Ok((
        filled(cells),
        ResumeSummary {
            restored_buckets,
            computed_buckets,
            damaged_tail_bytes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::default_plan_grid;
    use crate::runner::{prepare_all, sweep_many};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("opd_checkpoint_tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(name)
    }

    #[test]
    fn checkpointed_sweep_is_bit_identical_after_a_kill() {
        // The tentpole acceptance test: full sweep, killed sweep +
        // resume, and fresh checkpointed sweep must agree exactly.
        let prepared = prepare_all(
            &[Workload::Lexgen, Workload::Blockcomp],
            1,
            &[1_000],
            30_000,
            2,
        );
        let configs = default_plan_grid();
        let reference = sweep_many(&prepared, &configs, 2);
        let fp = run_fingerprint(
            &configs,
            &[Workload::Lexgen, Workload::Blockcomp],
            1,
            30_000,
        );

        // Run once to completion with checkpointing.
        let path = tmp("kill_resume.opdk");
        let _ = std::fs::remove_file(&path);
        let (full, summary) =
            sweep_many_checkpointed(&prepared, &configs, 2, &path, fp, false).unwrap();
        assert_eq!(summary.restored_buckets, 0);
        assert_eq!(summary.computed_buckets, 2, "one shared unit per workload");

        // Simulate the kill: drop the last 7 bytes (mid-record tear).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        // Resume: one bucket restored, one recomputed.
        let (resumed, summary) =
            sweep_many_checkpointed(&prepared, &configs, 2, &path, fp, true).unwrap();
        assert_eq!(summary.restored_buckets, 1);
        assert_eq!(summary.computed_buckets, 1);
        assert!(summary.damaged_tail_bytes > 0);

        for (w_ref, (w_full, w_res)) in reference.iter().zip(full.iter().zip(&resumed)) {
            for (r_ref, (r_full, r_res)) in w_ref.iter().zip(w_full.iter().zip(w_res)) {
                assert_eq!(r_ref.detected, r_full.detected);
                assert_eq!(r_ref.anchored, r_full.anchored);
                assert_eq!(r_ref.detected, r_res.detected);
                assert_eq!(r_ref.anchored, r_res.anchored);
            }
        }

        // A fully-restored resume computes nothing and still agrees.
        let (restored, summary) =
            sweep_many_checkpointed(&prepared, &configs, 2, &path, fp, true).unwrap();
        assert_eq!(summary.computed_buckets, 0);
        assert_eq!(summary.restored_buckets, 2);
        for (w_ref, w_res) in reference.iter().zip(&restored) {
            for (r_ref, r_res) in w_ref.iter().zip(w_res) {
                assert_eq!(r_ref.detected, r_res.detected);
            }
        }
    }

    #[test]
    fn progress_fires_once_per_computed_bucket() {
        let prepared = prepare_all(
            &[Workload::Lexgen, Workload::Blockcomp],
            1,
            &[1_000],
            20_000,
            2,
        );
        let configs = default_plan_grid();
        let fp = run_fingerprint(
            &configs,
            &[Workload::Lexgen, Workload::Blockcomp],
            1,
            20_000,
        );
        let path = tmp("progress.opdk");
        let _ = std::fs::remove_file(&path);
        let ticks = std::sync::Mutex::new(Vec::new());
        let (_, summary) = sweep_many_checkpointed_with_progress(
            &prepared,
            &configs,
            2,
            &path,
            fp,
            false,
            &|done, total| ticks.lock().unwrap().push((done, total)),
        )
        .unwrap();
        let mut ticks = ticks.into_inner().unwrap();
        ticks.sort_unstable();
        assert_eq!(summary.computed_buckets, 2);
        assert_eq!(ticks, vec![(1, 2), (2, 2)]);
        // A fully-restored resume has nothing to report.
        let quiet = std::sync::Mutex::new(0usize);
        let (_, summary) = sweep_many_checkpointed_with_progress(
            &prepared,
            &configs,
            2,
            &path,
            fp,
            true,
            &|_, _| *quiet.lock().unwrap() += 1,
        )
        .unwrap();
        assert_eq!(summary.computed_buckets, 0);
        assert_eq!(quiet.into_inner().unwrap(), 0);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let prepared = prepare_all(&[Workload::Lexgen], 1, &[1_000], 10_000, 1);
        let configs = default_plan_grid();
        let path = tmp("fingerprint.opdk");
        let _ = std::fs::remove_file(&path);
        let (_, _) = sweep_many_checkpointed(&prepared, &configs, 1, &path, 111, false).unwrap();
        let err = sweep_many_checkpointed(&prepared, &configs, 1, &path, 222, true).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::FingerprintMismatch {
                expected: 222,
                found: 111
            }
        ));
    }

    #[test]
    fn run_fingerprint_separates_parameters() {
        let configs = default_plan_grid();
        let a = run_fingerprint(&configs, &[Workload::Lexgen], 1, 100);
        let b = run_fingerprint(&configs, &[Workload::Lexgen], 2, 100);
        let c = run_fingerprint(&configs, &[Workload::Blockcomp], 1, 100);
        let d = run_fingerprint(&configs[..1], &[Workload::Lexgen], 1, 100);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
