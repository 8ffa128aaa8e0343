//! Crash-safe service checkpoints: the vshard payload codec on the
//! OPDK record log ([`opd_trace::record`]), version 2.
//!
//! The serve engine's unit of work — one virtual shard — is
//! deterministic and order-independent, exactly like the sweep
//! runner's buckets (version 1), so completed vshards are appended to
//! the same record log as they finish, and a resumed run restores
//! them instead of recomputing.
//!
//! # Vshard payload
//!
//! ```text
//! vshard u32 LE, report_count u32 LE
//! then, per session report:
//!   client u32 LE, status u8, verified u8 (0 or 1),
//!   19 u64 LE counters (frames, elements, steps, faults, phase
//!   digest, ticks, shed ledger)
//! ```
//!
//! Exact integer counters only — no floats — so a restored vshard is
//! bit-identical to a recomputed one by construction. A record that
//! does not decode exactly (unknown status, a `verified` byte other
//! than 0 or 1, trailing bytes) is damage, and the log keeps only the
//! records before it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::Path;

pub use opd_trace::record::CheckpointError;
use opd_trace::record::{Cursor, RecordWriter};

use crate::ledger::ShedLedger;
use crate::session::{SessionReport, SessionStats, SessionStatus};

/// The OPDK payload version of service checkpoints (the sweep
/// checkpoint owns version 1).
pub const SERVE_CHECKPOINT_VERSION: u16 = 2;
/// Encoded bytes of one session report: client, status, verified, and
/// 19 counters.
const REPORT_LEN: usize = 4 + 1 + 1 + 19 * 8;

fn encode_report(out: &mut Vec<u8>, r: &SessionReport) {
    out.extend_from_slice(&r.client.to_le_bytes());
    out.push(r.status.code());
    out.push(u8::from(r.stats.verified));
    let s = &r.stats;
    for v in [
        s.frames_total,
        s.frames_delivered,
        s.frames_processed,
        s.elements_accepted,
        s.steps,
        s.crashes,
        s.timeouts,
        s.restarts,
        s.replayed_elements,
        s.corrupt_frames,
        s.corrupt_records_lost,
        s.phase_count,
        s.phase_digest,
        s.ticks,
        s.shed.shed_oldest_frames,
        s.shed.rejected_frames,
        s.shed.blocked_ticks,
        s.shed.quarantined_frames,
        s.shed.undelivered_frames,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_report(r: &mut Cursor<'_>) -> Option<SessionReport> {
    let client = r.u32()?;
    let status = SessionStatus::from_code(r.u8()?)?;
    let verified = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let mut vals = [0u64; 19];
    for v in &mut vals {
        *v = r.u64()?;
    }
    Some(SessionReport {
        client,
        status,
        stats: SessionStats {
            frames_total: vals[0],
            frames_delivered: vals[1],
            frames_processed: vals[2],
            elements_accepted: vals[3],
            steps: vals[4],
            crashes: vals[5],
            timeouts: vals[6],
            restarts: vals[7],
            replayed_elements: vals[8],
            corrupt_frames: vals[9],
            corrupt_records_lost: vals[10],
            phase_count: vals[11],
            phase_digest: vals[12],
            ticks: vals[13],
            shed: ShedLedger {
                shed_oldest_frames: vals[14],
                rejected_frames: vals[15],
                blocked_ticks: vals[16],
                quarantined_frames: vals[17],
                undelivered_frames: vals[18],
            },
            verified,
        },
    })
}

/// Encodes one completed vshard's session reports as a record
/// payload.
#[must_use]
pub fn encode_vshard(vshard: u32, reports: &[SessionReport]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + reports.len() * REPORT_LEN);
    payload.extend_from_slice(&vshard.to_le_bytes());
    payload.extend_from_slice(&(reports.len() as u32).to_le_bytes());
    for r in reports {
        encode_report(&mut payload, r);
    }
    payload
}

/// Decodes a payload [`encode_vshard`] wrote; `None` for any other
/// bytes.
#[must_use]
pub fn decode_vshard(payload: &[u8]) -> Option<(u32, Vec<SessionReport>)> {
    let mut r = Cursor::new(payload);
    let vshard = r.u32()?;
    let n = r.count(REPORT_LEN)?;
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        reports.push(decode_report(&mut r)?);
    }
    r.is_empty().then_some((vshard, reports))
}

/// Appends completed vshards to a service checkpoint.
#[derive(Debug)]
pub struct ServeCheckpointWriter(RecordWriter<File>);

impl ServeCheckpointWriter {
    /// Creates (or truncates) a checkpoint for a run with the given
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be written.
    pub fn create(path: &Path, fingerprint: u64) -> Result<ServeCheckpointWriter, CheckpointError> {
        Ok(ServeCheckpointWriter(RecordWriter::create(
            path,
            SERVE_CHECKPOINT_VERSION,
            fingerprint,
        )?))
    }

    /// Opens an existing checkpoint, validates its header against
    /// this run's fingerprint, returns every intact vshard record,
    /// and truncates away a torn tail so appends continue cleanly. An
    /// empty file (a kill before its header was written) resumes as a
    /// fresh start.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the file cannot be read, is not
    /// a version-2 OPDK file, or belongs to a different run.
    pub fn resume(
        path: &Path,
        fingerprint: u64,
    ) -> Result<(ServeCheckpointWriter, BTreeMap<u32, Vec<SessionReport>>), CheckpointError> {
        let (writer, log) =
            RecordWriter::resume(path, SERVE_CHECKPOINT_VERSION, fingerprint, decode_vshard)?;
        Ok((
            ServeCheckpointWriter(writer),
            log.records.into_iter().collect(),
        ))
    }

    /// Appends one completed vshard as a single flushed record.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the append fails.
    pub fn append(&mut self, vshard: u32, reports: &[SessionReport]) -> io::Result<()> {
        self.0.append(&encode_vshard(vshard, reports))
    }
}
