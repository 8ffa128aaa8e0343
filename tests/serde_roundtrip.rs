//! Serialization-format tests: round trips for the optional `serde`
//! feature, plus corrupt-input rejection for the (always-on) sweep
//! checkpoint format.
//!
//! ```sh
//! cargo test --test serde_roundtrip                   # checkpoint format
//! cargo test --features serde --test serde_roundtrip  # + serde round trips
//! ```

#[cfg(feature = "serde")]
mod serde_formats {
    use opd::baseline::BaselineSolution;
    use opd::client::CostModel;
    use opd::core::DetectorConfig;
    use opd::microvm::workloads::Workload;
    use opd::trace::{
        ExecutionTrace, MethodId, PhaseInterval, ProfileElement, StateSeq, TraceStats,
    };

    fn roundtrip<T>(value: &T) -> T
    where
        T: serde::Serialize + for<'de> serde::Deserialize<'de>,
    {
        let json = serde_json::to_string(value).expect("serializes");
        serde_json::from_str(&json).expect("deserializes")
    }

    fn small_trace() -> ExecutionTrace {
        let program = Workload::Lexgen.program(1);
        let mut trace = ExecutionTrace::new();
        opd::microvm::Interpreter::new(&program, 7)
            .with_fuel(5_000)
            .run(&mut trace)
            .expect("terminates");
        trace
    }

    #[test]
    fn execution_trace_roundtrips() {
        let trace = small_trace();
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn profile_elements_and_intervals_roundtrip() {
        let e = ProfileElement::new(MethodId::new(12), 34, true);
        assert_eq!(roundtrip(&e), e);
        let p = PhaseInterval::new(10, 99);
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn states_and_stats_roundtrip() {
        let trace = small_trace();
        let stats = TraceStats::measure(&trace);
        assert_eq!(roundtrip(&stats), stats);
        let oracle = BaselineSolution::compute(&trace, 500).expect("well nested");
        let states: StateSeq = oracle.states();
        assert_eq!(roundtrip(&states), states);
        assert_eq!(roundtrip(&oracle), oracle);
    }

    #[test]
    fn configs_and_models_roundtrip() {
        let config = DetectorConfig::builder()
            .current_window(123)
            .trailing_window(77)
            .skip_factor(3)
            .build()
            .expect("valid");
        assert_eq!(roundtrip(&config), config);
        let model = CostModel::new(10, 1.5, 2).expect("valid");
        assert_eq!(roundtrip(&model), model);
    }
}

mod checkpoint_format {
    use opd::core::DetectedPhase;
    use opd::trace::fnv64;
    use opd::trace::record::{HEADER_LEN as CHECKPOINT_HEADER_LEN, MAGIC as CHECKPOINT_MAGIC};
    use opd_experiments::checkpoint::{parse_checkpoint, CheckpointError, CHECKPOINT_VERSION};

    /// A minimal valid checkpoint image: header plus one bucket record.
    /// `test` names the calling test, which gets its own temp file, so
    /// parallel tests never write or delete each other's image.
    fn valid_image(test: &str) -> Vec<u8> {
        let phases = vec![DetectedPhase {
            start: 10,
            anchored_start: 8,
            end: Some(42),
        }];
        let runs = vec![(3usize, phases)];

        let dir = std::env::temp_dir().join("opd_serde_roundtrip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{test}-{}.ck", std::process::id()));
        let mut w = opd_experiments::checkpoint::CheckpointWriter::create(&path, 0xFEED).unwrap();
        w.append_bucket(1, 2, &runs).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    #[test]
    fn valid_image_parses_completely() {
        let bytes = valid_image("valid_image_parses_completely");
        let recovered = parse_checkpoint(&bytes).expect("valid image");
        assert_eq!(recovered.fingerprint, 0xFEED);
        assert_eq!(recovered.damaged_tail_bytes, 0);
        assert_eq!(recovered.valid_len, bytes.len() as u64);
        assert_eq!(recovered.buckets.len(), 1);
        let runs = &recovered.buckets[&(1, 2)];
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 3);
        assert_eq!(runs[0].1[0].end, Some(42));
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut bytes = valid_image("bad_magic_is_a_typed_error");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            parse_checkpoint(&bytes),
            Err(CheckpointError::BadMagic)
        ));
        // Too short to even hold a header: same rejection.
        assert!(matches!(
            parse_checkpoint(CHECKPOINT_MAGIC),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_tag_is_a_typed_error() {
        let mut bytes = valid_image("bad_version_tag_is_a_typed_error");
        let bogus = CHECKPOINT_VERSION + 41;
        bytes[4..6].copy_from_slice(&bogus.to_le_bytes());
        match parse_checkpoint(&bytes) {
            Err(CheckpointError::BadVersion(v)) => assert_eq!(v, bogus),
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_discards_the_record() {
        let mut bytes = valid_image("checksum_mismatch_discards_the_record");
        // Corrupt one payload byte; the stored FNV-64 no longer
        // matches, so the record is a damaged tail, not data.
        let payload_start = CHECKPOINT_HEADER_LEN + 5;
        bytes[payload_start] ^= 0x01;
        let recovered = parse_checkpoint(&bytes).expect("header is intact");
        assert_eq!(recovered.buckets.len(), 0);
        assert_eq!(recovered.valid_len, CHECKPOINT_HEADER_LEN as u64);
        assert!(recovered.damaged_tail_bytes > 0);
    }

    #[test]
    fn oversized_length_field_is_damage_not_allocation() {
        let mut bytes = valid_image("oversized_length_field_is_damage_not_allocation");
        // A length field claiming ~4 GiB must not drive a pre-sized
        // allocation; the record reads as a damaged tail.
        bytes[CHECKPOINT_HEADER_LEN + 1..CHECKPOINT_HEADER_LEN + 5]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let recovered = parse_checkpoint(&bytes).expect("header is intact");
        assert_eq!(recovered.buckets.len(), 0);
        assert_eq!(recovered.valid_len, CHECKPOINT_HEADER_LEN as u64);
        assert!(recovered.damaged_tail_bytes > 0);
    }

    #[test]
    fn fnv64_is_the_documented_fnv1a() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
