//! Property tests: for random traces and random config grids, the
//! sweep engine's phases are bit-identical to a fresh sequential
//! [`PhaseDetector`] per config — across both trailing-window
//! policies, all models and analyzers, and skip factors larger than
//! the current window (which must route to the private path). Adaptive
//! groups under load are checked against the executable spec.

use opd_core::{
    spec, AnalyzerPolicy, AnchorPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector,
    ResizePolicy, SweepEngine, TwPolicy,
};
use opd_trace::{MethodId, ProfileElement};
use proptest::prelude::*;

fn elements(sites: &[u32]) -> Vec<ProfileElement> {
    sites
        .iter()
        .map(|&s| ProfileElement::new(MethodId::new(0), s, true))
        .collect()
}

fn interned(sites: &[u32]) -> InternedTrace {
    InternedTrace::from_elements(elements(sites))
}

/// Decodes one packed parameter tuple into a detector config. `flags`
/// packs tw-policy, anchor, resize, and analyzer-kind choices.
fn decode(cw: usize, tw: usize, skip: usize, flags: u8, model: u8, x: f64) -> DetectorConfig {
    let model = match model {
        0 => ModelPolicy::UnweightedSet,
        1 => ModelPolicy::WeightedSet,
        _ => ModelPolicy::Pearson,
    };
    let analyzer = if flags & 8 == 0 {
        AnalyzerPolicy::Threshold(x)
    } else {
        AnalyzerPolicy::Average { delta: x / 2.0 }
    };
    DetectorConfig::builder()
        .current_window(cw)
        .trailing_window(tw)
        .skip_factor(skip)
        .tw_policy(if flags & 1 == 0 {
            TwPolicy::Constant
        } else {
            TwPolicy::Adaptive
        })
        .anchor(if flags & 2 == 0 {
            AnchorPolicy::RightmostNoisy
        } else {
            AnchorPolicy::LeftmostNonNoisy
        })
        .resize(if flags & 4 == 0 {
            ResizePolicy::Slide
        } else {
            ResizePolicy::Move
        })
        .model(model)
        .analyzer(analyzer)
        .build()
        .expect("generated parameters are valid")
}

/// A trace of blocks, each looping over its own few sites, with block
/// kinds drawn from a small set so phases recur; `noise` sprinkles
/// single foreign sites into blocks to cut phases short.
fn block_trace(blocks: &[(u32, usize, u32)], noise: &[usize]) -> Vec<u32> {
    let mut sites = Vec::new();
    for &(kind, len, width) in blocks {
        sites.extend((0..len).map(|i| kind * 8 + i as u32 % width));
    }
    for &at in noise {
        if at < sites.len() {
            sites[at] = 1000 + at as u32;
        }
    }
    sites
}

/// Every (model, analyzer, anchor, resize) combination of one small
/// shape under `tw_policy`: one shared scan with many members.
fn heavy_grid(
    (cw, tw, skip): (usize, usize, usize),
    tw_policy: TwPolicy,
    analyzers: &[AnalyzerPolicy],
) -> Vec<DetectorConfig> {
    let mut configs = Vec::new();
    for model in ModelPolicy::ALL_EXTENDED {
        for &analyzer in analyzers {
            for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
                for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                    configs.push(
                        DetectorConfig::builder()
                            .current_window(cw)
                            .trailing_window(tw)
                            .skip_factor(skip)
                            .tw_policy(tw_policy)
                            .anchor(anchor)
                            .resize(resize)
                            .model(model)
                            .analyzer(analyzer)
                            .build()
                            .expect("generated parameters are valid"),
                    );
                }
            }
        }
    }
    configs
}

/// A small window shape with `skip <= cw`, so it shares a scan.
fn shareable_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..10, 1usize..10, 1usize..4).prop_map(|(cw, tw, skip)| (cw, tw, skip.min(cw)))
}

/// Fixed thresholds (multiples of 1/20, which include exact similarity
/// values such as 1/2 and 3/4, exercising the inclusive `sim >=
/// threshold` edge) followed by up to eight running-average deltas:
/// random ones and multiples of 1/20, then duplicates and one-ulp
/// neighbours of those. Members entering on one step form a cohort
/// ordered by delta, so equal and adjacent deltas probe its leaver
/// prefix at its tightest.
fn heavy_analyzers() -> impl Strategy<Value = Vec<AnalyzerPolicy>> {
    let delta = prop_oneof![0.0f64..0.3, (0u32..7).prop_map(|k| f64::from(k) / 20.0)];
    (
        prop::collection::vec((4u32..20).prop_map(|k| f64::from(k) / 20.0), 1..5),
        prop::collection::vec(delta, 0..5),
        prop::collection::vec((0usize..4, 0u8..3), 0..4),
    )
        .prop_map(|(thresholds, mut deltas, twins)| {
            for (pick, how) in twins {
                if let Some(&d) = deltas.get(pick) {
                    // `d` is finite and non-negative, so its one-ulp
                    // neighbours are one bit pattern away.
                    deltas.push(match how {
                        0 => d,
                        1 => f64::from_bits(d.to_bits() + 1),
                        _ => f64::from_bits(d.to_bits().saturating_sub(1)),
                    });
                }
            }
            thresholds
                .into_iter()
                .map(AnalyzerPolicy::Threshold)
                .chain(
                    deltas
                        .into_iter()
                        .map(|delta| AnalyzerPolicy::Average { delta }),
                )
                .collect()
        })
}

/// Runs `configs` (one shared unit) over `sites` and checks every
/// member against the spec.
fn heavy_group_matches_the_spec(
    sites: &[u32],
    configs: &[DetectorConfig],
) -> Result<(), TestCaseError> {
    let engine = SweepEngine::new(configs);
    prop_assert_eq!(engine.units().len(), 1);
    let all = engine.run_all(&interned(sites));
    let elements = elements(sites);
    for (i, &config) in configs.iter().enumerate() {
        let expected = spec::run(config, &elements).phases;
        prop_assert_eq!(&all[i], &expected, "config {}: {:?}", i, config);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_is_bit_identical_to_sequential_detectors(
        sites in prop::collection::vec(0u32..10, 0..500),
        params in prop::collection::vec(
            (1usize..24, 1usize..24, 1usize..32, 0u8..16, 0u8..3, 0.05f64..0.95),
            1..10,
        ),
    ) {
        let trace = interned(&sites);
        let configs: Vec<DetectorConfig> = params
            .iter()
            .map(|&(cw, tw, skip, flags, model, x)| decode(cw, tw, skip, flags, model, x))
            .collect();
        let engine = SweepEngine::new(&configs);
        let covered: usize = engine
            .units()
            .iter()
            .map(|u| u.config_indices().len())
            .sum();
        prop_assert_eq!(covered, configs.len());
        let all = engine.run_all(&trace);
        for (i, &config) in configs.iter().enumerate() {
            let mut detector = PhaseDetector::new(config);
            let _ = detector.run_interned(&trace);
            prop_assert_eq!(
                all[i].as_slice(),
                detector.detected_phases(),
                "config {}: {:?}",
                i,
                config
            );
        }
    }

    #[test]
    fn shared_scan_count_never_exceeds_config_count(
        params in prop::collection::vec(
            (1usize..24, 1usize..24, 1usize..32, 0u8..16, 0u8..3, 0.05f64..0.95),
            1..16,
        ),
    ) {
        let configs: Vec<DetectorConfig> = params
            .iter()
            .map(|&(cw, tw, skip, flags, model, x)| decode(cw, tw, skip, flags, model, x))
            .collect();
        let engine = SweepEngine::new(&configs);
        prop_assert!(engine.total_scans() <= configs.len());
        for unit in engine.units() {
            if unit.is_shared() {
                let first = configs[unit.config_indices()[0]];
                // Both TW policies share scans now; only skip > cw
                // routes privately.
                prop_assert!(first.skip_factor() <= first.current_window());
                let shape = first.shape();
                for &i in unit.config_indices() {
                    prop_assert_eq!(configs[i].tw_policy(), first.tw_policy());
                    prop_assert_eq!(configs[i].shape(), shape);
                }
            } else {
                let first = configs[unit.config_indices()[0]];
                prop_assert!(first.skip_factor() > first.current_window());
                prop_assert_eq!(unit.config_indices().len(), 1);
            }
        }
    }

    /// The event-driven forking scan under load: many members per
    /// adaptive group, entering, leaving and re-entering recurring
    /// phases, so members sleep and wake, share classes across steps,
    /// see classes merge and split cohorts — against the spec.
    #[test]
    fn adaptive_heavy_groups_match_the_spec(
        blocks in prop::collection::vec((0u32..3, 8usize..60, 1u32..5), 1..12),
        noise in prop::collection::vec(0usize..600, 0..6),
        shape in shareable_shape(),
        analyzers in heavy_analyzers(),
    ) {
        let configs = heavy_grid(shape, TwPolicy::Adaptive, &analyzers);
        heavy_group_matches_the_spec(&block_trace(&blocks, &noise), &configs)?;
    }

    /// The Constant-TW scan under the same load: many running-average
    /// members entering together on the shared FIFO, in cohorts.
    #[test]
    fn constant_heavy_groups_match_the_spec(
        blocks in prop::collection::vec((0u32..3, 8usize..60, 1u32..5), 1..12),
        noise in prop::collection::vec(0usize..600, 0..6),
        shape in shareable_shape(),
        analyzers in heavy_analyzers(),
    ) {
        let configs = heavy_grid(shape, TwPolicy::Constant, &analyzers);
        heavy_group_matches_the_spec(&block_trace(&blocks, &noise), &configs)?;
    }
}
