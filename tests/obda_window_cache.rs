//! The `opendap` table's window cache is the SDL's `SubsetCache`, so the
//! served GeoSPARQL path reports its hits and misses in `QueryStats`: one
//! miss per window, hits inside it, and no round trip for a hit.

use copernicus_app_lab::core::VirtualWorkflowBuilder;
use copernicus_app_lab::dap::clock::ManualClock;
use copernicus_app_lab::dap::transport::Local;
use copernicus_app_lab::data::{grids, mappings, ParisFixture};
use std::sync::Arc;
use std::time::Duration;

const WINDOW: Duration = Duration::from_secs(600);

#[test]
fn obda_window_hits_and_misses_reach_query_stats() {
    let world = ParisFixture::generate(3, 12, 12).world;
    let spec = grids::GridSpec {
        resolution: 8,
        times: vec![0, 86_400 * 30],
        noise: 0.0,
        seed: 3,
    };
    let mut lai = grids::lai_dataset(&world, &spec);
    lai.name = "lai_300m".into();
    let clock = ManualClock::new();
    let mut b =
        VirtualWorkflowBuilder::with_transport_and_clock(Arc::new(Local::new()), clock.clone());
    b.publish(lai);
    b.add_opendap("lai_300m", "LAI", WINDOW);
    b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .expect("mapping");
    let wf = b.seal().expect("seal");
    // One query's accounting and the client's round trips after it.
    let run = || {
        let explained = wf
            .query_explained("SELECT ?s ?lai WHERE { ?s lai:hasLai ?lai }")
            .expect("query");
        assert!(!explained.results.is_empty());
        (explained.stats, wf.client().round_trips())
    };
    let before = wf.client().round_trips();

    let (cold, after_cold) = run();
    assert_eq!(cold.cache_misses, 1, "one opendap table: {cold:?}");
    assert!(after_cold > before, "a miss fetches");

    clock.advance(WINDOW - Duration::from_secs(1));
    let (warm, after_warm) = run();
    assert_eq!(warm.cache_misses, 0, "inside the window: {warm:?}");
    assert!(warm.cache_hits >= 1, "inside the window: {warm:?}");
    assert_eq!(after_warm, after_cold, "a hit makes no round trip");

    clock.advance(Duration::from_secs(2));
    let (expired, after_expired) = run();
    assert_eq!(expired.cache_misses, 1, "past the window: {expired:?}");
    assert!(after_expired > after_warm, "expiry refetches");
}
