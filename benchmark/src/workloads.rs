//! The four workloads: what each one sends, in what mix, and at what
//! open-loop rate. Everything here is a pure function of the seed.

use crate::client::Method;
use crate::queries::{self, Viewport};
use crate::rng::{weighted_schedule, Rng, Zipf};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StoreMix,
    WireSmall,
    VirtualLai,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StoreMix,
        Workload::WireSmall,
        Workload::VirtualLai,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreMix => "store_mix",
            Workload::WireSmall => "wire_small",
            Workload::VirtualLai => "virtual_lai",
            Workload::Ingest => "ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate in operations per second, for the traced
    /// run's open-loop phase: 60 % of the closed-loop `throughput_rps`
    /// measured on the commit that added the benchmark (2-vCPU host in its
    /// quiet state), to two significant digits. Constants on purpose: a
    /// parent and a change must be offered the same load, so nothing
    /// calibrates at run time. `wire_small` has no open loop: 60 % of its
    /// capacity is more than 25,000 due instants a second, which generator
    /// threads that share two cores with the server cannot pace, and a
    /// rate they can pace leaves the server idle.
    pub fn rate_rps(self) -> Option<f64> {
        match self {
            Workload::StoreMix => Some(110.0),
            Workload::WireSmall => None,
            Workload::VirtualLai => Some(67.0),
            Workload::Ingest => Some(8.6),
        }
    }

    /// Query classes, in the order `OpSpec::class` indexes them.
    pub fn classes(self) -> &'static [&'static str] {
        match self {
            Workload::StoreMix => &[
                "NonTopological_Area",
                "NonTopological_Envelope",
                "Selection_Intersects_Small",
                "Selection_Intersects_Large",
                "Selection_Within_Attribute",
                "WideBGP_Selection",
                "Join_Parks_LandCover",
                "Aggregation_CountPerClass",
            ],
            Workload::WireSmall => &[
                "Lookup_Subject",
                "Ask_Subject",
                "Page_Subject",
                "Count_Subject",
            ],
            Workload::VirtualLai => &[
                "Listing1_BoisDeBoulogne",
                "Listing3_Window",
                "Zonal_MeanLai",
            ],
            Workload::Ingest => &[],
        }
    }
}

/// World size of the served workloads: a 100 × 100 land-cover grid,
/// 109,532 triples. The spatial join is super-linear in it (0.9 ms at 28
/// cells, 86 ms at 100), which is why the query workloads stop here.
/// `--smoke` uses the small world to be quick.
pub const WORLD_CELLS: usize = 100;
pub const SMOKE_CELLS: usize = 28;

/// The served workloads query one fixed dataset, whatever `--seed` says:
/// `--seed` drives the request stream (probe positions, subjects, order).
/// The synthetic world draws its zones at random, so another world has
/// another number of parks and green areas, and the spatial join — a
/// quarter of `store_mix` — would cost another amount per seed. (`ingest`,
/// whose input *is* the tables, generates them from `--seed`.)
pub const DATASET_SEED: u64 = 2019;

/// Connections of the closed and open loops: one per core of the 2-vCPU
/// reference host, fixed so that runs on other hosts stay comparable.
pub const CONNECTIONS: usize = 2;

/// `virtual_lai`: the harness moves the manual clock this far before each
/// request, so with the 600 s window one request in eight finds it expired.
pub const CLOCK_STEP_SECS: u64 = 75;

/// One distinct request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpSpec {
    pub class: usize,
    pub text: String,
    pub method: Method,
    /// For a `LIMIT` page without `ORDER BY`: the un-paged query whose
    /// answer the page must be a subset of.
    pub page_of: Option<String>,
}

/// A served workload's generated inputs.
#[derive(Debug)]
pub struct Plan {
    pub ops: Vec<OpSpec>,
    /// The schedule, indexes into `ops`: a whole number of laps, walked
    /// round and round.
    pub schedule: Vec<usize>,
    /// Slots in a lap. Every lap holds each class exactly as often as its
    /// weight says, so every lap is the same work.
    pub lap_len: usize,
    pub reconnect_every: Option<usize>,
    /// Viewports the probes were drawn from (the unit costs reuse them).
    pub viewports: Vec<Viewport>,
}

/// Collects distinct ops while a lap is laid out.
#[derive(Default)]
struct PlanBuilder {
    ops: Vec<OpSpec>,
    index: HashMap<OpSpec, usize>,
}

impl PlanBuilder {
    fn op(&mut self, class: usize, text: String, method: Method) -> usize {
        self.page(class, text, method, None)
    }

    fn page(
        &mut self,
        class: usize,
        text: String,
        method: Method,
        page_of: Option<String>,
    ) -> usize {
        let spec = OpSpec {
            class,
            text,
            method,
            page_of,
        };
        if let Some(&at) = self.index.get(&spec) {
            return at;
        }
        self.ops.push(spec.clone());
        self.index.insert(spec, self.ops.len() - 1);
        self.ops.len() - 1
    }
}

/// `store_mix` class weights per lap, chosen so that no class takes more
/// than 35 % of the lap's busy time (the join, at one request in 31, is
/// the largest at about a quarter).
const STORE_MIX_WEIGHTS: [usize; 8] = [2, 2, 8, 6, 6, 2, 1, 4];

/// `store_mix` walks this many differently shuffled laps before it
/// repeats. Two closed-loop connections walking one fixed lap can settle
/// into a rhythm in which the same requests meet on every lap: the process
/// needs 260 MB instead of 215 while the join and a dump are in flight at
/// their largest, and with one lap per seed that happened on every lap of
/// some runs and on no lap of others.
const STORE_MIX_LAPS: usize = 32;

/// Every spatial probe of a lap comes from a different step of a pan/zoom
/// session, so no two selections of a lap share a constant. The laps hold
/// the same requests, each in a seeded shuffled order of its own.
pub fn store_mix(seed: u64) -> Plan {
    let w = STORE_MIX_WEIGHTS;
    // A "small" session at city-block zoom and a "large" one that sees
    // most of the region (the two fixed probes of mini-Geographica).
    let small = queries::viewport_trace(&mut Rng::stream(seed, "viewport.small"), w[2], 0.04, 0.03);
    let large = queries::viewport_trace(&mut Rng::stream(seed, "viewport.large"), w[3], 0.22, 0.12);
    let mut builder = PlanBuilder::default();
    let lap: Vec<usize> = (0..w.len())
        .flat_map(|class| (0..w[class]).map(move |nth| (class, nth)))
        .map(|(class, nth)| {
            let text = match class {
                0 => queries::NONTOPOLOGICAL_AREA.to_string(),
                1 => queries::NONTOPOLOGICAL_ENVELOPE.to_string(),
                2 => queries::selection_intersects(&small[nth]),
                3 => queries::selection_intersects(&large[nth]),
                4 => queries::selection_within_attribute(&large[nth]),
                5 => queries::wide_bgp_reversed(&large[nth]),
                6 => queries::JOIN_PARKS_LANDCOVER.to_string(),
                _ => queries::AGGREGATION_COUNT_PER_CLASS.to_string(),
            };
            builder.op(class, text, Method::Get)
        })
        .collect();
    let mut order = Rng::stream(seed, "schedule");
    let schedule = (0..STORE_MIX_LAPS)
        .flat_map(|_| {
            let mut shuffled = lap.clone();
            order.shuffle(&mut shuffled);
            shuffled
        })
        .collect();
    Plan {
        ops: builder.ops,
        schedule,
        lap_len: lap.len(),
        reconnect_every: None,
        viewports: small.into_iter().chain(large).collect(),
    }
}

/// `wire_small` lap: 70 % lookups, 20 % ASK, 5 % two-row pages, 5 % counts
/// — every one of them about a bound subject, so evaluation stays in
/// microseconds and the request's cost is the wire and the service.
const WIRE_SMALL_WEIGHTS: [usize; 4] = [420, 120, 30, 30];

/// `subjects` are the IRIs the requests are Zipf-sampled from (rank =
/// position), so a few subjects are hot and most are touched once.
pub fn wire_small(seed: u64, subjects: &[String]) -> Plan {
    assert!(!subjects.is_empty(), "wire_small needs subjects to look up");
    let zipf = Zipf::new(subjects.len());
    let mut sample = Rng::stream(seed, "zipf");
    let mut builder = PlanBuilder::default();
    let lap: Vec<usize> =
        weighted_schedule(&WIRE_SMALL_WEIGHTS, &mut Rng::stream(seed, "schedule"))
            .into_iter()
            .enumerate()
            .map(|(slot, class)| {
                let iri = &subjects[zipf.sample(&mut sample)];
                // One third each: URL-encoded GET, form POST, direct POST.
                let method = [Method::Get, Method::PostForm, Method::PostDirect][slot % 3];
                match class {
                    0 => builder.op(class, queries::subject_lookup(iri), method),
                    1 => builder.op(class, queries::subject_ask(iri), method),
                    2 => builder.page(
                        class,
                        queries::subject_page(iri),
                        method,
                        Some(queries::subject_lookup(iri)),
                    ),
                    _ => builder.op(class, queries::subject_count(iri), method),
                }
            })
            .collect();
    Plan {
        ops: builder.ops,
        lap_len: lap.len(),
        schedule: lap,
        // Every 64th request of a connection pays accept + hand-off.
        reconnect_every: Some(64),
        viewports: Vec::new(),
    }
}

/// `virtual_lai` lap: sixty-two map-window requests to one of each
/// analytic query. The analytic queries are one request in thirty-two, so
/// the 95th percentile of a phase lies among the cold-window requests (one
/// in eight), which is what `latency_p95_ms` is for on this workload.
const VIRTUAL_LAI_WEIGHTS: [usize; 3] = [1, 62, 1];
const VIRTUAL_LAI_WINDOWS: usize = 6;

/// The lap's order is fixed — Listing 1, the zonal mean, then the windows
/// — and only the windows follow the seed. Each analytic query holds a
/// connection for a few hundred milliseconds. Side by side they always
/// run at the same time, one per connection (a dashboard refreshing two
/// panels), so the peak resident size is that of both together on every
/// lap; were they shuffled, some seeds would overlap them and others not,
/// and `rss_peak_mb` and the open-loop latencies would measure the shuffle.
pub fn virtual_lai(seed: u64) -> Plan {
    // Street-level windows: roughly 6 × 8 LAI pixels × 6 time steps.
    let windows = queries::viewport_trace(
        &mut Rng::stream(seed, "viewport.lai"),
        VIRTUAL_LAI_WINDOWS,
        0.03,
        0.02,
    );
    // A level-1 unit: the south-west quarter of the region. Always the
    // same one — the quarters differ in land cover, so in cost.
    let unit = "District 1";
    let mut builder = PlanBuilder::default();
    let mut lap = vec![
        builder.op(0, queries::LISTING_1.to_string(), Method::Get),
        builder.op(2, queries::zonal_mean(unit), Method::Get),
    ];
    for i in 0..VIRTUAL_LAI_WEIGHTS[1] {
        let window = &windows[i % VIRTUAL_LAI_WINDOWS];
        lap.push(builder.op(1, queries::listing_3(window), Method::Get));
    }
    Plan {
        ops: builder.ops,
        lap_len: lap.len(),
        schedule: lap,
        reconnect_every: None,
        viewports: windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_counts(plan: &Plan, classes: usize) -> Vec<usize> {
        let mut counts = vec![0; classes];
        // Every lap of the schedule holds the same mix.
        for lap in plan.schedule.chunks(plan.lap_len) {
            let mut of_lap = vec![0; classes];
            for &op in lap {
                of_lap[plan.ops[op].class] += 1;
            }
            assert!(counts.iter().all(|&c| c == 0) || counts == of_lap);
            counts = of_lap;
        }
        counts
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        let subjects: Vec<String> = (0..500).map(|i| format!("http://x/area_{i}")).collect();
        for seed in [1, 2019] {
            assert_eq!(store_mix(seed).ops, store_mix(seed).ops);
            assert_eq!(store_mix(seed).schedule, store_mix(seed).schedule);
            assert_eq!(
                wire_small(seed, &subjects).ops,
                wire_small(seed, &subjects).ops
            );
            assert_eq!(virtual_lai(seed).ops, virtual_lai(seed).ops);
        }
        assert_ne!(
            store_mix(1).ops,
            store_mix(2).ops,
            "probes move with the seed"
        );
        assert_ne!(
            wire_small(1, &subjects).schedule,
            wire_small(2, &subjects).schedule
        );
        assert_ne!(
            virtual_lai(1).ops,
            virtual_lai(2).ops,
            "windows move with the seed"
        );
        assert_eq!(
            virtual_lai(1).schedule,
            virtual_lai(2).schedule,
            "the lap's order does not"
        );
    }

    #[test]
    fn laps_hold_the_stated_mix() {
        let mix = store_mix(2019);
        assert_eq!(class_counts(&mix, 8), STORE_MIX_WEIGHTS);
        assert_eq!((mix.lap_len, mix.schedule.len()), (31, 31 * STORE_MIX_LAPS));
        assert_ne!(
            mix.schedule[..31],
            mix.schedule[31..62],
            "each lap in its own order"
        );
        // 2 dumps + 8 + 6 + 6 + 2 probes + join + aggregate, all distinct.
        assert_eq!(mix.ops.len(), 4 + 8 + 6 + 6 + 2);

        let subjects: Vec<String> = (0..10_000).map(|i| format!("http://x/area_{i}")).collect();
        let small = wire_small(2019, &subjects);
        assert_eq!(class_counts(&small, 4), WIRE_SMALL_WEIGHTS);
        for method in [Method::Get, Method::PostForm, Method::PostDirect] {
            let n = small
                .schedule
                .iter()
                .filter(|&&op| small.ops[op].method == method)
                .count();
            assert_eq!(n, 200, "{method:?}");
        }
        for op in &small.ops {
            assert_eq!(
                op.page_of.is_some(),
                op.class == 2,
                "only pages are checked as subsets"
            );
        }

        let lai = virtual_lai(2019);
        assert_eq!(class_counts(&lai, 3), VIRTUAL_LAI_WEIGHTS);
        assert_eq!(lai.ops.len(), 2 + VIRTUAL_LAI_WINDOWS);
        assert_eq!(lai.ops[lai.schedule[0]].class, 0, "Listing 1 opens the lap");
        assert_eq!(lai.ops[lai.schedule[1]].class, 2, "the zonal mean is next");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.rate_rps().is_none_or(|rate| rate > 0.0));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
