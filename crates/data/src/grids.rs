//! Gridded product generators: LAI, NDVI and Burnt Area.
//!
//! Values are driven by the world's land cover: each pixel's class gives a
//! base level (see [`crate::world::Zone::base_lai`]), modulated by a
//! northern-hemisphere seasonal cycle peaking in summer, plus Gaussian
//! noise. This reproduces the *mechanism* behind Figure 4's observation
//! (green urban areas show higher LAI over time than industrial areas).

use crate::world::World;
use applab_array::{Dataset, NdArray, Variable};
use applab_geo::Coord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Northern-hemisphere seasonal factor for a month (1–12): ~0.25 in deep
/// winter, 1.0 at the July peak.
pub fn seasonal_factor(month: u32) -> f64 {
    let phase = (month as f64 - 7.0) / 12.0 * std::f64::consts::TAU;
    0.625 + 0.375 * phase.cos()
}

/// Configuration of a gridded product.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Grid cells per axis.
    pub resolution: usize,
    /// Sample timestamps, epoch seconds (e.g. monthly).
    pub times: Vec<i64>,
    /// Noise standard deviation.
    pub noise: f64,
    pub seed: u64,
}

impl GridSpec {
    /// Monthly timestamps for a year (the 15th of each month of 2017).
    pub fn monthly_2017(resolution: usize, seed: u64) -> GridSpec {
        let times = (1..=12)
            .map(|m| applab_array::time::days_from_civil(2017, m, 15) * 86_400)
            .collect();
        GridSpec {
            resolution,
            times,
            noise: 0.15,
            seed,
        }
    }
}

fn month_of(t: i64) -> u32 {
    applab_array::time::civil_from_days(t.div_euclid(86_400)).1
}

/// Gaussian sample via Box–Muller (rand's distributions module is not part
/// of the offline feature set we rely on).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn grid_skeleton(name: &str, world: &World, spec: &GridSpec) -> (Dataset, Vec<f64>, Vec<f64>) {
    let n = spec.resolution;
    let lats: Vec<f64> = (0..n)
        .map(|i| world.extent.min_y + (i as f64 + 0.5) / n as f64 * world.extent.height())
        .collect();
    let lons: Vec<f64> = (0..n)
        .map(|i| world.extent.min_x + (i as f64 + 0.5) / n as f64 * world.extent.width())
        .collect();
    let mut ds = Dataset::new(name);
    ds.add_dim("time", spec.times.len())
        .add_dim("lat", n)
        .add_dim("lon", n);
    ds.set_attr("Conventions", "CF-1.6, ACDD-1.3");
    ds.set_attr("title", name);
    ds.set_attr("institution", "VITO (synthetic reproduction)");
    ds.set_attr("product_version", "v1");
    ds.add_variable(
        Variable::new(
            "time",
            vec!["time".into()],
            NdArray::vector(spec.times.iter().map(|&t| t as f64).collect()),
        )
        .with_attr("units", "seconds since 1970-01-01"),
    )
    .expect("time axis");
    ds.add_variable(
        Variable::new("lat", vec!["lat".into()], NdArray::vector(lats.clone()))
            .with_attr("units", "degrees_north"),
    )
    .expect("lat axis");
    ds.add_variable(
        Variable::new("lon", vec!["lon".into()], NdArray::vector(lons.clone()))
            .with_attr("units", "degrees_east"),
    )
    .expect("lon axis");
    (ds, lats, lons)
}

/// Base (peak) LAI by CLC level-3 code.
pub fn base_lai_for_code(code: u16) -> f64 {
    match code {
        111 | 112 => 0.8,
        121..=133 => 0.3,
        141 | 142 => 3.2,
        211..=244 => 2.6,
        311..=324 => 5.0,
        331..=335 => 0.2,
        411..=423 => 1.5,
        511..=523 => 0.0,
        _ => 1.0,
    }
}

/// Generate the LAI product over a world.
pub fn lai_dataset(world: &World, spec: &GridSpec) -> Dataset {
    let (mut ds, lats, lons) = grid_skeleton("lai_300m", world, spec);
    let index = world.land_cover_index();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.resolution;
    let mut data = NdArray::zeros(vec![spec.times.len(), n, n]);
    for (ti, &t) in spec.times.iter().enumerate() {
        let season = seasonal_factor(month_of(t));
        for (la, &lat) in lats.iter().enumerate() {
            for (lo, &lon) in lons.iter().enumerate() {
                let base = world
                    .zone_at(&index, Coord::new(lon, lat))
                    .map(base_lai_for_code)
                    .unwrap_or(f64::NAN);
                let v = if base.is_nan() {
                    f64::NAN
                } else {
                    (base * season + gaussian(&mut rng) * spec.noise).max(0.0)
                };
                data.set(&[ti, la, lo], v).expect("in bounds");
            }
        }
    }
    ds.add_variable(
        Variable::new("LAI", vec!["time".into(), "lat".into(), "lon".into()], data)
            .with_attr("units", "m2/m2")
            .with_attr("long_name", "leaf area index")
            .with_attr("standard_name", "leaf_area_index"),
    )
    .expect("LAI variable");
    ds
}

/// Generate the NDVI product (a squashed transform of the LAI mechanism).
pub fn ndvi_dataset(world: &World, spec: &GridSpec) -> Dataset {
    let (mut ds, lats, lons) = grid_skeleton("ndvi_300m", world, spec);
    let index = world.land_cover_index();
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(1));
    let n = spec.resolution;
    let mut data = NdArray::zeros(vec![spec.times.len(), n, n]);
    for (ti, &t) in spec.times.iter().enumerate() {
        let season = seasonal_factor(month_of(t));
        for (la, &lat) in lats.iter().enumerate() {
            for (lo, &lon) in lons.iter().enumerate() {
                let base = world
                    .zone_at(&index, Coord::new(lon, lat))
                    .map(base_lai_for_code)
                    .unwrap_or(f64::NAN);
                let v = if base.is_nan() {
                    f64::NAN
                } else {
                    // NDVI saturates: 1 - exp(-k·LAI).
                    let lai = (base * season).max(0.0);
                    ((1.0 - (-0.7 * lai).exp()) + gaussian(&mut rng) * spec.noise * 0.2)
                        .clamp(-1.0, 1.0)
                };
                data.set(&[ti, la, lo], v).expect("in bounds");
            }
        }
    }
    ds.add_variable(
        Variable::new(
            "NDVI",
            vec!["time".into(), "lat".into(), "lon".into()],
            data,
        )
        .with_attr("units", "1")
        .with_attr("long_name", "normalized difference vegetation index"),
    )
    .expect("NDVI variable");
    ds
}

/// Generate the Burnt Area product: mostly zero, with a few burnt patches
/// in dry months over vegetated classes.
pub fn burnt_area_dataset(world: &World, spec: &GridSpec) -> Dataset {
    let (mut ds, lats, lons) = grid_skeleton("ba_300m", world, spec);
    let index = world.land_cover_index();
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(2));
    let n = spec.resolution;
    let mut data = NdArray::zeros(vec![spec.times.len(), n, n]);
    for (ti, &t) in spec.times.iter().enumerate() {
        let month = month_of(t);
        let dry = (7..=9).contains(&month);
        for (la, &lat) in lats.iter().enumerate() {
            for (lo, &lon) in lons.iter().enumerate() {
                let code = world.zone_at(&index, Coord::new(lon, lat));
                let flammable = matches!(code, Some(c) if (200..400).contains(&c));
                let v = if code.is_none() {
                    f64::NAN
                } else if dry && flammable && rng.gen_bool(0.01) {
                    1.0
                } else {
                    0.0
                };
                data.set(&[ti, la, lo], v).expect("in bounds");
            }
        }
    }
    ds.add_variable(
        Variable::new("BA", vec!["time".into(), "lat".into(), "lon".into()], data)
            .with_attr("units", "1")
            .with_attr("long_name", "burnt area flag"),
    )
    .expect("BA variable");
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_geo::Envelope;

    fn world() -> World {
        World::generate(42, Envelope::new(2.0, 48.7, 2.6, 49.0), 16)
    }

    #[test]
    fn seasonal_cycle_peaks_in_summer() {
        assert!(seasonal_factor(7) > seasonal_factor(4));
        assert!(seasonal_factor(7) > seasonal_factor(1));
        assert!((seasonal_factor(7) - 1.0).abs() < 1e-9);
        assert!((seasonal_factor(1) - 0.25).abs() < 0.01);
    }

    #[test]
    fn lai_respects_land_cover_ordering() {
        let w = world();
        let spec = GridSpec::monthly_2017(32, 1);
        let ds = lai_dataset(&w, &spec);
        let lai = ds.variable("LAI").unwrap();
        let index = w.land_cover_index();
        let lats = ds.coordinate("lat").unwrap().data.data().to_vec();
        let lons = ds.coordinate("lon").unwrap().data.data().to_vec();
        // July (index 6): average green-urban pixels vs industrial pixels.
        let (mut green, mut industrial) = (Vec::new(), Vec::new());
        for (la, &lat) in lats.iter().enumerate() {
            for (lo, &lon) in lons.iter().enumerate() {
                let v = lai.data.get(&[6, la, lo]).unwrap();
                match w.zone_at(&index, Coord::new(lon, lat)) {
                    Some(141) => green.push(v),
                    Some(121) => industrial.push(v),
                    _ => {}
                }
            }
        }
        assert!(!green.is_empty() && !industrial.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&green) > mean(&industrial) + 1.0,
            "green {} vs industrial {}",
            mean(&green),
            mean(&industrial)
        );
    }

    #[test]
    fn lai_seasonality_visible() {
        let w = world();
        let ds = lai_dataset(&w, &GridSpec::monthly_2017(24, 2));
        let lai = &ds.variable("LAI").unwrap().data;
        let month_mean = |m: usize| {
            lai.slice(&[
                applab_array::Range::index(m),
                applab_array::Range::all(24),
                applab_array::Range::all(24),
            ])
            .unwrap()
            .mean()
        };
        assert!(month_mean(6) > month_mean(0) * 1.5); // July ≫ January
    }

    #[test]
    fn ndvi_bounded() {
        let w = world();
        let ds = ndvi_dataset(&w, &GridSpec::monthly_2017(16, 3));
        let ndvi = &ds.variable("NDVI").unwrap().data;
        for &v in ndvi.data() {
            if !v.is_nan() {
                assert!((-1.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn burnt_area_sparse_and_seasonal() {
        let w = world();
        let ds = burnt_area_dataset(&w, &GridSpec::monthly_2017(32, 4));
        let ba = &ds.variable("BA").unwrap().data;
        let count_burnt = |m: usize| {
            ba.slice(&[
                applab_array::Range::index(m),
                applab_array::Range::all(32),
                applab_array::Range::all(32),
            ])
            .unwrap()
            .data()
            .iter()
            .filter(|&&v| v == 1.0)
            .count()
        };
        let summer: usize = (6..9).map(count_burnt).sum();
        let winter: usize = (0..3).map(count_burnt).sum();
        assert!(summer > 0);
        assert_eq!(winter, 0);
        // Sparse: far fewer than 1% of all pixels per average month.
        assert!(summer < 32 * 32 / 10);
    }

    #[test]
    fn datasets_are_drs_and_acdd_reasonable() {
        let w = world();
        let ds = lai_dataset(&w, &GridSpec::monthly_2017(8, 5));
        let report = applab_array::acdd::check_completeness(&ds);
        // Not perfect, but the basics are present.
        assert!(report.score > 0.3, "score {}", report.score);
        assert!(!report
            .missing_highly_recommended
            .contains(&"title".to_string()));
        let violations = applab_dap::drs::validate("cgls.land.lai.300m.v1.2017-01-15", &ds);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let w = world();
        let a = lai_dataset(&w, &GridSpec::monthly_2017(8, 9));
        let b = lai_dataset(&w, &GridSpec::monthly_2017(8, 9));
        assert_eq!(
            a.variable("LAI").unwrap().data,
            b.variable("LAI").unwrap().data
        );
    }
}
