//! The "greenness of Paris" case-study fixture (Section 4).
//!
//! A fixed-seed world over the Paris region with the Bois de Boulogne
//! pinned at its (approximate) real footprint, plus the monthly 2017 LAI
//! product over it.

use crate::grids::{lai_dataset, GridSpec};
use crate::world::{Poi, PoiKind, World, Zone};
use applab_array::Dataset;
use applab_geo::{Envelope, Polygon};

/// The Paris case-study fixture.
#[derive(Debug, Clone)]
pub struct ParisFixture {
    pub world: World,
    /// Monthly 2017 LAI over the region.
    pub lai: Dataset,
}

/// The approximate Bois de Boulogne footprint used by Listing 1 tests.
pub fn bois_de_boulogne() -> Polygon {
    Polygon::rect(2.21, 48.85, 2.27, 48.88)
}

/// The Paris region extent.
pub fn paris_extent() -> Envelope {
    Envelope::new(2.0, 48.7, 2.6, 49.0)
}

impl ParisFixture {
    /// Generate the fixture. `cells` controls vector density and
    /// `resolution` the LAI grid (use small values in unit tests).
    pub fn generate(seed: u64, cells: usize, resolution: usize) -> ParisFixture {
        let mut world = World::generate(seed, paris_extent(), cells);
        // Pin the Bois de Boulogne: overwrite the covering land-cover cells
        // with green urban and add the named park POI.
        let bois = bois_de_boulogne();
        let bois_env = bois.envelope();
        for area in &mut world.land_cover {
            if bois_env.contains_envelope(&area.polygon.envelope()) {
                area.clc_code = Zone::GreenUrban.clc_code();
            }
        }
        for area in &mut world.urban_atlas {
            if bois_env.contains_envelope(&area.polygon.envelope()) {
                area.ua_code = Zone::GreenUrban.ua_code();
            }
        }
        // Replace any generated park overlapping the footprint, then add
        // the real one under a fresh id (after the `retain`, the length
        // can be an id a surviving POI still holds).
        world
            .pois
            .retain(|p| !(p.kind == PoiKind::Park && bois_env.intersects(&p.polygon.envelope())));
        world.pois.push(Poi {
            id: world.pois.iter().map(|p| p.id + 1).max().unwrap_or(0),
            name: "Bois de Boulogne".into(),
            kind: PoiKind::Park,
            polygon: bois,
        });
        let lai = lai_dataset(&world, &GridSpec::monthly_2017(resolution, seed));
        ParisFixture { world, lai }
    }

    /// The default fixture used across examples and integration tests.
    pub fn default_fixture() -> ParisFixture {
        ParisFixture::generate(2019, 24, 48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_geo::{algorithms, Coord, Geometry};

    #[test]
    fn bois_de_boulogne_present_and_green() {
        let f = ParisFixture::generate(7, 16, 16);
        let bois: Vec<&Poi> = f
            .world
            .pois
            .iter()
            .filter(|p| p.name == "Bois de Boulogne")
            .collect();
        assert_eq!(bois.len(), 1);
        // Its interior is green urban land cover.
        let index = f.world.land_cover_index();
        let c = algorithms::centroid(&Geometry::Polygon(bois[0].polygon.clone())).unwrap();
        assert_eq!(f.world.zone_at(&index, c), Some(141));
    }

    #[test]
    fn lai_over_bois_exceeds_city_mean_in_summer() {
        let f = ParisFixture::generate(11, 20, 40);
        let lai = &f.lai.variable("LAI").unwrap().data;
        let lats = f.lai.coordinate("lat").unwrap().data.data().to_vec();
        let lons = f.lai.coordinate("lon").unwrap().data.data().to_vec();
        let bois = bois_de_boulogne();
        let (mut inside, mut outside) = (Vec::new(), Vec::new());
        for (la, &lat) in lats.iter().enumerate() {
            for (lo, &lon) in lons.iter().enumerate() {
                let v = lai.get(&[6, la, lo]).unwrap(); // July
                if v.is_nan() {
                    continue;
                }
                if algorithms::polygon_covers_point(&bois, Coord::new(lon, lat)) {
                    inside.push(v);
                } else {
                    outside.push(v);
                }
            }
        }
        assert!(!inside.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&inside) > mean(&outside),
            "{} vs {}",
            mean(&inside),
            mean(&outside)
        );
    }

    #[test]
    fn poi_ids_are_unique() {
        // Ids become subject IRIs (`osm:poi_{id}`), so they must be keys.
        for (seed, cells) in [(7, 16), (2019, 24), (2019, 28), (5, 14)] {
            let f = ParisFixture::generate(seed, cells, 4);
            let ids: std::collections::HashSet<usize> = f.world.pois.iter().map(|p| p.id).collect();
            assert_eq!(ids.len(), f.world.pois.len(), "seed {seed}, {cells} cells");
        }
    }

    #[test]
    fn fixture_is_deterministic() {
        let a = ParisFixture::generate(3, 12, 12);
        let b = ParisFixture::generate(3, 12, 12);
        assert_eq!(a.world.pois.len(), b.world.pois.len());
        assert_eq!(
            a.lai.variable("LAI").unwrap().data,
            b.lai.variable("LAI").unwrap().data
        );
    }
}
