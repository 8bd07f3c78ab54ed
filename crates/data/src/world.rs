//! The synthetic world: administrative units, land cover, urban atlas
//! areas and points of interest over a city region.

use applab_geo::{Coord, Envelope, Geometry, Polygon, RTree};
use applab_geotriples::{Row, TabularSource, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A GADM-like administrative unit.
#[derive(Debug, Clone)]
pub struct AdminUnit {
    pub id: usize,
    pub name: String,
    pub level: u8,
    pub country: String,
    pub polygon: Polygon,
}

/// A CORINE-like land cover area.
#[derive(Debug, Clone)]
pub struct LandCoverArea {
    pub id: usize,
    /// Level-3 CLC code (111 ... 523).
    pub clc_code: u16,
    pub polygon: Polygon,
}

/// An Urban-Atlas-like area.
#[derive(Debug, Clone)]
pub struct UrbanAtlasArea {
    pub id: usize,
    /// UA code (11100 ... 50000).
    pub ua_code: u32,
    pub population: u32,
    pub polygon: Polygon,
}

/// The OSM POI kinds the case study uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoiKind {
    Park,
    Forest,
    Industrial,
}

impl PoiKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            PoiKind::Park => "park",
            PoiKind::Forest => "forest",
            PoiKind::Industrial => "industrial",
        }
    }
}

/// An OSM-like point of interest (with area geometry, like OSM landuse
/// polygons).
#[derive(Debug, Clone)]
pub struct Poi {
    pub id: usize,
    pub name: String,
    pub kind: PoiKind,
    pub polygon: Polygon,
}

/// The synthetic world.
#[derive(Debug, Clone)]
pub struct World {
    pub extent: Envelope,
    pub admin_units: Vec<AdminUnit>,
    pub land_cover: Vec<LandCoverArea>,
    pub urban_atlas: Vec<UrbanAtlasArea>,
    pub pois: Vec<Poi>,
}

/// The land-cover palette: zone kind → (CLC code, UA code, base LAI).
/// Base LAI is the long-term summer mean for pixels of that class; grids.rs
/// applies seasonality and noise on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    UrbanFabric,
    Industrial,
    GreenUrban,
    Forest,
    Agriculture,
    Water,
}

impl Zone {
    pub fn clc_code(&self) -> u16 {
        match self {
            Zone::UrbanFabric => 112, // discontinuous urban fabric
            Zone::Industrial => 121,  // industrial or commercial units
            Zone::GreenUrban => 141,  // green urban areas
            Zone::Forest => 311,      // broad-leaved forest
            Zone::Agriculture => 211, // non-irrigated arable land
            Zone::Water => 512,       // water bodies
        }
    }

    pub fn ua_code(&self) -> u32 {
        match self {
            Zone::UrbanFabric => 11210,
            Zone::Industrial => 12100,
            Zone::GreenUrban => 14100,
            Zone::Forest => 31000,
            Zone::Agriculture => 21000,
            Zone::Water => 50000,
        }
    }

    /// Long-term peak (summer) LAI for this class.
    pub fn base_lai(&self) -> f64 {
        match self {
            Zone::UrbanFabric => 0.8,
            Zone::Industrial => 0.3,
            Zone::GreenUrban => 3.2,
            Zone::Forest => 5.0,
            Zone::Agriculture => 2.6,
            Zone::Water => 0.0,
        }
    }
}

impl World {
    /// Generate a world over `extent`: a `cells`×`cells` grid of zones.
    /// Deterministic in `seed`.
    pub fn generate(seed: u64, extent: Envelope, cells: usize) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = cells.max(2);
        let dx = extent.width() / cells as f64;
        let dy = extent.height() / cells as f64;
        let center = extent.center();

        // Admin units: quarters of the extent at level 1, the grid cells at
        // level 2 (arrondissement-like).
        let mut admin_units = Vec::new();
        let mut id = 0usize;
        for qy in 0..2 {
            for qx in 0..2 {
                let min_x = extent.min_x + qx as f64 * extent.width() / 2.0;
                let min_y = extent.min_y + qy as f64 * extent.height() / 2.0;
                admin_units.push(AdminUnit {
                    id,
                    name: format!("District {}", id + 1),
                    level: 1,
                    country: "FRA".into(),
                    polygon: Polygon::rect(
                        min_x,
                        min_y,
                        min_x + extent.width() / 2.0,
                        min_y + extent.height() / 2.0,
                    ),
                });
                id += 1;
            }
        }
        let arr = cells.min(20); // arrondissement grid is coarser
        let adx = extent.width() / arr as f64;
        let ady = extent.height() / arr as f64;
        for ay in 0..arr {
            for ax in 0..arr {
                let min_x = extent.min_x + ax as f64 * adx;
                let min_y = extent.min_y + ay as f64 * ady;
                admin_units.push(AdminUnit {
                    id,
                    name: format!("Arrondissement {}", ay * arr + ax + 1),
                    level: 2,
                    country: "FRA".into(),
                    polygon: Polygon::rect(min_x, min_y, min_x + adx, min_y + ady),
                });
                id += 1;
            }
        }

        // Zones per grid cell: urban core in the middle, industry on the
        // east edge, a river band, forests outside, some parks sprinkled.
        let mut land_cover = Vec::new();
        let mut urban_atlas = Vec::new();
        let mut pois = Vec::new();
        let mut park_counter = 0usize;
        for gy in 0..cells {
            for gx in 0..cells {
                let min_x = extent.min_x + gx as f64 * dx;
                let min_y = extent.min_y + gy as f64 * dy;
                let cell = Polygon::rect(min_x, min_y, min_x + dx, min_y + dy);
                let c = Coord::new(min_x + dx / 2.0, min_y + dy / 2.0);
                let r =
                    ((c.x - center.x) / extent.width()).hypot((c.y - center.y) / extent.height());

                let zone = if (c.y - center.y).abs() < extent.height() * 0.03
                    && c.x > center.x - extent.width() * 0.3
                {
                    Zone::Water // the river
                } else if r < 0.18 {
                    if rng.gen_bool(0.12) {
                        Zone::GreenUrban
                    } else {
                        Zone::UrbanFabric
                    }
                } else if c.x > extent.min_x + extent.width() * 0.8 && r < 0.45 {
                    if rng.gen_bool(0.7) {
                        Zone::Industrial
                    } else {
                        Zone::UrbanFabric
                    }
                } else if r < 0.35 {
                    match rng.gen_range(0..10) {
                        0..=1 => Zone::GreenUrban,
                        2 => Zone::Industrial,
                        _ => Zone::UrbanFabric,
                    }
                } else if rng.gen_bool(0.4) {
                    Zone::Forest
                } else {
                    Zone::Agriculture
                };

                let lc_id = land_cover.len();
                land_cover.push(LandCoverArea {
                    id: lc_id,
                    clc_code: zone.clc_code(),
                    polygon: cell.clone(),
                });
                urban_atlas.push(UrbanAtlasArea {
                    id: lc_id,
                    ua_code: zone.ua_code(),
                    population: match zone {
                        Zone::UrbanFabric => rng.gen_range(2_000..20_000),
                        Zone::Industrial => rng.gen_range(0..500),
                        _ => rng.gen_range(0..2_000),
                    },
                    polygon: cell.clone(),
                });
                match zone {
                    Zone::GreenUrban => {
                        park_counter += 1;
                        pois.push(Poi {
                            id: pois.len(),
                            name: format!("Parc {park_counter}"),
                            kind: PoiKind::Park,
                            polygon: cell,
                        });
                    }
                    Zone::Forest if rng.gen_bool(0.25) => {
                        pois.push(Poi {
                            id: pois.len(),
                            name: format!("Forêt {}", pois.len() + 1),
                            kind: PoiKind::Forest,
                            polygon: cell,
                        });
                    }
                    Zone::Industrial if rng.gen_bool(0.3) => {
                        pois.push(Poi {
                            id: pois.len(),
                            name: format!("Zone industrielle {}", pois.len() + 1),
                            kind: PoiKind::Industrial,
                            polygon: cell,
                        });
                    }
                    _ => {}
                }
            }
        }

        World {
            extent,
            admin_units,
            land_cover,
            urban_atlas,
            pois,
        }
    }

    /// An R-tree over the land-cover areas, used by the grid generators.
    pub fn land_cover_index(&self) -> RTree<usize> {
        RTree::bulk_load(
            self.land_cover
                .iter()
                .map(|a| (a.polygon.envelope(), a.id))
                .collect(),
        )
    }

    /// The zone kind at a coordinate (by CLC code of the covering area).
    pub fn zone_at(&self, index: &RTree<usize>, c: Coord) -> Option<u16> {
        for &id in index.query_point(c) {
            let area = &self.land_cover[id];
            if applab_geo::algorithms::polygon_covers_point(&area.polygon, c) {
                return Some(area.clc_code);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Tabular exports (GeoTriples inputs).
    // ------------------------------------------------------------------

    pub fn gadm_table(&self) -> TabularSource {
        let rows = self
            .admin_units
            .iter()
            .map(|u| {
                let mut r = Row::new();
                r.insert("id".into(), Value::Number(u.id as f64));
                r.insert("name".into(), Value::Text(u.name.clone()));
                r.insert("level".into(), Value::Number(u.level as f64));
                r.insert("country".into(), Value::Text(u.country.clone()));
                r.insert(
                    "geometry".into(),
                    Value::Geometry(Geometry::Polygon(u.polygon.clone())),
                );
                r
            })
            .collect();
        TabularSource {
            name: "gadm".into(),
            rows,
        }
    }

    pub fn corine_table(&self) -> TabularSource {
        let rows = self
            .land_cover
            .iter()
            .map(|a| {
                let mut r = Row::new();
                r.insert("id".into(), Value::Number(a.id as f64));
                r.insert("code".into(), Value::Number(a.clc_code as f64));
                let class_iri = applab_rdf::ontology::clc_class_iri(a.clc_code)
                    .expect("generated codes are in the nomenclature");
                r.insert("class".into(), Value::Text(class_iri.as_str().to_string()));
                r.insert(
                    "geometry".into(),
                    Value::Geometry(Geometry::Polygon(a.polygon.clone())),
                );
                r
            })
            .collect();
        TabularSource {
            name: "corine".into(),
            rows,
        }
    }

    pub fn urban_atlas_table(&self) -> TabularSource {
        let rows = self
            .urban_atlas
            .iter()
            .map(|a| {
                let mut r = Row::new();
                r.insert("id".into(), Value::Number(a.id as f64));
                r.insert("code".into(), Value::Number(a.ua_code as f64));
                let class_iri = applab_rdf::ontology::ua_class_iri(a.ua_code)
                    .expect("generated codes are in the nomenclature");
                r.insert("class".into(), Value::Text(class_iri.as_str().to_string()));
                r.insert("population".into(), Value::Number(a.population as f64));
                r.insert(
                    "geometry".into(),
                    Value::Geometry(Geometry::Polygon(a.polygon.clone())),
                );
                r
            })
            .collect();
        TabularSource {
            name: "urban_atlas".into(),
            rows,
        }
    }

    /// The four vector tables of the case study, each with its GeoTriples
    /// mapping, in load order: OSM, GADM, CORINE, Urban Atlas. The order
    /// fixes the store's dictionary ids, so callers load them as given.
    pub fn tables(&self) -> [(TabularSource, &'static str); 4] {
        use crate::mappings as m;
        [
            (self.osm_table(), m::OSM_MAPPING),
            (self.gadm_table(), m::GADM_MAPPING),
            (self.corine_table(), m::CORINE_MAPPING),
            (self.urban_atlas_table(), m::URBAN_ATLAS_MAPPING),
        ]
    }

    pub fn osm_table(&self) -> TabularSource {
        let rows = self
            .pois
            .iter()
            .map(|p| {
                let mut r = Row::new();
                r.insert("id".into(), Value::Number(p.id as f64));
                r.insert("name".into(), Value::Text(p.name.clone()));
                r.insert("kind".into(), Value::Text(p.kind.as_str().to_string()));
                r.insert(
                    "geometry".into(),
                    Value::Geometry(Geometry::Polygon(p.polygon.clone())),
                );
                r
            })
            .collect();
        TabularSource {
            name: "osm".into(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(42, Envelope::new(2.0, 48.7, 2.6, 49.0), 24)
    }

    #[test]
    fn deterministic() {
        let a = World::generate(7, Envelope::new(0.0, 0.0, 1.0, 1.0), 10);
        let b = World::generate(7, Envelope::new(0.0, 0.0, 1.0, 1.0), 10);
        assert_eq!(a.land_cover.len(), b.land_cover.len());
        assert_eq!(
            a.land_cover.iter().map(|x| x.clc_code).collect::<Vec<_>>(),
            b.land_cover.iter().map(|x| x.clc_code).collect::<Vec<_>>()
        );
        let c = World::generate(8, Envelope::new(0.0, 0.0, 1.0, 1.0), 10);
        assert_ne!(
            a.land_cover.iter().map(|x| x.clc_code).collect::<Vec<_>>(),
            c.land_cover.iter().map(|x| x.clc_code).collect::<Vec<_>>()
        );
    }

    #[test]
    fn covers_extent_with_valid_codes() {
        let w = world();
        assert_eq!(w.land_cover.len(), 24 * 24);
        for a in &w.land_cover {
            assert!(
                applab_rdf::ontology::clc_class_iri(a.clc_code).is_some(),
                "bad code {}",
                a.clc_code
            );
        }
        for a in &w.urban_atlas {
            assert!(applab_rdf::ontology::ua_class_iri(a.ua_code).is_some());
        }
        // Urban core exists and industry is present.
        let kinds: std::collections::HashSet<u16> =
            w.land_cover.iter().map(|a| a.clc_code).collect();
        assert!(kinds.contains(&112));
        assert!(kinds.contains(&121));
        assert!(kinds.contains(&141));
    }

    #[test]
    fn pois_sit_on_matching_land_cover() {
        let w = world();
        let index = w.land_cover_index();
        assert!(!w.pois.is_empty());
        for p in w.pois.iter().filter(|p| p.kind == PoiKind::Park) {
            let c =
                applab_geo::algorithms::centroid(&Geometry::Polygon(p.polygon.clone())).unwrap();
            assert_eq!(
                w.zone_at(&index, c),
                Some(141),
                "park {} not on 141",
                p.name
            );
        }
    }

    #[test]
    fn zone_lookup_outside_is_none() {
        let w = world();
        let index = w.land_cover_index();
        assert_eq!(w.zone_at(&index, Coord::new(-10.0, -10.0)), None);
    }

    #[test]
    fn tabular_exports() {
        let w = world();
        assert_eq!(w.gadm_table().rows.len(), w.admin_units.len());
        assert_eq!(w.corine_table().rows.len(), w.land_cover.len());
        assert_eq!(w.urban_atlas_table().rows.len(), w.urban_atlas.len());
        assert_eq!(w.osm_table().rows.len(), w.pois.len());
        // Geometry columns present everywhere.
        for t in [
            w.gadm_table(),
            w.corine_table(),
            w.urban_atlas_table(),
            w.osm_table(),
        ] {
            assert!(t
                .rows
                .iter()
                .all(|r| matches!(r.get("geometry"), Some(Value::Geometry(_)))));
        }
    }
}
