//! The "greenness of Paris" analysis (Section 4 / Figure 4).
//!
//! Correlates LAI observations with the land cover of the area they fall
//! in, and produces both the numeric series behind Figure 4 and the
//! Sextant thematic map. The analysis is one query asked of any
//! [`QueryEndpoint`]; [`virtual_workflow`] and [`materialized_workflow`]
//! build the two endpoints of Section 5 over the Paris fixture.

use crate::endpoint::QueryEndpoint;
use crate::error::CoreError;
use crate::materialized::MaterializedWorkflow;
use crate::r#virtual::{VirtualWorkflow, VirtualWorkflowBuilder};
use applab_data::mappings::opendap_lai_mapping;
use applab_data::ParisFixture;
use applab_rdf::ontology;
use applab_sextant::map::{figure4_styles, Layer, Map};
use applab_sextant::style::{Color, Style};
use applab_sparql::QueryResults;
use std::time::Duration;

/// One row of the per-class LAI series: (CLC class local name, month
/// timestamps, mean LAI per month).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSeries {
    pub class: String,
    pub series: Vec<(i64, f64)>,
}

/// The full case-study result.
pub struct Greenness {
    pub per_class: Vec<ClassSeries>,
    pub map: Map,
}

/// Mean LAI per CORINE class and month: every observation joined with the
/// land-cover area its point intersects.
const PER_CLASS_QUERY: &str = r#"SELECT ?class ?t (AVG(?lai) AS ?mean) (COUNT(?lai) AS ?n) WHERE {
  ?obs a lai:Observation ;
       lai:hasLai ?lai ;
       time:hasTime ?t ;
       geo:hasGeometry ?og .
  ?og geo:asWKT ?owkt .
  ?area a clc:CorineArea ;
        clc:hasCorineValue ?class ;
        geo:hasGeometry ?ag .
  ?ag geo:asWKT ?awkt .
  FILTER(geof:sfIntersects(?awkt, ?owkt))
} GROUP BY ?class ?t"#;

/// The on-the-fly workflow over the fixture: its LAI product published as
/// `lai_300m` and mapped by Listing 2, the four vector tables behind their
/// GeoTriples mappings.
pub fn virtual_workflow(fixture: &ParisFixture) -> Result<VirtualWorkflow, CoreError> {
    let mut lai = fixture.lai.clone();
    lai.name = "lai_300m".into();
    let mut b = VirtualWorkflowBuilder::local();
    b.publish(lai);
    b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    b.add_mappings(&opendap_lai_mapping("lai_300m", 10))?;
    for (table, doc) in fixture.world.tables() {
        b.add_table(table);
        b.add_mappings(doc)?;
    }
    b.seal()
}

/// The materialized workflow over the fixture: the ontologies, the four
/// vector tables through GeoTriples, then everything the virtual graphs
/// materialize (the LAI observations; the vector triples are already
/// stored and deduplicate away).
pub fn materialized_workflow(fixture: &ParisFixture) -> Result<MaterializedWorkflow, CoreError> {
    let mut wf = MaterializedWorkflow::new();
    // Ontologies first (the "first task of any case study", Section 4).
    for g in [
        ontology::lai_ontology(),
        ontology::gadm_ontology(),
        ontology::corine_ontology(),
        ontology::urban_atlas_ontology(),
        ontology::osm_ontology(),
    ] {
        wf.load_graph(&g);
    }
    for (table, doc) in &fixture.world.tables() {
        wf.load_table(table, doc)?;
    }
    wf.load_graph(&virtual_workflow(fixture)?.materialize()?);
    Ok(wf)
}

/// Run the analysis against an endpoint: the per-class monthly series
/// (classes by name, months in order) and the Figure 4 map.
pub fn run(endpoint: &dyn QueryEndpoint) -> Result<Greenness, CoreError> {
    let r = endpoint.query(PER_CLASS_QUERY)?;
    let mut per_class: Vec<ClassSeries> = Vec::new();
    for i in 0..r.len() {
        let class = r
            .value(i, "class")
            .and_then(|v| v.as_named())
            .map(|n| n.local_name().to_string())
            .unwrap_or_default();
        let literal = |var: &str| r.value(i, var).and_then(|v| v.as_literal());
        let t = literal("t").and_then(applab_rdf::Literal::as_datetime);
        let t = t.ok_or_else(|| CoreError::Source(format!("row {i}: no month")))?;
        let mean = literal("mean")
            .and_then(applab_rdf::Literal::as_f64)
            .unwrap_or(f64::NAN);
        match per_class.iter_mut().find(|c| c.class == class) {
            Some(c) => c.series.push((t, mean)),
            None => per_class.push(ClassSeries {
                class,
                series: vec![(t, mean)],
            }),
        }
    }
    per_class.sort_by(|a, b| a.class.cmp(&b.class));
    for c in &mut per_class {
        c.series.sort_by_key(|&(t, _)| t);
    }

    let map = build_map(endpoint)?;
    Ok(Greenness { per_class, map })
}

/// Does the headline observation of Figure 4 hold: green urban areas show
/// higher LAI than industrial areas in every month both series cover?
pub fn green_beats_industrial(per_class: &[ClassSeries]) -> Option<bool> {
    let green = per_class.iter().find(|c| c.class == "GreenUrbanAreas")?;
    let industrial = per_class
        .iter()
        .find(|c| c.class == "IndustrialOrCommercialUnits")?;
    let mut checked = 0;
    for (t, g) in &green.series {
        if let Some((_, i)) = industrial.series.iter().find(|(ti, _)| ti == t) {
            if g <= i {
                return Some(false);
            }
            checked += 1;
        }
    }
    Some(checked > 0)
}

/// Build the Figure 4 thematic map from any GeoSPARQL endpoint.
fn build_map(wf: &dyn QueryEndpoint) -> Result<Map, CoreError> {
    let mut map = Map::new("The greenness of Paris");
    let styles = figure4_styles();

    let layer_query =
        |wf: &dyn QueryEndpoint, q: &str| -> Result<QueryResults, CoreError> { wf.query(q) };

    // CORINE green areas (fill).
    let r = layer_query(
        wf,
        "SELECT ?wkt WHERE { ?a a clc:CorineArea ; clc:hasCorineValue clc:GreenUrbanAreas ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    )?;
    map.add_layer(
        Layer::from_results(
            "CORINE green urban areas",
            styles[0].1.clone(),
            &r,
            "wkt",
            None,
            None,
            None,
        )
        .with_source("store:clc"),
    );
    // OSM parks.
    let r = layer_query(
        wf,
        "SELECT ?wkt ?name WHERE { ?p osm:poiType osm:park ; osm:hasName ?name ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    )?;
    map.add_layer(
        Layer::from_results(
            "OpenStreetMap parks",
            styles[2].1.clone(),
            &r,
            "wkt",
            None,
            Some("name"),
            None,
        )
        .with_source("store:osm"),
    );
    // GADM boundaries (magenta outlines, as the paper describes).
    let r = layer_query(
        wf,
        "SELECT ?wkt WHERE { ?u a gadm:AdministrativeUnit ; gadm:hasLevel 2 ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    )?;
    map.add_layer(
        Layer::from_results(
            "GADM administrative areas",
            styles[3].1.clone(),
            &r,
            "wkt",
            None,
            None,
            None,
        )
        .with_source("store:gadm"),
    );
    // LAI observations (value ramp circles over time).
    let r = layer_query(
        wf,
        "SELECT ?wkt ?lai ?t WHERE { ?o a lai:Observation ; lai:hasLai ?lai ; time:hasTime ?t ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    )?;
    map.add_layer(
        Layer::from_results(
            "LAI observations",
            Style::ValueRamp {
                min: 0.0,
                max: 6.0,
                low: Color::YELLOW,
                high: Color::GREEN,
            },
            &r,
            "wkt",
            Some("lai"),
            None,
            Some("t"),
        )
        .with_source("store:lai"),
    );
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_reproduction_small() {
        let fixture = ParisFixture::generate(2019, 16, 24);
        let result = run(&materialized_workflow(&fixture).unwrap()).unwrap();
        assert!(!result.per_class.is_empty());
        // The headline claim of Figure 4.
        assert_eq!(green_beats_industrial(&result.per_class), Some(true));
        // The map has the layers and a timeline.
        assert_eq!(result.map.layers.len(), 4);
        assert_eq!(result.map.timeline().len(), 12);
        // It renders.
        let svg =
            applab_sextant::render_svg(&result.map, &applab_sextant::svg::RenderOptions::default());
        assert!(svg.contains("</svg>"));
    }
}
