//! The "greenness of Paris" case study (Section 4, Figure 4).
//!
//! ```text
//! cargo run --release --example greenness_of_paris
//! ```
//!
//! Regenerates Figure 4: loads the synthetic Paris fixture (OSM parks,
//! GADM areas, CORINE land cover, Urban Atlas, monthly LAI), answers
//! Listing 1, correlates LAI with land cover per month, and writes the
//! thematic map as `greenness_of_paris.svg` plus its RDF description
//! (`greenness_of_paris.ttl`, via the Sextant map ontology). Exits with
//! an error when green urban areas do not beat industrial ones in every
//! month.

use copernicus_app_lab::core::greenness;
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::rdf::datetime::format_date;
use copernicus_app_lab::sextant::ontology::map_to_rdf;
use copernicus_app_lab::sextant::svg::RenderOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating the Paris fixture (synthetic Copernicus data)...");
    let fixture = ParisFixture::default_fixture();
    println!(
        "  {} land cover areas, {} POIs, LAI grid {:?}",
        fixture.world.land_cover.len(),
        fixture.world.pois.len(),
        fixture.lai.variable("LAI").unwrap().data.shape()
    );

    println!("loading into the materialized workflow and analysing...");
    let store = greenness::materialized_workflow(&fixture)?;
    let result = greenness::run(&store)?;

    // Listing 1 of the paper, against the same store.
    let listing1 = store.query(
        r#"SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne" .
  ?areaB lai:hasLai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA, ?geoB))
}"#,
    )?;
    println!(
        "\nListing 1 (LAI observations in the Bois de Boulogne): {} rows",
        listing1.len()
    );

    // The per-class series behind Figure 4.
    println!("\nmean LAI per CORINE class per month:");
    print!("{:<40}", "class");
    if let Some(first) = result.per_class.first() {
        for (t, _) in &first.series {
            print!(" {:>7}", &format_date(*t)[5..]);
        }
    }
    println!();
    for class in &result.per_class {
        print!("{:<40}", class.class);
        for (_, mean) in &class.series {
            print!(" {mean:>7.2}");
        }
        println!();
    }
    match greenness::green_beats_industrial(&result.per_class) {
        Some(true) => println!(
            "\n=> green urban areas show higher LAI than industrial areas in every month (Figure 4's observation)"
        ),
        other => return Err(format!("Figure 4's observation does not hold: {other:?}").into()),
    }

    // Figure 4 as SVG (July snapshot) + the map ontology RDF.
    let july = result.map.timeline().get(6).copied();
    let svg = copernicus_app_lab::sextant::render_svg(
        &result.map,
        &RenderOptions {
            at_time: july,
            ..RenderOptions::default()
        },
    );
    std::fs::write("greenness_of_paris.svg", &svg)?;
    let map_rdf = map_to_rdf(&result.map, "http://www.app-lab.eu/maps/greenness-of-paris");
    std::fs::write(
        "greenness_of_paris.ttl",
        copernicus_app_lab::rdf::turtle::write_turtle(&map_rdf),
    )?;
    println!(
        "\nwrote greenness_of_paris.svg ({} bytes) and greenness_of_paris.ttl",
        svg.len()
    );
    Ok(())
}
