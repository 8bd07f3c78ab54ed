//! The schema.org `Dataset` annotation with the EO extension.
//!
//! The EO extension fields follow OGC 17-003 (EO product metadata in
//! GeoJSON(-LD)): platform, instrument, processing level, product type,
//! acquisition window — "extending the class Dataset with subclasses and
//! properties, which cover the EO dataset metadata defined in the
//! specification OGC 17-003".

use applab_geo::Envelope;
use applab_rdf::{vocab, Graph, Literal, NamedNode, Resource, Term};

/// The EO-specific extension properties (OGC 17-003 subset).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EoExtension {
    /// Satellite / mission (e.g. "PROBA-V", "Sentinel-2").
    pub platform: Option<String>,
    /// Sensing instrument.
    pub instrument: Option<String>,
    /// EO processing level ("L0" raw ... "L3"/"L4" products).
    pub processing_level: Option<String>,
    /// Product type (e.g. "LAI", "NDVI", "land cover").
    pub product_type: Option<String>,
    /// Ground sampling distance in metres.
    pub resolution_m: Option<f64>,
}

/// A catalogued dataset: the schema.org core plus the EO extension.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EoDataset {
    /// Stable identifier (IRI).
    pub id: String,
    pub name: String,
    pub description: String,
    pub keywords: Vec<String>,
    /// Producing organization (e.g. "European Environment Agency").
    pub creator: String,
    pub license: Option<String>,
    pub url: Option<String>,
    /// Spatial coverage.
    pub spatial_coverage: Option<Envelope>,
    /// Temporal coverage (epoch seconds).
    pub temporal_coverage: Option<(i64, i64)>,
    pub eo: EoExtension,
}

/// The EO extension namespace.
pub const EO_NS: &str = "http://www.app-lab.eu/schema-eo/";

impl EoDataset {
    /// JSON-LD annotation of the dataset, as embedded in a web page for
    /// dataset search ("the on-page markup allows search engines to
    /// understand information included in web pages").
    pub fn to_json_ld(&self) -> String {
        let mut fields: Vec<String> = vec![
            "\"@context\": \"https://schema.org/\"".to_string(),
            "\"@type\": [\"Dataset\", \"eo:EarthObservationDataset\"]".to_string(),
            format!("\"@id\": {}", json_str(&self.id)),
            format!("\"name\": {}", json_str(&self.name)),
            format!("\"description\": {}", json_str(&self.description)),
        ];
        let kw = self
            .keywords
            .iter()
            .map(|k| json_str(k))
            .collect::<Vec<_>>()
            .join(", ");
        fields.push(format!("\"keywords\": [{kw}]"));
        fields.push(format!(
            "\"creator\": {{\"@type\": \"Organization\", \"name\": {}}}",
            json_str(&self.creator)
        ));
        if let Some(l) = &self.license {
            fields.push(format!("\"license\": {}", json_str(l)));
        }
        if let Some(u) = &self.url {
            fields.push(format!("\"url\": {}", json_str(u)));
        }
        if let Some(e) = &self.spatial_coverage {
            fields.push(format!(
                "\"spatialCoverage\": {{\"@type\": \"Place\", \"geo\": {{\"@type\": \"GeoShape\", \"box\": \"{} {} {} {}\"}}}}",
                e.min_y, e.min_x, e.max_y, e.max_x
            ));
        }
        if let Some((start, end)) = self.temporal_coverage {
            fields.push(format!(
                "\"temporalCoverage\": \"{}/{}\"",
                applab_rdf::datetime::format_date(start),
                applab_rdf::datetime::format_date(end)
            ));
        }
        if let Some(p) = &self.eo.platform {
            fields.push(format!("\"eo:platform\": {}", json_str(p)));
        }
        if let Some(i) = &self.eo.instrument {
            fields.push(format!("\"eo:instrument\": {}", json_str(i)));
        }
        if let Some(l) = &self.eo.processing_level {
            fields.push(format!("\"eo:processingLevel\": {}", json_str(l)));
        }
        if let Some(t) = &self.eo.product_type {
            fields.push(format!("\"eo:productType\": {}", json_str(t)));
        }
        if let Some(r) = self.eo.resolution_m {
            fields.push(format!("\"eo:resolution\": {r}"));
        }
        let mut out = String::from("{\n  ");
        out.push_str(&fields.join(",\n  "));
        out.push_str("\n}\n");
        out
    }

    /// RDF annotation (the same content as triples, for the linked-data
    /// side of the catalog).
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new();
        let id = Resource::named(&*self.id);
        let eo_class = format!("{EO_NS}EarthObservationDataset");
        g.add(
            id.clone(),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(vocab::schema::DATASET),
        );
        g.add(
            id.clone(),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(eo_class),
        );
        g.add(
            id.clone(),
            NamedNode::new(vocab::schema::NAME),
            Literal::string(&*self.name),
        );
        g.add(
            id.clone(),
            NamedNode::new(vocab::schema::DESCRIPTION),
            Literal::string(&*self.description),
        );
        for k in &self.keywords {
            g.add(
                id.clone(),
                NamedNode::new(vocab::schema::KEYWORDS),
                Literal::string(k.clone()),
            );
        }
        g.add(
            id.clone(),
            NamedNode::new(vocab::schema::CREATOR),
            Literal::string(&*self.creator),
        );
        if let Some(l) = &self.license {
            g.add(
                id.clone(),
                NamedNode::new(vocab::schema::LICENSE),
                Literal::string(l.clone()),
            );
        }
        if let Some(u) = &self.url {
            g.add(
                id.clone(),
                NamedNode::new(vocab::schema::URL),
                Literal::string(u.clone()),
            );
        }
        if let Some(e) = &self.spatial_coverage {
            let wkt = format!(
                "POLYGON (({} {}, {} {}, {} {}, {} {}, {} {}))",
                e.min_x,
                e.min_y,
                e.max_x,
                e.min_y,
                e.max_x,
                e.max_y,
                e.min_x,
                e.max_y,
                e.min_x,
                e.min_y
            );
            g.add(
                id.clone(),
                NamedNode::new(vocab::schema::SPATIAL_COVERAGE),
                Literal::wkt(wkt),
            );
        }
        if let Some((start, end)) = self.temporal_coverage {
            g.add(
                id.clone(),
                NamedNode::new(format!("{EO_NS}coverageStart")),
                Literal::datetime(start),
            );
            g.add(
                id.clone(),
                NamedNode::new(format!("{EO_NS}coverageEnd")),
                Literal::datetime(end),
            );
        }
        for (field, value) in [
            ("platform", &self.eo.platform),
            ("instrument", &self.eo.instrument),
            ("processingLevel", &self.eo.processing_level),
            ("productType", &self.eo.product_type),
        ] {
            if let Some(v) = value {
                g.add(
                    id.clone(),
                    NamedNode::new(format!("{EO_NS}{field}")),
                    Literal::string(v.clone()),
                );
            }
        }
        if let Some(r) = self.eo.resolution_m {
            g.add(
                id,
                NamedNode::new(format!("{EO_NS}resolution")),
                Literal::double(r),
            );
        }
        g
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    applab_obs::json::push_string(&mut out, s);
    out
}

/// The CORINE land cover dataset annotation used across examples/tests.
pub fn corine_annotation() -> EoDataset {
    EoDataset {
        id: "http://data.example.org/datasets/corine-land-cover-2012".into(),
        name: "CORINE Land Cover 2012".into(),
        description: "Pan-European land cover and land use inventory with 44 thematic classes"
            .into(),
        keywords: vec![
            "land cover".into(),
            "land use".into(),
            "CORINE".into(),
            "pan-european".into(),
        ],
        creator: "European Environment Agency".into(),
        license: Some("https://creativecommons.org/licenses/by/4.0/".into()),
        url: Some("https://land.copernicus.eu/pan-european/corine-land-cover".into()),
        // Covers Europe.
        spatial_coverage: Some(Envelope::new(-25.0, 34.0, 45.0, 72.0)),
        temporal_coverage: Some((1_325_376_000, 1_356_998_400)), // 2012
        eo: EoExtension {
            platform: Some("Sentinel-2 / Landsat".into()),
            instrument: None,
            processing_level: Some("L3".into()),
            product_type: Some("land cover".into()),
            resolution_m: Some(100.0),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_ld_is_valid_json_with_eo_fields() {
        let ds = corine_annotation();
        let doc = ds.to_json_ld();
        let parsed = applab_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(
            parsed.get("@context").and_then(|v| v.as_str()),
            Some("https://schema.org/")
        );
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("CORINE Land Cover 2012")
        );
        assert_eq!(
            parsed.get("eo:productType").and_then(|v| v.as_str()),
            Some("land cover")
        );
        assert!(doc.contains("spatialCoverage"));
        assert!(doc.contains("2012-01-01/2012-12-31") || doc.contains("temporalCoverage"));
    }

    #[test]
    fn rdf_annotation() {
        let ds = corine_annotation();
        let g = ds.to_graph();
        let id = Resource::named(&*ds.id);
        assert!(g
            .matching(
                Some(&id),
                Some(&NamedNode::new(vocab::rdf::TYPE)),
                Some(&Term::named(vocab::schema::DATASET))
            )
            .next()
            .is_some());
        // 4 keywords.
        assert_eq!(
            g.matching(
                Some(&id),
                Some(&NamedNode::new(vocab::schema::KEYWORDS)),
                None
            )
            .count(),
            4
        );
        // Spatial coverage is a parsable WKT literal.
        let cov = g
            .object_of(&id, &NamedNode::new(vocab::schema::SPATIAL_COVERAGE))
            .unwrap();
        assert!(cov.as_literal().unwrap().as_geometry().is_some());
    }

    #[test]
    fn minimal_dataset_serializes() {
        let ds = EoDataset {
            id: "http://x/d".into(),
            name: "D".into(),
            ..EoDataset::default()
        };
        assert!(applab_obs::json::parse(&ds.to_json_ld()).is_ok());
        assert!(ds.to_graph().len() >= 3);
    }
}
