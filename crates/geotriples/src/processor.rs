//! The mapping processor.
//!
//! "The performance of GeoTriples has been studied experimentally in \[22\]
//! ... It has been shown that GeoTriples is very efficient especially when
//! its mapping processor is implemented using Apache Hadoop." The parallel
//! processor here is one ordered expansion, [`for_each_triple`]: worker
//! threads (the laptop-scale Hadoop substitute) expand fixed-size row
//! chunks while the calling thread hands the triples on in row order, so a
//! consumer such as the store can take them as they come instead of after
//! a merge. Bench B5 reproduces the scaling experiment.

use crate::mapping::{Mapping, TermTemplate};
use crate::source::{Row, TabularSource};
use applab_rdf::{Graph, Resource, Term, Triple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Rows per unit of work a worker takes from the shared counter.
const CHUNK_ROWS: usize = 256;

/// Apply one mapping to a source sequentially, producing a graph.
pub fn process(mapping: &Mapping, source: &TabularSource) -> Graph {
    process_parallel(mapping, source, 1)
}

/// Apply several mappings to their sources sequentially.
pub fn process_all(jobs: &[(&Mapping, &TabularSource)]) -> Graph {
    let mut g = Graph::new();
    for (mapping, source) in jobs {
        g.extend_from(&process(mapping, source));
    }
    g
}

/// Apply one mapping with `workers` threads, producing a graph. The graph
/// holds the same triples in the same order as [`process`]'s: it is
/// [`for_each_triple`] into a deduplicating [`Graph`].
pub fn process_parallel(mapping: &Mapping, source: &TabularSource, workers: usize) -> Graph {
    let mut g = Graph::new();
    for_each_triple(mapping, source, workers, |t| {
        g.insert(t);
    });
    g
}

/// Expand every row of `source` through `mapping` and hand each triple to
/// `sink` in row order (within a row, in template order), duplicates
/// included. With `workers > 1` and more than one chunk of rows, worker
/// threads take chunks from a shared counter and send each expanded chunk
/// back; the calling thread runs `sink` on the chunks in order, holding
/// early arrivals until their turn, so the sink's work overlaps the
/// expansion of later rows. Otherwise everything runs on the calling
/// thread. A panicking worker panics the caller.
pub fn for_each_triple(
    mapping: &Mapping,
    source: &TabularSource,
    workers: usize,
    mut sink: impl FnMut(Triple),
) {
    let compiled = Compiled::new(mapping);
    let rows = &source.rows;
    let chunks = rows.len().div_ceil(CHUNK_ROWS);
    let workers = workers.min(chunks);
    if workers <= 1 {
        for row in rows {
            compiled.expand(row, &mut sink);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let delivered = std::thread::scope(|scope| {
        // Bounded, so that workers far ahead of the sink wait instead of
        // piling up expanded chunks.
        let (tx, rx) = mpsc::sync_channel::<(usize, Vec<Triple>)>(workers);
        for _ in 0..workers {
            let (tx, next, compiled) = (tx.clone(), &next, &compiled);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= chunks {
                    break;
                }
                let chunk = &rows[index * CHUNK_ROWS..rows.len().min((index + 1) * CHUNK_ROWS)];
                let mut triples = Vec::with_capacity(chunk.len() * compiled.templates.len());
                for row in chunk {
                    compiled.expand(row, &mut |t| triples.push(t));
                }
                // The receiver is gone only when the sink panicked.
                if tx.send((index, triples)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut early: HashMap<usize, Vec<Triple>> = HashMap::new();
        let mut due = 0;
        for (index, triples) in rx {
            early.insert(index, triples);
            while let Some(triples) = early.remove(&due) {
                triples.into_iter().for_each(&mut sink);
                due += 1;
            }
        }
        due
    });
    debug_assert_eq!(delivered, chunks, "every chunk reaches the sink");
}

/// A mapping's triple templates with every placeholder-free term (every
/// predicate, `rdf:type` objects) built once, to be cloned per row.
struct Compiled<'m> {
    templates: Vec<[Slot<'m>; 3]>,
}

enum Slot<'m> {
    Fixed(Term),
    PerRow(&'m TermTemplate),
}

impl<'m> Compiled<'m> {
    fn new(mapping: &'m Mapping) -> Self {
        let templates = mapping
            .target
            .iter()
            .map(|t| [&t.subject, &t.predicate, &t.object].map(Slot::new))
            .collect();
        Compiled { templates }
    }

    /// Expand one row, template by template; exactly the triples of
    /// [`crate::mapping::TripleTemplate::expand`], in template order.
    fn expand(&self, row: &Row, sink: &mut impl FnMut(Triple)) {
        for [s, p, o] in &self.templates {
            let Some(s) = s.expand(row).and_then(|s| match s {
                Term::Named(n) => Some(Resource::Named(n)),
                Term::Blank(b) => Some(Resource::Blank(b)),
                Term::Literal(_) => None,
            }) else {
                continue;
            };
            let Some(Term::Named(p)) = p.expand(row) else {
                continue;
            };
            if let Some(o) = o.expand(row) {
                sink(Triple::new(s, p, o));
            }
        }
    }
}

impl<'m> Slot<'m> {
    fn new(template: &'m TermTemplate) -> Self {
        let text = match template {
            TermTemplate::Iri(t) | TermTemplate::Blank(t) => t,
            TermTemplate::Literal { template, .. } => template,
        };
        // A template without placeholders never reads the row.
        let fixed = text
            .columns()
            .is_empty()
            .then(|| template.expand(&Row::new()));
        fixed.flatten().map_or(Slot::PerRow(template), Slot::Fixed)
    }

    fn expand(&self, row: &Row) -> Option<Term> {
        match self {
            Slot::Fixed(term) => Some(term.clone()),
            Slot::PerRow(template) => template.expand(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::parse_mappings;
    use crate::source::{read_csv, Row, TabularSource, Value};

    const MAPPING: &str = r#"
mappingId parks
target osm:poi_{id} a osm:PointOfInterest ;
       osm:hasName {name}^^xsd:string ;
       geo:hasGeometry osm:geom_{id} .
       osm:geom_{id} geo:asWKT {geom}^^geo:wktLiteral .
source parks
"#;

    fn source(n: usize) -> TabularSource {
        let rows = (0..n)
            .map(|i| {
                let mut r = Row::new();
                r.insert("id".into(), Value::Number(i as f64));
                r.insert("name".into(), Value::Text(format!("park {i}")));
                r.insert(
                    "geom".into(),
                    Value::Geometry(applab_geo::Geometry::point(i as f64, i as f64)),
                );
                r
            })
            .collect();
        TabularSource {
            name: "parks".into(),
            rows,
        }
    }

    #[test]
    fn sequential_processing() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        let g = process(mapping, &source(10));
        assert_eq!(g.len(), 40);
    }

    /// Every triple of every row, template by template, duplicates kept.
    fn expanded(mapping: &Mapping, src: &TabularSource) -> Vec<Triple> {
        src.rows
            .iter()
            .flat_map(|row| mapping.target.iter().filter_map(|t| t.expand(row)))
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        for rows in [
            0,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            5 * CHUNK_ROWS + 3,
        ] {
            let src = source(rows);
            let seq = process(mapping, &src);
            assert_eq!(seq.len(), 4 * rows);
            assert!(seq.iter().eq(expanded(mapping, &src).iter()), "rows={rows}");
            for workers in [1, 2, 4, 8] {
                let par = process_parallel(mapping, &src, workers);
                assert!(
                    par.iter().eq(seq.iter()),
                    "rows={rows} workers={workers}: not the sequential order"
                );
            }
        }
    }

    #[test]
    fn the_stream_keeps_duplicates_in_row_order() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        let mut src = source(2 * CHUNK_ROWS + 5);
        let again = src.rows.clone();
        src.rows.extend(again);
        let want = expanded(mapping, &src);
        for workers in [1, 3] {
            let mut got = Vec::new();
            for_each_triple(mapping, &src, workers, |t| got.push(t));
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn placeholder_free_terms_are_built_once() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        let compiled = Compiled::new(mapping);
        let fixed: Vec<[bool; 3]> = compiled
            .templates
            .iter()
            .map(|slots| slots.each_ref().map(|s| matches!(s, Slot::Fixed(_))))
            .collect();
        // `a osm:PointOfInterest` is fixed in predicate and object; every
        // other predicate is fixed; subjects and the other objects are not.
        assert_eq!(
            fixed,
            [
                [false, true, true],
                [false, true, false],
                [false, true, false],
                [false, true, false]
            ]
        );
    }

    #[test]
    fn a_panicking_sink_stops_the_workers() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        let src = source(8 * CHUNK_ROWS);
        let mut seen = 0;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_triple(mapping, &src, 4, |_| {
                seen += 1;
                assert!(seen < 10, "sink gives up");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(seen, 10);
    }

    #[test]
    fn csv_to_rdf_end_to_end() {
        let csv = "id,name,geom\n1,Bois de Boulogne,\"POLYGON ((2.21 48.85, 2.27 48.85, 2.27 48.88, 2.21 48.85))\"\n2,Parc Monceau,POINT (2.30 48.87)\n";
        let src = read_csv("parks", csv).unwrap();
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        let g = process(mapping, &src);
        assert_eq!(g.len(), 8);
        // Round-trip through N-Triples.
        let nt = applab_rdf::ntriples::write_ntriples(&g);
        let back = applab_rdf::ntriples::parse_ntriples(&nt).unwrap();
        assert_eq!(back.len(), g.len());
    }

    #[test]
    fn process_all_merges() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        let a = source(3);
        let g = process_all(&[(mapping, &a), (mapping, &a)]);
        // Same rows twice → deduplicated.
        assert_eq!(g.len(), 12);
    }

    #[test]
    fn empty_source() {
        let mapping = &parse_mappings(MAPPING).unwrap()[0];
        assert!(process(mapping, &source(0)).is_empty());
        assert!(process_parallel(mapping, &source(0), 4).is_empty());
    }
}
