//! The Strabon-like spatiotemporal RDF store.

use crate::dict::Dictionary;
use applab_geo::{Envelope, Geometry, RTree};
use applab_rdf::{Graph, Literal, NamedNode, Resource, Term, Triple};
use applab_sparql::{GraphSource, IdAccess, IdColumns};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

type Ids = (u64, u64, u64);

/// One triple's dictionary ids, narrowed to `u32`, in some permutation's
/// order.
type Key = [u32; 3];

/// Fx-style multiplicative hash over dictionary ids for the geometry table
/// and the pending key set — the vectorized evaluator hits the former once
/// per projected row and every insert probes the latter, where SipHash is
/// measurable overhead. The ids are dense and assigned by the store, so no
/// input can choose colliding keys.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u32::from_le_bytes(word).into());
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(26) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A permutation's key is the `[s, p, o]` triple rotated left by its
/// order, so the positions a scan binds lead the key.
const SPO: usize = 0;
const POS: usize = 1;
const OSP: usize = 2;

fn rotated<T>(mut ids: [T; 3], by: usize) -> [T; 3] {
    ids.rotate_left(by);
    ids
}

/// A dictionary-encoded triple store with SPO/POS/OSP permutation indexes,
/// an R-tree over geometry literals and a sorted valid-time index.
///
/// Loading is insert-then-seal: [`insert`](Self::insert) records a new
/// triple in a transient pending set, and [`finish_load`](Self::finish_load)
/// merges the pending keys into the three sorted permutation arrays,
/// sorts the valid-time index and collects the planner statistics. Every
/// scan sees every inserted triple, sealed or not; the temporal pushdown
/// and the statistics wait for the seal.
#[derive(Debug, Default)]
pub struct SpatioTemporalStore {
    dict: Dictionary,
    /// The sealed permutations, sorted and deduplicated: `perms[r]` holds
    /// every sealed triple rotated left by `r` ([`SPO`], [`POS`], [`OSP`]).
    perms: [Vec<Key>; 3],
    /// SPO keys inserted since the last seal (disjoint from `perms[SPO]`).
    pending: HashSet<Key, BuildHasherDefault<IdHasher>>,
    /// (envelope, (s, p, o)) for every triple whose object is a WKT literal.
    spatial: RTree<Key>,
    /// Parsed geometry (with envelope) keyed by the object id of every WKT
    /// literal — the insert path parses the WKT anyway to index it, so the
    /// parse is kept and served through [`IdAccess::geometry`] instead of
    /// being re-done per query.
    geometries: IdMap<(Geometry, Envelope)>,
    /// (epoch seconds, (s, p, o)) for every triple whose object is a
    /// dateTime literal, sorted by time once sealed.
    temporal: Vec<(i64, Key)>,
    /// Seal-time planner statistics, rebuilt by [`Self::finish_load`].
    stats: Option<applab_sparql::plan::Stats>,
}

/// A dictionary id as a key component. Ids are dense, so this fails only
/// past 2^32 distinct terms.
fn narrow(id: u64) -> u32 {
    u32::try_from(id).expect("more than u32::MAX distinct terms")
}

fn widen([s, p, o]: Key) -> Ids {
    (s.into(), p.into(), o.into())
}

/// Merge the sorted `run` into the sorted `sealed`, back to front in place,
/// so the sealed part is neither copied nor re-sorted. The two are
/// disjoint.
fn merge_into(sealed: &mut Vec<Key>, run: &[Key]) {
    let (mut i, mut j) = (sealed.len(), run.len());
    sealed.reserve_exact(j);
    sealed.resize(i + j, [0; 3]);
    while j > 0 {
        if i > 0 && sealed[i - 1] > run[j - 1] {
            sealed[i + j - 1] = sealed[i - 1];
            i -= 1;
        } else {
            sealed[i + j - 1] = run[j - 1];
            j -= 1;
        }
    }
}

impl SpatioTemporalStore {
    pub fn new() -> Self {
        SpatioTemporalStore::default()
    }

    /// Bulk load a graph: every triple through [`insert`](Self::insert),
    /// then one [`finish_load`](Self::finish_load).
    pub fn from_graph(graph: &Graph) -> Self {
        let mut store = SpatioTemporalStore::new();
        for t in graph.iter() {
            store.insert(t.clone());
        }
        store.finish_load();
        store
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.perms[SPO].len() + self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert one triple. Returns `false` if it was already present. A new
    /// triple is pending until the next [`finish_load`](Self::finish_load).
    pub fn insert(&mut self, triple: Triple) -> bool {
        let s = narrow(self.dict.encode(&Term::from(triple.subject)));
        let p = narrow(self.dict.encode(&Term::Named(triple.predicate)));
        let o = narrow(self.dict.encode(&triple.object));
        let key = [s, p, o];
        if self.perms[SPO].binary_search(&key).is_ok() || !self.pending.insert(key) {
            return false;
        }
        if let Term::Literal(lit) = &triple.object {
            if let Some(g) = lit.as_geometry() {
                let env = g.envelope();
                self.spatial.insert(env, key);
                self.geometries.entry(o.into()).or_insert((g, env));
            } else if let Some(t) = lit.as_datetime() {
                self.temporal.push((t, key));
            }
        }
        true
    }

    /// Seal a load: merge the pending keys into the three permutations
    /// (one sort per permutation of the pending keys only), sort the
    /// valid-time index, and collect the seal-time planner statistics
    /// ([`applab_sparql::plan::Stats`]).
    pub fn finish_load(&mut self) {
        let pending: Vec<Key> = std::mem::take(&mut self.pending).into_iter().collect();
        let mut run = Vec::with_capacity(pending.len());
        for (order, sealed) in self.perms.iter_mut().enumerate() {
            run.clear();
            run.extend(pending.iter().map(|&k| rotated(k, order)));
            run.sort_unstable();
            merge_into(sealed, &run);
        }
        self.temporal.sort_by_key(|(t, _)| *t);
        self.stats = Some(self.collect_stats());
        applab_obs::gauge!("applab_store_triples").set(self.len() as i64);
        applab_obs::gauge!("applab_store_dict_terms").set(self.dict.len() as i64);
        applab_obs::gauge!("applab_store_spatial_index_entries").set(self.spatial.len() as i64);
        applab_obs::gauge!("applab_store_temporal_index_entries").set(self.temporal.len() as i64);
    }

    /// One pass over the POS and SPO permutations: per-predicate triple
    /// counts and distinct subject/object counts (exact — the indexes are
    /// sorted, so distinct counts are run-length counts, no hashing), plus
    /// the spatial/temporal index sketches.
    fn collect_stats(&self) -> applab_sparql::plan::Stats {
        use applab_sparql::plan::{PredicateStats, SpatialSketch, Stats, TemporalSketch};
        let mut stats = Stats {
            total_triples: self.len() as u64,
            ..Stats::default()
        };
        // POS is sorted by (p, o, s): triples per predicate and distinct
        // objects per predicate fall out of run boundaries.
        let mut by_id: HashMap<u32, PredicateStats> = HashMap::new();
        let mut prev: Option<(u32, u32)> = None;
        for &[p, o, _] in &self.perms[POS] {
            let entry = by_id.entry(p).or_default();
            entry.triples += 1;
            if prev != Some((p, o)) {
                entry.distinct_objects += 1;
                prev = Some((p, o));
            }
        }
        // SPO is sorted by (s, p, o): distinct subjects per predicate are
        // distinct (s, p) prefixes.
        let mut prev_sp: Option<(u32, u32)> = None;
        for &[s, p, _] in &self.perms[SPO] {
            if prev_sp != Some((s, p)) {
                by_id.entry(p).or_default().distinct_subjects += 1;
                prev_sp = Some((s, p));
            }
        }
        for (p, ps) in by_id {
            if let Term::Named(n) = self.dict.decode(p.into()) {
                stats.predicates.insert(n.as_str().to_string(), ps);
            }
        }
        let mut bounds = Envelope::EMPTY;
        for (_, env) in self.geometries.values() {
            bounds.expand(env);
        }
        stats.spatial = SpatialSketch {
            entries: self.spatial.len() as u64,
            bounds: (!bounds.is_empty()).then_some(bounds),
        };
        stats.temporal = TemporalSketch {
            entries: self.temporal.len() as u64,
            min: self.temporal.first().map(|(t, _)| *t).unwrap_or(0),
            max: self.temporal.last().map(|(t, _)| *t).unwrap_or(0),
        };
        stats
    }

    fn decode_triples(&self, hits: impl IntoIterator<Item = Ids>) -> Vec<Triple> {
        let decode = |(s, p, o): Ids| {
            let subject = match self.dict.decode(s) {
                Term::Named(n) => Resource::Named(n.clone()),
                Term::Blank(b) => Resource::Blank(b.clone()),
                Term::Literal(_) => unreachable!("literal subject was never inserted"),
            };
            let predicate = match self.dict.decode(p) {
                Term::Named(n) => n.clone(),
                _ => unreachable!("non-IRI predicate was never inserted"),
            };
            Triple::new(subject, predicate, self.dict.decode(o).clone())
        };
        hits.into_iter().map(decode).collect()
    }

    fn encode_lookup(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        object: Option<&Term>,
    ) -> Option<(Option<u64>, Option<u64>, Option<u64>)> {
        let s = match subject {
            Some(r) => Some(self.dict.get(&Term::from(r.clone()))?),
            None => None,
        };
        let p = match predicate {
            Some(n) => Some(self.dict.get(&Term::Named(n.clone()))?),
            None => None,
        };
        let o = match object {
            Some(t) => Some(self.dict.get(t)?),
            None => None,
        };
        Some((s, p, o))
    }
}

impl GraphSource for SpatioTemporalStore {
    fn triples_matching(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let Some((s, p, o)) = self.encode_lookup(subject, predicate, object) else {
            return Vec::new(); // an explicit term is not in the dictionary
        };
        let mut cols = IdColumns::default();
        self.scan_ids_columns(s, p, o, &mut cols);
        let IdColumns { s, p, o } = cols;
        self.decode_triples(s.into_iter().zip(p).zip(o).map(|((s, p), o)| (s, p, o)))
    }

    fn triples_matching_spatial(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        envelope: &Envelope,
    ) -> Option<Vec<Triple>> {
        let (s, p, _) = self.encode_lookup(subject, predicate, None)?;
        Some(self.decode_triples(self.scan_ids_spatial(s, p, envelope)?))
    }

    fn triples_matching_temporal(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        start: i64,
        end: i64,
    ) -> Option<Vec<Triple>> {
        let (s, p, _) = self.encode_lookup(subject, predicate, None)?;
        Some(self.decode_triples(self.scan_ids_temporal(s, p, start, end)?))
    }

    fn stats(&self) -> Option<&applab_sparql::plan::Stats> {
        self.stats.as_ref()
    }

    fn id_access(&self) -> Option<&dyn IdAccess> {
        Some(self)
    }
}

impl IdAccess for SpatioTemporalStore {
    fn term_to_id(&self, term: &Term) -> Option<u64> {
        self.dict.get(term)
    }

    fn id_to_term(&self, id: u64) -> Option<&Term> {
        self.dict.try_decode(id)
    }

    fn id_count(&self) -> u64 {
        self.dict.len() as u64
    }

    /// Columnar scan: take the run of the permutation whose key leads with
    /// the bound positions and append it straight into the match columns,
    /// in key order — no intermediate triple vector.
    fn scan_ids_columns(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
        out: &mut IdColumns,
    ) {
        applab_obs::counter!("applab_store_scans_total").inc();
        let fit = |id: Option<u64>| id.map(u32::try_from).transpose();
        let (Ok(s), Ok(p), Ok(o)) = (fit(s), fit(p), fit(o)) else {
            return; // an id past the u32 range was never inserted
        };
        let order = match (s, p, o) {
            (Some(_), _, None) | (Some(_), Some(_), Some(_)) | (None, None, None) => SPO,
            (None, Some(_), _) => POS,
            (_, None, Some(_)) => OSP,
        };
        let sealed = &self.perms[order];
        // Full-key bounds of the run: `[a, 0, 0]..=[a, MAX, MAX]` for one
        // bound position, `[a, b, 0]..=[a, b, MAX]` for two.
        let bound = rotated([s, p, o], order);
        let lo = bound.map(|id| id.unwrap_or(0));
        let hi = bound.map(|id| id.unwrap_or(u32::MAX));
        let mut run =
            &sealed[sealed.partition_point(|k| *k < lo)..sealed.partition_point(|k| *k <= hi)];
        // Keys not yet sealed join the run in key order.
        let mut merged: Vec<Key> = self
            .pending
            .iter()
            .map(|&k| rotated(k, order))
            .filter(|k| (lo..=hi).contains(k))
            .collect();
        if !merged.is_empty() {
            merged.extend_from_slice(run);
            merged.sort_unstable();
            run = &merged;
        }
        out.reserve(run.len());
        for &k in run {
            let (s, p, o) = widen(rotated(k, 3 - order));
            out.push(s, p, o);
        }
    }

    fn geometry(&self, id: u64) -> Option<&(Geometry, Envelope)> {
        self.geometries.get(&id)
    }

    fn scan_ids_spatial(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        envelope: &Envelope,
    ) -> Option<Vec<Ids>> {
        applab_obs::counter!("applab_store_spatial_pushdown_total").inc();
        applab_obs::querystats::pushdown();
        let mut out = Vec::new();
        self.spatial.visit(envelope, &mut |&key| {
            let (ts, tp, to) = widen(key);
            if s.is_none_or(|s| s == ts) && p.is_none_or(|p| p == tp) {
                out.push((ts, tp, to));
            }
        });
        Some(out)
    }

    fn scan_ids_temporal(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        start: i64,
        end: i64,
    ) -> Option<Vec<Ids>> {
        if !self.pending.is_empty() {
            return None; // mid-load, the time index is unsorted: decline rather than answer wrongly
        }
        applab_obs::counter!("applab_store_temporal_pushdown_total").inc();
        applab_obs::querystats::pushdown();
        let lo = self.temporal.partition_point(|(t, _)| *t < start);
        let mut out = Vec::new();
        for &(t, key) in &self.temporal[lo..] {
            if t > end {
                break;
            }
            let (ts, tp, to) = widen(key);
            if s.is_none_or(|s| s == ts) && p.is_none_or(|p| p == tp) {
                out.push((ts, tp, to));
            }
        }
        Some(out)
    }
}

/// Helper: load N-Triples/Turtle text straight into a store.
pub fn load_turtle(text: &str) -> Result<SpatioTemporalStore, applab_rdf::turtle::TurtleError> {
    Ok(SpatioTemporalStore::from_graph(
        &applab_rdf::turtle::parse_turtle(text)?,
    ))
}

/// Convenience: build a LAI observation entity (the shape Listing 2's
/// mapping produces) directly into a graph. Used by tests.
pub fn lai_observation(graph: &mut Graph, id: &str, lai: f64, timestamp: i64, wkt: &str) {
    use applab_rdf::vocab;
    let obs = Resource::named(format!("{}{id}", vocab::lai::NS));
    let geom = Resource::named(format!("{}{id}/geom", vocab::lai::NS));
    graph.add(
        obs.clone(),
        NamedNode::new(vocab::rdf::TYPE),
        Term::named(vocab::lai::OBSERVATION),
    );
    graph.add(
        obs.clone(),
        NamedNode::new(vocab::lai::HAS_LAI),
        Literal::float(lai),
    );
    graph.add(
        obs.clone(),
        NamedNode::new(vocab::time::HAS_TIME),
        Literal::datetime(timestamp),
    );
    graph.add(
        obs,
        NamedNode::new(vocab::geo::HAS_GEOMETRY),
        Term::Named(match geom.clone() {
            Resource::Named(n) => n,
            _ => unreachable!(),
        }),
    );
    graph.add(geom, NamedNode::new(vocab::geo::AS_WKT), Literal::wkt(wkt));
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_rdf::vocab;

    fn grid_store(n: usize) -> SpatioTemporalStore {
        // n×n LAI observations on a grid, one per day.
        let mut g = Graph::new();
        for i in 0..n {
            for j in 0..n {
                let id = format!("obs_{i}_{j}");
                lai_observation(
                    &mut g,
                    &id,
                    (i + j) as f64 / 10.0,
                    (i * n + j) as i64 * 86_400,
                    &format!("POINT ({} {})", i as f64 / 10.0, j as f64 / 10.0),
                );
            }
        }
        SpatioTemporalStore::from_graph(&g)
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut store = SpatioTemporalStore::new();
        let t = Triple::new(
            Resource::named("http://ex.org/a"),
            NamedNode::new(vocab::rdfs::LABEL),
            Literal::string("x"),
        );
        assert!(store.insert(t.clone()));
        assert!(!store.insert(t));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn matches_equal_graph_scan() {
        let store = grid_store(5);
        assert_eq!(store.len(), 5 * 5 * 5); // 5 triples per observation
                                            // Predicate scan.
        let lai_pred = NamedNode::new(vocab::lai::HAS_LAI);
        let r = store.triples_matching(None, Some(&lai_pred), None);
        assert_eq!(r.len(), 25);
        // Subject scan.
        // 4 triples have the observation itself as subject (the fifth's
        // subject is its geometry node).
        let s = Resource::named(format!("{}obs_0_0", vocab::lai::NS));
        assert_eq!(store.triples_matching(Some(&s), None, None).len(), 4);
        // Fully bound hit and miss.
        let hit =
            store.triples_matching(Some(&s), Some(&lai_pred), Some(&Literal::float(0.0).into()));
        assert_eq!(hit.len(), 1);
        let miss =
            store.triples_matching(Some(&s), Some(&lai_pred), Some(&Literal::float(9.9).into()));
        assert!(miss.is_empty());
        // Unknown term short-circuits.
        let unknown = Resource::named("http://ex.org/nope");
        assert!(store
            .triples_matching(Some(&unknown), None, None)
            .is_empty());
    }

    #[test]
    fn spatial_pushdown_matches_post_filter() {
        let store = grid_store(10);
        let wkt_pred = NamedNode::new(vocab::geo::AS_WKT);
        let env = Envelope::new(0.15, 0.15, 0.55, 0.55);
        let fast = store
            .triples_matching_spatial(None, Some(&wkt_pred), &env)
            .unwrap();
        let slow: Vec<Triple> = store
            .triples_matching(None, Some(&wkt_pred), None)
            .into_iter()
            .filter(|t| {
                t.object
                    .as_literal()
                    .and_then(Literal::as_geometry)
                    .map(|g| g.envelope().intersects(&env))
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(fast.len(), slow.len());
        assert!(!fast.is_empty());
        for t in &fast {
            assert!(slow.contains(t));
        }
    }

    #[test]
    fn temporal_pushdown_matches_post_filter() {
        let store = grid_store(10);
        let time_pred = NamedNode::new(vocab::time::HAS_TIME);
        let (start, end) = (10 * 86_400, 20 * 86_400);
        let fast = store
            .triples_matching_temporal(None, Some(&time_pred), start, end)
            .unwrap();
        assert_eq!(fast.len(), 11); // days 10..=20
        for t in &fast {
            let ts = t.object.as_literal().unwrap().as_datetime().unwrap();
            assert!((start..=end).contains(&ts));
        }
    }

    #[test]
    fn unsorted_temporal_index_declines() {
        let mut store = SpatioTemporalStore::new();
        let mut g = Graph::new();
        lai_observation(&mut g, "o1", 1.0, 1000, "POINT (0 0)");
        for t in g.iter() {
            store.insert(t.clone());
        }
        // No finish_load(): the index must decline rather than lie.
        let time_pred = NamedNode::new(vocab::time::HAS_TIME);
        assert!(store
            .triples_matching_temporal(None, Some(&time_pred), 0, 2000)
            .is_none());
        store.finish_load();
        assert_eq!(
            store
                .triples_matching_temporal(None, Some(&time_pred), 0, 2000)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn end_to_end_listing1_shape() {
        // A park polygon + LAI points, queried with the Listing 1 pattern.
        let mut g = Graph::new();
        let park = Resource::named("http://ex.org/park");
        let park_geom = Resource::named("http://ex.org/park/geom");
        g.add(
            park.clone(),
            NamedNode::new(vocab::osm::POI_TYPE),
            Term::named(vocab::osm::PARK),
        );
        g.add(
            park.clone(),
            NamedNode::new(vocab::osm::HAS_NAME),
            Literal::string("Bois de Boulogne"),
        );
        g.add(
            park.clone(),
            NamedNode::new(vocab::geo::HAS_GEOMETRY),
            Term::named("http://ex.org/park/geom"),
        );
        g.add(
            park_geom,
            NamedNode::new(vocab::geo::AS_WKT),
            Literal::wkt("POLYGON ((2.21 48.85, 2.27 48.85, 2.27 48.88, 2.21 48.88, 2.21 48.85))"),
        );
        lai_observation(&mut g, "in", 4.2, 0, "POINT (2.24 48.86)");
        lai_observation(&mut g, "out", 1.0, 0, "POINT (2.5 48.9)");
        let store = SpatioTemporalStore::from_graph(&g);

        let q = r#"
SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne" .
  ?areaB lai:hasLai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA, ?geoB))
}
"#;
        let r = applab_sparql::query(&store, q).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.value(0, "lai").unwrap().as_literal().unwrap().as_f64(),
            Some(4.2)
        );
    }

    #[test]
    fn seal_time_stats_are_exact_on_grid_snapshot() {
        // Golden numbers for the fixed 4×4 LAI snapshot (the
        // mini-Geographica shape): 16 observations × 5 triples.
        let store = grid_store(4);
        let stats = GraphSource::stats(&store).expect("sealed store has stats");
        assert_eq!(stats.total_triples, 80);
        let lai = stats.predicate(vocab::lai::HAS_LAI).unwrap();
        assert_eq!(lai.triples, 16);
        assert_eq!(lai.distinct_subjects, 16);
        // LAI values are (i+j)/10 over a 4×4 grid: 7 distinct sums 0..=6.
        assert_eq!(lai.distinct_objects, 7);
        let wkt = stats.predicate(vocab::geo::AS_WKT).unwrap();
        assert_eq!(wkt.triples, 16);
        assert_eq!(wkt.distinct_subjects, 16);
        assert_eq!(wkt.distinct_objects, 16);
        // rdf:type points every observation at the same class.
        let ty = stats.predicate(vocab::rdf::TYPE).unwrap();
        assert_eq!(ty.triples, 16);
        assert_eq!(ty.distinct_objects, 1);
        // Index sketches cover the full grid extent and time range.
        assert_eq!(stats.spatial.entries, 16);
        let b = stats.spatial.bounds.unwrap();
        assert_eq!((b.min_x, b.min_y, b.max_x, b.max_y), (0.0, 0.0, 0.3, 0.3));
        assert_eq!(stats.temporal.entries, 16);
        assert_eq!(stats.temporal.min, 0);
        assert_eq!(stats.temporal.max, 15 * 86_400);
    }

    #[test]
    fn join_estimates_on_grid_snapshot_are_within_bounds() {
        use applab_sparql::plan::estimate_join;
        use applab_sparql::{TermPattern, TriplePattern};
        let store = grid_store(4);
        let stats = GraphSource::stats(&store).unwrap();
        // ?obs lai:hasLai ?lai  ⋈_obs  ?obs time:hasTime ?t — key is the
        // observation subject: 16 * 16 / 16 = 16, the exact join size.
        let lai = TriplePattern::new(
            TermPattern::var("obs"),
            applab_rdf::Term::named(vocab::lai::HAS_LAI),
            TermPattern::var("lai"),
        );
        let time = TriplePattern::new(
            TermPattern::var("obs"),
            applab_rdf::Term::named(vocab::time::HAS_TIME),
            TermPattern::var("t"),
        );
        let none = |_: &str| false;
        let sp = std::collections::HashMap::new();
        let tp = std::collections::HashMap::new();
        let est_lai = stats.estimate_pattern(&lai, &none, &sp, &tp);
        let est_time = stats.estimate_pattern(&time, &none, &sp, &tp);
        let d_key = stats.distinct_at(&lai, "obs").unwrap();
        let est = estimate_join(est_lai, est_time, d_key);
        let actual = 16.0;
        assert!(
            (est - actual).abs() / actual <= 0.01,
            "join estimate {est} not within 1% of {actual}"
        );
        // A half-extent spatial constraint halves the WKT scan estimate.
        let wkt = TriplePattern::new(
            TermPattern::var("g"),
            applab_rdf::Term::named(vocab::geo::AS_WKT),
            TermPattern::var("w"),
        );
        let mut sp = std::collections::HashMap::new();
        sp.insert("w".to_string(), Envelope::new(0.0, 0.0, 0.15, 0.3));
        let est = stats.estimate_pattern(&wkt, &none, &sp, &tp);
        let actual = 8.0; // 2 of 4 columns
        assert!(
            (est - actual).abs() / actual <= 0.25,
            "spatial estimate {est} not within 25% of {actual}"
        );
    }

    #[test]
    fn planned_store_queries_match_the_reference_evaluator() {
        // The planner may reorder unsorted rows but must return the same
        // multiset — compare sorted CSV lines against the nested-loop
        // reference evaluator for the characteristic query shapes.
        let store = grid_store(6);
        let queries = [
            // Wide BGP with an adversarial written order (biggest first).
            "SELECT ?obs ?lai ?t WHERE {
               ?obs ?p ?o .
               ?obs lai:hasLai ?lai .
               ?obs time:hasTime ?t .
               FILTER(?lai > 0.5)
             }",
            // Spatial filter over a sub-extent.
            "SELECT ?obs ?w WHERE {
               ?obs geo:hasGeometry ?g .
               ?g geo:asWKT ?w .
               FILTER(geof:sfIntersects(?w, \"POLYGON ((0.05 0.05, 0.35 0.05, \
               0.35 0.35, 0.05 0.35, 0.05 0.05))\"^^geo:wktLiteral))
             }",
            // Temporal range plus a join back to the value.
            "SELECT ?obs ?lai WHERE {
               ?obs time:hasTime ?t .
               ?obs lai:hasLai ?lai .
               FILTER(?t >= \"1970-01-05T00:00:00Z\"^^xsd:dateTime)
             }",
            // Spatial self-join: the sideways-envelope path.
            "SELECT ?a ?b WHERE {
               ?a geo:asWKT ?wa .
               ?b geo:asWKT ?wb .
               FILTER(geof:sfEquals(?wa, ?wb))
             }",
        ];
        for q in queries {
            let parsed = applab_sparql::parse_query(q).unwrap();
            let oracle = applab_sparql::reference::evaluate(&store, &parsed).unwrap();
            let planned = applab_sparql::evaluate_with(
                &store,
                &parsed,
                &applab_sparql::EvalOptions::default(),
            )
            .unwrap();
            let (csv_a, csv_b) = (oracle.to_csv(), planned.to_csv());
            let mut a: Vec<&str> = csv_a.lines().collect();
            let mut b: Vec<&str> = csv_b.lines().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert!(!oracle.is_empty(), "oracle empty for {q}");
            assert_eq!(a, b, "planner diverged on {q}");
        }
    }

    #[test]
    fn load_turtle_roundtrip() {
        let store = load_turtle(
            r#"@prefix osm: <http://www.app-lab.eu/osm/> .
               <http://ex.org/a> osm:hasName "X" ."#,
        )
        .unwrap();
        assert_eq!(store.len(), 1);
        assert!(load_turtle("garbage {{{").is_err());
    }
}
