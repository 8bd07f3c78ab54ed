//! Oracle-free metamorphic checks.
//!
//! Each check derives a transformed query whose answer has a *known
//! relationship* to the original's — equality under pattern reordering and
//! FILTER-conjunct splitting, containment under LIMIT and under bbox
//! shrinking — and verifies the relationship on the hash-join pipeline.
//! No second engine is needed, so these catch bugs that all engines share
//! (e.g. a join planner that drops a pattern regardless of entry point).

use crate::canon::is_multiset_subset;
use crate::gen::{Conjunct, Elem, QueryIr, SpatialFunc};
use crate::harness::Harness;

/// Outcome of the metamorphic suite for one case: the names of the checks
/// that ran, or the first violated invariant.
pub fn check_all(h: &Harness, ir: &QueryIr) -> Result<Vec<&'static str>, String> {
    let mut ran = Vec::new();
    if let Some(v) = check_reorder(h, ir)? {
        return Err(v);
    } else if applicable_reorder(ir) {
        ran.push("reorder");
    }
    if let Some(v) = check_filter_split(h, ir)? {
        return Err(v);
    } else if applicable_filter_split(ir) {
        ran.push("filter_split");
    }
    if let Some(v) = check_limit_monotonic(h, ir)? {
        return Err(v);
    } else if ir.slice_mode() {
        ran.push("limit_monotonic");
    }
    if let Some(v) = check_bbox_shrink(h, ir)? {
        return Err(v);
    } else if bbox_target(ir).is_some() && applicable_bbox(ir) {
        ran.push("bbox_shrink");
    }
    if let Some(v) = check_adversarial_order(h, ir)? {
        return Err(v);
    } else if applicable_reorder(ir) {
        ran.push("adversarial_order");
    }
    Ok(ran)
}

fn applicable_reorder(ir: &QueryIr) -> bool {
    // A LIMIT without a total ORDER BY makes the returned slice
    // legitimately plan-dependent.
    !ir.slice_mode() && ir.body.len() > 1
}

/// Reverse contiguous runs of triples (and the conjunct order inside each
/// FILTER): a pure join-order permutation with identical semantics.
fn reordered(ir: &QueryIr) -> QueryIr {
    let mut out = ir.clone();
    let mut result: Vec<Elem> = Vec::new();
    let mut run: Vec<Elem> = Vec::new();
    for e in out.body.drain(..) {
        match e {
            Elem::Triple(..) => run.push(e),
            other => {
                run.reverse();
                result.append(&mut run);
                let other = match other {
                    Elem::Filter(mut cs) => {
                        cs.reverse();
                        Elem::Filter(cs)
                    }
                    o => o,
                };
                result.push(other);
            }
        }
    }
    run.reverse();
    result.append(&mut run);
    out.body = result;
    out
}

fn check_reorder(h: &Harness, ir: &QueryIr) -> Result<Option<String>, String> {
    if !applicable_reorder(ir) {
        return Ok(None);
    }
    let variant = reordered(ir);
    if variant == *ir {
        return Ok(None);
    }
    let a = h.eval_pipeline(&ir.render());
    let b = h.eval_pipeline(&variant.render());
    match (a, b) {
        (Ok(x), Ok(y)) if x == y => Ok(None),
        (Ok(_), Ok(_)) => Ok(Some(format!(
            "reorder changed the answer\noriginal: {}\nreordered: {}",
            ir.render(),
            variant.render()
        ))),
        // Evaluation errors must also be order-insensitive.
        (Err(_), Err(_)) => Ok(None),
        (a, b) => Ok(Some(format!(
            "reorder flipped success/failure: {a:?} vs {b:?}\n{}",
            ir.render()
        ))),
    }
}

fn applicable_filter_split(ir: &QueryIr) -> bool {
    !ir.slice_mode()
        && ir
            .body
            .iter()
            .any(|e| matches!(e, Elem::Filter(cs) if cs.len() >= 2))
}

/// `FILTER(a && b)` ≡ `FILTER(b) FILTER(a)` under SPARQL group semantics.
fn split_filters(ir: &QueryIr) -> QueryIr {
    let mut out = ir.clone();
    let mut body = Vec::new();
    for e in out.body.drain(..) {
        match e {
            Elem::Filter(cs) if cs.len() >= 2 => {
                for c in cs.into_iter().rev() {
                    body.push(Elem::Filter(vec![c]));
                }
            }
            other => body.push(other),
        }
    }
    out.body = body;
    out
}

fn check_filter_split(h: &Harness, ir: &QueryIr) -> Result<Option<String>, String> {
    if !applicable_filter_split(ir) {
        return Ok(None);
    }
    let variant = split_filters(ir);
    let a = h.eval_pipeline(&ir.render());
    let b = h.eval_pipeline(&variant.render());
    match (a, b) {
        (Ok(x), Ok(y)) if x == y => Ok(None),
        (Err(_), Err(_)) => Ok(None),
        (Ok(_), Ok(_)) | (Ok(_), Err(_)) | (Err(_), Ok(_)) => Ok(Some(format!(
            "filter-conjunct splitting changed the answer\noriginal: {}\nsplit: {}",
            ir.render(),
            variant.render()
        ))),
    }
}

/// `LIMIT n [OFFSET k]` must return exactly `min(n, full - k)` rows, all
/// of them drawn from the unlimited answer.
fn check_limit_monotonic(h: &Harness, ir: &QueryIr) -> Result<Option<String>, String> {
    if !ir.slice_mode() {
        return Ok(None);
    }
    let mut unlimited = ir.clone();
    unlimited.limit = None;
    unlimited.offset = 0;
    let (sliced, full) = match (
        h.eval_pipeline(&ir.render()),
        h.eval_pipeline(&unlimited.render()),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(_), Err(_)) => return Ok(None),
        (a, b) => {
            return Ok(Some(format!(
                "removing LIMIT flipped success/failure: {a:?} vs {b:?}\n{}",
                ir.render()
            )))
        }
    };
    let expected = ir
        .limit
        .unwrap_or(usize::MAX)
        .min(full.len().saturating_sub(ir.offset));
    if sliced.len() != expected {
        return Ok(Some(format!(
            "LIMIT produced {} rows, expected {expected} of {}\n{}",
            sliced.len(),
            full.len(),
            ir.render()
        )));
    }
    if !is_multiset_subset(&sliced, &full) {
        return Ok(Some(format!(
            "LIMIT slice is not a subset of the unlimited answer\n{}",
            ir.render()
        )));
    }
    Ok(None)
}

/// The first top-level spatial-box conjunct, if any.
fn bbox_target(ir: &QueryIr) -> Option<(usize, usize, SpatialFunc)> {
    for (i, e) in ir.body.iter().enumerate() {
        if let Elem::Filter(cs) = e {
            for (j, c) in cs.iter().enumerate() {
                if let Conjunct::SpatialBox { func, .. } = c {
                    return Some((i, j, *func));
                }
            }
        }
    }
    None
}

fn applicable_bbox(ir: &QueryIr) -> bool {
    // OPTIONAL makes the result non-monotone in the filter (a row removed
    // from the right side resurfaces its left row with unbound columns),
    // aggregates fold cardinality changes into values, ASK folds them
    // into one bit, and slices are plan-dependent.
    !ir.slice_mode()
        && !ir.ask
        && !ir.has_aggregates()
        && !ir.body.iter().any(|e| matches!(e, Elem::Optional(_)))
}

/// Shrink the envelope by half toward its center.
fn shrink_bbox(b: &[f64; 4]) -> [f64; 4] {
    let [x1, y1, x2, y2] = *b;
    let (cx, cy) = ((x1 + x2) / 2.0, (y1 + y2) / 2.0);
    [
        cx - (x2 - x1) / 4.0,
        cy - (y2 - y1) / 4.0,
        cx + (x2 - x1) / 4.0,
        cy + (y2 - y1) / 4.0,
    ]
}

fn check_bbox_shrink(h: &Harness, ir: &QueryIr) -> Result<Option<String>, String> {
    let Some((ei, cj, func)) = bbox_target(ir) else {
        return Ok(None);
    };
    if !applicable_bbox(ir) {
        return Ok(None);
    }
    let mut variant = ir.clone();
    if let Elem::Filter(cs) = &mut variant.body[ei] {
        if let Conjunct::SpatialBox { bbox, .. } = &mut cs[cj] {
            *bbox = shrink_bbox(bbox);
        }
    }
    let (orig, shrunk) = match (
        h.eval_pipeline(&ir.render()),
        h.eval_pipeline(&variant.render()),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Ok(None),
    };
    // Strengthening one conjunct of a conjunction shrinks the pass set —
    // except for sfContains(?w, box), where a smaller box is *easier* to
    // contain, so the containment direction flips.
    let holds = match func {
        SpatialFunc::Intersects | SpatialFunc::Within => is_multiset_subset(&shrunk, &orig),
        SpatialFunc::Contains => is_multiset_subset(&orig, &shrunk),
    };
    if holds {
        Ok(None)
    } else {
        Ok(Some(format!(
            "bbox-shrink containment violated for {}: {} rows vs {} rows\noriginal: {}\nshrunk: {}",
            func.geof_name(),
            orig.len(),
            shrunk.len(),
            ir.render(),
            variant.render()
        )))
    }
}

/// Sort each contiguous triple run largest-scan-first: fewer constant
/// positions → bigger scan, with all-variable patterns leading. This is
/// the written order a cost-naive author would be punished for.
fn adversarial_order(ir: &QueryIr) -> QueryIr {
    let weight = |e: &Elem| -> usize {
        match e {
            Elem::Triple(s, p, o) => [s, p, o].iter().filter(|t| !t.starts_with('?')).count(),
            _ => 3,
        }
    };
    let mut out = ir.clone();
    let mut result: Vec<Elem> = Vec::new();
    let mut run: Vec<Elem> = Vec::new();
    for e in out.body.drain(..) {
        match e {
            Elem::Triple(..) => run.push(e),
            other => {
                run.sort_by_key(&weight);
                result.append(&mut run);
                result.push(other);
            }
        }
    }
    run.sort_by_key(&weight);
    result.append(&mut run);
    out.body = result;
    out
}

/// The planner must be written-order independent: the adversarial order
/// (largest pattern first) must produce the same plan fingerprint as the
/// original, and planned evaluation of both must return the same answer
/// as the nested-loop reference evaluator.
pub fn check_adversarial_order(h: &Harness, ir: &QueryIr) -> Result<Option<String>, String> {
    if !applicable_reorder(ir) {
        return Ok(None);
    }
    let variant = adversarial_order(ir);
    if variant == *ir {
        return Ok(None);
    }
    if let Some(stats) = applab_sparql::GraphSource::stats(&h.engines.store) {
        let parse =
            |text: &str| applab_sparql::parse_query(text).map_err(|e| format!("parse: {e}"));
        let qa = parse(&ir.render())?;
        let qb = parse(&variant.render())?;
        let fa = applab_sparql::plan::query_fingerprint(stats, &qa.pattern);
        let fb = applab_sparql::plan::query_fingerprint(stats, &qb.pattern);
        if fa != fb {
            return Ok(Some(format!(
                "plan fingerprint depends on written order: {fa:016x} vs {fb:016x}\noriginal: {}\nadversarial: {}",
                ir.render(),
                variant.render()
            )));
        }
    }
    let oracle = h.eval_reference(&ir.render());
    let a = h.eval_pipeline(&ir.render());
    let b = h.eval_pipeline(&variant.render());
    match (oracle, a, b) {
        (Ok(o), Ok(x), Ok(y)) if o == x && x == y => Ok(None),
        (Err(_), Err(_), Err(_)) => Ok(None),
        (o, x, y) => Ok(Some(format!(
            "planned evaluation depends on written order or diverged from the oracle\n\
             oracle: {o:?}\nplanned original: {x:?}\nplanned adversarial: {y:?}\n\
             original: {}\nadversarial: {}",
            ir.render(),
            variant.render()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::gen::{case_seed, generate};

    #[test]
    fn metamorphic_suite_holds_on_generated_cases() {
        let spec = DatasetSpec::small(2);
        let h = Harness::new(spec.clone()).unwrap();
        let mut ran = std::collections::BTreeSet::new();
        for i in 0..60 {
            let ir = generate(case_seed(2, i), &spec);
            match check_all(&h, &ir) {
                Ok(names) => ran.extend(names),
                Err(v) => panic!("case {i} violated a metamorphic invariant: {v}"),
            }
        }
        // The 60-case slice must actually exercise the transformations.
        assert!(ran.contains("reorder"), "reorder never ran: {ran:?}");
        assert!(
            ran.contains("limit_monotonic"),
            "limit_monotonic never ran: {ran:?}"
        );
        assert!(
            ran.contains("adversarial_order"),
            "adversarial_order never ran: {ran:?}"
        );
    }

    #[test]
    fn adversarial_order_puts_widest_pattern_first() {
        let ir = QueryIr {
            ask: false,
            distinct: false,
            select: Vec::new(),
            body: vec![
                Elem::Triple("?s".into(), "osm:poiType".into(), "osm:park".into()),
                Elem::Triple("?s".into(), "?p".into(), "?o".into()),
                Elem::Triple("?s".into(), "osm:hasName".into(), "?n".into()),
            ],
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: 0,
        };
        let adv = adversarial_order(&ir);
        assert_eq!(
            adv.body[0],
            Elem::Triple("?s".into(), "?p".into(), "?o".into()),
            "the all-variable pattern must lead"
        );
        assert_eq!(
            adv.body[2],
            Elem::Triple("?s".into(), "osm:poiType".into(), "osm:park".into()),
            "the most-constant pattern must trail"
        );
    }

    #[test]
    fn bbox_shrink_helper_halves_the_envelope() {
        let b = shrink_bbox(&[0.0, 0.0, 4.0, 2.0]);
        assert_eq!(b, [1.0, 0.5, 3.0, 1.5]);
    }
}
