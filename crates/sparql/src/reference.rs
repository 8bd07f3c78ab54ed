//! The reference evaluator: the original nested-loop implementation.
//!
//! [`evaluate`](crate::eval::evaluate) was rewritten as a dictionary-encoded
//! hash-join pipeline; this module keeps the previous binding-at-a-time
//! evaluator intact. It serves two purposes:
//!
//! * **Oracle** — the property tests in `tests/pipeline_equivalence.rs`
//!   check that the pipeline returns exactly the same solution multiset on
//!   randomized queries;
//! * **Baseline** — the cost ledger (`tests/ledger.rs`) counts what the
//!   pipeline saves on the Geographica query mix: its allocations must
//!   stay below this evaluator's on the NonTopological classes.
//!
//! Semantics are identical; only solution *order* may differ (OPTIONAL
//! groups matched rows differently), which SPARQL leaves unspecified absent
//! `ORDER BY`.

use crate::algebra::{
    Aggregate, Expression, GraphPattern, OrderKey, Projection, Query, QueryForm, TermPattern,
    TriplePattern,
};
use crate::eval::{spatial_constraints, temporal_constraints, EvalError};
use crate::expr::{compare_terms, eval_expr, eval_filter, Binding};
use crate::results::{QueryResults, Row};
use crate::source::GraphSource;
use applab_geo::Envelope;
use applab_rdf::{Graph, Literal, NamedNode, Resource, Term, Triple};
use std::collections::{HashMap, HashSet};

/// Evaluate a query with the original nested-loop strategy.
pub fn evaluate(source: &dyn GraphSource, query: &Query) -> Result<QueryResults, EvalError> {
    let ev = Evaluator { source };
    let bindings = ev.eval_pattern(
        &query.pattern,
        vec![Binding::new()],
        &Constraints::default(),
    );

    match &query.form {
        QueryForm::Ask => Ok(QueryResults::Boolean(!bindings.is_empty())),
        QueryForm::Construct { template } => {
            let mut g = Graph::new();
            for (i, b) in bindings.iter().enumerate() {
                for (j, t) in template.iter().enumerate() {
                    if let Some(triple) = instantiate(t, b, i, j) {
                        g.insert(triple);
                    }
                }
            }
            Ok(QueryResults::Graph(g))
        }
        QueryForm::Select {
            distinct,
            projection,
            group_by,
        } => {
            let has_aggregates = projection
                .iter()
                .any(|p| matches!(p, Projection::Aggregate(..)));
            let mut variables: Vec<String>;
            let mut rows: Vec<Row>;

            if has_aggregates || !group_by.is_empty() {
                (variables, rows) = aggregate_rows(&bindings, projection, group_by)?;
            } else if projection.is_empty() {
                // SELECT *: every variable in the pattern, in pattern order.
                variables = query.pattern.variables();
                rows = bindings
                    .iter()
                    .map(|b| Row {
                        values: variables.iter().map(|v| b.get(v).cloned()).collect(),
                    })
                    .collect();
            } else {
                variables = projection.iter().map(|p| p.name().to_string()).collect();
                rows = bindings
                    .iter()
                    .map(|b| Row {
                        values: projection
                            .iter()
                            .map(|p| match p {
                                Projection::Var(v) => b.get(v).cloned(),
                                Projection::Expr(e, _) => eval_expr(e, b).ok(),
                                Projection::Aggregate(..) => unreachable!(),
                            })
                            .collect(),
                    })
                    .collect();
            }

            if !query.order_by.is_empty() {
                sort_rows(&mut rows, &variables, &query.order_by);
            }

            if *distinct {
                let mut seen = HashSet::new();
                rows.retain(|r| {
                    let key: Vec<Option<String>> = r
                        .values
                        .iter()
                        .map(|v| v.as_ref().map(|t| t.to_string()))
                        .collect();
                    seen.insert(key)
                });
            }

            // OFFSET / LIMIT.
            let start = query.offset.min(rows.len());
            rows.drain(..start);
            if let Some(limit) = query.limit {
                rows.truncate(limit);
            }

            // Deduplicate variable list defensively.
            let mut seen = HashSet::new();
            variables.retain(|v| seen.insert(v.clone()));

            Ok(QueryResults::Solutions { variables, rows })
        }
    }
}

fn sort_rows(rows: &mut [Row], variables: &[String], keys: &[OrderKey]) {
    rows.sort_by(|a, b| {
        for key in keys {
            let ba = row_binding(a, variables);
            let bb = row_binding(b, variables);
            let va = eval_expr(&key.expr, &ba).ok();
            let vb = eval_expr(&key.expr, &bb).ok();
            let ord = match (va, vb) {
                (Some(x), Some(y)) => {
                    compare_terms(&x, &y).unwrap_or_else(|| x.to_string().cmp(&y.to_string()))
                }
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            };
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn row_binding(row: &Row, variables: &[String]) -> Binding {
    variables
        .iter()
        .zip(&row.values)
        .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
        .collect()
}

fn aggregate_rows(
    bindings: &[Binding],
    projection: &[Projection],
    group_by: &[String],
) -> Result<(Vec<String>, Vec<Row>), EvalError> {
    // Group bindings by the group-by key.
    let mut groups: Vec<(Vec<Option<Term>>, Vec<&Binding>)> = Vec::new();
    let mut index: HashMap<Vec<Option<String>>, usize> = HashMap::new();
    for b in bindings {
        let key_terms: Vec<Option<Term>> = group_by.iter().map(|v| b.get(v).cloned()).collect();
        let key_strs: Vec<Option<String>> = key_terms
            .iter()
            .map(|t| t.as_ref().map(|t| t.to_string()))
            .collect();
        let idx = *index.entry(key_strs).or_insert_with(|| {
            groups.push((key_terms.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[idx].1.push(b);
    }
    // With no GROUP BY but aggregates present, there is one global group
    // (even if empty).
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let variables: Vec<String> = projection.iter().map(|p| p.name().to_string()).collect();
    let mut rows = Vec::with_capacity(groups.len());
    for (key_terms, members) in &groups {
        let mut values = Vec::with_capacity(projection.len());
        for p in projection {
            let v = match p {
                Projection::Var(v) => match group_by.iter().position(|g| g == v) {
                    Some(i) => key_terms.get(i).cloned().flatten(),
                    None => {
                        return Err(EvalError::Other(format!(
                            "variable ?{v} is projected but neither grouped nor aggregated"
                        )))
                    }
                },
                Projection::Expr(e, _) => {
                    let b: Binding = group_by
                        .iter()
                        .zip(key_terms)
                        .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
                        .collect();
                    eval_expr(e, &b).ok()
                }
                Projection::Aggregate(agg, expr, _) => compute_aggregate(*agg, expr, members),
            };
            values.push(v);
        }
        rows.push(Row { values });
    }
    Ok((variables, rows))
}

fn compute_aggregate(
    agg: Aggregate,
    expr: &Option<Expression>,
    members: &[&Binding],
) -> Option<Term> {
    let values: Vec<Term> = match expr {
        None => return Some(Literal::integer(members.len() as i64).into()),
        Some(e) => members
            .iter()
            .filter_map(|b| eval_expr(e, b).ok())
            .collect(),
    };
    crate::eval::aggregate_values(agg, values, members.len())
}

fn instantiate(
    pattern: &TriplePattern,
    binding: &Binding,
    row: usize,
    idx: usize,
) -> Option<Triple> {
    let resolve = |tp: &TermPattern| -> Option<Term> {
        match tp {
            TermPattern::Var(v) => binding.get(v).cloned(),
            TermPattern::Term(t) => Some(t.clone()),
        }
    };
    let s = match resolve(&pattern.subject)? {
        Term::Named(n) => Resource::Named(n),
        Term::Blank(b) => Resource::Blank(b),
        Term::Literal(_) => return None,
    };
    let p = match resolve(&pattern.predicate)? {
        Term::Named(n) => n,
        _ => return None,
    };
    let o = resolve(&pattern.object).or_else(|| {
        // Unbound object in a CONSTRUCT template becomes a fresh blank node.
        Some(Term::Blank(applab_rdf::BlankNode::new(format!(
            "c{row}_{idx}"
        ))))
    })?;
    Some(Triple::new(s, p, o))
}

/// Per-variable index-pushdown constraints extracted from filters.
#[derive(Debug, Clone, Default)]
struct Constraints {
    spatial: HashMap<String, Envelope>,
    temporal: HashMap<String, (i64, i64)>,
}

struct Evaluator<'a> {
    source: &'a dyn GraphSource,
}

impl Evaluator<'_> {
    fn eval_pattern(
        &self,
        pattern: &GraphPattern,
        input: Vec<Binding>,
        constraints: &Constraints,
    ) -> Vec<Binding> {
        match pattern {
            GraphPattern::Bgp(patterns) => self.eval_bgp(patterns, input, constraints),
            GraphPattern::Filter(expr, inner) => {
                let mut merged = constraints.clone();
                for (var, env) in spatial_constraints(expr) {
                    merged
                        .spatial
                        .entry(var)
                        .and_modify(|e| *e = e.intersection(&env))
                        .or_insert(env);
                }
                for (var, (s, e)) in temporal_constraints(expr) {
                    merged
                        .temporal
                        .entry(var)
                        .and_modify(|r| *r = (r.0.max(s), r.1.min(e)))
                        .or_insert((s, e));
                }
                let inner_bindings = self.eval_pattern(inner, input, &merged);
                inner_bindings
                    .into_iter()
                    .filter(|b| eval_filter(expr, b))
                    .collect()
            }
            GraphPattern::Join(left, right) => {
                let lhs = self.eval_pattern(left, input, constraints);
                self.eval_pattern(right, lhs, constraints)
            }
            GraphPattern::LeftJoin(left, right) => {
                let lhs = self.eval_pattern(left, input, constraints);
                let mut out = Vec::with_capacity(lhs.len());
                for b in lhs {
                    let extended = self.eval_pattern(right, vec![b.clone()], constraints);
                    if extended.is_empty() {
                        out.push(b);
                    } else {
                        out.extend(extended);
                    }
                }
                out
            }
            GraphPattern::Union(left, right) => {
                let mut out = self.eval_pattern(left, input.clone(), constraints);
                out.extend(self.eval_pattern(right, input, constraints));
                out
            }
            GraphPattern::Extend(inner, var, expr) => {
                let bindings = self.eval_pattern(inner, input, constraints);
                bindings
                    .into_iter()
                    .map(|mut b| {
                        if let Ok(v) = eval_expr(expr, &b) {
                            b.insert(var.clone(), v);
                        }
                        b
                    })
                    .collect()
            }
            GraphPattern::Values(vars, rows) => {
                let mut out = Vec::new();
                for b in &input {
                    for row in rows {
                        let mut nb = b.clone();
                        let mut compatible = true;
                        for (var, val) in vars.iter().zip(row) {
                            if let Some(val) = val {
                                match nb.get(var) {
                                    Some(existing) if existing != val => {
                                        compatible = false;
                                        break;
                                    }
                                    _ => {
                                        nb.insert(var.clone(), val.clone());
                                    }
                                }
                            }
                        }
                        if compatible {
                            out.push(nb);
                        }
                    }
                }
                out
            }
        }
    }

    fn eval_bgp(
        &self,
        patterns: &[TriplePattern],
        input: Vec<Binding>,
        constraints: &Constraints,
    ) -> Vec<Binding> {
        if patterns.is_empty() {
            return input;
        }
        // OBDA fast path: let the source answer the whole BGP at once.
        // Every variable counts as observed here, so comparing against
        // this evaluator also checks the other one's pruned answers.
        if let Some(answers) = self
            .source
            .evaluate_bgp(patterns, &constraints.spatial, &|_| true)
        {
            let mut out = Vec::new();
            for left in &input {
                'answer: for right in &answers {
                    let mut merged = left.clone();
                    for (k, v) in right {
                        match merged.get(k) {
                            Some(existing) if existing != v => continue 'answer,
                            Some(_) => {}
                            None => {
                                merged.insert(k.clone(), v.clone());
                            }
                        }
                    }
                    out.push(merged);
                }
            }
            return out;
        }
        // Greedy join ordering: repeatedly pick the most selective pattern
        // given the variables bound so far.
        let mut bound: HashSet<String> = input
            .first()
            .map(|b| b.keys().cloned().collect())
            .unwrap_or_default();
        let mut remaining: Vec<&TriplePattern> = patterns.iter().collect();
        let mut ordered: Vec<&TriplePattern> = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| pattern_selectivity(p, &bound, constraints))
                .unwrap();
            let p = remaining.swap_remove(idx);
            for v in p.variables() {
                bound.insert(v.to_string());
            }
            ordered.push(p);
        }

        let mut bindings = input;
        for pattern in ordered {
            let mut next = Vec::new();
            for b in &bindings {
                self.match_pattern(pattern, b, constraints, &mut next);
            }
            bindings = next;
            if bindings.is_empty() {
                break;
            }
        }
        bindings
    }

    fn match_pattern(
        &self,
        pattern: &TriplePattern,
        binding: &Binding,
        constraints: &Constraints,
        out: &mut Vec<Binding>,
    ) {
        let subst = |tp: &TermPattern| -> Option<Term> {
            match tp {
                TermPattern::Term(t) => Some(t.clone()),
                TermPattern::Var(v) => binding.get(v).cloned(),
            }
        };
        let s_term = subst(&pattern.subject);
        let p_term = subst(&pattern.predicate);
        let o_term = subst(&pattern.object);

        // A literal in subject position can never match.
        let s_res: Option<Resource> = match &s_term {
            Some(Term::Literal(_)) => return,
            Some(t) => t.as_resource(),
            None => None,
        };
        let p_named: Option<NamedNode> = match &p_term {
            Some(Term::Named(n)) => Some(n.clone()),
            Some(_) => return,
            None => None,
        };

        // Index pushdown: the object is an unbound variable carrying an
        // envelope or time-range constraint.
        let triples = match (&o_term, pattern.object.as_var()) {
            (None, Some(var)) => {
                let spatial_hit = constraints.spatial.get(var).and_then(|env| {
                    self.source
                        .triples_matching_spatial(s_res.as_ref(), p_named.as_ref(), env)
                });
                let temporal_hit = if spatial_hit.is_none() {
                    constraints.temporal.get(var).and_then(|(start, end)| {
                        self.source.triples_matching_temporal(
                            s_res.as_ref(),
                            p_named.as_ref(),
                            *start,
                            *end,
                        )
                    })
                } else {
                    None
                };
                spatial_hit.or(temporal_hit).unwrap_or_else(|| {
                    self.source
                        .triples_matching(s_res.as_ref(), p_named.as_ref(), None)
                })
            }
            _ => self
                .source
                .triples_matching(s_res.as_ref(), p_named.as_ref(), o_term.as_ref()),
        };

        'next_triple: for t in triples {
            let mut nb = binding.clone();
            for (tp, actual) in [
                (&pattern.subject, Term::from(t.subject.clone())),
                (&pattern.predicate, Term::Named(t.predicate.clone())),
                (&pattern.object, t.object.clone()),
            ] {
                if let TermPattern::Var(v) = tp {
                    match nb.get(v) {
                        Some(existing) if *existing != actual => continue 'next_triple,
                        Some(_) => {}
                        None => {
                            nb.insert(v.clone(), actual);
                        }
                    }
                }
            }
            out.push(nb);
        }
    }
}

/// Selectivity score for greedy BGP ordering: more ground/bound positions is
/// better; a spatially constrained object is almost as good as bound.
fn pattern_selectivity(
    p: &TriplePattern,
    bound: &HashSet<String>,
    constraints: &Constraints,
) -> i32 {
    let score = |tp: &TermPattern, weight: i32| -> i32 {
        match tp {
            TermPattern::Term(_) => weight,
            TermPattern::Var(v) if bound.contains(v) => weight,
            TermPattern::Var(v)
                if constraints.spatial.contains_key(v) || constraints.temporal.contains_key(v) =>
            {
                weight - 1
            }
            TermPattern::Var(_) => 0,
        }
    };
    // Subject matches are usually most selective, then object, then
    // predicate (predicates repeat across the dataset).
    score(&p.subject, 4) + score(&p.object, 3) + score(&p.predicate, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::TermPattern as TP;
    use applab_rdf::vocab;

    #[test]
    fn reference_still_answers_a_join() {
        let mut g = Graph::new();
        let park = Resource::named("http://ex.org/p1");
        g.add(
            park.clone(),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(vocab::osm::POI),
        );
        g.add(
            park,
            NamedNode::new(vocab::osm::HAS_NAME),
            Literal::string("Bois de Boulogne"),
        );
        let q = Query {
            form: QueryForm::Select {
                distinct: false,
                projection: vec![],
                group_by: vec![],
            },
            pattern: GraphPattern::Bgp(vec![
                TriplePattern::new(
                    TP::var("s"),
                    Term::named(vocab::rdf::TYPE),
                    Term::named(vocab::osm::POI),
                ),
                TriplePattern::new(
                    TP::var("s"),
                    Term::named(vocab::osm::HAS_NAME),
                    TP::var("n"),
                ),
            ]),
            order_by: vec![],
            limit: None,
            offset: 0,
        };
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.value(0, "n").unwrap().as_literal().unwrap().value(),
            "Bois de Boulogne"
        );
    }
}
