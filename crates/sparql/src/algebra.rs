//! The query algebra produced by the parser and consumed by the evaluator.

use applab_rdf::{NamedNode, Term};

/// A position in a triple pattern: a variable or a constant term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermPattern {
    /// `?name` (without the question mark).
    Var(String),
    /// A ground RDF term.
    Term(Term),
}

impl TermPattern {
    pub fn var(name: impl Into<String>) -> Self {
        TermPattern::Var(name.into())
    }

    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Term(_) => None,
        }
    }

    pub fn is_var(&self) -> bool {
        matches!(self, TermPattern::Var(_))
    }
}

impl From<Term> for TermPattern {
    fn from(t: Term) -> Self {
        TermPattern::Term(t)
    }
}

/// A triple pattern in a basic graph pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    pub subject: TermPattern,
    pub predicate: TermPattern,
    pub object: TermPattern,
}

impl TriplePattern {
    pub fn new(
        subject: impl Into<TermPattern>,
        predicate: impl Into<TermPattern>,
        object: impl Into<TermPattern>,
    ) -> Self {
        TriplePattern {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// Variables mentioned by this pattern, in subject, predicate, object
    /// order.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(TermPattern::as_var)
    }
}

/// The variable-connected components of a BGP: pattern indexes grouped
/// by shared variable names, each component in written order and the
/// components ordered by their first pattern. A ground pattern (no
/// variables) is a component of its own; sharing only a constant does not
/// connect two patterns.
pub fn connected_components(patterns: &[TriplePattern]) -> Vec<Vec<usize>> {
    let shares = |i: usize, j: usize| {
        patterns[i]
            .variables()
            .any(|v| patterns[j].variables().any(|w| w == v))
    };
    let mut component: Vec<Option<usize>> = vec![None; patterns.len()];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for start in 0..patterns.len() {
        if component[start].is_some() {
            continue;
        }
        let id = out.len();
        component[start] = Some(id);
        let mut members = vec![start];
        let mut queue = vec![start];
        while let Some(i) = queue.pop() {
            for (j, slot) in component.iter_mut().enumerate().skip(start + 1) {
                if slot.is_none() && shares(i, j) {
                    *slot = Some(id);
                    members.push(j);
                    queue.push(j);
                }
            }
        }
        members.sort_unstable();
        out.push(members);
    }
    out
}

/// A SPARQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// `?name`
    Var(String),
    /// A constant term (IRI or literal).
    Constant(Term),
    And(Box<Expression>, Box<Expression>),
    Or(Box<Expression>, Box<Expression>),
    Not(Box<Expression>),
    Equal(Box<Expression>, Box<Expression>),
    NotEqual(Box<Expression>, Box<Expression>),
    Less(Box<Expression>, Box<Expression>),
    LessOrEqual(Box<Expression>, Box<Expression>),
    Greater(Box<Expression>, Box<Expression>),
    GreaterOrEqual(Box<Expression>, Box<Expression>),
    Add(Box<Expression>, Box<Expression>),
    Subtract(Box<Expression>, Box<Expression>),
    Multiply(Box<Expression>, Box<Expression>),
    Divide(Box<Expression>, Box<Expression>),
    UnaryMinus(Box<Expression>),
    /// `BOUND(?v)`
    Bound(String),
    /// A builtin or extension function call by IRI or builtin name.
    /// GeoSPARQL `geof:` functions arrive here with their full IRI.
    Call(NamedNode, Vec<Expression>),
    /// `IF(cond, then, else)`
    If(Box<Expression>, Box<Expression>, Box<Expression>),
}

impl Expression {
    /// All variables mentioned anywhere in the expression.
    pub fn variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expression::Var(v) | Expression::Bound(v) => out.push(v),
            Expression::Constant(_) => {}
            Expression::Not(e) | Expression::UnaryMinus(e) => e.collect_vars(out),
            Expression::And(a, b)
            | Expression::Or(a, b)
            | Expression::Equal(a, b)
            | Expression::NotEqual(a, b)
            | Expression::Less(a, b)
            | Expression::LessOrEqual(a, b)
            | Expression::Greater(a, b)
            | Expression::GreaterOrEqual(a, b)
            | Expression::Add(a, b)
            | Expression::Subtract(a, b)
            | Expression::Multiply(a, b)
            | Expression::Divide(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expression::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expression::If(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expression> {
        match self {
            Expression::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

/// A graph pattern (the content of a `WHERE` clause).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphPattern {
    /// A basic graph pattern: a conjunction of triple patterns.
    Bgp(Vec<TriplePattern>),
    /// `pattern FILTER(expr)`
    Filter(Expression, Box<GraphPattern>),
    /// Sequential join of two patterns.
    Join(Box<GraphPattern>, Box<GraphPattern>),
    /// `left OPTIONAL { right }`
    LeftJoin(Box<GraphPattern>, Box<GraphPattern>),
    /// `{ left } UNION { right }`
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// `BIND(expr AS ?var)` applied to the preceding pattern.
    Extend(Box<GraphPattern>, String, Expression),
    /// Inline data: `VALUES ?v { ... }` (single- or multi-variable).
    Values(Vec<String>, Vec<Vec<Option<Term>>>),
}

impl GraphPattern {
    /// All variables bound anywhere in the pattern.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.dedup();
        let mut seen = std::collections::HashSet::new();
        out.retain(|v| seen.insert(v.clone()));
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            GraphPattern::Bgp(patterns) => {
                for p in patterns {
                    out.extend(p.variables().map(String::from));
                }
            }
            GraphPattern::Filter(_, inner) => inner.collect_vars(out),
            GraphPattern::Join(a, b) | GraphPattern::LeftJoin(a, b) | GraphPattern::Union(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            GraphPattern::Extend(inner, var, _) => {
                inner.collect_vars(out);
                out.push(var.clone());
            }
            GraphPattern::Values(vars, _) => out.extend(vars.iter().cloned()),
        }
    }
}

/// An aggregate function in a projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    Count,
    CountAll,
    Sum,
    Avg,
    Min,
    Max,
    Sample,
}

/// One projected column of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `?v`
    Var(String),
    /// `(expr AS ?alias)`
    Expr(Expression, String),
    /// `(AGG(?v) AS ?alias)`; the inner expression is `None` for `COUNT(*)`.
    Aggregate(Aggregate, Option<Expression>, String),
}

impl Projection {
    /// The output column name.
    pub fn name(&self) -> &str {
        match self {
            Projection::Var(v) => v,
            Projection::Expr(_, alias) | Projection::Aggregate(_, _, alias) => alias,
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expression,
    pub descending: bool,
}

/// The query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryForm {
    Select {
        distinct: bool,
        /// Empty means `SELECT *`.
        projection: Vec<Projection>,
        group_by: Vec<String>,
    },
    Ask,
    Construct {
        template: Vec<TriplePattern>,
    },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub form: QueryForm,
    pub pattern: GraphPattern,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
    pub offset: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_rdf::Literal;

    #[test]
    fn pattern_variables() {
        let p = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::Term(Term::named("http://p")),
            TermPattern::var("o"),
        );
        assert_eq!(p.variables().collect::<Vec<_>>(), ["s", "o"]);
    }

    fn pat(s: &str, p: &str, o: &str) -> TriplePattern {
        let term = |t: &str| -> TermPattern {
            match t.strip_prefix('?') {
                Some(v) => TermPattern::var(v),
                None => Term::named(format!("http://ex.org/{t}")).into(),
            }
        };
        TriplePattern::new(term(s), term(p), term(o))
    }

    #[test]
    fn connected_components_accept_chains_and_singletons() {
        assert!(connected_components(&[]).is_empty());
        assert_eq!(connected_components(&[pat("?s", "p", "?o")]), vec![vec![0]]);
        // ?s–?g–?w chain: each adjacent pair shares a variable.
        assert_eq!(
            connected_components(&[
                pat("?s", "hasGeometry", "?g"),
                pat("?g", "asWKT", "?w"),
                pat("?s", "type", "Park"),
            ]),
            vec![vec![0, 1, 2]]
        );
        // A fully ground singleton is one component.
        assert_eq!(connected_components(&[pat("s1", "p", "o1")]), vec![vec![0]]);
    }

    #[test]
    fn connected_components_split_disjoint_patterns() {
        // Two patterns with no shared variable are two components.
        assert_eq!(
            connected_components(&[pat("?s1", "hasCode", "?code1"), pat("?g1", "asWKT", "?w1")]),
            vec![vec![0], vec![1]]
        );
        // Sharing a predicate *variable* connects…
        assert_eq!(
            connected_components(&[pat("?s1", "?p", "?o1"), pat("?s2", "?p", "?o2")]).len(),
            1
        );
        // …but sharing only a constant does not.
        assert_eq!(
            connected_components(&[pat("?s1", "p", "?o1"), pat("?s2", "p", "?o2")]).len(),
            2
        );
        // A ground pattern alongside anything else is its own component.
        assert_eq!(
            connected_components(&[pat("?s", "p", "?o"), pat("s1", "p", "o1")]).len(),
            2
        );
        // Interleaved components keep written order, a late pattern can
        // join an early component, and components order by first pattern.
        assert_eq!(
            connected_components(&[
                pat("?a", "p", "?x"),
                pat("?b", "p", "?y"),
                pat("?x", "q", "?z"),
                pat("?c", "p", "?w"),
                pat("?y", "q", "?a"),
            ]),
            vec![vec![0, 1, 2, 4], vec![3]]
        );
    }

    #[test]
    fn expression_conjuncts() {
        let e = Expression::And(
            Box::new(Expression::And(
                Box::new(Expression::Var("a".into())),
                Box::new(Expression::Var("b".into())),
            )),
            Box::new(Expression::Var("c".into())),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn graph_pattern_variables_dedup() {
        let bgp = GraphPattern::Bgp(vec![
            TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::var("p"),
                TermPattern::var("o"),
            ),
            TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::Term(Term::named("http://p")),
                TermPattern::Term(Literal::integer(1).into()),
            ),
        ]);
        assert_eq!(bgp.variables(), vec!["s", "p", "o"]);
    }

    #[test]
    fn extend_adds_variable() {
        let p = GraphPattern::Extend(
            Box::new(GraphPattern::Bgp(vec![])),
            "x".into(),
            Expression::Constant(Literal::integer(1).into()),
        );
        assert_eq!(p.variables(), vec!["x"]);
    }
}
