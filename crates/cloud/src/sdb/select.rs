//! Parser and evaluator for the subset of the SimpleDB SELECT language the
//! paper's query workloads need (§5.3).
//!
//! Supported grammar (keywords case-insensitive):
//!
//! ```text
//! select      := SELECT output FROM domain [WHERE expr] [LIMIT n]
//! output      := '*' | 'itemName()' | 'count(*)'
//! expr        := and_expr (OR and_expr)*
//! and_expr    := unary (AND unary)*
//! unary       := NOT unary | '(' expr ')' | predicate
//! predicate   := operand cmp value
//!              | operand IN '(' value (',' value)* ')'
//!              | operand IS [NOT] NULL
//!              | operand LIKE value
//! operand     := identifier | `quoted identifier` | 'itemName()'
//! cmp         := '=' | '!=' | '<' | '<=' | '>' | '>='
//! value       := single-quoted string, '' escapes a quote
//! ```
//!
//! SimpleDB semantics reproduced here: attributes are multi-valued and a
//! comparison holds if **any** value satisfies it; all comparisons are
//! lexicographic on strings; `LIKE` supports `%` wildcards; an `IN` list
//! holds at most [`SELECT_IN_LIMIT`] values.

use std::borrow::Cow;

use crate::error::{CloudError, Result};
use crate::sdb::SELECT_IN_LIMIT;

/// What the query projects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Output {
    /// `select *` — all attributes.
    All,
    /// `select itemName()` — names only.
    ItemName,
    /// `select count(*)` — a count.
    Count,
}

/// A parsed SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// Projection.
    pub output: Output,
    /// Domain (table) queried.
    pub domain: String,
    /// Optional WHERE clause.
    pub predicate: Option<Expr>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

/// Left-hand side of a predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operand {
    /// An attribute name.
    Attr(String),
    /// The built-in `itemName()`.
    ItemName,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` with `%` wildcards.
    Like,
}

/// A WHERE-clause expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `operand op 'value'`.
    Cmp {
        /// Left-hand side.
        operand: Operand,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        value: String,
    },
    /// `operand IN ('a', 'b', ...)`.
    In {
        /// Left-hand side.
        operand: Operand,
        /// Accepted values.
        values: Vec<String>,
    },
    /// `operand IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Left-hand side.
        operand: Operand,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Evaluates the expression against one item.
    pub fn matches(&self, item_name: &str, attrs: &[(String, String)]) -> bool {
        match self {
            Expr::Or(a, b) => a.matches(item_name, attrs) || b.matches(item_name, attrs),
            Expr::And(a, b) => a.matches(item_name, attrs) && b.matches(item_name, attrs),
            Expr::Not(e) => !e.matches(item_name, attrs),
            Expr::Cmp { operand, op, value } => {
                any_operand(operand, item_name, attrs, |v| cmp_holds(*op, v, value))
            }
            Expr::In { operand, values } => {
                any_operand(operand, item_name, attrs, |v| values.iter().any(|w| w == v))
            }
            Expr::IsNull { operand, negated } => {
                any_operand(operand, item_name, attrs, |_| true) == *negated
            }
        }
    }

    /// The conjuncts a posting list can answer: every `attr = 'v'` and
    /// `attr IN (…)` reachable through `AND`s alone, as `(attr, values)`.
    /// An item matches only if it carries `attr` with one of `values`.
    pub(crate) fn narrowing_terms(&self) -> Vec<(&str, &[String])> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            match e {
                Expr::And(a, b) => stack.extend([b.as_ref(), a.as_ref()]),
                Expr::Cmp {
                    operand: Operand::Attr(attr),
                    op: CmpOp::Eq,
                    value,
                } => out.push((attr.as_str(), std::slice::from_ref(value))),
                Expr::In {
                    operand: Operand::Attr(attr),
                    values,
                } => out.push((attr.as_str(), values.as_slice())),
                _ => {}
            }
        }
        out
    }

    /// The item names of the most selective `itemName() = '…'` or
    /// `itemName() in (…)` conjunct reachable through `AND`s alone,
    /// sorted and deduplicated. Every item the expression matches is
    /// named in it.
    pub(crate) fn item_names(&self) -> Option<Vec<&str>> {
        let mut best: Option<Vec<&str>> = None;
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            let names = match e {
                Expr::And(a, b) => {
                    stack.extend([b.as_ref(), a.as_ref()]);
                    continue;
                }
                Expr::Cmp {
                    operand: Operand::ItemName,
                    op: CmpOp::Eq,
                    value,
                } => vec![value.as_str()],
                Expr::In {
                    operand: Operand::ItemName,
                    values,
                } => values.iter().map(String::as_str).collect(),
                _ => continue,
            };
            if best.as_ref().is_none_or(|b| names.len() < b.len()) {
                best = Some(names);
            }
        }
        let mut names = best?;
        names.sort_unstable();
        names.dedup();
        Some(names)
    }

    /// Whether the whole expression is one `itemName() like '…'` whose
    /// only `%` is its last character: it then holds for exactly the
    /// names starting with [`name_prefix`](Self::name_prefix).
    pub(crate) fn is_bare_name_prefix(&self) -> bool {
        matches!(self, Expr::Cmp {
            operand: Operand::ItemName,
            op: CmpOp::Like,
            value,
        } if value.find('%').is_some_and(|i| i + 1 == value.len()))
    }

    /// The longest literal text before the first `%` of any
    /// `itemName() like '…'` conjunct reachable through `AND`s alone.
    /// `LIKE` has no other wildcard and no escape, so every item the
    /// expression matches has a name starting with it.
    pub(crate) fn name_prefix(&self) -> Option<&str> {
        let mut best: Option<&str> = None;
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            match e {
                Expr::And(a, b) => stack.extend([b.as_ref(), a.as_ref()]),
                Expr::Cmp {
                    operand: Operand::ItemName,
                    op: CmpOp::Like,
                    value,
                } => {
                    let prefix = value.split('%').next().unwrap_or_default();
                    if best.is_none_or(|b| prefix.len() > b.len()) {
                        best = Some(prefix);
                    }
                }
                _ => {}
            }
        }
        best
    }
}

/// Whether any value of `operand` on this item satisfies `holds`.
fn any_operand(
    operand: &Operand,
    item_name: &str,
    attrs: &[(String, String)],
    holds: impl Fn(&str) -> bool,
) -> bool {
    match operand {
        Operand::ItemName => holds(item_name),
        Operand::Attr(name) => attrs.iter().any(|(k, v)| k == name && holds(v)),
    }
}

fn cmp_holds(op: CmpOp, left: &str, right: &str) -> bool {
    match op {
        CmpOp::Eq => left == right,
        CmpOp::Ne => left != right,
        CmpOp::Lt => left < right,
        CmpOp::Le => left <= right,
        CmpOp::Gt => left > right,
        CmpOp::Ge => left >= right,
        CmpOp::Like => like_match(right, left),
    }
}

/// `%`-wildcard matching: pattern segments between `%`s must appear in
/// order; anchored at the ends unless the pattern starts/ends with `%`.
fn like_match(pattern: &str, text: &str) -> bool {
    let last = pattern.matches('%').count();
    if last == 0 {
        return pattern == text;
    }
    let mut pos = 0usize;
    for (i, part) in pattern.split('%').enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            if !text.starts_with(part) {
                return false;
            }
            pos = part.len();
        } else if i == last {
            return text[pos.min(text.len())..].ends_with(part);
        } else {
            match text[pos.min(text.len())..].find(part) {
                Some(idx) => pos += idx + part.len(),
                None => return false,
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A token, borrowing its text from the query string: only a string
/// literal with a `''` escape owns a rebuilt copy.
#[derive(Clone, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Str(Cow<'a, str>),
    Star,
    LParen,
    RParen,
    Comma,
    Op(CmpOp),
    ItemNameFn,
    CountStar,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// The body of the string literal that `rest` (the text after its
/// opening quote) starts, and the bytes of `rest` it spans, closing
/// quote included.
fn string_literal(rest: &str) -> Result<(Cow<'_, str>, usize)> {
    let mut owned: Option<String> = None;
    let mut at = 0;
    loop {
        let Some(q) = rest[at..].find('\'').map(|q| q + at) else {
            return Err(CloudError::InvalidQuery(
                "unterminated string literal".to_string(),
            ));
        };
        if rest[q + 1..].starts_with('\'') {
            // `''`: keep one quote, resume after the pair.
            owned
                .get_or_insert_with(String::new)
                .push_str(&rest[at..=q]);
            at = q + 2;
            continue;
        }
        let body = match owned {
            Some(mut s) => {
                s.push_str(&rest[at..q]);
                Cow::Owned(s)
            }
            None => Cow::Borrowed(&rest[..q]),
        };
        return Ok((body, q + 1));
    }
}

fn lex(input: &str) -> Result<Vec<Tok<'_>>> {
    let mut toks = Vec::new();
    let mut i = 0;
    let err = |msg: &str| CloudError::InvalidQuery(msg.to_string());
    while let Some(c) = input[i..].chars().next() {
        let rest = &input[i + c.len_utf8()..];
        let (tok, len) = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '*' => (Tok::Star, 1),
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            ',' => (Tok::Comma, 1),
            '=' => (Tok::Op(CmpOp::Eq), 1),
            '!' if rest.starts_with('=') => (Tok::Op(CmpOp::Ne), 2),
            '!' => return Err(err("expected '=' after '!'")),
            '<' if rest.starts_with('=') => (Tok::Op(CmpOp::Le), 2),
            '<' => (Tok::Op(CmpOp::Lt), 1),
            '>' if rest.starts_with('=') => (Tok::Op(CmpOp::Ge), 2),
            '>' => (Tok::Op(CmpOp::Gt), 1),
            '\'' => {
                let (body, len) = string_literal(rest)?;
                (Tok::Str(body), 1 + len)
            }
            '`' => match rest.find('`') {
                Some(end) => (Tok::Ident(&rest[..end]), end + 2),
                None => return Err(err("unterminated quoted identifier")),
            },
            c if is_ident_char(c) => {
                let word = &input[i..];
                let end = word.find(|ch| !is_ident_char(ch)).unwrap_or(word.len());
                let (word, after) = word.split_at(end);
                // Function forms: itemName() and count(*).
                if word.eq_ignore_ascii_case("itemname") && after.starts_with("()") {
                    (Tok::ItemNameFn, end + 2)
                } else if word.eq_ignore_ascii_case("count") && after.starts_with("(*)") {
                    (Tok::CountStar, end + 3)
                } else {
                    (Tok::Ident(word), end)
                }
            }
            other => return Err(err(&format!("unexpected character '{other}'"))),
        };
        toks.push(tok);
        i += len;
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    toks: std::iter::Peekable<std::vec::IntoIter<Tok<'a>>>,
    /// Tokens consumed so far, for error positions.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Option<&Tok<'a>> {
        self.toks.peek()
    }

    /// Moves the next token out.
    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.next();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> CloudError {
        CloudError::InvalidQuery(format!("{msg} (at token {})", self.pos))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            _ => Err(self.err(&format!("expected '{kw}'"))),
        }
    }

    fn peek_keyword(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_keyword("select")?;
        let output = match self.next() {
            Some(Tok::Star) => Output::All,
            Some(Tok::ItemNameFn) => Output::ItemName,
            Some(Tok::CountStar) => Output::Count,
            _ => return Err(self.err("expected '*', 'itemName()' or 'count(*)'")),
        };
        self.expect_keyword("from")?;
        let domain = match self.next() {
            Some(Tok::Ident(d)) => d.to_string(),
            _ => return Err(self.err("expected domain name")),
        };
        let mut predicate = None;
        if self.peek_keyword("where") {
            self.next();
            predicate = Some(self.parse_or()?);
        }
        let mut limit = None;
        if self.peek_keyword("limit") {
            self.next();
            match self.next() {
                Some(Tok::Ident(n)) => {
                    limit = Some(
                        n.parse::<usize>()
                            .map_err(|_| self.err("LIMIT must be a number"))?,
                    );
                }
                _ => return Err(self.err("expected LIMIT value")),
            }
        }
        if self.peek().is_some() {
            return Err(self.err("trailing tokens after query"));
        }
        Ok(Select {
            output,
            domain,
            predicate,
            limit,
        })
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.peek_keyword("or") {
            self.next();
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        while self.peek_keyword("and") {
            self.next();
            let right = self.parse_unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek_keyword("not") {
            self.next();
            return Ok(Expr::Not(Box::new(self.parse_unary()?)));
        }
        if self.peek() == Some(&Tok::LParen) {
            self.next();
            let e = self.parse_or()?;
            match self.next() {
                Some(Tok::RParen) => return Ok(e),
                _ => return Err(self.err("expected ')'")),
            }
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        let operand = match self.next() {
            Some(Tok::ItemNameFn) => Operand::ItemName,
            Some(Tok::Ident(name)) => Operand::Attr(name.to_string()),
            _ => return Err(self.err("expected attribute or itemName()")),
        };
        match self.next() {
            Some(Tok::Op(op)) => {
                let value = match self.next() {
                    Some(Tok::Str(v)) => v.into_owned(),
                    _ => return Err(self.err("expected string literal")),
                };
                Ok(Expr::Cmp { operand, op, value })
            }
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("like") => {
                let value = match self.next() {
                    Some(Tok::Str(v)) => v.into_owned(),
                    _ => return Err(self.err("expected string literal after LIKE")),
                };
                Ok(Expr::Cmp {
                    operand,
                    op: CmpOp::Like,
                    value,
                })
            }
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("in") => {
                if self.next() != Some(Tok::LParen) {
                    return Err(self.err("expected '(' after IN"));
                }
                let mut values = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::Str(v)) if values.len() < SELECT_IN_LIMIT => {
                            values.push(v.into_owned())
                        }
                        Some(Tok::Str(_)) => {
                            return Err(
                                self.err(&format!("IN list longer than {SELECT_IN_LIMIT} values"))
                            )
                        }
                        _ => return Err(self.err("expected string literal in IN list")),
                    }
                    match self.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RParen) => break,
                        _ => return Err(self.err("expected ',' or ')'")),
                    }
                }
                Ok(Expr::In { operand, values })
            }
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("is") => {
                let negated = if self.peek_keyword("not") {
                    self.next();
                    true
                } else {
                    false
                };
                self.expect_keyword("null")?;
                Ok(Expr::IsNull { operand, negated })
            }
            _ => Err(self.err("expected comparison operator")),
        }
    }
}

/// Parses a SELECT expression.
///
/// # Errors
///
/// Returns [`CloudError::InvalidQuery`] with a position hint on syntax
/// errors.
///
/// # Examples
///
/// ```
/// use cloudprov_cloud::select::{parse, Output};
///
/// let q = parse("select * from prov where type = 'process' and name = 'blast'")?;
/// assert_eq!(q.output, Output::All);
/// assert_eq!(q.domain, "prov");
/// assert!(q.predicate.is_some());
/// # Ok::<(), cloudprov_cloud::CloudError>(())
/// ```
pub fn parse(input: &str) -> Result<Select> {
    let toks = lex(input)?.into_iter().peekable();
    Parser { toks, pos: 0 }.parse_select()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parses_select_star() {
        let q = parse("select * from prov").unwrap();
        assert_eq!(q.output, Output::All);
        assert_eq!(q.domain, "prov");
        assert!(q.predicate.is_none());
        assert!(q.limit.is_none());
    }

    #[test]
    fn parses_projection_forms() {
        assert_eq!(
            parse("select itemName() from d").unwrap().output,
            Output::ItemName
        );
        assert_eq!(
            parse("select count(*) from d").unwrap().output,
            Output::Count
        );
    }

    #[test]
    fn parses_limit() {
        let q = parse("select * from d limit 250").unwrap();
        assert_eq!(q.limit, Some(250));
    }

    #[test]
    fn simple_equality_matches_any_value() {
        let q = parse("select * from d where input = 'bar_2'").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("item", &attrs(&[("input", "foo_1"), ("input", "bar_2")])));
        assert!(!p.matches("item", &attrs(&[("input", "foo_1")])));
        assert!(!p.matches("item", &attrs(&[("other", "bar_2")])));
    }

    #[test]
    fn item_name_predicate() {
        let q = parse("select * from d where itemName() like 'uuid1_%'").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("uuid1_2", &[]));
        assert!(!p.matches("uuid2_2", &[]));
    }

    #[test]
    fn and_or_precedence() {
        // AND binds tighter than OR.
        let q = parse("select * from d where a = '1' or b = '2' and c = '3'").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("a", "1")])));
        assert!(p.matches("i", &attrs(&[("b", "2"), ("c", "3")])));
        assert!(!p.matches("i", &attrs(&[("b", "2")])));
    }

    #[test]
    fn parentheses_override_precedence() {
        let q = parse("select * from d where (a = '1' or b = '2') and c = '3'").unwrap();
        let p = q.predicate.unwrap();
        assert!(!p.matches("i", &attrs(&[("a", "1")])));
        assert!(p.matches("i", &attrs(&[("a", "1"), ("c", "3")])));
    }

    #[test]
    fn in_list() {
        let q = parse("select * from d where name in ('a', 'b')").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("name", "b")])));
        assert!(!p.matches("i", &attrs(&[("name", "c")])));
    }

    #[test]
    fn is_null_and_not_null() {
        let q = parse("select * from d where name is null").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("other", "x")])));
        assert!(!p.matches("i", &attrs(&[("name", "x")])));

        let q = parse("select * from d where name is not null").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("name", "x")])));
    }

    #[test]
    fn not_negates() {
        let q = parse("select * from d where not type = 'file'").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("type", "process")])));
        // NOTE: multi-valued semantics — NOT (any value = 'file').
        assert!(!p.matches("i", &attrs(&[("type", "file")])));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abx"));
        assert!(like_match("ab%", "abcdef"));
        assert!(!like_match("ab%", "xab"));
        assert!(like_match("%def", "abcdef"));
        assert!(like_match("%cd%", "abcdef"));
        assert!(!like_match("%cd%", "abdcef"));
        assert!(like_match("a%c%e", "abcde"));
        assert!(like_match("%", "anything"));
    }

    #[test]
    fn quoted_identifiers_and_escapes() {
        let q = parse("select * from d where `weird attr` = 'it''s'").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("weird attr", "it's")])));
    }

    #[test]
    fn lexicographic_ordering_comparisons() {
        let q = parse("select * from d where version >= '0005'").unwrap();
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("version", "0007")])));
        assert!(!p.matches("i", &attrs(&[("version", "0004")])));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse("select").is_err());
        assert!(parse("select * from").is_err());
        assert!(parse("select * from d where").is_err());
        assert!(parse("select * from d where a = ").is_err());
        assert!(parse("select * from d where a = 'x' garbage").is_err());
        assert!(parse("select * from d where a = 'unterminated").is_err());
    }

    #[test]
    fn only_equalities_reached_through_and_narrow() {
        let terms = |where_: &str| {
            let q = parse(&format!("select * from d where {where_}")).unwrap();
            let p = q.predicate.unwrap();
            p.narrowing_terms()
                .into_iter()
                .map(|(a, v)| format!("{a}:{}", v.join("|")))
                .collect::<Vec<_>>()
        };
        assert_eq!(terms("a = '1'"), ["a:1"]);
        assert_eq!(terms("a in ('1', '2')"), ["a:1|2"]);
        assert_eq!(
            terms("a = '1' and (b in ('2') and c != '3') and (d = '4' or e = '5')"),
            ["a:1", "b:2"]
        );
        for walks in [
            "a = '1' or b = '2'",
            "not a = '1'",
            "a != '1'",
            "a < '1'",
            "a like '1%'",
            "a is null",
            "a is not null",
            "itemName() = 'i'",
            "itemName() in ('i', 'j')",
        ] {
            assert!(terms(walks).is_empty(), "{walks}");
        }
    }

    #[test]
    fn only_like_prefixes_through_and_narrow_by_name() {
        let prefix = |where_: &str| {
            let q = parse(&format!("select * from d where {where_}")).unwrap();
            q.predicate.unwrap().name_prefix().map(str::to_string)
        };
        assert_eq!(prefix("itemName() like 'rev_%'").as_deref(), Some("rev_"));
        assert_eq!(prefix("itemName() like 'rev_1'").as_deref(), Some("rev_1"));
        assert_eq!(prefix("itemName() like 'a%b'").as_deref(), Some("a"));
        assert_eq!(prefix("itemName() like 'it''s%'").as_deref(), Some("it's"));
        assert_eq!(prefix("itemName() like '%'").as_deref(), Some(""));
        assert_eq!(
            prefix("a = '1' and itemName() like 'x%'").as_deref(),
            Some("x")
        );
        assert_eq!(
            prefix("itemName() like 'r%' and (b != '2' and itemName() like 'rev_1%')").as_deref(),
            Some("rev_1"),
            "the longest of several"
        );
        for walks in [
            "itemName() like 'r%' or a = '1'",
            "itemName() like 'r%' or itemName() like 's%'",
            "not itemName() like 'r%'",
            "a like 'r%'",
            "a = '1'",
            "itemName() = 'r'",
            "itemName() >= 'r'",
            "itemName() in ('r', 's')",
        ] {
            assert_eq!(prefix(walks), None, "{walks}");
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("SELECT * FROM d WHERE a = 'x' LIMIT 5").is_ok());
    }

    #[test]
    fn in_lists_hold_at_most_the_service_limit() {
        let list = |n: usize| {
            let values: Vec<String> = (0..n).map(|i| format!("'{i:064x}'")).collect();
            format!(
                "select * from d where itemName() in ({})",
                values.join(", ")
            )
        };
        let q = parse(&list(SELECT_IN_LIMIT)).unwrap();
        assert!(matches!(
            q.predicate,
            Some(Expr::In { ref values, .. }) if values.len() == SELECT_IN_LIMIT
        ));
        assert!(matches!(
            parse(&list(SELECT_IN_LIMIT + 1)),
            Err(CloudError::InvalidQuery(_))
        ));
    }

    #[test]
    fn non_ascii_identifiers_and_literals_lex_whole() {
        let q = parse("select * from d\u{e9}f where `caf\u{e9} x` = 'na\u{ef}ve ''\u{4e2d}'''")
            .unwrap();
        assert_eq!(q.domain, "d\u{e9}f");
        let p = q.predicate.unwrap();
        assert!(p.matches("i", &attrs(&[("caf\u{e9} x", "na\u{ef}ve '\u{4e2d}'")])));
        let q = parse("select * from d where \u{e9}t\u{e9} like '\u{1f600}%'").unwrap();
        assert!(q
            .predicate
            .unwrap()
            .matches("i", &attrs(&[("\u{e9}t\u{e9}", "\u{1f600}!")])));
    }

    mod props {
        use super::super::*;
        use crate::sdb::quote_literal;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any strings, quotes and non-ASCII text included, quoted
            /// with `quote_literal` parse back out of an `IN` list
            /// unchanged and in order.
            #[test]
            fn quoted_literals_round_trip_through_an_in_list(
                values in proptest::collection::vec(".*", 1..21),
            ) {
                let list: Vec<String> = values.iter().map(|v| quote_literal(v)).collect();
                let q = parse(&format!(
                    "select * from d where itemName() in ({})",
                    list.join(", ")
                ))
                .unwrap();
                match q.predicate {
                    Some(Expr::In { operand: Operand::ItemName, values: parsed }) => {
                        prop_assert_eq!(parsed, values)
                    }
                    other => panic!("not an IN list: {other:?}"),
                }
            }
        }
    }
}
