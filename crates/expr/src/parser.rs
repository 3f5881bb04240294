//! Recursive-descent parser for the utility/cost function language.
//!
//! Grammar (standard precedence, `^` binds tightest and right-associates
//! only with integer literals):
//!
//! ```text
//! expr   := term (("+" | "-") term)*
//! term   := unary (("*" | "/") unary)*
//! unary  := "-" unary | power
//! power  := atom ("^" integer)?
//! atom   := number | ident | ident "(" expr ")" | "(" expr ")"
//! ```
//!
//! Identifiers resolve through a [`Schema`]: `w1, w2, …` are query weights;
//! any other identifier must name an object attribute (e.g. `price`,
//! `resolution`), or match the positional fallbacks `p1…`/`x1…` when the
//! schema declares no names. The only built-in function is `sqrt`.

use crate::ast::Expr;
use std::fmt;

/// Attribute-name environment for identifier resolution.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    names: Vec<String>,
}

impl Schema {
    /// A schema with named attributes (index = position).
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        Schema {
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// A schema resolving only positional names `p1…pd` / `x1…xd`.
    pub fn positional() -> Self {
        Schema::default()
    }

    /// Attribute names, in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn resolve(&self, ident: &str) -> Option<Expr> {
        // Weights: w<k>.
        if let Some(k) = parse_indexed(ident, "w") {
            return Some(Expr::Weight(k));
        }
        // Named attributes take priority over positional fallbacks.
        if let Some(i) = self
            .names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(ident))
        {
            return Some(Expr::Attr(i));
        }
        if self.names.is_empty() {
            if let Some(k) = parse_indexed(ident, "p").or_else(|| parse_indexed(ident, "x")) {
                return Some(Expr::Attr(k));
            }
        }
        None
    }
}

fn parse_indexed(ident: &str, prefix: &str) -> Option<usize> {
    let rest = ident.strip_prefix(prefix)?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let k: usize = rest.parse().ok()?;
    if k == 0 {
        None // variables are 1-based in the surface syntax
    } else {
        Some(k - 1)
    }
}

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                toks.push((Tok::Plus, i));
                i += 1;
            }
            '-' => {
                toks.push((Tok::Minus, i));
                i += 1;
            }
            '*' => {
                toks.push((Tok::Star, i));
                i += 1;
            }
            '/' => {
                toks.push((Tok::Slash, i));
                i += 1;
            }
            '^' => {
                toks.push((Tok::Caret, i));
                i += 1;
            }
            '(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || ((bytes[i] == b'e' || bytes[i] == b'E')
                            && i + 1 < bytes.len()
                            && (bytes[i + 1].is_ascii_digit()
                                || bytes[i + 1] == b'+'
                                || bytes[i + 1] == b'-'))
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &input[start..i];
                let v: f64 = text.parse().map_err(|_| ParseError {
                    message: format!("invalid number literal `{text}`"),
                    position: start,
                })?;
                toks.push((Tok::Num(v), start));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(input[start..i].to_string()), start));
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character `{other}`"),
                    position: i,
                })
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    schema: &'a Schema,
    input_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, p)| p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError {
                message: format!("expected {what}"),
                position: self.here(),
            })
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    e = e.add(self.term()?);
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    e = e.sub(self.term()?);
                }
                _ => return Ok(e),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    e = e.mul(self.unary()?);
                }
                Some(Tok::Slash) => {
                    self.pos += 1;
                    e = e.div(self.unary()?);
                }
                _ => return Ok(e),
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            Ok(self.unary()?.neg())
        } else {
            self.power()
        }
    }

    fn power(&mut self) -> Result<Expr, ParseError> {
        let base = self.atom()?;
        if self.peek() == Some(&Tok::Caret) {
            self.pos += 1;
            let at = self.here();
            match self.bump() {
                // exact-float: integer-valuedness test on a parsed exponent literal
                Some(Tok::Num(v)) if v.fract() == 0.0 && v >= 0.0 && v <= u32::MAX as f64 => {
                    Ok(base.pow(v as u32))
                }
                _ => Err(ParseError {
                    message: "exponent must be a non-negative integer literal".into(),
                    position: at,
                }),
            }
        } else {
            Ok(base)
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let at = self.here();
        match self.bump() {
            Some(Tok::Num(v)) => Ok(Expr::Const(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    // Function call.
                    self.pos += 1;
                    let arg = self.expr()?;
                    self.expect(Tok::RParen, "`)` after function argument")?;
                    if name.eq_ignore_ascii_case("sqrt") {
                        Ok(arg.sqrt())
                    } else {
                        Err(ParseError {
                            message: format!("unknown function `{name}` (only sqrt is built in)"),
                            position: at,
                        })
                    }
                } else {
                    self.schema.resolve(&name).ok_or_else(|| ParseError {
                        message: format!("unknown identifier `{name}`"),
                        position: at,
                    })
                }
            }
            _ => Err(ParseError {
                message: "expected expression".into(),
                position: at,
            }),
        }
    }
}

/// Parses `input` into an expression, resolving identifiers via `schema`.
pub fn parse(input: &str, schema: &Schema) -> Result<Expr, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        schema,
        input_len: input.len(),
    };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(ParseError {
            message: "trailing input".into(),
            position: p.here(),
        });
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(input: &str) -> Expr {
        parse(input, &Schema::positional()).unwrap()
    }

    #[test]
    fn precedence() {
        let e = pos("1 + 2 * 3");
        assert_eq!(e.eval(&[], &[]), 7.0);
        let e = pos("(1 + 2) * 3");
        assert_eq!(e.eval(&[], &[]), 9.0);
        let e = pos("2 * p1^2");
        assert_eq!(e.eval(&[3.0], &[]), 18.0);
        let e = pos("-p1^2"); // -(p1^2)
        assert_eq!(e.eval(&[3.0], &[]), -9.0);
    }

    #[test]
    fn weights_and_positional_attrs() {
        let e = pos("w2 * x3 + p1");
        assert_eq!(e.eval(&[10.0, 0.0, 5.0], &[0.0, 2.0]), 20.0);
    }

    #[test]
    fn named_schema() {
        let schema = Schema::new(["resolution", "storage", "price"]);
        let e = parse("5.0*resolution + 3.5*storage - 0.05*price", &schema).unwrap();
        // Camera p1 of Figure 1: (10, 2, 250).
        assert!((e.eval(&[10.0, 2.0, 250.0], &[]) - 44.5).abs() < 1e-12);
    }

    #[test]
    fn paper_eq19_parses() {
        let schema = Schema::new(["Price", "MPG", "Capacity"]);
        let e = parse("sqrt(w1 * Price) + w2 * Capacity / MPG", &schema).unwrap();
        let got = e.eval(&[15000.0, 30.0, 4.0], &[1.0, 1.0]);
        assert!((got - (15000f64.sqrt() + 4.0 / 30.0)).abs() < 1e-9);
    }

    #[test]
    fn paper_eq20_parses() {
        let e = pos("w1 * p1^3 + w2 * (p2 * p3) + w3 * p4^2");
        let got = e.eval(&[2.0, 3.0, 4.0, 5.0], &[1.0, 1.0, 1.0]);
        assert_eq!(got, 8.0 + 12.0 + 25.0);
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(pos("1e3 + 2.5e-1").eval(&[], &[]), 1000.25);
    }

    #[test]
    fn case_insensitive_names() {
        let schema = Schema::new(["Price"]);
        assert!(parse("price + PRICE", &schema).is_ok());
    }

    #[test]
    fn errors() {
        let s = Schema::positional();
        assert!(parse("", &s).is_err());
        assert!(parse("1 +", &s).is_err());
        assert!(parse("foo", &s).is_err());
        assert!(parse("sin(p1)", &s).is_err());
        assert!(parse("p1 ^ p2", &s).is_err());
        assert!(parse("p1 @ 2", &s).is_err());
        assert!(parse("(p1", &s).is_err());
        assert!(parse("p1 p2", &s).is_err());
        assert!(parse("w0", &s).is_err()); // 1-based surface syntax
        let err = parse("1 + $", &s).unwrap_err();
        assert_eq!(err.position, 4);
    }

    #[test]
    fn display_reparses_equal() {
        let inputs = [
            "w1 * p1^3 + w2 * (p2 * p3) + w3 * p4^2",
            "sqrt(w1 * p1) + w2 * p3 / p2",
            "-p1 + 2 * w1 - 3 / p2",
        ];
        let s = Schema::positional();
        for input in inputs {
            let e = parse(input, &s).unwrap();
            let text = format!("{e}");
            let e2 = parse(&text, &s).unwrap();
            // Structural equality after a print/parse roundtrip.
            assert_eq!(e, e2, "roundtrip failed for `{input}` -> `{text}`");
        }
    }
}
