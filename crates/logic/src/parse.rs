//! A small recursive-descent parser for the textual formula syntax produced
//! by the `Display` implementation.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! iff     := implies ( "<=>" implies )*
//! implies := or ( "=>" implies )?
//! or      := and ( "\/" and )*
//! and     := unary ( "/\" unary )*
//! unary   := "!" unary
//!          | "K[" num "]" unary | "B[" num "]" unary | "EB" unary | "CB" unary
//!          | "gfp" var "." unary | "lfp" var "." unary
//!          | "AX" unary | "EX" unary | "AG" unary | "AF" unary | "EG" unary | "EF" unary
//!          | "true" | "false" | var | atom | "(" iff ")"
//! var     := "_X" num
//! atom    := identifier (letters, digits, '_', '[', ']', '.')
//! ```
//!
//! Atoms are handed to a caller-supplied resolver, so each protocol model can
//! define its own atom vocabulary.

use std::fmt;
use std::marker::PhantomData;

use crate::agent::AgentId;
use crate::formula::Formula;

/// Error produced when parsing a formula fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error was detected.
    pub position: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply a formula may nest (prefix operators, parentheses and chained
/// `=>` / `<=>` count one level each): parsing and every recursive walk of a
/// formula use stack in proportion, so deeper input is refused.
const MAX_NESTING: usize = 256;

struct Parser<'a, P, F> {
    input: &'a str,
    pos: usize,
    depth: usize,
    resolve: F,
    _marker: PhantomData<P>,
}

/// Parses a formula from its textual representation.
///
/// `resolve_atom` maps atom identifiers to the caller's atom type; returning
/// `Err` rejects the identifier and aborts the parse.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the position and cause of the first
/// syntax error or atom-resolution failure, and rejects a formula no engine
/// can evaluate: one with a free fixpoint variable, or a fixpoint whose
/// variable occurs negatively (under `!`, left of `=>`, or under `<=>`),
/// whose iteration need not converge. Input nested more than 256 levels
/// deep is rejected too, rather than overflowing the stack.
///
/// # Example
///
/// ```
/// use epimc_logic::{parse_formula, Formula};
///
/// let f: Formula<String> =
///     parse_formula("K[0] (p => q) /\\ !r", |name| Ok(name.to_string())).unwrap();
/// assert_eq!(format!("{f}"), "K[0] (p => q) /\\ !r");
/// ```
pub fn parse_formula<P, F>(input: &str, resolve_atom: F) -> Result<Formula<P>, ParseError>
where
    F: FnMut(&str) -> Result<P, String>,
{
    let mut parser =
        Parser { input, pos: 0, depth: 0, resolve: resolve_atom, _marker: PhantomData };
    let formula = parser.parse_iff()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    if let Some(v) = formula.free_vars().first() {
        return Err(parser.error(format!("free fixpoint variable _X{v}")));
    }
    if !formula.fixpoints_well_formed() {
        return Err(parser.error("a fixpoint variable occurs negatively in its body"));
    }
    Ok(formula)
}

impl<'a, P, F> Parser<'a, P, F>
where
    F: FnMut(&str) -> Result<P, String>,
{
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { position: self.pos, message: message.into() }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().chars().next().map(char::is_whitespace).unwrap_or(false) {
            self.pos += self.rest().chars().next().map(char::len_utf8).unwrap_or(0);
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// Consumes `keyword` only when it is not a prefix of a longer identifier.
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        self.skip_ws();
        if !self.rest().starts_with(keyword) {
            return false;
        }
        let after = self.rest()[keyword.len()..].chars().next();
        if matches!(after, Some(c) if c.is_alphanumeric() || c == '_' || c == '[') {
            return false;
        }
        self.pos += keyword.len();
        true
    }

    fn parse_number(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let digits: String = self.rest().chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return Err(self.error("expected a number"));
        }
        self.pos += digits.len();
        digits.parse().map_err(|_| self.error("number out of range"))
    }

    /// Enters one more level of nesting; the caller leaves it on success.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("formula nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_iff(&mut self) -> Result<Formula<P>, ParseError> {
        let depth = self.depth;
        let mut lhs = self.parse_implies()?;
        while self.eat("<=>") {
            self.descend()?;
            let rhs = self.parse_implies()?;
            lhs = Formula::iff(lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Formula<P>, ParseError> {
        let lhs = self.parse_or()?;
        if self.eat("=>") {
            self.descend()?;
            let rhs = self.parse_implies()?;
            self.depth -= 1;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Formula<P>, ParseError> {
        let mut items = vec![self.parse_and()?];
        while self.eat("\\/") {
            items.push(self.parse_and()?);
        }
        Ok(if items.len() == 1 { items.pop().expect("nonempty") } else { Formula::or(items) })
    }

    fn parse_and(&mut self) -> Result<Formula<P>, ParseError> {
        let mut items = vec![self.parse_unary()?];
        while self.eat("/\\") {
            items.push(self.parse_unary()?);
        }
        Ok(if items.len() == 1 { items.pop().expect("nonempty") } else { Formula::and(items) })
    }

    fn parse_unary(&mut self) -> Result<Formula<P>, ParseError> {
        self.descend()?;
        let formula = self.parse_prefixed()?;
        self.depth -= 1;
        Ok(formula)
    }

    /// A prefixed or parenthesised formula, fixpoint, constant or atom.
    fn parse_prefixed(&mut self) -> Result<Formula<P>, ParseError> {
        self.skip_ws();
        if self.eat("!") {
            return Ok(Formula::not(self.parse_unary()?));
        }
        if self.eat("(") {
            let inner = self.parse_iff()?;
            if !self.eat(")") {
                return Err(self.error("expected ')'"));
            }
            return Ok(inner);
        }
        if self.eat("K[") {
            let agent = self.parse_number()? as usize;
            if !self.eat("]") {
                return Err(self.error("expected ']' after agent index"));
            }
            return Ok(Formula::knows(AgentId::new(agent), self.parse_unary()?));
        }
        if self.eat("B[") {
            let agent = self.parse_number()? as usize;
            if !self.eat("]") {
                return Err(self.error("expected ']' after agent index"));
            }
            return Ok(Formula::believes_nonfaulty(AgentId::new(agent), self.parse_unary()?));
        }
        if self.eat_keyword("EB") {
            return Ok(Formula::everyone_believes(self.parse_unary()?));
        }
        if self.eat_keyword("CB") {
            return Ok(Formula::common_belief(self.parse_unary()?));
        }
        for (kw, builder) in [
            ("AX", Formula::all_next as fn(Formula<P>) -> Formula<P>),
            ("EX", Formula::exists_next),
            ("AG", Formula::all_globally),
            ("AF", Formula::all_finally),
            ("EG", Formula::exists_globally),
            ("EF", Formula::exists_finally),
        ] {
            if self.eat_keyword(kw) {
                return Ok(builder(self.parse_unary()?));
            }
        }
        if self.eat_keyword("gfp") || self.rest().starts_with("gfp _X") {
            return self.parse_fixpoint(true);
        }
        if self.eat_keyword("lfp") {
            return self.parse_fixpoint_body(false);
        }
        if self.eat_keyword("true") {
            return Ok(Formula::True);
        }
        if self.eat_keyword("false") {
            return Ok(Formula::False);
        }
        if self.eat("_X") {
            let v = self.parse_number()?;
            return Ok(Formula::var(v));
        }
        self.parse_atom()
    }

    fn parse_fixpoint(&mut self, greatest: bool) -> Result<Formula<P>, ParseError> {
        self.parse_fixpoint_body(greatest)
    }

    fn parse_fixpoint_body(&mut self, greatest: bool) -> Result<Formula<P>, ParseError> {
        if !self.eat("_X") {
            return Err(self.error("expected fixpoint variable '_X<n>'"));
        }
        let v = self.parse_number()?;
        if !self.eat(".") {
            return Err(self.error("expected '.' after fixpoint variable"));
        }
        let body = self.parse_unary()?;
        Ok(if greatest { Formula::gfp(v, body) } else { Formula::lfp(v, body) })
    }

    fn parse_atom(&mut self) -> Result<Formula<P>, ParseError> {
        self.skip_ws();
        let ident: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '[' | ']' | '.'))
            .collect();
        if ident.is_empty() || !ident.chars().next().map(char::is_alphabetic).unwrap_or(false) {
            return Err(self.error("expected an atom, operator, or '('"));
        }
        self.pos += ident.len();
        match (self.resolve)(&ident) {
            Ok(atom) => Ok(Formula::atom(atom)),
            Err(message) => Err(self.error(format!("unknown atom `{ident}`: {message}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(input: &str) -> Result<Formula<String>, ParseError> {
        parse_formula(input, |name| Ok(name.to_string()))
    }

    #[test]
    fn parses_constants_and_atoms() {
        assert_eq!(parse("true").unwrap(), Formula::True);
        assert_eq!(parse("false").unwrap(), Formula::False);
        assert_eq!(parse("p").unwrap(), Formula::atom("p".to_string()));
        assert_eq!(
            parse("values_received[0]").unwrap(),
            Formula::atom("values_received[0]".to_string())
        );
    }

    #[test]
    fn parses_connectives_with_precedence() {
        let f = parse("a /\\ b \\/ c").unwrap();
        assert_eq!(format!("{f}"), "a /\\ b \\/ c");
        let g = parse("a => b => c").unwrap();
        // Implication is right-associative.
        assert_eq!(
            g,
            Formula::implies(
                Formula::atom("a".into()),
                Formula::implies(Formula::atom("b".into()), Formula::atom("c".into()))
            )
        );
        let h = parse("(a \\/ b) /\\ !c").unwrap();
        assert_eq!(format!("{h}"), "(a \\/ b) /\\ !c");
    }

    #[test]
    fn parses_epistemic_operators() {
        let f = parse("B[1] CB exists0").unwrap();
        assert_eq!(
            f,
            Formula::believes_nonfaulty(
                AgentId::new(1),
                Formula::common_belief(Formula::atom("exists0".to_string()))
            )
        );
        let g = parse("K[0] (p => q)").unwrap();
        assert!(g.is_epistemic());
    }

    #[test]
    fn parses_fixpoints_and_temporal() {
        let f = parse("gfp _X0. (_X0 /\\ p)").unwrap();
        assert_eq!(format!("{f}"), "gfp _X0. (_X0 /\\ p)");
        let g = parse("AX AG p").unwrap();
        assert_eq!(format!("{g}"), "AX AG p");
        let h = parse("lfp _X2. (p \\/ _X2)").unwrap();
        assert_eq!(format!("{h}"), "lfp _X2. (p \\/ _X2)");
    }

    #[test]
    fn roundtrips_display_output() {
        let cases = [
            "B[0] CB (exists0 /\\ !decided)",
            "K[2] (alive => gfp _X0. (_X0 /\\ p))",
            "AX AX (p <=> q)",
            "!(a /\\ b) => c \\/ d",
            "EB (p => CB q)",
        ];
        for case in cases {
            let parsed = parse(case).unwrap();
            let printed = format!("{parsed}");
            let reparsed = parse(&printed).unwrap();
            assert_eq!(parsed, reparsed, "roundtrip failed for {case}");
        }
    }

    #[test]
    fn reports_errors_with_position() {
        let err = parse("p /\\").unwrap_err();
        assert!(err.position >= 4);
        assert!(err.message.contains("expected"));
        let err = parse("K[x] p").unwrap_err();
        assert!(err.message.contains("number"));
        let err = parse("(p").unwrap_err();
        assert!(err.message.contains(")"));
        let err = parse("p q").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_open_and_non_monotone_fixpoints() {
        let err = parse("_X0").unwrap_err();
        assert!(err.message.contains("free fixpoint variable _X0"), "{err}");
        let err = parse("gfp _X0. (_X0 /\\ _X1)").unwrap_err();
        assert!(err.message.contains("free fixpoint variable _X1"), "{err}");
        for input in ["gfp _X0. !_X0", "lfp _X0. (_X0 <=> p)", "gfp _X0. (_X0 => p)"] {
            let err = parse(input).unwrap_err();
            assert!(err.message.contains("occurs negatively"), "{input}: {err}");
        }
        // Positive occurrences, a shadowed negated one and a double
        // negation are fine.
        for input in ["gfp _X0. (p => _X0)", "gfp _X0. (_X0 /\\ !(lfp _X0. _X0))", "gfp _X0. !!_X0"]
        {
            assert!(parse(input).is_ok(), "{input}");
        }
    }

    #[test]
    fn atom_resolution_failure_is_reported() {
        let result: Result<Formula<u8>, _> =
            parse_formula("p", |_| Err("not in vocabulary".to_string()));
        let err = result.unwrap_err();
        assert!(err.message.contains("not in vocabulary"));
    }

    #[test]
    fn keywords_are_not_split_from_identifiers() {
        // `truex` is an atom, not the constant `true` followed by `x`.
        let f = parse("truex").unwrap();
        assert_eq!(f, Formula::atom("truex".to_string()));
        let g = parse("AGreement").unwrap();
        assert_eq!(g, Formula::atom("AGreement".to_string()));
    }

    #[test]
    fn nesting_is_bounded() {
        let negations = |depth: usize| format!("{}p", "!".repeat(depth - 1));
        assert!(parse(&negations(MAX_NESTING)).is_ok());
        let error = parse(&negations(MAX_NESTING + 1)).unwrap_err();
        assert!(error.message.contains("nested deeper"), "{error}");
        for deep in [
            format!("{}p{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("p{}", " => p".repeat(100_000)),
            format!("p{}", " <=> p".repeat(100_000)),
        ] {
            assert!(parse(&deep).is_err(), "input nested 100 000 levels parsed");
        }
    }
}
