//! Parser for the SQL subset: recursive descent for statements and
//! clauses, precedence climbing for expressions.
//!
//! The grammar for aggregation follows the paper's §3.2 proposal verbatim:
//!
//! ```text
//! GROUP BY <aggregation list>
//!          [ROLLUP <aggregation list>]
//!          [CUBE <aggregation list>]
//! ```
//!
//! where each aggregation-list element is an expression with an optional
//! `AS` alias — allowing §2's computed categories (`Day(Time) AS day`).
//! `GROUP BY GROUPING SETS ((...), ...)` is also accepted, since the
//! minimalist design of §3.4 was standardized that way.
//!
//! Expressions are one loop, `Parser::parse_expr_bp`, over these tiers,
//! loosest first: `OR`; `AND`; prefix `NOT`; the predicates (`=`, `<>`,
//! `<`, `<=`, `>`, `>=`, `IS [NOT] NULL`, `[NOT] BETWEEN`, `[NOT] IN`),
//! which do not associate; `+ -`; `* / %`; prefix `-`. A run of one tier's
//! operators is one [`Expr::Chain`] node, so `a OR b OR …` is as tall as
//! `a OR b`.

use crate::ast::*;
use crate::error::{Boxed, SqlError, SqlResult};
use crate::token::{tokenize, Keyword, Symbol, Token};
use dc_relation::Value;

/// How deep a statement may nest. Each enclosing parenthesis, call,
/// `GROUPING(…)`, subquery, unary `-`, `NOT` and `UNION` link is one
/// level; an operator run is not (it is one [`Expr::Chain`], however
/// long). Past it the statement is a [`SqlError::Parse`]. Within one level
/// a tree holds at most one chain per tier, so its height, and the stack
/// of every walker over it (parse, bind, eval, drop), is bounded too.
/// Sized for a connection thread's default 2 MiB stack in a debug build,
/// with half of it to spare: the tallest tree a level allows (every tier
/// inside each parenthesis, call or subquery) costs up to ~13 KiB per level
/// there.
pub const MAX_DEPTH: usize = 64;

// Expression tiers, loosest first: an infix operator's tier is the
// `min_bp` its right operand is parsed at, less one.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
/// Comparisons, `IS`, `IN` and `BETWEEN`.
const PREDICATE: u8 = 4;
const SUM: u8 = 5;
const PRODUCT: u8 = 6;
/// The operand of a prefix `-`: no infix operator binds that tight.
const PREFIX: u8 = 7;

/// The operator `token` denotes between two operands, and its tier.
fn binary_op(token: Option<&Token>) -> Option<(BinOp, u8)> {
    Some(match token? {
        Token::Keyword(Keyword::Or) => (BinOp::Or, OR),
        Token::Keyword(Keyword::And) => (BinOp::And, AND),
        Token::Symbol(Symbol::Eq) => (BinOp::Eq, PREDICATE),
        Token::Symbol(Symbol::Neq) => (BinOp::Neq, PREDICATE),
        Token::Symbol(Symbol::Lt) => (BinOp::Lt, PREDICATE),
        Token::Symbol(Symbol::Lte) => (BinOp::Lte, PREDICATE),
        Token::Symbol(Symbol::Gt) => (BinOp::Gt, PREDICATE),
        Token::Symbol(Symbol::Gte) => (BinOp::Gte, PREDICATE),
        Token::Symbol(Symbol::Plus) => (BinOp::Add, SUM),
        Token::Symbol(Symbol::Minus) => (BinOp::Sub, SUM),
        Token::Symbol(Symbol::Star) => (BinOp::Mul, PRODUCT),
        Token::Symbol(Symbol::Slash) => (BinOp::Div, PRODUCT),
        Token::Symbol(Symbol::Percent) => (BinOp::Mod, PRODUCT),
        _ => return None,
    })
}

/// Parse one statement.
pub fn parse(sql: &str) -> SqlResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.parse_statement().map_err(|e| *e)?;
    p.eat_symbol(Symbol::Semicolon);
    if !p.at_end() {
        return Err(*p.error("trailing input after statement"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels entered so far; see [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    /// Consume the next token if `read` takes it; otherwise leave it in
    /// place, so an error names it.
    fn take<T>(&mut self, read: impl FnOnce(&Token) -> Option<T>) -> Option<T> {
        let value = read(self.peek()?)?;
        self.pos += 1;
        Some(value)
    }

    fn error(&self, message: &str) -> Box<SqlError> {
        let near = self
            .peek()
            .map(ToString::to_string)
            .unwrap_or_else(|| "<end of input>".into());
        Box::new(SqlError::Parse {
            near,
            message: message.into(),
        })
    }

    /// Enter one more level, or fail past [`MAX_DEPTH`]. A caller
    /// restores `depth` once its level is built; a failure ends the parse.
    fn descend(&mut self) -> Boxed<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!(
                "statement nests deeper than the limit of {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == Some(&Token::Keyword(k)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Boxed<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {k}")))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Boxed<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", Token::Symbol(s))))
        }
    }

    fn expect_ident(&mut self) -> Boxed<String> {
        let ident = self.take(|t| match t {
            Token::Ident(s) => Some(s.clone()),
            _ => None,
        });
        ident.ok_or_else(|| self.error("expected identifier"))
    }

    // ------------------------------------------------------- statements --

    fn parse_statement(&mut self) -> Boxed<Statement> {
        if self.eat_keyword(Keyword::Set) {
            let name = self.expect_ident()?;
            // `SET CUBE_CACHE ON` reads better than `= 1`, so the `=` is
            // optional and ON/OFF are accepted alongside integers.
            self.eat_symbol(Symbol::Eq);
            let negative = self.eat_symbol(Symbol::Minus);
            let value = self.take(|t| match t {
                Token::Int(n) if negative => Some(-n),
                Token::Int(n) => Some(*n),
                Token::Keyword(Keyword::On) if !negative => Some(1),
                Token::Ident(word) if !negative && word.eq_ignore_ascii_case("OFF") => Some(0),
                _ => None,
            });
            let value =
                value.ok_or_else(|| self.error("expected an integer option value (or ON/OFF)"))?;
            return Ok(Statement::Set { name, value });
        }
        if self.eat_keyword(Keyword::Insert) {
            self.expect_keyword(Keyword::Into)?;
            let table = self.expect_ident()?;
            self.expect_keyword(Keyword::Values)?;
            let rows = self.comma_list(|p| p.parenthesized_list(|p| p.parse_expr_bp(0)))?;
            return Ok(Statement::Insert { table, rows });
        }
        if self.eat_keyword(Keyword::Delete) {
            self.expect_keyword(Keyword::From)?;
            let table = self.expect_ident()?;
            let where_clause = self.parse_clause(Keyword::Where)?;
            return Ok(Statement::Delete {
                table,
                where_clause,
            });
        }
        if self.eat_keyword(Keyword::Update) {
            let table = self.expect_ident()?;
            self.expect_keyword(Keyword::Set)?;
            let sets = self.comma_list(|p| {
                let column = p.expect_ident()?;
                p.expect_symbol(Symbol::Eq)?;
                Ok((column, p.parse_expr_bp(0)?))
            })?;
            let where_clause = self.parse_clause(Keyword::Where)?;
            return Ok(Statement::Update {
                table,
                sets,
                where_clause,
            });
        }
        let explain = self.eat_keyword(Keyword::Explain);
        let mut stmt = self.parse_select_core()?;
        // UNION chain, left-to-right: each block holds the rest of it.
        let depth = self.depth;
        let mut links = Vec::new();
        while self.peek() == Some(&Token::Keyword(Keyword::Union)) {
            self.descend()?;
            self.pos += 1;
            let all = self.eat_keyword(Keyword::All);
            links.push((all, self.parse_select_core()?));
        }
        self.depth = depth;
        for (all, mut block) in links.into_iter().rev() {
            block.union = stmt.union.take();
            stmt.union = Some((all, block));
        }
        // ORDER BY / LIMIT bind to the whole union result.
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            stmt.order_by = self.comma_list(|p| {
                let expr = p.parse_expr_bp(0)?;
                let descending = p.eat_keyword(Keyword::Desc);
                if !descending {
                    p.eat_keyword(Keyword::Asc);
                }
                Ok(OrderKey { expr, descending })
            })?;
        }
        if self.eat_keyword(Keyword::Limit) {
            let count = self.take(|t| match t {
                Token::Int(n) => usize::try_from(*n).ok(),
                _ => None,
            });
            stmt.limit =
                Some(count.ok_or_else(|| self.error("expected a non-negative LIMIT count"))?);
        }
        Ok(match explain {
            true => Statement::Explain(*stmt),
            false => Statement::Select(*stmt),
        })
    }

    /// One SELECT block.
    fn parse_select_core(&mut self) -> Boxed<Box<SelectStmt>> {
        self.expect_keyword(Keyword::Select)?;
        let items = self.comma_list(|p| {
            // Bare `*` select item (not COUNT's).
            let expr = match p.eat_symbol(Symbol::Star) {
                true => Expr::Star,
                false => p.parse_expr_bp(0)?,
            };
            Ok(SelectItem {
                expr,
                alias: p.parse_alias()?,
            })
        })?;
        self.expect_keyword(Keyword::From)?;
        let from = self.parse_table_ref()?;
        let where_clause = self.parse_clause(Keyword::Where)?;
        let group_by = match self.eat_keyword(Keyword::Group) {
            true => Some(self.parse_group_by()?),
            false => None,
        };
        let having = self.parse_clause(Keyword::Having)?;
        Ok(Box::new(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by: Vec::new(),
            limit: None,
            union: None,
        }))
    }

    /// One or more `item`s, comma-separated.
    fn comma_list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Boxed<T>) -> Boxed<Vec<T>> {
        let mut list = vec![item(self)?];
        while self.eat_symbol(Symbol::Comma) {
            list.push(item(self)?);
        }
        Ok(list)
    }

    /// `(item, …)`.
    fn parenthesized_list<T>(&mut self, item: impl FnMut(&mut Self) -> Boxed<T>) -> Boxed<Vec<T>> {
        self.expect_symbol(Symbol::LParen)?;
        let list = self.comma_list(item)?;
        self.expect_symbol(Symbol::RParen)?;
        Ok(list)
    }

    /// An optional `AS alias`.
    fn parse_alias(&mut self) -> Boxed<Option<String>> {
        match self.eat_keyword(Keyword::As) {
            true => Ok(Some(self.expect_ident()?)),
            false => Ok(None),
        }
    }

    /// `<keyword> <expression>`, if `keyword` is next: a WHERE or HAVING.
    fn parse_clause(&mut self, keyword: Keyword) -> Boxed<Option<Expr>> {
        match self.eat_keyword(keyword) {
            true => Ok(Some(self.parse_expr_bp(0)?)),
            false => Ok(None),
        }
    }

    fn parse_table_ref(&mut self) -> Boxed<TableRef> {
        let mut left = TableRef::Named(self.expect_ident()?);
        while self.eat_keyword(Keyword::Join) {
            let right = TableRef::Named(self.expect_ident()?);
            self.expect_keyword(Keyword::Using)?;
            left = TableRef::JoinUsing {
                left: Box::new(left),
                right: Box::new(right),
                using: self.parenthesized_list(Self::expect_ident)?,
            };
        }
        Ok(left)
    }

    fn parse_group_by(&mut self) -> Boxed<GroupByClause> {
        self.expect_keyword(Keyword::By)?;
        // GROUPING SETS ((a, b), (a), ()).
        if self.peek() == Some(&Token::Keyword(Keyword::Grouping))
            && self.peek2() == Some(&Token::Keyword(Keyword::Sets))
        {
            self.pos += 2;
            let sets = self.parenthesized_list(|p| {
                let empty = [p.peek(), p.peek2()]
                    == [
                        Some(&Token::Symbol(Symbol::LParen)),
                        Some(&Token::Symbol(Symbol::RParen)),
                    ];
                if empty {
                    p.pos += 2;
                    return Ok(Vec::new());
                }
                p.parenthesized_list(Self::parse_group_expr)
            })?;
            return Ok(GroupByClause {
                grouping_sets: Some(sets),
                ..Default::default()
            });
        }

        // The §3.2 compound form.
        let mut clause = GroupByClause::default();
        if !matches!(
            self.peek(),
            Some(Token::Keyword(Keyword::Rollup)) | Some(Token::Keyword(Keyword::Cube))
        ) {
            clause.plain = self.comma_list(Self::parse_group_expr)?;
        }
        if self.eat_keyword(Keyword::Rollup) {
            clause.rollup = self.comma_list(Self::parse_group_expr)?;
        }
        if self.eat_keyword(Keyword::Cube) {
            clause.cube = self.comma_list(Self::parse_group_expr)?;
        }
        if clause.plain.is_empty() && clause.rollup.is_empty() && clause.cube.is_empty() {
            return Err(self.error("empty GROUP BY clause"));
        }
        Ok(clause)
    }

    fn parse_group_expr(&mut self) -> Boxed<GroupExpr> {
        let expr = self.parse_expr_bp(0)?;
        Ok(GroupExpr {
            expr,
            alias: self.parse_alias()?,
        })
    }

    // ------------------------------------------------------ expressions --

    /// One expression whose infix operators all sit at tier `min_bp` or
    /// above (precedence climbing; 0 takes every tier). A prefix or operand
    /// comes first, then a loop over the infix operators that follow: a run
    /// of one tier's operators becomes one [`Expr::Chain`], each operand
    /// parsed one tier up, so `+` and `-` share a chain whose operands are
    /// `*` chains. A predicate (`=`, `IS`, `IN`, `BETWEEN`, …) takes one
    /// link and only `AND` or `OR` may follow it, so `a = b = c` is an
    /// error; `NOT` binds looser than a predicate and tighter than `AND`,
    /// and `-` tighter than everything.
    fn parse_expr_bp(&mut self, min_bp: u8) -> Boxed<Expr> {
        let (mut lhs, mut ceiling) = self.parse_prefix(min_bp)?;
        while let Some(tier) = self.infix_tier().filter(|t| (min_bp..=ceiling).contains(t)) {
            let infix = match binary_op(self.peek()) {
                Some(_) => self.parse_chain(lhs, tier),
                None => self.parse_predicate_keyword(lhs),
            };
            lhs = infix?;
            ceiling = tier - 1;
        }
        Ok(lhs)
    }

    /// What an expression starts with: a prefix `NOT` (where `min_bp`
    /// admits it) or `-` and its operand, or a primary. Also returns the
    /// tightest tier that may follow: after `NOT`, only `AND` and `OR`.
    /// Each arm is a function of its own, so the frames that nesting
    /// stacks up stay small.
    fn parse_prefix(&mut self, min_bp: u8) -> Boxed<(Expr, u8)> {
        let expr = match self.peek() {
            Some(Token::Keyword(Keyword::Not)) if min_bp <= NOT => {
                return Ok((self.parse_prefixed(NOT, Expr::Not)?, NOT - 1));
            }
            Some(Token::Symbol(Symbol::Minus)) => self.parse_prefixed(PREFIX, Expr::Neg),
            Some(Token::Symbol(Symbol::LParen)) => self.parse_parenthesized(),
            Some(Token::Keyword(Keyword::Grouping)) => self.parse_grouping(),
            Some(Token::Ident(_)) => self.parse_name(),
            _ => self.parse_literal(),
        };
        Ok((expr?, PRODUCT))
    }

    /// A prefix `NOT` or `-` and its operand, parsed at `tier`; `node`
    /// builds the one from the other.
    fn parse_prefixed(&mut self, tier: u8, node: fn(Box<Expr>) -> Expr) -> Boxed<Expr> {
        self.pos += 1;
        self.descend()?;
        let operand = Box::new(self.parse_expr_bp(tier)?);
        self.depth -= 1;
        Ok(node(operand))
    }

    /// The tier of the infix operator or keyword predicate next, if any.
    fn infix_tier(&self) -> Option<u8> {
        match binary_op(self.peek()) {
            Some((_, tier)) => Some(tier),
            None => self.at_predicate_keyword().then_some(PREDICATE),
        }
    }

    /// The links of the `tier` run that `first` heads; a comparison takes
    /// one.
    fn parse_chain(&mut self, first: Expr, tier: u8) -> Boxed<Expr> {
        let mut rest = Vec::new();
        while let Some((op, _)) = binary_op(self.peek()).filter(|&(_, t)| t == tier) {
            self.pos += 1;
            let operand = self.parse_expr_bp(tier + 1)?;
            rest.push((op, operand));
            if tier == PREDICATE {
                break;
            }
        }
        Ok(Expr::Chain {
            first: Box::new(first),
            rest,
        })
    }

    /// Whether a keyword predicate follows: `IS`, `[NOT] BETWEEN`, `[NOT] IN`.
    fn at_predicate_keyword(&self) -> bool {
        let next = match self.peek() {
            Some(Token::Keyword(Keyword::Is)) => return true,
            Some(Token::Keyword(Keyword::Not)) => self.peek2(),
            t => t,
        };
        matches!(next, Some(Token::Keyword(Keyword::Between | Keyword::In)))
    }

    /// The keyword predicate [`Self::at_predicate_keyword`] saw, after its
    /// left operand.
    fn parse_predicate_keyword(&mut self, lhs: Expr) -> Boxed<Expr> {
        let expr = Box::new(lhs);
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull { expr, negated });
        }
        let negated = self.eat_keyword(Keyword::Not);
        match self.eat_keyword(Keyword::Between) {
            true => self.parse_between(expr, negated),
            false => self.parse_in_list(expr, negated),
        }
    }

    fn parse_between(&mut self, expr: Box<Expr>, negated: bool) -> Boxed<Expr> {
        let low = Box::new(self.parse_expr_bp(SUM)?);
        self.expect_keyword(Keyword::And)?;
        let high = Box::new(self.parse_expr_bp(SUM)?);
        Ok(Expr::Between {
            expr,
            low,
            high,
            negated,
        })
    }

    /// `IN (…)`, the list parsed at [`SUM`].
    fn parse_in_list(&mut self, expr: Box<Expr>, negated: bool) -> Boxed<Expr> {
        self.expect_keyword(Keyword::In)?;
        let list = self.parenthesized_list(|p| p.parse_expr_bp(SUM))?;
        Ok(Expr::InList {
            expr,
            list,
            negated,
        })
    }

    fn parse_literal(&mut self) -> Boxed<Expr> {
        let value = match self.peek() {
            Some(Token::Int(i)) => Value::Int(*i),
            Some(Token::Float(x)) => Value::Float(*x),
            Some(Token::Str(s)) => Value::str(s.clone()),
            Some(Token::Keyword(Keyword::Null)) => Value::Null,
            Some(Token::Keyword(Keyword::True)) => Value::Bool(true),
            Some(Token::Keyword(Keyword::False)) => Value::Bool(false),
            _ => return Err(self.error("expected an expression")),
        };
        self.pos += 1;
        Ok(Expr::Literal(value))
    }

    fn parse_grouping(&mut self) -> Boxed<Expr> {
        self.pos += 1;
        self.expect_symbol(Symbol::LParen)?;
        self.descend()?;
        let inner = self.parse_expr_bp(0)?;
        self.depth -= 1;
        self.expect_symbol(Symbol::RParen)?;
        Ok(Expr::Grouping(Box::new(inner)))
    }

    /// A parenthesized expression or a scalar subquery.
    fn parse_parenthesized(&mut self) -> Boxed<Expr> {
        self.pos += 1;
        self.descend()?;
        let inner = match self.peek() {
            Some(Token::Keyword(Keyword::Select)) => {
                self.parse_select_core().map(Expr::ScalarSubquery)
            }
            _ => self.parse_expr_bp(0),
        };
        let inner = inner?;
        self.depth -= 1;
        self.expect_symbol(Symbol::RParen)?;
        Ok(inner)
    }

    /// A call's arguments, after `name(`.
    fn parse_call(&mut self, name: String) -> Boxed<Expr> {
        self.descend()?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let args = if self.eat_symbol(Symbol::Star) {
            vec![Expr::Star]
        } else if self.peek() == Some(&Token::Symbol(Symbol::RParen)) {
            Vec::new()
        } else {
            self.comma_list(|p| p.parse_expr_bp(0))?
        };
        self.depth -= 1;
        self.expect_symbol(Symbol::RParen)?;
        Ok(Expr::Func {
            name,
            distinct,
            args,
        })
    }

    /// A column, qualified column, or function call.
    fn parse_name(&mut self) -> Boxed<Expr> {
        let name = self.expect_ident()?;
        if self.eat_symbol(Symbol::LParen) {
            return self.parse_call(name);
        }
        // Qualified column?
        if self.eat_symbol(Symbol::Dot) {
            let col = self.expect_ident()?;
            return Ok(Expr::Column {
                qualifier: Some(name),
                name: col,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected plain SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_paper_cube_query() {
        // §3's weather example, modulo the Country → Nation rename.
        let s = select(
            "SELECT day, nation, MAX(Temp)
             FROM Weather
             GROUP BY Day(Time) AS day
                 CUBE Nation(Latitude, Longitude) AS nation;",
        );
        let g = s.group_by.unwrap();
        assert_eq!(g.plain.len(), 1);
        assert_eq!(g.plain[0].alias.as_deref(), Some("day"));
        assert_eq!(g.cube.len(), 1);
        assert_eq!(g.cube[0].alias.as_deref(), Some("nation"));
    }

    #[test]
    fn parses_group_by_cube_list() {
        let s = select("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model, Year, Color");
        let g = s.group_by.unwrap();
        assert!(g.plain.is_empty());
        assert_eq!(g.cube.len(), 3);
    }

    #[test]
    fn parses_figure_5_compound() {
        let s = select(
            "SELECT Manufacturer, SUM(price) AS Revenue FROM Sales
             GROUP BY Manufacturer
             ROLLUP Year(Time) AS Year, Month(Time) AS Month, Day(Time) AS Day
             CUBE Color, Model",
        );
        let g = s.group_by.unwrap();
        assert_eq!(g.plain.len(), 1);
        assert_eq!(g.rollup.len(), 3);
        assert_eq!(g.cube.len(), 2);
        assert_eq!(s.items[1].alias.as_deref(), Some("Revenue"));
    }

    #[test]
    fn parses_grouping_sets() {
        let s = select("SELECT a, b, SUM(x) FROM t GROUP BY GROUPING SETS ((a, b), (a), ())");
        let g = s.group_by.unwrap();
        let sets = g.grouping_sets.unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 2);
        assert!(sets[2].is_empty());
    }

    #[test]
    fn parses_union_chain_with_order_by() {
        // §2's hand-written roll-up shape.
        let s = select(
            "SELECT 'ALL', SUM(Sales) FROM Sales
             UNION SELECT Model, SUM(Sales) FROM Sales GROUP BY Model
             UNION ALL SELECT Model, Sales FROM Sales
             ORDER BY 1 DESC",
        );
        let (all1, u1) = s.union.as_ref().unwrap();
        assert!(!all1);
        let (all2, _) = u1.union.as_ref().unwrap();
        assert!(all2);
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].descending);
    }

    #[test]
    fn parses_where_between_in() {
        let s = select(
            "SELECT SUM(Sales) FROM Sales
             WHERE Model IN ('Ford', 'Chevy') AND Year BETWEEN 1990 AND 1992
               AND Color IS NOT NULL AND NOT (Units < 0)",
        );
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_scalar_subquery() {
        let s = select(
            "SELECT Model, SUM(Sales) / (SELECT SUM(Sales) FROM Sales) FROM Sales GROUP BY Model",
        );
        match &s.items[1].expr {
            Expr::Chain { rest, .. } => {
                assert!(matches!(rest[..], [(BinOp::Div, Expr::ScalarSubquery(_))]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_grouping_function_and_count_star() {
        let s = select(
            "SELECT Model, COUNT(*), COUNT(DISTINCT Color), GROUPING(Model)
             FROM Sales GROUP BY CUBE Model",
        );
        assert!(matches!(&s.items[1].expr, Expr::Func { args, .. } if args == &[Expr::Star]));
        assert!(matches!(
            &s.items[2].expr,
            Expr::Func { distinct: true, .. }
        ));
        assert!(matches!(&s.items[3].expr, Expr::Grouping(_)));
    }

    #[test]
    fn parses_join_using() {
        let s = select(
            "SELECT department.name, SUM(sales) FROM sales JOIN department
             USING (department_number) GROUP BY department_number",
        );
        assert!(matches!(s.from, TableRef::JoinUsing { .. }));
        match &s.items[0].expr {
            Expr::Column {
                qualifier: Some(q),
                name,
            } => {
                assert_eq!(q, "department");
                assert_eq!(name, "name");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_name_the_offender() {
        match parse("SELECT FROM t") {
            Err(SqlError::Parse { near, .. }) => assert_eq!(near, "FROM"),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("SELECT a FROM t GROUP BY").is_err());
        assert!(parse("SELECT a FROM t WHERE a NOT 3").is_err());
        assert!(parse("SELECT a FROM t extra junk").is_err());
    }

    #[test]
    fn insert_parses_multi_row_values() {
        let stmt =
            parse("INSERT INTO sales VALUES ('Ford', 1995, 10), ('Chevy', 1994, -5);").unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!("expected INSERT, got {stmt:?}");
        };
        assert_eq!(table, "sales");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 3);
        assert_eq!(rows[0][0], Expr::Literal(Value::str("Ford")));
        // Negative literals come through the unary-minus expression path.
        assert!(matches!(rows[1][2], Expr::Neg(_)));
    }

    #[test]
    fn delete_parses_with_and_without_predicate() {
        let stmt = parse("DELETE FROM sales WHERE model = 'Ford'").unwrap();
        let Statement::Delete {
            table,
            where_clause,
        } = stmt
        else {
            panic!("expected DELETE, got {stmt:?}");
        };
        assert_eq!(table, "sales");
        assert_eq!(ops(&where_clause.unwrap()), [BinOp::Eq]);
        assert!(matches!(
            parse("DELETE FROM sales").unwrap(),
            Statement::Delete {
                where_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn update_parses_set_list_and_predicate() {
        let stmt =
            parse("UPDATE sales SET units = units + 1, year = 1996 WHERE model = 'Ford'").unwrap();
        let Statement::Update {
            table,
            sets,
            where_clause,
        } = stmt
        else {
            panic!("expected UPDATE, got {stmt:?}");
        };
        assert_eq!(table, "sales");
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].0, "units");
        assert_eq!(ops(&sets[0].1), [BinOp::Add]);
        assert_eq!(sets[1].0, "year");
        assert_eq!(sets[1].1, Expr::Literal(Value::Int(1996)));
        assert_eq!(ops(&where_clause.unwrap()), [BinOp::Eq]);
        assert!(matches!(
            parse("UPDATE sales SET units = 0").unwrap(),
            Statement::Update {
                where_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn malformed_dml_is_rejected() {
        assert!(parse("INSERT sales VALUES (1)").is_err()); // missing INTO
        assert!(parse("INSERT INTO sales (1, 2)").is_err()); // missing VALUES
        assert!(parse("INSERT INTO sales VALUES 1, 2").is_err()); // bare list
        assert!(parse("INSERT INTO sales VALUES ()").is_err()); // empty row
        assert!(parse("DELETE sales").is_err()); // missing FROM
        assert!(parse("DELETE FROM sales WHERE").is_err()); // dangling WHERE
        assert!(parse("UPDATE sales units = 1").is_err()); // missing SET
        assert!(parse("UPDATE sales SET").is_err()); // empty SET list
        assert!(parse("UPDATE sales SET units 1").is_err()); // missing =
        assert!(parse("UPDATE sales SET units = 1 WHERE").is_err()); // dangling WHERE
    }

    /// The operators of a chain's links, in order.
    fn ops(e: &Expr) -> Vec<BinOp> {
        match e {
            Expr::Chain { rest, .. } => rest.iter().map(|(op, _)| *op).collect(),
            other => panic!("not a chain: {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        // a + (b * c)
        let s = select("SELECT a + b * c FROM t");
        let Expr::Chain { rest, .. } = &s.items[0].expr else {
            panic!("unexpected {:?}", s.items[0].expr);
        };
        assert_eq!(rest[0].0, BinOp::Add);
        assert_eq!(ops(&rest[0].1), [BinOp::Mul]);
        // a OR (b AND c)
        let s = select("SELECT a OR b AND c FROM t");
        let Expr::Chain { rest, .. } = &s.items[0].expr else {
            panic!("unexpected {:?}", s.items[0].expr);
        };
        assert_eq!(rest[0].0, BinOp::Or);
        assert_eq!(ops(&rest[0].1), [BinOp::And]);
    }

    /// A run of one tier's operators is one node, however long; the
    /// predicates do not associate.
    #[test]
    fn a_run_of_one_tier_is_one_chain() {
        let s = select("SELECT a - b + c - d FROM t");
        assert_eq!(ops(&s.items[0].expr), [BinOp::Sub, BinOp::Add, BinOp::Sub]);
        let terms = vec!["x = 1"; MAX_DEPTH * 10].join(" OR ");
        let s = select(&format!("SELECT a FROM t WHERE {terms}"));
        assert_eq!(ops(&s.where_clause.unwrap()).len(), MAX_DEPTH * 10 - 1);
        for sql in [
            "SELECT a = b = c FROM t",
            "SELECT a IS NULL = TRUE FROM t",
            "SELECT a IN (1) IS NULL FROM t",
            "SELECT a BETWEEN 1 AND 2 < 3 FROM t",
            "SELECT NOT a = 1 = 2 FROM t",
            "SELECT a IS NULL + 1 FROM t",
        ] {
            assert!(parse(sql).is_err(), "{sql}");
        }
    }

    /// An error names the token the parser stopped at, as written.
    #[test]
    fn parse_errors_name_the_token_they_stop_at() {
        for (sql, near, message) in [
            ("SELECT a FROM", "<end of input>", "expected identifier"),
            ("UPDATE t SET", "<end of input>", "expected identifier"),
            (
                "SELECT a FROM t JOIN",
                "<end of input>",
                "expected identifier",
            ),
            ("SET", "<end of input>", "expected identifier"),
            (
                "SET threads = x",
                "x",
                "expected an integer option value (or ON/OFF)",
            ),
            (
                "SELECT a FROM t LIMIT -1",
                "-",
                "expected a non-negative LIMIT count",
            ),
            (
                "SELECT a FROM t LIMIT x",
                "x",
                "expected a non-negative LIMIT count",
            ),
            ("SELECT a = b = c FROM t", "=", "expected FROM"),
            ("SELECT a FROM t GROUP a", "a", "expected BY"),
            ("SELECT a + NOT b FROM t", "NOT", "expected an expression"),
        ] {
            match parse(sql) {
                Err(SqlError::Parse {
                    near: n,
                    message: m,
                }) => {
                    assert_eq!((n.as_str(), m.as_str()), (near, message), "{sql}");
                }
                other => panic!("{sql}: expected a parse error, got {other:?}"),
            }
        }
    }
}
