//! Recursive-descent parser for the SQL subset.
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

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::token::{tokenize, Keyword, Symbol, Token};
use dc_relation::Value;

/// Parse one statement.
pub fn parse(sql: &str) -> SqlResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.eat_symbol(Symbol::Semicolon);
    if !p.at_end() {
        return Err(p.error("trailing input after statement"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
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

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: &str) -> SqlError {
        let near = self
            .peek()
            .map(ToString::to_string)
            .unwrap_or_else(|| "<end of input>".into());
        SqlError::Parse {
            near,
            message: message.into(),
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == Some(&Token::Keyword(k)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> SqlResult<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {k:?}")))
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

    fn expect_symbol(&mut self, s: Symbol) -> SqlResult<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", Token::Symbol(s))))
        }
    }

    fn expect_ident(&mut self) -> SqlResult<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected identifier"))
            }
        }
    }

    // ------------------------------------------------------- statements --

    fn parse_statement(&mut self) -> SqlResult<Statement> {
        if self.eat_keyword(Keyword::Set) {
            let name = self.expect_ident()?;
            // `SET CUBE_CACHE ON` reads better than `= 1`, so the `=` is
            // optional and ON/OFF are accepted alongside integers.
            self.eat_symbol(Symbol::Eq);
            let negative = self.eat_symbol(Symbol::Minus);
            let value = match self.next() {
                Some(Token::Int(n)) => {
                    if negative {
                        -n
                    } else {
                        n
                    }
                }
                Some(Token::Keyword(Keyword::On)) if !negative => 1,
                Some(Token::Ident(word)) if !negative && word.eq_ignore_ascii_case("OFF") => 0,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected an integer option value (or ON/OFF)"));
                }
            };
            return Ok(Statement::Set { name, value });
        }
        if self.eat_keyword(Keyword::Insert) {
            self.expect_keyword(Keyword::Into)?;
            let table = self.expect_ident()?;
            self.expect_keyword(Keyword::Values)?;
            let mut rows = Vec::new();
            loop {
                self.expect_symbol(Symbol::LParen)?;
                let mut vals = vec![self.parse_expr()?];
                while self.eat_symbol(Symbol::Comma) {
                    vals.push(self.parse_expr()?);
                }
                self.expect_symbol(Symbol::RParen)?;
                rows.push(vals);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert { table, rows });
        }
        if self.eat_keyword(Keyword::Delete) {
            self.expect_keyword(Keyword::From)?;
            let table = self.expect_ident()?;
            let where_clause = if self.eat_keyword(Keyword::Where) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete {
                table,
                where_clause,
            });
        }
        if self.eat_keyword(Keyword::Update) {
            let table = self.expect_ident()?;
            self.expect_keyword(Keyword::Set)?;
            let mut sets = Vec::new();
            loop {
                let column = self.expect_ident()?;
                self.expect_symbol(Symbol::Eq)?;
                sets.push((column, self.parse_expr()?));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            let where_clause = if self.eat_keyword(Keyword::Where) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                sets,
                where_clause,
            });
        }
        let explain = self.eat_keyword(Keyword::Explain);
        let mut stmt = self.parse_select_core()?;
        // UNION chain, left-to-right.
        while self.peek() == Some(&Token::Keyword(Keyword::Union)) {
            self.pos += 1;
            let all = self.eat_keyword(Keyword::All);
            let rhs = self.parse_select_core()?;
            // Append at the end of the chain.
            let mut cursor = &mut stmt;
            while cursor.union.is_some() {
                // cube-lint: allow(panic, is_some checked by the loop condition; NLL cannot see it)
                cursor = &mut cursor.union.as_mut().unwrap().1;
            }
            cursor.union = Some((all, Box::new(rhs)));
        }
        // ORDER BY / LIMIT bind to the whole union result.
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let descending = if self.eat_keyword(Keyword::Desc) {
                    true
                } else {
                    self.eat_keyword(Keyword::Asc);
                    false
                };
                stmt.order_by.push(OrderKey { expr, descending });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword(Keyword::Limit) {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => stmt.limit = Some(n as usize),
                _ => return Err(self.error("expected a non-negative LIMIT count")),
            }
        }
        Ok(if explain {
            Statement::Explain(stmt)
        } else {
            Statement::Select(stmt)
        })
    }

    fn parse_select_core(&mut self) -> SqlResult<SelectStmt> {
        self.expect_keyword(Keyword::Select)?;
        let mut items = Vec::new();
        loop {
            // Bare `*` select item (not COUNT's).
            let expr = if self.peek() == Some(&Token::Symbol(Symbol::Star)) {
                self.pos += 1;
                Expr::Star
            } else {
                self.parse_expr()?
            };
            let alias = if self.eat_keyword(Keyword::As) {
                Some(self.expect_ident()?)
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_keyword(Keyword::From)?;
        let from = self.parse_table_ref()?;
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let group_by = if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            Some(self.parse_group_by()?)
        } else {
            None
        };
        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by: Vec::new(),
            limit: None,
            union: None,
        })
    }

    fn parse_table_ref(&mut self) -> SqlResult<TableRef> {
        let mut left = TableRef::Named(self.expect_ident()?);
        while self.eat_keyword(Keyword::Join) {
            let right = TableRef::Named(self.expect_ident()?);
            self.expect_keyword(Keyword::Using)?;
            self.expect_symbol(Symbol::LParen)?;
            let mut using = vec![self.expect_ident()?];
            while self.eat_symbol(Symbol::Comma) {
                using.push(self.expect_ident()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            left = TableRef::JoinUsing {
                left: Box::new(left),
                right: Box::new(right),
                using,
            };
        }
        Ok(left)
    }

    fn parse_group_by(&mut self) -> SqlResult<GroupByClause> {
        // GROUPING SETS ((a, b), (a), ()).
        if self.peek() == Some(&Token::Keyword(Keyword::Grouping))
            && self.peek2() == Some(&Token::Keyword(Keyword::Sets))
        {
            self.pos += 2;
            self.expect_symbol(Symbol::LParen)?;
            let mut sets = Vec::new();
            loop {
                self.expect_symbol(Symbol::LParen)?;
                let mut set = Vec::new();
                if self.peek() != Some(&Token::Symbol(Symbol::RParen)) {
                    loop {
                        set.push(self.parse_group_expr()?);
                        if !self.eat_symbol(Symbol::Comma) {
                            break;
                        }
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                sets.push(set);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
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
            clause.plain = self.parse_group_list()?;
        }
        if self.eat_keyword(Keyword::Rollup) {
            clause.rollup = self.parse_group_list()?;
        }
        if self.eat_keyword(Keyword::Cube) {
            clause.cube = self.parse_group_list()?;
        }
        if clause.plain.is_empty() && clause.rollup.is_empty() && clause.cube.is_empty() {
            return Err(self.error("empty GROUP BY clause"));
        }
        Ok(clause)
    }

    fn parse_group_list(&mut self) -> SqlResult<Vec<GroupExpr>> {
        let mut list = vec![self.parse_group_expr()?];
        while self.eat_symbol(Symbol::Comma) {
            list.push(self.parse_group_expr()?);
        }
        Ok(list)
    }

    fn parse_group_expr(&mut self) -> SqlResult<GroupExpr> {
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(GroupExpr { expr, alias })
    }

    // ------------------------------------------------------ expressions --

    fn parse_expr(&mut self) -> SqlResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let rhs = self.parse_not()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> SqlResult<Expr> {
        if self.eat_keyword(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_predicate()
        }
    }

    fn parse_predicate(&mut self) -> SqlResult<Expr> {
        let lhs = self.parse_addsub()?;
        // IS [NOT] NULL
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] BETWEEN / IN
        let negated = if self.peek() == Some(&Token::Keyword(Keyword::Not))
            && matches!(
                self.peek2(),
                Some(Token::Keyword(Keyword::Between)) | Some(Token::Keyword(Keyword::In))
            ) {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_addsub()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_addsub()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword(Keyword::In) {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.parse_addsub()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.parse_addsub()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.error("expected BETWEEN or IN after NOT"));
        }
        // Comparison.
        let op = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Symbol::Neq)) => Some(BinOp::Neq),
            Some(Token::Symbol(Symbol::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Symbol::Lte)) => Some(BinOp::Lte),
            Some(Token::Symbol(Symbol::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Symbol::Gte)) => Some(BinOp::Gte),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_addsub()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_addsub(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.parse_muldiv()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Plus)) => BinOp::Add,
                Some(Token::Symbol(Symbol::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_muldiv()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_muldiv(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Star)) => BinOp::Mul,
                Some(Token::Symbol(Symbol::Slash)) => BinOp::Div,
                Some(Token::Symbol(Symbol::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> SqlResult<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> SqlResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::str(s)))
            }
            Some(Token::Keyword(Keyword::Null)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Keyword(Keyword::True)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(Token::Keyword(Keyword::False)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Some(Token::Keyword(Keyword::Grouping)) => {
                self.pos += 1;
                self.expect_symbol(Symbol::LParen)?;
                let inner = self.parse_expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(Expr::Grouping(Box::new(inner)))
            }
            Some(Token::Symbol(Symbol::LParen)) => {
                self.pos += 1;
                if self.peek() == Some(&Token::Keyword(Keyword::Select)) {
                    let sub = self.parse_select_core()?;
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(sub)));
                }
                let inner = self.parse_expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                // Function call?
                if self.peek() == Some(&Token::Symbol(Symbol::LParen)) {
                    self.pos += 1;
                    let distinct = self.eat_keyword(Keyword::Distinct);
                    let mut args = Vec::new();
                    if self.peek() == Some(&Token::Symbol(Symbol::Star)) {
                        self.pos += 1;
                        args.push(Expr::Star);
                    } else if self.peek() != Some(&Token::Symbol(Symbol::RParen)) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_symbol(Symbol::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::Func {
                        name,
                        distinct,
                        args,
                    });
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
            _ => Err(self.error("expected an expression")),
        }
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
            Expr::Binary {
                op: BinOp::Div,
                rhs,
                ..
            } => {
                assert!(matches!(**rhs, Expr::ScalarSubquery(_)));
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
            Err(SqlError::Parse { near, .. }) => assert_eq!(near, "From"),
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
        assert!(matches!(
            where_clause,
            Some(Expr::Binary { op: BinOp::Eq, .. })
        ));
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
        assert!(matches!(sets[0].1, Expr::Binary { op: BinOp::Add, .. }));
        assert_eq!(sets[1].0, "year");
        assert_eq!(sets[1].1, Expr::Literal(Value::Int(1996)));
        assert!(matches!(
            where_clause,
            Some(Expr::Binary { op: BinOp::Eq, .. })
        ));
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

    #[test]
    fn operator_precedence() {
        let s = select("SELECT a + b * c FROM t");
        // a + (b * c)
        match &s.items[0].expr {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = select("SELECT a OR b AND c FROM t");
        match &s.items[0].expr {
            Expr::Binary {
                op: BinOp::Or, rhs, ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
