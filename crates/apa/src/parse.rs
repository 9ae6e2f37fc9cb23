//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::lex::{lex_spanned, Keyword, LexError, Punct, Token};
use std::fmt;

/// A parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Token index of the error (not byte offset).
    pub at: usize,
    /// Source location of the offending token (NONE when unavailable).
    pub span: Span,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(f, "parse error at {}: {}", self.span, self.message)
        } else {
            write!(f, "parse error at token {}: {}", self.at, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { at: 0, span: Span::NONE, message: e.to_string() }
    }
}

struct Parser {
    toks: Vec<Token>,
    spans: Vec<Span>,
    pos: usize,
    next_malloc_site: u32,
    next_free_site: u32,
}

/// Parses a MiniC program from source text.
///
/// # Errors
/// Returns a [`ParseError`] with the offending token index on malformed
/// input.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let (toks, spans) = lex_spanned(src)?;
    let mut p =
        Parser { toks, spans, pos: 0, next_malloc_site: 0, next_free_site: 0 };
    p.program()
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    /// Span of the token about to be consumed (NONE at end of input).
    fn here(&self) -> Span {
        self.spans.get(self.pos).copied().unwrap_or(Span::NONE)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let span = self
            .spans
            .get(self.pos.min(self.spans.len().saturating_sub(1)))
            .copied()
            .unwrap_or(Span::NONE);
        Err(ParseError { at: self.pos, span, message: message.into() })
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token::Punct(q)) if q == p => Ok(()),
            other => self.err(format!("expected `{p:?}`, found {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&Token::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        while let Some(tok) = self.peek() {
            match tok {
                Token::Keyword(Keyword::Struct) => {
                    self.bump();
                    prog.structs.push(self.struct_def()?);
                }
                Token::Keyword(Keyword::Global) => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect_punct(Punct::Colon)?;
                    let ty = self.ty()?;
                    self.expect_punct(Punct::Semi)?;
                    prog.globals.push((name, ty));
                }
                Token::Keyword(Keyword::Fn) => {
                    self.bump();
                    prog.funcs.push(self.func_def()?);
                }
                other => return self.err(format!("expected item, found {other}")),
            }
        }
        Ok(prog)
    }

    fn struct_def(&mut self) -> Result<StructDef, ParseError> {
        let name = self.ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != Some(&Token::Punct(Punct::RBrace)) {
            let fname = self.ident()?;
            self.expect_punct(Punct::Colon)?;
            let ty = self.ty()?;
            fields.push((fname, ty));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(StructDef { name, fields })
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        match self.bump() {
            Some(Token::Keyword(Keyword::Int)) => Ok(Type::Int),
            Some(Token::Keyword(Keyword::Ptr)) => {
                self.expect_punct(Punct::Lt)?;
                let name = self.ident()?;
                self.expect_punct(Punct::Gt)?;
                Ok(Type::Ptr(name))
            }
            other => self.err(format!("expected type, found {other:?}")),
        }
    }

    fn func_def(&mut self) -> Result<FuncDef, ParseError> {
        let name = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        while self.peek() != Some(&Token::Punct(Punct::RParen)) {
            let pname = self.ident()?;
            self.expect_punct(Punct::Colon)?;
            let ty = self.ty()?;
            params.push((pname, ty));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        let ret = if self.eat_punct(Punct::Minus) {
            // `->` is lexed as Arrow; a lone `-` here is an error.
            return self.err("expected `->` or `{` after parameter list");
        } else if self.peek() == Some(&Token::Punct(Punct::Arrow)) {
            self.bump();
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FuncDef { name, params, pool_params: Vec::new(), ret, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::Punct(Punct::RBrace)) {
            if self.peek().is_none() {
                return self.err("unterminated block");
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::Var)) => {
                self.bump();
                let name = self.ident()?;
                self.expect_punct(Punct::Colon)?;
                let ty = self.ty()?;
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::VarDecl { name, ty, init })
            }
            Some(Token::Keyword(Keyword::Free)) => {
                let span = self.here();
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                let site = self.next_free_site;
                self.next_free_site += 1;
                Ok(Stmt::Free { expr: e, pool: None, site, unchecked: false, span })
            }
            Some(Token::Keyword(Keyword::If)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = self.block()?;
                let els = if self.peek() == Some(&Token::Keyword(Keyword::Else)) {
                    self.bump();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            Some(Token::Keyword(Keyword::While)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Token::Keyword(Keyword::Return)) => {
                self.bump();
                let e = if self.peek() == Some(&Token::Punct(Punct::Semi)) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return(e))
            }
            Some(Token::Keyword(Keyword::Print)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Print(e))
            }
            _ => {
                // Assignment or expression statement: parse an expression,
                // then look for `=`.
                let e = self.expr()?;
                if self.eat_punct(Punct::Assign) {
                    let lhs = match e {
                        Expr::Var(name) => LValue::Var(name),
                        Expr::Field { base, field, span } => {
                            LValue::Field { base: *base, field, span }
                        }
                        _ => return self.err("invalid assignment target"),
                    };
                    let rhs = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Assign { lhs, rhs })
                } else {
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::ExprStmt(e))
                }
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary(0)
    }

    fn binary(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, level) = match self.peek() {
                Some(Token::Punct(Punct::OrOr)) => (BinOp::Or, 1),
                Some(Token::Punct(Punct::AndAnd)) => (BinOp::And, 2),
                Some(Token::Punct(Punct::EqEq)) => (BinOp::Eq, 3),
                Some(Token::Punct(Punct::Ne)) => (BinOp::Ne, 3),
                Some(Token::Punct(Punct::Lt)) => (BinOp::Lt, 4),
                Some(Token::Punct(Punct::Le)) => (BinOp::Le, 4),
                Some(Token::Punct(Punct::Gt)) => (BinOp::Gt, 4),
                Some(Token::Punct(Punct::Ge)) => (BinOp::Ge, 4),
                Some(Token::Punct(Punct::Plus)) => (BinOp::Add, 5),
                Some(Token::Punct(Punct::Minus)) => (BinOp::Sub, 5),
                Some(Token::Punct(Punct::Star)) => (BinOp::Mul, 6),
                Some(Token::Punct(Punct::Slash)) => (BinOp::Div, 6),
                Some(Token::Punct(Punct::Percent)) => (BinOp::Rem, 6),
                _ => break,
            };
            if level < min_level {
                break;
            }
            self.bump();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct(Punct::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Binary {
                op: BinOp::Sub,
                lhs: Box::new(Expr::Int(0)),
                rhs: Box::new(inner),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            let span = self.here();
            if self.eat_punct(Punct::Arrow) {
                let field = self.ident()?;
                e = Expr::Field { base: Box::new(e), field, span };
            } else if self.eat_punct(Punct::LBracket) {
                let index = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                e = Expr::Index { base: Box::new(e), index: Box::new(index) };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.here();
        match self.bump() {
            Some(Token::Int(v)) => Ok(Expr::Int(v)),
            Some(Token::Keyword(Keyword::Null)) => Ok(Expr::Null),
            Some(Token::Keyword(Keyword::Malloc)) => {
                self.expect_punct(Punct::LParen)?;
                let struct_name = self.ident()?;
                self.expect_punct(Punct::RParen)?;
                let site = self.next_malloc_site;
                self.next_malloc_site += 1;
                Ok(Expr::Malloc {
                    struct_name,
                    pool: None,
                    site,
                    unchecked: false,
                    span,
                })
            }
            Some(Token::Keyword(Keyword::MallocArray)) => {
                self.expect_punct(Punct::LParen)?;
                let struct_name = self.ident()?;
                self.expect_punct(Punct::Comma)?;
                let count = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let site = self.next_malloc_site;
                self.next_malloc_site += 1;
                Ok(Expr::MallocArray {
                    struct_name,
                    count: Box::new(count),
                    pool: None,
                    site,
                    unchecked: false,
                    span,
                })
            }
            Some(Token::Punct(Punct::LParen)) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::Punct(Punct::LParen)) {
                    self.bump();
                    let mut args = Vec::new();
                    while self.peek() != Some(&Token::Punct(Punct::RParen)) {
                        args.push(self.expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    Ok(Expr::Call { callee: name, args, pool_args: Vec::new(), span })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

/// The paper's Figure 1 running example, as MiniC source. `f` builds a
/// 10-node list through `g`, `g` frees all but the head, and `f`
/// dereferences `p->next->val` — the dangling error.
pub const FIGURE_1: &str = r#"
struct s { next: ptr<s>, val: int }

fn create_10_node_list(p: ptr<s>) {
    var i: int = 0;
    var cur: ptr<s> = p;
    while (i < 9) {
        cur->next = malloc(s);
        cur = cur->next;
        i = i + 1;
    }
    cur->next = null;
}

fn initialize(p: ptr<s>) {
    var cur: ptr<s> = p;
    var i: int = 0;
    while (cur != null) {
        cur->val = i;
        cur = cur->next;
        i = i + 1;
    }
}

fn h(p: ptr<s>) -> int {
    var sum: int = 0;
    var cur: ptr<s> = p;
    while (cur != null) {
        sum = sum + cur->val;
        cur = cur->next;
    }
    return sum;
}

fn free_all_but_head(p: ptr<s>) {
    var cur: ptr<s> = p->next;
    while (cur != null) {
        var nxt: ptr<s> = cur->next;
        free(cur);
        cur = nxt;
    }
}

fn g(p: ptr<s>) {
    create_10_node_list(p);
    initialize(p);
    print(h(p));
    free_all_but_head(p);
}

fn f() {
    var p: ptr<s> = malloc(s);
    g(p);
    p->next->val = 7; // p->next is dangling
}

fn main() {
    f();
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::walk_exprs;

    /// Every allocation-site id of `prog`, in source order.
    fn malloc_sites(prog: &Program) -> Vec<u32> {
        let mut sites = Vec::new();
        for f in &prog.funcs {
            walk_exprs(&f.body, &mut |e| {
                if let Expr::Malloc { site, .. } | Expr::MallocArray { site, .. } = e {
                    sites.push(*site);
                }
            });
        }
        sites
    }

    #[test]
    fn parses_figure_one() {
        let prog = parse(FIGURE_1).unwrap();
        assert_eq!(prog.structs.len(), 1);
        assert_eq!(prog.structs[0].size(), 16);
        assert_eq!(prog.funcs.len(), 7);
        assert!(prog.func("main").is_some());
        assert_eq!(malloc_sites(&prog), [0, 1]);
    }

    #[test]
    fn parses_globals() {
        let prog = parse("struct s { v: int } global head: ptr<s>; fn main() {}").unwrap();
        assert_eq!(prog.globals, vec![("head".into(), Type::Ptr("s".into()))]);
    }

    #[test]
    fn precedence() {
        let prog = parse("fn main() { print(1 + 2 * 3 < 7 && 1); }").unwrap();
        // ((1 + (2*3)) < 7) && 1
        let Stmt::Print(e) = &prog.funcs[0].body[0] else { panic!() };
        let Expr::Binary { op: BinOp::And, lhs, .. } = e else {
            panic!("top must be &&: {e:?}")
        };
        let Expr::Binary { op: BinOp::Lt, .. } = **lhs else {
            panic!("lhs must be <")
        };
    }

    #[test]
    fn unary_minus() {
        let prog = parse("fn main() { print(-5); }").unwrap();
        let Stmt::Print(Expr::Binary { op: BinOp::Sub, .. }) = &prog.funcs[0].body[0] else {
            panic!()
        };
    }

    #[test]
    fn field_chains() {
        let prog = parse("struct s { next: ptr<s>, val: int } fn main() { var p: ptr<s> = null; p->next->val = 3; }").unwrap();
        let Stmt::Assign { lhs: LValue::Field { base, field, .. }, .. } = &prog.funcs[0].body[1]
        else {
            panic!()
        };
        assert_eq!(field, "val");
        assert!(matches!(base, Expr::Field { .. }));
    }

    #[test]
    fn call_statement_and_arguments() {
        let prog = parse("fn g(a: int, b: int) {} fn main() { g(1, 2); }").unwrap();
        let Stmt::ExprStmt(Expr::Call { callee, args, .. }) = &prog.funcs[1].body[0] else {
            panic!()
        };
        assert_eq!(callee, "g");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn malloc_sites_are_unique() {
        let prog = parse(
            "struct s { v: int } fn main() { var a: ptr<s> = malloc(s); var b: ptr<s> = malloc(s); }",
        )
        .unwrap();
        assert_eq!(malloc_sites(&prog), [0, 1]);
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("fn main( {").unwrap_err();
        assert!(err.at > 0);
        assert!(!err.to_string().is_empty());
        assert!(parse("fn main() { var x: bogus; }").is_err());
        assert!(parse("fn main() { 1 + ; }").is_err());
        assert!(parse("fn main() { (1 = 2); }").is_err());
    }

    #[test]
    fn spans_point_at_source_lines() {
        let prog = parse(
            "struct s { v: int }\nfn main() {\n    var p: ptr<s> = malloc(s);\n    free(p);\n    print(p->v);\n}",
        )
        .unwrap();
        let body = &prog.funcs[0].body;
        let Stmt::VarDecl { init: Some(Expr::Malloc { span: m, .. }), .. } = &body[0]
        else {
            panic!()
        };
        assert_eq!((m.line, m.col), (3, 21));
        let Stmt::Free { span: f, .. } = &body[1] else { panic!() };
        assert_eq!((f.line, f.col), (4, 5));
        let Stmt::Print(Expr::Field { span: u, .. }) = &body[2] else { panic!() };
        assert_eq!(u.line, 5);
        let err = parse("fn main() {\n  var x: bogus;\n}").unwrap_err();
        assert!(err.to_string().contains("2:"), "{err}");
    }

    #[test]
    fn return_with_and_without_value() {
        let prog = parse("fn a() -> int { return 3; } fn b() { return; }").unwrap();
        assert_eq!(prog.funcs[0].ret, Some(Type::Int));
        assert!(matches!(prog.funcs[0].body[0], Stmt::Return(Some(_))));
        assert!(matches!(prog.funcs[1].body[0], Stmt::Return(None)));
    }
}
