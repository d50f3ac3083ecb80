//! Recursive-descent parser producing the [`crate::ast`] types.

use crate::ast::*;
use crate::diag::{CompileError, Pos};
use crate::token::{Keyword, Punct, Token, TokenKind};
use bop_clir::types::AddressSpace;

/// The deepest nesting the parser accepts. Each nested statement,
/// each expression entered (the whole right-hand side, a parenthesised or
/// indexed sub-expression, a call argument, a ternary arm), each prefix
/// operator and each link of a left-deep binary or postfix chain counts
/// one level. The bound keeps every AST — and so the recursion of
/// lowering, the passes and `Drop` over it — within a 2 MiB stack even
/// in unoptimised builds, where one statement level of the parser takes
/// about 15 KiB of stack.
pub const MAX_NESTING: usize = 100;

/// Parse a token stream into a [`Unit`].
///
/// # Errors
/// Returns a [`CompileError`] on the first syntax error, or where the
/// source nests deeper than [`MAX_NESTING`].
pub fn parse(tokens: &[Token]) -> Result<Unit, CompileError> {
    let mut p = Parser { tokens, at: 0, depth: 0 };
    p.unit()
}

struct Parser<'t> {
    tokens: &'t [Token],
    at: usize,
    /// Nesting levels open at the cursor (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> &Token {
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn pos(&self) -> Pos {
        self.peek().pos
    }

    fn bump(&mut self) -> &Token {
        let t = &self.tokens[self.at.min(self.tokens.len() - 1)];
        if self.at < self.tokens.len() - 1 {
            self.at += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek_kind() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek_kind() == &TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found {}", p.spelling(), self.peek_kind())))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Pos), CompileError> {
        let pos = self.pos();
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, pos))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn error(&self, msg: impl Into<String>) -> CompileError {
        CompileError::single(self.pos(), msg)
    }

    /// Open one more nesting level, rejecting the source past
    /// [`MAX_NESTING`] before the recursion gets deep. The caller closes
    /// the level on success; an error ends the parse, so it need not.
    fn deeper(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting exceeds the limit of {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    // ---- types -----------------------------------------------------------

    fn peek_type(&self) -> Option<CType> {
        match self.peek_kind() {
            TokenKind::Keyword(k) => keyword_type(*k),
            _ => None,
        }
    }

    fn parse_type(&mut self) -> Result<CType, CompileError> {
        match self.peek_type() {
            Some(t) => {
                self.bump();
                Ok(t)
            }
            None => Err(self.error(format!("expected a type, found {}", self.peek_kind()))),
        }
    }

    // ---- top level ---------------------------------------------------------

    fn unit(&mut self) -> Result<Unit, CompileError> {
        let mut functions = Vec::new();
        loop {
            // Stray pragmas at top level are ignored.
            while matches!(self.peek_kind(), TokenKind::PragmaUnroll(_)) {
                self.bump();
            }
            if self.peek_kind() == &TokenKind::Eof {
                return Ok(Unit { functions });
            }
            functions.push(self.function()?);
        }
    }

    fn function(&mut self) -> Result<FunctionDef, CompileError> {
        let is_kernel = self.eat_keyword(Keyword::Kernel);
        let ret = self.parse_type()?;
        let (name, pos) = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                params.push(self.param()?);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        Ok(FunctionDef { pos, is_kernel, ret, name, params, body })
    }

    fn param(&mut self) -> Result<ParamDecl, CompileError> {
        let mut space = None;
        // Leading qualifiers in any order.
        loop {
            match self.peek_kind() {
                TokenKind::Keyword(Keyword::Global) => {
                    space = Some(AddressSpace::Global);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Local) => {
                    space = Some(AddressSpace::Local);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Constant) => {
                    space = Some(AddressSpace::Constant);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Private) => {
                    space = Some(AddressSpace::Private);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Const)
                | TokenKind::Keyword(Keyword::Restrict)
                | TokenKind::Keyword(Keyword::ReadOnly)
                | TokenKind::Keyword(Keyword::WriteOnly) => {
                    self.bump();
                }
                _ => break,
            }
        }
        // `pipe T name`: an on-chip FIFO endpoint, not a pointer.
        if self.eat_keyword(Keyword::Pipe) {
            if space.is_some() {
                return Err(self.error("pipe parameters take no address-space qualifier"));
            }
            let base = self.parse_type()?;
            if self.eat_punct(Punct::Star) {
                return Err(self.error("pipe parameters are not pointers; write `pipe T name`"));
            }
            let (name, pos) = self.expect_ident()?;
            return Ok(ParamDecl { pos, space: None, base, is_ptr: false, is_pipe: true, name });
        }
        let base = self.parse_type()?;
        let is_ptr = self.eat_punct(Punct::Star);
        // Trailing qualifiers after `*`.
        while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Restrict) {}
        let (name, pos) = self.expect_ident()?;
        Ok(ParamDecl { pos, space, base, is_ptr, is_pipe: false, name })
    }

    // ---- statements --------------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek_kind() == &TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block (missing `}`?)"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.deeper()?;
        let stmt = self.unguarded_stmt()?;
        self.depth -= 1;
        Ok(stmt)
    }

    fn unguarded_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        // `#pragma unroll` binds to the following `for`.
        if let TokenKind::PragmaUnroll(factor) = self.peek_kind().clone() {
            self.bump();
            let next = self.stmt()?;
            return match next.kind {
                StmtKind::For { init, cond, step, body, .. } => Ok(Stmt {
                    pos,
                    kind: StmtKind::For { init, cond, step, body, unroll: Some(factor) },
                }),
                _ => Err(CompileError::single(pos, "#pragma unroll must precede a `for` loop")),
            };
        }
        match self.peek_kind().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt { pos, kind: StmtKind::Block(self.block_body()?) })
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt { pos, kind: StmtKind::Empty })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt { pos, kind: StmtKind::If { cond, then, els } })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt { pos, kind: StmtKind::While { cond, body } })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                if !self.eat_keyword(Keyword::While) {
                    return Err(self.error("expected `while` after `do` body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt { pos, kind: StmtKind::DoWhile { body, cond } })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else if self.peek_type().is_some()
                    || self.peek_kind() == &TokenKind::Keyword(Keyword::Const)
                {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(Box::new(Stmt { pos, kind: StmtKind::Expr(e) }))
                };
                let cond = if self.peek_kind() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.peek_kind() == &TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt { pos, kind: StmtKind::For { init, cond, step, body, unroll: None } })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek_kind() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt { pos, kind: StmtKind::Return(value) })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt { pos, kind: StmtKind::Break })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt { pos, kind: StmtKind::Continue })
            }
            TokenKind::Keyword(k) if keyword_type(k).is_some() || k == Keyword::Const => {
                self.decl_stmt()
            }
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt { pos, kind: StmtKind::Expr(e) })
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        while self.eat_keyword(Keyword::Const) {}
        let ty = self.parse_type()?;
        if ty == CType::Void {
            return Err(CompileError::single(pos, "cannot declare a variable of type `void`"));
        }
        let mut items = Vec::new();
        loop {
            let (name, ipos) = self.expect_ident()?;
            let array = if self.eat_punct(Punct::LBracket) {
                let n = match self.peek_kind().clone() {
                    TokenKind::IntLit(n) if n > 0 => {
                        self.bump();
                        n as usize
                    }
                    other => {
                        return Err(self.error(format!(
                            "array size must be a positive integer literal, found {other}"
                        )))
                    }
                };
                self.expect_punct(Punct::RBracket)?;
                Some(n)
            } else {
                None
            };
            let init = if self.eat_punct(Punct::Assign) {
                if array.is_some() {
                    return Err(self.error("array initialisers are not supported"));
                }
                Some(self.expr()?)
            } else {
                None
            };
            items.push(DeclItem { name, array, init, pos: ipos });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt { pos, kind: StmtKind::Decl { ty, items } })
    }

    // ---- expressions --------------------------------------------------------
    // C precedence ladder, from the top.

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.deeper()?;
        let expr = self.assignment()?;
        self.depth -= 1;
        Ok(expr)
    }

    fn assignment(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.ternary()?;
        let op = match self.peek_kind() {
            TokenKind::Punct(Punct::Assign) => AssignOp::Assign,
            TokenKind::Punct(Punct::PlusAssign) => AssignOp::Add,
            TokenKind::Punct(Punct::MinusAssign) => AssignOp::Sub,
            TokenKind::Punct(Punct::StarAssign) => AssignOp::Mul,
            TokenKind::Punct(Punct::SlashAssign) => AssignOp::Div,
            TokenKind::Punct(Punct::PercentAssign) => AssignOp::Rem,
            _ => return Ok(lhs),
        };
        let pos = self.pos();
        self.bump();
        let rhs = self.expr()?; // right-associative
        Ok(Expr { pos, kind: ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) } })
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary(0)?;
        if !self.eat_punct(Punct::Question) {
            return Ok(cond);
        }
        let pos = cond.pos;
        let then = self.expr()?;
        self.expect_punct(Punct::Colon)?;
        self.deeper()?;
        let els = self.ternary()?;
        self.depth -= 1;
        Ok(Expr {
            pos,
            kind: ExprKind::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
        })
    }

    /// Binary operators by precedence-climbing. `min_prec` is the minimum
    /// precedence accepted at this level.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binary_op(self.peek_kind()) {
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.bump();
            // Each link deepens the left-deep tree by one level.
            self.deeper()?;
            let rhs = self.binary(prec + 1)?;
            lhs =
                Expr { pos, kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) } };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        let prefix: fn(Box<Expr>) -> ExprKind = match self.peek_kind() {
            TokenKind::Punct(Punct::Minus) => |expr| ExprKind::Unary { op: UnaryOp::Neg, expr },
            TokenKind::Punct(Punct::Plus) => |expr| ExprKind::Unary { op: UnaryOp::Plus, expr },
            TokenKind::Punct(Punct::Not) => |expr| ExprKind::Unary { op: UnaryOp::Not, expr },
            TokenKind::Punct(Punct::Tilde) => |expr| ExprKind::Unary { op: UnaryOp::BitNot, expr },
            TokenKind::Punct(Punct::PlusPlus) => |expr| ExprKind::PreIncDec { expr, inc: true },
            TokenKind::Punct(Punct::MinusMinus) => |expr| ExprKind::PreIncDec { expr, inc: false },
            // Cast: `(` type `)` unary — distinguished from parenthesised
            // expressions by the type keyword.
            TokenKind::Punct(Punct::LParen)
                if matches!(
                    self.tokens.get(self.at + 1).map(|t| &t.kind),
                    Some(TokenKind::Keyword(k)) if keyword_type(*k).is_some()
                ) =>
            {
                self.bump();
                let ty = self.parse_type()?;
                self.expect_punct(Punct::RParen)?;
                self.deeper()?;
                let e = self.unary()?;
                self.depth -= 1;
                return Ok(Expr { pos, kind: ExprKind::Cast { ty, expr: Box::new(e) } });
            }
            _ => return self.postfix(),
        };
        self.bump();
        self.deeper()?;
        let e = self.unary()?;
        self.depth -= 1;
        Ok(Expr { pos, kind: prefix(Box::new(e)) })
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut e = self.primary()?;
        loop {
            let pos = self.pos();
            match self.peek_kind().clone() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    e = Expr {
                        pos,
                        kind: ExprKind::Index { base: Box::new(e), index: Box::new(index) },
                    };
                }
                TokenKind::Punct(Punct::LParen) => {
                    let ExprKind::Ident(name) = e.kind.clone() else {
                        return Err(self.error("only named functions can be called"));
                    };
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    e = Expr { pos: e.pos, kind: ExprKind::Call { name, args } };
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    e = Expr { pos, kind: ExprKind::PostIncDec { expr: Box::new(e), inc: true } };
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    e = Expr { pos, kind: ExprKind::PostIncDec { expr: Box::new(e), inc: false } };
                }
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            }
            // Each link deepens the left-deep tree by one level.
            self.deeper()?;
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        match self.peek_kind().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr { pos, kind: ExprKind::IntLit(v) })
            }
            TokenKind::FloatLit(v, f32_suffix) => {
                self.bump();
                Ok(Expr { pos, kind: ExprKind::FloatLit(v, f32_suffix) })
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(Expr { pos, kind: ExprKind::BoolLit(true) })
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(Expr { pos, kind: ExprKind::BoolLit(false) })
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr { pos, kind: ExprKind::Ident(name) })
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }
}

fn keyword_type(k: Keyword) -> Option<CType> {
    Some(match k {
        Keyword::Void => CType::Void,
        Keyword::Bool => CType::Bool,
        Keyword::Int => CType::Int,
        Keyword::Uint => CType::Uint,
        Keyword::Long => CType::Long,
        Keyword::Ulong => CType::Ulong,
        Keyword::SizeT => CType::SizeT,
        Keyword::Float => CType::Float,
        Keyword::Double => CType::Double,
        _ => return None,
    })
}

/// Binary operator and its precedence (higher binds tighter).
fn binary_op(kind: &TokenKind) -> Option<(BinaryOp, u8)> {
    let TokenKind::Punct(p) = kind else { return None };
    Some(match p {
        Punct::OrOr => (BinaryOp::LogOr, 1),
        Punct::AndAnd => (BinaryOp::LogAnd, 2),
        Punct::Pipe => (BinaryOp::BitOr, 3),
        Punct::Caret => (BinaryOp::BitXor, 4),
        Punct::Amp => (BinaryOp::BitAnd, 5),
        Punct::Eq => (BinaryOp::Eq, 6),
        Punct::Ne => (BinaryOp::Ne, 6),
        Punct::Lt => (BinaryOp::Lt, 7),
        Punct::Le => (BinaryOp::Le, 7),
        Punct::Gt => (BinaryOp::Gt, 7),
        Punct::Ge => (BinaryOp::Ge, 7),
        Punct::Shl => (BinaryOp::Shl, 8),
        Punct::Shr => (BinaryOp::Shr, 8),
        Punct::Plus => (BinaryOp::Add, 9),
        Punct::Minus => (BinaryOp::Sub, 9),
        Punct::Star => (BinaryOp::Mul, 10),
        Punct::Slash => (BinaryOp::Div, 10),
        Punct::Percent => (BinaryOp::Rem, 10),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Unit {
        parse(&lex(src).expect("lexes")).expect("parses")
    }

    fn parse_expr(src: &str) -> Expr {
        let unit = parse_src(&format!("__kernel void k(__global double* o) {{ o[0] = {src}; }}"));
        match &unit.functions[0].body[0].kind {
            StmtKind::Expr(Expr { kind: ExprKind::Assign { rhs, .. }, .. }) => (**rhs).clone(),
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn kernel_signature() {
        let u = parse_src(
            "__kernel void k(__global const double* restrict in, __local double* v, int n) {}",
        );
        let f = &u.functions[0];
        assert!(f.is_kernel);
        assert_eq!(f.name, "k");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].space, Some(AddressSpace::Global));
        assert!(f.params[0].is_ptr);
        assert_eq!(f.params[1].space, Some(AddressSpace::Local));
        assert_eq!(f.params[2].space, None);
        assert!(!f.params[2].is_ptr);
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3");
        let ExprKind::Binary { op: BinaryOp::Add, rhs, .. } = e.kind else {
            panic!("expected add at top: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn precedence_shift_vs_relational() {
        // C: `a < b << c` parses as `a < (b << c)`.
        let e = parse_expr("1 < 2 << 3");
        let ExprKind::Binary { op: BinaryOp::Lt, rhs, .. } = e.kind else { panic!("{e:?}") };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinaryOp::Shl, .. }));
    }

    #[test]
    fn ternary_and_assignment_are_right_associative() {
        let u =
            parse_src("__kernel void k(__global double* o) { double a; double b; a = b = 1.0; }");
        let StmtKind::Expr(e) = &u.functions[0].body[2].kind else { panic!() };
        let ExprKind::Assign { rhs, .. } = &e.kind else { panic!() };
        assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
        let e = parse_expr("1 ? 2.0 : 0 ? 3.0 : 4.0");
        let ExprKind::Ternary { els, .. } = e.kind else { panic!() };
        assert!(matches!(els.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn cast_vs_parenthesised_expression() {
        let e = parse_expr("(double)(1 + 2)");
        assert!(matches!(e.kind, ExprKind::Cast { ty: CType::Double, .. }));
        let e = parse_expr("(1 + 2) * 3");
        assert!(matches!(e.kind, ExprKind::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn for_loop_with_pragma() {
        let u = parse_src(
            "__kernel void k(__global double* o) {
                #pragma unroll 2
                for (int t = 0; t < 10; t++) { o[t] = 0.0; }
            }",
        );
        let StmtKind::For { unroll, init, cond, step, .. } = &u.functions[0].body[0].kind else {
            panic!()
        };
        assert_eq!(*unroll, Some(Some(2)));
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(step.is_some());
    }

    #[test]
    fn pragma_must_precede_for() {
        let toks = lex("__kernel void k(__global double* o) { #pragma unroll 2\n o[0] = 1.0; }")
            .expect("lexes");
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn declarations_with_arrays_and_multiple_items() {
        let u = parse_src("__kernel void k(__global double* o) { double a = 1.0, b, tmp[4]; }");
        let StmtKind::Decl { ty, items } = &u.functions[0].body[0].kind else { panic!() };
        assert_eq!(*ty, CType::Double);
        assert_eq!(items.len(), 3);
        assert!(items[0].init.is_some());
        assert_eq!(items[2].array, Some(4));
    }

    #[test]
    fn array_initialiser_rejected() {
        let toks =
            lex("__kernel void k(__global double* o) { double t[2] = 0.0; }").expect("lexes");
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn if_else_binds_to_nearest() {
        let u = parse_src(
            "__kernel void k(__global double* o) { if (1) if (0) o[0] = 1.0; else o[0] = 2.0; }",
        );
        let StmtKind::If { els, then, .. } = &u.functions[0].body[0].kind else { panic!() };
        assert!(els.is_none(), "outer if has no else");
        let StmtKind::If { els, .. } = &then.kind else { panic!() };
        assert!(els.is_some(), "inner if owns the else");
    }

    #[test]
    fn calls_and_indexing_chain() {
        let e = parse_expr("pow(u, (double)(2 * 3))");
        let ExprKind::Call { name, args } = e.kind else { panic!() };
        assert_eq!(name, "pow");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn inc_dec_forms() {
        let u = parse_src("__kernel void k(__global double* o) { int i = 0; i++; ++i; i--; --i; }");
        assert!(matches!(
            &u.functions[0].body[1].kind,
            StmtKind::Expr(Expr { kind: ExprKind::PostIncDec { inc: true, .. }, .. })
        ));
        assert!(matches!(
            &u.functions[0].body[2].kind,
            StmtKind::Expr(Expr { kind: ExprKind::PreIncDec { inc: true, .. }, .. })
        ));
    }

    #[test]
    fn missing_semicolon_reports_position() {
        let toks = lex("__kernel void k(__global double* o) { o[0] = 1.0 }").expect("lexes");
        let err = parse(&toks).expect_err("parse error");
        assert!(err.to_string().contains("expected `;`"));
    }

    #[test]
    fn empty_for_clauses() {
        let u = parse_src("__kernel void k(__global double* o) { for (;;) { break; } }");
        let StmtKind::For { init, cond, step, .. } = &u.functions[0].body[0].kind else { panic!() };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }
}
