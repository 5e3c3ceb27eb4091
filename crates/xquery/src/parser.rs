//! Recursive-descent parser for the XQuery subset.
//!
//! One-token lookahead over [`crate::lexer::Lexer`], with two XQuery
//! peculiarities handled explicitly:
//!
//! * keywords are contextual — `for` only starts a FLWOR when followed by
//!   a `$variable`, otherwise it is an element name test;
//! * direct element constructors switch the parser into raw mode at a `<`
//!   that is directly followed by a name in operand position; enclosed
//!   `{ expr }` blocks recursively re-enter token mode.
//!
//! The parser builds the plan IR ([`crate::plan`]) directly: literals
//! are constants, steps are tree or StandOff steps, and every call is a
//! [`PlanExpr::BuiltinCall`] until [`crate::compile::resolve`] binds it.

use std::sync::Arc;

use standoff_algebra::{KindTest, NodeTest, TreeAxis};
use standoff_core::{StandoffAxis, StandoffConfig, StandoffStrategy};

use crate::error::QueryError;
use crate::lexer::{Lexer, Token, TokenKind};
use crate::plan::*;

/// Parse a complete query (prolog + body) into an unresolved plan.
pub fn parse_query(input: &str) -> Result<Plan, QueryError> {
    let mut p = Parser::new(input)?;
    let mut plan = Plan {
        options: Vec::new(),
        config: StandoffConfig::default(),
        externals: Vec::new(),
        globals: Vec::new(),
        functions: Vec::new(),
        body: PlanExpr::empty(),
        passes: Vec::new(),
    };
    p.parse_prolog(&mut plan)?;
    plan.body = p.parse_expr()?;
    p.expect_eof()?;
    Ok(plan)
}

/// An axis in a path step: the thirteen XPath tree axes or one of the
/// paper's four StandOff axes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Axis {
    Tree(TreeAxis),
    Standoff(StandoffAxis),
}

impl Axis {
    fn parse(name: &str) -> Option<Axis> {
        if let Some(s) = StandoffAxis::parse(name) {
            return Some(Axis::Standoff(s));
        }
        let t = match name {
            "child" => TreeAxis::Child,
            "descendant" => TreeAxis::Descendant,
            "descendant-or-self" => TreeAxis::DescendantOrSelf,
            "self" => TreeAxis::SelfAxis,
            "parent" => TreeAxis::Parent,
            "ancestor" => TreeAxis::Ancestor,
            "ancestor-or-self" => TreeAxis::AncestorOrSelf,
            "following-sibling" => TreeAxis::FollowingSibling,
            "preceding-sibling" => TreeAxis::PrecedingSibling,
            "following" => TreeAxis::Following,
            "preceding" => TreeAxis::Preceding,
            "attribute" => TreeAxis::Attribute,
            _ => return None,
        };
        Some(Axis::Tree(t))
    }
}

/// The step `input/axis::test[predicates]`; a StandOff step carries the
/// placeholder strategy until the resolve step stamps the engine's.
fn axis_step(
    input: Option<PlanExpr>,
    axis: Axis,
    test: NodeTest,
    predicates: Vec<PlanExpr>,
) -> PlanExpr {
    let input = input.map(Box::new);
    match axis {
        Axis::Tree(axis) => PlanExpr::TreeStep {
            input,
            axis,
            test,
            predicates,
        },
        Axis::Standoff(axis) => PlanExpr::StandoffStep {
            input,
            op: StandoffOp::new(axis, StandoffStrategy::LoopLiftedMergeJoin),
            test,
            predicates,
        },
    }
}

/// `input/descendant-or-self::node()` — what `//` abbreviates.
fn descendant_or_self(input: PlanExpr) -> PlanExpr {
    axis_step(
        Some(input),
        Axis::Tree(TreeAxis::DescendantOrSelf),
        NodeTest::any_node(),
        Vec::new(),
    )
}

/// Maximum expression / constructor nesting depth. The parser is
/// recursive-descent, so without a bound a hostile query like
/// `((((((…` would exhaust the thread stack and abort the process —
/// an abort no `catch_unwind` can contain. One nesting level costs
/// ~16 parser frames (the whole precedence chain), so the limit must
/// stay comfortably inside a 2 MiB worker-thread stack even in debug
/// builds; realistic queries nest far below it either way.
const MAX_NESTING_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    lexer: Lexer<'a>,
    current: Token,
    peeked: Option<Token>,
    /// Current expression/constructor nesting depth (see
    /// [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, QueryError> {
        let mut lexer = Lexer::new(input);
        let current = lexer.next_token()?;
        Ok(Parser {
            input,
            lexer,
            current,
            peeked: None,
            depth: 0,
        })
    }

    fn enter_nested(&mut self) -> Result<(), QueryError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "query nests deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn leave_nested(&mut self) {
        self.depth -= 1;
    }

    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError::parse(msg, self.input, self.current.offset)
    }

    fn advance(&mut self) -> Result<(), QueryError> {
        self.current = match self.peeked.take() {
            Some(t) => t,
            None => self.lexer.next_token()?,
        };
        Ok(())
    }

    fn peek(&mut self) -> Result<&TokenKind, QueryError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_token()?);
        }
        Ok(&self.peeked.as_ref().unwrap().kind)
    }

    fn eat(&mut self, kind: &TokenKind) -> Result<bool, QueryError> {
        if &self.current.kind == kind {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), QueryError> {
        if &self.current.kind == kind {
            self.advance()
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.current.kind)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<bool, QueryError> {
        if self.current.kind.is_name(kw) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_keyword(kw)? {
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}', found {:?}", self.current.kind)))
        }
    }

    fn expect_name(&mut self, what: &str) -> Result<String, QueryError> {
        match &self.current.kind {
            TokenKind::Name(n) => {
                let n = n.clone();
                self.advance()?;
                Ok(n)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String, QueryError> {
        match &self.current.kind {
            TokenKind::Str(s) => {
                let s = s.clone();
                self.advance()?;
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_variable(&mut self) -> Result<String, QueryError> {
        match &self.current.kind {
            TokenKind::Variable(v) => {
                let v = v.clone();
                self.advance()?;
                Ok(v)
            }
            other => Err(self.err(format!("expected a $variable, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), QueryError> {
        if self.current.kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing input: {:?}",
                self.current.kind
            )))
        }
    }

    // ----- prolog -----

    fn parse_prolog(&mut self, plan: &mut Plan) -> Result<(), QueryError> {
        while self.current.kind.is_name("declare") {
            let next = match self.peek()? {
                TokenKind::Name(n) => Some(n.clone()),
                _ => None,
            };
            match next {
                Some(n) => match n.as_str() {
                    "option" => {
                        self.advance()?; // declare
                        self.advance()?; // option
                        let name = self.expect_name("option name")?;
                        let value = self.expect_string("option value")?;
                        plan.options.push((name, value));
                    }
                    "namespace" | "module" => {
                        self.advance()?;
                        self.advance()?;
                        // `declare module namespace p = "uri"` also occurs.
                        // Names are compared lexically, so the binding is
                        // checked for form and dropped.
                        let _ = self.eat_keyword("namespace")?;
                        self.expect_name("namespace prefix")?;
                        self.expect(&TokenKind::Eq, "'='")?;
                        self.expect_string("namespace URI")?;
                    }
                    "variable" => {
                        self.advance()?;
                        self.advance()?;
                        let var = self.expect_variable()?;
                        self.skip_type_annotation()?;
                        if self.eat_keyword("external")? {
                            plan.externals.push(var);
                        } else {
                            self.expect(&TokenKind::ColonEq, "':='")?;
                            let value = self.parse_expr_single()?;
                            plan.globals.push((var, value));
                        }
                    }
                    "function" => {
                        self.advance()?;
                        self.advance()?;
                        let decl = self.parse_function_decl()?;
                        plan.functions.push(Arc::new(decl));
                    }
                    "boundary-space" | "ordering" | "construction" | "copy-namespaces"
                    | "default" | "base-uri" => {
                        // Accepted and ignored: consume tokens up to the
                        // declaration separator.
                        self.advance()?;
                        while !matches!(self.current.kind, TokenKind::Semicolon | TokenKind::Eof)
                            && !self.current.kind.is_name("declare")
                        {
                            self.advance()?;
                        }
                    }
                    other => {
                        return Err(self.err(format!("unsupported declaration 'declare {other}'")))
                    }
                },
                None => break, // `declare` as an element name in the body
            }
            // The XQuery separator `;` — optional here because the paper's
            // Figure 2/3 listings omit it.
            let _ = self.eat(&TokenKind::Semicolon)?;
        }
        Ok(())
    }

    fn parse_function_decl(&mut self) -> Result<PlanFunction, QueryError> {
        let name = self.expect_name("function name")?;
        self.expect(&TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if self.current.kind != TokenKind::RParen {
            loop {
                let p = self.expect_variable()?;
                self.skip_type_annotation()?;
                params.push(p);
                if !self.eat(&TokenKind::Comma)? {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;
        self.skip_type_annotation()?;
        self.expect(&TokenKind::LBrace, "'{'")?;
        let body = self.parse_expr()?;
        self.expect(&TokenKind::RBrace, "'}'")?;
        Ok(PlanFunction { name, params, body })
    }

    /// `as xs:anyNode*` etc. — parsed and discarded (the engine is
    /// dynamically typed).
    fn skip_type_annotation(&mut self) -> Result<(), QueryError> {
        if self.eat_keyword("as")? {
            self.expect_name("type name")?;
            // Occurrence indicator and kind-test parentheses.
            if self.eat(&TokenKind::LParen)? {
                self.expect(&TokenKind::RParen, "')'")?;
            }
            let _ = self.eat(&TokenKind::Star)?
                || self.eat(&TokenKind::Plus)?
                || self.eat(&TokenKind::Question)?;
        }
        Ok(())
    }

    // ----- expressions -----

    fn parse_expr(&mut self) -> Result<PlanExpr, QueryError> {
        let first = self.parse_expr_single()?;
        if self.current.kind != TokenKind::Comma {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&TokenKind::Comma)? {
            items.push(self.parse_expr_single()?);
        }
        Ok(PlanExpr::Sequence(items))
    }

    fn parse_expr_single(&mut self) -> Result<PlanExpr, QueryError> {
        self.enter_nested()?;
        let result = self.parse_expr_single_inner();
        self.leave_nested();
        result
    }

    fn parse_expr_single_inner(&mut self) -> Result<PlanExpr, QueryError> {
        // Contextual keywords: only treat as control flow when the next
        // token fits (otherwise they are path steps).
        if (self.current.kind.is_name("for") || self.current.kind.is_name("let"))
            && matches!(self.peek()?, TokenKind::Variable(_))
        {
            return self.parse_flwor();
        }
        if (self.current.kind.is_name("some") || self.current.kind.is_name("every"))
            && matches!(self.peek()?, TokenKind::Variable(_))
        {
            return self.parse_quantified();
        }
        if self.current.kind.is_name("if") && *self.peek()? == TokenKind::LParen {
            return self.parse_if();
        }
        self.parse_binary(0)
    }

    fn parse_flwor(&mut self) -> Result<PlanExpr, QueryError> {
        let mut clauses = Vec::new();
        loop {
            if self.current.kind.is_name("for") && matches!(self.peek()?, TokenKind::Variable(_)) {
                self.advance()?;
                loop {
                    let var = self.expect_variable()?;
                    self.skip_type_annotation()?;
                    let at = if self.eat_keyword("at")? {
                        Some(self.expect_variable()?)
                    } else {
                        None
                    };
                    self.expect_keyword("in")?;
                    let seq = self.parse_expr_single()?;
                    clauses.push(PlanClause::For { var, at, seq });
                    if !self.eat(&TokenKind::Comma)? {
                        break;
                    }
                }
            } else if self.current.kind.is_name("let")
                && matches!(self.peek()?, TokenKind::Variable(_))
            {
                self.advance()?;
                loop {
                    let var = self.expect_variable()?;
                    self.skip_type_annotation()?;
                    self.expect(&TokenKind::ColonEq, "':='")?;
                    let value = self.parse_expr_single()?;
                    clauses.push(PlanClause::Let { var, value });
                    if !self.eat(&TokenKind::Comma)? {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        let where_clause = if self.eat_keyword("where")? {
            Some(Box::new(self.parse_expr_single()?))
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.current.kind.is_name("order") {
            self.advance()?;
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr_single()?;
                let descending = if self.eat_keyword("descending")? {
                    true
                } else {
                    let _ = self.eat_keyword("ascending")?;
                    false
                };
                // `empty greatest/least` accepted and ignored.
                if self.eat_keyword("empty")? {
                    let _ = self.eat_keyword("greatest")? || self.eat_keyword("least")?;
                }
                order_by.push(PlanOrderKey { expr, descending });
                if !self.eat(&TokenKind::Comma)? {
                    break;
                }
            }
        }
        self.expect_keyword("return")?;
        let return_clause = Box::new(self.parse_expr_single()?);
        Ok(PlanExpr::Flwor {
            hoisted: Vec::new(),
            clauses,
            where_clause,
            order_by,
            return_clause,
        })
    }

    fn parse_quantified(&mut self) -> Result<PlanExpr, QueryError> {
        let every = self.current.kind.is_name("every");
        self.advance()?;
        let mut bindings = Vec::new();
        loop {
            let var = self.expect_variable()?;
            self.skip_type_annotation()?;
            self.expect_keyword("in")?;
            let seq = self.parse_expr_single()?;
            bindings.push((var, seq));
            if !self.eat(&TokenKind::Comma)? {
                break;
            }
        }
        self.expect_keyword("satisfies")?;
        let satisfies = Box::new(self.parse_expr_single()?);
        Ok(PlanExpr::Quantified {
            every,
            bindings,
            satisfies,
        })
    }

    fn parse_if(&mut self) -> Result<PlanExpr, QueryError> {
        self.advance()?; // if
        self.expect(&TokenKind::LParen, "'('")?;
        let cond = Box::new(self.parse_expr()?);
        self.expect(&TokenKind::RParen, "')'")?;
        self.expect_keyword("then")?;
        let then_branch = Box::new(self.parse_expr_single()?);
        self.expect_keyword("else")?;
        let else_branch = Box::new(self.parse_expr_single()?);
        Ok(PlanExpr::IfThenElse {
            cond,
            then_branch,
            else_branch,
        })
    }

    /// The binary operators by precedence climbing: `parse_binary(p)`
    /// parses an operand and then every operator that binds at least as
    /// tightly as `p`. Comparisons and ranges do not chain (`1 = 2 = 3`
    /// stops at the second `=`), and the operand of anything looser than
    /// unary minus may carry signs.
    fn parse_binary(&mut self, min: u8) -> Result<PlanExpr, QueryError> {
        let mut left = if min <= UNARY {
            self.parse_unary()?
        } else {
            self.parse_path()?
        };
        let mut limit = u8::MAX;
        while let Some((prec, op)) = binary_op(&self.current.kind) {
            if prec < min || prec > limit {
                break;
            }
            self.advance()?;
            let right = Box::new(self.parse_binary(prec + 1)?);
            let left_box = Box::new(left);
            left = match op {
                BinOp::Or => PlanExpr::Or(left_box, right),
                BinOp::And => PlanExpr::And(left_box, right),
                BinOp::Comp(op) => PlanExpr::Comparison(op, left_box, right),
                BinOp::Range => PlanExpr::Range(left_box, right),
                BinOp::Arith(op) => PlanExpr::Arith(op, left_box, right),
                BinOp::Union => PlanExpr::Union(left_box, right),
                BinOp::Intersect => PlanExpr::Intersect(left_box, right),
                BinOp::Except => PlanExpr::Except(left_box, right),
            };
            limit = if matches!(op, BinOp::Comp(_) | BinOp::Range) {
                prec - 1
            } else {
                prec
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<PlanExpr, QueryError> {
        // `----1` recurses per sign without passing parse_expr_single,
        // so it carries its own depth guard.
        if self.eat(&TokenKind::Minus)? {
            self.enter_nested()?;
            let inner = self.parse_unary();
            self.leave_nested();
            return Ok(PlanExpr::Neg(Box::new(inner?)));
        }
        if self.eat(&TokenKind::Plus)? {
            self.enter_nested()?;
            let inner = self.parse_unary();
            self.leave_nested();
            return inner;
        }
        self.parse_binary(UNARY + 1)
    }

    // ----- paths -----

    fn parse_path(&mut self) -> Result<PlanExpr, QueryError> {
        match self.current.kind {
            TokenKind::Slash => {
                self.advance()?;
                if self.starts_step() {
                    self.parse_relative_path(PlanExpr::RootPath)
                } else {
                    Ok(PlanExpr::RootPath)
                }
            }
            TokenKind::DoubleSlash => {
                self.advance()?;
                self.parse_relative_path(descendant_or_self(PlanExpr::RootPath))
            }
            _ => {
                let first = self.parse_step_expr(None)?;
                self.parse_relative_path_continue(first)
            }
        }
    }

    /// Does the current token begin a path step?
    fn starts_step(&self) -> bool {
        matches!(
            self.current.kind,
            TokenKind::Name(_)
                | TokenKind::Star
                | TokenKind::At
                | TokenKind::Dot
                | TokenKind::DotDot
                | TokenKind::Variable(_)
                | TokenKind::LParen
        )
    }

    fn parse_relative_path(&mut self, input: PlanExpr) -> Result<PlanExpr, QueryError> {
        let first = self.parse_step_expr(Some(input))?;
        self.parse_relative_path_continue(first)
    }

    fn parse_relative_path_continue(&mut self, mut left: PlanExpr) -> Result<PlanExpr, QueryError> {
        loop {
            match self.current.kind {
                TokenKind::Slash => {
                    self.advance()?;
                    left = self.parse_step_expr(Some(left))?;
                }
                TokenKind::DoubleSlash => {
                    self.advance()?;
                    left = self.parse_step_expr(Some(descendant_or_self(left)))?;
                }
                _ => return Ok(left),
            }
        }
    }

    /// One step of a path: an axis step, or a postfix (primary +
    /// predicates) expression. `input` is the expression the step applies
    /// to (`None` → context item).
    fn parse_step_expr(&mut self, input: Option<PlanExpr>) -> Result<PlanExpr, QueryError> {
        // Abbreviations and axis steps.
        let cur = self.current.kind.clone();
        let step = match &cur {
            TokenKind::DotDot => {
                self.advance()?;
                Some((Axis::Tree(TreeAxis::Parent), NodeTest::any_node()))
            }
            TokenKind::At => {
                self.advance()?;
                let test = self.parse_node_test(true)?;
                Some((Axis::Tree(TreeAxis::Attribute), test))
            }
            TokenKind::Name(name) if *self.peek()? == TokenKind::ColonColon => {
                let axis =
                    Axis::parse(name).ok_or_else(|| self.err(format!("unknown axis '{name}'")))?;
                self.advance()?; // axis
                self.advance()?; // ::
                let is_attr = axis == Axis::Tree(TreeAxis::Attribute);
                let test = self.parse_node_test(is_attr)?;
                Some((axis, test))
            }
            TokenKind::Name(name) => {
                // Name test (child axis) — unless this is a function call
                // or kind test.
                if *self.peek()? == TokenKind::LParen {
                    if let Some(kind) = kind_test_of(name) {
                        let test = self.parse_kind_test(kind)?;
                        Some((Axis::Tree(TreeAxis::Child), test))
                    } else {
                        None // function call → postfix expression
                    }
                } else {
                    let test = NodeTest::named(name.clone());
                    self.advance()?;
                    Some((Axis::Tree(TreeAxis::Child), test))
                }
            }
            TokenKind::Star => {
                self.advance()?;
                Some((Axis::Tree(TreeAxis::Child), NodeTest::any_element()))
            }
            _ => None,
        };

        match step {
            Some((axis, test)) => {
                let predicates = self.parse_predicates()?;
                Ok(axis_step(input, axis, test, predicates))
            }
            None => {
                // Postfix expression: primary + predicates.
                let primary = self.parse_primary()?;
                let mut expr = primary;
                while self.current.kind == TokenKind::LBracket {
                    self.advance()?;
                    let predicate = self.parse_expr()?;
                    self.expect(&TokenKind::RBracket, "']'")?;
                    expr = PlanExpr::Filter {
                        input: Box::new(expr),
                        predicate: Box::new(predicate),
                    };
                }
                match input {
                    None => Ok(expr),
                    Some(input) => Ok(PlanExpr::PathExpr {
                        input: Box::new(input),
                        step: Box::new(expr),
                    }),
                }
            }
        }
    }

    fn parse_predicates(&mut self) -> Result<Vec<PlanExpr>, QueryError> {
        let mut predicates = Vec::new();
        while self.eat(&TokenKind::LBracket)? {
            predicates.push(self.parse_expr()?);
            self.expect(&TokenKind::RBracket, "']'")?;
        }
        Ok(predicates)
    }

    fn parse_node_test(&mut self, attribute_axis: bool) -> Result<NodeTest, QueryError> {
        let cur = self.current.kind.clone();
        match &cur {
            TokenKind::Star => {
                self.advance()?;
                Ok(if attribute_axis {
                    NodeTest::any_node()
                } else {
                    NodeTest::any_element()
                })
            }
            TokenKind::Name(name) => {
                if *self.peek()? == TokenKind::LParen {
                    if let Some(kind) = kind_test_of(name) {
                        return self.parse_kind_test(kind);
                    }
                }
                let test = NodeTest::named(name.clone());
                self.advance()?;
                Ok(test)
            }
            other => Err(self.err(format!("expected a node test, found {other:?}"))),
        }
    }

    fn parse_kind_test(&mut self, kind: KindTest) -> Result<NodeTest, QueryError> {
        self.advance()?; // kind name
        self.expect(&TokenKind::LParen, "'('")?;
        // `element(name)` / `processing-instruction(target)`.
        let name = match &self.current.kind {
            TokenKind::Name(n) => {
                let n = n.clone();
                self.advance()?;
                Some(n)
            }
            TokenKind::Str(s) => {
                let s = s.clone();
                self.advance()?;
                Some(s)
            }
            _ => None,
        };
        self.expect(&TokenKind::RParen, "')'")?;
        Ok(NodeTest { kind, name })
    }

    // ----- primaries -----

    fn parse_primary(&mut self) -> Result<PlanExpr, QueryError> {
        let cur = self.current.kind.clone();
        match &cur {
            TokenKind::Integer(i) => {
                let i = *i;
                self.advance()?;
                Ok(PlanExpr::Const(Atom::Integer(i)))
            }
            TokenKind::Double(d) => {
                let d = *d;
                self.advance()?;
                Ok(PlanExpr::Const(Atom::Double(d)))
            }
            TokenKind::Str(s) => {
                let s = Atom::str(s);
                self.advance()?;
                Ok(PlanExpr::Const(s))
            }
            TokenKind::Variable(v) => {
                let v = v.clone();
                self.advance()?;
                Ok(PlanExpr::Var(v))
            }
            TokenKind::Dot => {
                self.advance()?;
                Ok(PlanExpr::ContextItem)
            }
            TokenKind::LParen => {
                self.advance()?;
                if self.eat(&TokenKind::RParen)? {
                    return Ok(PlanExpr::empty());
                }
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Name(name) if *self.peek()? == TokenKind::LParen => {
                let name = name.clone();
                self.advance()?; // name
                self.advance()?; // (
                let mut args = Vec::new();
                if self.current.kind != TokenKind::RParen {
                    loop {
                        args.push(self.parse_expr_single()?);
                        if !self.eat(&TokenKind::Comma)? {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(PlanExpr::BuiltinCall { name, args })
            }
            TokenKind::Lt => {
                // Direct constructor: `<` directly followed by a name
                // start in the raw input.
                let lt_offset = self.current.offset;
                if self
                    .input
                    .as_bytes()
                    .get(lt_offset + 1)
                    .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
                {
                    self.parse_constructor_raw(lt_offset)
                } else {
                    Err(self.err("unexpected '<' (not a constructor)"))
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    // ----- direct element constructors (raw mode) -----

    /// Parse a direct constructor starting at the `<` at `start`. On
    /// return, the token stream is repositioned after the constructor.
    fn parse_constructor_raw(&mut self, start: usize) -> Result<PlanExpr, QueryError> {
        let mut pos = start;
        let elem = self.raw_element(&mut pos)?;
        // Re-sync the token stream after the constructor text.
        self.lexer.seek(pos);
        self.peeked = None;
        self.advance()?;
        Ok(PlanExpr::Constructor(elem))
    }

    fn raw_err(&self, msg: impl Into<String>, pos: usize) -> QueryError {
        QueryError::parse(msg, self.input, pos)
    }

    fn raw_element(&mut self, pos: &mut usize) -> Result<PlanConstructor, QueryError> {
        // Nested direct constructors (`<a><a>…`) recurse here without
        // passing parse_expr_single — same stack-exhaustion guard.
        self.enter_nested()?;
        let result = self.raw_element_inner(pos);
        self.leave_nested();
        result
    }

    fn raw_element_inner(&mut self, pos: &mut usize) -> Result<PlanConstructor, QueryError> {
        let bytes = self.input.as_bytes();
        debug_assert_eq!(bytes.get(*pos), Some(&b'<'));
        *pos += 1;
        let name = self.raw_name(pos)?;
        let mut attributes = Vec::new();
        loop {
            self.raw_skip_ws(pos);
            match bytes.get(*pos) {
                Some(b'>') => {
                    *pos += 1;
                    break;
                }
                Some(b'/') if bytes.get(*pos + 1) == Some(&b'>') => {
                    *pos += 2;
                    return Ok(PlanConstructor {
                        name,
                        attributes,
                        content: Vec::new(),
                    });
                }
                Some(b) if b.is_ascii_alphabetic() || *b == b'_' => {
                    let attr_name = self.raw_name(pos)?;
                    self.raw_skip_ws(pos);
                    if bytes.get(*pos) != Some(&b'=') {
                        return Err(self.raw_err("expected '=' in attribute", *pos));
                    }
                    *pos += 1;
                    self.raw_skip_ws(pos);
                    let value = self.raw_attr_value(pos)?;
                    attributes.push((attr_name, value));
                }
                _ => return Err(self.raw_err(format!("malformed start tag <{name}>"), *pos)),
            }
        }
        // Element content until the matching end tag.
        let mut content = Vec::new();
        let mut text = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(self.raw_err(format!("<{name}> not closed"), *pos)),
                Some(b'<') => {
                    if bytes.get(*pos + 1) == Some(&b'/') {
                        flush_text(&mut text, &mut content);
                        *pos += 2;
                        let close = self.raw_name(pos)?;
                        if close != name {
                            return Err(self.raw_err(
                                format!("mismatched end tag </{close}>, expected </{name}>"),
                                *pos,
                            ));
                        }
                        self.raw_skip_ws(pos);
                        if bytes.get(*pos) != Some(&b'>') {
                            return Err(self.raw_err("expected '>'", *pos));
                        }
                        *pos += 1;
                        break;
                    } else if self.input[*pos..].starts_with("<!--") {
                        let end = self.input[*pos..]
                            .find("-->")
                            .ok_or_else(|| self.raw_err("unterminated comment", *pos))?;
                        *pos += end + 3;
                    } else if self.input[*pos..].starts_with("<![CDATA[") {
                        let end = self.input[*pos..]
                            .find("]]>")
                            .ok_or_else(|| self.raw_err("unterminated CDATA", *pos))?;
                        text.push_str(&self.input[*pos + 9..*pos + end]);
                        *pos += end + 3;
                    } else {
                        flush_text(&mut text, &mut content);
                        let child = self.raw_element(pos)?;
                        content.push(PlanContent::Element(Box::new(child)));
                    }
                }
                Some(b'{') => {
                    if bytes.get(*pos + 1) == Some(&b'{') {
                        text.push('{');
                        *pos += 2;
                    } else {
                        flush_text(&mut text, &mut content);
                        let expr = self.raw_enclosed_expr(pos)?;
                        content.push(PlanContent::Enclosed(expr));
                    }
                }
                Some(b'}') => {
                    if bytes.get(*pos + 1) == Some(&b'}') {
                        text.push('}');
                        *pos += 2;
                    } else {
                        return Err(self.raw_err("unescaped '}' in element content", *pos));
                    }
                }
                Some(b'&') => {
                    let rest = &self.input[*pos..];
                    let semi = rest
                        .find(';')
                        .ok_or_else(|| self.raw_err("unterminated entity", *pos))?;
                    text.push(decode_entity(&rest[1..semi]).ok_or_else(|| {
                        self.raw_err(format!("unknown entity &{};", &rest[1..semi]), *pos)
                    })?);
                    *pos += semi + 1;
                }
                Some(_) => {
                    let c = self.raw_char(*pos)?;
                    text.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
        flush_text(&mut text, &mut content);
        Ok(PlanConstructor {
            name,
            attributes,
            content,
        })
    }

    /// Attribute value: quoted string with `{expr}` interpolation.
    fn raw_attr_value(&mut self, pos: &mut usize) -> Result<Vec<PlanContent>, QueryError> {
        let bytes = self.input.as_bytes();
        let quote = match bytes.get(*pos) {
            Some(q @ (b'"' | b'\'')) => *q,
            _ => return Err(self.raw_err("attribute value must be quoted", *pos)),
        };
        *pos += 1;
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(self.raw_err("unterminated attribute value", *pos)),
                Some(b) if *b == quote => {
                    if bytes.get(*pos + 1) == Some(&quote) {
                        text.push(quote as char);
                        *pos += 2;
                    } else {
                        *pos += 1;
                        break;
                    }
                }
                Some(b'{') => {
                    if bytes.get(*pos + 1) == Some(&b'{') {
                        text.push('{');
                        *pos += 2;
                    } else {
                        flush_text(&mut text, &mut parts);
                        let expr = self.raw_enclosed_expr(pos)?;
                        parts.push(PlanContent::Enclosed(expr));
                    }
                }
                Some(b'}') if bytes.get(*pos + 1) == Some(&b'}') => {
                    text.push('}');
                    *pos += 2;
                }
                Some(b'&') => {
                    let rest = &self.input[*pos..];
                    let semi = rest
                        .find(';')
                        .ok_or_else(|| self.raw_err("unterminated entity", *pos))?;
                    text.push(decode_entity(&rest[1..semi]).ok_or_else(|| {
                        self.raw_err(format!("unknown entity &{};", &rest[1..semi]), *pos)
                    })?);
                    *pos += semi + 1;
                }
                Some(_) => {
                    let c = self.raw_char(*pos)?;
                    text.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
        if !text.is_empty() {
            parts.push(PlanContent::Text(text));
        }
        Ok(parts)
    }

    /// Decode the character at `pos`, erroring (instead of panicking)
    /// when `pos` is past the input or not a char boundary — truncated
    /// or garbage constructor text must surface as a parse error.
    fn raw_char(&self, pos: usize) -> Result<char, QueryError> {
        self.input
            .get(pos..)
            .and_then(|rest| rest.chars().next())
            .ok_or_else(|| self.raw_err("malformed constructor content", pos))
    }

    /// `{ expr }` inside a constructor: hop back into token mode.
    fn raw_enclosed_expr(&mut self, pos: &mut usize) -> Result<PlanExpr, QueryError> {
        debug_assert_eq!(self.input.as_bytes().get(*pos), Some(&b'{'));
        self.lexer.seek(*pos + 1);
        self.peeked = None;
        self.advance()?;
        let expr = self.parse_expr()?;
        if self.current.kind != TokenKind::RBrace {
            return Err(self.err("expected '}' closing enclosed expression"));
        }
        // The lexer now sits right after `}`.
        *pos = self.lexer.offset();
        Ok(expr)
    }

    fn raw_skip_ws(&self, pos: &mut usize) {
        let bytes = self.input.as_bytes();
        while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            *pos += 1;
        }
    }

    fn raw_name(&self, pos: &mut usize) -> Result<String, QueryError> {
        let bytes = self.input.as_bytes();
        let start = *pos;
        if !bytes
            .get(*pos)
            .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
        {
            return Err(self.raw_err("expected a name", *pos));
        }
        *pos += 1;
        while bytes
            .get(*pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            *pos += 1;
        }
        Ok(self.input[start..*pos].to_string())
    }
}

/// Unary minus and plus bind between the multiplicative operators and
/// union (see [`binary_op`]).
const UNARY: u8 = 7;

#[derive(Clone, Copy)]
enum BinOp {
    Or,
    And,
    Comp(CompOp),
    Range,
    Arith(ArithOp),
    Union,
    Intersect,
    Except,
}

/// The binary operator a token in operator position spells, with its
/// precedence (higher binds tighter).
fn binary_op(kind: &TokenKind) -> Option<(u8, BinOp)> {
    let comp = |op| Some((3, BinOp::Comp(op)));
    let arith = |prec, op| Some((prec, BinOp::Arith(op)));
    match kind {
        TokenKind::Eq => comp(CompOp::Eq),
        TokenKind::Ne => comp(CompOp::Ne),
        TokenKind::Lt => comp(CompOp::Lt),
        TokenKind::Le => comp(CompOp::Le),
        TokenKind::Gt => comp(CompOp::Gt),
        TokenKind::Ge => comp(CompOp::Ge),
        TokenKind::Plus => arith(5, ArithOp::Add),
        TokenKind::Minus => arith(5, ArithOp::Sub),
        TokenKind::Star => arith(6, ArithOp::Mul),
        TokenKind::Pipe => Some((8, BinOp::Union)),
        TokenKind::Name(n) => match n.as_str() {
            "or" => Some((1, BinOp::Or)),
            "and" => Some((2, BinOp::And)),
            "eq" => comp(CompOp::ValEq),
            "ne" => comp(CompOp::ValNe),
            "lt" => comp(CompOp::ValLt),
            "le" => comp(CompOp::ValLe),
            "gt" => comp(CompOp::ValGt),
            "ge" => comp(CompOp::ValGe),
            "is" => comp(CompOp::Is),
            "to" => Some((4, BinOp::Range)),
            "div" => arith(6, ArithOp::Div),
            "idiv" => arith(6, ArithOp::IDiv),
            "mod" => arith(6, ArithOp::Mod),
            "union" => Some((8, BinOp::Union)),
            "intersect" => Some((9, BinOp::Intersect)),
            "except" => Some((9, BinOp::Except)),
            _ => None,
        },
        _ => None,
    }
}

/// Boundary whitespace handling: whitespace-only literal text between
/// constructor parts is dropped (XQuery's default `boundary-space strip`).
fn flush_text(text: &mut String, content: &mut Vec<PlanContent>) {
    if !text.is_empty() {
        if !text.chars().all(char::is_whitespace) {
            content.push(PlanContent::Text(std::mem::take(text)));
        } else {
            text.clear();
        }
    }
}

fn decode_entity(name: &str) -> Option<char> {
    Some(match name {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "quot" => '"',
        "apos" => '\'',
        _ if name.starts_with("#x") || name.starts_with("#X") => {
            char::from_u32(u32::from_str_radix(&name[2..], 16).ok()?)?
        }
        _ if name.starts_with('#') => char::from_u32(name[1..].parse().ok()?)?,
        _ => return None,
    })
}

fn kind_test_of(name: &str) -> Option<KindTest> {
    Some(match name {
        "node" => KindTest::AnyKind,
        "text" => KindTest::Text,
        "comment" => KindTest::Comment,
        "processing-instruction" => KindTest::Pi,
        "element" => KindTest::Element,
        "document-node" => KindTest::Document,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> PlanExpr {
        parse_query(s).unwrap().body
    }

    #[test]
    fn literals_and_sequences() {
        assert!(matches!(parse("42"), PlanExpr::Const(Atom::Integer(42))));
        assert!(matches!(parse("()"), PlanExpr::Sequence(v) if v.is_empty()));
        assert!(matches!(parse("(1, 2, 3)"), PlanExpr::Sequence(v) if v.len() == 3));
        assert!(matches!(parse(r#""hi""#), PlanExpr::Const(Atom::String(s)) if &*s == "hi"));
    }

    #[test]
    fn path_with_standoff_axis() {
        let e = parse("//music/select-narrow::shot");
        let PlanExpr::StandoffStep { op, test, .. } = &e else {
            panic!("expected step, got {e:?}");
        };
        assert_eq!(op.axis, StandoffAxis::SelectNarrow);
        assert_eq!(test.name.as_deref(), Some("shot"));
    }

    #[test]
    fn abbreviated_attribute_step() {
        let e = parse("$b/@id");
        let PlanExpr::TreeStep {
            axis, test, input, ..
        } = &e
        else {
            panic!("{e:?}")
        };
        assert_eq!(*axis, TreeAxis::Attribute);
        assert_eq!(test.name.as_deref(), Some("id"));
        assert!(matches!(input.as_deref(), Some(PlanExpr::Var(v)) if v == "b"));
    }

    #[test]
    fn predicates_parse() {
        let e = parse("//person[@id = \"person0\"]/name");
        let PlanExpr::TreeStep { input, .. } = &e else {
            panic!("{e:?}")
        };
        let Some(PlanExpr::TreeStep { predicates, .. }) = input.as_deref() else {
            panic!("{input:?}")
        };
        assert_eq!(predicates.len(), 1);
    }

    #[test]
    fn positional_predicate() {
        let e = parse("$b/bidder[1]");
        let PlanExpr::TreeStep { predicates, .. } = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(predicates[0], PlanExpr::Const(Atom::Integer(1))));
    }

    #[test]
    fn flwor_paper_figure5() {
        // StandOff XMark Query 2 from Figure 5 of the paper.
        let q = parse_query(
            r#"for $b in doc("xmark110MB.xml")
                 //site/select-narrow::open_auctions
                 /select-narrow::open_auction
               return <increase> {
                 $b/select-narrow::bidder[1]/select-narrow::increase
               } </increase>"#,
        )
        .unwrap();
        let PlanExpr::Flwor {
            clauses,
            return_clause,
            ..
        } = &q.body
        else {
            panic!("{:?}", q.body)
        };
        assert_eq!(clauses.len(), 1);
        assert!(matches!(return_clause.as_ref(), PlanExpr::Constructor(_)));
    }

    #[test]
    fn figure2_udf_module() {
        // The paper's Figure 2 text (module decl + function).
        let q = parse_query(
            r#"declare module standoff = "http://w3c.org/tr/standoff/"
               declare function select-narrow($input as xs:anyNode*)
                 as xs:anyNode*
               {
                 (for $q in $input
                  for $p in root($q)//*
                  where $p/@start >= $q/@start
                    and $p/@end <= $q/@end
                  return $p)/.
               }
               select-narrow(//music)/self::shot"#,
        )
        .unwrap();
        assert_eq!(q.functions.len(), 1);
        assert_eq!(q.functions[0].params, vec!["input"]);
        // The call stays by-name until the resolve step binds it.
        let PlanExpr::TreeStep { input, .. } = &q.body else {
            panic!("{:?}", q.body)
        };
        assert!(
            matches!(input.as_deref(), Some(PlanExpr::BuiltinCall { name, .. }) if name == "select-narrow")
        );
    }

    #[test]
    fn declare_option_standoff() {
        let q = parse_query(
            r#"declare option standoff-start "from";
               declare option standoff-end "to";
               1"#,
        )
        .unwrap();
        assert_eq!(
            q.options,
            vec![
                ("standoff-start".to_string(), "from".to_string()),
                ("standoff-end".to_string(), "to".to_string())
            ]
        );
    }

    #[test]
    fn constructor_with_enclosed_exprs() {
        let e = parse(r#"<result count="{1 + 2}">text {3 * 4} more</result>"#);
        let PlanExpr::Constructor(c) = &e else {
            panic!("{e:?}")
        };
        assert_eq!(c.name, "result");
        assert_eq!(c.attributes.len(), 1);
        assert_eq!(c.content.len(), 3);
        assert!(matches!(&c.content[0], PlanContent::Text(t) if t == "text "));
        assert!(matches!(&c.content[1], PlanContent::Enclosed(_)));
    }

    #[test]
    fn nested_constructors() {
        let e = parse("<a><b>{ 1 }</b><c/></a>");
        let PlanExpr::Constructor(c) = &e else {
            panic!("{e:?}")
        };
        assert_eq!(c.content.len(), 2);
    }

    #[test]
    fn constructor_brace_escapes() {
        let e = parse("<a>{{literal}}</a>");
        let PlanExpr::Constructor(c) = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(&c.content[0], PlanContent::Text(t) if t == "{literal}"));
    }

    #[test]
    fn comparison_vs_constructor_disambiguation() {
        // `$a < $b` is a comparison; `<b/>` is a constructor.
        assert!(matches!(
            parse("$a < $b"),
            PlanExpr::Comparison(CompOp::Lt, _, _)
        ));
        assert!(matches!(parse("<b/>"), PlanExpr::Constructor(_)));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse("1 + 2 * 3");
        let PlanExpr::Arith(ArithOp::Add, _, rhs) = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(rhs.as_ref(), PlanExpr::Arith(ArithOp::Mul, _, _)));
    }

    #[test]
    fn if_and_quantified() {
        assert!(matches!(
            parse("if (1) then 2 else 3"),
            PlanExpr::IfThenElse { .. }
        ));
        assert!(matches!(
            parse("some $x in (1,2) satisfies $x = 2"),
            PlanExpr::Quantified { every: false, .. }
        ));
        assert!(matches!(
            parse("every $x in (1,2) satisfies $x > 0"),
            PlanExpr::Quantified { every: true, .. }
        ));
    }

    #[test]
    fn keywords_usable_as_element_names() {
        // `for`, `if`, `return` are legal name tests when not followed by
        // their grammatical continuations.
        let e = parse("/for/if/return");
        assert!(matches!(e, PlanExpr::TreeStep { .. }));
    }

    #[test]
    fn double_slash_desugars() {
        let e = parse("//a");
        let PlanExpr::TreeStep { input, .. } = &e else {
            panic!("{e:?}")
        };
        let Some(PlanExpr::TreeStep { axis, .. }) = input.as_deref() else {
            panic!("{input:?}")
        };
        assert_eq!(*axis, TreeAxis::DescendantOrSelf);
    }

    #[test]
    fn union_expression() {
        assert!(matches!(parse("a | b"), PlanExpr::Union(_, _)));
    }

    #[test]
    fn range_expression() {
        assert!(matches!(parse("1 to 10"), PlanExpr::Range(_, _)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("1 1").is_err());
    }

    #[test]
    fn error_positions() {
        let e = parse_query("1 +\n  ]").unwrap_err();
        let QueryError::Parse { line, .. } = e else {
            panic!("{e:?}")
        };
        assert_eq!(line, 2);
    }

    #[test]
    fn value_comparisons() {
        assert!(matches!(
            parse("1 eq 2"),
            PlanExpr::Comparison(CompOp::ValEq, _, _)
        ));
        assert!(matches!(
            parse("$a is $b"),
            PlanExpr::Comparison(CompOp::Is, _, _)
        ));
    }

    #[test]
    fn order_by_clause() {
        let e = parse("for $x in (3,1,2) order by $x descending return $x");
        let PlanExpr::Flwor { order_by, .. } = &e else {
            panic!("{e:?}")
        };
        assert_eq!(order_by.len(), 1);
        assert!(order_by[0].descending);
    }

    #[test]
    fn let_clause_and_multiple_bindings() {
        let e = parse("for $x in (1,2), $y in (3,4) let $z := ($x, $y) return $z");
        let PlanExpr::Flwor { clauses, .. } = &e else {
            panic!("{e:?}")
        };
        assert_eq!(clauses.len(), 3);
    }

    #[test]
    fn kind_tests() {
        let e = parse("a/text()");
        let PlanExpr::TreeStep { test, .. } = &e else {
            panic!("{e:?}")
        };
        assert_eq!(test.kind, KindTest::Text);
        let e = parse("a/node()");
        let PlanExpr::TreeStep { test, .. } = &e else {
            panic!("{e:?}")
        };
        assert_eq!(test.kind, KindTest::AnyKind);
    }

    #[test]
    fn filter_on_parenthesized_expr() {
        let e = parse("(1, 2, 3)[2]");
        assert!(matches!(e, PlanExpr::Filter { .. }));
    }
}
